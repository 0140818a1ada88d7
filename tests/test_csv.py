"""The CSV boundary: output order and bytes against a reference writer,
per-column parsers and rank memos, and the repeated-row error."""

import csv
import io

import pytest
from hypothesis import given, settings, strategies as st

import gradix as gx
from gradix import AttributeRegistry, SchemeError, Tuple, TypeRegistryError
from gradix.table import attrs_of, sorted_rows

from conftest import rdt, sch

# -- reference writer ------------------------------------------------------
#
# The straightforward form of the output order and format: one sort by the
# nested key (rank, values), every cell through `_reference_value_to_text`
# and every rank through `format_degree`.  `write_csv` must produce the same
# bytes.


def _reference_sorted_rows(d):
    sort_key = d.lattice.sort_key
    columns = zip(*[t._values for t in d.rows])
    if any(len(set(map(type, col))) > 1 for col in columns):
        def key(item):
            t, a = item
            return (-float(sort_key(a)), tuple([(type(v).__name__, v) for v in t._values]))
    else:
        def key(item):
            return (-float(sort_key(item[1])), item[0]._values)

    return sorted(d.rows.items(), key=key)


def _reference_value_to_text(v) -> str:
    if isinstance(v, float):
        return f"{v:.9g}"
    return str(v)


def _reference_write_csv(d) -> str:
    out = io.StringIO()
    fmt = d.lattice.format_degree
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(attrs_of(d.scheme)) + ["rank"])
    writer.writerows(
        [_reference_value_to_text(v) for v in t._values] + [fmt(a)]
        for t, a in _reference_sorted_rows(d)
    )
    return out.getvalue()


DIAMOND = gx.FiniteTableLattice(
    ["0", "a", "b", "1"],
    [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")],
    [("a", "a", "a"), ("b", "b", "b"), ("a", "b", "0")],
)

#: lattice and a strategy for its degrees; few distinct degrees, so ties
#: between rows are common
LATTICES = [
    (gx.BooleanLattice(), st.sampled_from([0, 1])),
    (gx.GoedelLattice(), st.one_of(
        st.sampled_from([0.0, 0.25, 0.5, 1.0, 0.123456789123, 1 / 3]),
        st.floats(0.0, 1.0),
    )),
    (gx.FiniteChain(5), st.integers(0, 4)),
    (DIAMOND, st.integers(0, 3)),
]

# text that needs CSV quoting: separators, quotes, line breaks, spaces
TEXT = st.text(alphabet=st.sampled_from(["a", "b", "Z", ",", '"', "\n", "\r", " ", "é"]),
               max_size=4)
INTS = st.integers(-3, 3)
DECIMALS = st.one_of(st.sampled_from([0.5, -1.25, 2.0, 1e-7, 123456789.25]),
                     st.floats(allow_nan=False, allow_infinity=False))
COLUMN_VALUES = {
    "int": INTS,
    "text": TEXT,
    "decimal": DECIMALS,
    "mixed": st.one_of(INTS, TEXT, DECIMALS),
}


@st.composite
def tables(draw):
    lat, degrees = draw(st.sampled_from(LATTICES))
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_VALUES)), max_size=3))
    attrs = [f"A{i}" for i in range(len(kinds))]
    row = st.tuples(*[COLUMN_VALUES[k] for k in kinds])
    rows = draw(st.lists(st.tuples(row, degrees), max_size=12))
    return gx.RankedDataTable(
        frozenset(attrs), lat, {Tuple(zip(attrs, values)): d for values, d in rows}
    )


@settings(max_examples=300, deadline=None)
@given(tables())
def test_write_csv_matches_reference(d):
    assert gx.table_to_csv(d) == _reference_write_csv(d)
    assert sorted_rows(d) == _reference_sorted_rows(d)


@pytest.mark.parametrize("lat", [lat for lat, _ in LATTICES], ids=lambda lat: lat.kind)
def test_write_csv_edge_tables_match_reference(lat):
    top = lat.top
    cases = [
        gx.empty(lat, frozenset()),
        gx.empty(lat, sch("A", "B")),
        gx.dee(lat, top),
        rdt(lat, {"A"}, {" lead": top, 'q"uote': top, "com,ma": top, "new\nline": top}),
        rdt(lat, {"A", "B"}, {(1, "x"): top, (1.5, "x"): top, ("1", 2): top}),
    ]
    for d in cases:
        assert gx.table_to_csv(d) == _reference_write_csv(d)


# -- parsing -----------------------------------------------------------------

# values and degrees that survive 9 significant digits and cell stripping;
# a lone carriage return is written unquoted and cannot be read back
KINDS = {"int": INTS, "text": TEXT.filter(lambda s: s == s.strip() and "\r" not in s),
         "decimal": st.sampled_from([0.5, -1.25, 2.0, 1e-7, 3.0e20])}
EXACT_LATTICES = [
    (lat, st.integers(0, 1000).map(lambda k: k / 1000) if lat.kind == "goedel" else degrees)
    for lat, degrees in LATTICES
]


@st.composite
def typed_tables(draw):
    lat, degrees = draw(st.sampled_from(EXACT_LATTICES))
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), max_size=3))
    types = {f"A{i}": kind for i, kind in enumerate(kinds)}
    row = st.tuples(*[KINDS[k] for k in kinds])
    rows = draw(st.lists(st.tuples(row, degrees), max_size=12))
    table = gx.RankedDataTable(
        frozenset(types), lat, {Tuple(zip(types, values)): d for values, d in rows}
    )
    return table, types


@settings(max_examples=200, deadline=None)
@given(typed_tables())
def test_read_csv_round_trips_declared_types(case):
    table, types = case
    again = gx.read_csv(gx.table_to_csv(table), table.lattice, AttributeRegistry(), types)
    assert again == table


def test_bad_rank_after_good_rows_raises(godel, chain5):
    with pytest.raises(gx.DegreeError):
        gx.read_csv("A,rank\n1,0.5\n2,0.5\n3,1.5\n", godel, AttributeRegistry())
    with pytest.raises(gx.DegreeError):
        gx.read_csv("A,rank\n1,0.5\n2,0.6\n", chain5, AttributeRegistry())


def test_bad_integer_cell_keeps_its_message(godel):
    reg = AttributeRegistry()
    with pytest.raises(TypeRegistryError) as err:
        gx.read_csv("A,B,rank\nx,1,0.5\ny, 2z ,0.5\n", godel, reg, {"B": "int"})
    assert str(err.value) == "value '2z' is not a valid integer for 'B'"
    # the same message as the single-cell entry point
    with pytest.raises(TypeRegistryError) as direct:
        reg.parse_value("B", "2z")
    assert str(direct.value) == str(err.value)


def test_non_finite_decimals_after_good_rows_are_rejected(godel):
    for bad in ("nan", " inf ", "-inf"):
        with pytest.raises(TypeRegistryError, match="not a finite decimal"):
            gx.read_csv(f"X,rank\n1.5,0.5\n2,0.5\n{bad},0.5\n", godel,
                        AttributeRegistry(), {"X": "decimal"})


def test_ranks_with_surrounding_spaces(godel, chain5):
    table = gx.read_csv("A,rank\na, 0.5 \nb,0.5\nc,  1\n", godel, AttributeRegistry())
    assert gx.table_to_csv(table) == "A,rank\nc,1\na,0.5\nb,0.5\n"
    table = gx.read_csv("A,rank\na, 0.75\nb,0.75 \n", chain5, AttributeRegistry())
    assert set(table.rows.values()) == {3}
    table = gx.read_csv("A,rank\nx, a \ny,a\n", DIAMOND, AttributeRegistry())
    assert set(table.rows.values()) == {1}


def test_text_cells_are_stripped(godel):
    table = gx.read_csv("A,rank\n  x ,0.5\n", godel, AttributeRegistry(), {"A": "text"})
    assert list(table.rows) == [Tuple({"A": "x"})]


# -- repeated rows -------------------------------------------------------------


def test_repeated_rows_are_an_error(godel):
    reg = AttributeRegistry()
    text = "X,rank\n1,0.5\n1,0.7\n2,0.3\n2,0\n"
    with pytest.raises(SchemeError, match="CSV line 3 repeats the tuple of line 2"):
        gx.read_csv(text, godel, reg, {"X": "int"})
    # a repeat that deletes the earlier row by a zero rank
    with pytest.raises(SchemeError, match="CSV line 3 repeats the tuple of line 2"):
        gx.read_csv("X,rank\n2,0.3\n2,0\n", godel, reg)
    # tuples repeat after parsing: spaces are stripped, 1 and 1.0 are one value
    with pytest.raises(SchemeError, match="CSV line 4 repeats the tuple of line 2"):
        gx.read_csv("X,Y\n1,a\n2,a\n 1.0, a\n", godel, AttributeRegistry(), {"X": "decimal"})


def test_repeated_row_line_counts_physical_lines(godel):
    # line 2-3 hold one quoted record, line 4 is blank
    text = 'A,rank\n"x\ny",0.5\n\nz,0.5\nw,0.5\nz,0.7\n'
    with pytest.raises(SchemeError, match="CSV line 7 repeats the tuple of line 5"):
        gx.read_csv(text, godel, AttributeRegistry())


def test_distinct_rows_and_blank_lines_load(godel):
    table = gx.read_csv("A,rank\n\nx,0.5\n\ny,0.5\n", godel, AttributeRegistry())
    assert len(table) == 2


def test_eval_rejects_repeated_csv_rows(tmp_path, capsys):
    from gradix.cli import EXIT_QUERY, main

    (tmp_path / "x.csv").write_text("X,rank\n1,0.5\n1,0.7\n2,0.3\n2,0\n")
    script = tmp_path / "script.gx"
    script.write_text(f'LOAD T FROM "{tmp_path}/x.csv" SCHEME X:int\nEVAL T\n')
    assert main(["eval", "--lattice", "godel", "--script", str(script)]) == EXIT_QUERY
    out, err = capsys.readouterr()
    assert out == ""
    assert "gradix: error at line 1: CSV line 3 repeats the tuple of line 2" in err
