"""The CSV boundary: output order and bytes against a reference writer,
per-column parsers and rank memos, the repeated-row error, the bulk paths
against the csv module, and the reader's outcomes and error order."""

import csv
import hashlib
import random
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import gradix as gx
from gradix import AttributeRegistry, SchemeError, Tuple, TypeRegistryError
from gradix.table import attrs_of, sorted_rows

from conftest import rdt, sch

# -- reference writer ------------------------------------------------------
#
# The straightforward form of the output order and format: one sort by the
# nested key (rank, values), every cell through `_reference_value_to_text`
# and every rank through `format_degree`, quoted when it holds a comma, a
# quote, a line feed or a carriage return.  `write_csv` must produce the same
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


def _reference_cell(text: str) -> str:
    if any(c in text for c in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _reference_write_csv(d) -> str:
    fmt = d.lattice.format_degree
    lines = [list(attrs_of(d.scheme)) + ["rank"]]
    lines += [[_reference_value_to_text(v) for v in t._values] + [fmt(a)]
              for t, a in _reference_sorted_rows(d)]
    return "".join(",".join(map(_reference_cell, line)) + "\n" for line in lines)


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
        rdt(lat, {"A"}, {" lead": top, 'q"uote': top, "com,ma": top, "new\nline": top,
                         "Z\rZ": top, "crlf\r\n": top}),
        rdt(lat, {"A", "B"}, {(1, "x"): top, (1.5, "x"): top, ("1", 2): top}),
    ]
    for d in cases:
        assert gx.table_to_csv(d) == _reference_write_csv(d)


# -- parsing -----------------------------------------------------------------

# values and degrees that survive 9 significant digits and cell stripping
KINDS = {"int": INTS, "text": TEXT.filter(lambda s: s == s.strip()),
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


# -- one object per distinct value ---------------------------------------------


def _read_both_ways(text, lat, types):
    """The table of `text` read on the `str.split` path, and read with one
    cell quoted, which sends it through the csv module."""
    plain_rows, returned = gx.table._plain_rows, []

    def spy(*args):
        returned.append(plain_rows(*args))
        return returned[-1]

    with mock.patch("gradix.table._plain_rows", spy):
        split = gx.read_csv(text, lat, AttributeRegistry(), types)
    assert returned[0] is not None
    header, first, rest = text.split("\n", 2)
    cells = first.split(",")
    cells[0] = f'"{cells[0]}"'
    quoted = gx.read_csv("\n".join([header, ",".join(cells), rest]), lat,
                         AttributeRegistry(), types)
    assert quoted == split
    return split, quoted


def test_decimal_zeros_keep_their_signs(godel):
    text = "K,X,rank\na,-0.0,1\nb,0.0,1\nc,-0.0,0.5\nd,0.0,0.5\n"
    for table in _read_both_ways(text, godel, {"X": "decimal"}):
        assert gx.table_to_csv(table) == "K,X,rank\na,-0,1\nb,0,1\nc,-0,0.5\nd,0,0.5\n"


def test_text_columns_hold_one_object_per_value(godel):
    lines = ["N,T,U,rank"]
    for i in range(2000):
        a, b = i % 40, (i // 40) % 40
        c = (a + b + i // 1600) % 40  # rows 1600 on repeat (a, b) with another c
        lines.append(f"{1_000_000 + a},t{b},u{c},{(i % 4 + 1) / 4}")
    text = "\n".join(lines) + "\n"
    for table in _read_both_ways(text, godel, {"N": "int"}):
        assert len(table) == 2000
        numbers, *texts = zip(*table._rows)
        assert len(set(numbers)) == 40
        for column in texts:
            assert len(set(column)) == 40
            assert len(set(map(id, column))) == 40


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


# -- carriage returns and malformed records --------------------------------------


def test_carriage_return_values_are_quoted_and_read_back(godel):
    table = rdt(godel, {"A", "B"}, {("Z\rZ", 1): 0.5, ("q", 2): 1.0})
    text = gx.table_to_csv(table)
    assert text == 'A,B,rank\nq,2,1\n"Z\rZ",1,0.5\n'
    assert gx.read_csv(text, godel, AttributeRegistry(), {"B": "int"}) == table


def test_carriage_return_in_a_rank_label_is_quoted():
    lat = gx.FiniteTableLattice(["0", "x\ry"], [("0", "x\ry")], [("x\ry", "x\ry", "x\ry")])
    table = rdt(lat, {"A"}, {"q": lat.top})
    text = gx.table_to_csv(table)
    assert text == 'A,rank\nq,"x\ry"\n'
    assert text == _reference_write_csv(table)
    assert gx.read_csv(text, lat, AttributeRegistry()) == table


def test_malformed_record_is_a_scheme_error(godel):
    with pytest.raises(SchemeError, match="CSV line 3 is malformed"):
        gx.read_csv("A,rank\nx,1\nZ\rZ,1\n", godel, AttributeRegistry())
    with pytest.raises(SchemeError, match="CSV line 1 is malformed"):
        gx.read_csv("A\rB,rank\n", godel, AttributeRegistry())


def test_saved_carriage_return_loads_again(tmp_path, capsys):
    from gradix.cli import EXIT_OK, EXIT_QUERY, main

    (tmp_path / "in.csv").write_bytes(b'A,rank\n"Z\rZ",0.5\n')
    script = tmp_path / "script.gx"
    script.write_text(f'LOAD T FROM "{tmp_path}/in.csv" SCHEME A:text\n'
                      'SAVE T TO "out.csv"\n'
                      f'LOAD U FROM "{tmp_path}/out/out.csv" SCHEME A:text\n'
                      "EVAL U\n")
    argv = ["eval", "--lattice", "godel", "--script", str(script), "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_OK
    out, _err = capsys.readouterr()
    assert out == '-- EVAL (line 4)\nA,rank\n"Z\rZ",0.5\n\n'
    # read from a file, an unquoted one ends a line: a clean error
    (tmp_path / "in.csv").write_bytes(b"A,rank\nZ\rZ,0.5\n")
    assert main(argv) == EXIT_QUERY
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "gradix: error at line 1: CSV row ['Z'] does not match header ['A', 'rank']\n"


# -- the bulk paths against the csv module ----------------------------------------
#
# `write_csv` and `read_csv` build and split plain text with `str.join` and
# `str.split` and leave everything else to the csv module.  The writer must
# give the reference bytes on tables whose values sort around "\0" and ",";
# the reader must give what it gives when the csv module cuts every record,
# table or error.

# characters below "," (and "\0" itself), and values that are prefixes of
# each other
LOW_TEXT = st.one_of(
    st.sampled_from(["a", "a b", "a,", "a\0", "a\0b", "ab", "a+", "a\t", ""]),
    st.text(alphabet=st.sampled_from(["a", "b", " ", "\t", "+", "!", "*", "\0", "\x01", ","]),
            max_size=4),
)


@st.composite
def text_tables(draw):
    lat, degrees = draw(st.sampled_from(LATTICES))
    attrs = [f"A{i}" for i in range(draw(st.integers(1, 3)))]
    row = st.tuples(*[LOW_TEXT] * len(attrs))
    rows = draw(st.lists(st.tuples(row, degrees), max_size=12))
    return gx.RankedDataTable(
        frozenset(attrs), lat, {Tuple(zip(attrs, values)): d for values, d in rows}
    )


@settings(max_examples=400, deadline=None)
@given(text_tables())
def test_write_csv_of_text_tables_matches_reference(d):
    assert gx.table_to_csv(d) == _reference_write_csv(d)


def _plain_text_table(lat):
    """20,000 rows of three text columns whose values share prefixes and
    hold spaces, tabs, "+", "!", "-" and "." but need no quoting."""
    rng = random.Random(20000)
    cores = ["s", "p", "a", "ab", "a b"]
    tails = ["", "+", "!", " x", "\ty", "-", "+1", "."]
    rows = {}
    while len(rows) < 20000:
        values = tuple(rng.choice(cores) + str(rng.randrange(60)) + rng.choice(tails)
                       for _ in range(3))
        rows[values] = rng.randint(1, 20) / 20
    return gx.RankedDataTable(frozenset("ABC"), lat,
                              {Tuple(zip("ABC", v)): a for v, a in rows.items()})


def test_large_plain_text_table_keeps_its_bytes(godel):
    d = _plain_text_table(godel)
    text = gx.table_to_csv(d)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e0daa7fe864a2ef753119f64807b3361f837e9df26e99acb971c4e4520dca5f2")
    again = gx.read_csv(text, godel, AttributeRegistry())
    assert again == d
    assert hashlib.sha256(repr(sorted(again._rows.items())).encode()).hexdigest() == (
        "172e8e8e70e4b2af55acfeaebfe9766ce5d3f2322167d0a03a35f94fef92d943")


HEADERS = ["A,B,rank", "A,rank", "B,A,rank", "A,B", "A", "rank", "A,A,rank", " A , B ,rank"]
#: characters the csv module treats specially; a text holds digits and
#: spaces and at most one of these, so each one meets otherwise plain text
SPECIAL = ["", ",", '"', "\r", "\n", "\0"]


@st.composite
def csv_texts(draw):
    if draw(st.integers(0, 9)) == 0:  # anything at all, header included
        return draw(st.text(alphabet=st.sampled_from(list('012 ,"\r\n\0A')), max_size=30))
    header = draw(st.sampled_from(HEADERS))
    width = header.count(",") + 1
    alphabet = ["0", "1", "2", " "] + list(draw(st.sampled_from(SPECIAL)))
    cell = st.text(alphabet=st.sampled_from(alphabet), max_size=3)
    line = st.one_of(
        st.lists(cell, min_size=width, max_size=width),
        st.integers(max(width - 1, 1), width + 1).flatmap(
            lambda n: st.lists(cell, min_size=n, max_size=n)),
        st.just([]),
    ).map(",".join)
    lines = draw(st.lists(line, max_size=8))
    return header + "\n" + "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _outcome(read):
    """What a call of `read` gives: the table's scheme, its rows with value
    types shown and the number of distinct value objects in each column, or
    the type and message of its error."""
    try:
        table = read()
    except gx.GradixError as exc:
        return type(exc), str(exc)
    return (sorted(table.scheme), repr(list(table._rows.items())),
            [len(set(map(id, column))) for column in zip(*table._rows)])


def _agrees_with_the_csv_module(read):
    got = _outcome(read)
    with mock.patch("gradix.table._plain_rows", return_value=None):
        assert got == _outcome(read)
    return got


@settings(max_examples=800, deadline=None)
@given(csv_texts(), st.sampled_from([{}, {"A": "int"}, {"A": "decimal", "B": "text"}]),
       st.sampled_from([lat for lat, _ in LATTICES[:3]]))
@example("A,B,rank\n1,2,1,0\n1,1\n", {}, gx.BooleanLattice())
@example('A,rank\n"1,1\n', {}, gx.BooleanLattice())
@example("A,B,rank\n 12,0,1\n12 ,1,1\n12,2,1\n", {}, gx.BooleanLattice())
def test_read_csv_agrees_with_the_csv_module(tmp_path_factory, text, types, lat):
    path = tmp_path_factory.getbasetemp() / "agree.csv"
    path.write_text(text, encoding="utf-8", newline="")
    _agrees_with_the_csv_module(lambda: gx.read_csv(text, lat, AttributeRegistry(), types))

    def from_file():
        with open(path, encoding="utf-8", newline="") as fh:
            return gx.read_csv(fh, lat, AttributeRegistry(), types)

    _agrees_with_the_csv_module(from_file)


def test_long_fields_and_other_line_splits_go_to_the_csv_module(tmp_path, godel):
    limit = csv.field_size_limit(8)
    try:
        got = _agrees_with_the_csv_module(
            lambda: gx.read_csv("A,rank\nabcdefghi,1\n", godel, AttributeRegistry()))
        assert got == (SchemeError, "CSV line 2 is malformed: field larger than field limit (8)")
        # a line longer than the limit whose fields are not
        got = _agrees_with_the_csv_module(
            lambda: gx.read_csv("A,B,rank\nabcd,efgh,1\n", godel, AttributeRegistry()))
        assert got == (["A", "B"], "[(('abcd', 'efgh'), 1.0)]", [1, 1])
    finally:
        csv.field_size_limit(limit)
    # lines that do not end at the text's line feeds: the csv module reads
    # the second as a record cut short
    lines = ["A,rank\n", "x,1\ny,1\n"]
    kind, message = _agrees_with_the_csv_module(
        lambda: gx.read_csv(iter(lines), godel, AttributeRegistry()))
    assert kind is SchemeError and message.startswith("CSV line 2 is malformed")


# -- files against their text ----------------------------------------------------
#
# `read_csv` reads a file's first line and then the rest in one `read()`, and
# cuts its lines from that text where the file's own lines end at the text's
# line feeds; otherwise it rewinds the file and iterates it.  Either way a
# file must read as the list of the lines its iteration gives, which takes
# the path of any other iterable, and as its text wherever those lines are
# the text's.

QUOTED_HEADERS = ['"A",B,rank', '"A\nB",rank', '"A , B",rank', '"rank"']
NEWLINES = ["", None, "\n", "\r", "\r\n"]


@st.composite
def source_texts(draw):
    text = draw(csv_texts())
    if draw(st.integers(0, 3)) == 0:
        text = draw(st.sampled_from(QUOTED_HEADERS)) + "\n" + text.partition("\n")[2]
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    if draw(st.integers(0, 3)) == 0:
        text = "\ufeff" + text
    return text


def _text_lines(text):
    """The lines of `text` split at line feeds alone, each keeping its end."""
    lines = [line + "\n" for line in text.split("\n")]
    lines[-1] = lines[-1][:-1]
    return lines if lines[-1] else lines[:-1]


@settings(max_examples=300, deadline=None)
@given(source_texts(), st.sampled_from(["utf-8", "utf-8-sig"]),
       st.sampled_from([{}, {"A": "int"}]), st.sampled_from([lat for lat, _ in LATTICES[:3]]))
@example("A,rank\r\nx,1\r\nx,1\r\n", "utf-8", {}, gx.BooleanLattice())
@example("\ufeffA,rank\nx,1\ny\rz,1\n", "utf-8-sig", {}, gx.BooleanLattice())
@example('"A\r\nB",rank\n1,1\n"2,1\n', "utf-8", {}, gx.BooleanLattice())
@example("A,rank\nx,1\ny,1\n", "utf-8", {}, gx.BooleanLattice())
def test_a_file_reads_as_its_lines_and_its_text(tmp_path_factory, text, encoding, types, lat):
    path = tmp_path_factory.getbasetemp() / "source.csv"
    path.write_bytes(text.encode("utf-8"))

    def read(source):
        return _outcome(lambda: gx.read_csv(source, lat, AttributeRegistry(), types))

    for newline in NEWLINES:
        with open(path, encoding=encoding, newline=newline) as fh:
            lines = list(fh)
        with open(path, encoding=encoding, newline=newline) as fh:
            read_text = fh.read()
        with open(path, encoding=encoding, newline=newline) as fh:
            got = read(fh)
            assert len(got) == 2 or fh.read() == ""  # a table is read to the file's end
        assert got == read(iter(lines)) == read(lines)
        if lines == _text_lines(read_text):
            assert got == read(read_text)


def test_a_file_reads_from_where_it_stands(tmp_path, godel):
    path = tmp_path / "t.csv"
    path.write_text("# a comment line\nA,rank\nx,0.5\n", encoding="utf-8")
    for newline in ("", None, "\n"):
        with open(path, encoding="utf-8", newline=newline) as fh:
            fh.readline()
            table = gx.read_csv(fh, godel, AttributeRegistry())
        assert gx.table_to_csv(table) == "A,rank\nx,0.5\n"
    # a file iterated by `next` cannot tell its place and reads as its lines
    with open(path, encoding="utf-8") as fh:
        next(fh)
        assert gx.table_to_csv(gx.read_csv(fh, godel, AttributeRegistry())) == "A,rank\nx,0.5\n"


# -- the reader's outcomes, pinned ------------------------------------------------
#
# `test_read_csv_agrees_with_the_csv_module` compares the reader's paths with
# each other, so it cannot see a change that moves both: a new error order or
# message.  `READ_DIGEST` pins what seeded texts give, read as a `str`, as a
# file in three newline modes, and as the list of that file's lines and an
# iterator over it.

#: sha256 of `read_digest()`, computed while the reader still parsed rows on
#: two paths and read a source again to name a repeated row
READ_DIGEST = "6d036f8ba6cb18be90484b1b787ac66fa190802dd78d056b5f119604bf55dac1"

#: headers with no empty attribute name, among them a duplicate, padded
#: names and quoted ones
DIGEST_HEADERS = ["A,B,rank", "A,rank", "B,A,rank", "A,B", "A", "rank", "A,A,rank",
                  " A , B ,rank", '"A",B,rank', '"A\nB",rank']
DIGEST_TYPES = [{}, {"A": "int"}, {"A": "decimal", "B": "text"}]


def _digest_text(rng):
    """A header and up to eight lines of cells over digits, spaces and one
    character the csv module treats specially, with blank lines, lines of a
    wrong width and, now and then, "\\r\\n" line ends."""
    header = rng.choice(DIGEST_HEADERS)
    width = header.count(",") + 1
    alphabet = "012 " + rng.choice(SPECIAL)

    def cell():
        return "".join(rng.choice(alphabet) for _ in range(rng.choice([0, 1, 1, 1, 1, 2, 3])))

    lines = []
    for _ in range(rng.randint(0, 8)):
        n = rng.choice([0, width, width, width, width, width, max(width - 1, 1), width + 1])
        lines.append(",".join(cell() for _ in range(n)))
    text = header + "\n" + "\n".join(lines) + rng.choice(["", "\n"])
    return text.replace("\n", "\r\n") if rng.random() < 0.2 else text


def _digest_outcome(read) -> bytes:
    """`_outcome` of `read`, with the csv module's own words cut from a
    malformed record's error: they differ between Python versions."""
    got = _outcome(read)
    if isinstance(got[0], type):
        kind, message = got
        if " is malformed: " in message:
            message = message.partition(": ")[0]
        got = kind.__name__, message
    return repr(got).encode()


def read_digest(path) -> str:
    h = hashlib.sha256()
    rng = random.Random(2029)
    lattices = [gx.BooleanLattice(), gx.GoedelLattice(), gx.FiniteChain(5)]
    for k in range(2000):
        text = _digest_text(rng)
        lat, types = lattices[k % 3], DIGEST_TYPES[k // 3 % 3]

        def outcome(source):
            return _digest_outcome(lambda: gx.read_csv(source, lat, AttributeRegistry(), types))

        h.update(outcome(text))
        path.write_bytes(text.encode("utf-8"))
        for newline in ("", None, "\r"):
            with open(path, encoding="utf-8", newline=newline) as fh:
                lines = list(fh)
            with open(path, encoding="utf-8", newline=newline) as fh:
                h.update(outcome(fh))
            h.update(outcome(lines))
            h.update(outcome(iter(lines)))
    return h.hexdigest()


@pytest.mark.skipif(sys.version_info < (3, 11), reason="the csv module of 3.10 refuses NUL")
def test_every_source_keeps_its_outcome(tmp_path):
    assert read_digest(tmp_path / "digest.csv") == READ_DIGEST


# -- error order and reading once --------------------------------------------------
#
# A read raises the first thing wrong in line order: a cell or a rank that
# does not parse, a record that does not match the header or that the csv
# module cannot parse.  Only a source with none of these raises for a
# repeated tuple.  Each case holds on plain text and with its first cell
# quoted, which sends every record through the csv module.


def _plain_and_quoted(text):
    header, first, rest = text.split("\n", 2)
    cells = first.split(",")
    cells[0] = f'"{cells[0]}"'
    return [text, "\n".join([header, ",".join(cells), rest])]


def _error_of(text, lat, types=None):
    with pytest.raises(gx.GradixError) as err:
        gx.read_csv(text, lat, AttributeRegistry(), types)
    return type(err.value), str(err.value)


def test_a_bad_cell_beats_a_later_mis_sized_or_malformed_record(godel):
    bad_cell = (TypeRegistryError, "value 'zz' is not a valid integer for 'A'")
    for rest in ("4,w\n", "4,w,0.5,9\n", "4,w\r,0.5\n", '4,"w,0.5\n'):
        for text in _plain_and_quoted("A,B,rank\n1,x,0.5\nzz,y,0.5\n3,z,0.5\n" + rest):
            assert _error_of(text, godel, {"A": "int"}) == bad_cell


def test_a_bad_rank_beats_an_earlier_repeat(godel):
    for text in _plain_and_quoted("A,rank\na,0.5\nx,0.5\nx,0.7\ny,1.5\n"):
        assert _error_of(text, godel) == (gx.DegreeError, "1.5 is outside [0, 1]")


def test_a_malformed_record_after_a_repeat_is_the_error(godel):
    for text in _plain_and_quoted("A,rank\nx,0.5\nx,0.7\ny,0.5\nZ\rZ,0.5\n"):
        kind, message = _error_of(text, godel)
        assert kind is SchemeError and message.startswith("CSV line 5 is malformed: ")
    for text in _plain_and_quoted("A,rank\nx,0.5\nx,0.7\ny,0.5\nz\n"):
        assert _error_of(text, godel) == (
            SchemeError, "CSV row ['z'] does not match header ['A', 'rank']")


def _once(lines):
    """An iterable of `lines` whose second iteration fails."""
    started = []

    class Once:
        def __iter__(self):
            assert not started, "the source was iterated twice"
            started.append(True)
            yield from lines

    return Once()


ONE_SHOT_TEXTS = [
    'A,rank\r\nx,0.5\r\n"y\rz",0.5\r\nw,1\r\n',  # loads
    'A,rank\r\nx,0.5\r\n"y\rz",0.5\r\nx,1\r\n',  # repeats line 2
    'A,rank\r\nx,0.5\r\n"y\rz",0.5\r\nw,2\r\n',  # a bad rank
    'A,rank\r\nx,0.5\r\nx,0.7\r\n"y\rz",0.5\r\n"w,1\r\n',  # an open quote after a repeat
]


@pytest.mark.parametrize("text", ONE_SHOT_TEXTS)
def test_a_one_shot_source_reads_as_its_list(tmp_path, godel, text):
    path = tmp_path / "once.csv"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8", newline="") as fh:
        lines = list(fh)

    def outcome(source):
        return _outcome(lambda: gx.read_csv(source, godel, AttributeRegistry()))

    expected = outcome(lines)
    assert outcome(_once(lines)) == expected
    with open(path, encoding="utf-8", newline="") as fh:
        assert outcome(fh) == expected
        assert isinstance(expected[0], type) or fh.read() == ""
    for plain in _plain_and_quoted(text.replace("\r\n", "\n")):
        plain_lines = plain.splitlines(keepends=True)
        assert outcome(_once(plain_lines)) == outcome(plain_lines)


# -- header names and single cells -------------------------------------------------


def _header_then_fail(header):
    yield header
    raise AssertionError("a row was read")


@pytest.mark.parametrize("header, column", [
    ("A,rank,\n", 3), ("A, ,rank\n", 2), (",A\n", 1), ("A,,\n", 2), (" \n", 1)])
def test_an_empty_attribute_name_is_an_error(godel, header, column):
    names = [h.strip() for h in header.split(",")]
    message = f"empty attribute name in column {column} of CSV header {names}"
    for source in (header + "x,0.5,\n", _header_then_fail(header)):
        with pytest.raises(SchemeError) as err:
            gx.read_csv(source, godel, AttributeRegistry())
        assert str(err.value) == message


def test_eval_rejects_an_empty_attribute_name(tmp_path, capsys):
    from gradix.cli import EXIT_QUERY, main

    (tmp_path / "x.csv").write_text("A,rank,\nx,0.5,\n")
    script = tmp_path / "script.gx"
    script.write_text(f'LOAD T FROM "{tmp_path}/x.csv"\nEVAL T\n')
    assert main(["eval", "--lattice", "godel", "--script", str(script)]) == EXIT_QUERY
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("gradix: error at line 1: empty attribute name in column 3 of "
                   "CSV header ['A', 'rank', '']\n")


def test_parse_value_reads_a_cell_as_read_csv_does(godel):
    types = {"D": "decimal", "I": "int", "T": "text", "U": "text"}
    cells = {"D": "\t-0.5 ", "I": " 7 ", "T": "  x y ", "U": "u"}
    for text in _plain_and_quoted("D,I,T,U,rank\n" + ",".join(cells.values()) + ",1\n"):
        reg = AttributeRegistry()
        (row,) = gx.read_csv(text, godel, reg, types).rows
        for a, cell in cells.items():
            value = reg.parse_value(a, cell)
            assert (type(value), value) == (type(row[a]), row[a])
    assert AttributeRegistry().parse_value("T", " x ") == "x"
