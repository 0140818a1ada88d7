"""Tuples, ranked tables, the fundamental operations, and CSV round trips."""

import hashlib
import io

import pytest
from hypothesis import given, settings, strategies as st

import gradix as gx
from gradix import (
    AttributeRegistry,
    DatabaseInstance,
    EMPTY_TUPLE,
    NotJoinableError,
    SchemeError,
    Tuple,
    TypeRegistryError,
)
from gradix.harness import gen, oracle
from gradix.table import sorted_rows

from conftest import rdt, sch, scores, tup, witness_lattice


def test_tuple_projection():
    r = Tuple({"A": 1, "B": 2})
    assert r.project(sch("A")) == Tuple({"A": 1})
    assert Tuple({"A": 1}).project(frozenset()) == EMPTY_TUPLE
    with pytest.raises(SchemeError):
        Tuple({"A": 1}).project(sch("B"))


def test_tuple_join():
    r1, r2 = Tuple({"A": 1, "B": 2}), Tuple({"B": 2, "C": 3})
    assert r1.joinable(r2)
    assert r1.join(r2) == Tuple({"A": 1, "B": 2, "C": 3})
    assert not Tuple({"A": 1, "B": 2}).joinable(Tuple({"B": 9}))
    with pytest.raises(NotJoinableError):
        Tuple({"A": 1, "B": 2}).join(Tuple({"B": 9}))
    assert r1.joinable(EMPTY_TUPLE) and r1.join(EMPTY_TUPLE) == r1


@given(st.dictionaries(st.sampled_from("ABCD"), st.integers(0, 3), max_size=4),
       st.dictionaries(st.sampled_from("ABCD"), st.integers(0, 3), max_size=4))
def test_tuple_join_is_agreement(m1, m2):
    t1, t2 = Tuple(m1), Tuple(m2)
    agrees = all(m1[k] == m2[k] for k in m1.keys() & m2.keys())
    assert t1.joinable(t2) == agrees
    if agrees:
        assert t1.join(t2).as_dict() == {**m1, **m2}


def test_table_drops_zero_scores(godel):
    d = rdt(godel, {"A"}, {1: 0.0, 2: 0.5})
    assert len(d) == 1
    assert d.score(tup({"A"}, 1)) == 0.0


def test_table_rejects_off_scheme_tuples(godel):
    with pytest.raises(SchemeError):
        gx.RankedDataTable(sch("A"), godel, {Tuple({"B": 1}): 0.5})


def test_dee_and_empty(godel):
    assert gx.dee(godel, 1.0).score(EMPTY_TUPLE) == 1.0
    assert len(gx.dee(godel, 0.0)) == 0
    assert gx.dee(godel, 0.5).score(EMPTY_TUPLE) == 0.5
    assert len(gx.empty(godel, sch("A", "B"))) == 0


def test_union_intersection(godel):
    d1 = rdt(godel, {"A"}, {1: 0.3})
    d2 = rdt(godel, {"A"}, {1: 0.8})
    assert gx.union(d1, d2).score(tup({"A"}, 1)) == 0.8
    assert gx.intersection(d1, d2).score(tup({"A"}, 1)) == 0.3
    assert gx.union(d1, gx.empty(godel, sch("A"))) == d1
    assert gx.intersection(d1, d1) == d1
    with pytest.raises(SchemeError):
        gx.union(d1, rdt(godel, {"B"}, {1: 0.5}))
    with pytest.raises(gx.LatticeMismatchError):
        gx.union(d1, rdt(gx.make_lattice("goguen"), {"A"}, {1: 0.5}))


def test_natural_join(goguen, godel):
    d1 = rdt(goguen, {"A", "B"}, {("a1", "b1"): 0.8})
    d2 = rdt(goguen, {"B", "C"}, {("b1", "c1"): 0.5})
    out = gx.natural_join(d1, d2)
    assert scores(out) == {(("A", "a1"), ("B", "b1"), ("C", "c1")): 0.4}
    assert gx.natural_join(d1, gx.dee(goguen, 1.0)).approx_equals(d1)
    d2miss = rdt(goguen, {"B", "C"}, {("b2", "c1"): 0.5})
    assert len(gx.natural_join(d1, d2miss)) == 0
    # joining with a Dee table scales every score by its degree
    d = rdt(godel, {"A"}, {1: 0.7, 2: 0.2})
    scaled = gx.natural_join(d, gx.dee(godel, 0.5))
    assert scaled.score(tup({"A"}, 1)) == 0.5
    assert scaled.score(tup({"A"}, 2)) == 0.2


def test_a_join_past_the_row_bound_is_refused(godel, monkeypatch):
    d1 = rdt(godel, {"A"}, {1: 0.5, 2: 0.5, 3: 0.5})
    d2 = rdt(godel, {"B"}, {1: 0.5, 2: 0.5})
    monkeypatch.setattr(gx.table, "MAX_ROWS", 6)
    assert len(gx.natural_join(d1, d2)) == 6
    monkeypatch.setattr(gx.table, "MAX_ROWS", 5)
    with pytest.raises(gx.GradixError) as err:
        gx.natural_join(d1, d2)
    message = ("cross join of tables on ['A'] and ['B'] would build 6 rows, "
               "more than the bound of 5 (table.MAX_ROWS)")
    assert str(err.value) == message
    # a semijoin builds no join: over disjoint schemes each row of D1 scores
    # D1(r) ⊗ ⋁D2, and at most |D1| rows are built
    d2 = rdt(godel, {"B"}, {1: 0.25, 2: 0.75})
    assert scores(gx.semijoin(d1, d2)) == {(("A", a),): 0.5 for a in (1, 2, 3)}
    assert scores(gx.semijoin(d2, d1)) == {(("B", 1),): 0.25, (("B", 2),): 0.5}
    # with a shared attribute the product does not bound the result: 12
    # pairs, of which 6 join
    d12 = rdt(godel, {"A", "B"}, {(a, b): 0.5 for a in (1, 2, 3) for b in (1, 2)})
    monkeypatch.setattr(gx.table, "MAX_ROWS", 6)
    assert len(gx.natural_join(d12, d2)) == 6


def test_a_skewed_join_on_a_shared_attribute_is_refused(godel, monkeypatch):
    """Twenty rows a side that all share one value of A join in 400 rows;
    the join counts them from its groups before it builds any."""
    d1 = rdt(godel, {"A", "B"}, {(1, b): 0.5 for b in range(20)})
    d2 = rdt(godel, {"A", "C"}, {(1, c): 0.5 for c in range(20)})
    monkeypatch.setattr(gx.table, "MAX_ROWS", 400)
    assert len(gx.natural_join(d1, d2)) == 400
    monkeypatch.setattr(gx.table, "MAX_ROWS", 399)
    with pytest.raises(gx.GradixError) as err:
        gx.natural_join(d1, d2)
    assert str(err.value) == ("join of tables on ['A', 'B'] and ['A', 'C'] would build "
                              "400 rows, more than the bound of 399 (table.MAX_ROWS)")
    # a join whose product passes the bound but whose groups do not is built:
    # the other nineteen values of A find no partner
    d3 = rdt(godel, {"A", "C"}, {(a, 0): 0.5 for a in range(1, 21)})
    monkeypatch.setattr(gx.table, "MAX_ROWS", 20)
    assert len(gx.natural_join(d1, d3)) == 20
    monkeypatch.setattr(gx.table, "MAX_ROWS", 19)
    with pytest.raises(gx.GradixError, match="would build 20 rows"):
        gx.natural_join(d1, d3)


def test_a_gddo_whose_first_join_passes_the_row_bound_is_refused(godel, monkeypatch):
    """GDDO starts from D1 ⋈ D2, which is bounded as every join is."""
    d1 = rdt(godel, {"A", "B"}, {(1, b): 0.5 for b in range(10)})
    d2 = rdt(godel, {"A", "C"}, {(1, c): 0.5 for c in range(10)})
    d3 = rdt(godel, {"B", "D"}, {(0, 0): 0.5})
    d4 = rdt(godel, {"D"}, {0: 0.5})
    monkeypatch.setattr(gx.table, "MAX_ROWS", 100)
    assert len(gx.div_gddo(d1, d2, d3, d4)) == 10
    monkeypatch.setattr(gx.table, "MAX_ROWS", 99)
    with pytest.raises(gx.GradixError) as err:
        gx.div_gddo(d1, d2, d3, d4)
    assert str(err.value) == ("join of tables on ['A', 'B'] and ['A', 'C'] would build "
                              "100 rows, more than the bound of 99 (table.MAX_ROWS)")


def test_projection(godel):
    d = rdt(godel, {"A", "B"}, {("a1", "b1"): 0.6, ("a1", "b2"): 0.9})
    assert scores(gx.projection(d, sch("A"))) == {(("A", "a1"),): 0.9}
    assert gx.projection(d, d.scheme) == d
    onto_empty = gx.projection(d, frozenset())
    assert onto_empty.score(EMPTY_TUPLE) == 0.9
    with pytest.raises(SchemeError):
        gx.projection(d, sch("C"))


def test_projection_composition(godel):
    d = rdt(godel, {"A", "B", "C"}, {(1, 1, 1): 0.4, (1, 2, 2): 0.9})
    assert gx.projection(gx.projection(d, sch("A", "B")), sch("A")) == gx.projection(d, sch("A"))


def test_semijoin(godel):
    d1 = rdt(godel, {"A", "B"}, {("a1", "b1"): 0.7})
    d2 = rdt(godel, {"B"}, {"b1": 0.4})
    assert scores(gx.semijoin(d1, d2)) == {(("A", "a1"), ("B", "b1")): 0.4}
    assert gx.semijoin(d1, gx.dee(godel, 1.0)).approx_equals(d1)
    assert len(gx.semijoin(d1, gx.empty(godel, sch("B")))) == 0


def test_semijoin_two_definitions_agree(any_lattice):
    cfg = gen.GenConfig(seed=5, lattice=any_lattice)
    for i in range(30):
        rng = gen.sub_rng(5, "semijoin", i)
        s1 = gen.gen_scheme(rng, rng.randint(1, 3))
        s2 = gen.gen_scheme(rng, rng.randint(1, 3))
        d1 = gen.gen_rdt(cfg.with_seed(i), s1, "x")
        d2 = gen.gen_rdt(cfg.with_seed(i), s2, "y")
        via_join = gx.projection(gx.natural_join(d1, d2), d1.scheme)
        via_proj = gx.natural_join(d1, gx.projection(d2, s1 & s2))
        assert via_join.approx_equals(via_proj)
        assert gx.semijoin(d1, d2).approx_equals(via_join)


def test_difference_graded(boolean, godel, lukasiewicz):
    one = rdt(boolean, {"A"}, {1: 1})
    assert len(gx.difference_graded(one, one)) == 0
    out = gx.difference_graded(rdt(godel, {"A"}, {1: 0.6}), rdt(godel, {"A"}, {1: 0.3}))
    assert len(out) == 0  # 0.6 ⊗ (0.3 → 0) = 0.6 ⊗ 0
    out = gx.difference_graded(
        rdt(lukasiewicz, {"A"}, {1: 0.9}), rdt(lukasiewicz, {"A"}, {1: 0.3})
    )
    assert out.score(tup({"A"}, 1)) == pytest.approx(0.6, abs=1e-9)


def test_nabla_delta(godel):
    d = rdt(godel, {"A"}, {1: 0.3, 2: 1.0})
    assert scores(gx.nabla(d)) == {(("A", 1),): 1.0, (("A", 2),): 1.0}
    assert scores(gx.delta(d)) == {(("A", 2),): 1.0}
    assert len(gx.nabla(gx.empty(godel, sch("A")))) == 0
    # near-1 drift counts as 1 for the kernel
    drift = rdt(godel, {"A"}, {1: 1.0 - 1e-12})
    assert len(gx.delta(drift)) == 1


def test_residuum_with_range(boolean, godel):
    out = gx.residuum_with_range(
        rdt(godel, {"A"}, {1: 0.8}), rdt(godel, {"A"}, {1: 0.5}),
        rdt(godel, {"A"}, {1: 1.0}),
    )
    assert out.score(tup({"A"}, 1)) == 0.5
    empty_rng = gx.residuum_with_range(
        rdt(godel, {"A"}, {1: 0.8}), rdt(godel, {"A"}, {1: 0.5}),
        gx.empty(godel, sch("A")),
    )
    assert len(empty_rng) == 0
    b = rdt(boolean, {"A"}, {1: 1})
    assert gx.residuum_with_range(b, b, b).score(tup({"A"}, 1)) == 1


def test_boolean_collapse_matches_set_oracle(boolean):
    cfg = gen.GenConfig(seed=11, lattice=boolean)
    for i in range(40):
        rng = gen.sub_rng(11, "collapse", i)
        s1 = gen.gen_scheme(rng, rng.randint(1, 3))
        s2 = gen.gen_scheme(rng, rng.randint(1, 3))
        d1 = gen.gen_rdt(cfg.with_seed(i), s1, "p")
        d2 = gen.gen_rdt(cfg.with_seed(i), s2, "q")
        a, b = frozenset(d1.support()), frozenset(d2.support())
        assert frozenset(gx.natural_join(d1, d2).support()) == oracle.set_natural_join(a, b)
        assert frozenset(gx.semijoin(d1, d2).support()) == oracle.set_semijoin(a, b)
        target = frozenset(rng.sample(sorted(s1), rng.randint(0, len(s1))))
        assert frozenset(gx.projection(d1, target).support()) == oracle.set_projection(a, target)


#: sha256 of `operator_digest()`, computed before `semijoin` had a kernel of
#: its own and before the graded difference and residuum skipped bottom rows
#: as they built them: each operator must keep its rows, their order and
#: their degrees.
OPERATOR_DIGEST = "087145b06a7fc15dacf1d1d5766fb008c53140df205b778ae317c256011f60b9"


def operator_digest():
    h = hashlib.sha256()
    lattices = (gx.BooleanLattice(), gx.GoedelLattice(), gx.GoguenLattice(),
                gx.LukasiewiczLattice(), gx.FiniteChain(5), witness_lattice())
    for lat in lattices:
        for seed in range(60):
            cfg = gen.GenConfig(seed=seed, lattice=lat, max_rows=2 + seed % 9,
                                max_values=1 + seed % 3, score_step=(0.05, 0.25, 0.5)[seed % 3])
            rng = gen.sub_rng(seed, "operator-digest")
            r, s, t = gen.split_pool(rng, [rng.randint(0, 2) for _ in range(3)])

            def draw(scheme, salt):
                return gen.gen_rdt(cfg, scheme, salt)

            rs = draw(r | s, "rs")
            outs = [
                gx.union(rs, draw(r | s, "b")),
                gx.intersection(rs, draw(r | s, "b")),
                gx.natural_join(rs, draw(s | t, "st")),
                gx.projection(rs, r),
                gx.semijoin(rs, draw(s | t, "st")),  # overlapping schemes
                gx.semijoin(rs, draw(s, "s")),  # contained
                gx.semijoin(draw(s, "s"), rs),  # containing
                gx.semijoin(draw(r, "r"), draw(t, "t")),  # disjoint
                gx.semijoin(rs, draw(frozenset(), "e")),  # the empty scheme
                gx.difference_graded(rs, draw(r | s, "b")),
                gx.residuum_with_range(rs, draw(r | s, "b"), draw(r | s, "c")),
                gx.nabla(rs),
                gx.delta(rs),
            ]
            for out in outs:
                h.update(repr((sorted(out.scheme), list(out._rows.items()))).encode())
    return h.hexdigest()


def test_operators_keep_their_bytes():
    assert operator_digest() == OPERATOR_DIGEST


# -- the bulk kernels against their formulas -------------------------------------
#
# Each kernel must give its formula's rows, in the same order and with equal
# degrees, compared with `==`: `semijoin` the projection of the join, and the
# graded residuum and difference their formulas row by row, filtered.

SIX_LATTICES = [gx.BooleanLattice, gx.GoedelLattice, gx.LukasiewiczLattice,
                gx.GoguenLattice, lambda: gx.FiniteChain(5), witness_lattice]

#: degrees just below 1, where float sums and products round
NEAR_ONE = st.integers(1, 2**20).map(lambda k: 1.0 - k * 2.0**-53)


def _degrees(lat):
    if isinstance(lat, gx.lattice.UnitIntervalLattice):
        return st.one_of(st.floats(0.0, 1.0), NEAR_ONE,
                         st.sampled_from([1.0, 0.5, 0.25, 0.75, 0.05])).map(lat.check)
    if isinstance(lat, gx.FiniteTableLattice):
        return st.integers(0, len(lat.carrier) - 1)
    return st.integers(lat.bottom, lat.top)


def _tables(lat, scheme):
    keys = st.tuples(*[st.integers(0, 2)] * len(scheme))
    return st.dictionaries(keys, _degrees(lat), max_size=12).map(
        lambda rows: gx.RankedDataTable(scheme, lat, {
            Tuple(zip(sorted(scheme), k)): d for k, d in rows.items()}))


@st.composite
def lattice_and_tables(draw, schemes):
    lat = draw(st.sampled_from(SIX_LATTICES))()
    return lat, [draw(_tables(lat, frozenset(s))) for s in schemes(draw)]


def _two_schemes(draw):
    """Two schemes that are equal, contained, overlapping, disjoint or empty."""
    return [draw(st.sets(st.sampled_from("ABCD"), max_size=3)) for _ in range(2)]


def _one_scheme(draw):
    return [draw(st.sets(st.sampled_from("ABC"), max_size=2))] * 3


@settings(max_examples=400, deadline=None)
@given(lattice_and_tables(_two_schemes))
def test_semijoin_is_the_projected_join(case):
    _lat, (d1, d2) = case
    want = gx.projection(gx.natural_join(d1, d2), d1.scheme)
    got = gx.semijoin(d1, d2)
    assert got.scheme == want.scheme
    assert list(got._rows.items()) == list(want._rows.items())


@settings(max_examples=300, deadline=None)
@given(lattice_and_tables(_one_scheme))
def test_graded_residuum_and_difference_are_their_formulas(case):
    lat, (d1, d2, rng) = case
    otimes, residuum, bottom = lat.kotimes, lat.kresiduum, lat.bottom
    r1, r2 = d1._rows, d2._rows

    def filtered(rows):
        return [(v, x) for v, x in rows if x != bottom]

    want = filtered((v, otimes(g, residuum(r1.get(v, bottom), r2.get(v, bottom))))
                    for v, g in rng._rows.items())
    assert list(gx.residuum_with_range(d1, d2, rng)._rows.items()) == want
    want = filtered((v, otimes(a, residuum(r2.get(v, bottom), bottom)))
                    for v, a in r1.items())
    assert list(gx.difference_graded(d1, d2)._rows.items()) == want

def test_instance_binding(godel):
    d = rdt(godel, {"A"}, {1: 0.5})
    inst = DatabaseInstance(godel, {"D": d})
    assert inst.table("D") is d
    assert inst.symbols() == ["D"]
    with pytest.raises(gx.UnboundSymbolError):
        inst.table("E")
    with pytest.raises(gx.LatticeMismatchError):
        DatabaseInstance(godel, {"X": rdt(gx.make_lattice("boolean"), {"A"}, {1: 1})})
    wide = inst.with_table("E", d)
    assert wide.symbols() == ["D", "E"]
    assert inst.symbols() == ["D"]


def test_registry():
    reg = AttributeRegistry()
    reg.declare("A", "int")
    reg.declare("A", "integer")
    with pytest.raises(TypeRegistryError):
        reg.declare("A", "text")
    with pytest.raises(TypeRegistryError):
        reg.declare("B", "varchar")
    assert reg.parse_value("A", "3") == 3
    reg.declare("C", "decimal")
    assert reg.parse_value("C", "0.5") == 0.5
    assert reg.parse_value("unknown", "zz") == "zz"
    with pytest.raises(TypeRegistryError):
        reg.parse_value("A", "zz")


CSV_TEXT = """A,B,rank
a1,2,0.9
a2,1,0.4
"""


def test_csv_round_trip(godel):
    reg = AttributeRegistry()
    table = gx.read_csv(CSV_TEXT, godel, reg, {"A": "text", "B": "int"})
    assert table.scheme == sch("A", "B")
    assert table.score(Tuple({"A": "a1", "B": 2})) == 0.9
    assert gx.table_to_csv(table) == CSV_TEXT
    again = gx.read_csv(gx.table_to_csv(table), godel, reg)
    assert again == table


def test_csv_rank_defaults_and_sorting(godel):
    reg = AttributeRegistry()
    table = gx.read_csv("A\n2\n1\n", godel, reg, {"A": "int"})
    assert table.score(tup({"A"}, 1)) == 1.0
    # equal ranks fall back to lexicographic tuple order
    assert gx.table_to_csv(table) == "A,rank\n1,1\n2,1\n"


def test_csv_sort_by_descending_rank(godel):
    table = rdt(godel, {"A"}, {3: 0.2, 1: 0.9, 2: 0.9})
    assert gx.table_to_csv(table) == "A,rank\n1,0.9\n2,0.9\n3,0.2\n"


def test_csv_nine_significant_digits(godel):
    table = rdt(godel, {"A"}, {1: 0.123456789123})
    assert "0.123456789" in gx.table_to_csv(table)


def test_csv_empty_scheme(godel):
    d = gx.dee(godel, 0.25)
    text = gx.table_to_csv(d)
    assert text == "rank\n0.25\n"
    again = gx.read_csv(text, godel, AttributeRegistry())
    assert again == d


def test_csv_errors(godel):
    reg = AttributeRegistry()
    with pytest.raises(SchemeError):
        gx.read_csv("", godel, reg)
    with pytest.raises(SchemeError):
        gx.read_csv("A,A,rank\n1,2,1\n", godel, reg)
    with pytest.raises(SchemeError):
        gx.read_csv("A,rank\n1\n", godel, reg)
    with pytest.raises(gx.DegreeError):
        gx.read_csv("A,rank\n1,1.5\n", godel, reg)


def test_csv_chain_ranks():
    chain = gx.FiniteChain(5)
    reg = AttributeRegistry()
    table = gx.read_csv("A,rank\n1,0.75\n", chain, reg, {"A": "int"})
    assert table.score(tup({"A"}, 1)) == 3
    assert gx.table_to_csv(table) == "A,rank\n1,0.75\n"


def test_write_csv_to_stream(godel):
    buf = io.StringIO()
    gx.write_csv(rdt(godel, {"A"}, {1: 0.5}), buf)
    assert buf.getvalue() == "A,rank\n1,0.5\n"


def test_tuple_accepts_any_mapping_and_pairs():
    from types import MappingProxyType

    want = Tuple({"B": 2, "A": 1})
    assert Tuple(MappingProxyType({"A": 1, "B": 2})) == want
    assert Tuple([("B", 2), ("A", 1)]) == want
    assert Tuple(zip("AB", (1, 2))) == want
    assert want.items() == (("A", 1), ("B", 2))
    assert want.as_dict() == {"A": 1, "B": 2}
    assert want.scheme == sch("A", "B")
    assert want["B"] == 2
    with pytest.raises(KeyError):
        want["C"]


def test_tuple_equality_across_numeric_types():
    assert Tuple({"A": 1}) == Tuple({"A": 1.0})
    assert hash(Tuple({"A": 1})) == hash(Tuple({"A": 1.0}))
    assert Tuple({"A": 1}) != Tuple({"B": 1})
    assert Tuple({"A": 1}) != {"A": 1}
    assert len({Tuple({"A": 1}), Tuple({"A": 1.0})}) == 1


def test_tuple_errors_keep_their_types():
    r = Tuple({"A": 1, "B": 2})
    with pytest.raises(SchemeError):
        r.project(sch("A", "C"))
    with pytest.raises(NotJoinableError, match="disagree on B"):
        r.join(Tuple({"B": 3, "C": 4}))
    assert r.project({"B"}) == Tuple({"B": 2})


def test_sorted_rows_keeps_type_order_on_mixed_columns(godel):
    d = rdt(godel, {"A"}, {2: 0.5, 1.5: 0.5, 1: 0.5, 0.5: 0.5})
    # one type per column: plain value order
    assert [t["A"] for t, _ in sorted_rows(rdt(godel, {"A"}, {2: 0.5, 1: 0.5}))] == [1, 2]
    # mixed column: ordered by type name first, floats before ints
    assert [t["A"] for t, _ in sorted_rows(d)] == [0.5, 1.5, 1, 2]
    assert gx.table_to_csv(d) == "A,rank\n0.5,0.5\n1.5,0.5\n1,0.5\n2,0.5\n"


def test_csv_rejects_non_finite_decimals(godel):
    reg = AttributeRegistry()
    for bad in ("nan", "inf", "-inf", "NaN"):
        with pytest.raises(TypeRegistryError):
            gx.read_csv(f"X,rank\n{bad},0.5\n1,0.7\n", godel, reg, {"X": "decimal"})
    table = gx.read_csv("X,rank\n1.5,0.5\n2,0.7\n", godel, reg, {"X": "decimal"})
    assert len(table) == 2


def test_csv_columns_follow_header_order(godel):
    reg = AttributeRegistry()
    table = gx.read_csv("B,A,rank\nb1,a1,0.5\n", godel, reg)
    assert table.scheme == sch("A", "B")
    assert table.score(Tuple({"A": "a1", "B": "b1"})) == 0.5
    assert gx.table_to_csv(table) == "A,B,rank\na1,b1,0.5\n"


def test_tuple_pickles_into_a_process_that_never_saw_its_scheme(monkeypatch):
    import pickle

    from gradix import table as tb

    data = pickle.dumps(Tuple({"A": 1, "B": "x"}))
    monkeypatch.setattr(tb, "_NAMES", {})
    monkeypatch.setattr(tb, "_SCHEME_OF", {})
    loaded = pickle.loads(data)
    assert loaded.scheme == sch("A", "B")
    assert loaded == Tuple({"A": 1, "B": "x"})


# -- the read-only rows view ----------------------------------------------------


def test_rows_is_a_read_only_view(godel):
    d = rdt(godel, {"A", "B"}, {(1, "x"): 0.5, (2, "y"): 1.0})
    t = tup({"A", "B"}, 1, "x")
    with pytest.raises(TypeError):
        d.rows[t] = 0.0
    with pytest.raises(TypeError):
        d.rows[tup({"C"}, 1)] = 0.5
    assert not hasattr(d.rows, "update") and not hasattr(d.rows, "pop")
    assert d.rows == {t: 0.5, tup({"A", "B"}, 2, "y"): 1.0}
    assert len(d.rows) == 2 and list(d.rows) == [t, tup({"A", "B"}, 2, "y")]
    assert list(d.rows.items()) == list(d) == [(t, 0.5), (tup({"A", "B"}, 2, "y"), 1.0)]
    assert list(d.rows.values()) == [0.5, 1.0]
    assert d.rows[t] == 0.5
    assert repr(d.rows) == "{⟨A: 1, B: 'x'⟩: 0.5, ⟨A: 2, B: 'y'⟩: 1.0}"


def test_rows_view_finds_nothing_off_the_scheme(godel):
    d = rdt(godel, {"A"}, {1: 0.5})
    for probe in (tup({"B"}, 1), tup({"A", "B"}, 1, 1), (1,), 1, "A", None):
        assert d.score(probe) == godel.bottom
        assert d.rows.get(probe) is None
        assert probe not in d.rows
        with pytest.raises(KeyError):
            d.rows[probe]
    assert d.rows.get(tup({"B"}, 1), "none") == "none"


def test_rows_view_finds_equal_values(godel):
    d = rdt(godel, {"A"}, {1.0: 0.5})
    assert d.score(Tuple({"A": 1})) == 0.5
    assert d.rows.get(Tuple({"A": 1})) == 0.5
    assert Tuple({"A": 1}) in d.rows and Tuple({"A": 1}) in d.support()


def test_table_survives_pickling(godel, chain5):
    import pickle

    for table in (rdt(godel, {"A", "B"}, {(1, "x"): 0.5, (2, "y"): 1.0}),
                  rdt(chain5, {"A"}, {1: 3}), gx.dee(godel, 0.25), gx.empty(godel, sch("A"))):
        back = pickle.loads(pickle.dumps(table))
        assert back == table and hash(back) == hash(table)
        assert back.rows == table.rows and back.scheme == table.scheme
        assert gx.table_to_csv(back) == gx.table_to_csv(table)


def test_max_deviation_of_equal_rows_is_zero_at_once(monkeypatch):
    from conftest import count_rule

    lat = witness_lattice()
    d1 = rdt(lat, {"A", "B"}, {("a", 1): 1, ("b", 2): 4, ("c", 3): lat.top})
    same = rdt(lat, {"A", "B"}, {("c", 3): lat.top, ("a", 1): 1, ("b", 2): 4})
    other = rdt(lat, {"A", "B"}, {("a", 1): 1, ("b", 2): 3})
    moved = rdt(lat, {"A", "C"}, {("a", 1): 1, ("b", 2): 4, ("c", 3): lat.top})
    diffs = count_rule(monkeypatch, lat, "degree_diff")
    assert d1.max_deviation(same) == 0.0 and not diffs
    assert d1.max_deviation(other) == 1.0 and len(diffs) == 3
    assert d1.max_deviation(moved) == 1.0  # no tuple is on both schemes
