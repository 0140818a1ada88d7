"""Degrees are validated where they enter and trusted inside.

Operator and division results skip `check` and the per-row scheme test, so
these tests hold the trusted construction to the invariants the validating
constructor would enforce, and make sure the operator hot path really does
not call `check`.
"""

import pytest

import gradix as gx
from gradix import division as dv
from gradix import table as tb
from gradix.harness import composed, gen
from gradix.harness.suites import _widening_table
from gradix.lattice import UnitIntervalLattice

from conftest import rdt, sch

LATTICES = {
    "boolean": gx.BooleanLattice(),
    "godel": gx.GoedelLattice(),
    "lukasiewicz": gx.LukasiewiczLattice(),
    "goguen": gx.GoguenLattice(),
    "chain5": gx.FiniteChain(5),
    # the four-element Boolean algebra with ⊗ = ∧: a ⊗ b = a ∧ b = 0 for
    # the two middle elements, so nonzero degrees combine to bottom
    "diamond": gx.FiniteTableLattice(
        ["0", "a", "b", "1"],
        [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")],
        [("a", "a", "a"), ("b", "b", "b"), ("a", "b", "0")],
    ),
}


def assert_trusted_invariant(out):
    lat = out.lattice
    assert type(out.scheme) is frozenset
    for t, d in out.rows.items():
        assert not lat.is_bottom(d), (t, d)
        assert lat.check(d) == d
        assert t.scheme == out.scheme
    # inside the engine rows are keyed by plain value tuples on the scheme
    width = len(out.scheme)
    for values in out._rows:
        assert type(values) is tuple and len(values) == width, values
    assert gx.RankedDataTable(out.scheme, lat, out.rows) == out


def operator_results(lat, seed):
    config = gen.GenConfig(seed=seed, lattice=lat)

    def g(salt, *attrs):
        return gen.gen_rdt(config, sch(*attrs), salt)

    ab1, ab2, ab3 = g("1", "A", "B"), g("2", "A", "B"), g("3", "A", "B")
    bc, abc = g("bc", "B", "C"), g("abc", "A", "B", "C")
    a, b, c = g("a", "A"), g("b", "B"), g("c", "C")
    # every (a, b) pair is present, so the divisions have non-empty answers
    cover = tb.union(ab1, tb.natural_join(a, b))
    yield "union", tb.union(ab1, ab2)
    yield "intersection", tb.intersection(ab1, ab2)
    yield "natural_join", tb.natural_join(ab1, bc)
    yield "natural_join (cross)", tb.natural_join(a, c)
    yield "projection", tb.projection(abc, sch("A", "C"))
    yield "projection (empty)", tb.projection(abc, sch())
    yield "semijoin", tb.semijoin(ab1, bc)
    yield "difference_graded", tb.difference_graded(ab1, ab2)
    yield "nabla", tb.nabla(ab1)
    yield "delta", tb.delta(ab1)
    yield "residuum_with_range", tb.residuum_with_range(ab1, ab2, ab3)
    yield "div_ranged", dv.div_ranged(cover, b, a)
    yield "div_gsdo", dv.div_gsdo(a, b, cover)
    yield "div_gsd", dv.div_gsd(g("ac", "A", "C"), g("bd", "B", "D"), g("abe", "A", "B", "E"))
    yield "div_gcodd", dv.div_gcodd(cover, b, tb.nabla(a))
    yield "div_gtodd", dv.div_gtodd(ab1, bc, tb.nabla(g("ac", "A", "C")))
    yield "div_ggdo", dv.div_ggdo(a, c, ab1, bc)
    yield "div_gddo", dv.div_gddo(ab1, bc, g("ad", "A", "D"), g("cd", "C", "D"))
    if isinstance(lat, gx.BooleanLattice):
        yield "semidifference", dv.semidifference(ab1, bc)
        yield "div_codd_composed", composed.div_codd_composed(cover, b)
        yield "div_small_composed", composed.div_small_composed(a, b, cover)
        yield "div_great_composed", composed.div_great_composed(a, c, ab1, bc)


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_trusted_results_keep_table_invariants(name):
    labels, nonempty = set(), set()
    for seed in range(12):
        for label, out in operator_results(LATTICES[name], seed):
            assert_trusted_invariant(out)
            labels.add(label)
            if len(out):
                nonempty.add(label)
    assert labels == nonempty


def test_csv_results_keep_table_invariants(chain5):
    reg = gx.AttributeRegistry()
    table = gx.read_csv("B,A,rank\n1,x,0.5\n2,y,0\n", chain5, reg, {"B": "int"})
    assert_trusted_invariant(table)
    assert len(table) == 1


def test_operator_pipeline_never_calls_check(monkeypatch, godel):
    # rdt keys list values in sorted-attribute order: (P, S) and (C, P)
    sp = rdt(godel, {"S", "P"}, {("p1", "s1"): 0.9, ("p2", "s1"): 0.7, ("p1", "s2"): 0.4})
    pc = rdt(godel, {"P", "C"}, {("c1", "p1"): 0.8, ("c2", "p2"): 0.6})
    divisor = rdt(godel, {"C"}, {"c1": 0.5, "c2": 0.5})
    calls = []
    real = UnitIntervalLattice.check

    def counting(self, value):
        calls.append(value)
        return real(self, value)

    monkeypatch.setattr(UnitIntervalLattice, "check", counting)
    joined = tb.natural_join(sp, pc)
    projected = tb.projection(joined, sch("S", "C"))
    out = dv.div_ranged(projected, divisor, tb.projection(projected, sch("S")))
    assert calls == []
    assert out.score(gx.Tuple({"S": "s1"})) == 0.8
    # the counter does see the validating entry points
    godel.otimes(0.5, 0.5)
    assert len(calls) == 2


@pytest.fixture
def tuples_made(monkeypatch):
    """A list that grows by one per `Tuple` constructed, by its constructor
    or the trusted `_make_tuple`."""
    made = []
    init, make = tb.Tuple.__init__, tb._make_tuple

    def counting_init(self, *args):
        made.append(args)
        init(self, *args)

    def counting_make(names, values):
        made.append(values)
        return make(names, values)

    monkeypatch.setattr(tb.Tuple, "__init__", counting_init)
    monkeypatch.setattr(tb, "_make_tuple", counting_make)
    return made


def test_operator_pipeline_builds_no_tuple(tuples_made, godel):
    """LOAD, JOIN, PROJECT, every division and write_csv run on value
    tuples: no `Tuple` is constructed, by its constructor or the trusted
    `_make_tuple`."""
    reg = gx.AttributeRegistry()

    def load(text):
        return gx.read_csv(text, godel, reg)

    sp = load("S,P,rank\ns1,p1,0.9\ns1,p2,0.7\ns2,p1,0.4\ns2,p2,1\n")
    pc = load("P,C,rank\np1,c1,0.8\np2,c2,0.6\np2,c1,0.3\n")
    divisor = load("C,rank\nc1,0.5\nc2,0.5\n")
    s, c = load("S\ns1\ns2\n"), load("C\nc1\nc2\n")
    joined = tb.natural_join(sp, pc)
    projected = tb.projection(joined, sch("S", "C"))
    results = [
        joined, projected,
        dv.div_ranged(projected, divisor, tb.projection(projected, sch("S"))),
        dv.div_gsdo(tb.projection(projected, sch("S")), divisor, projected),
        dv.div_gsd(tb.projection(sp, sch("S")), pc, projected),
        dv.div_gcodd(projected, divisor, s),
        dv.div_gtodd(sp, pc, tb.natural_join(s, c)),
        dv.div_ggdo(s, c, sp, pc),
        dv.div_gddo(s, c, sp, pc),
    ]
    texts = [tb.table_to_csv(out) for out in results]
    assert tuples_made == []
    assert all(len(out) for out in results)
    assert texts[2] == "S,rank\ns1,0.8\ns2,0.4\n"


def generated_tables(lat):
    for seed in range(20):
        config = gen.GenConfig(seed=seed, lattice=lat, max_rows=1 + seed % 8)
        for attrs in ("", "A", "AB", "ABC"):
            yield gen.gen_rdt(config, sch(*attrs), str(seed))
        inst = gen.gen_instance(config, {"X": sch("A", "C"), "Y": sch("B")})
        yield from map(inst.table, inst.symbols())
        yield _widening_table(config, gen.sub_rng(seed, "widen"), sch("A", "B", "C"))


def test_generation_builds_no_tuple(tuples_made):
    """The generators key rows by value tuples from the start."""
    tables = [t for lat in LATTICES.values() for t in generated_tables(lat)]
    assert tuples_made == []
    assert all(len(t) for t in tables)


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_generated_tables_keep_table_invariants(name):
    for out in generated_tables(LATTICES[name]):
        assert_trusted_invariant(out)


def test_validating_entry_points_still_reject(godel):
    with pytest.raises(gx.DegreeError):
        gx.RankedDataTable(sch("A"), godel, {gx.Tuple({"A": 1}): 1.5})
    with pytest.raises(gx.SchemeError):
        gx.RankedDataTable(sch("A"), godel, {gx.Tuple({"A": 1, "B": 2}): 0.5})
    with pytest.raises(gx.SchemeError):
        gx.RankedDataTable(sch("A"), godel, {("A", 1): 0.5})
    with pytest.raises(gx.DegreeError):
        gx.dee(godel, -0.1)
