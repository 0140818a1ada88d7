"""Generators, oracles, the finite-lattice search, and suite plumbing."""

import ast
import inspect
from pathlib import Path

import pytest

import gradix as gx
from gradix import Tuple
from gradix.harness import (
    GenConfig,
    enumerate_residuated_lattices,
    gen_instance,
    gen_ptc_expr,
    gen_rdt,
    run_theorem_suite,
    search_distributivity_counterexample,
)
from gradix.harness import latsearch, oracle
from gradix.harness.suites import THEOREM_IDS

from conftest import rdt, sch


def test_gen_rdt_deterministic_and_bounded(any_lattice):
    cfg = GenConfig(seed=5, lattice=any_lattice)
    scheme = sch("A", "B")
    t1 = gen_rdt(cfg, scheme)
    t2 = gen_rdt(cfg, scheme)
    assert t1 == t2
    assert 1 <= len(t1) <= cfg.max_rows
    for t, d in t1:
        assert all(1 <= t[a] <= cfg.max_values for a in scheme)
        assert not any_lattice.is_bottom(d)
    assert gen_rdt(cfg.with_seed(6), scheme) != t1 or len(t1) == 0


def test_gen_boolean_scores_all_one(boolean):
    cfg = GenConfig(seed=5, lattice=boolean)
    assert gen_rdt(cfg, sch("A")).is_non_ranked()


def test_gen_score_granularity(godel):
    cfg = GenConfig(seed=9, lattice=godel)
    for _t, d in gen_rdt(cfg, sch("A", "B")):
        assert abs(d / 0.05 - round(d / 0.05)) < 1e-9


def test_gen_instance_shares_lattice(godel):
    cfg = GenConfig(seed=1, lattice=godel)
    inst = gen_instance(cfg, {"X": sch("A"), "Y": sch("A", "B")})
    assert inst.symbols() == ["X", "Y"]
    assert inst.table("X").lattice == godel


def test_gen_ptc_expr_deterministic(godel):
    cfg = GenConfig(seed=33, lattice=godel)
    symbols = {"D1": sch("A", "B"), "D2": sch("B")}
    e1 = gen_ptc_expr(cfg, symbols, salt="x")
    e2 = gen_ptc_expr(cfg, symbols, salt="x")
    assert e1 == e2
    assert gx.ptc_to_text(e1) == gx.ptc_to_text(e2)


def test_oracle_suppliers_parts_by_hand():
    s = lambda name: Tuple({"S": name})
    sp = lambda sn, pn: Tuple({"S": sn, "P": pn})
    p = lambda name: Tuple({"P": name})
    d1 = frozenset({sp("s1", "p1"), sp("s1", "p2"), sp("s2", "p1")})
    d2 = frozenset({p("p1"), p("p2")})
    assert oracle.set_with_range(d1, d2, sch("S")) == frozenset({s("s1")})
    assert oracle.set_with_range(d1, frozenset(), sch("S")) == frozenset({s("s1"), s("s2")})


def test_oracle_trivial_cases():
    d1 = frozenset({Tuple({"A": 1})})
    d2 = frozenset({Tuple({"B": 1})})
    # vacuous universal: everything in the dividend join survives
    assert oracle.set_darwen(d1, d2, frozenset(), frozenset(), sch("A")) == \
        oracle.set_natural_join(d1, d2)
    # empty divisor empties the Todd universe
    assert oracle.set_todd(d1, frozenset(), sch("A"), frozenset(), frozenset()) == frozenset()


def test_oracle_module_is_independent():
    """Structural rule: the oracle module may import only the lattice module
    and the table value types, never the engine's operations."""
    source = Path(inspect.getsourcefile(oracle)).read_text()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.module in ("__future__", "typing", "itertools") or \
                node.module.endswith("lattice") or node.module.endswith("table")
            if node.module.endswith("table"):
                assert {a.name for a in node.names} <= {"Scheme", "Tuple"}
        elif isinstance(node, ast.Import):
            assert {a.name for a in node.names} <= {"itertools"}


def test_enumeration_counts_small_sizes():
    counts = {}
    for n, *_rest in enumerate_residuated_lattices(4):
        counts[n] = counts.get(n, 0) + 1
    # one Boolean algebra; the 3-chain carries exactly the min and the
    # bounded-sum multiplications; size 4 splits across the chain and the
    # diamond
    assert counts[2] == 1
    assert counts[3] == 2
    assert counts[4] == 7


def test_enumerated_structures_pass_full_validation():
    for n, leq, _meet, _join, otimes in enumerate_residuated_lattices(5):
        latsearch.as_table_lattice(n, leq, otimes)  # raises if any axiom fails


def test_no_distributivity_gap_below_six():
    assert search_distributivity_counterexample(2) is None
    assert search_distributivity_counterexample(3) is None
    assert search_distributivity_counterexample(5) is None


def test_distributivity_gap_at_six_and_t1_exhibition():
    found = search_distributivity_counterexample(6)
    assert found is not None
    lat, a, b, c = found
    assert lat.otimes(a, lat.meet(b, c)) != lat.meet(lat.otimes(a, b), lat.otimes(a, c))

    # feed the witness to the T1 instance shape: the two divisions separate
    d1 = rdt(lat, {"A"}, {1: a})
    d2 = rdt(lat, {"B"}, {1: lat.top, 2: lat.top})
    d3 = gx.RankedDataTable(sch("A", "B"), lat, {
        Tuple({"A": 1, "B": 1}): b, Tuple({"A": 1, "B": 2}): c,
    })
    gsdo = gx.div_gsdo(d1, d2, d3)
    ranged = gx.div_ranged(d3, d2, d1)
    assert gsdo.max_deviation(ranged) > 0

    # while with a non-ranked range the equality survives on any lattice
    d1n = gx.nabla(d1)
    assert gx.div_gsdo(d1n, d2, d3) == gx.div_ranged(d3, d2, d1n)


def test_witness_lattice_separates_t1_suite():
    """Feeding the non-distributive witness to the T1 suite exhibits the
    failure, while every lattice-agnostic identity still holds on it."""
    lat, *_ = search_distributivity_counterexample(6)
    cfg = GenConfig(seed=13, lattice=lat)
    t1 = run_theorem_suite("T1", cfg, 120)
    assert not t1.passed
    assert "non-ranked" not in t1.counterexample.detail
    for theorem_id in ("C-gsdo-ggdo", "T-ggdo-gddo", "T-gddo-variants",
                       "T-rdiv-via-gsdo", "ptc-compiler"):
        rep = run_theorem_suite(theorem_id, cfg, 30)
        assert rep.passed, rep.summary()


def test_run_theorem_suite_reproducible(godel):
    cfg = GenConfig(seed=12, lattice=godel)
    r1 = run_theorem_suite("T1", cfg, 40)
    r2 = run_theorem_suite("T1", cfg, 40)
    assert r1.machine_line() == r2.machine_line()
    assert r1.passed and r1.max_deviation <= r1.tolerance


def test_run_theorem_suite_unknown_id(godel):
    with pytest.raises(gx.GradixError):
        run_theorem_suite("T99", GenConfig(seed=0, lattice=godel))


def test_machine_line_format(godel):
    rep = run_theorem_suite("C-gsdo-ggdo", GenConfig(seed=3, lattice=godel), 10)
    line = rep.machine_line()
    assert line.startswith("THEOREM C-gsdo-ggdo instances=10 max_dev=")
    assert line.endswith("status=PASS")
    assert "THEOREM" in rep.summary()


def test_counterexample_reporting(godel):
    """A deliberately broken identity must report FAIL with replayable CSV."""
    from gradix.harness import suites

    run = suites._Run("demo", 0.0)
    lhs = rdt(godel, {"A"}, {1: 0.5})
    rhs = rdt(godel, {"A"}, {1: 0.9})
    run.check_tables(4, "demo check", lhs, rhs, {"D": lhs})
    rep = run.report(1)
    assert not rep.passed
    assert rep.counterexample.index == 4
    assert "A,rank" in rep.counterexample.instance_csv
    assert "0.5" in str(rep.counterexample)


def test_all_theorem_ids_run_briefly(godel):
    for theorem_id in THEOREM_IDS:
        rep = run_theorem_suite(theorem_id, GenConfig(seed=2, lattice=godel), 5)
        assert rep.passed, rep.summary()
        assert rep.instances == 5
