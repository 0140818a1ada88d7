"""Generators, oracles, the finite-lattice search, and suite plumbing."""

import ast
import contextlib
import dataclasses
import hashlib
import inspect
import io
import itertools
import random
import threading
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import gradix as gx
from gradix import Tuple, cli, division
from gradix.harness import (
    GenConfig,
    enumerate_residuated_lattices,
    gen_instance,
    gen_ptc_expr,
    gen_rdt,
    run_theorem_suite,
    search_distributivity_counterexample,
)
from gradix.harness import gen, latsearch, oracle
from gradix.harness.suites import (
    BOOLEAN_SUITES,
    DEFAULT_INSTANCES,
    THEOREM_IDS,
    _widening_table,
)

from conftest import count_rule, rdt, sch


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


DIAMOND = gx.FiniteTableLattice(
    ["0", "a", "b", "1"],
    [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")],
    [("a", "a", "a"), ("b", "b", "b"), ("a", "b", "0")],
)

#: sha256 of `generated_digest()`, computed with the generator that drew
#: through `randint` and `choice`: a seed must keep giving the same tables.
GENERATED_DIGEST = "506d9611ce879b2ba9d1a0efc1c98536efe1e027b7607517bba2e3f2ae7cdc73"


def generated_digest():
    h = hashlib.sha256()
    lattices = (gx.BooleanLattice(), gx.GoedelLattice(), gx.FiniteChain(5), DIAMOND,
                gx.LukasiewiczLattice())
    for lat in lattices:
        for seed in range(150):
            cfg = GenConfig(seed=seed, lattice=lat, max_rows=1 + seed % 9,
                            max_values=1 + seed % 6, score_step=(0.05, 0.1, 0.3, 1.0)[seed % 4])
            for scheme in (sch(), sch("A"), sch("A", "B"), sch("A", "B", "C")):
                t = gen_rdt(cfg, scheme, salt=str(seed % 3))
                h.update(repr((sorted(t.scheme), list(t._rows.items()))).encode())
                # the widening table must leave the caller's rng where it did
                rng = gen.sub_rng(seed, "widen", len(scheme))
                w = _widening_table(cfg, rng, scheme)
                h.update(repr((sorted(w.scheme), list(w._rows.items()), rng.random())).encode())
    return h.hexdigest()


def test_generated_tables_keep_their_draws():
    assert generated_digest() == GENERATED_DIGEST


@given(st.integers(1, 10_000), st.integers(0, 2**32))
def test_draw_below_draws_as_randrange(n, seed):
    rng, twin = random.Random(seed), random.Random(seed)
    assert ([gen._draw_below(rng, n) for _ in range(20)]
            == [twin.randrange(n) for _ in range(20)])
    assert rng.getstate() == twin.getstate()


def test_a_stream_is_in_the_state_random_random_gives_its_seed():
    """1,000 keys of mixed part types: `sub_rng` hashes their text as it
    always did, and the stream it opens is in the state of
    `random.Random(n)` for n the digest, `gauss_next` included."""
    parts = (0, 7, -3, 2**70, "x", "", "a|b", "é", 1.5, True, None, ("t", 1))
    for k in range(1000):
        key = tuple(parts[(k * 7 + j * 5) % len(parts)] for j in range(1 + k % 4)) + (k,)
        text = "|".join(map(str, key))
        n = int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")
        rng = gen.sub_rng(*key)
        assert type(rng) is random.Random
        assert rng.getstate() == random.Random(n).getstate()
        assert gen._stream(text).getstate() == random.Random(n).getstate()


def test_sample_and_range_helpers_draw_as_random_does():
    """For every population size 0-21 and every k, over 200 seeds,
    `_draw_sample`, `_draw_below` and `_draw_int` give what `Random.sample`,
    `randrange` and `randint` give and leave the rng in the same state; a k
    out of range raises the same error."""
    for seed in range(200):
        rng, twin = random.Random(seed), random.Random(seed)
        for n in range(22):
            population = tuple(range(n)) if seed % 2 else [f"p{i}" for i in range(n)]
            for k in range(n + 1):
                assert gen._draw_sample(rng, population, k) == twin.sample(population, k)
            if n:
                assert gen._draw_below(rng, n) == twin.randrange(n)
            assert gen._draw_int(rng, -n, n) == twin.randint(-n, n)
            assert rng.getstate() == twin.getstate()
    for n in range(22):
        for k in (-1, n + 1):
            rng, twin = random.Random(n), random.Random(n)
            with pytest.raises(ValueError) as want:
                twin.sample(tuple(range(n)), k)
            with pytest.raises(ValueError) as got:
                gen._draw_sample(rng, tuple(range(n)), k)
            assert str(got.value) == str(want.value)
            assert rng.getstate() == twin.getstate()
    # a larger population, or one of another type, goes to `Random.sample`
    for population in (tuple(range(40)), range(10)):
        rng, twin = random.Random(3), random.Random(3)
        assert gen._draw_sample(rng, population, 7) == twin.sample(population, 7)
        assert rng.getstate() == twin.getstate()
    with pytest.raises(TypeError):
        gen._draw_sample(random.Random(3), {1, 2}, 1)
    for low, high in ((5, 4), (0, -1)):
        with pytest.raises(ValueError):
            gen._draw_int(random.Random(3), low, high)
    with pytest.raises(ValueError):
        gen._draw_below(random.Random(3), 0)


#: the streams one instance of each suite opens: two in the instance loop,
#: then one per table `gen_rdt` draws, per `sub_rng` a case opens itself and
#: per calculus expression it draws
STREAMS_PER_INSTANCE = {
    "T1": 2 + 3,
    "C-gsdo-ggdo": 2 + 3,
    "T-ggdo-gddo": 2 + 4,
    "C-gsdo-gddo": 2 + 3,
    "T-gddo-variants": 2 + 4,
    "T-rdiv-via-gsdo": 2 + 3,
    "T-gsdo-via-rdiv": 2 + 3,
    "T-gddo-via-rdiv": 2 + 4,
    "L-semidiff": 2 + 2,
    "T-darwen-set": 2 + 4,
    # A1 A2 B2, the division stream, D1 D2, M1, the general Small Divide
    # stream, G1-G3, the Todd stream, T1 T2, E1-E4, the Darwen stream, W1-W4
    "boolean-collapse": 2 + 3 + 1 + 2 + 1 + 1 + 3 + 1 + 2 + 4 + 1 + 4,
    "ptc-compiler": None,  # 2 + one per drawn symbol (2 or 3) + 1 expression
}


@pytest.mark.parametrize("theorem_id", THEOREM_IDS)
def test_streams_opened_per_suite_instance(theorem_id, chain5, monkeypatch):
    opened = []
    stream = gen._stream
    monkeypatch.setattr(gen, "_stream", lambda text: opened.append(text) or stream(text))
    counts = []
    for seed in range(4):
        opened.clear()
        run_theorem_suite(theorem_id, GenConfig(seed=seed, lattice=chain5), 1)
        counts.append(len(opened))
        assert opened[:2] == [f"{seed}|{theorem_id}.schemes|0", f"{seed}|{theorem_id}|0"]
    want = STREAMS_PER_INSTANCE[theorem_id]
    if want is None:
        assert set(counts) <= {2 + 2 + 1, 2 + 3 + 1}
    else:
        assert counts == [want] * 4


def outcome_within(fn, seconds=10.0):
    """The exception `fn()` raises, or None; fails if it is still running
    after `seconds`."""
    outcome = []

    def run():
        try:
            fn()
        except Exception as exc:
            outcome.append(exc)
        else:
            outcome.append(None)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(seconds)
    assert outcome, f"still running after {seconds} s"
    return outcome[0]


def test_with_seed_keeps_every_other_field():
    """`with_seed` names the fields itself; one it left out would fall back
    to its default."""
    values = {f.name: object() for f in dataclasses.fields(GenConfig)}
    moved = GenConfig(**values).with_seed(9)
    assert moved.seed == 9
    assert all(getattr(moved, name) is value for name, value in values.items() if name != "seed")


def test_gen_rejects_a_grid_beyond_top(godel):
    # 3 × 0.35 = 1.05: the top grid point is no degree, whatever the seed
    for seed in range(5):
        cfg = GenConfig(seed=seed, lattice=godel, score_step=0.35)
        assert isinstance(outcome_within(lambda: gen_rdt(cfg, sch("A"))), gx.DegreeError)


@pytest.mark.parametrize("bound", ["max_rows", "max_values"])
def test_gen_rejects_empty_ranges(godel, chain5, bound):
    for lat in (godel, chain5):
        cfg = GenConfig(seed=1, lattice=lat, **{bound: 0})
        for scheme in (sch(), sch("A", "B")):
            assert isinstance(outcome_within(lambda: gen_rdt(cfg, scheme)), ValueError)


@pytest.mark.parametrize("step", [0.0, -0.1, float("nan")])
def test_gen_rejects_a_score_step_that_is_not_positive(godel, lukasiewicz, step):
    for lat in (godel, lukasiewicz):
        cfg = GenConfig(seed=1, lattice=lat, score_step=step)
        with pytest.raises(ValueError, match="score_step"):
            gen_rdt(cfg, sch("A"))


@pytest.mark.parametrize("step", [1.0000001, 1.5, 2.5, float("inf")])
def test_gen_rejects_a_score_step_above_one(godel, lukasiewicz, step):
    for lat in (godel, lukasiewicz):
        cfg = GenConfig(seed=1, lattice=lat, score_step=step)
        with pytest.raises(ValueError, match="score_step"):
            gen_rdt(cfg, sch("A"))


def test_a_score_grid_is_kept_for_one_lattice_object_and_only_when_valid(godel):
    """The grid is built again for another lattice object, even an equal
    one, and never kept for a bad step, which raises on every draw."""
    gen_rdt(GenConfig(seed=3, lattice=DIAMOND), sch("A"))
    grid = gen._last_grid
    assert grid[0] is DIAMOND
    gen_rdt(GenConfig(seed=4, lattice=DIAMOND, max_rows=3, max_values=2), sch("A", "B"))
    assert gen._last_grid is grid
    twin = gx.FiniteTableLattice(
        ["0", "a", "b", "1"],
        [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")],
        [("a", "a", "a"), ("b", "b", "b"), ("a", "b", "0")],
    )
    assert twin == DIAMOND
    gen_rdt(GenConfig(seed=3, lattice=twin), sch("A"))
    assert gen._last_grid[0] is twin
    for _ in range(2):
        gen_rdt(GenConfig(seed=1, lattice=godel), sch("A"))
        with pytest.raises(gx.DegreeError):
            gen_rdt(GenConfig(seed=1, lattice=godel, score_step=0.35), sch("A"))
        with pytest.raises(ValueError, match="score_step"):
            gen_rdt(GenConfig(seed=1, lattice=godel, score_step=1.5), sch("A"))
        gen_rdt(GenConfig(seed=1, lattice=godel, score_step=1.0), sch("A"))
        with pytest.raises(gx.DegreeError):
            gen_rdt(GenConfig(seed=1, lattice=godel, score_step=True), sch("A"))


def test_gen_rejects_a_lattice_without_nonzero_degrees():
    one = gx.FiniteTableLattice(["0"], [], [])
    with pytest.raises(gx.LatticeError, match="no nonzero degree"):
        gen_rdt(GenConfig(seed=1, lattice=one), sch("A"))


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


# sha256 over the repr of each (n, leq, meet, join, otimes) tuple in turn
ENUMERATION_DIGEST = "854c083b18b86f3d9d20ab150e3ecafb3c4674b849bc8ada7ce21ea0c851bf1f"


def test_enumeration_keeps_its_sequence():
    digest = hashlib.sha256()
    counts, orders = {}, {}
    for structure in enumerate_residuated_lattices(6):
        digest.update(repr(structure).encode())
        n, leq = structure[:2]
        counts[n] = counts.get(n, 0) + 1
        orders.setdefault(n, set()).add(leq)
    assert digest.hexdigest() == ENUMERATION_DIGEST
    assert counts == {2: 1, 3: 2, 4: 7, 5: 27, 6: 142}
    # only some lattices carry a residuated multiplication
    assert {n: len(leqs) for n, leqs in orders.items()} == {2: 1, 3: 1, 4: 2, 5: 3, 6: 7}


ENUMERATION_DIGEST_7 = "03789d8ecbe8328bbd267c152f62b9dce10b5a135a351a6c629c5b536361987f"


def test_enumeration_keeps_its_sequence_through_carrier_seven():
    digest = hashlib.sha256()
    counts, orders = {}, {}
    for structure in enumerate_residuated_lattices(7):
        digest.update(repr(structure).encode())
        n, leq = structure[:2]
        counts[n] = counts.get(n, 0) + 1
        orders.setdefault(n, set()).add(leq)
    assert digest.hexdigest() == ENUMERATION_DIGEST_7
    assert counts == {2: 1, 3: 2, 4: 7, 5: 27, 6: 142, 7: 839}
    assert len(orders[7]) == 18
    # lattices on 7 elements up to isomorphism (Heitzig & Reinhold 2002)
    assert len(list(latsearch.enumerate_bounded_lattices(7))) == 53


def filtered_posets(m):
    """Every strict partial order on m labelled points, as a relation mask,
    found by filtering all masks in ascending order: the poset walk's
    reference."""
    bit = latsearch._pair_bits(m)
    symmetric = [bit[i, j] | bit[j, i] for i, j in bit if i < j]
    chains = [(bit[i, j] | bit[j, k], bit[i, k])
              for i, j, k in itertools.permutations(range(m), 3)]
    for rel in range(1 << len(bit)):
        for both in symmetric:
            if rel & both == both:
                break
        else:
            for both, implied in chains:
                if rel & both == both and not rel & implied:
                    break
            else:
                yield rel


@pytest.mark.parametrize("m", range(6))
def test_poset_walk_matches_the_filter(m):
    assert list(latsearch._middle_posets(m)) == list(filtered_posets(m))


def test_bounded_lattices_match_the_known_counts():
    # lattices on 2..6 elements up to isomorphism (Heitzig & Reinhold 2002)
    counts = {n: len(list(latsearch.enumerate_bounded_lattices(n))) for n in range(2, 7)}
    assert counts == {2: 1, 3: 1, 4: 2, 5: 5, 6: 15}


def test_isomorphism_is_decided_before_bounds(monkeypatch):
    # the 219 labelled orders on the four middles fall into 16 classes
    calls = count_rule(monkeypatch, latsearch, "_bound_tables")
    list(latsearch.enumerate_bounded_lattices(6))
    assert len(calls) == 16


def test_the_search_counts_its_work(monkeypatch):
    """Counts, not timings, up to carrier 6: the complete tables that reach
    the associativity test (2,721 reached the leaf tests when the join law
    was tested only there) and the bound computations, one per isomorphism
    class of orders (1, 1, 2, 5 and 16 on carriers 2 to 6)."""
    leaves = count_rule(monkeypatch, latsearch, "_associative")
    bounds = count_rule(monkeypatch, latsearch, "_bound_tables")
    assert sum(1 for _ in enumerate_residuated_lattices(6)) == 179
    assert len(leaves) == 591
    assert len(bounds) == 25


def test_the_search_refuses_degenerate_sizes():
    # no elements is no lattice
    assert list(latsearch.enumerate_bounded_lattices(0)) == []
    assert list(latsearch.enumerate_bounded_lattices(-2)) == []
    # one element is the trivial lattice on the single label 0, whose only
    # product is 0 ⊗ 0 = 0
    [(leq, meet, join)] = latsearch.enumerate_bounded_lattices(1)
    assert list(latsearch.enumerate_multiplications(leq, meet, join, 1)) == [((0,),)]
    assert latsearch.as_table_lattice(1, leq, ((0,),)) == gx.FiniteTableLattice(["0"], [], [])


def brute_force_multiplications(leq, meet, n):
    """Every residuated multiplication on the lattice, tried table by table:
    commutative, top the unit, bottom absorbing, a⊗b ≤ a∧b on the middles,
    then kept when monotone, associative and residuated."""
    elems = range(n)
    middles = [(a, b) for a in range(1, n - 1) for b in range(a, n - 1)]
    choices = [[v for v in elems if leq[v][meet[a][b]]] for a, b in middles]
    found = set()
    for values in itertools.product(*choices):
        t = [[0] * n for _ in elems]
        for x in elems:
            t[x][n - 1] = t[n - 1][x] = x
        for (a, b), v in zip(middles, values):
            t[a][b] = t[b][a] = v
        monotone = all(leq[t[a][c]][t[b][c]]
                       for a in elems for b in elems if leq[a][b] for c in elems)
        associative = all(t[t[a][b]][c] == t[a][t[b][c]]
                          for a in elems for b in elems for c in elems)
        # a⊗c ≤ b has a greatest solution c for every a and b
        residuated = all(
            any(all(leq[t[a][c]][b] == leq[c][r] for c in elems) for r in elems)
            for a in elems for b in elems)
        if monotone and associative and residuated:
            found.add(tuple(map(tuple, t)))
    return found


def test_multiplications_match_a_brute_force():
    for n in range(2, 6):
        for leq, meet, join in latsearch.enumerate_bounded_lattices(n):
            tables = list(latsearch.enumerate_multiplications(leq, meet, join, n))
            assert len(tables) == len(set(tables))
            assert set(tables) == brute_force_multiplications(leq, meet, n)


def test_enumerated_structures_pass_full_validation():
    for n, leq, _meet, _join, otimes in enumerate_residuated_lattices(5):
        latsearch.as_table_lattice(n, leq, otimes)  # raises if any axiom fails


def first_meet_distributivity_gap(n, meet, otimes):
    """The first failing triple over all n³ triples in row-major order:
    the reference of the gap scan."""
    for a, b, c in itertools.product(range(n), repeat=3):
        if otimes[a][meet[b][c]] != meet[otimes[a][b]][otimes[a][c]]:
            return a, b, c
    return None


def test_the_gap_scan_finds_the_first_failing_triple():
    gaps = 0
    for n, _leq, meet, _join, otimes in enumerate_residuated_lattices(6):
        gap = latsearch.find_meet_distributivity_gap(n, meet, otimes)
        assert gap == first_meet_distributivity_gap(n, meet, otimes)
        gaps += gap is not None
    assert gaps > 0


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


#: sha256 of `suite_reports_digest()`, computed before the suites shared one
#: instance loop: every suite must keep its draws, labels and report bytes.
SUITE_REPORTS_DIGEST = "fb59932b13d2e9b1276c5da272edfb30b684baaedf94968a50463496dea0f2cd"


def suite_reports_digest():
    witness, *_ = search_distributivity_counterexample(6)
    h = hashlib.sha256()
    for lat in (gx.GoedelLattice(), gx.FiniteChain(5), witness):
        for theorem_id in THEOREM_IDS:
            rep = run_theorem_suite(theorem_id, GenConfig(seed=3, lattice=lat), 12)
            h.update(rep.summary().encode())
    return h.hexdigest()


def test_suite_reports_keep_their_bytes():
    # seed 3 makes T1 fail on the witness at instance 9, so a counterexample's
    # replay CSV is among the pinned bytes
    witness, *_ = search_distributivity_counterexample(6)
    rep = run_theorem_suite("T1", GenConfig(seed=3, lattice=witness), 12)
    assert rep.counterexample.index == 9
    assert suite_reports_digest() == SUITE_REPORTS_DIGEST


@pytest.mark.parametrize("n", [0, -3, True, False, 2.5])
def test_a_suite_runs_at_least_one_instance(godel, n):
    with pytest.raises(gx.GradixError, match="at least 1"):
        run_theorem_suite("T1", GenConfig(seed=1, lattice=godel), n)


WITNESS_FILE = Path(__file__).resolve().parents[1] / "bench" / "witness6.lat"

#: sha256 prefixes of the stdout of `gradix check --seed 1`, the suites in
#: `THEOREM_IDS` order, per lattice, as printed before the division kernel
#: remembered layouts
CHECK_DIGESTS = {
    "godel": "c9a79354aaace810",
    "lukasiewicz": "c9a79354aaace810",
    "goguen": "c9a79354aaace810",
    "chain:5": "e6053bd79138743f",
    f"table:{WITNESS_FILE}": "13ee62010f7f63cb",
}


def test_the_layout_memo_is_bounded_and_changes_no_report():
    """Kept warm over every suite on five lattices, the division kernel's
    layout memo fills to its bound and no further, and the reports keep
    the bytes printed without it."""
    for spec, digest in CHECK_DIGESTS.items():
        h = hashlib.sha256()
        for theorem_id in THEOREM_IDS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                cli.main(["check", "--suite", theorem_id, "--lattice", spec, "--seed", "1"])
            h.update(out.getvalue().encode())
            assert len(division._LAYOUTS) <= division._LAYOUT_BOUND
        assert h.hexdigest()[:16] == digest, spec
    assert len(division._LAYOUTS) == division._LAYOUT_BOUND


def test_suite_reports_do_not_depend_on_remembered_layouts(monkeypatch):
    """With the layout memo cleared before each suite, the reports keep
    their pinned bytes too."""
    run = run_theorem_suite

    def cold(*args):
        division._LAYOUTS.clear()
        return run(*args)

    monkeypatch.setitem(globals(), "run_theorem_suite", cold)
    assert suite_reports_digest() == SUITE_REPORTS_DIGEST


def test_suite_registry():
    """The benchmark and the command line read these three names."""
    assert THEOREM_IDS == (
        "T1", "C-gsdo-ggdo", "T-ggdo-gddo", "C-gsdo-gddo", "T-gddo-variants",
        "T-rdiv-via-gsdo", "T-gsdo-via-rdiv", "T-gddo-via-rdiv", "L-semidiff",
        "T-darwen-set", "boolean-collapse", "ptc-compiler",
    )
    assert BOOLEAN_SUITES == ("L-semidiff", "T-darwen-set", "boolean-collapse")
    assert DEFAULT_INSTANCES == {
        theorem_id: {"T1": 500, "ptc-compiler": 300}.get(theorem_id, 200)
        for theorem_id in THEOREM_IDS
    }


def test_all_theorem_ids_run_briefly(godel):
    for theorem_id in THEOREM_IDS:
        rep = run_theorem_suite(theorem_id, GenConfig(seed=2, lattice=godel), 5)
        assert rep.passed, rep.summary()
        assert rep.instances == 5


def test_ptc_compiler_is_exact_where_a_join_pads_with_top(lukasiewicz):
    """The batch of seed 219470408359473 failed at instance 15: the compiled
    form's JOIN EADOM[...] padding multiplied degrees by top, a float sum
    drifted by 2.2e-16 above 0, and NABLA turned that into 1."""
    rep = run_theorem_suite("ptc-compiler", GenConfig(seed=219470408359473, lattice=lukasiewicz),
                            20)
    assert rep.passed, rep.summary()
    assert rep.max_deviation == 0
