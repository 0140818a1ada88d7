"""Division operations: worked examples, finite-reduction correctness
against the naive enumeration oracles, algebraic invariants, error modes."""

import pytest

import gradix as gx
from gradix import SchemeError, Tuple, UnsupportedLatticeError
from gradix.harness import composed, gen, oracle

from conftest import rdt, sch, scores


def booleans(*dicts):
    return tuple(frozenset(d.support()) for d in dicts)


def gddo_formulations(d1, d2, d3, d4):
    """The harness's joinable and nocond GDDO formulations, as tables."""
    lat, rows = d1.lattice, (d1.rows, d2.rows, d3.rows, d4.rows)
    schemes = (d1.scheme, d2.scheme, d3.scheme, d4.scheme)
    for want in (oracle.gddo_joinable(lat, *rows), oracle.gddo_nocond(lat, *schemes, *rows)):
        yield gx.RankedDataTable(d1.scheme | d2.scheme, lat, want)


# -- div_ranged ---------------------------------------------------------------


def test_div_ranged_godel_example(godel):
    d1 = rdt(godel, {"A", "B"}, {("a1", "b1"): 0.9, ("a1", "b2"): 0.4})
    d2 = rdt(godel, {"B"}, {"b1": 1.0, "b2": 0.7})
    d3 = rdt(godel, {"A"}, {"a1": 1.0})
    assert scores(gx.div_ranged(d1, d2, d3)) == {(("A", "a1"),): 0.4}


def test_div_ranged_empty_divisor_returns_range(godel):
    d3 = rdt(godel, {"A"}, {1: 0.7, 2: 0.2})
    out = gx.div_ranged(gx.empty(godel, sch("A", "B")), gx.empty(godel, sch("B")), d3)
    assert out == d3


def test_div_ranged_boolean_suppliers_parts(boolean):
    d1 = rdt(boolean, {"S", "P"}, {("p1", "s1"): 1, ("p2", "s1"): 1, ("p1", "s2"): 1})
    d2 = rdt(boolean, {"P"}, {"p1": 1, "p2": 1})
    rng = gx.projection(d1, sch("S"))
    out = gx.div_ranged(d1, d2, rng)
    want = oracle.set_with_range(*booleans(d1, d2), sch("S"))
    assert frozenset(out.support()) == want == frozenset({Tuple({"S": "s1"})})


def test_div_ranged_scheme_errors(godel):
    d = rdt(godel, {"A"}, {1: 0.5})
    with pytest.raises(SchemeError):
        gx.div_ranged(d, d, d)  # divisor and range schemes overlap
    with pytest.raises(SchemeError):
        gx.div_ranged(d, rdt(godel, {"B"}, {1: 0.5}), rdt(godel, {"C"}, {1: 0.5}))


# -- div_gsdo / div_gsd -------------------------------------------------------


def test_div_gsdo_examples(godel, boolean):
    d1 = rdt(godel, {"A"}, {"a1": 0.8})
    d2 = rdt(godel, {"B"}, {"b1": 1.0})
    d3 = rdt(godel, {"A", "B"}, {("a1", "b1"): 0.5})
    assert scores(gx.div_gsdo(d1, d2, d3)) == {(("A", "a1"),): 0.5}
    assert gx.div_gsdo(d1, gx.empty(godel, sch("B")), gx.empty(godel, sch("A", "B"))) == d1
    b1 = rdt(boolean, {"A"}, {1: 1})
    b2 = rdt(boolean, {"B"}, {1: 1})
    out = gx.div_gsdo(b1, b2, gx.empty(boolean, sch("A", "B")))
    assert len(out) == 0


def test_div_gsd_specializes_to_gsdo(godel):
    d1 = rdt(godel, {"A"}, {1: 0.8, 2: 0.4})
    d2 = rdt(godel, {"B"}, {1: 0.9})
    d3 = rdt(godel, {"A", "B"}, {(1, 1): 0.5, (2, 1): 0.9})
    assert gx.div_gsd(d1, d2, d3) == gx.div_gsdo(d1, d2, d3)


def test_div_gsd_empty_divisor_projection(godel):
    d1 = rdt(godel, {"A", "C"}, {(1, 1): 0.8})
    d2 = gx.empty(godel, sch("B", "D"))
    d3 = rdt(godel, {"A", "B", "E"}, {(1, 1, 1): 0.5})
    assert gx.div_gsd(d1, d2, d3) == d1


def test_div_gsd_ambiguous_schemes(godel):
    shared = rdt(godel, {"A", "B"}, {(1, 1): 0.5})
    with pytest.raises(SchemeError):
        gx.div_gsd(shared, shared, shared)


# -- domain-dependent divisions ----------------------------------------------


def test_div_gcodd_examples(godel, boolean):
    d1 = rdt(godel, {"A", "B"}, {("a1", "b1"): 0.9, ("a1", "b2"): 0.4})
    d2 = rdt(godel, {"B"}, {"b1": 1.0, "b2": 0.7})
    universe = rdt(godel, {"A"}, {"a1": 1.0})
    assert scores(gx.div_gcodd(d1, d2, universe)) == {(("A", "a1"),): 0.4}
    # empty divisor: the whole universe at 1
    assert gx.div_gcodd(d1, gx.empty(godel, sch("B")), universe) == universe
    b1 = rdt(boolean, {"S", "P"}, {("p1", "s1"): 1, ("p2", "s1"): 1, ("p1", "s2"): 1})
    b2 = rdt(boolean, {"P"}, {"p1": 1, "p2": 1})
    out = gx.div_gcodd(b1, b2, gx.projection(b1, sch("S")))
    assert frozenset(out.support()) == oracle.set_with_range(*booleans(b1, b2), sch("S"))


def test_div_gcodd_requires_non_ranked_universe(godel):
    d1 = rdt(godel, {"A", "B"}, {(1, 1): 0.9})
    d2 = rdt(godel, {"B"}, {1: 1.0})
    with pytest.raises(SchemeError):
        gx.div_gcodd(d1, d2, rdt(godel, {"A"}, {1: 0.5}))


def test_div_gtodd_examples(godel, boolean):
    d2e = gx.empty(godel, sch("B", "C"))
    d1 = rdt(godel, {"A", "B"}, {(1, 1): 0.9})
    universe = rdt(godel, {"A", "C"}, {(1, 1): 1.0})
    assert gx.div_gtodd(d1, d2e, universe) == universe
    b1 = rdt(boolean, {"A", "B"}, {(1, 1): 1, (1, 2): 1, (2, 2): 1})
    b2 = rdt(boolean, {"B", "C"}, {(1, 1): 1, (2, 1): 1})
    univ = gx.natural_join(gx.projection(b1, sch("A")), gx.projection(b2, sch("C")))
    out = gx.div_gtodd(b1, b2, univ)
    want = oracle.set_todd(*booleans(b1, b2), sch("A"), sch("B"), sch("C"))
    assert frozenset(out.support()) == want


# -- great/darwen divides -----------------------------------------------------


def test_div_ggdo_corollary_and_empty_mediator(godel):
    d1 = rdt(godel, {"A"}, {1: 0.8, 2: 0.3})
    d2 = rdt(godel, {"B"}, {1: 0.9})
    d3 = rdt(godel, {"A", "B"}, {(1, 1): 0.5})
    assert gx.div_ggdo(d1, gx.dee(godel, 1.0), d3, d2) == gx.div_gsdo(d1, d2, d3)
    d4e = gx.empty(godel, sch("B"))
    dd2 = rdt(godel, {"C"}, {1: 0.6})
    out = gx.div_ggdo(d1, dd2, rdt(godel, {"A", "B"}, {(1, 1): 0.5}), gx.empty(godel, sch("B", "C")))
    assert out.approx_equals(gx.natural_join(d1, dd2))
    assert len(d4e.rows) == 0


def test_div_ggdo_boolean_vs_set_oracle(boolean):
    cfg = gen.GenConfig(seed=21, lattice=boolean)
    for i in range(25):
        rng = gen.sub_rng(21, "ggdo", i)
        r, s, t = gen.split_pool(rng, [rng.randint(0, 2) for _ in range(3)])
        d1 = gen.gen_rdt(cfg.with_seed(i), r, "d1")
        d2 = gen.gen_rdt(cfg.with_seed(i), t, "d2")
        d3 = gen.gen_rdt(cfg.with_seed(i), r | s, "d3")
        d4 = gen.gen_rdt(cfg.with_seed(i), s | t, "d4")
        want = oracle.set_great(*booleans(d1, d2, d3, d4), r, s, t)
        assert frozenset(gx.div_ggdo(d1, d2, d3, d4).support()) == want
        assert frozenset(composed.div_great_composed(d1, d2, d3, d4).support()) == want


def test_div_gddo_matches_ggdo_and_corollary(godel):
    d1 = rdt(godel, {"A"}, {1: 0.8})
    d2 = rdt(godel, {"B"}, {1: 0.9})
    d3 = rdt(godel, {"A", "C"}, {(1, 1): 0.5})
    d4 = rdt(godel, {"B", "C"}, {(1, 1): 0.7})
    ggdo = gx.div_ggdo(d1, d2, d3, d4)
    assert gx.div_gddo(d1, d2, d3, d4).approx_equals(ggdo)
    for want in gddo_formulations(d1, d2, d3, d4):
        assert want.approx_equals(ggdo)
    dd3 = rdt(godel, {"A", "B"}, {(1, 1): 0.5})
    dd2 = rdt(godel, {"B"}, {1: 1.0})
    assert gx.div_gddo(d1, gx.dee(godel, 1.0), dd3, dd2) == gx.div_gsdo(d1, dd2, dd3)


def test_div_gddo_boolean_vs_set_oracle(boolean):
    cfg = gen.GenConfig(seed=31, lattice=boolean)
    for i in range(25):
        rng = gen.sub_rng(31, "gddo", i)
        schemes = [gen.gen_scheme(rng, rng.randint(0, 3)) for _ in range(4)]
        tables = [gen.gen_rdt(cfg.with_seed(i), s, f"d{k}") for k, s in enumerate(schemes)]
        want = oracle.set_darwen(*booleans(*tables), schemes[0])
        assert frozenset(gx.div_gddo(*tables).support()) == want
        assert frozenset(composed.div_darwen_composed(*tables).support()) == want


def test_weightless_divisions_take_the_bare_infimum(lukasiewicz):
    """Compared with ==, not within the tolerance: on Łukasiewicz
    1.0 ⊗ 0.1 = 0.10000000000000009, so a top ⊗ folded into the infimum of
    GCODD or GTODD shows.  The ranged division's range degree is a ⊗ factor
    by definition, so with range degree 1.0 it scores exactly 1.0 ⊗ 0.1."""
    lat = lukasiewicz
    assert lat.kotimes(1.0, 0.1) != 0.1
    d1 = rdt(lat, {"A", "B"}, {(1, 1): 0.1})
    d2 = rdt(lat, {"B"}, {1: 1.0})
    univ = rdt(lat, {"A"}, {1: 1.0})
    assert gx.div_gcodd(d1, d2, univ).rows == {Tuple({"A": 1}): 0.1}
    d2t = rdt(lat, {"B", "C"}, {(1, 1): 1.0})
    todd = gx.div_gtodd(d1, d2t, rdt(lat, {"A", "C"}, {(1, 1): 1.0}))
    assert todd.rows == {Tuple({"A": 1, "C": 1}): 0.1}
    assert gx.div_ranged(d1, d2, univ).rows == {Tuple({"A": 1}): lat.kotimes(1.0, 0.1)}


# -- classic composed forms ---------------------------------------------------


def test_div_codd_composed(boolean):
    d1 = rdt(boolean, {"S", "P"}, {("p1", "s1"): 1, ("p2", "s1"): 1, ("p1", "s2"): 1})
    d2 = rdt(boolean, {"P"}, {"p1": 1, "p2": 1})
    assert scores(composed.div_codd_composed(d1, d2)) == {(("S", "s1"),): 1}
    assert composed.div_codd_composed(d1, gx.empty(boolean, sch("P"))) == \
        gx.projection(d1, sch("S"))
    assert len(composed.div_codd_composed(gx.empty(boolean, sch("S", "P")), d2)) == 0


def test_div_small_composed(boolean):
    d1 = rdt(boolean, {"A"}, {1: 1, 2: 1})
    d2 = gx.empty(boolean, sch("B"))
    d3 = gx.empty(boolean, sch("A", "B"))
    assert composed.div_small_composed(d1, d2, d3) == d1
    cfg = gen.GenConfig(seed=41, lattice=boolean)
    for i in range(25):
        rng = gen.sub_rng(41, "small", i)
        r, s = gen.split_pool(rng, [rng.randint(0, 2), rng.randint(0, 2)])
        m1 = gen.gen_rdt(cfg.with_seed(i), r, "m1")
        m2 = gen.gen_rdt(cfg.with_seed(i), s, "m2")
        m3 = gen.gen_rdt(cfg.with_seed(i), r | s, "m3")
        want = oracle.set_small_original(*booleans(m1, m2, m3))
        assert frozenset(composed.div_small_composed(m1, m2, m3).support()) == want
        assert frozenset(gx.div_gsdo(m1, m2, m3).support()) == want


def test_div_small_general_composed(boolean):
    cfg = gen.GenConfig(seed=43, lattice=boolean)
    for i in range(25):
        rng = gen.sub_rng(43, "gsd", i)
        r, s, t, u, v = gen.split_pool(rng, [1, 1, 1, 1, 1])
        g1 = gen.gen_rdt(cfg.with_seed(i), r | t, "g1")
        g2 = gen.gen_rdt(cfg.with_seed(i), s | u, "g2")
        g3 = gen.gen_rdt(cfg.with_seed(i), r | s | v, "g3")
        want = oracle.set_small_general(*booleans(g1, g2, g3), r, s)
        assert frozenset(composed.div_small_general_composed(g1, g2, g3).support()) == want
        assert frozenset(gx.div_gsd(g1, g2, g3).support()) == want


def test_great_composed_consistency_with_small(boolean):
    d1 = rdt(boolean, {"A"}, {1: 1, 2: 1})
    d2 = rdt(boolean, {"B"}, {1: 1})
    d3 = rdt(boolean, {"A", "B"}, {(1, 1): 1})
    small = composed.div_small_composed(d1, d2, d3)
    great = composed.div_great_composed(d1, gx.dee(boolean, 1), d3, d2)
    assert small == great


def test_semidifference(boolean, godel):
    d1 = rdt(boolean, {"A", "B"}, {(1, 1): 1})
    d2 = rdt(boolean, {"B", "C"}, {(1, 1): 1})
    assert len(gx.semidifference(d1, d2)) == 0
    assert gx.semidifference(d1, gx.empty(boolean, sch("C"))) == d1
    with pytest.raises(UnsupportedLatticeError):
        gx.semidifference(rdt(godel, {"A"}, {1: 0.5}), rdt(godel, {"A"}, {1: 0.5}))
    for op in (composed.div_codd_composed, composed.div_small_composed,
               composed.div_great_composed, composed.div_darwen_composed,
               composed.div_small_general_composed):
        with pytest.raises(UnsupportedLatticeError):
            args = [rdt(godel, {"A"}, {1: 0.5})] * (2 if op is composed.div_codd_composed else
                                                    3 if "small" in op.__name__ else 4)
            op(*args)


def test_semidifference_char_oracle(boolean):
    cfg = gen.GenConfig(seed=47, lattice=boolean)
    for i in range(30):
        rng = gen.sub_rng(47, "semidiff", i)
        s1 = gen.gen_scheme(rng, rng.randint(1, 3))
        s2 = gen.gen_scheme(rng, rng.randint(0, 3))
        d1 = gen.gen_rdt(cfg.with_seed(i), s1, "d1")
        d2 = gen.gen_rdt(cfg.with_seed(i), s2, "d2")
        want = oracle.set_semidiff_char(*booleans(d1, d2))
        assert frozenset(gx.semidifference(d1, d2).support()) == want


# -- naive enumeration oracles ------------------------------------------------


def _small_cfg(lat, seed):
    return gen.GenConfig(seed=seed, lattice=lat, max_attrs=2, max_values=3, max_rows=5)


def test_div_ranged_matches_naive_oracle(any_lattice):
    cfg = _small_cfg(any_lattice, 53)
    for i in range(20):
        rng = gen.sub_rng(53, "naive-ranged", i)
        r, s = gen.split_pool(rng, [rng.randint(0, 2), rng.randint(0, 2)])
        d1 = gen.gen_rdt(cfg.with_seed(i), r | s, "d1")
        d2 = gen.gen_rdt(cfg.with_seed(i), s, "d2")
        d3 = gen.gen_rdt(cfg.with_seed(i), r, "d3")
        universe = gen.fresh_universe(cfg, [r, s])
        want = oracle.naive_div_ranged(any_lattice, r, s, d1.rows, d2.rows, d3.rows, universe)
        got = gx.div_ranged(d1, d2, d3)
        assert got.approx_equals(gx.RankedDataTable(r, any_lattice, want))


def test_div_gsdo_matches_naive_oracle(any_lattice):
    cfg = _small_cfg(any_lattice, 59)
    for i in range(20):
        rng = gen.sub_rng(59, "naive-gsdo", i)
        r, s = gen.split_pool(rng, [rng.randint(0, 2), rng.randint(0, 2)])
        d1 = gen.gen_rdt(cfg.with_seed(i), r, "d1")
        d2 = gen.gen_rdt(cfg.with_seed(i), s, "d2")
        d3 = gen.gen_rdt(cfg.with_seed(i), r | s, "d3")
        universe = gen.fresh_universe(cfg, [r, s])
        want = oracle.naive_div_gsdo(any_lattice, r, s, d1.rows, d2.rows, d3.rows, universe)
        assert gx.div_gsdo(d1, d2, d3).approx_equals(gx.RankedDataTable(r, any_lattice, want))


def test_div_gsd_matches_naive_oracle(unit_lattice):
    cfg = _small_cfg(unit_lattice, 61)
    for i in range(15):
        rng = gen.sub_rng(61, "naive-gsd", i)
        r, s, t, u, v = gen.split_pool(rng, [1, 1, 1, 1, 1])
        d1 = gen.gen_rdt(cfg.with_seed(i), r | t, "d1")
        d2 = gen.gen_rdt(cfg.with_seed(i), s | u, "d2")
        d3 = gen.gen_rdt(cfg.with_seed(i), r | s | v, "d3")
        universe = gen.fresh_universe(cfg, [r | t, s | u, r | s | v])
        want = oracle.naive_div_gsd(
            unit_lattice, r, s, r | t, d1.rows, d2.rows, d3.rows, universe
        )
        assert gx.div_gsd(d1, d2, d3).approx_equals(
            gx.RankedDataTable(r | t, unit_lattice, want)
        )


def test_div_gcodd_gtodd_match_naive_oracle(unit_lattice):
    cfg = _small_cfg(unit_lattice, 67)
    for i in range(15):
        rng = gen.sub_rng(67, "naive-dd", i)
        r, s, t = gen.split_pool(rng, [1, 1, 1])
        d1 = gen.gen_rdt(cfg.with_seed(i), r | s, "d1")
        d2 = gen.gen_rdt(cfg.with_seed(i), s, "d2")
        universe = gen.fresh_universe(cfg, [r, s, t])
        univ_r = gx.nabla(gen.gen_rdt(cfg.with_seed(i), r, "u"))
        want = oracle.naive_div_gcodd(
            unit_lattice, s, d1.rows, d2.rows, univ_r.rows.keys(), universe
        )
        assert gx.div_gcodd(d1, d2, univ_r).approx_equals(
            gx.RankedDataTable(r, unit_lattice, want)
        )
        d2t = gen.gen_rdt(cfg.with_seed(i), s | t, "d2t")
        univ_rt = gx.nabla(gen.gen_rdt(cfg.with_seed(i), r | t, "urt"))
        want = oracle.naive_div_gtodd(
            unit_lattice, r, s, t, d1.rows, d2t.rows, univ_rt.rows.keys(), universe
        )
        assert gx.div_gtodd(d1, d2t, univ_rt).approx_equals(
            gx.RankedDataTable(r | t, unit_lattice, want)
        )


def test_div_ggdo_gddo_match_naive_oracle(unit_lattice):
    cfg = _small_cfg(unit_lattice, 71)
    for i in range(10):
        rng = gen.sub_rng(71, "naive-great", i)
        r, s, t = gen.split_pool(rng, [1, 1, 1])
        d1 = gen.gen_rdt(cfg.with_seed(i), r, "d1")
        d2 = gen.gen_rdt(cfg.with_seed(i), t, "d2")
        d3 = gen.gen_rdt(cfg.with_seed(i), r | s, "d3")
        d4 = gen.gen_rdt(cfg.with_seed(i), s | t, "d4")
        universe = gen.fresh_universe(cfg, [r, s, t])
        want = oracle.naive_div_ggdo(
            unit_lattice, r, s, t, d1.rows, d2.rows, d3.rows, d4.rows, universe
        )
        assert gx.div_ggdo(d1, d2, d3, d4).approx_equals(
            gx.RankedDataTable(r | t, unit_lattice, want)
        )
    for i in range(8):
        rng = gen.sub_rng(71, "naive-darwen", i)
        schemes = [gen.gen_scheme(rng, rng.randint(0, 2), pool=("A", "B", "C"))
                   for _ in range(4)]
        tables = [gen.gen_rdt(cfg.with_seed(i), sc, f"d{k}")
                  for k, sc in enumerate(schemes)]
        universe = gen.fresh_universe(cfg, schemes)
        want = oracle.naive_div_gddo(
            unit_lattice, *schemes, *(d.rows for d in tables), universe
        )
        want = gx.RankedDataTable(schemes[0] | schemes[1], unit_lattice, want)
        assert gx.div_gddo(*tables).approx_equals(want)
        for other in gddo_formulations(*tables):
            assert other.approx_equals(want)


# -- invariants ----------------------------------------------------------------


def test_containment_invariants(unit_lattice):
    lat = unit_lattice
    cfg = _small_cfg(lat, 73)
    for i in range(20):
        rng = gen.sub_rng(73, "containment", i)
        r, s = gen.split_pool(rng, [rng.randint(0, 2), rng.randint(0, 2)])
        d1 = gen.gen_rdt(cfg.with_seed(i), r | s, "d1")
        d2 = gen.gen_rdt(cfg.with_seed(i), s, "d2")
        d3 = gen.gen_rdt(cfg.with_seed(i), r, "d3")
        ranged = gx.div_ranged(d1, d2, d3)
        for t, v in ranged:
            assert v <= d3.score(t) + 1e-9
        gsdo = gx.div_gsdo(d3, d2, d1)
        for t, v in gsdo:
            assert v <= d3.score(t) + 1e-9


def test_greatest_solution_property(unit_lattice):
    """With a non-ranked range, the ranged division is the largest table
    under the range whose join with the divisor stays under the dividend."""
    lat = unit_lattice
    cfg = _small_cfg(lat, 79)
    for i in range(20):
        rng = gen.sub_rng(79, "greatest", i)
        r, s = gen.split_pool(rng, [rng.randint(1, 2), rng.randint(0, 2)])
        d1 = gen.gen_rdt(cfg.with_seed(i), r | s, "d1")
        d2 = gen.gen_rdt(cfg.with_seed(i), s, "d2")
        d3 = gx.nabla(gen.gen_rdt(cfg.with_seed(i), r, "d3"))
        out = gx.div_ranged(d1, d2, d3)
        joined = gx.natural_join(out, d2)
        for t, v in joined:
            assert v <= d1.score(t) + 1e-9
        # greatest: nothing below the range can exceed it anywhere
        for t in d3.support():
            v = out.score(t)
            for bump in (0.1, 0.5, 1.0):
                cand = min(1.0, v + bump)
                if cand <= v + 1e-9:
                    continue
                ok = all(
                    lat.otimes(cand, d2.score(stup)) <= d1.score(t.join(stup)) + 1e-9
                    for stup in d2.support()
                )
                assert not ok or cand > d3.score(t) + 1e-9


def test_subsethood_special_case(unit_lattice):
    """Empty result scheme with a full Dee range computes the subsethood
    degree of the divisor in the dividend."""
    lat = unit_lattice
    cfg = _small_cfg(lat, 83)
    for i in range(20):
        rng = gen.sub_rng(83, "subsethood", i)
        s = gen.gen_scheme(rng, rng.randint(1, 2))
        d1 = gen.gen_rdt(cfg.with_seed(i), s, "d1")
        d2 = gen.gen_rdt(cfg.with_seed(i), s, "d2")
        out = gx.div_ranged(d1, d2, gx.dee(lat, lat.top))
        want = lat.inf(
            lat.residuum(v, d1.score(t)) for t, v in d2.rows.items()
        )
        assert abs(out.score(gx.EMPTY_TUPLE) - want) <= 1e-9
