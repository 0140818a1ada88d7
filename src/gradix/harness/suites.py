"""Executable equivalence suites: for each catalogued identity, both sides
are computed by independent code paths on seeded random instances and
compared pointwise, reporting the maximal deviation and the first
counterexample (as replayable CSV) if any.

Tolerances: exact on two-valued and finite lattices, 1e-9 on the
unit-interval lattices.  Every run is reproducible from (theorem id, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from .. import algebra as alg
from .. import division as dv
from .. import ptc as pc
from .. import table as tb
from ..errors import GradixError
from ..lattice import BooleanLattice, ResiduatedLattice, UnitIntervalLattice
from ..table import DatabaseInstance, RankedDataTable, Tuple, table_to_csv
from . import composed, gen, oracle

THEOREM_IDS = (
    "T1",
    "C-gsdo-ggdo",
    "T-ggdo-gddo",
    "C-gsdo-gddo",
    "T-gddo-variants",
    "T-rdiv-via-gsdo",
    "T-gsdo-via-rdiv",
    "T-gddo-via-rdiv",
    "L-semidiff",
    "T-darwen-set",
    "boolean-collapse",
    "ptc-compiler",
)

DEFAULT_INSTANCES = {"T1": 500, "ptc-compiler": 300}
FLOAT_TOL = 1e-9

#: suites whose identities are about the two-valued collapse; they run on
#: the Boolean lattice regardless of the configured one
BOOLEAN_SUITES = ("L-semidiff", "T-darwen-set", "boolean-collapse")


@dataclass
class Counterexample:
    index: int
    detail: str
    instance_csv: str

    def __str__(self):
        return (
            f"counterexample at instance {self.index}: {self.detail}\n"
            f"replay tables:\n{self.instance_csv}"
        )


@dataclass
class EquivalenceReport:
    theorem_id: str
    instances: int
    max_deviation: float
    tolerance: float
    counterexample: Optional[Counterexample]

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def machine_line(self) -> str:
        return (
            f"THEOREM {self.theorem_id} instances={self.instances} "
            f"max_dev={self.max_deviation:.3g} status={self.status}"
        )

    def summary(self) -> str:
        lines = [
            f"theorem {self.theorem_id}: {self.status} over {self.instances} "
            f"instances (max deviation {self.max_deviation:.3g}, "
            f"tolerance {self.tolerance:.3g})",
        ]
        if self.counterexample is not None:
            lines.append(str(self.counterexample))
        lines.append(self.machine_line())
        return "\n".join(lines)


def suite_tolerance(lat: ResiduatedLattice) -> float:
    return FLOAT_TOL if isinstance(lat, UnitIntervalLattice) else 0.0


def instance_csv(tables: dict) -> str:
    parts = []
    for name in sorted(tables):
        parts.append(f"-- {name}")
        parts.append(table_to_csv(tables[name]))
    return "\n".join(parts)


class _Run:
    """Accumulates deviations and the first counterexample of a suite."""

    def __init__(self, theorem_id: str, tolerance: float):
        self.theorem_id = theorem_id
        self.tolerance = tolerance
        self.max_dev = 0.0
        self.counterexample: Optional[Counterexample] = None

    def check_tables(self, index, label, lhs: RankedDataTable, rhs: RankedDataTable, tables):
        dev = lhs.max_deviation(rhs)
        self.max_dev = max(self.max_dev, dev)
        if dev > self.tolerance and self.counterexample is None:
            lat = lhs.lattice
            worst = max(
                lhs.rows.keys() | rhs.rows.keys(),
                key=lambda t: lat.degree_diff(lhs.score(t), rhs.score(t)),
            )
            self.counterexample = Counterexample(
                index,
                f"{label}: at tuple {worst} scores differ "
                f"({lhs.score(worst)} vs {rhs.score(worst)})",
                instance_csv(tables),
            )

    def check_support(self, index, label, got: RankedDataTable, want: frozenset, tables):
        ok = got.is_non_ranked() and frozenset(got.support()) == want
        if not ok:
            self.max_dev = max(self.max_dev, 1.0)
            if self.counterexample is None:
                extra = sorted(map(repr, frozenset(got.support()) - want))
                missing = sorted(map(repr, want - frozenset(got.support())))
                self.counterexample = Counterexample(
                    index,
                    f"{label}: support mismatch (extra {extra}, missing {missing})",
                    instance_csv(tables),
                )

    def report(self, n: int) -> EquivalenceReport:
        return EquivalenceReport(
            self.theorem_id, n, self.max_dev, self.tolerance, self.counterexample
        )


def _icfg(config: gen.GenConfig, theorem_id: str, index: int) -> gen.GenConfig:
    rng = gen.sub_rng(config.seed, theorem_id, index)
    return config.with_seed(rng.getrandbits(48))


def _sizes(rng, count, low=0, high=2):
    return [rng.randint(low, high) for _ in range(count)]


def _widening_table(config: gen.GenConfig, rng, used_attrs) -> RankedDataTable:
    """An extra table injecting unseen values into (some of) the used
    attributes, so a widened instance genuinely enlarges the active domains."""
    attrs = sorted(used_attrs) or ["A"]
    scheme = frozenset(rng.sample(attrs, min(len(attrs), rng.randint(1, 2))))
    lat = config.lattice
    rows = {}
    for k in range(rng.randint(1, 3)):
        t = Tuple({
            a: rng.randint(config.max_values + 1, config.max_values + 3)
            for a in sorted(scheme)
        })
        rows[t] = gen.gen_score(rng, lat, config.score_step)
    return RankedDataTable(scheme, lat, rows)


# -- individual suites -------------------------------------------------------


def _suite_t1(config: gen.GenConfig, n: int) -> EquivalenceReport:
    run = _Run("T1", suite_tolerance(config.lattice))
    for i in range(n):
        rng = gen.sub_rng(config.seed, "T1.schemes", i)
        cfg = _icfg(config, "T1", i)
        r_s, s_s = _sizes(rng, 2)
        r_scheme, s_scheme = gen.split_pool(rng, [r_s, s_s])
        d1 = gen.gen_rdt(cfg, r_scheme, "d1")
        d2 = gen.gen_rdt(cfg, s_scheme, "d2")
        d3 = gen.gen_rdt(cfg, r_scheme | s_scheme, "d3")
        tables = {"D1": d1, "D2": d2, "D3": d3}
        run.check_tables(
            i, "gsdo vs ranged division",
            dv.div_gsdo(d1, d2, d3), dv.div_ranged(d3, d2, d1), tables,
        )
        d1n = tb.nabla(d1)
        run.check_tables(
            i, "gsdo vs ranged division (non-ranked range)",
            dv.div_gsdo(d1n, d2, d3), dv.div_ranged(d3, d2, d1n),
            {**tables, "D1n": d1n},
        )
    return run.report(n)


def _dee_corollary(theorem_id: str, other: Callable):
    def suite(config: gen.GenConfig, n: int) -> EquivalenceReport:
        lat = config.lattice
        run = _Run(theorem_id, suite_tolerance(lat))
        for i in range(n):
            rng = gen.sub_rng(config.seed, theorem_id + ".schemes", i)
            cfg = _icfg(config, theorem_id, i)
            r_s, s_s = _sizes(rng, 2)
            r_scheme, s_scheme = gen.split_pool(rng, [r_s, s_s])
            d1 = gen.gen_rdt(cfg, r_scheme, "d1")
            d2 = gen.gen_rdt(cfg, s_scheme, "d2")
            d3 = gen.gen_rdt(cfg, r_scheme | s_scheme, "d3")
            tables = {"D1": d1, "D2": d2, "D3": d3}
            run.check_tables(
                i, f"gsdo vs {other.__name__} with Dee(1) divisor",
                dv.div_gsdo(d1, d2, d3),
                other(d1, tb.dee(lat, lat.top), d3, d2),
                tables,
            )
        return run.report(n)

    return suite


def _suite_ggdo_gddo(config: gen.GenConfig, n: int) -> EquivalenceReport:
    run = _Run("T-ggdo-gddo", suite_tolerance(config.lattice))
    for i in range(n):
        rng = gen.sub_rng(config.seed, "T-ggdo-gddo.schemes", i)
        cfg = _icfg(config, "T-ggdo-gddo", i)
        r_s, s_s, t_s = _sizes(rng, 3)
        r_scheme, s_scheme, t_scheme = gen.split_pool(rng, [r_s, s_s, t_s])
        d1 = gen.gen_rdt(cfg, r_scheme, "d1")
        d2 = gen.gen_rdt(cfg, t_scheme, "d2")
        d3 = gen.gen_rdt(cfg, r_scheme | s_scheme, "d3")
        d4 = gen.gen_rdt(cfg, s_scheme | t_scheme, "d4")
        tables = {"D1": d1, "D2": d2, "D3": d3, "D4": d4}
        run.check_tables(
            i, "ggdo vs gddo on conforming schemes",
            dv.div_ggdo(d1, d2, d3, d4), dv.div_gddo(d1, d2, d3, d4), tables,
        )
    return run.report(n)


def _suite_gddo_variants(config: gen.GenConfig, n: int) -> EquivalenceReport:
    run = _Run("T-gddo-variants", suite_tolerance(config.lattice))
    for i in range(n):
        rng = gen.sub_rng(config.seed, "T-gddo-variants.schemes", i)
        cfg = _icfg(config, "T-gddo-variants", i)
        schemes = [gen.gen_scheme(rng, rng.randint(0, 3)) for _ in range(4)]
        d1, d2, d3, d4 = (
            gen.gen_rdt(cfg, s, f"d{k + 1}") for k, s in enumerate(schemes)
        )
        tables = {"D1": d1, "D2": d2, "D3": d3, "D4": d4}
        lat, rows = config.lattice, (d1.rows, d2.rows, d3.rows, d4.rows)
        engine = dv.div_gddo(d1, d2, d3, d4)
        for label, want in (
            ("joinable", oracle.gddo_joinable(lat, *rows)),
            ("nocond", oracle.gddo_nocond(lat, *schemes, *rows)),
        ):
            run.check_tables(
                i, f"gddo vs {label} formulation",
                engine, RankedDataTable(engine.scheme, lat, want), tables,
            )
    return run.report(n)


def _suite_rdiv_via_gsdo(config: gen.GenConfig, n: int) -> EquivalenceReport:
    run = _Run("T-rdiv-via-gsdo", suite_tolerance(config.lattice))
    lat = config.lattice
    for i in range(n):
        rng = gen.sub_rng(config.seed, "T-rdiv-via-gsdo.schemes", i)
        cfg = _icfg(config, "T-rdiv-via-gsdo", i)
        r_s, s_s = _sizes(rng, 2)
        r_scheme, s_scheme = gen.split_pool(rng, [r_s, s_s])
        d1 = gen.gen_rdt(cfg, r_scheme | s_scheme, "d1")
        d2 = gen.gen_rdt(cfg, s_scheme, "d2")
        d3 = gen.gen_rdt(cfg, r_scheme, "d3")
        tables = {"D1": d1, "D2": d2, "D3": d3}
        lhs = dv.div_ranged(d1, d2, d3)

        def rhs(inst: DatabaseInstance) -> RankedDataTable:
            e_r = alg.eadom(inst, r_scheme)
            e_s = alg.eadom(inst, s_scheme)
            e_rs = alg.eadom(inst, r_scheme | s_scheme)
            mediator = tb.natural_join(
                d3, tb.residuum_with_range(tb.natural_join(d2, e_r), d1, e_rs)
            )
            return dv.div_gsdo(e_r, e_s, mediator)

        inst = DatabaseInstance(lat, tables)
        run.check_tables(i, "ranged division via gsdo over active domains",
                         lhs, rhs(inst), tables)
        wtab = _widening_table(cfg, rng, r_scheme | s_scheme)
        wide = inst.with_table("Z", wtab)
        run.check_tables(i, "ranged division via gsdo, widened instance",
                         lhs, rhs(wide), {**tables, "Z": wtab})
    return run.report(n)


def _suite_gsdo_via_rdiv(config: gen.GenConfig, n: int) -> EquivalenceReport:
    run = _Run("T-gsdo-via-rdiv", suite_tolerance(config.lattice))
    lat = config.lattice
    for i in range(n):
        rng = gen.sub_rng(config.seed, "T-gsdo-via-rdiv.schemes", i)
        cfg = _icfg(config, "T-gsdo-via-rdiv", i)
        r_s, s_s = _sizes(rng, 2)
        r_scheme, s_scheme = gen.split_pool(rng, [r_s, s_s])
        d1 = gen.gen_rdt(cfg, r_scheme, "d1")
        d2 = gen.gen_rdt(cfg, s_scheme, "d2")
        d3 = gen.gen_rdt(cfg, r_scheme | s_scheme, "d3")
        tables = {"D1": d1, "D2": d2, "D3": d3}
        lhs = dv.div_gsdo(d1, d2, d3)

        def rhs(inst: DatabaseInstance) -> RankedDataTable:
            e_r = alg.eadom(inst, r_scheme)
            e_s = alg.eadom(inst, s_scheme)
            e_rs = alg.eadom(inst, r_scheme | s_scheme)
            mediator = tb.residuum_with_range(tb.natural_join(d2, e_r), d3, e_rs)
            return tb.natural_join(d1, dv.div_ranged(mediator, e_s, e_r))

        inst = DatabaseInstance(lat, tables)
        run.check_tables(i, "gsdo via ranged division over active domains",
                         lhs, rhs(inst), tables)
        wtab = _widening_table(cfg, rng, r_scheme | s_scheme)
        wide = inst.with_table("Z", wtab)
        run.check_tables(i, "gsdo via ranged division, widened instance",
                         lhs, rhs(wide), {**tables, "Z": wtab})
    return run.report(n)


def _suite_gddo_via_rdiv(config: gen.GenConfig, n: int) -> EquivalenceReport:
    run = _Run("T-gddo-via-rdiv", suite_tolerance(config.lattice))
    lat = config.lattice
    for i in range(n):
        rng = gen.sub_rng(config.seed, "T-gddo-via-rdiv.schemes", i)
        cfg = _icfg(config, "T-gddo-via-rdiv", i)
        schemes = [gen.gen_scheme(rng, rng.randint(0, 2)) for _ in range(4)]
        s1, s2, s3, s4 = schemes
        d1, d2, d3, d4 = (
            gen.gen_rdt(cfg, s, f"d{k + 1}") for k, s in enumerate(schemes)
        )
        tables = {"D1": d1, "D2": d2, "D3": d3, "D4": d4}
        lhs = dv.div_gddo(d1, d2, d3, d4)
        r1p = (s4 & (s1 | s2)) | (s1 & s3)
        r2p = s4 - (s1 | s2)
        r3p = s3 & (s1 | s4)
        r4p = s4 | (s1 & s3)

        def rhs(inst: DatabaseInstance) -> RankedDataTable:
            mediator = tb.residuum_with_range(
                tb.natural_join(d4, alg.eadom(inst, r3p)),
                tb.natural_join(tb.projection(d3, r3p), alg.eadom(inst, s4)),
                alg.eadom(inst, r4p),
            )
            inner = dv.div_ranged(mediator, alg.eadom(inst, r2p), alg.eadom(inst, r1p))
            return tb.natural_join(tb.natural_join(d1, d2), inner)

        inst = DatabaseInstance(lat, tables)
        run.check_tables(i, "gddo via ranged division over active domains",
                         lhs, rhs(inst), tables)
        wtab = _widening_table(cfg, rng, s1 | s2 | s3 | s4)
        wide = inst.with_table("Z", wtab)
        run.check_tables(i, "gddo via ranged division, widened instance",
                         lhs, rhs(wide), {**tables, "Z": wtab})
    return run.report(n)


def _boolean_cfg(config: gen.GenConfig) -> gen.GenConfig:
    if isinstance(config.lattice, BooleanLattice):
        return config
    return replace(config, lattice=BooleanLattice())


def _suite_semidiff(config: gen.GenConfig, n: int) -> EquivalenceReport:
    config = _boolean_cfg(config)
    run = _Run("L-semidiff", 0.0)
    for i in range(n):
        rng = gen.sub_rng(config.seed, "L-semidiff.schemes", i)
        cfg = _icfg(config, "L-semidiff", i)
        sch1 = gen.gen_scheme(rng, rng.randint(1, 3))
        sch2 = gen.gen_scheme(rng, rng.randint(0, 3))
        d1 = gen.gen_rdt(cfg, sch1, "d1")
        d2 = gen.gen_rdt(cfg, sch2, "d2")
        tables = {"D1": d1, "D2": d2}
        want = oracle.set_semidiff_char(
            frozenset(d1.support()), frozenset(d2.support())
        )
        run.check_support(i, "semidifference vs joinable-partner characterization",
                          dv.semidifference(d1, d2), want, tables)
    return run.report(n)


def _suite_darwen_set(config: gen.GenConfig, n: int) -> EquivalenceReport:
    config = _boolean_cfg(config)
    run = _Run("T-darwen-set", 0.0)
    for i in range(n):
        rng = gen.sub_rng(config.seed, "T-darwen-set.schemes", i)
        cfg = _icfg(config, "T-darwen-set", i)
        schemes = [gen.gen_scheme(rng, rng.randint(0, 3)) for _ in range(4)]
        d1, d2, d3, d4 = (
            gen.gen_rdt(cfg, s, f"d{k + 1}") for k, s in enumerate(schemes)
        )
        tables = {"D1": d1, "D2": d2, "D3": d3, "D4": d4}
        sets = [frozenset(d.support()) for d in (d1, d2, d3, d4)]
        want = oracle.set_darwen(*sets, schemes[0])
        run.check_support(i, "composed Darwen divide vs set comprehension",
                          composed.div_darwen_composed(d1, d2, d3, d4), want, tables)
        run.check_support(i, "graded Darwen divide (two-valued) vs set comprehension",
                          dv.div_gddo(d1, d2, d3, d4), want, tables)
    return run.report(n)


def _suite_boolean_collapse(config: gen.GenConfig, n: int) -> EquivalenceReport:
    config = _boolean_cfg(config)
    run = _Run("boolean-collapse", 0.0)
    for i in range(n):
        rng = gen.sub_rng(config.seed, "boolean-collapse.schemes", i)
        cfg = _icfg(config, "boolean-collapse", i)

        # base operations on matching/overlapping schemes
        common = gen.gen_scheme(rng, rng.randint(1, 3))
        a1 = gen.gen_rdt(cfg, common, "a1")
        a2 = gen.gen_rdt(cfg, common, "a2")
        sa1, sa2 = frozenset(a1.support()), frozenset(a2.support())
        b2_scheme = frozenset(rng.sample(sorted(common), rng.randint(1, len(common)))) \
            | gen.gen_scheme(rng, rng.randint(0, 2))
        b2 = gen.gen_rdt(cfg, b2_scheme, "b2")
        sb2 = frozenset(b2.support())
        tables = {"A1": a1, "A2": a2, "B2": b2}
        proj_target = frozenset(rng.sample(sorted(common), rng.randint(0, len(common))))
        for label, got, want in (
            ("union", tb.union(a1, a2), oracle.set_union(sa1, sa2)),
            ("intersection", tb.intersection(a1, a2), oracle.set_intersection(sa1, sa2)),
            ("difference", tb.difference_graded(a1, a2), oracle.set_difference(sa1, sa2)),
            ("natural join", tb.natural_join(a1, b2), oracle.set_natural_join(sa1, sb2)),
            ("projection", tb.projection(a1, proj_target), oracle.set_projection(sa1, proj_target)),
            ("semijoin", tb.semijoin(a1, b2), oracle.set_semijoin(sa1, sb2)),
        ):
            run.check_support(i, label, got, want, tables)

        # ranged/Codd-style division on RS / S
        rng2 = gen.sub_rng(config.seed, "boolean-collapse.div", i)
        r_scheme, s_scheme = gen.split_pool(rng2, _sizes(rng2, 2, 0, 2))
        d1 = gen.gen_rdt(cfg, r_scheme | s_scheme, "d1")
        d2 = gen.gen_rdt(cfg, s_scheme, "d2")
        div_tables = {"D1": d1, "D2": d2}
        sd1, sd2 = frozenset(d1.support()), frozenset(d2.support())
        rng_table = tb.projection(d1, r_scheme)
        want_range = oracle.set_with_range(sd1, sd2, r_scheme)
        run.check_support(i, "ranged division", dv.div_ranged(d1, d2, rng_table),
                          want_range, div_tables)
        run.check_support(i, "composed Codd division", composed.div_codd_composed(d1, d2),
                          want_range, div_tables)
        run.check_support(i, "graded Codd division",
                          dv.div_gcodd(d1, d2, rng_table), want_range, div_tables)

        # Small Divide (original shapes)
        m1 = gen.gen_rdt(cfg, r_scheme, "m1")
        want_small = oracle.set_small_original(
            frozenset(m1.support()), sd2, sd1
        )
        run.check_support(i, "graded Small Divide", dv.div_gsdo(m1, d2, d1),
                          want_small, {**div_tables, "M1": m1})
        run.check_support(i, "composed Small Divide", composed.div_small_composed(m1, d2, d1),
                          want_small, {**div_tables, "M1": m1})

        # general Small Divide on RT / SU / RSV
        rng3 = gen.sub_rng(config.seed, "boolean-collapse.gsd", i)
        r2, s2_, t2, u2, v2 = gen.split_pool(rng3, [1, 1, 1, 1, 1])
        g1 = gen.gen_rdt(cfg, r2 | t2, "g1")
        g2 = gen.gen_rdt(cfg, s2_ | u2, "g2")
        g3 = gen.gen_rdt(cfg, r2 | s2_ | v2, "g3")
        want_gsd = oracle.set_small_general(
            frozenset(g1.support()), frozenset(g2.support()),
            frozenset(g3.support()), r2, s2_,
        )
        gsd_tables = {"G1": g1, "G2": g2, "G3": g3}
        run.check_support(i, "general graded Small Divide", dv.div_gsd(g1, g2, g3),
                          want_gsd, gsd_tables)
        run.check_support(i, "general composed Small Divide",
                          composed.div_small_general_composed(g1, g2, g3),
                          want_gsd, gsd_tables)

        # Todd division on RS / ST
        rng4 = gen.sub_rng(config.seed, "boolean-collapse.todd", i)
        rt_, st_, tt_ = gen.split_pool(rng4, _sizes(rng4, 3, 0, 2))
        t1 = gen.gen_rdt(cfg, rt_ | st_, "t1")
        t2_tab = gen.gen_rdt(cfg, st_ | tt_, "t2")
        st1, st2 = frozenset(t1.support()), frozenset(t2_tab.support())
        todd_universe = tb.natural_join(
            tb.projection(t1, rt_), tb.projection(t2_tab, tt_)
        )
        want_todd = oracle.set_todd(st1, st2, rt_, st_, tt_)
        run.check_support(i, "graded Todd division",
                          dv.div_gtodd(t1, t2_tab, todd_universe), want_todd,
                          {"T1": t1, "T2": t2_tab})

        # Great Divide on R / T / RS / ST
        e1 = gen.gen_rdt(cfg, rt_, "e1")
        e2 = gen.gen_rdt(cfg, tt_, "e2")
        e3 = gen.gen_rdt(cfg, rt_ | st_, "e3")
        e4 = gen.gen_rdt(cfg, st_ | tt_, "e4")
        want_great = oracle.set_great(
            frozenset(e1.support()), frozenset(e2.support()),
            frozenset(e3.support()), frozenset(e4.support()),
            rt_, st_, tt_,
        )
        great_tables = {"E1": e1, "E2": e2, "E3": e3, "E4": e4}
        run.check_support(i, "graded Great Divide", dv.div_ggdo(e1, e2, e3, e4),
                          want_great, great_tables)
        run.check_support(i, "composed Great Divide",
                          composed.div_great_composed(e1, e2, e3, e4),
                          want_great, great_tables)

        # Darwen divide on arbitrary schemes
        rng5 = gen.sub_rng(config.seed, "boolean-collapse.darwen", i)
        dschemes = [gen.gen_scheme(rng5, rng5.randint(0, 3)) for _ in range(4)]
        w1, w2, w3, w4 = (
            gen.gen_rdt(cfg, s, f"w{k + 1}") for k, s in enumerate(dschemes)
        )
        want_darwen = oracle.set_darwen(
            frozenset(w1.support()), frozenset(w2.support()),
            frozenset(w3.support()), frozenset(w4.support()), dschemes[0],
        )
        darwen_tables = {"W1": w1, "W2": w2, "W3": w3, "W4": w4}
        run.check_support(i, "graded Darwen Divide", dv.div_gddo(w1, w2, w3, w4),
                          want_darwen, darwen_tables)
        run.check_support(i, "composed Darwen Divide",
                          composed.div_darwen_composed(w1, w2, w3, w4),
                          want_darwen, darwen_tables)
    return run.report(n)


def _suite_ptc_compiler(config: gen.GenConfig, n: int) -> EquivalenceReport:
    run = _Run("ptc-compiler", suite_tolerance(config.lattice))
    pool = ("A", "B", "C", "D")
    for i in range(n):
        rng = gen.sub_rng(config.seed, "ptc-compiler.schemes", i)
        cfg = _icfg(config, "ptc-compiler", i)
        symbols = {}
        for k in range(rng.randint(2, 3)):
            symbols[f"D{k + 1}"] = frozenset(
                rng.sample(pool, rng.randint(1, min(3, cfg.max_attrs)))
            )
        inst = gen.gen_instance(cfg, symbols)
        expr = gen.gen_ptc_expr(cfg, symbols, max_depth=4, salt=str(i))
        tables = {name: inst.table(name) for name in symbols}
        want = pc.eval_ptc(expr, inst)
        for form in (pc.DIV_FORM, pc.GSDO_FORM):
            compiled = pc.compile_ptc_to_ra(expr, inf_form=form)
            got = alg.eval_ra(compiled, inst)
            run.check_tables(i, f"compiled ({form} form) vs calculus evaluation",
                             got, want, tables)
            free = sorted(pc.ptc_scheme(expr))
            if free and run.counterexample is None:
                lat = config.lattice
                for j in range(10):
                    probe = Tuple({
                        a: rng.randint(1, cfg.max_values + 5) if a != free[0]
                        else cfg.max_values + 5 + j
                        for a in free
                    })
                    if not lat.is_bottom(got.score(probe)):
                        run.max_dev = max(run.max_dev, 1.0)
                        run.counterexample = Counterexample(
                            i,
                            f"compiled expression nonzero at out-of-domain probe {probe}",
                            instance_csv(tables),
                        )
                        break
    return run.report(n)


_SUITES: dict[str, Callable] = {
    "T1": _suite_t1,
    "C-gsdo-ggdo": _dee_corollary("C-gsdo-ggdo", dv.div_ggdo),
    "C-gsdo-gddo": _dee_corollary("C-gsdo-gddo", dv.div_gddo),
    "T-ggdo-gddo": _suite_ggdo_gddo,
    "T-gddo-variants": _suite_gddo_variants,
    "T-rdiv-via-gsdo": _suite_rdiv_via_gsdo,
    "T-gsdo-via-rdiv": _suite_gsdo_via_rdiv,
    "T-gddo-via-rdiv": _suite_gddo_via_rdiv,
    "L-semidiff": _suite_semidiff,
    "T-darwen-set": _suite_darwen_set,
    "boolean-collapse": _suite_boolean_collapse,
    "ptc-compiler": _suite_ptc_compiler,
}


def run_theorem_suite(theorem_id: str, config: gen.GenConfig, n: int | None = None) -> EquivalenceReport:
    """Run one catalogued suite for n seeded instances."""
    try:
        suite = _SUITES[theorem_id]
    except KeyError:
        raise GradixError(f"unknown theorem id {theorem_id!r}") from None
    if n is None:
        n = DEFAULT_INSTANCES.get(theorem_id, 200)
    return suite(config, n)
