"""Executable equivalence suites: for each catalogued identity, both sides
are computed by independent code paths on seeded random instances and
compared pointwise, reporting the maximal deviation and the first
counterexample (as replayable CSV) if any.

Each suite is one entry of `_SUITES`: a case that checks one generated
instance, its default instance count and whether it is two-valued.
`run_theorem_suite` owns the instance loop: it seeds each instance, runs
the case and returns the report.

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
from ..lattice import DEGREE_TOL, BooleanLattice, ResiduatedLattice, UnitIntervalLattice
from ..table import DatabaseInstance, RankedDataTable, Tuple, table_to_csv
from . import composed, gen, oracle


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
    return DEGREE_TOL if isinstance(lat, UnitIntervalLattice) else 0.0


def instance_csv(tables: dict) -> str:
    parts = []
    for name in sorted(tables):
        parts.append(f"-- {name}")
        parts.append(table_to_csv(tables[name]))
    return "\n".join(parts)


class _Run:
    """Accumulates deviations and the first counterexample of a suite run
    from `seed`."""

    def __init__(self, theorem_id: str, tolerance: float, seed: int = 0):
        self.theorem_id = theorem_id
        self.tolerance = tolerance
        self.seed = seed
        self.max_dev = 0.0
        self.counterexample: Optional[Counterexample] = None

    def fail(self, index, detail: str, tables) -> None:
        self.max_dev = max(self.max_dev, 1.0)
        if self.counterexample is None:
            self.counterexample = Counterexample(index, detail, instance_csv(tables))

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
        if not (got.is_non_ranked() and frozenset(got.support()) == want):
            extra = sorted(map(repr, frozenset(got.support()) - want))
            missing = sorted(map(repr, want - frozenset(got.support())))
            self.fail(index, f"{label}: support mismatch (extra {extra}, missing {missing})",
                      tables)

    def report(self, n: int) -> EquivalenceReport:
        return EquivalenceReport(
            self.theorem_id, n, self.max_dev, self.tolerance, self.counterexample
        )


def _sizes(rng, count):
    """`count` draws of `rng.randint(0, 2)`."""
    return [gen._draw_below(rng, 3) for _ in range(count)]


def _draw(cfg: gen.GenConfig, *schemes) -> dict:
    """Tables D1…Dk on the schemes, drawn with salts d1…dk."""
    return {f"D{k}": gen.gen_rdt(cfg, s, f"d{k}") for k, s in enumerate(schemes, 1)}


def _widening_table(config: gen.GenConfig, rng, used_attrs) -> RankedDataTable:
    """An extra table injecting unseen values into (some of) the used
    attributes, so a widened instance genuinely enlarges the active domains."""
    attrs = sorted(used_attrs) or ["A"]
    size = min(len(attrs), 1 + gen._draw_below(rng, 2))
    names = tb.attrs_of(gen._draw_sample(rng, attrs, size))
    return gen._draw_table(rng, names, config.lattice, config.score_step,
                           3, config.max_values + 1, 3)


def _check_widened(run: _Run, i, label, lhs, rhs: Callable, tables, cfg, rng, used_attrs):
    """`lhs` against `rhs(instance)` over the instance's active domains,
    then over an instance widened by `_widening_table`."""
    inst = DatabaseInstance(cfg.lattice, tables)
    run.check_tables(i, f"{label} over active domains", lhs, rhs(inst), tables)
    wtab = _widening_table(cfg, rng, used_attrs)
    run.check_tables(i, f"{label}, widened instance",
                     lhs, rhs(inst.with_table("Z", wtab)), {**tables, "Z": wtab})


# -- per-instance cases: case(run, i, rng, cfg) checks instance i ------------


def _case_t1(run, i, rng, cfg):
    r_scheme, s_scheme = gen.split_pool(rng, _sizes(rng, 2))
    tables = _draw(cfg, r_scheme, s_scheme, r_scheme | s_scheme)
    d1, d2, d3 = tables.values()
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


def _dee_corollary(other: Callable):
    def case(run, i, rng, cfg):
        lat = cfg.lattice
        r_scheme, s_scheme = gen.split_pool(rng, _sizes(rng, 2))
        tables = _draw(cfg, r_scheme, s_scheme, r_scheme | s_scheme)
        d1, d2, d3 = tables.values()
        run.check_tables(
            i, f"gsdo vs {other.__name__} with Dee(1) divisor",
            dv.div_gsdo(d1, d2, d3), other(d1, tb.dee(lat, lat.top), d3, d2), tables,
        )

    return case


def _case_ggdo_gddo(run, i, rng, cfg):
    r_scheme, s_scheme, t_scheme = gen.split_pool(rng, _sizes(rng, 3))
    tables = _draw(cfg, r_scheme, t_scheme, r_scheme | s_scheme, s_scheme | t_scheme)
    run.check_tables(
        i, "ggdo vs gddo on conforming schemes",
        dv.div_ggdo(*tables.values()), dv.div_gddo(*tables.values()), tables,
    )


def _case_gddo_variants(run, i, rng, cfg):
    schemes = [gen.gen_scheme(rng, gen._draw_int(rng, 0, 3)) for _ in range(4)]
    tables = _draw(cfg, *schemes)
    lat, rows = cfg.lattice, [d.rows for d in tables.values()]
    engine = dv.div_gddo(*tables.values())
    for label, want in (
        ("joinable", oracle.gddo_joinable(lat, *rows)),
        ("nocond", oracle.gddo_nocond(lat, *schemes, *rows)),
    ):
        run.check_tables(
            i, f"gddo vs {label} formulation",
            engine, RankedDataTable(engine.scheme, lat, want), tables,
        )


def _case_rdiv_via_gsdo(run, i, rng, cfg):
    r_scheme, s_scheme = gen.split_pool(rng, _sizes(rng, 2))
    tables = _draw(cfg, r_scheme | s_scheme, s_scheme, r_scheme)
    d1, d2, d3 = tables.values()

    def rhs(inst: DatabaseInstance) -> RankedDataTable:
        e_r = alg.eadom(inst, r_scheme)
        e_s = alg.eadom(inst, s_scheme)
        e_rs = alg.eadom(inst, r_scheme | s_scheme)
        mediator = tb.natural_join(
            d3, tb.residuum_with_range(tb.natural_join(d2, e_r), d1, e_rs)
        )
        return dv.div_gsdo(e_r, e_s, mediator)

    _check_widened(run, i, "ranged division via gsdo", dv.div_ranged(d1, d2, d3), rhs,
                   tables, cfg, rng, r_scheme | s_scheme)


def _case_gsdo_via_rdiv(run, i, rng, cfg):
    r_scheme, s_scheme = gen.split_pool(rng, _sizes(rng, 2))
    tables = _draw(cfg, r_scheme, s_scheme, r_scheme | s_scheme)
    d1, d2, d3 = tables.values()

    def rhs(inst: DatabaseInstance) -> RankedDataTable:
        e_r = alg.eadom(inst, r_scheme)
        e_s = alg.eadom(inst, s_scheme)
        e_rs = alg.eadom(inst, r_scheme | s_scheme)
        mediator = tb.residuum_with_range(tb.natural_join(d2, e_r), d3, e_rs)
        return tb.natural_join(d1, dv.div_ranged(mediator, e_s, e_r))

    _check_widened(run, i, "gsdo via ranged division", dv.div_gsdo(d1, d2, d3), rhs,
                   tables, cfg, rng, r_scheme | s_scheme)


def _case_gddo_via_rdiv(run, i, rng, cfg):
    s1, s2, s3, s4 = schemes = [gen.gen_scheme(rng, gen._draw_int(rng, 0, 2))
                                for _ in range(4)]
    tables = _draw(cfg, *schemes)
    d1, d2, d3, d4 = tables.values()
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

    _check_widened(run, i, "gddo via ranged division", dv.div_gddo(d1, d2, d3, d4), rhs,
                   tables, cfg, rng, s1 | s2 | s3 | s4)


def _case_semidiff(run, i, rng, cfg):
    sch1 = gen.gen_scheme(rng, gen._draw_int(rng, 1, 3))
    sch2 = gen.gen_scheme(rng, gen._draw_int(rng, 0, 3))
    tables = _draw(cfg, sch1, sch2)
    d1, d2 = tables.values()
    want = oracle.set_semidiff_char(frozenset(d1.support()), frozenset(d2.support()))
    run.check_support(i, "semidifference vs joinable-partner characterization",
                      dv.semidifference(d1, d2), want, tables)


def _case_darwen_set(run, i, rng, cfg):
    schemes = [gen.gen_scheme(rng, gen._draw_int(rng, 0, 3)) for _ in range(4)]
    tables = _draw(cfg, *schemes)
    sets = [frozenset(d.support()) for d in tables.values()]
    want = oracle.set_darwen(*sets, schemes[0])
    run.check_support(i, "composed Darwen divide vs set comprehension",
                      composed.div_darwen_composed(*tables.values()), want, tables)
    run.check_support(i, "graded Darwen divide (two-valued) vs set comprehension",
                      dv.div_gddo(*tables.values()), want, tables)


def _case_boolean_collapse(run, i, rng, cfg):
    # base operations on matching/overlapping schemes
    common = gen.gen_scheme(rng, gen._draw_int(rng, 1, 3))
    a1 = gen.gen_rdt(cfg, common, "a1")
    a2 = gen.gen_rdt(cfg, common, "a2")
    sa1, sa2 = frozenset(a1.support()), frozenset(a2.support())
    shared = sorted(common)
    b2_scheme = frozenset(gen._draw_sample(rng, shared, gen._draw_int(rng, 1, len(shared)))) \
        | gen.gen_scheme(rng, gen._draw_int(rng, 0, 2))
    b2 = gen.gen_rdt(cfg, b2_scheme, "b2")
    sb2 = frozenset(b2.support())
    tables = {"A1": a1, "A2": a2, "B2": b2}
    proj_target = frozenset(gen._draw_sample(rng, shared, gen._draw_int(rng, 0, len(shared))))
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
    rng2 = gen.sub_rng(run.seed, "boolean-collapse.div", i)
    r_scheme, s_scheme = gen.split_pool(rng2, _sizes(rng2, 2))
    div_tables = _draw(cfg, r_scheme | s_scheme, s_scheme)
    d1, d2 = div_tables.values()
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
    want_small = oracle.set_small_original(frozenset(m1.support()), sd2, sd1)
    run.check_support(i, "graded Small Divide", dv.div_gsdo(m1, d2, d1),
                      want_small, {**div_tables, "M1": m1})
    run.check_support(i, "composed Small Divide", composed.div_small_composed(m1, d2, d1),
                      want_small, {**div_tables, "M1": m1})

    # general Small Divide on RT / SU / RSV
    rng3 = gen.sub_rng(run.seed, "boolean-collapse.gsd", i)
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
    rng4 = gen.sub_rng(run.seed, "boolean-collapse.todd", i)
    rt_, st_, tt_ = gen.split_pool(rng4, _sizes(rng4, 3))
    t1 = gen.gen_rdt(cfg, rt_ | st_, "t1")
    t2_tab = gen.gen_rdt(cfg, st_ | tt_, "t2")
    st1, st2 = frozenset(t1.support()), frozenset(t2_tab.support())
    todd_universe = tb.natural_join(tb.projection(t1, rt_), tb.projection(t2_tab, tt_))
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
    rng5 = gen.sub_rng(run.seed, "boolean-collapse.darwen", i)
    dschemes = [gen.gen_scheme(rng5, gen._draw_int(rng5, 0, 3)) for _ in range(4)]
    w1, w2, w3, w4 = (gen.gen_rdt(cfg, s, f"w{k + 1}") for k, s in enumerate(dschemes))
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


def _case_ptc_compiler(run, i, rng, cfg):
    pool = ("A", "B", "C", "D")
    symbols = {}
    for k in range(gen._draw_int(rng, 2, 3)):
        size = gen._draw_int(rng, 1, min(3, cfg.max_attrs))
        symbols[f"D{k + 1}"] = frozenset(gen._draw_sample(rng, pool, size))
    inst = gen.gen_instance(cfg, symbols)
    expr = gen.gen_ptc_expr(cfg, symbols, max_depth=4, salt=str(i))
    tables = {name: inst.table(name) for name in symbols}
    compilation = pc._compile(expr)  # one check and compilation serves all three forms
    want = pc._evaluate(expr, compilation, inst)
    free = sorted(want.scheme)
    for form in (composed.DIV_FORM, composed.GSDO_FORM):
        got = alg.eval_ra(composed._literal(expr, compilation, form), inst)
        run.check_tables(i, f"compiled ({form} form) vs calculus evaluation",
                         got, want, tables)
        if free and run.counterexample is None:
            for j in range(10):
                probe = Tuple({
                    a: gen._draw_int(rng, 1, cfg.max_values + 5) if a != free[0]
                    else cfg.max_values + 5 + j
                    for a in free
                })
                if not cfg.lattice.is_bottom(got.score(probe)):
                    run.fail(i, f"compiled expression nonzero at out-of-domain probe {probe}",
                             tables)
                    break


# -- the suite table and its driver ------------------------------------------


@dataclass(frozen=True)
class _Suite:
    case: Callable
    instances: int = 200
    #: about the two-valued collapse: runs on the Boolean lattice whatever
    #: lattice it is given
    boolean: bool = False


_SUITES = {
    "T1": _Suite(_case_t1, 500),
    "C-gsdo-ggdo": _Suite(_dee_corollary(dv.div_ggdo)),
    "T-ggdo-gddo": _Suite(_case_ggdo_gddo),
    "C-gsdo-gddo": _Suite(_dee_corollary(dv.div_gddo)),
    "T-gddo-variants": _Suite(_case_gddo_variants),
    "T-rdiv-via-gsdo": _Suite(_case_rdiv_via_gsdo),
    "T-gsdo-via-rdiv": _Suite(_case_gsdo_via_rdiv),
    "T-gddo-via-rdiv": _Suite(_case_gddo_via_rdiv),
    "L-semidiff": _Suite(_case_semidiff, boolean=True),
    "T-darwen-set": _Suite(_case_darwen_set, boolean=True),
    "boolean-collapse": _Suite(_case_boolean_collapse, boolean=True),
    "ptc-compiler": _Suite(_case_ptc_compiler, 300),
}

THEOREM_IDS = tuple(_SUITES)
DEFAULT_INSTANCES = {theorem_id: s.instances for theorem_id, s in _SUITES.items()}
BOOLEAN_SUITES = tuple(theorem_id for theorem_id, s in _SUITES.items() if s.boolean)


def run_theorem_suite(theorem_id: str, config: gen.GenConfig, n: int | None = None) -> EquivalenceReport:
    """Run one catalogued suite for n seeded instances (its default count if
    n is None); instance i draws its schemes from the rng keyed
    "<id>.schemes" and its tables from a config reseeded by the rng keyed
    "<id>", as `gen.sub_rng(seed, key, i)` keys them.  The key text up to i
    is built once per run."""
    try:
        suite = _SUITES[theorem_id]
    except KeyError:
        raise GradixError(f"unknown theorem id {theorem_id!r}") from None
    if n is None:
        n = suite.instances
    elif isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise GradixError(f"instance count must be a whole number of at least 1, not {n!r}")
    if suite.boolean and not isinstance(config.lattice, BooleanLattice):
        config = replace(config, lattice=BooleanLattice())
    run = _Run(theorem_id, suite_tolerance(config.lattice), config.seed)
    schemes_key = f"{config.seed}|{theorem_id}.schemes|"
    tables_key = f"{config.seed}|{theorem_id}|"
    stream = gen._stream
    for i in range(n):
        rng = stream(f"{schemes_key}{i}")
        cfg = config.with_seed(stream(f"{tables_key}{i}").getrandbits(48))
        suite.case(run, i, rng, cfg)
    return run.report(n)
