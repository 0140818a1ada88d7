"""Classic compositions of engine operators.

The classic divisions written as the textbook formulas over ⋈, π, ∖ and the
semidifference.  They are two-valued only: the graded difference lacks the
laws the formulas rely on.  Unlike the oracles in `gradix.harness.oracle`,
they evaluate through the engine's table operators on purpose: the
`T-darwen-set` and `boolean-collapse` suites check that these compositions
and the engine's graded divisions collapse to the same set-notation
divisions.

`eadom_ra_expr` composes the extended active domain the same way, as an
algebra expression over π, ∇, ∪ and ⋈, which the tests evaluate against
the engine's own `algebra.eadom`.

`compile_ptc_literal` is the paper's literal translation of the pseudo
tuple calculus into the algebra, in its two forms: every ∧ and → extends
both sides to the full scheme, and every ⋀ divides its body by the bound
scheme's active domain.  The engine compiles and evaluates the calculus
through the cheaper `ptc.compile_ptc_to_ra`; the `ptc-compiler` suite
checks it against both forms of this one.  `split_variable` is the
paper's variable-splitting lemma, which the tests check on the engine.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .. import algebra as ra
from ..algebra import (
    DeeConst,
    GradedDifference,
    Nabla,
    NaturalJoin,
    Projection,
    RaExpr,
    RelSym,
    Singleton,
    Union,
)
from ..division import (
    _require, _require_boolean, ggdo_scheme, gsd_scheme, gsdo_scheme, semidifference,
)
from ..errors import PtcError
from ..ptc import (
    MEET, OTIMES, Atom, PtcBinary, PtcDelta, PtcExpr, PtcInf, PtcNabla, PtcSup, TupleVar,
    _calculus_children, _compile, scheme_of_vars, validate_ptc,
)
from ..table import (
    RankedDataTable,
    Scheme,
    _same_lattice,
    difference_graded,
    natural_join,
    projection,
)


def div_codd_composed(d1: RankedDataTable, d2: RankedDataTable) -> RankedDataTable:
    """Classic Codd division composed from π, ⋈, ∖ (two-valued)."""
    _require_boolean(d1, "div_codd_composed")
    _same_lattice(d1, d2)
    r_scheme = d1.scheme - d2.scheme
    _require(d2.scheme <= d1.scheme, "divisor scheme must be part of the dividend's")
    p1 = projection(d1, r_scheme)
    return difference_graded(
        p1, projection(difference_graded(natural_join(p1, d2), d1), r_scheme)
    )


def div_small_composed(
    d1: RankedDataTable, d2: RankedDataTable, d3: RankedDataTable
) -> RankedDataTable:
    """Original Small Divide: D1 ∖ π_R((D1 ⋈ D2) ∖ D3) (two-valued)."""
    _require_boolean(d1, "div_small_composed")
    _same_lattice(d1, d2, d3)
    r_scheme = gsdo_scheme(d1.scheme, d2.scheme, d3.scheme)
    return difference_graded(
        d1, projection(difference_graded(natural_join(d1, d2), d3), r_scheme)
    )


def div_small_general_composed(
    d1: RankedDataTable, d2: RankedDataTable, d3: RankedDataTable
) -> RankedDataTable:
    """General Small Divide: D1 ⋉̄ ((π_R(D1) ⋈ π_S(D2)) ⋉̄ D3) (two-valued)."""
    _require_boolean(d1, "div_small_general_composed")
    _same_lattice(d1, d2, d3)
    gsd_scheme(d1.scheme, d2.scheme, d3.scheme)
    inner = semidifference(
        natural_join(projection(d1, d1.scheme & d3.scheme),
                     projection(d2, d2.scheme & d3.scheme)), d3
    )
    return semidifference(d1, inner)


def div_great_composed(
    d1: RankedDataTable,
    d2: RankedDataTable,
    d3: RankedDataTable,
    d4: RankedDataTable,
) -> RankedDataTable:
    """Original Great Divide: (D1⋈D2) ⋉̄ ((D1⋈D4) ⋉̄ D3) (two-valued)."""
    _require_boolean(d1, "div_great_composed")
    _same_lattice(d1, d2, d3, d4)
    ggdo_scheme(d1.scheme, d2.scheme, d3.scheme, d4.scheme)
    return semidifference(
        natural_join(d1, d2), semidifference(natural_join(d1, d4), d3)
    )


def div_darwen_composed(
    d1: RankedDataTable,
    d2: RankedDataTable,
    d3: RankedDataTable,
    d4: RankedDataTable,
) -> RankedDataTable:
    """Darwen's Divide: the Great Divide composition on arbitrary schemes."""
    _require_boolean(d1, "div_darwen_composed")
    _same_lattice(d1, d2, d3, d4)
    return semidifference(
        natural_join(d1, d2), semidifference(natural_join(d1, d4), d3)
    )


def eadom_ra_expr(
    scheme: Scheme,
    symbols: Mapping[str, Scheme],
    constants: Iterable = (),
) -> RaExpr:
    """An explicit π/∇/∪/⋈ expression whose value is the extended active
    domain over `scheme` in any instance binding the given symbols.

    Attributes covered by no symbol and no constant have an empty domain;
    they are rendered as a self-difference of a placeholder singleton (its
    value never survives into the result).
    """
    attrs = sorted(scheme)
    if not attrs:
        return DeeConst(1)
    consts = sorted(set(constants), key=lambda c: (c[0], str(c[1])))
    per_attr = []
    for a in attrs:
        parts: list[RaExpr] = [
            Projection(frozenset({a}), Nabla(RelSym(name, frozenset(s))))
            for name, s in sorted(symbols.items())
            if a in s
        ]
        parts.extend(Singleton(a, v) for attr, v in consts if attr == a)
        if not parts:
            ghost = Singleton(a, 0)
            expr: RaExpr = GradedDifference(ghost, ghost)
        else:
            expr = parts[0]
            for p in parts[1:]:
                expr = Union(expr, p)
        per_attr.append(expr)
    out = per_attr[0]
    for e in per_attr[1:]:
        out = NaturalJoin(out, e)
    return out


# -- the calculus -------------------------------------------------------------

DIV_FORM = "div"
GSDO_FORM = "gsdo"


def compile_ptc_literal(expr: PtcExpr, inf_form: str = DIV_FORM):
    """The paper's structural translation into relational algebra.

    Atoms pass through; ⊗ becomes a natural join; ∧ intersects the two
    sides after extending each to the full scheme with an active-domain
    join; → becomes the residuum ranged over the full scheme's active
    domain; ∇/Δ map to their table forms; ⋁ projects the bound scheme away;
    ⋀ becomes the ranged division of the body by the bound scheme's active
    domain over the free scheme's, or equivalently (inf_form="gsdo") the
    graded Small Divide with the body as mediator.  The compiled expression
    evaluates identically to the source in every instance, on all tuples.
    """
    if inf_form not in (DIV_FORM, GSDO_FORM):
        raise PtcError(f"unknown Inf compilation form {inf_form!r}")
    return _literal(expr, _compile(expr), inf_form)  # checks the formula as `validate_ptc` does


def _literal(expr: PtcExpr, compilation: tuple, inf_form: str):
    """`compile_ptc_literal` of `expr`, whose `ptc._compile` result is
    `compilation`."""
    done, consts, _quantifiers = compilation

    def free_scheme(node) -> Scheme:
        return done[id(node)][1]

    def ead(scheme: Scheme):
        scheme = frozenset(scheme)
        return ra.EadomExpr(scheme, frozenset(c for c in consts if c[0] in scheme))

    def rule(node, *f):
        match node:
            case Atom(e, _):
                return e
            case PtcBinary(op, l, r):
                if op == OTIMES:
                    return ra.NaturalJoin(*f)
                left = ra.NaturalJoin(f[0], ead(free_scheme(r)))
                right = ra.NaturalJoin(f[1], ead(free_scheme(l)))
                if op == MEET:
                    return ra.Intersection(left, right)
                return ra.ResiduumRange(left, right, ead(free_scheme(l) | free_scheme(r)))
            case PtcNabla():
                return ra.Nabla(*f)
            case PtcDelta():
                return ra.Delta(*f)
            case PtcSup():
                return ra.Projection(free_scheme(node), *f)
            case PtcInf(bound, _):
                bound_scheme, out_scheme = scheme_of_vars(bound), free_scheme(node)
                if inf_form == DIV_FORM:
                    return ra.DivRanged(*f, ead(bound_scheme), ead(out_scheme))
                return ra.GSDO(ead(out_scheme), ead(bound_scheme), *f)
        raise TypeError(f"not a PTC expression: {type(node).__name__}")

    return ra.fold(expr, rule, _calculus_children)[id(expr)]


def split_variable(expr: PtcExpr, var: TupleVar, parts: Iterable[TupleVar]) -> PtcExpr:
    """Replace one tuple variable by fresh variables that jointly cover its
    scheme; evaluation is unchanged in every instance."""
    parts = frozenset(parts)
    if scheme_of_vars(parts) != var.scheme:
        raise PtcError(
            f"parts cover {sorted(scheme_of_vars(parts))}, variable is on "
            f"{sorted(var.scheme)}"
        )

    def swap(vs: frozenset) -> frozenset:
        return (vs - {var}) | parts if var in vs else vs

    def rule(node, *below):
        match node:
            case Atom(e, vs):
                return Atom(e, swap(vs))
            case PtcSup(bound, _) | PtcInf(bound, _):
                return type(node)(swap(bound), *below)
        return ra._with_children(node, below)

    out = ra.fold(expr, rule, _calculus_children)[id(expr)]
    validate_ptc(out)
    return out
