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
"""

from __future__ import annotations

from typing import Iterable, Mapping

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
