"""Classic compositions of engine operators.

The classic divisions written as the textbook formulas over ⋈, π, ∖ and the
semidifference.  They are two-valued only: the graded difference lacks the
laws the formulas rely on.  Unlike the oracles in `gradix.harness.oracle`,
they evaluate through the engine's table operators on purpose: the
`T-darwen-set` and `boolean-collapse` suites check that these compositions
and the engine's graded divisions collapse to the same set-notation
divisions.
"""

from __future__ import annotations

from ..division import _disjoint, _require, _require_boolean, gsd_roles, semidifference
from ..table import (
    RankedDataTable,
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
    r_scheme, s_scheme = d1.scheme, d2.scheme
    _require(not (r_scheme & s_scheme), "dividend and divisor schemes must be disjoint")
    _require(d3.scheme == r_scheme | s_scheme, "mediator must be on R∪S")
    return difference_graded(
        d1, projection(difference_graded(natural_join(d1, d2), d3), r_scheme)
    )


def div_small_general_composed(
    d1: RankedDataTable, d2: RankedDataTable, d3: RankedDataTable
) -> RankedDataTable:
    """General Small Divide: D1 ⋉̄ ((π_R(D1) ⋈ π_S(D2)) ⋉̄ D3) (two-valued)."""
    _require_boolean(d1, "div_small_general_composed")
    _same_lattice(d1, d2, d3)
    r_scheme, s_scheme, _t, _u, _v = gsd_roles(d1.scheme, d2.scheme, d3.scheme)
    inner = semidifference(
        natural_join(projection(d1, r_scheme), projection(d2, s_scheme)), d3
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
    r_scheme, t_scheme = d1.scheme, d2.scheme
    s_scheme = d3.scheme - r_scheme
    _require(
        _disjoint(r_scheme, s_scheme, t_scheme)
        and d3.scheme == r_scheme | s_scheme
        and d4.scheme == s_scheme | t_scheme,
        "Great Divide scheme shapes violated",
    )
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
