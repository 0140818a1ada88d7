"""Division operations over ranked data tables.

All graded divisions are defined through an infimum over the (conceptually
unbounded) tuple universe of the divisor scheme.  Each implementation
reduces that infimum to a finite one: tuples outside the divisor's answer
set contribute a constant analytic tail (1 inside a residuum whose
antecedent is 0, or the bare range score for the ranged division), so the
infimum runs over stored rows plus one tail term.  The reductions are
unit-tested against direct enumeration oracles.

The composed classic formulas (built from ⋈, ∖ and semidifference) are
two-valued only: the graded difference lacks the laws they rely on.
"""

from __future__ import annotations

from .errors import SchemeError, UnsupportedLatticeError
from .lattice import BooleanLattice
from .table import (
    RankedDataTable,
    Scheme,
    _join_plan,
    _make_tuple,
    _project_plan,
    _same_lattice,
    _table,
    _values_index,
    attrs_of,
    difference_graded,
    natural_join,
    projection,
    semijoin,
)


def _disjoint(*schemes: Scheme) -> bool:
    seen: set = set()
    for s in schemes:
        if seen & s:
            return False
        seen |= s
    return True


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SchemeError(message)


def _require_non_ranked(universe: RankedDataTable, op: str) -> None:
    if not universe.is_non_ranked():
        raise SchemeError(f"{op} needs a non-ranked universe table")


def _require_boolean(table: RankedDataTable, op: str) -> None:
    if not isinstance(table.lattice, BooleanLattice):
        raise UnsupportedLatticeError(f"{op} is a two-valued operation")


def _value_rows(d: RankedDataTable) -> list:
    """(value tuple, degree) pairs of the stored rows."""
    return [(t._values, b) for t, b in d.rows.items()]


def _merger(left: Scheme, right: Scheme):
    """Values on `left` plus values on the disjoint `right` → values on the
    union, in sorted-attribute order."""
    return _join_plan(attrs_of(left), attrs_of(right)).merge


def div_ranged(
    dividend: RankedDataTable, divisor: RankedDataTable, rng: RankedDataTable
) -> RankedDataTable:
    """Fundamental ranged division.

    result(r) = ⋀_s rng(r) ⊗ (divisor(s) → dividend(rs)) with s running over
    the whole universe of the divisor scheme.  Off-support s contribute
    rng(r) ⊗ (0 → ·) = rng(r); since every on-support term is ≤ rng(r) as
    well, folding rng(r) in unconditionally is exact and also covers an
    empty divisor.  The result is pointwise ≤ rng, so only rng's support is
    enumerated.
    """
    lat = _same_lattice(dividend, divisor, rng)
    s_scheme, r_scheme = divisor.scheme, rng.scheme
    _require(not (s_scheme & r_scheme), "divisor and range schemes must be disjoint")
    _require(
        dividend.scheme == r_scheme | s_scheme,
        "dividend must live on the union of range and divisor schemes",
    )
    merge = _merger(r_scheme, s_scheme)
    score = _values_index(dividend).get
    kotimes, kresiduum, kinf, bottom = lat.kotimes, lat.kresiduum, lat.kinf, lat.bottom
    divisor_rows = _value_rows(divisor)
    rows = {}
    for r, g in rng.rows.items():
        rv = r._values
        terms = [g]
        terms += [kotimes(g, kresiduum(b, score(merge(rv + sv), bottom)))
                  for sv, b in divisor_rows]
        rows[r] = kinf(terms)
    return _table(r_scheme, lat, rows)


def div_gsdo(
    d1: RankedDataTable, d2: RankedDataTable, d3: RankedDataTable
) -> RankedDataTable:
    """Graded Small Divide, original scheme shapes.

    d1 on R (dividend), d2 on S (divisor), d3 on R∪S (mediator);
    result(r) = d1(r) ⊗ ⋀_s (d2(s) → d3(rs)), tail 1 off support.
    """
    lat = _same_lattice(d1, d2, d3)
    r_scheme, s_scheme = d1.scheme, d2.scheme
    _require(not (r_scheme & s_scheme), "dividend and divisor schemes must be disjoint")
    _require(
        d3.scheme == r_scheme | s_scheme,
        "mediator must live on the union of dividend and divisor schemes",
    )
    merge = _merger(r_scheme, s_scheme)
    score = _values_index(d3).get
    kotimes, kresiduum, kinf, bottom = lat.kotimes, lat.kresiduum, lat.kinf, lat.bottom
    divisor_rows = _value_rows(d2)
    rows = {}
    for r, a in d1.rows.items():
        rv = r._values
        body = kinf([kresiduum(b, score(merge(rv + sv), bottom)) for sv, b in divisor_rows])
        rows[r] = kotimes(a, body)
    return _table(r_scheme, lat, rows)


def gsd_roles(s1: Scheme, s2: Scheme, s3: Scheme):
    """Decompose general Small Divide schemes d1:R∪T, d2:S∪U, d3:R∪S∪V.

    R/S/T/U/V must be pairwise disjoint, which forces s1 ∩ s2 = ∅; any
    overlap makes the decomposition impossible and is a scheme error.
    """
    if s1 & s2:
        raise SchemeError(
            "general Small Divide needs disjoint dividend/divisor schemes; "
            f"shared attributes {sorted(s1 & s2)} make the role split ambiguous"
        )
    r = s1 & s3
    s = s2 & s3
    return r, s, s1 - s3, s2 - s3, s3 - (s1 | s2)


def div_gsd(
    d1: RankedDataTable, d2: RankedDataTable, d3: RankedDataTable
) -> RankedDataTable:
    """Graded Small Divide on general schemes.

    result(rt) = d1(rt) ⊗ ⋀_s (π_S(d2)(s) → π_{R∪S}(d3)(rs)); with the
    extra scheme parts empty it coincides with div_gsdo.
    """
    lat = _same_lattice(d1, d2, d3)
    r_scheme, s_scheme, _t, _u, _v = gsd_roles(d1.scheme, d2.scheme, d3.scheme)
    divisor_rows = _value_rows(projection(d2, s_scheme))
    score = _values_index(projection(d3, r_scheme | s_scheme)).get
    to_r = _project_plan(attrs_of(d1.scheme), attrs_of(r_scheme))
    merge = _merger(r_scheme, s_scheme)
    kotimes, kresiduum, kinf, bottom = lat.kotimes, lat.kresiduum, lat.kinf, lat.bottom
    rows = {}
    for rt, a in d1.rows.items():
        rv = to_r(rt._values)
        body = kinf([kresiduum(b, score(merge(rv + sv), bottom)) for sv, b in divisor_rows])
        rows[rt] = kotimes(a, body)
    return _table(d1.scheme, lat, rows)


def div_gcodd(
    d1: RankedDataTable, d2: RankedDataTable, universe: RankedDataTable
) -> RankedDataTable:
    """Truth-functional Codd-style division, domain-dependent.

    result(r) = ⋀_s (d2(s) → d1(rs)) for r in the universe's support and 0
    elsewhere.  Without the explicit finite universe the true result may be
    infinite (every r with a vacuously true body would score 1), which is
    why the universe argument is mandatory and must be non-ranked.
    """
    lat = _same_lattice(d1, d2, universe)
    _require_non_ranked(universe, "div_gcodd")
    s_scheme, r_scheme = d2.scheme, universe.scheme
    _require(not (s_scheme & r_scheme), "divisor and universe schemes must be disjoint")
    _require(
        d1.scheme == r_scheme | s_scheme,
        "dividend must live on the union of universe and divisor schemes",
    )
    merge = _merger(r_scheme, s_scheme)
    score = _values_index(d1).get
    kresiduum, kinf, bottom = lat.kresiduum, lat.kinf, lat.bottom
    divisor_rows = _value_rows(d2)
    rows = {}
    for r in universe.rows:
        rv = r._values
        rows[r] = kinf([kresiduum(b, score(merge(rv + sv), bottom)) for sv, b in divisor_rows])
    return _table(r_scheme, lat, rows)


def div_gtodd(
    d1: RankedDataTable, d2: RankedDataTable, universe: RankedDataTable
) -> RankedDataTable:
    """Graded Todd division (superproduct composition), domain-dependent.

    d1 on R∪S, d2 on S∪T; result(rt) = ⋀_s (d2(st) → d1(rs)) restricted to
    the non-ranked universe on R∪T.  Only s fragments from d2 rows matching
    t can have nonzero antecedent; the rest give tail 1.
    """
    lat = _same_lattice(d1, d2, universe)
    _require_non_ranked(universe, "div_gtodd")
    s_scheme = d1.scheme & d2.scheme
    r_scheme = d1.scheme - s_scheme
    t_scheme = d2.scheme - s_scheme
    _require(
        universe.scheme == r_scheme | t_scheme,
        "universe must live on the union of the non-shared scheme parts",
    )
    r_names, s_names, t_names = attrs_of(r_scheme), attrs_of(s_scheme), attrs_of(t_scheme)
    d2_names, u_names = attrs_of(d2.scheme), attrs_of(universe.scheme)
    d2_to_t, d2_to_s = _project_plan(d2_names, t_names), _project_plan(d2_names, s_names)
    u_to_r, u_to_t = _project_plan(u_names, r_names), _project_plan(u_names, t_names)
    by_t: dict = {}
    for row, b in d2.rows.items():
        v = row._values
        by_t.setdefault(d2_to_t(v), []).append((d2_to_s(v), b))
    merge = _merger(r_scheme, s_scheme)
    score = _values_index(d1).get
    kresiduum, kinf, bottom = lat.kresiduum, lat.kinf, lat.bottom
    rows = {}
    for rt in universe.rows:
        v = rt._values
        rv = u_to_r(v)
        rows[rt] = kinf([kresiduum(b, score(merge(rv + sv), bottom))
                         for sv, b in by_t.get(u_to_t(v), ())])
    return _table(universe.scheme, lat, rows)


def div_ggdo(
    d1: RankedDataTable,
    d2: RankedDataTable,
    d3: RankedDataTable,
    d4: RankedDataTable,
) -> RankedDataTable:
    """Graded Great Divide, original shapes.

    d1 on R (dividend), d2 on T (divisor), d3 on R∪S, d4 on S∪T (mediators);
    result(rt) = (d1⋈d2)(rt) ⊗ ⋀_s (d4(st) → d3(rs)).  A domain-independent
    cousin of the superproduct whose range is the join of dividend and
    divisor.
    """
    lat = _same_lattice(d1, d2, d3, d4)
    r_scheme, t_scheme = d1.scheme, d2.scheme
    s_scheme = d3.scheme - r_scheme
    _require(
        _disjoint(r_scheme, s_scheme, t_scheme),
        "Great Divide schemes R, S, T must be pairwise disjoint",
    )
    _require(d3.scheme == r_scheme | s_scheme, "first mediator must be on R∪S")
    _require(d4.scheme == s_scheme | t_scheme, "second mediator must be on S∪T")
    d4_names = attrs_of(d4.scheme)
    d4_to_t = _project_plan(d4_names, attrs_of(t_scheme))
    d4_to_s = _project_plan(d4_names, attrs_of(s_scheme))
    by_t: dict = {}
    for row, b in d4.rows.items():
        v = row._values
        by_t.setdefault(d4_to_t(v), []).append((d4_to_s(v), b))
    merge_rs = _merger(r_scheme, s_scheme)
    out = _join_plan(attrs_of(r_scheme), attrs_of(t_scheme))
    score = _values_index(d3).get
    kotimes, kresiduum, kinf, bottom = lat.kotimes, lat.kresiduum, lat.kinf, lat.bottom
    divisor_rows = _value_rows(d2)
    rows = {}
    for r, a1 in d1.rows.items():
        rv = r._values
        for tv, a2 in divisor_rows:
            body = kinf([kresiduum(b, score(merge_rs(rv + sv), bottom))
                         for sv, b in by_t.get(tv, ())])
            rows[_make_tuple(out.names, out.merge(rv + tv))] = kotimes(kotimes(a1, a2), body)
    return _table(r_scheme | t_scheme, lat, rows)


def _gddo_parts(s1: Scheme, s2: Scheme, s3: Scheme, s4: Scheme):
    s12 = s1 | s2
    outer4 = s4 - s12          # quantified fragment of the second mediator
    inner4 = s4 & s12          # pinned by the result tuple
    hit3 = s3 & (s1 | s4)      # part of the first mediator a result row reaches
    return s12, outer4, inner4, hit3


def div_gddo(
    d1: RankedDataTable,
    d2: RankedDataTable,
    d3: RankedDataTable,
    d4: RankedDataTable,
    variant: str = "joinable",
) -> RankedDataTable:
    """Graded Darwen Divide on arbitrary relation schemes.

    result(r₁r₂) = (d1⋈d2)(r₁r₂) ⊗ ⋀ (d4 row → reachable d3 score).  Three
    equivalent formulations are implemented and kept separate on purpose:

    - "joinable": infimum over full d4 rows joinable with the result tuple,
      supremum over full d3 rows joinable with r₁ extended by the d4 row;
    - "nocond": joinability eliminated by splitting every d4 row into the
      fragment pinned by the result tuple and the quantified remainder, the
      supremum enumerated inline;
    - "nocond_alt": same split, the supremum replaced by a lookup in the
      precomputed projection of d3 onto the reachable attributes.

    The theorem suite checks the three agree on random schemes.
    """
    lat = _same_lattice(d1, d2, d3, d4)
    u = natural_join(d1, d2)
    s1 = d1.scheme
    s12, outer4, inner4, hit3 = _gddo_parts(s1, d2.scheme, d3.scheme, d4.scheme)

    kotimes, kresiduum, kjoin, kinf = lat.kotimes, lat.kresiduum, lat.kjoin, lat.kinf
    bottom = lat.bottom
    u_names, d3_names, d4_names = attrs_of(u.scheme), attrs_of(d3.scheme), attrs_of(d4.scheme)
    s1_names = attrs_of(s1)
    to_r1 = _project_plan(u_names, s1_names)

    if variant == "joinable":
        with4 = _join_plan(u_names, d4_names)
        r14 = _join_plan(s1_names, d4_names)
        with3 = _join_plan(r14.names, d3_names)
        d4_rows = [(with4.right_key(v), v, b) for v, b in _value_rows(d4)]
        d3_rows = [(with3.right_key(v), c) for v, c in _value_rows(d3)]

        def body(r12v):
            k12, r1v = with4.left_key(r12v), to_r1(r12v)
            terms = []
            for k4, v4, b in d4_rows:
                if k4 != k12:
                    continue
                k14 = with3.left_key(r14.merge(r1v + v4))
                reach = bottom
                for k3, c in d3_rows:
                    if k3 == k14:
                        reach = kjoin(reach, c)
                terms.append(kresiduum(b, reach))
            return kinf(terms)

    elif variant in ("nocond", "nocond_alt"):
        inner_names, outer_names, hit_names = attrs_of(inner4), attrs_of(outer4), attrs_of(hit3)
        to_inner, to_outer = _project_plan(d4_names, inner_names), _project_plan(d4_names, outer_names)
        frag_index: dict = {}
        for v4, b in _value_rows(d4):
            frag_index.setdefault(to_inner(v4), []).append((to_outer(v4), b))
        u_to_inner = _project_plan(u_names, inner_names)
        pinned_plan = _join_plan(s1_names, inner_names)
        frag_plan = _join_plan(pinned_plan.names, outer_names)
        to_hit = _project_plan(frag_plan.names, hit_names)
        if variant == "nocond_alt":
            reach_of = _values_index(projection(d3, hit3)).get
        else:
            d3_to_hit = _project_plan(d3_names, hit_names)
            d3_rows = [(d3_to_hit(v), c) for v, c in _value_rows(d3)]

            def reach_of(probe, reach):
                for k3, c in d3_rows:
                    if k3 == probe:
                        reach = kjoin(reach, c)
                return reach

        def body(r12v):
            r1v, pinned = to_r1(r12v), u_to_inner(r12v)
            r1_pinned = pinned_plan.merge(r1v + pinned)
            terms = []
            for frag, b in frag_index.get(pinned, ()):
                probe = to_hit(frag_plan.merge(r1_pinned + frag))
                terms.append(kresiduum(b, reach_of(probe, bottom)))
            return kinf(terms)

    else:
        raise ValueError(f"unknown gddo variant {variant!r}")

    rows = {r12: kotimes(a, body(r12._values)) for r12, a in u.rows.items()}
    return _table(s12, lat, rows)


def semidifference(d1: RankedDataTable, d2: RankedDataTable) -> RankedDataTable:
    """D1 ⋉̄ D2 = D1 ∖ (D1 ⋉ D2): rows of D1 with no joinable partner in D2."""
    _require_boolean(d1, "semidifference")
    _same_lattice(d1, d2)
    return difference_graded(d1, semijoin(d1, d2))


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
