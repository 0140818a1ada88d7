"""Division operations over ranked data tables.

Every graded division has one shape, a universally quantified residuum:
result(r) = combine(w(r), ⋀_s (D(s) → D'(rs))).  The forms differ only in
their outer rows r and weights w (a range, a dividend, a universe or a
join), in how the divisor is grouped (one group, or one group per value of
the attributes r pins), and in one ⊗ factor.  `_residuum_infimum`
evaluates that shape for all of them in the manner of Graefe's
hash-division: D' is indexed by value tuples and probed once per divisor
row of the outer row's group.

The infimum formally runs over the (conceptually unbounded) tuple universe
of the divisor scheme.  Tuples outside the divisor's support contribute
0 → · = 1, so the infimum runs over stored rows plus that constant tail;
the reductions are unit-tested against the enumeration oracles of
`gradix.harness.oracle`.  Other formulations (the joinability-conditioned
Darwen Divide and the classic two-valued compositions of ⋈, ∖ and
semidifference) live in the harness, where they cross-check this module.
"""

from __future__ import annotations

from .errors import SchemeError, UnsupportedLatticeError
from .lattice import BooleanLattice
from .table import (
    RankedDataTable,
    Scheme,
    _join_plan,
    _project_plan,
    _same_lattice,
    _sup_index,
    _table,
    _values_index,
    attrs_of,
    difference_graded,
    natural_join,
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


def _pickers(d: RankedDataTable, *schemes: Scheme) -> list:
    """Functions from the value tuples of `d`'s rows to their values on
    each of `schemes`."""
    names = attrs_of(d.scheme)
    return [_project_plan(names, attrs_of(s)) for s in schemes]


def _value_rows(d: RankedDataTable) -> list:
    """(value tuple, degree) pairs of the stored rows."""
    return [(t._values, b) for t, b in d.rows.items()]


def _grouped(d: RankedDataTable, key: Scheme, rest: Scheme) -> dict:
    """The rows of `d` as {values on `key`: [(values on `rest`, degree)]}."""
    to_key, to_rest = _pickers(d, key, rest)
    groups: dict = {}
    for t, b in d.rows.items():
        v = t._values
        groups.setdefault(to_key(v), []).append((to_rest(v), b))
    return groups


def _merger(left: Scheme, right: Scheme):
    """Values on `left` plus values on the disjoint `right` → values on the
    union, in sorted-attribute order."""
    return _join_plan(attrs_of(left), attrs_of(right)).merge


def _one_group(values) -> tuple:
    """`to_key` of a divisor that is one group, keyed ()."""
    return ()


def _itself(values) -> tuple:
    return values


# -- `combine`: how an outer row's weight meets the infimum of its residua ----


def _inside_inf(lat, g, residua):
    """⋀({g} ∪ {g ⊗ x}): ⊗ stays inside the infimum, because it need not
    distribute over ∧."""
    kotimes = lat.kotimes
    return lat.kinf([g] + [kotimes(g, x) for x in residua])


def _times_inf(lat, w, residua):
    """w ⊗ ⋀ residua: the weight is a ⊗ factor outside the infimum."""
    return lat.kotimes(w, lat.kinf(residua))


def _bare_inf(lat, _top, residua):
    """⋀ residua, for outer rows from a non-ranked universe: no `top ⊗`,
    which is not exact on every float lattice."""
    return lat.kinf(residua)


def _residuum_infimum(outer: RankedDataTable, groups: dict, to_key, to_prefix, assemble,
                      score, combine) -> dict:
    """The residuum infimum shared by every graded division.

    For each row t of `outer` with weight w and values v, the divisor group
    `groups[to_key(v)]` holds (values sv, degree b) pairs, and the result
    row is combine(lattice, w, [b → score(assemble(to_prefix(v) + sv)) for
    each pair]); `score` is a dict lookup giving bottom for an absent probe.
    A missing group is empty: every term of the infimum is then the tail
    0 → · = 1.
    """
    lat = outer.lattice
    kresiduum, bottom = lat.kresiduum, lat.bottom
    rows = {}
    for t, w in outer.rows.items():
        v = t._values
        head = to_prefix(v)
        rows[t] = combine(lat, w, [kresiduum(b, score(assemble(head + sv), bottom))
                                   for sv, b in groups.get(to_key(v), ())])
    return rows


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
    rows = _residuum_infimum(
        rng, {(): _value_rows(divisor)}, _one_group, _itself,
        _merger(r_scheme, s_scheme), _values_index(dividend).get, _inside_inf,
    )
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
    rows = _residuum_infimum(
        d1, {(): _value_rows(d2)}, _one_group, _itself,
        _merger(r_scheme, s_scheme), _values_index(d3).get, _times_inf,
    )
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
    divisor = list(_sup_index(d2, attrs_of(s_scheme)).items())
    rows = _residuum_infimum(
        d1, {(): divisor}, _one_group, *_pickers(d1, r_scheme), _merger(r_scheme, s_scheme),
        _sup_index(d3, attrs_of(r_scheme | s_scheme)).get, _times_inf,
    )
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
    rows = _residuum_infimum(
        universe, {(): _value_rows(d2)}, _one_group, _itself,
        _merger(r_scheme, s_scheme), _values_index(d1).get, _bare_inf,
    )
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
    rows = _residuum_infimum(
        universe, _grouped(d2, t_scheme, s_scheme), *_pickers(universe, t_scheme, r_scheme),
        _merger(r_scheme, s_scheme), _values_index(d1).get, _bare_inf,
    )
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
    u = natural_join(d1, d2)
    rows = _residuum_infimum(
        u, _grouped(d4, t_scheme, s_scheme), *_pickers(u, t_scheme, r_scheme),
        _merger(r_scheme, s_scheme), _values_index(d3).get, _times_inf,
    )
    return _table(u.scheme, lat, rows)


def div_gddo(
    d1: RankedDataTable,
    d2: RankedDataTable,
    d3: RankedDataTable,
    d4: RankedDataTable,
) -> RankedDataTable:
    """Graded Darwen Divide on arbitrary relation schemes.

    result(r₁r₂) = (d1⋈d2)(r₁r₂) ⊗ ⋀ (d4 row → reachable d3 score), the
    infimum over the d4 rows joinable with the result tuple and the
    reachable score the supremum over the d3 rows joinable with r₁ extended
    by the d4 row.  Each d4 row splits into the fragment the result tuple
    pins and the quantified remainder, so the rows joinable with r₁r₂ are
    one group keyed by the pinned fragment; the supremum is a lookup in the
    projection of d3 onto the attributes a probe reaches.  The harness
    checks this against two other formulations, `gddo_joinable` and
    `gddo_nocond` of `gradix.harness.oracle`.
    """
    lat = _same_lattice(d1, d2, d3, d4)
    u = natural_join(d1, d2)
    pinned, quantified = d4.scheme & u.scheme, d4.scheme - u.scheme
    prefix = d1.scheme | pinned
    reached = d3.scheme & (d1.scheme | d4.scheme)
    rows = _residuum_infimum(
        u, _grouped(d4, pinned, quantified), *_pickers(u, pinned, prefix),
        # prefix + fragment spans d1 ∪ d4, which holds every reached attribute
        _project_plan(attrs_of(prefix) + attrs_of(quantified), attrs_of(reached)),
        _sup_index(d3, attrs_of(reached)).get, _times_inf,
    )
    return _table(u.scheme, lat, rows)


def semidifference(d1: RankedDataTable, d2: RankedDataTable) -> RankedDataTable:
    """D1 ⋉̄ D2 = D1 ∖ (D1 ⋉ D2): rows of D1 with no joinable partner in D2."""
    _require_boolean(d1, "semidifference")
    _same_lattice(d1, d2)
    return difference_graded(d1, semijoin(d1, d2))
