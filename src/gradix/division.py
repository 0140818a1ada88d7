"""Division operations over ranked data tables.

Every graded division has one shape, a universally quantified residuum:
result(r) = combine(w(r), ⋀_s (D(s) → D'(rs))).  A division names only
the parts of that shape as three tables: its outer rows r with weights w
(a range, a dividend, a universe or a join), its divisor D and its
consequent D', with `combine`, where w meets the infimum.
`_residuum_infimum` derives the rest from the three schemes: the divisor is
grouped by the attributes it shares with r (one group when there are
none), and each probe rs is laid out from r's and s's values.  It
evaluates that shape for all of them in the manner of Graefe's
hash-division: D' is indexed by value tuples and probed once per divisor
row of the outer row's group, and, as hash-division drops a quotient
candidate at its first missing divisor tuple, an outer row is dropped at
its first term equal to bottom.  That is exact: bottom absorbs ∧, and
w ⊗ ⊥ = ⊥ in every residuated lattice by adjointness, so the row would
score bottom and not be stored.  On Boolean, Gödel and Goguen degrees
b → ⊥ = ⊥ for every b > ⊥, so there a row ends at its first missing
probe; on Łukasiewicz and finite chains b → ⊥ is bottom only at b = 1.

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
from .lattice import BooleanLattice, RowLoop
from .table import (
    RankedDataTable,
    Scheme,
    _project_plan,
    _same_lattice,
    _table,
    attrs_of,
    difference_graded,
    natural_join,
    projection,
    semijoin,
)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SchemeError(message)


def _require_non_ranked(universe: RankedDataTable, op: str) -> None:
    if not universe.is_non_ranked():
        raise SchemeError(f"{op} needs a non-ranked universe table")


def _require_boolean(table: RankedDataTable, op: str) -> None:
    if not isinstance(table.lattice, BooleanLattice):
        raise UnsupportedLatticeError(f"{op} is a two-valued operation")


# -- `combine`: how an outer row's weight meets the infimum of its residua ----


def _infimum_rows(name: str, start: str, term: str, result: str) -> RowLoop:
    """The outer-row loop of `_residuum_infimum` for one `combine`.

    Each outer row v with weight w folds its terms t into `inf` by ∧,
    starting from `start`; `term` sets t from the row's residuum x, and
    `result` is the row's degree.  A term x equal to bottom ends the row,
    which is then not stored.
    """
    return RowLoop(name, ("outer", "group", "to_key", "to_prefix", "score", "probe",
                          "top", "bottom"), f"""
        rows = {{}}
        for v, w in outer.items():
            head = to_prefix(v)
            inf = {start}
            for sv, b, miss in group(to_key(v), ()):
                a = score(probe(head + sv))
                if a is None:
                    x = miss
                else:
                    x = RESIDUUM(b, a)
                if x == bottom:
                    break
                {term}
                inf = MEET(inf, t)
            else:
                rows[v] = {result}
        return rows
    """)


#: ⋀({w} ∪ {w ⊗ x}): ⊗ stays inside the infimum, because it need not
#: distribute over ∧.  Starting the fold at w is starting it at 1 ∧ w.
_inside_inf = _infimum_rows("inside_inf", "w", "t = OTIMES(w, x)", "inf")
#: w ⊗ ⋀ residua: the weight is a ⊗ factor outside the infimum.
_times_inf = _infimum_rows("times_inf", "top", "t = x", "OTIMES(w, inf)")


#: the most scheme triples whose layout `_residuum_infimum` remembers
_LAYOUT_BOUND = 256
#: layouts by (outer, divisor, consequent) scheme, oldest first
_LAYOUTS: dict[tuple, tuple] = {}


def _residuum_infimum(outer: RankedDataTable, divisor: RankedDataTable,
                      consequent: RankedDataTable, combine) -> RankedDataTable:
    """The residuum infimum shared by every graded division: the table on
    `outer`'s scheme with result(r) = combine(w(r), ⋀_s (D(s) → D'(rs))).

    The three tables give the rows r and their weights w (`outer`), the
    divisor D and the consequent D'.  The consequent's scheme must lie
    within `outer.scheme ∪ divisor.scheme`.  The row layout follows from the
    schemes: the divisor rows of r are the group whose values on
    outer ∩ divisor equal r's, each row s quantified over its values on
    the rest, divisor − outer, and rs is probed in `consequent` on r's
    values on consequent ∩ outer followed by s's rest.  The five pickers
    of that layout are remembered per (outer, divisor, consequent) scheme
    triple, for at most `_LAYOUT_BOUND` triples, the oldest dropped first;
    the theorem suites meet several hundred triples and find about 94% of
    their calls' layouts remembered.

    The rows of the divisor are grouped in one pass that keeps each row as a
    triple (rest values, degree b, b → ⊥).  A probe that misses takes the
    stored b → ⊥, with no residuum computed.  A missing group is empty:
    every term of the infimum is then the tail 0 → · = 1.  `combine` is
    the row kernel that loops over the outer rows, one of `_inside_inf` and
    `_times_inf`; it folds each row's terms into the infimum as it goes.

    The loop over a group stops at the first term equal to bottom and the
    outer row is dropped, as `_table` would drop it.  Only a miss can give
    that term, since b → a ≥ a > ⊥ for a stored probe a.  Bottom absorbs
    ∧, and w ⊗ ⊥ = ⊥ by adjointness (w ⊗ ⊥ ≤ ⊥ iff w ≤ ⊥ → ⊥ = 1), which
    `FiniteTableLattice` validates and the built-in lattices satisfy.  So
    every combine gives bottom once a term is bottom, and the stored rows
    and their order are the same as without the cut-off.
    """
    lat = outer.lattice
    kresiduum, bottom = lat.kresiduum, lat.bottom
    schemes = (outer.scheme, divisor.scheme, consequent.scheme)
    layout = _LAYOUTS.get(schemes)
    if layout is None:
        outer_names, divisor_names = attrs_of(outer.scheme), attrs_of(divisor.scheme)
        key = attrs_of(outer.scheme & divisor.scheme)
        rest = attrs_of(divisor.scheme - outer.scheme)
        prefix = attrs_of(consequent.scheme & outer.scheme)
        layout = (_project_plan(outer_names, key), _project_plan(outer_names, prefix),
                  _project_plan(divisor_names, key), _project_plan(divisor_names, rest),
                  _project_plan(prefix + rest, attrs_of(consequent.scheme)))
        if len(_LAYOUTS) >= _LAYOUT_BOUND:
            _LAYOUTS.pop(next(iter(_LAYOUTS)), None)
        _LAYOUTS[schemes] = layout
    to_key, to_prefix, divisor_key, divisor_rest, probe = layout
    groups: dict = {}
    for u, b in divisor._rows.items():
        groups.setdefault(divisor_key(u), []).append((divisor_rest(u), b, kresiduum(b, bottom)))
    rows = combine[lat._kernel_class](lat, outer._rows, groups.get, to_key, to_prefix,
                                      consequent._rows.get, probe, lat.top, bottom)
    return _table(outer.scheme, lat, rows)


# -- scheme contracts: the one check of each division's operand schemes,
# shared by its operator below and by static scheme inference ---------------


def ranged_scheme(dividend: Scheme, divisor: Scheme, rng: Scheme) -> Scheme:
    """R, for a dividend on R∪S, a divisor on S and a range on R, R∩S = ∅."""
    _require(not (divisor & rng), "divisor and range schemes must be disjoint")
    _require(dividend == rng | divisor,
             "dividend must live on the union of range and divisor schemes")
    return rng


def gsdo_scheme(r: Scheme, s: Scheme, mediator: Scheme) -> Scheme:
    """R, for a dividend on R, a divisor on S and a mediator on R∪S, R∩S = ∅."""
    _require(not (r & s), "dividend and divisor schemes must be disjoint")
    _require(mediator == r | s,
             "mediator must live on the union of dividend and divisor schemes")
    return r


def ggdo_scheme(r: Scheme, t: Scheme, m1: Scheme, m2: Scheme) -> Scheme:
    """R∪T, for a dividend on R, a divisor on T and mediators on R∪S and
    S∪T, R, S and T pairwise disjoint."""
    s = m1 - r  # so R∩S = ∅
    _require(not ((r | s) & t), "Great Divide schemes R, S, T must be pairwise disjoint")
    _require(m1 == r | s, "first mediator must be on R∪S")
    _require(m2 == s | t, "second mediator must be on S∪T")
    return r | t


def gcodd_scheme(dividend: Scheme, divisor: Scheme, universe: Scheme) -> Scheme:
    """R, for a dividend on R∪S, a divisor on S and a universe on R, R∩S = ∅."""
    _require(not (divisor & universe), "divisor and universe schemes must be disjoint")
    _require(dividend == universe | divisor,
             "dividend must live on the union of universe and divisor schemes")
    return universe


def gtodd_scheme(d1: Scheme, d2: Scheme, universe: Scheme) -> Scheme:
    """R∪T, for d1 on R∪S and d2 on S∪T, S their shared part, and a
    universe on R∪T."""
    _require(universe == d1 ^ d2,  # S = d1 ∩ d2, so R∪T = d1 △ d2
             "universe must live on the union of the non-shared scheme parts")
    return universe


def gsd_scheme(s1: Scheme, s2: Scheme, s3: Scheme) -> Scheme:
    """R∪T, for general Small Divide schemes d1:R∪T, d2:S∪U, d3:R∪S∪V.

    R/S/T/U/V must be pairwise disjoint, which forces s1 ∩ s2 = ∅; any
    overlap makes the decomposition impossible and is a scheme error.
    """
    if s1 & s2:
        raise SchemeError(
            "general Small Divide needs disjoint dividend/divisor schemes; "
            f"shared attributes {sorted(s1 & s2)} make the role split ambiguous"
        )
    return s1


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
    _same_lattice(dividend, divisor, rng)
    ranged_scheme(dividend.scheme, divisor.scheme, rng.scheme)
    return _residuum_infimum(rng, divisor, dividend, _inside_inf)


def div_gsdo(
    d1: RankedDataTable, d2: RankedDataTable, d3: RankedDataTable
) -> RankedDataTable:
    """Graded Small Divide, original scheme shapes.

    d1 on R (dividend), d2 on S (divisor), d3 on R∪S (mediator);
    result(r) = d1(r) ⊗ ⋀_s (d2(s) → d3(rs)), tail 1 off support.
    """
    _same_lattice(d1, d2, d3)
    gsdo_scheme(d1.scheme, d2.scheme, d3.scheme)
    return _residuum_infimum(d1, d2, d3, _times_inf)


def div_gsd(
    d1: RankedDataTable, d2: RankedDataTable, d3: RankedDataTable
) -> RankedDataTable:
    """Graded Small Divide on general schemes.

    result(rt) = d1(rt) ⊗ ⋀_s (π_S(d2)(s) → π_{R∪S}(d3)(rs)); with the
    extra scheme parts empty it coincides with div_gsdo.
    """
    _same_lattice(d1, d2, d3)
    gsd_scheme(d1.scheme, d2.scheme, d3.scheme)
    r, s = d1.scheme & d3.scheme, d2.scheme & d3.scheme
    return _residuum_infimum(d1, projection(d2, s), projection(d3, r | s), _times_inf)


def div_gcodd(
    d1: RankedDataTable, d2: RankedDataTable, universe: RankedDataTable
) -> RankedDataTable:
    """Truth-functional Codd-style division, domain-dependent.

    result(r) = ⋀_s (d2(s) → d1(rs)) for r in the universe's support and 0
    elsewhere.  Without the explicit finite universe the true result may be
    infinite (every r with a vacuously true body would score 1), which is
    why the universe argument is mandatory and must be non-ranked.
    """
    _same_lattice(d1, d2, universe)
    _require_non_ranked(universe, "div_gcodd")
    gcodd_scheme(d1.scheme, d2.scheme, universe.scheme)
    return _residuum_infimum(universe, d2, d1, _times_inf)


def div_gtodd(
    d1: RankedDataTable, d2: RankedDataTable, universe: RankedDataTable
) -> RankedDataTable:
    """Graded Todd division (superproduct composition), domain-dependent.

    d1 on R∪S, d2 on S∪T; result(rt) = ⋀_s (d2(st) → d1(rs)) restricted to
    the non-ranked universe on R∪T.  Only s fragments from d2 rows matching
    t can have nonzero antecedent; the rest give tail 1.
    """
    _same_lattice(d1, d2, universe)
    _require_non_ranked(universe, "div_gtodd")
    gtodd_scheme(d1.scheme, d2.scheme, universe.scheme)
    return _residuum_infimum(universe, d2, d1, _times_inf)


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
    _same_lattice(d1, d2, d3, d4)
    ggdo_scheme(d1.scheme, d2.scheme, d3.scheme, d4.scheme)
    return _residuum_infimum(natural_join(d1, d2), d4, d3, _times_inf)


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
    projection of d3 onto the attributes a probe reaches, all within
    d1 ∪ d4.  The harness checks this against two other formulations,
    `gddo_joinable` and `gddo_nocond` of `gradix.harness.oracle`.
    """
    _same_lattice(d1, d2, d3, d4)
    reached = d3.scheme & (d1.scheme | d4.scheme)
    return _residuum_infimum(natural_join(d1, d2), d4, projection(d3, reached), _times_inf)


def semidifference(d1: RankedDataTable, d2: RankedDataTable) -> RankedDataTable:
    """D1 ⋉̄ D2 = D1 ∖ (D1 ⋉ D2): rows of D1 with no joinable partner in D2."""
    _require_boolean(d1, "semidifference")
    return difference_graded(d1, semijoin(d1, d2))
