"""Independent brute-force oracles.

Three families live here and deliberately share no evaluation code with the
engine (only the lattice operations and the Tuple/scheme value types are
imported):

- classic set-notation operations and divisions over plain frozensets of
  tuples, used to check the two-valued collapse of every graded operation;
- naive graded division oracles that evaluate the defining aggregations by
  enumerating an explicit finite universe per attribute.  Callers include
  one value per attribute that occurs in no operand; such a value stands in
  for the whole unbounded remainder of the tuple universe, because every
  table lookup at it is 0 and each defining term is then constant;
- the alternative formulations of the graded Darwen Divide, which the
  engine evaluates in a third way (`T-gddo-variants` compares all three).

The classic compositions of engine operators are not independent of the
engine, so they live in `gradix.harness.composed`.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping

from ..lattice import ResiduatedLattice
from ..table import Scheme, Tuple

Rows = Mapping[Tuple, object]
TupleSet = frozenset


# -- classic set-based relational operations ---------------------------------


def set_union(a: TupleSet, b: TupleSet) -> TupleSet:
    return a | b


def set_intersection(a: TupleSet, b: TupleSet) -> TupleSet:
    return a & b


def set_difference(a: TupleSet, b: TupleSet) -> TupleSet:
    return a - b


def set_natural_join(a: TupleSet, b: TupleSet) -> TupleSet:
    return frozenset(t1.join(t2) for t1 in a for t2 in b if t1.joinable(t2))


def set_projection(a: TupleSet, scheme: Scheme) -> TupleSet:
    return frozenset(t.project(scheme) for t in a)


def set_semijoin(a: TupleSet, b: TupleSet) -> TupleSet:
    return frozenset(t1 for t1 in a if any(t1.joinable(t2) for t2 in b))


def set_semidiff_char(a: TupleSet, b: TupleSet) -> TupleSet:
    """Rows of the first relation with no joinable partner in the second."""
    return frozenset(t1 for t1 in a if not any(t1.joinable(t2) for t2 in b))


# -- classic set-notation divisions ------------------------------------------


def set_with_range(d1: TupleSet, d2: TupleSet, r_scheme: Scheme) -> TupleSet:
    """Codd division read with its implicit range: rows of the dividend's
    projection whose every divisor extension lies in the dividend."""
    return frozenset(
        r for r in set_projection(d1, r_scheme) if all(r.join(s) in d1 for s in d2)
    )


def set_small_original(d1: TupleSet, d2: TupleSet, d3: TupleSet) -> TupleSet:
    return frozenset(r for r in d1 if all(r.join(s) in d3 for s in d2))


def set_small_general(
    d1: TupleSet, d2: TupleSet, d3: TupleSet, r_scheme: Scheme, s_scheme: Scheme
) -> TupleSet:
    p2 = set_projection(d2, s_scheme)
    p3 = set_projection(d3, r_scheme | s_scheme)
    return frozenset(
        rt for rt in d1
        if all(rt.project(r_scheme).join(s) in p3 for s in p2)
    )


def set_todd(
    d1: TupleSet, d2: TupleSet,
    r_scheme: Scheme, s_scheme: Scheme, t_scheme: Scheme,
) -> TupleSet:
    universe = set_natural_join(
        set_projection(d1, r_scheme), set_projection(d2, t_scheme)
    )
    out = set()
    for rt in universe:
        r, t = rt.project(r_scheme), rt.project(t_scheme)
        rows_at_t = [row for row in d2 if row.project(t_scheme) == t]
        if all(r.join(row.project(s_scheme)) in d1 for row in rows_at_t):
            out.add(rt)
    return frozenset(out)


def set_great(
    d1: TupleSet, d2: TupleSet, d3: TupleSet, d4: TupleSet,
    r_scheme: Scheme, s_scheme: Scheme, t_scheme: Scheme,
) -> TupleSet:
    universe = set_natural_join(d1, d2)
    out = set()
    for rt in universe:
        r, t = rt.project(r_scheme), rt.project(t_scheme)
        rows_at_t = [row for row in d4 if row.project(t_scheme) == t]
        if all(r.join(row.project(s_scheme)) in d3 for row in rows_at_t):
            out.add(rt)
    return frozenset(out)


def set_darwen(
    d1: TupleSet, d2: TupleSet, d3: TupleSet, d4: TupleSet, s1: Scheme
) -> TupleSet:
    """For every joinable second-mediator row there must be a reachable
    first-mediator row (joinable with the dividend part extended by it)."""
    universe = set_natural_join(d1, d2)
    out = set()
    for u in universe:
        r1 = u.project(s1)
        ok = True
        for r4 in d4:
            if not u.joinable(r4):
                continue
            r14 = r1.join(r4)
            if not any(r14.joinable(r3) for r3 in d3):
                ok = False
                break
        if ok:
            out.add(u)
    return frozenset(out)


# -- naive graded division oracles -------------------------------------------


def tuples_over(scheme: Scheme, universe: Mapping[str, Iterable]) -> list[Tuple]:
    """Every tuple on the scheme with values drawn from the universe lists."""
    attrs = sorted(scheme)
    if not attrs:
        return [Tuple()]
    return [
        Tuple(zip(attrs, combo))
        for combo in itertools.product(*(list(universe[a]) for a in attrs))
    ]


def _get(rows: Rows, t: Tuple, lat: ResiduatedLattice):
    return rows.get(t, lat.bottom)


def naive_div_ranged(
    lat: ResiduatedLattice, r_scheme: Scheme, s_scheme: Scheme,
    d1: Rows, d2: Rows, d3: Rows, universe,
) -> dict:
    out = {}
    for r in tuples_over(r_scheme, universe):
        score = lat.inf(
            lat.otimes(_get(d3, r, lat),
                       lat.residuum(_get(d2, s, lat), _get(d1, r.join(s), lat)))
            for s in tuples_over(s_scheme, universe)
        )
        if not lat.is_bottom(score):
            out[r] = score
    return out


def naive_div_gsdo(
    lat: ResiduatedLattice, r_scheme: Scheme, s_scheme: Scheme,
    d1: Rows, d2: Rows, d3: Rows, universe,
) -> dict:
    out = {}
    for r in tuples_over(r_scheme, universe):
        body = lat.inf(
            lat.residuum(_get(d2, s, lat), _get(d3, r.join(s), lat))
            for s in tuples_over(s_scheme, universe)
        )
        score = lat.otimes(_get(d1, r, lat), body)
        if not lat.is_bottom(score):
            out[r] = score
    return out


def _proj_score(lat: ResiduatedLattice, rows: Rows, scheme: Scheme, target: Tuple):
    return lat.sup(v for t, v in rows.items() if t.project(scheme) == target)


def naive_div_gsd(
    lat: ResiduatedLattice, r_scheme: Scheme, s_scheme: Scheme, d1_scheme: Scheme,
    d1: Rows, d2: Rows, d3: Rows, universe,
) -> dict:
    out = {}
    for rt in tuples_over(d1_scheme, universe):
        r = rt.project(r_scheme)
        body = lat.inf(
            lat.residuum(
                _proj_score(lat, d2, s_scheme, s),
                _proj_score(lat, d3, r_scheme | s_scheme, r.join(s)),
            )
            for s in tuples_over(s_scheme, universe)
        )
        score = lat.otimes(_get(d1, rt, lat), body)
        if not lat.is_bottom(score):
            out[rt] = score
    return out


def naive_div_gcodd(
    lat: ResiduatedLattice, s_scheme: Scheme,
    d1: Rows, d2: Rows, universe_rows: Iterable[Tuple], universe,
) -> dict:
    out = {}
    for r in universe_rows:
        score = lat.inf(
            lat.residuum(_get(d2, s, lat), _get(d1, r.join(s), lat))
            for s in tuples_over(s_scheme, universe)
        )
        if not lat.is_bottom(score):
            out[r] = score
    return out


def naive_div_gtodd(
    lat: ResiduatedLattice, r_scheme: Scheme, s_scheme: Scheme, t_scheme: Scheme,
    d1: Rows, d2: Rows, universe_rows: Iterable[Tuple], universe,
) -> dict:
    out = {}
    for rt in universe_rows:
        r, t = rt.project(r_scheme), rt.project(t_scheme)
        score = lat.inf(
            lat.residuum(_get(d2, s.join(t), lat), _get(d1, r.join(s), lat))
            for s in tuples_over(s_scheme, universe)
        )
        if not lat.is_bottom(score):
            out[rt] = score
    return out


def naive_div_ggdo(
    lat: ResiduatedLattice, r_scheme: Scheme, s_scheme: Scheme, t_scheme: Scheme,
    d1: Rows, d2: Rows, d3: Rows, d4: Rows, universe,
) -> dict:
    out = {}
    for rt in tuples_over(r_scheme | t_scheme, universe):
        r, t = rt.project(r_scheme), rt.project(t_scheme)
        body = lat.inf(
            lat.residuum(_get(d4, s.join(t), lat), _get(d3, r.join(s), lat))
            for s in tuples_over(s_scheme, universe)
        )
        score = lat.otimes(lat.otimes(_get(d1, r, lat), _get(d2, t, lat)), body)
        if not lat.is_bottom(score):
            out[rt] = score
    return out


def naive_div_gddo(
    lat: ResiduatedLattice,
    s1: Scheme, s2: Scheme, s3: Scheme, s4: Scheme,
    d1: Rows, d2: Rows, d3: Rows, d4: Rows, universe,
) -> dict:
    """The joinability-conditioned formulation, fully enumerated: the
    infimum runs over every universe tuple on the second mediator's scheme
    that is joinable with the candidate result tuple."""
    out = {}
    for r12 in tuples_over(s1 | s2, universe):
        r1 = r12.project(s1)
        base = lat.otimes(_get(d1, r1, lat), _get(d2, r12.project(s2), lat))
        terms = []
        for r4 in tuples_over(s4, universe):
            if not r12.joinable(r4):
                continue
            r14 = r1.join(r4)
            reach = lat.sup(v for r3, v in d3.items() if r14.joinable(r3))
            terms.append(lat.residuum(_get(d4, r4, lat), reach))
        score = lat.otimes(base, lat.inf(terms))
        if not lat.is_bottom(score):
            out[r12] = score
    return out


# -- alternative graded Darwen Divide formulations ------------------------------


def gddo_joinable(
    lat: ResiduatedLattice, d1: Rows, d2: Rows, d3: Rows, d4: Rows
) -> dict:
    """The joinability-conditioned formulation over stored rows: the
    infimum runs over the second mediator's rows joinable with the result
    tuple, and each reachable score is the supremum over the first
    mediator's rows joinable with the dividend part extended by that row.
    Table degrees are carrier members, so the lattice kernels apply."""
    kjoin, kotimes, kresiduum, kinf = lat.kjoin, lat.kotimes, lat.kresiduum, lat.kinf
    out = {}
    for r1, a1 in d1.items():
        # a row joinable with r1 ⋈ r2 is joinable with r1, and a row is
        # joinable with r1 ⋈ r4 when it is joinable with r1 and with r4
        with_r1 = [(r3, c) for r3, c in d3.items() if r1.joinable(r3)]
        extensions = []
        for r4, b in d4.items():
            if r1.joinable(r4):
                reach = lat.bottom
                for r3, c in with_r1:
                    if r4.joinable(r3):
                        reach = kjoin(reach, c)
                extensions.append((r4, kresiduum(b, reach)))
        for r2, a2 in d2.items():
            if r1.joinable(r2):
                r12 = r1.join(r2)
                body = kinf([term for r4, term in extensions if r12.joinable(r4)])
                score = kotimes(kotimes(a1, a2), body)
                if not lat.is_bottom(score):
                    out[r12] = score
    return out


def gddo_nocond(
    lat: ResiduatedLattice,
    s1: Scheme, s2: Scheme, s3: Scheme, s4: Scheme,
    d1: Rows, d2: Rows, d3: Rows, d4: Rows,
) -> dict:
    """Joinability eliminated: every second-mediator row splits into the
    fragment pinned by the result tuple and the quantified remainder, and
    the reachable score is the supremum over the first mediator's rows that
    agree with the probe on the attributes it reaches.  Table degrees are
    carrier members, so the lattice kernels apply."""
    kjoin, kotimes, kresiduum, kinf = lat.kjoin, lat.kotimes, lat.kresiduum, lat.kinf
    s12 = s1 | s2
    pinned, quantified = s4 & s12, s4 - s12
    reached = s3 & (s1 | s4)
    fragments: dict = {}
    for r4, b in d4.items():
        fragments.setdefault(r4.project(pinned), []).append((r4.project(quantified), b))
    agreeing: dict = {}
    for r3, c in d3.items():
        agreeing.setdefault(r3.project(reached), []).append(c)
    out = {}
    for r1, a1 in d1.items():
        for r2, a2 in d2.items():
            if r1.joinable(r2):
                r12 = r1.join(r2)
                key = r12.project(pinned)
                r1_key = r1.join(key)
                terms = []
                for frag, b in fragments.get(key, ()):
                    reach = lat.bottom
                    for c in agreeing.get(r1_key.join(frag).project(reached), ()):
                        reach = kjoin(reach, c)
                    terms.append(kresiduum(b, reach))
                score = kotimes(kotimes(a1, a2), kinf(terms))
                if not lat.is_bottom(score):
                    out[r12] = score
    return out
