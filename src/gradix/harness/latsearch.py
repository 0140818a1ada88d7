"""Exhaustive enumeration of finite residuated lattices and the search for
a multiplication that fails to distribute over binary meets.

Bounded lattices on n elements are enumerated up to isomorphism of the
order (bottom and top fixed, middles permuted).  The strict orders on the
middles are walked as relation bitmasks in ascending order: the pair bits
are decided from the highest down, 0 before 1, and a branch ends as soon
as an antisymmetry or transitivity constraint whose bits are all decided
fails.  The first order of each isomorphism class marks every relabelling
of itself as seen, so each later member costs one set lookup, and the
meet/join tables are built once per class by the engine's own bound
computation (`lattice._bound_table`).

For each lattice, every commutative, monotone, unital multiplication with
residuation is found by backtracking over the middle-by-middle products.
A product lies between the join of the products already chosen below it
and the meet of a∧b with those above it; monotonicity among the chosen
products lets the plan of each depth keep only the maximal cells below and
the minimal cells above.  Residuation is tested equation by equation as
the products it names are chosen, and associativity on complete tables
(see `enumerate_multiplications`).

At carrier 6 the walk meets 219 labelled orders on the four middles, in
16 isomorphism classes, 15 of them lattices.  Up to carrier 6 the
backtracking places 3,022 products and completes 591 tables, of which
179 are associative and kept, 142 of them at carrier 6.  Carrier 7 adds
53 lattices, 18 of which carry a multiplication: up to it 59,000 products
are placed, 9,925 tables completed and 1,018 kept.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from ..errors import LatticeAxiomError
from ..lattice import FiniteTableLattice, _bound_table


def _pair_bits(m: int) -> dict:
    """The bit of each pair (i, j), i ≠ j, of m points: row-major, the first
    pair the highest bit, so counting up walks `itertools.product` order."""
    pairs = [(i, j) for i in range(m) for j in range(m) if i != j]
    return {pair: 1 << (len(pairs) - 1 - k) for k, pair in enumerate(pairs)}


def _middle_posets(m: int) -> Iterator[int]:
    """All strict partial orders on m labelled points, as relation masks in
    ascending order."""
    bit = _pair_bits(m)
    width = len(bit)
    # A constraint fails when the bits of `both` are set and `implied` is
    # not (antisymmetry has implied = 0).  It is tested once its lowest bit
    # is decided: on setting that bit if it is in `both`, on clearing it if
    # it is `implied`.
    if_set = [[] for _ in range(width)]
    if_clear = [[] for _ in range(width)]
    constraints = [(bit[i, j] | bit[j, i], 0) for i, j in bit if i < j]
    constraints += [(bit[i, j] | bit[j, k], bit[i, k])
                    for i, j, k in itertools.permutations(range(m), 3)]
    for both, implied in constraints:
        lowest = (both | implied) & -(both | implied)
        if lowest == implied:
            if_clear[lowest.bit_length() - 1].append(both)
        else:
            if_set[lowest.bit_length() - 1].append((both, implied))
    stack = [(0, width)]  # a partial mask and the number of bits left below it
    while stack:
        rel, left = stack.pop()
        if not left:
            yield rel
            continue
        p = left - 1
        one = rel | 1 << p
        for both, implied in if_set[p]:
            if one & both == both and not one & implied:
                break
        else:
            stack.append((one, p))
        for both in if_clear[p]:
            if rel & both == both:
                break
        else:
            stack.append((rel, p))  # popped first: 0 before 1


def _bound_tables(leq):
    """Meet/join tables, or None when some pair has no unique bound."""
    n = len(leq)
    up = [sum(1 << j for j in range(n) if leq[i][j]) for i in range(n)]
    down = [sum(1 << i for i in range(n) if leq[i][j]) for j in range(n)]
    try:
        return (_bound_table(down, range(n), "lattice-meet"),
                _bound_table(up, range(n), "lattice-join"))
    except LatticeAxiomError:
        return None


def enumerate_bounded_lattices(n: int) -> Iterator[tuple]:
    """Lattices on n elements (element 0 bottom, n-1 top) up to order
    isomorphism; yields (leq, meet, join) index tables.  n = 1 gives the
    one-element lattice, and n < 1 gives nothing."""
    if n < 1:
        return
    m = n - 2
    bit = _pair_bits(m)
    relabellings = [{bit[i, j]: bit[perm[i], perm[j]] for i, j in bit}
                    for perm in itertools.permutations(range(m))]
    seen = set()
    for rel in _middle_posets(m):
        if rel in seen:
            continue
        members = [b for b in bit.values() if rel & b]
        seen.update(sum(image[b] for b in members) for image in relabellings)
        leq = tuple(
            tuple(i == j or i == 0 or j == n - 1 or bool(rel & bit.get((i - 1, j - 1), 0))
                  for j in range(n))
            for i in range(n)
        )
        tables = _bound_tables(leq)
        if tables is not None:
            yield leq, *tables


def _outermost(cells, leq) -> list:
    """The cells that no other cell lies above in the product of `leq`,
    one of each mirrored pair (x, y), (y, x)."""
    out = []
    for x, y in cells:
        if (y, x) not in out and not any(
                (u, v) != (x, y) and leq[x][u] and leq[y][v] for u, v in cells):
            out.append((x, y))
    return out


def _associative(t, triples) -> bool:
    """Whether the complete table t is associative.

    t is commutative with 1 its unit and 0 absorbing, so the law holds on
    any triple holding 0 or 1.  It says that f(a, b, c) = (a⊗b)⊗c, already
    symmetric in a and b, is symmetric in all three; `triples` holds one
    (a, b, c), comparing f(a, b, c) with f(b, c, a), for each pair of
    values that must agree: two per three distinct middles and one per
    {a, a, c}."""
    for a, b, c in triples:
        if t[t[a][b]][c] != t[a][t[b][c]]:
            return False
    return True


def enumerate_multiplications(leq, meet, join, n: int) -> Iterator[tuple]:
    """All residuated multiplications on the lattice, as index tables.

    Every table the search builds is commutative, monotone, with 1 its
    unit and 0 absorbing.  Such a map on a finite lattice is residuated
    exactly when it preserves binary joins, a⊗(b∨c) = (a⊗b)∨(a⊗c), which
    can fail only for a middle a and incomparable b and c.  Each of these
    equations is tested at the depth that chooses the last of its three
    products, so a failing branch ends there; associativity is tested on
    complete tables."""
    top, bot = n - 1, 0
    t = [[None] * n for _ in range(n)]
    for x in range(n):
        t[x][top] = t[top][x] = x
        t[x][bot] = t[bot][x] = bot
    middles = range(1, n - 1)
    pairs = [(a, b) for a in middles for b in middles if a <= b]
    depth = {}
    for k, (a, b) in enumerate(pairs):
        depth[a, b] = depth[b, a] = k
    # Border cells never tighten a bound: those below a middle pair hold
    # bottom, and those above it hold a or b, which a∧b already covers.
    # A plan reads only cells chosen at lower depths, so backing up needs
    # no reset.
    geq = [[leq[j][i] for j in range(n)] for i in range(n)]
    plans, checks = [], [[] for _ in pairs]
    for k, (a, b) in enumerate(pairs):
        chosen = [cell for x, y in pairs[:k] for cell in ((x, y), (y, x))]
        plans.append((_outermost([(x, y) for x, y in chosen if leq[x][a] and leq[y][b]], leq),
                      _outermost([(x, y) for x, y in chosen if leq[a][x] and leq[b][y]], geq)))
    for b, c in itertools.combinations(middles, 2):
        if not leq[b][c] and not leq[c][b]:
            j = join[b][c]
            for a in middles:  # a border product is already fixed
                checks[max(depth.get((a, x), -1) for x in (b, c, j))].append((t[a], b, c, j))
    between = [[[v for v in range(n) if leq[lo][v] and leq[v][hi]] for hi in range(n)]
               for lo in range(n)]
    triples = list(itertools.combinations(middles, 3))
    triples += [(b, a, c) for a, b, c in itertools.combinations(middles, 3)]
    triples += [(a, a, c) for a in middles for c in middles if a != c]

    options = []  # per chosen depth, an iterator over its remaining values
    while True:
        k = len(options)
        if k == len(pairs):
            if _associative(t, triples):
                yield tuple(map(tuple, t))
        else:
            (a, b), (below, above) = pairs[k], plans[k]
            lo, hi = bot, meet[a][b]
            for x, y in below:
                lo = join[lo][t[x][y]]
            for x, y in above:
                hi = meet[hi][t[x][y]]
            options.append(iter(between[lo][hi]))
        # the next value that passes its depth's checks, backing up as
        # depths run out of values
        while options:
            k = len(options) - 1
            v = next(options[k], None)
            if v is None:
                options.pop()
                continue
            a, b = pairs[k]
            t[a][b] = t[b][a] = v
            for row, x, y, j in checks[k]:
                if row[j] != join[row[x]][row[y]]:
                    break
            else:
                break
        else:
            return


def enumerate_residuated_lattices(max_size: int) -> Iterator[tuple]:
    """Every residuated lattice with 2..max_size elements, as
    (size, leq, meet, join, otimes) index tables."""
    for n in range(2, max_size + 1):
        for leq, meet, join in enumerate_bounded_lattices(n):
            for otimes in enumerate_multiplications(leq, meet, join, n):
                yield n, leq, meet, join, otimes


def _labels(n: int) -> list[str]:
    if n == 1:
        return ["0"]
    return ["0"] + [f"x{i}" for i in range(1, n - 1)] + ["1"]


def as_table_lattice(n, leq, otimes) -> FiniteTableLattice:
    """Materialize an enumerated structure, re-running full validation.
    The one-element structure is the lattice on the single label "0"."""
    labels = _labels(n)
    order = [(labels[i], labels[j]) for i in range(n) for j in range(n) if leq[i][j]]
    triples = [(labels[i], labels[j], labels[otimes[i][j]]) for i in range(n) for j in range(n)]
    return FiniteTableLattice(labels, order, triples)


def find_meet_distributivity_gap(n, meet, otimes) -> Optional[tuple]:
    """First triple, in row-major order, with a⊗(b∧c) ≠ (a⊗b)∧(a⊗c), if
    any.  ⊗ is an enumerated multiplication: monotone, 0 absorbing and n-1
    its unit.  So a triple can fail only for a middle a and incomparable b
    and c, the pairs whose meet is neither of them, and only those are
    scanned."""
    spans = [(b, c) for b in range(n) for c in range(n) if meet[b][c] not in (b, c)]
    for a in range(1, n - 1):
        row = otimes[a]
        for b, c in spans:
            if row[meet[b][c]] != meet[row[b]][row[c]]:
                return a, b, c
    return None


def search_distributivity_counterexample(max_size: int = 6) -> Optional[tuple]:
    """Scan every residuated lattice up to the size bound for a failure of
    ⊗ distributing over binary ∧; returns (lattice, a, b, c) or None.

    The outcome is genuinely open a priori: chains and all prelinear or
    divisible structures distribute, and whether anything within the bound
    does not must be answered by the scan itself.
    """
    for n, leq, meet, _join, otimes in enumerate_residuated_lattices(max_size):
        gap = find_meet_distributivity_gap(n, meet, otimes)
        if gap is not None:
            return as_table_lattice(n, leq, otimes), *gap
    return None
