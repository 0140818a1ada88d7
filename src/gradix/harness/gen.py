"""Seeded random generators for tables, instances, and calculus expressions.

Generation is deterministic per seed across processes (sub-seeds derive
from a keyed blake2 digest, never from Python's randomized hashing), and
desk-scale by construction: few attributes, few values, few rows, so naive
universe enumeration stays well under a second per instance.

Draw contract: every stream is a `random.Random` opened by `_stream`, in
the state `random.Random(n)` has for n the 8-byte blake2b digest of the
stream's key text; `_stream` runs the C seeding alone, which is all of
that state but `gauss_next`.  Tables are drawn from `Random.getrandbits`
exactly as `randint` and `choice` draw (CPython's
`_randbelow_with_getrandbits`: take `n.bit_length()` bits, again while the
result is at least `n`), so a seed gives the same tables on every supported
Python and across gradix versions.  Each row's values are drawn in
sorted-attribute order, then its score.  `_draw_table` writes every one of
those draws out in a single loop over `getrandbits`, with the rejection
step inline, so it takes the same bits in the same order as a call per
value.  The suites' small samples and ranges draw through `_draw_sample`,
`_draw_below` and `_draw_int`, which take the bits `Random.sample`,
`randrange` and `randint` take, in the same order.
Scores are carrier members by construction; a unit-interval grid is checked
at its step and its top point whenever its grid is built, and tables are
built by the trusted `table._table` with rows keyed by value tuples.
"""

from __future__ import annotations

import _random
import hashlib
import random
from dataclasses import dataclass
from typing import Mapping

from .. import algebra as ra
from .. import ptc as pc
from ..errors import LatticeError
from ..lattice import BooleanLattice, FiniteChain, FiniteTableLattice, ResiduatedLattice
from ..table import _SCHEME_OF, DatabaseInstance, RankedDataTable, Scheme, _table, attrs_of

ATTR_POOL = ("A", "B", "C", "D", "E", "F")


@dataclass(frozen=True)
class GenConfig:
    """Bounds for random generation; all draws derive from `seed`."""

    seed: int = 0
    lattice: ResiduatedLattice = None  # type: ignore[assignment]
    max_attrs: int = 3
    max_values: int = 4
    max_rows: int = 8
    score_step: float = 0.05

    def with_seed(self, seed: int) -> "GenConfig":
        return GenConfig(seed, self.lattice, self.max_attrs, self.max_values,
                         self.max_rows, self.score_step)


def _stream(text: str) -> random.Random:
    """The stream keyed by `text`: a `random.Random` whose state is that of
    `random.Random(n)`, n the text's 8-byte blake2b digest.  Python's
    `Random.__init__` and `Random.seed` add nothing to the C seeding for an
    int but `gauss_next = None`, so they are skipped."""
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    rng = random.Random.__new__(random.Random)
    _random.Random.seed(rng, int.from_bytes(digest, "big"))
    rng.gauss_next = None
    return rng


def sub_rng(*key) -> random.Random:
    """A Random seeded stably from the key parts (process-independent)."""
    return _stream("|".join(map(str, key)))


def _bits(n: int) -> int:
    """The bits one draw from [0, n) takes; an empty range is an error."""
    if n < 1:
        raise ValueError(f"empty range to draw from: {n}")
    return n.bit_length()


def _draw_below(rng: random.Random, n: int) -> int:
    """An int in [0, n), the same value and bits as `rng.randrange(n)`."""
    k = _bits(n)
    getrandbits = rng.getrandbits
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _draw_int(rng: random.Random, a: int, b: int) -> int:
    """An int in [a, b], the same value and bits as `rng.randint(a, b)`."""
    return a + _draw_below(rng, b - a + 1)


def _draw_sample(rng: random.Random, population, k: int) -> list:
    """`rng.sample(population, k)`: the same items, bits and errors.  A list
    or tuple of at most 21 items always takes `Random.sample`'s pool
    algorithm, which is written out here; anything else goes to
    `rng.sample`."""
    n = len(population)
    if n > 21 or type(population) not in (tuple, list):
        return rng.sample(population, k)
    if not 0 <= k <= n:
        raise ValueError("Sample larger than population or is negative")
    getrandbits = rng.getrandbits
    pool = list(population)
    result = []
    for m in range(n, n - k, -1):
        bits = m.bit_length()
        j = getrandbits(bits)
        while j >= m:
            j = getrandbits(bits)
        result.append(pool[j])
        pool[j] = pool[m - 1]
    return result


def _score_grid(lat: ResiduatedLattice, step: float):
    """The nonzero degrees on the granularity grid, as a function from a
    draw in [0, n) to its degree, with n and the bits one draw takes.  The
    one nonzero Boolean degree takes no bits: `getrandbits(0)` draws none."""
    if isinstance(lat, BooleanLattice):
        return (1,).__getitem__, 1, 0
    if isinstance(lat, FiniteChain):
        return range(1, lat.n).__getitem__, lat.n - 1, _bits(lat.n - 1)
    if isinstance(lat, FiniteTableLattice):
        nonzero = tuple(e for e in lat.elements() if e != lat.bottom)
        if not nonzero:
            raise LatticeError("a one-element lattice has no nonzero degree to draw")
        return nonzero.__getitem__, len(nonzero), _bits(len(nonzero))
    if not 0 < step <= 1:
        raise ValueError(f"score_step must be positive and at most 1, got {step!r}")
    levels = round(1.0 / step)
    k = _bits(levels)
    step = lat.check(step)
    lat.check(levels * step)  # the top grid point, e.g. 3 × 0.35 > 1
    return lambda r: (1 + r) * step, levels, k


#: the last score grid: its lattice, held and compared by identity, its
#: step, and `_score_grid`'s result.  Replaced whole by one assignment, so
#: threads at worst build a grid twice.
_last_grid: tuple = (None, None, None)


def _grid(lat: ResiduatedLattice, step: float) -> tuple:
    """`_score_grid(lat, step)`, kept for the last lattice and step.  A grid
    is kept only once it is built, so a bad step raises on every call; the
    step's type is part of the key, since `True == 1.0` but only the float
    is a degree."""
    global _last_grid
    last_lat, last_step, grid = _last_grid
    if last_lat is lat and last_step == step and type(last_step) is type(step):
        return grid
    grid = _score_grid(lat, step)
    _last_grid = (lat, step, grid)
    return grid


def _draw_table(rng: random.Random, names: tuple, lat: ResiduatedLattice, step: float,
                max_rows: int, low: int, count: int) -> RankedDataTable:
    """1..max_rows rows on the interned `names`, values low..low+count-1,
    scores from `_score_grid`; a repeated row keeps its last score.  Every
    draw is `_draw_below`'s, written out in one loop."""
    k_rows, k_value = _bits(max_rows), _bits(count)
    degree, levels, k_score = _grid(lat, step)
    getrandbits = rng.getrandbits
    r = getrandbits(k_rows)
    while r >= max_rows:
        r = getrandbits(k_rows)
    width = range(len(names))
    rows = {}
    for _ in range(1 + r):
        values = []
        for _ in width:
            v = getrandbits(k_value)
            while v >= count:
                v = getrandbits(k_value)
            values.append(low + v)
        s = getrandbits(k_score)
        while s >= levels:
            s = getrandbits(k_score)
        rows[tuple(values)] = degree(s)
    return _table(_SCHEME_OF[names], lat, rows)


def gen_rdt(config: GenConfig, scheme: Scheme, salt: str = "") -> RankedDataTable:
    """Deterministic random table on the scheme: 1..max_rows distinct rows,
    integer values 1..max_values, scores from the granularity grid."""
    names = attrs_of(scheme)
    rng = _stream(f"{config.seed}|rdt|{salt}|{','.join(names)}")
    return _draw_table(rng, names, config.lattice, config.score_step,
                       config.max_rows, 1, config.max_values)


def gen_instance(config: GenConfig, symbol_schemes: Mapping[str, Scheme]) -> DatabaseInstance:
    return DatabaseInstance(
        config.lattice,
        {name: gen_rdt(config, scheme, salt=name)
         for name, scheme in sorted(symbol_schemes.items())},
    )


def gen_scheme(rng: random.Random, size: int, pool=ATTR_POOL) -> Scheme:
    return frozenset(_draw_sample(rng, pool, size))


def split_pool(rng: random.Random, sizes: list[int]) -> list[Scheme]:
    """Pairwise disjoint schemes of the requested sizes."""
    total = sum(sizes)
    if total > len(ATTR_POOL):
        raise ValueError("attribute pool too small")
    chosen = _draw_sample(rng, ATTR_POOL, total)
    out, k = [], 0
    for size in sizes:
        out.append(frozenset(chosen[k:k + size]))
        k += size
    return out


def fresh_universe(config: GenConfig, schemes) -> dict:
    """Per-attribute value lists covering the generator's whole value range
    plus one value no generated table can contain (the analytic tail)."""
    attrs = set()
    for s in schemes:
        attrs |= s
    return {a: list(range(1, config.max_values + 2)) for a in attrs}


# -- random calculus expressions ---------------------------------------------


class VarFactory:
    """Deterministic fresh-variable supply (counter-based)."""

    def __init__(self, prefix: str = "v"):
        self.prefix = prefix
        self.counter = 0

    def fresh(self, scheme: Scheme) -> pc.TupleVar:
        v = pc.TupleVar(f"{self.prefix}{self.counter}", frozenset(scheme))
        self.counter += 1
        return v


def gen_ptc_expr(
    config: GenConfig,
    symbols: Mapping[str, Scheme],
    max_depth: int = 4,
    salt: str = "",
) -> pc.PtcExpr:
    """A well-formed random calculus expression over the given symbols.

    Variables are minted by a deterministic counter; atom schemes are
    randomly split across variables (sometimes reusing an existing variable
    with the same scheme, which is what lets quantifiers tie atoms
    together), and quantifiers bind overlap-closed groups of free variables
    so the bound/free scheme disjointness always holds.
    """
    rng = sub_rng(config.seed, "ptc", salt)
    factory = VarFactory()
    by_scheme: dict[Scheme, list[pc.TupleVar]] = {}

    def var_for(scheme: Scheme) -> pc.TupleVar:
        scheme = frozenset(scheme)
        known = by_scheme.setdefault(scheme, [])
        if known and rng.random() < 0.5:
            return rng.choice(known)
        v = factory.fresh(scheme)
        known.append(v)
        return v

    def gen_atom() -> pc.Atom:
        name = rng.choice(sorted(symbols))
        scheme = frozenset(symbols[name])
        expr: object = ra.RelSym(name, scheme)
        roll = rng.random()
        if roll < 0.10 and scheme:
            attr = rng.choice(sorted(scheme))
            value = rng.randint(1, config.max_values + 1)
            expr = ra.NaturalJoin(expr, ra.Singleton(attr, value))
        elif roll < 0.20 and len(scheme) > 1:
            keep = frozenset(rng.sample(sorted(scheme), len(scheme) - 1))
            expr = ra.Projection(keep, expr)
            scheme = keep
        elif roll < 0.25:
            expr = ra.Nabla(expr)
        scheme = ra.scheme_of(expr)
        attrs = sorted(scheme)
        rng.shuffle(attrs)
        parts: list[Scheme] = []
        while attrs:
            k = rng.randint(1, len(attrs))
            parts.append(frozenset(attrs[:k]))
            attrs = attrs[k:]
        vs = frozenset(var_for(p) for p in parts) if parts else frozenset()
        if not vs and scheme:
            vs = frozenset({var_for(scheme)})
        return pc.Atom(expr, vs)

    def quantify(node_cls, body: pc.PtcExpr):
        free = pc.free_vars(body)
        if not free:
            return None
        groups: list[set] = []
        for v in sorted(free, key=lambda v: v.name):
            hit = [g for g in groups if any(v.scheme & w.scheme for w in g)]
            merged = {v}
            for g in hit:
                merged |= g
                groups.remove(g)
            groups.append(merged)
        rng.shuffle(groups)
        take = rng.randint(1, len(groups))
        bound = frozenset().union(*groups[:take])
        return node_cls(frozenset(bound), body)

    def gen(depth: int) -> pc.PtcExpr:
        if depth <= 0:
            return gen_atom()
        roll = rng.random()
        if roll < 0.30:
            return gen_atom()
        if roll < 0.62:
            op = rng.choice([pc.OTIMES, pc.MEET, pc.RESIDUUM])
            return pc.PtcBinary(op, gen(depth - 1), gen(depth - 1))
        if roll < 0.72:
            return pc.PtcNabla(gen(depth - 1))
        if roll < 0.78:
            return pc.PtcDelta(gen(depth - 1))
        body = gen(depth - 1)
        node_cls = pc.PtcInf if rng.random() < 0.6 else pc.PtcSup
        q = quantify(node_cls, body)
        return q if q is not None else body

    expr = gen(max_depth)
    pc.validate_ptc(expr)
    return expr
