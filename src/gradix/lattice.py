"""Complete residuated lattices used as structures of degrees.

A structure ⟨L, ∧, ∨, ⊗, →, 0, 1⟩ where ⟨L, ∧, ∨, 0, 1⟩ is a bounded
lattice, ⟨L, ⊗, 1⟩ a commutative monoid, and ⊗/→ are adjoint:
a⊗b ≤ c iff a ≤ b→c.  Degrees are plain Python values: floats in [0, 1]
for the unit-interval lattices, carrier indexes (ints) for the finite ones.

Every instance is immutable after construction and all operations are pure,
so lattices can be shared freely across threads.

Each operation exists twice over one arithmetic path: an unchecked kernel
(`kmeet`, `kjoin`, `kotimes`, `kresiduum`, `kinf`) whose arguments must
already be carrier members, and the public `meet`/`join`/`otimes`/
`residuum`/`inf`/`sup`, which validate every argument with `check` and then
call the kernel.  Degrees are validated where they enter (CSV ranks,
literals, user-built tables); the table operators then run on the kernels.
"""

from __future__ import annotations

import math
import operator
import sys
from typing import Iterable, Sequence

from .errors import DegreeError, LatticeAxiomError, LatticeError

#: Absolute tolerance for degree equality on unit-interval lattices.  The
#: Łukasiewicz and Goguen multiplications are inexact in binary floats, so
#: every equality-flavoured comparison of float degrees goes through this.
DEGREE_TOL = 1e-9

#: Smallest positive normal float.  Subnormal degrees are flushed to 0: the
#: Goguen product underflows on them (0.5 ⊗ 5e-324 = 0) while the residuum
#: 5e-324 → 0 is 0, which would break adjointness.
_MIN_NORMAL = sys.float_info.min


class ResiduatedLattice:
    """Shared behaviour; concrete carriers subclass this."""

    kind: str = "abstract"
    bottom = None
    top = None

    # -- carrier ----------------------------------------------------------

    def check(self, value):
        """Validate membership in the carrier, returning the normalized value."""
        raise NotImplementedError

    # -- unchecked kernels: arguments must be carrier members ---------------

    def kmeet(self, a, b):
        raise NotImplementedError

    def kjoin(self, a, b):
        raise NotImplementedError

    def kotimes(self, a, b):
        raise NotImplementedError

    def kresiduum(self, a, b):
        """Greatest c with a⊗c ≤ b."""
        raise NotImplementedError

    def kinf(self, values: Iterable):
        """Infimum of a finite collection; inf(∅) is the top element.

        The empty case is deliberate: it is the analytic tail of an infinite
        quantification whose remaining terms all reduce to 1.
        """
        out = self.top
        kmeet = self.kmeet
        for v in values:
            out = kmeet(out, v)
        return out

    # -- validating operations ----------------------------------------------

    def meet(self, a, b):
        return self.kmeet(self.check(a), self.check(b))

    def join(self, a, b):
        return self.kjoin(self.check(a), self.check(b))

    def otimes(self, a, b):
        return self.kotimes(self.check(a), self.check(b))

    def residuum(self, a, b):
        """Greatest c with a⊗c ≤ b."""
        return self.kresiduum(self.check(a), self.check(b))

    def inf(self, values: Iterable):
        """Infimum of a finite collection; inf(∅) is the top element."""
        return self.kinf(map(self.check, values))

    def sup(self, values: Iterable):
        """Supremum of a finite collection; sup(∅) is the bottom element."""
        out = self.bottom
        kjoin = self.kjoin
        for v in map(self.check, values):
            out = kjoin(out, v)
        return out

    # -- comparisons ------------------------------------------------------

    def leq(self, a, b) -> bool:
        return self.meet(a, b) == a

    def eq(self, a, b) -> bool:
        """Degree equality (tolerant on float carriers)."""
        return a == b

    def is_top(self, a) -> bool:
        return self.eq(a, self.top)

    def is_bottom(self, a) -> bool:
        return a == self.bottom

    def degree_diff(self, a, b) -> float:
        """Deviation metric used by the theorem suites."""
        raise NotImplementedError

    # -- serialization ----------------------------------------------------

    def format_degree(self, a) -> str:
        raise NotImplementedError

    def parse_degree(self, text: str):
        raise NotImplementedError

    def sort_key(self, a):
        """Total order proxy used only for deterministic output ordering."""
        return a

    def __repr__(self):
        return f"<lattice {self.kind}>"


def _format_unit(value: float) -> str:
    # 9 significant digits, trailing zeros trimmed
    return f"{value:.9g}"


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DegreeError(f"cannot parse rank {text!r}") from None


class _ChainLattice(ResiduatedLattice):
    """Lattices whose degrees are totally ordered by Python's own order:
    ∧/∨ are min/max and ⋀ is a plain minimum."""

    kmeet = staticmethod(min)
    kjoin = staticmethod(max)

    def kinf(self, values):
        return min(values, default=self.top)


def _classical_residuum(a, b):
    return 1 if a <= b else 0


class BooleanLattice(_ChainLattice):
    """Two-element chain {0, 1}; ⊗ coincides with ∧ and → with classical
    implication, so tables over it behave exactly like classic relations."""

    kind = "boolean"
    bottom = 0
    top = 1

    def check(self, value):
        if value in (0, 1):
            return int(value)
        raise DegreeError(f"{value!r} is not a boolean degree")

    kotimes = staticmethod(min)
    kresiduum = staticmethod(_classical_residuum)

    def degree_diff(self, a, b):
        return float(abs(a - b))

    def format_degree(self, a):
        return str(int(a))

    def parse_degree(self, text):
        v = _parse_float(text)
        if v in (0.0, 1.0):
            return int(v)
        raise DegreeError(f"boolean rank must be 0 or 1, got {text!r}")

    def __eq__(self, other):
        return isinstance(other, BooleanLattice)

    def __hash__(self):
        return hash(self.kind)


class UnitIntervalLattice(_ChainLattice):
    """Base for the [0, 1] lattices; ∧/∨ are min/max in the usual order."""

    bottom = 0.0
    top = 1.0

    def check(self, value):
        """The degree as a float in [0, 1]; subnormals are flushed to 0."""
        if type(value) is not float and (
            isinstance(value, bool) or not isinstance(value, (int, float))
        ):
            raise DegreeError(f"{value!r} is not a degree in [0, 1]")
        v = float(value)
        if 0.0 <= v <= 1.0:
            return 0.0 if v < _MIN_NORMAL else v
        raise DegreeError(f"{value!r} is outside [0, 1]")

    def eq(self, a, b):
        return abs(a - b) <= DEGREE_TOL

    def is_top(self, a):
        return a >= 1.0 - DEGREE_TOL

    def is_bottom(self, a):
        return a == 0.0

    def degree_diff(self, a, b):
        return abs(a - b)

    def format_degree(self, a):
        return _format_unit(a)

    def parse_degree(self, text):
        return self.check(_parse_float(text))

    def __eq__(self, other):
        return type(other) is type(self)

    def __hash__(self):
        return hash(self.kind)


def _goedel_residuum(a, b):
    return 1.0 if a <= b else b


def _lukasiewicz_otimes(a, b):
    # exact at the unit: a + 1.0 - 1.0 need not give a back in binary floats
    if b == 1.0:
        return a
    if a == 1.0:
        return b
    return max(a + b - 1.0, 0.0)


def _lukasiewicz_residuum(a, b):
    return min(1.0, 1.0 - a + b)


def _goguen_residuum(a, b):
    return 1.0 if a <= b else b / a


class GoedelLattice(UnitIntervalLattice):
    """Minimum multiplication: a⊗b = min(a, b)."""

    kind = "goedel"
    kotimes = staticmethod(min)
    kresiduum = staticmethod(_goedel_residuum)


class LukasiewiczLattice(UnitIntervalLattice):
    """Bounded-sum multiplication: a⊗b = max(a + b - 1, 0)."""

    kind = "lukasiewicz"
    kotimes = staticmethod(_lukasiewicz_otimes)
    kresiduum = staticmethod(_lukasiewicz_residuum)


class GoguenLattice(UnitIntervalLattice):
    """Product multiplication: a⊗b = a·b."""

    kind = "goguen"
    kotimes = staticmethod(operator.mul)
    kresiduum = staticmethod(_goguen_residuum)


class FiniteChain(_ChainLattice):
    """n-element chain with bounded-sum arithmetic on exact integer levels.

    Level k stands for the rational k/(n-1); k⊗m = max(k + m - (n-1), 0) and
    k→m = min(n-1, n-1 - k + m).  Everything stays in ints, so algebraic-law
    tests on chains can demand exact equality.
    """

    def __init__(self, n: int):
        if not isinstance(n, int) or n < 2:
            raise LatticeError(f"finite chain needs n >= 2, got {n!r}")
        self.n = n
        self.kind = f"chain:{n}"
        self.bottom = 0
        self.top = n - 1

    def check(self, value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise DegreeError(f"{value!r} is not a chain level")
        if 0 <= value <= self.n - 1:
            return value
        raise DegreeError(f"level {value} outside chain of {self.n}")

    def kotimes(self, a, b):
        return max(a + b - self.top, 0)

    def kresiduum(self, a, b):
        return min(self.top, self.top - a + b)

    def degree_diff(self, a, b):
        return abs(a - b) / (self.n - 1)

    def format_degree(self, a):
        return _format_unit(a / (self.n - 1))

    def parse_degree(self, text):
        v = _parse_float(text)
        scaled = v * (self.n - 1)
        if math.isfinite(scaled):  # round() raises on nan and inf
            k = round(scaled)
            if 0 <= k <= self.n - 1 and abs(v - k / (self.n - 1)) <= DEGREE_TOL:
                return k
        raise DegreeError(f"{text!r} is not a level of the {self.n}-chain")

    def __eq__(self, other):
        return isinstance(other, FiniteChain) and other.n == self.n

    def __hash__(self):
        return hash(self.kind)


class FiniteTableLattice(ResiduatedLattice):
    """Finite lattice given by an explicit carrier, order, and ⊗ table.

    The constructor validates every residuated-lattice axiom by exhaustive
    enumeration and derives → as the supremum of {c | a⊗c ≤ b}; a violation
    raises LatticeAxiomError naming the axiom and witnesses.  Degrees are
    carrier indexes; labels appear only in serialization.
    """

    def __init__(self, carrier: Sequence[str], order, otimes_table):
        labels = [str(x) for x in carrier]
        if len(set(labels)) != len(labels):
            raise LatticeError("carrier labels must be distinct")
        if len(labels) < 1:
            raise LatticeError("carrier must be nonempty")
        self.carrier = tuple(labels)
        n = len(labels)
        idx = {lab: i for i, lab in enumerate(labels)}

        leq = [[False] * n for _ in range(n)]
        for i in range(n):
            leq[i][i] = True
        for a, b in order:
            try:
                leq[idx[str(a)]][idx[str(b)]] = True
            except KeyError as exc:
                raise LatticeError(f"order pair mentions unknown element {exc}") from None
        # reflexive-transitive closure
        changed = True
        while changed:
            changed = False
            for i in range(n):
                for j in range(n):
                    if leq[i][j]:
                        for k in range(n):
                            if leq[j][k] and not leq[i][k]:
                                leq[i][k] = True
                                changed = True
        for i in range(n):
            for j in range(n):
                if i != j and leq[i][j] and leq[j][i]:
                    raise LatticeAxiomError("antisymmetry", (labels[i], labels[j]))
        self._leq = tuple(tuple(row) for row in leq)

        self._meet = self._bound_table(min_side=True)
        self._join = self._bound_table(min_side=False)

        bottoms = [i for i in range(n) if all(leq[i][j] for j in range(n))]
        tops = [i for i in range(n) if all(leq[j][i] for j in range(n))]
        if len(bottoms) != 1 or len(tops) != 1:
            raise LatticeAxiomError("bounded", (labels[0],), "no unique least/greatest element")
        self.bottom = bottoms[0]
        self.top = tops[0]

        ot = [[None] * n for _ in range(n)]
        for a, b, c in otimes_table:
            try:
                ia, ib, ic = idx[str(a)], idx[str(b)], idx[str(c)]
            except KeyError as exc:
                raise LatticeError(f"otimes triple mentions unknown element {exc}") from None
            for x, y in ((ia, ib), (ib, ia)):
                if ot[x][y] is not None and ot[x][y] != ic:
                    raise LatticeAxiomError("commutativity", (labels[ia], labels[ib]))
                ot[x][y] = ic
        for i in range(n):
            for fixed, val in ((self.top, i), (self.bottom, self.bottom)):
                for x, y in ((i, fixed), (fixed, i)):
                    if ot[x][y] is None:
                        ot[x][y] = val
        for i in range(n):
            for j in range(n):
                if ot[i][j] is None:
                    raise LatticeError(f"otimes table misses {labels[i]} ⊗ {labels[j]}")
        self._otimes = tuple(tuple(row) for row in ot)
        self.kind = "finite_table"
        self._validate()
        self._residuum = self._residuum_table()
        self._check_adjointness()

    @classmethod
    def from_index_tables(cls, labels, leq_rows, otimes_rows):
        """Build from precomputed index matrices (used by the lattice search)."""
        n = len(labels)
        order = [(labels[i], labels[j]) for i in range(n) for j in range(n) if leq_rows[i][j]]
        triples = [
            (labels[i], labels[j], labels[otimes_rows[i][j]])
            for i in range(n)
            for j in range(n)
        ]
        return cls(labels, order, triples)

    def _bound_table(self, min_side: bool):
        n = len(self.carrier)
        leq = self._leq
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if min_side:
                    cands = [k for k in range(n) if leq[k][i] and leq[k][j]]
                    best = [k for k in cands if all(leq[m][k] for m in cands)]
                else:
                    cands = [k for k in range(n) if leq[i][k] and leq[j][k]]
                    best = [k for k in cands if all(leq[k][m] for m in cands)]
                if len(best) != 1:
                    raise LatticeAxiomError(
                        "lattice-meet" if min_side else "lattice-join",
                        (self.carrier[i], self.carrier[j]),
                        "no unique bound",
                    )
                out[i][j] = best[0]
        return tuple(tuple(row) for row in out)

    def _validate(self):
        n = len(self.carrier)
        lab = self.carrier
        ot = self._otimes
        for a in range(n):
            if ot[a][self.top] != a:
                raise LatticeAxiomError("unit", (lab[a],))
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if ot[ot[a][b]][c] != ot[a][ot[b][c]]:
                        raise LatticeAxiomError("associativity", (lab[a], lab[b], lab[c]))
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self._leq[b][c] and not self._leq[ot[a][b]][ot[a][c]]:
                        raise LatticeAxiomError("monotonicity", (lab[a], lab[b], lab[c]))

    def _residuum_table(self):
        n = len(self.carrier)
        out = [[None] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                feasible = [c for c in range(n) if self._leq[self._otimes[a][c]][b]]
                s = self.bottom
                for c in feasible:
                    s = self._join[s][c]
                out[a][b] = s
        return tuple(tuple(row) for row in out)

    def _check_adjointness(self):
        n = len(self.carrier)
        lab = self.carrier
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    left = self._leq[self._otimes[a][b]][c]
                    right = self._leq[a][self._residuum[b][c]]
                    if left != right:
                        raise LatticeAxiomError("adjointness", (lab[a], lab[b], lab[c]))

    def check(self, value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise DegreeError(f"{value!r} is not a carrier index")
        if 0 <= value < len(self.carrier):
            return value
        raise DegreeError(f"index {value} outside carrier of size {len(self.carrier)}")

    def kmeet(self, a, b):
        return self._meet[a][b]

    def kjoin(self, a, b):
        return self._join[a][b]

    def kotimes(self, a, b):
        return self._otimes[a][b]

    def kresiduum(self, a, b):
        return self._residuum[a][b]

    def kinf(self, values):
        out, meet = self.top, self._meet
        for v in values:
            out = meet[out][v]
        return out

    def leq(self, a, b):
        return self._leq[self.check(a)][self.check(b)]

    def degree_diff(self, a, b):
        return 0.0 if a == b else 1.0

    def format_degree(self, a):
        return self.carrier[self.check(a)]

    def parse_degree(self, text):
        text = text.strip()
        if text in self.carrier:
            return self.carrier.index(text)
        raise DegreeError(f"{text!r} is not a carrier label of {self.carrier}")

    def size(self):
        return len(self.carrier)

    def elements(self):
        return range(len(self.carrier))

    def __eq__(self, other):
        return (
            isinstance(other, FiniteTableLattice)
            and other.carrier == self.carrier
            and other._leq == self._leq
            and other._otimes == self._otimes
        )

    def __hash__(self):
        return hash((self.carrier, self._leq, self._otimes))


_KIND_ALIASES = {
    "boolean": "boolean",
    "bool": "boolean",
    "goedel": "goedel",
    "godel": "goedel",
    "lukasiewicz": "lukasiewicz",
    "goguen": "goguen",
    "product": "goguen",
}


def make_lattice(kind: str, **params) -> ResiduatedLattice:
    """Factory for the built-in lattice kinds.

    kind ∈ {boolean, goedel, lukasiewicz, goguen, finite_chain, finite_table};
    finite_chain takes n, finite_table takes carrier/order/otimes.
    """
    k = _KIND_ALIASES.get(kind.lower())
    if k == "boolean":
        return BooleanLattice()
    if k == "goedel":
        return GoedelLattice()
    if k == "lukasiewicz":
        return LukasiewiczLattice()
    if k == "goguen":
        return GoguenLattice()
    if kind.lower() in ("finite_chain", "chain"):
        return FiniteChain(*_params(kind, params, "n"))
    if kind.lower() in ("finite_table", "table"):
        return FiniteTableLattice(*_params(kind, params, "carrier", "order", "otimes"))
    raise LatticeError(f"unknown lattice kind {kind!r}")


def _params(kind: str, params: dict, *names: str) -> list:
    """The values of the parameters `names` of a lattice kind, in order."""
    missing = [name for name in names if name not in params]
    if missing:
        raise LatticeError(f"lattice kind {kind!r} needs {', '.join(map(repr, missing))}")
    return [params[name] for name in names]


def load_lattice_file(path) -> FiniteTableLattice:
    """Read a finite lattice from a text file.

    Line format, '#' comments allowed:
        carrier <e1> <e2> ...
        order <a> <b>          # a ≤ b
        otimes <a> <b> <a⊗b>   # one triple per line
    """
    carrier = None
    order = []
    otimes = []
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            tag, args = parts[0], parts[1:]
            if tag == "carrier":
                carrier = args
            elif tag == "order":
                if len(args) != 2:
                    raise LatticeError(f"{path}:{lineno}: order wants two elements")
                order.append(tuple(args))
            elif tag == "otimes":
                if len(args) != 3:
                    raise LatticeError(f"{path}:{lineno}: otimes wants a b a⊗b")
                otimes.append(tuple(args))
            else:
                raise LatticeError(f"{path}:{lineno}: unknown directive {tag!r}")
    if carrier is None:
        raise LatticeError(f"{path}: missing carrier line")
    return FiniteTableLattice(carrier, order, otimes)


def lattice_from_spec(spec: str) -> ResiduatedLattice:
    """Resolve a CLI/config selection string.

    Accepted: boolean | godel | lukasiewicz | goguen | chain:<n> | table:<path>.
    """
    spec = spec.strip()
    if spec.lower() in _KIND_ALIASES:
        return make_lattice(spec)
    if spec.lower().startswith("chain:"):
        try:
            n = int(spec.split(":", 1)[1])
        except ValueError:
            raise LatticeError(f"bad chain size in {spec!r}") from None
        return FiniteChain(n)
    if spec.lower().startswith("table:"):
        return load_lattice_file(spec.split(":", 1)[1])
    raise LatticeError(f"unknown lattice selection {spec!r}")
