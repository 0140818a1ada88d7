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
    ∧/∨ are min/max and ⋀ is a plain minimum.  Two are equal when they
    have one class and one `kind`, which names the whole structure."""

    kmeet = staticmethod(min)
    kjoin = staticmethod(max)

    def kinf(self, values):
        return min(values, default=self.top)

    def __eq__(self, other):
        return type(other) is type(self) and other.kind == self.kind

    def __hash__(self):
        return hash(self.kind)


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


def _bound_table(side: list, labels, axiom: str) -> tuple:
    """For every pair, the k with side[k] = side[i] & side[j], where side[i]
    is the bit mask of the elements below i (meets) or above it (joins) in
    a closed, antisymmetric order.  That k is the pair's greatest common
    lower (least common upper) bound, and antisymmetry makes it unique.
    The first pair without one, in row-major order, raises `axiom`; (j, i)
    fails where (i, j) does, so the upper triangle suffices.  The lattice
    search (`harness.latsearch`) builds its tables here too, reading the
    raise as "not a lattice"."""
    n = len(side)
    owner = {mask: k for k, mask in enumerate(side)}
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        row, side_i = out[i], side[i]
        for j in range(i, n):
            k = owner.get(side_i & side[j])
            if k is None:
                raise LatticeAxiomError(axiom, (labels[i], labels[j]), "no unique bound")
            row[j] = out[j][i] = k
    return tuple(map(tuple, out))


class FiniteTableLattice(ResiduatedLattice):
    """Finite lattice given by an explicit carrier, order, and ⊗ table.

    The constructor validates every residuated-lattice axiom by exhaustive
    enumeration and derives → as the supremum of {c | a⊗c ≤ b}; a violation
    raises LatticeAxiomError naming the axiom and its first witnesses in
    carrier order.  Validation is O(n³) on n elements: one Warshall pass
    closes the order, each meet and join is one of its pair's O(n) common
    bounds, and every axiom on triples is checked triple by triple.
    Degrees are carrier indexes; labels appear only in serialization.
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

        up = [1 << i for i in range(n)]  # up[i]: bit j is set where i ≤ j
        for a, b in order:
            try:
                up[idx[str(a)]] |= 1 << idx[str(b)]
            except KeyError as exc:
                raise LatticeError(f"order pair mentions unknown element {exc}") from None
        for k in range(n):  # reflexive-transitive closure, one Warshall pass
            bit, above_k = 1 << k, up[k]
            for i in range(n):
                if up[i] & bit:
                    up[i] |= above_k
        down = [sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n)]
        for i in range(n):
            both = up[i] & down[i] & ~(1 << i)
            if both:  # its lowest bit is the first j with i ≤ j ≤ i
                j = (both & -both).bit_length() - 1
                raise LatticeAxiomError("antisymmetry", (labels[i], labels[j]))
        self._leq = tuple(tuple(bool(up[i] >> j & 1) for j in range(n)) for i in range(n))

        self._meet = _bound_table(down, labels, "lattice-meet")
        self._join = _bound_table(up, labels, "lattice-join")
        # a finite poset whose pairs all have meets and joins is bounded
        full = (1 << n) - 1
        self.bottom = up.index(full)
        self.top = down.index(full)

        ot = [[None] * n for _ in range(n)]
        for a, b, c in otimes_table:
            try:
                ia, ib, ic = idx[str(a)], idx[str(b)], idx[str(c)]
            except KeyError as exc:
                raise LatticeError(f"otimes triple mentions unknown element {exc}") from None
            if ot[ia][ib] not in (None, ic):  # ot stays symmetric, so b ⊗ a too
                raise LatticeAxiomError("commutativity", (labels[ia], labels[ib]))
            ot[ia][ib] = ot[ib][ia] = ic
        top_row, bottom_row = ot[self.top], ot[self.bottom]
        for i, row in enumerate(ot):  # a ⊗ 1 = a and a ⊗ 0 = 0 unless given
            if row[self.top] is None:
                row[self.top] = top_row[i] = i
            if row[self.bottom] is None:
                row[self.bottom] = bottom_row[i] = self.bottom
        for i, row in enumerate(ot):
            if None in row:
                j = row.index(None)
                raise LatticeError(f"otimes table misses {labels[i]} ⊗ {labels[j]}")
        self._otimes = tuple(tuple(row) for row in ot)
        self.kind = "finite_table"
        self._validate()
        self._residuum = self._residuum_table()
        self._check_adjointness()

    def _validate(self):
        """Unit, associativity and monotonicity of ⊗, triple by triple."""
        n, lab, ot, leq = len(self.carrier), self.carrier, self._otimes, self._leq
        for a in range(n):
            if ot[a][self.top] != a:
                raise LatticeAxiomError("unit", (lab[a],))
        for a, row in enumerate(ot):
            for b in range(n):
                ab_row, b_row = ot[row[b]], ot[b]
                for c in range(n):
                    if ab_row[c] != row[b_row[c]]:
                        raise LatticeAxiomError("associativity", (lab[a], lab[b], lab[c]))
        above = [[c for c in range(n) if leq[b][c]] for b in range(n)]
        for a, row in enumerate(ot):
            for b in range(n):
                leq_ab = leq[row[b]]
                for c in above[b]:
                    if not leq_ab[row[c]]:
                        raise LatticeAxiomError("monotonicity", (lab[a], lab[b], lab[c]))

    def _residuum_table(self):
        """a → b as the join of {c | a⊗c ≤ b}, joined in carrier order."""
        n, leq, join = len(self.carrier), self._leq, self._join
        out = [[self.bottom] * n for _ in range(n)]
        for a, row in enumerate(self._otimes):
            for b, s in enumerate(out[a]):
                for c in range(n):
                    if leq[row[c]][b]:
                        s = join[s][c]
                out[a][b] = s
        return tuple(map(tuple, out))

    def _check_adjointness(self):
        """a⊗b ≤ c exactly when a ≤ b → c."""
        n, lab, leq, res = len(self.carrier), self.carrier, self._leq, self._residuum
        for a, row in enumerate(self._otimes):
            leq_a = leq[a]
            for b in range(n):
                leq_ab, res_b = leq[row[b]], res[b]
                for c in range(n):
                    if leq_ab[c] != leq_a[res_b[c]]:
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
    A second carrier line, or a ⊗ b given twice with different values, is
    a LatticeError naming the line.  An error that validation finds after
    reading, such as a failing axiom, is prefixed with the path; a
    LatticeAxiomError keeps its axiom and witnesses."""
    carrier = carrier_line = None
    order = []
    otimes = []
    given = {}  # (a, b) → (a⊗b, the line that gave it first)
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            tag, args = parts[0], parts[1:]
            if tag == "carrier":
                if carrier is not None:
                    raise LatticeError(f"{path}:{lineno}: a second carrier line "
                                       f"(the first is line {carrier_line})")
                carrier, carrier_line = args, lineno
            elif tag == "order":
                if len(args) != 2:
                    raise LatticeError(f"{path}:{lineno}: order wants two elements")
                order.append(tuple(args))
            elif tag == "otimes":
                if len(args) != 3:
                    raise LatticeError(f"{path}:{lineno}: otimes wants a b a⊗b")
                a, b, c = args
                first, first_line = given.setdefault((a, b), (c, lineno))
                if first != c:
                    raise LatticeError(
                        f"{path}:{lineno}: otimes {a} {b} given twice with different "
                        f"values ({first} at line {first_line}, {c} here)")
                otimes.append((a, b, c))
            else:
                raise LatticeError(f"{path}:{lineno}: unknown directive {tag!r}")
    if carrier is None:
        raise LatticeError(f"{path}: missing carrier line")
    try:
        return FiniteTableLattice(carrier, order, otimes)
    except LatticeError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


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
