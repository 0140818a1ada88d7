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

Each built-in class writes each kernel op (∧, ∨, ⊗, → of two degrees) once,
as one Python expression in its `kernel_expressions`.  Both forms of the op
are built from that expression: the `k<op>` method, and the row kernels of
the table operators and the divisions, `RowLoop`s whose loops are written
once as templates and compiled once per lattice class with the class's
expressions written inline, so no row pays a Python call per op.  A class
without expressions, such as a user subclass that defines only `k<op>`
methods, gets the same loops calling those methods.  Only the fixed
templates and the classes' fixed expressions reach the generated source,
never a value, an attribute name or a carrier label.
"""

from __future__ import annotations

import math
import re
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


# -- kernel expressions and row kernels ---------------------------------------
#
# An expression is a format string over the operand fields {a} and {b}; any
# other field names an attribute of the lattice, such as {top}, which a
# generated function reads into a local `lat_<field>` once per call.

#: The kernel ops; `k<op>` is the unchecked method of each.
_KERNEL_OPS = ("meet", "join", "otimes", "residuum")
_KERNEL_METHODS = frozenset("k" + op for op in _KERNEL_OPS)
#: An op applied to two names in a template, as in `OTIMES(a, b)`.
_OP_CALL = re.compile(r"\b(MEET|JOIN|OTIMES|RESIDUUM)\((\w+), (\w+)\)")
_OP_WORD = re.compile(r"\b(?:MEET|JOIN|OTIMES|RESIDUUM)\b")
#: A field of an expression, as in `{a}` or `{top}`.
_FIELD = re.compile(r"\{(\w+)\}")
#: The expression each generated `k<op>` function was built from.
_EXPRESSION_OF: dict = {}

#: `min(a, b)` and `max(a, b)`, ties and all: each keeps `a` unless `b` is
#: strictly smaller (larger).
_MIN = "{b} if {b} < {a} else {a}"
_MAX = "{b} if {b} > {a} else {a}"


def _fields(expression: str) -> list:
    """The lattice attributes an expression reads, in order of appearance."""
    return list(dict.fromkeys(f for f in _FIELD.findall(expression) if f not in ("a", "b")))


def _source(name: str, params: tuple, body: str, expressions: dict) -> str:
    """The source of the function `name(*params)` running `body`, with each
    op applied to two names in it written inline as `expressions[op]` of
    those names.  The lattice attributes the expressions read come from the
    parameter `lat`."""
    fields: list = []

    def inline(call) -> str:
        expression = expressions[call[1].lower()]
        local = {f: "lat_" + f for f in _fields(expression)}
        fields.extend(f for f in local if f not in fields)
        return "(" + expression.format(a=call[2], b=call[3], **local) + ")"

    lines = _OP_CALL.sub(inline, body).strip("\n").split("\n")
    if _OP_WORD.search("\n".join(lines)):
        raise LatticeError(f"{name}: a kernel op must be applied to two names")
    margin = min(len(line) - len(line.lstrip()) for line in lines if line.strip())
    lines = [f"lat_{f} = lat.{f}" for f in fields] + [line[margin:] for line in lines]
    return f"def {name}({', '.join(params)}):\n" + "".join(f"    {line}\n" for line in lines)


def _compiled(sources) -> dict:
    """The functions the `_source` texts define, by name, compiled at once.
    This and `algebra._init` are the engine's only calls of `exec` or
    `compile`; the source is built from fixed templates and expressions
    alone."""
    space: dict = {}
    exec(compile("".join(sources), "<gradix kernels>", "exec"), space)
    return space


def _kernel_methods(expressions: dict) -> dict:
    """The `k<op>` method computing each op's expression, compiled at once:
    a static method where it reads no lattice attribute, else a method
    whose instance is `lat`."""
    for op in expressions:
        if op not in _KERNEL_OPS:
            raise LatticeError(f"{op!r} is not a kernel op; they are {', '.join(_KERNEL_OPS)}")
    reads = {op: bool(_fields(e)) for op, e in expressions.items()}
    space = _compiled(_source("k" + op, ("lat", "a", "b") if reads[op] else ("a", "b"),
                              f"return {op.upper()}(a, b)", {op: e})
                      for op, e in expressions.items())
    methods = {}
    for op, expression in expressions.items():
        fn = space["k" + op]
        _EXPRESSION_OF[fn] = expression
        methods["k" + op] = fn if reads[op] else staticmethod(fn)
    return methods


def _expressions(cls) -> dict:
    """The expression of each kernel op for row kernels over `cls`: the one
    its `k<op>` was built from, else a call of that method."""
    return {op: _EXPRESSION_OF.get(getattr(cls, "k" + op), "{k" + op + "}({a}, {b})")
            for op in _KERNEL_OPS}


class RowLoop(dict):
    """A row loop written once, as a template, and compiled once per
    lattice class.

    The template is the body of a function of `lat` and `params`; in it
    `MEET(x, y)`, `JOIN`, `OTIMES` and `RESIDUUM` apply a kernel op to two
    names.  `loop[lat._kernel_class]` is the kernel for a lattice, compiled
    at the first such index with that class's expressions inline.  The
    dict fills by single dict operations, so concurrent callers at worst
    compile a kernel twice.
    """

    def __init__(self, name: str, params: tuple, body: str):
        super().__init__()
        self.name, self.params, self.body = name, ("lat",) + params, body

    def __missing__(self, cls):
        source = _source(self.name, self.params, self.body, _expressions(cls))
        kernel = self[cls] = _compiled([source])[self.name]
        return kernel


class ResiduatedLattice:
    """Shared behaviour; concrete carriers subclass this."""

    kind: str = "abstract"
    bottom = None
    top = None

    #: One expression per kernel op, over the operands {a} and {b} and the
    #: lattice attributes it names as other fields.  A class's `k<op>`
    #: methods are built from the expressions its own body gives, and its
    #: row kernels write them inline; an op without one keeps the inherited
    #: method, and the row kernels call it.
    kernel_expressions: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._kernel_class = cls
        expressions = cls.__dict__.get("kernel_expressions")
        if expressions:
            for name, method in _kernel_methods(expressions).items():
                setattr(cls, name, method)

    def __setattr__(self, name, value):
        # an instance that gets its own k<op> (a test's counting wrapper,
        # say) computes with it, so its row kernels call every method
        if name in _KERNEL_METHODS:
            object.__setattr__(self, "_kernel_class", ResiduatedLattice)
        object.__setattr__(self, name, value)

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


ResiduatedLattice._kernel_class = ResiduatedLattice


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

    kernel_expressions = {"meet": _MIN, "join": _MAX}

    def kinf(self, values):
        return min(values, default=self.top)

    def __eq__(self, other):
        return type(other) is type(self) and other.kind == self.kind

    def __hash__(self):
        return hash(self.kind)


class BooleanLattice(_ChainLattice):
    """Two-element chain {0, 1}; ⊗ coincides with ∧ and → with classical
    implication, so tables over it behave exactly like classic relations."""

    kind = "boolean"
    bottom = 0
    top = 1
    kernel_expressions = {"otimes": _MIN, "residuum": "1 if {a} <= {b} else 0"}

    def check(self, value):
        if value in (0, 1):
            return int(value)
        raise DegreeError(f"{value!r} is not a boolean degree")

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

    def degree_diff(self, a, b):
        return abs(a - b)

    def format_degree(self, a):
        return _format_unit(a)

    def parse_degree(self, text):
        return self.check(_parse_float(text))


class GoedelLattice(UnitIntervalLattice):
    """Minimum multiplication: a⊗b = min(a, b)."""

    kind = "goedel"
    kernel_expressions = {"otimes": _MIN, "residuum": "1.0 if {a} <= {b} else {b}"}


class LukasiewiczLattice(UnitIntervalLattice):
    """Bounded-sum multiplication: a⊗b = max(a + b - 1, 0), exact at the
    unit, since a + 1.0 - 1.0 need not give a back in binary floats; and
    a→b = min(1, 1 - a + b)."""

    kind = "lukasiewicz"
    kernel_expressions = {
        "otimes": "{a} if {b} == 1.0 else {b} if {a} == 1.0 else "
                  "0.0 if 0.0 > {a} + {b} - 1.0 else {a} + {b} - 1.0",
        "residuum": "1.0 - {a} + {b} if 1.0 - {a} + {b} < 1.0 else 1.0",
    }


class GoguenLattice(UnitIntervalLattice):
    """Product multiplication: a⊗b = a·b."""

    kind = "goguen"
    kernel_expressions = {"otimes": "{a} * {b}", "residuum": "1.0 if {a} <= {b} else {b} / {a}"}


class FiniteChain(_ChainLattice):
    """n-element chain with bounded-sum arithmetic on exact integer levels.

    Level k stands for the rational k/(n-1); k⊗m = max(k + m - (n-1), 0) and
    k→m = min(n-1, n-1 - k + m).  Everything stays in ints, so algebraic-law
    tests on chains can demand exact equality.
    """

    kernel_expressions = {
        "otimes": "0 if 0 > {a} + {b} - {top} else {a} + {b} - {top}",
        "residuum": "{top} - {a} + {b} if {top} - {a} + {b} < {top} else {top}",
    }

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

    kernel_expressions = {op: "{_" + op + "}[{a}][{b}]" for op in _KERNEL_OPS}

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
