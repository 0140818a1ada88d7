"""Relational-algebra expressions: AST, static scheme inference, evaluation
against a database instance, and extended-active-domain machinery.

Every AST node, of the algebra, the calculus and the scripts, is a `Node`:
a frozen, hashable value with the semantics of a frozen dataclass.  Every
traversal of them, here and in the calculus, is a `fold`: one iterative
post-order over the distinct nodes that applies a per-node rule to the
children's results, so it takes an expression of any depth and costs each
shared subtree once.  A `_Numbering` numbers nodes by structure; the
evaluator is one that evaluates each number once, and `==`, `hash` and
pickling read a numbering's flat encoding.  The core node set keeps the
ranged division, the residuum-with-range, and the EADOM table source; the
remaining divisions are sugar nodes evaluated through the division module.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Mapping

from . import division as dv
from . import table as tb
from .errors import SchemeError, UnboundSymbolError
from .table import DatabaseInstance, RankedDataTable, Scheme


# -- nodes and traversal ---------------------------------------------------


def _getter(names: tuple):
    """node → the tuple of its fields called `names`, one C call where
    there are two or more."""
    if len(names) == 1:
        return lambda node, name=names[0]: (getattr(node, name),)
    return operator.attrgetter(*names) if names else lambda node: ()


class Node:
    """An immutable expression node.  A subclass lists its fields in
    `__slots__`, in constructor order, the child fields in `_kids` and the
    values of its trailing fields in `_defaults`.  A node without children
    compares and hashes on its fields; one with children through a
    `_Numbering`, and none of `==`, `hash`, `repr` and pickling recurses."""

    __slots__ = ()
    _kids = _defaults = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields, kids = cls.__slots__, cls._kids
        scalars = tuple(name for name in fields if name not in kids)
        cls.__match_args__, cls.__init__ = fields, _init(cls, fields)
        cls._fields_of, cls._kids_of, cls._scalars_of = map(
            staticmethod, map(_getter, (fields, kids, scalars)))
        cls._key = staticmethod(operator.attrgetter("__class__", *scalars))
        cls._build_setters = tuple(getattr(cls, name).__set__ for name in scalars + kids)
        if not kids:  # compared and hashed on its fields, as a dataclass is
            get = cls._fields_of
            cls.__eq__ = lambda self, other: (get(self) == get(other) if other.__class__
                                              is self.__class__ else NotImplemented)
            cls.__hash__ = lambda self: hash(get(self))

    @classmethod
    def _build(cls, scalars, kids):
        """The node with these fields, set without `__init__`."""
        node = object.__new__(cls)
        for put, value in zip(cls._build_setters, (*scalars, *kids)):
            put(node, value)
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or _encoding(self) == _encoding(other)

    def __hash__(self):
        return hash(_encoding(self))

    def __reduce__(self):
        if not self._kids:
            return type(self), self._fields_of(self)
        return _rebuild, (_encoding(self),)

    def __repr__(self):
        return _rope_text(fold(self, _repr_rule)[id(self)])


def _init(cls, fields: tuple):
    """`cls.__init__`: it takes the fields as parameters, the trailing ones
    defaulting to `cls._defaults`, sets each through its slot, and then
    calls the class's `__post_init__`, where it has one."""
    space = {f"_set_{name}": getattr(cls, name).__set__ for name in fields}
    body = "".join(f"    _set_{name}(self, {name})\n" for name in fields)
    if hasattr(cls, "__post_init__"):
        body += "    self.__post_init__()\n"
    exec(f"def __init__(self, {', '.join(fields)}):\n{body}", space)
    init = space["__init__"]
    init.__defaults__, init.__qualname__ = cls._defaults or None, f"{cls.__qualname__}.__init__"
    return init


def _repr_rule(node: Node, *below):
    """The repr of one node as a rope, from its children's ropes `below`."""
    kids = dict(zip(node._kids, below))
    fields = [(", ", f"{name}=", kids[name] if name in kids else repr(getattr(node, name)))
              for name in node.__slots__]
    return (f"{type(node).__qualname__}(", fields[0][1:], *fields[1:], ")")


class _Numbering:
    """Numbers nodes by structure, children first: a number stands for a
    class, its scalar fields and its children's numbers."""

    def __init__(self):
        self.numbers: dict = {}  # (class and scalars, children's numbers) → number
        self.nodes: list = []  # number → (node, children's numbers)

    def number(self, node: Node, *nums) -> int:
        """The number of one node, from its children's numbers."""
        key = (type(node)._key(node), *nums)
        n = self.numbers.get(key)
        if n is None:
            n = self.numbers[key] = len(self.nodes)
            self.nodes.append((node, nums))
        return n


def _encoding(root: Node) -> tuple:
    """The keys of a numbering of `root`, made children first."""
    numbering = _Numbering()
    fold(root, numbering.number)
    return tuple(numbering.numbers)


def _rebuild(encoding: tuple) -> Node:
    """The node whose `_encoding` is `encoding`."""
    made: list = []
    for head, *nums in encoding:
        cls, *scalars = head if type(head) is tuple else (head,)
        made.append(cls._build(scalars, [made[i] for i in nums]))
    return made[-1]


def children(node) -> tuple:
    """The subexpressions of an algebra or calculus node, in field order; a
    calculus atom's one child is its algebra expression."""
    return type(node)._kids_of(node)


def fold(root, rule, kids=None) -> dict:
    """id(node) → rule(node, *its children's results), for every distinct
    node under `root` in post-order: each node after all its children, the
    children left to right.  Nodes are told apart by identity, so a subtree
    shared by several parents is folded once; the loop keeps its own stack,
    so an expression of any depth can be folded.  `kids(node)`, by default
    `children(node)`, must give nodes of the expression."""
    done, stack = {}, [root]
    pop, push, get = stack.pop, stack.append, done.__getitem__
    while stack:
        node = pop()
        if type(node) is tuple:  # (node, children), the children all done
            node, below = node
            done[id(node)] = rule(node, *map(get, map(id, below)))
        elif id(node) not in done:
            try:
                below = kids(node) if kids else type(node)._kids_of(node)
            except AttributeError:
                raise TypeError(f"not an expression node: {type(node).__name__}") from None
            if below:
                push((node, below))
                stack.extend(reversed(below))
            else:
                done[id(node)] = rule(node)
    return done


def walk(expr) -> list:
    """Every distinct node of an algebra or calculus expression, children
    first."""
    return list(fold(expr, lambda node, *_: node).values())


def _with_children(node: Node, below: tuple) -> Node:
    """`node` with its children replaced by `below`; `node` itself when
    they are the same objects."""
    cls = type(node)
    if all(map(operator.is_, cls._kids_of(node), below)):
        return node
    return cls._build(cls._scalars_of(node), below)


class RelSym(Node):
    """Relation symbol; the scheme is carried so scheme inference needs no
    instance.  A parser may leave it None and resolve later."""

    __slots__ = ("name", "scheme")
    _defaults = (None,)


class DeeConst(Node):
    """Table on the empty scheme scoring the empty tuple with a literal.

    The literal is written like a CSV rank: a number in [0, 1] (snapped to
    chain levels on finite chains) or a carrier label string.
    """

    __slots__ = ("degree",)


class Singleton(Node):
    """One attribute, one value, score 1; the only way an expression can
    introduce a value that is absent from the database."""

    __slots__ = ("attribute", "value")


class Union(Node):
    __slots__ = _kids = ("left", "right")


class Intersection(Node):
    __slots__ = _kids = ("left", "right")


class NaturalJoin(Node):
    __slots__ = _kids = ("left", "right")


class Projection(Node):
    __slots__ = ("scheme", "child")
    _kids = ("child",)


class Nabla(Node):
    __slots__ = _kids = ("child",)


class Delta(Node):
    __slots__ = _kids = ("child",)


class ResiduumRange(Node):
    __slots__ = _kids = ("left", "right", "rng")


class DivRanged(Node):
    __slots__ = _kids = ("dividend", "divisor", "rng")


class EadomExpr(Node):
    """Extended active domain of the whole instance over a scheme, extended
    with any constants baked in (the calculus compiler adds the singleton
    constants of the expression being compiled)."""

    __slots__ = ("scheme", "constants")
    _defaults = (frozenset(),)


# -- sugar nodes -----------------------------------------------------------


class Semijoin(Node):
    __slots__ = _kids = ("left", "right")


class GradedDifference(Node):
    __slots__ = _kids = ("left", "right")


class Semidifference(Node):
    __slots__ = _kids = ("left", "right")


class GSDO(Node):
    __slots__ = _kids = ("dividend", "divisor", "mediator")


class GSD(Node):
    __slots__ = _kids = ("dividend", "divisor", "mediator")


class GGDO(Node):
    __slots__ = _kids = ("dividend", "divisor", "mediator1", "mediator2")


class GDDO(Node):
    __slots__ = _kids = ("dividend", "divisor", "mediator1", "mediator2")


class GCodd(Node):
    __slots__ = _kids = ("dividend", "divisor", "universe")


class GTodd(Node):
    __slots__ = _kids = ("dividend", "divisor", "universe")


RaExpr = (
    RelSym | DeeConst | Singleton | Union | Intersection | NaturalJoin | Projection | Nabla
    | Delta | ResiduumRange | DivRanged | EadomExpr | Semijoin | GradedDifference
    | Semidifference | GSDO | GSD | GGDO | GDDO | GCodd | GTodd
)


def _fail(node, message: str):
    raise SchemeError(f"{type(node).__name__}: {message}")


def scheme_of(expr: RaExpr) -> Scheme:
    """Static scheme of the evaluation result; instance-independent."""
    return fold(expr, _scheme_rule)[id(expr)]


#: Each division's scheme contract in the division module: the one check of
#: its operand schemes, giving its result scheme.
_DIVISION_SCHEMES = {
    DivRanged: dv.ranged_scheme, GSDO: dv.gsdo_scheme, GSD: dv.gsd_scheme,
    GGDO: dv.ggdo_scheme, GCodd: dv.gcodd_scheme, GTodd: dv.gtodd_scheme,
}


def _scheme_rule(expr, *s) -> Scheme:
    """The scheme of one node, from its children's schemes `s`."""
    match expr:
        case RelSym(name, scheme):
            if scheme is None:
                _fail(expr, f"symbol {name!r} has no resolved scheme")
            return scheme
        case DeeConst():
            return tb.EMPTY_SCHEME
        case Singleton(attribute=a):
            return frozenset({a})
        case EadomExpr(scheme=scheme):
            return scheme
        case Union() | Intersection():
            if s[0] != s[1]:
                _fail(expr, f"operand schemes {sorted(s[0])} and {sorted(s[1])} differ")
            return s[0]
        case NaturalJoin() | GDDO():
            return s[0] | s[1]
        case Projection(scheme):
            if not scheme <= s[0]:
                _fail(expr, f"target {sorted(scheme)} not within {sorted(s[0])}")
            return frozenset(scheme)
        case Nabla() | Delta() | Semijoin() | Semidifference():
            return s[0]
        case ResiduumRange():
            if not (s[0] == s[1] == s[2]):
                _fail(expr, "the two sides and the range must share one scheme")
            return s[0]
        case GradedDifference():
            if s[0] != s[1]:
                _fail(expr, "difference needs equal schemes")
            return s[0]
    contract = _DIVISION_SCHEMES.get(type(expr))
    if contract is None:
        raise TypeError(f"not an RA expression: {type(expr).__name__}")
    try:
        return contract(*s)
    except SchemeError as exc:
        _fail(expr, str(exc))


def constants_of(expr: RaExpr) -> frozenset:
    """All (attribute, value) constants the expression can introduce."""
    return frozenset().union(*map(node_constants, walk(expr)))


def node_constants(node) -> frozenset:
    """The (attribute, value) constants one node introduces."""
    if isinstance(node, Singleton):
        return frozenset({(node.attribute, node.value)})
    return node.constants if isinstance(node, EadomExpr) else frozenset()


def resolve_schemes(expr, schemes: Mapping[str, Scheme]):
    """Annotate unresolved relation symbols with schemes from a catalog, in
    an algebra expression or in the atoms of a calculus expression."""
    return fold(expr, _resolver(schemes))[id(expr)]


def _resolver(schemes: Mapping[str, Scheme]):
    """The rule of `resolve_schemes`: one node, from its children's results."""

    def rule(node, *below):
        if type(node) is not RelSym or node.scheme is not None:
            return _with_children(node, below)
        if node.name not in schemes:
            raise UnboundSymbolError(f"relation symbol {node.name!r} is not defined")
        return RelSym(node.name, frozenset(schemes[node.name]))

    return rule


# -- active domains --------------------------------------------------------


def eadom_values(instance: DatabaseInstance, attr: str, extra_values=()) -> list:
    """Sorted distinct values the instance (plus constants) provides for attr."""
    vals = {v for a, v in extra_values if a == attr}
    for _name, d in instance.tables():
        if attr in d.scheme:
            i = tb.attrs_of(d.scheme).index(attr)
            vals.update(v[i] for v in d._rows)
    return sorted(vals, key=lambda v: (type(v).__name__, v))


def eadom(instance: DatabaseInstance, scheme: Scheme, extra_values=()) -> RankedDataTable:
    """Extended active domain over a scheme: the cross join of per-attribute
    domains, every tuple at score 1.  eadom(∅) is Dee₁; an attribute with no
    values anywhere yields the empty table.  The product of the domain sizes
    is at most `table.MAX_ROWS`."""
    lat = instance.lattice
    names = tb.attrs_of(scheme)
    columns = [eadom_values(instance, a, extra_values) for a in names]
    count = math.prod(map(len, columns))
    if count > tb.MAX_ROWS:
        raise tb._too_many_rows(f"EADOM[{','.join(names)}]", count)
    return tb._table(frozenset(scheme), lat, dict.fromkeys(itertools.product(*columns), lat.top))


# -- evaluation ------------------------------------------------------------


class _Evaluator(_Numbering):
    """Evaluates expressions against one instance, each equal subexpression
    once: a number's table is computed when first asked for.  No node is
    hashed, so a shared subtree costs its size once."""

    def __init__(self, instance: DatabaseInstance):
        super().__init__()
        self.instance = instance
        self.tables: list = []  # number → table, for the numbers evaluated so far

    def table(self, n: int) -> RankedDataTable:
        """The table of number n, evaluating first every smaller number not
        yet evaluated, as numbers are given out children first."""
        tables = self.tables
        for node, nums in self.nodes[len(tables):n + 1]:
            tables.append(self._rule(node, *[tables[i] for i in nums]))
        return tables[n]

    def _rule(self, expr: RaExpr, *t) -> RankedDataTable:
        """The table of one node, from its children's tables `t`.  Every
        relation symbol has its scheme: `eval_ra` and `ptc._compile` reject
        an unresolved one first."""
        lat = self.instance.lattice
        match expr:
            case RelSym(name, scheme):
                d = self.instance.table(name)
                if d.scheme != scheme:
                    _fail(expr, f"symbol {name!r} bound to scheme {sorted(d.scheme)}")
                return d
            case DeeConst(degree):
                return tb.dee(lat, _coerce_degree(lat, degree))
            case Singleton(attr, value):
                return tb._table(frozenset({attr}), lat, {(value,): lat.top})
            case EadomExpr(scheme, constants):
                return eadom(self.instance, scheme, constants)
            case Projection(scheme):
                return tb.projection(*t, scheme)
        op = _OPERATORS.get(type(expr))
        if op is None:
            raise TypeError(f"not an RA expression: {type(expr).__name__}")
        return getattr(*op)(*t)


#: node class → (module, name) of the function that evaluates it on its
#: children's tables, looked up at each call, so a profiler may rebind it
_OPERATORS = {
    Union: (tb, "union"), Intersection: (tb, "intersection"), NaturalJoin: (tb, "natural_join"),
    Nabla: (tb, "nabla"), Delta: (tb, "delta"), ResiduumRange: (tb, "residuum_with_range"),
    Semijoin: (tb, "semijoin"), GradedDifference: (tb, "difference_graded"),
    DivRanged: (dv, "div_ranged"), Semidifference: (dv, "semidifference"),
    GSDO: (dv, "div_gsdo"), GSD: (dv, "div_gsd"), GGDO: (dv, "div_ggdo"),
    GDDO: (dv, "div_gddo"), GCodd: (dv, "div_gcodd"), GTodd: (dv, "div_gtodd"),
}


def _coerce_degree(lat, raw):
    if isinstance(raw, str):
        return lat.parse_degree(raw)
    return lat.parse_degree(repr(raw) if isinstance(raw, float) else str(raw))


def eval_ra(expr: RaExpr, instance: DatabaseInstance) -> RankedDataTable:
    """Evaluate an expression; every relation symbol must be bound and the
    whole expression must pass static scheme inference, which runs first,
    once per distinct subexpression."""
    ev = _Evaluator(instance)
    root = fold(expr, ev.number)[id(expr)]
    schemes: list = []  # number → scheme
    for node, nums in ev.nodes:
        schemes.append(_scheme_rule(node, *[schemes[i] for i in nums]))
    return ev.table(root)


# -- pretty printing -------------------------------------------------------


def value_to_literal(v) -> str:
    """Render a value as source text the parser reads back to the same value."""
    if isinstance(v, str):
        escaped = v.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        s = _float_literal(v)
        if "." not in s and "e" not in s and "inf" not in s and "nan" not in s:
            s += ".0"
        return s
    return str(v)


def _float_literal(x: float) -> str:
    """9 significant digits, or all of them where 9 do not read back as x."""
    s = f"{x:.9g}"
    return s if float(s) == x else repr(x)


def degree_to_literal(d) -> str:
    if isinstance(d, str):
        return value_to_literal(d)
    if isinstance(d, float):
        return _float_literal(d)
    return str(d)


def _attr_list(scheme: Scheme) -> str:
    return ",".join(sorted(scheme))


#: the text of each operator node, one `{}` per child in field order; the
#: parser reads its operator productions from these templates as well
_SYNTAX = {
    Union: "({} UNION {})", Intersection: "({} ISECT {})", NaturalJoin: "({} JOIN {})",
    Nabla: "NABLA({})", Delta: "DELTA({})", ResiduumRange: "RES({} -> {} OVER {})",
    DivRanged: "DIV({} BY {} OVER {})", Semijoin: "SEMIJOIN({}, {})",
    GradedDifference: "GDIFF({}, {})", Semidifference: "SEMIDIFF({}, {})",
    GSDO: "GSDO({}, {}; MED {})", GSD: "GSD({}, {}; MED {})",
    GGDO: "GGDO({}, {}; MED {}, {})", GDDO: "GDDO({}, {}; MED {}, {})",
    GCodd: "GCODD({}, {}; UNIV {})", GTodd: "GTODD({}, {}; UNIV {})",
}
_PIECES = {cls: syntax.split("{}") for cls, syntax in _SYNTAX.items()}
#: infix nodes whose left operand, where it is the same node, prints without
#: its brackets: the parser reads every infix chain to the left
_LEFT_CHAINS = frozenset({Union, Intersection, NaturalJoin})


def ra_to_text(expr: RaExpr) -> str:
    """Deterministic textual form; reparsing yields an equal AST.

    A left-deep chain of one infix operator prints with one pair of
    brackets, `(R UNION S UNION T)`, so it reparses at any length.  Other
    nesting keeps its brackets, and the parser reads brackets at most
    `parsing.MAX_DEPTH` deep: a chain of alternating operators such as
    `((R UNION S) JOIN T)`, or a compiled `=>` chain of nested `RES(…)`,
    prints text that does not reparse past that depth.
    """
    return _rope_text(fold(expr, _text_rule)[id(expr)])


def _rope_text(rope) -> str:
    """The text of a rope: a string, or a tuple of ropes read in order.
    The printers' rules return ropes holding their children's ropes, so a
    node's text is never copied into its parent's, and printing takes time
    linear in the length of the text at any depth."""
    out, stack = [], [rope]
    while stack:
        part = stack.pop()
        if type(part) is str:
            out.append(part)
        else:
            stack.extend(reversed(part))
    return "".join(out)


def _text_rule(expr: RaExpr, *t):
    """The text of one node as a rope, from its children's ropes `t`."""
    match expr:
        case RelSym(name, _):
            return name
        case DeeConst(degree):
            return f"DEE({degree_to_literal(degree)})"
        case Singleton(attr, value):
            return f"[{attr}: {value_to_literal(value)}]"
        case Projection(scheme):
            return (f"PROJECT[{_attr_list(scheme)}](", t[0], ")")
        case EadomExpr(scheme, constants):
            # a constant off the scheme never reaches the table, so it is not printed
            own = sorted((c for c in constants if c[0] in scheme),
                         key=lambda c: (c[0], type(c[1]).__name__, c[1]))
            listed = ", ".join(f"{a}: {value_to_literal(v)}" for a, v in own)
            return f"EADOM[{_attr_list(scheme)}{'; ' if own else ''}{listed}]"
    pieces = _PIECES.get(type(expr))
    if pieces is None:
        raise TypeError(f"not an RA expression: {type(expr).__name__}")
    if type(expr) in _LEFT_CHAINS and type(expr.left) is type(expr):
        t = (t[0][1:-1], t[1])  # the left operand's rope without its brackets
    return (pieces[0], *itertools.chain.from_iterable(zip(t, pieces[1:])))
