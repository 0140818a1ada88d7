"""Relational-algebra expressions: AST, static scheme inference, evaluation
against a database instance, and extended-active-domain machinery.

The AST nodes are frozen, hashable values; evaluation is naive bottom-up
with memoization by structural identity.  The core node set keeps the
ranged division, the residuum-with-range, and the EADOM table source; the
remaining divisions are sugar nodes evaluated through the division module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from . import division as dv
from . import table as tb
from .errors import SchemeError
from .table import DatabaseInstance, RankedDataTable, Scheme, Tuple


@dataclass(frozen=True)
class RelSym:
    """Relation symbol; the scheme is carried so scheme inference needs no
    instance.  A parser may leave it None and resolve later."""

    name: str
    scheme: Scheme | None = None


@dataclass(frozen=True)
class DeeConst:
    """Table on the empty scheme scoring the empty tuple with a literal.

    The literal is written like a CSV rank: a number in [0, 1] (snapped to
    chain levels on finite chains) or a carrier label string.
    """

    degree: object


@dataclass(frozen=True)
class Singleton:
    """One attribute, one value, score 1; the only way an expression can
    introduce a value that is absent from the database."""

    attribute: str
    value: object


@dataclass(frozen=True)
class Union:
    left: "RaExpr"
    right: "RaExpr"


@dataclass(frozen=True)
class Intersection:
    left: "RaExpr"
    right: "RaExpr"


@dataclass(frozen=True)
class NaturalJoin:
    left: "RaExpr"
    right: "RaExpr"


@dataclass(frozen=True)
class Projection:
    scheme: Scheme
    child: "RaExpr"


@dataclass(frozen=True)
class Nabla:
    child: "RaExpr"


@dataclass(frozen=True)
class Delta:
    child: "RaExpr"


@dataclass(frozen=True)
class ResiduumRange:
    left: "RaExpr"
    right: "RaExpr"
    rng: "RaExpr"


@dataclass(frozen=True)
class DivRanged:
    dividend: "RaExpr"
    divisor: "RaExpr"
    rng: "RaExpr"


@dataclass(frozen=True)
class EadomExpr:
    """Extended active domain of the whole instance over a scheme, extended
    with any constants baked in (the calculus compiler adds the singleton
    constants of the expression being compiled)."""

    scheme: Scheme
    constants: frozenset = field(default_factory=frozenset)


# -- sugar nodes -----------------------------------------------------------


@dataclass(frozen=True)
class Semijoin:
    left: "RaExpr"
    right: "RaExpr"


@dataclass(frozen=True)
class GradedDifference:
    left: "RaExpr"
    right: "RaExpr"


@dataclass(frozen=True)
class Semidifference:
    left: "RaExpr"
    right: "RaExpr"


@dataclass(frozen=True)
class GSDO:
    dividend: "RaExpr"
    divisor: "RaExpr"
    mediator: "RaExpr"


@dataclass(frozen=True)
class GSD:
    dividend: "RaExpr"
    divisor: "RaExpr"
    mediator: "RaExpr"


@dataclass(frozen=True)
class GGDO:
    dividend: "RaExpr"
    divisor: "RaExpr"
    mediator1: "RaExpr"
    mediator2: "RaExpr"


@dataclass(frozen=True)
class GDDO:
    dividend: "RaExpr"
    divisor: "RaExpr"
    mediator1: "RaExpr"
    mediator2: "RaExpr"


@dataclass(frozen=True)
class GCodd:
    dividend: "RaExpr"
    divisor: "RaExpr"
    universe: "RaExpr"


@dataclass(frozen=True)
class GTodd:
    dividend: "RaExpr"
    divisor: "RaExpr"
    universe: "RaExpr"


RaExpr = (
    RelSym | DeeConst | Singleton | Union | Intersection | NaturalJoin
    | Projection | Nabla | Delta | ResiduumRange | DivRanged | EadomExpr
    | Semijoin | GradedDifference | Semidifference
    | GSDO | GSD | GGDO | GDDO | GCodd | GTodd
)


def _fail(node, message: str):
    raise SchemeError(f"{type(node).__name__}: {message}")


def scheme_of(expr: RaExpr) -> Scheme:
    """Static scheme of the evaluation result; instance-independent."""
    match expr:
        case RelSym(name, scheme):
            if scheme is None:
                _fail(expr, f"symbol {name!r} has no resolved scheme")
            return scheme
        case DeeConst():
            return tb.EMPTY_SCHEME
        case Singleton(attribute=a):
            return frozenset({a})
        case Union(l, r) | Intersection(l, r):
            s1, s2 = scheme_of(l), scheme_of(r)
            if s1 != s2:
                _fail(expr, f"operand schemes {sorted(s1)} and {sorted(s2)} differ")
            return s1
        case NaturalJoin(l, r):
            return scheme_of(l) | scheme_of(r)
        case Projection(scheme, child):
            s = scheme_of(child)
            if not scheme <= s:
                _fail(expr, f"target {sorted(scheme)} not within {sorted(s)}")
            return frozenset(scheme)
        case Nabla(child) | Delta(child):
            return scheme_of(child)
        case ResiduumRange(l, r, g):
            s1, s2, s3 = scheme_of(l), scheme_of(r), scheme_of(g)
            if not (s1 == s2 == s3):
                _fail(expr, "the two sides and the range must share one scheme")
            return s1
        case DivRanged(dividend, divisor, rng):
            s_s, s_r = scheme_of(divisor), scheme_of(rng)
            if s_s & s_r:
                _fail(expr, "divisor and range schemes overlap")
            if scheme_of(dividend) != s_s | s_r:
                _fail(expr, "dividend scheme must be the union of divisor and range schemes")
            return s_r
        case EadomExpr(scheme=s):
            return s
        case Semijoin(l, r):
            scheme_of(r)
            return scheme_of(l)
        case GradedDifference(l, r):
            s1, s2 = scheme_of(l), scheme_of(r)
            if s1 != s2:
                _fail(expr, "difference needs equal schemes")
            return s1
        case Semidifference(l, r):
            scheme_of(r)
            return scheme_of(l)
        case GSDO(d1, d2, d3):
            r, s, m = scheme_of(d1), scheme_of(d2), scheme_of(d3)
            if r & s or m != r | s:
                _fail(expr, "wants dividend R, divisor S, mediator R∪S with R∩S=∅")
            return r
        case GSD(d1, d2, d3):
            s1 = scheme_of(d1)
            dv.gsd_roles(s1, scheme_of(d2), scheme_of(d3))
            return s1
        case GGDO(d1, d2, d3, d4):
            r, t, m3, m4 = scheme_of(d1), scheme_of(d2), scheme_of(d3), scheme_of(d4)
            s = m3 - r
            if (r & t) or (s & t) or m3 != r | s or m4 != s | t:
                _fail(expr, "wants dividend R, divisor T, mediators R∪S and S∪T")
            return r | t
        case GDDO(d1, d2, d3, d4):
            scheme_of(d3), scheme_of(d4)
            return scheme_of(d1) | scheme_of(d2)
        case GCodd(d1, d2, u):
            s, r = scheme_of(d2), scheme_of(u)
            if s & r or scheme_of(d1) != r | s:
                _fail(expr, "wants dividend R∪S, divisor S, universe R")
            return r
        case GTodd(d1, d2, u):
            s1, s2 = scheme_of(d1), scheme_of(d2)
            s = s1 & s2
            rt = (s1 - s) | (s2 - s)
            if scheme_of(u) != rt:
                _fail(expr, "universe must cover the non-shared scheme parts")
            return rt
    raise TypeError(f"not an RA expression: {expr!r}")


def children_of(expr: RaExpr) -> tuple:
    match expr:
        case RelSym() | DeeConst() | Singleton() | EadomExpr():
            return ()
        case Projection(_, child) | Nabla(child) | Delta(child):
            return (child,)
        case (Union(l, r) | Intersection(l, r) | NaturalJoin(l, r)
              | Semijoin(l, r) | GradedDifference(l, r) | Semidifference(l, r)):
            return (l, r)
        case ResiduumRange(l, r, g):
            return (l, r, g)
        case DivRanged(a, b, c) | GSDO(a, b, c) | GSD(a, b, c) | GCodd(a, b, c) | GTodd(a, b, c):
            return (a, b, c)
        case GGDO(a, b, c, d) | GDDO(a, b, c, d):
            return (a, b, c, d)
    raise TypeError(f"not an RA expression: {expr!r}")


def walk(expr: RaExpr):
    yield expr
    for child in children_of(expr):
        yield from walk(child)


def constants_of(expr: RaExpr) -> frozenset:
    """All (attribute, value) constants the expression can introduce."""
    out = set()
    for node in walk(expr):
        if isinstance(node, Singleton):
            out.add((node.attribute, node.value))
        elif isinstance(node, EadomExpr):
            out |= node.constants
    return frozenset(out)


def symbols_of(expr: RaExpr) -> dict:
    """name → scheme for every relation symbol occurring in the expression."""
    out: dict[str, Scheme | None] = {}
    for node in walk(expr):
        if isinstance(node, RelSym):
            prev = out.get(node.name)
            if prev is not None and node.scheme is not None and prev != node.scheme:
                _fail(node, f"symbol {node.name!r} used with two schemes")
            out[node.name] = node.scheme if node.scheme is not None else prev
    return out


def resolve_schemes(expr: RaExpr, schemes: Mapping[str, Scheme]) -> RaExpr:
    """Annotate unresolved relation symbols with schemes from a catalog."""

    def rec(node):
        if isinstance(node, RelSym):
            if node.scheme is not None:
                return node
            if node.name not in schemes:
                from .errors import UnboundSymbolError

                raise UnboundSymbolError(f"relation symbol {node.name!r} is not defined")
            return RelSym(node.name, frozenset(schemes[node.name]))
        kids = children_of(node)
        if not kids:
            return node
        new_kids = tuple(rec(k) for k in kids)
        if new_kids == kids:
            return node
        return _rebuild(node, new_kids)

    return rec(expr)


def _rebuild(node, kids):
    match node:
        case Projection(scheme, _):
            return Projection(scheme, kids[0])
        case Nabla():
            return Nabla(kids[0])
        case Delta():
            return Delta(kids[0])
        case _:
            return type(node)(*kids)


# -- active domains --------------------------------------------------------


def adom(attr: str, d: RankedDataTable) -> RankedDataTable:
    """Active domain π_{y}(∇D): the attribute's values at score 1."""
    if attr not in d.scheme:
        raise SchemeError(f"attribute {attr!r} not in scheme {sorted(d.scheme)}")
    return tb.projection(tb.nabla(d), frozenset({attr}))


def eadom_values(instance: DatabaseInstance, attr: str, extra_values=()) -> list:
    """Sorted distinct values the instance (plus constants) provides for attr."""
    vals = {v for a, v in extra_values if a == attr}
    for _name, d in instance.tables():
        if attr in d.scheme:
            i = tb.attrs_of(d.scheme).index(attr)
            vals.update(t._values[i] for t in d.rows)
    return sorted(vals, key=lambda v: (type(v).__name__, v))


def eadom(instance: DatabaseInstance, scheme: Scheme, extra_values=()) -> RankedDataTable:
    """Extended active domain over a scheme: the cross join of per-attribute
    domains, every tuple at score 1.  eadom(∅) is Dee₁; an attribute with no
    values anywhere yields the empty table."""
    names = tb.attrs_of(scheme)
    lat = instance.lattice
    if not names:
        return tb.dee(lat, lat.top)
    columns = [eadom_values(instance, a, extra_values) for a in names]
    rows = dict.fromkeys(
        (tb._make_tuple(names, combo) for combo in itertools.product(*columns)), lat.top
    )
    return tb._table(frozenset(scheme), lat, rows)


def eadom_ra_expr(
    scheme: Scheme,
    symbols: Mapping[str, Scheme],
    constants: Iterable = (),
    witness_values: Mapping[str, object] | None = None,
) -> RaExpr:
    """An explicit π/∇/∪/⋈ expression whose value is the extended active
    domain over `scheme` in any instance binding the given symbols.

    Attributes covered by no symbol and no constant have an empty domain;
    they are rendered as a self-difference of a placeholder singleton (the
    witness value never survives into the result).
    """
    attrs = sorted(scheme)
    if not attrs:
        return DeeConst(1)
    consts = sorted(set(constants), key=lambda c: (c[0], str(c[1])))
    per_attr = []
    for a in attrs:
        parts: list[RaExpr] = [
            Projection(frozenset({a}), Nabla(RelSym(name, frozenset(s))))
            for name, s in sorted(symbols.items())
            if a in s
        ]
        parts.extend(Singleton(a, v) for attr, v in consts if attr == a)
        if not parts:
            witness = (witness_values or {}).get(a, 0)
            ghost = Singleton(a, witness)
            expr: RaExpr = GradedDifference(ghost, ghost)
        else:
            expr = parts[0]
            for p in parts[1:]:
                expr = Union(expr, p)
        per_attr.append(expr)
    out = per_attr[0]
    for e in per_attr[1:]:
        out = NaturalJoin(out, e)
    return out


# -- evaluation ------------------------------------------------------------


class _Evaluator:
    def __init__(self, instance: DatabaseInstance):
        self.instance = instance
        self.memo: dict = {}
        self._eadom_cache: dict = {}

    def eadom_table(self, scheme: Scheme, constants: frozenset) -> RankedDataTable:
        key = (scheme, constants)
        if key not in self._eadom_cache:
            self._eadom_cache[key] = eadom(self.instance, scheme, constants)
        return self._eadom_cache[key]

    def eval(self, expr: RaExpr) -> RankedDataTable:
        hit = self.memo.get(expr)
        if hit is not None:
            return hit
        out = self._eval(expr)
        self.memo[expr] = out
        return out

    def _eval(self, expr: RaExpr) -> RankedDataTable:
        lat = self.instance.lattice
        match expr:
            case RelSym(name, scheme):
                d = self.instance.table(name)
                if scheme is not None and d.scheme != scheme:
                    _fail(expr, f"symbol {name!r} bound to scheme {sorted(d.scheme)}")
                return d
            case DeeConst(degree):
                return tb.dee(lat, _coerce_degree(lat, degree))
            case Singleton(attr, value):
                return RankedDataTable(
                    frozenset({attr}), lat, {Tuple({attr: value}): lat.top}
                )
            case Union(l, r):
                return tb.union(self.eval(l), self.eval(r))
            case Intersection(l, r):
                return tb.intersection(self.eval(l), self.eval(r))
            case NaturalJoin(l, r):
                return tb.natural_join(self.eval(l), self.eval(r))
            case Projection(scheme, child):
                return tb.projection(self.eval(child), scheme)
            case Nabla(child):
                return tb.nabla(self.eval(child))
            case Delta(child):
                return tb.delta(self.eval(child))
            case ResiduumRange(l, r, g):
                return tb.residuum_with_range(self.eval(l), self.eval(r), self.eval(g))
            case DivRanged(dividend, divisor, rng):
                return dv.div_ranged(self.eval(dividend), self.eval(divisor), self.eval(rng))
            case EadomExpr(scheme, constants):
                return self.eadom_table(scheme, constants)
            case Semijoin(l, r):
                return tb.semijoin(self.eval(l), self.eval(r))
            case GradedDifference(l, r):
                return tb.difference_graded(self.eval(l), self.eval(r))
            case Semidifference(l, r):
                return dv.semidifference(self.eval(l), self.eval(r))
            case GSDO(d1, d2, d3):
                return dv.div_gsdo(self.eval(d1), self.eval(d2), self.eval(d3))
            case GSD(d1, d2, d3):
                return dv.div_gsd(self.eval(d1), self.eval(d2), self.eval(d3))
            case GGDO(d1, d2, d3, d4):
                return dv.div_ggdo(self.eval(d1), self.eval(d2), self.eval(d3), self.eval(d4))
            case GDDO(d1, d2, d3, d4):
                return dv.div_gddo(self.eval(d1), self.eval(d2), self.eval(d3), self.eval(d4))
            case GCodd(d1, d2, u):
                return dv.div_gcodd(self.eval(d1), self.eval(d2), self.eval(u))
            case GTodd(d1, d2, u):
                return dv.div_gtodd(self.eval(d1), self.eval(d2), self.eval(u))
        raise TypeError(f"not an RA expression: {expr!r}")


def _coerce_degree(lat, raw):
    if isinstance(raw, str):
        return lat.parse_degree(raw)
    return lat.parse_degree(repr(raw) if isinstance(raw, float) else str(raw))


def eval_ra(expr: RaExpr, instance: DatabaseInstance) -> RankedDataTable:
    """Evaluate an expression; every relation symbol must be bound and the
    expression must pass static scheme inference."""
    scheme_of(expr)
    return _Evaluator(instance).eval(expr)


# -- pretty printing -------------------------------------------------------


def value_to_literal(v) -> str:
    """Render a value as source text the parser reads back to the same value."""
    if isinstance(v, str):
        escaped = v.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        s = f"{v:.9g}"
        if "." not in s and "e" not in s and "inf" not in s and "nan" not in s:
            s += ".0"
        return s
    return str(v)


def degree_to_literal(d) -> str:
    if isinstance(d, str):
        return value_to_literal(d)
    if isinstance(d, float):
        return f"{d:.9g}"
    return str(d)


def _attr_list(scheme: Scheme) -> str:
    return ",".join(sorted(scheme))


def ra_to_text(expr: RaExpr) -> str:
    """Deterministic textual form; reparsing yields an equal AST."""
    match expr:
        case RelSym(name, _):
            return name
        case DeeConst(degree):
            return f"DEE({degree_to_literal(degree)})"
        case Singleton(attr, value):
            return f"[{attr}: {value_to_literal(value)}]"
        case Union(l, r):
            return f"({ra_to_text(l)} UNION {ra_to_text(r)})"
        case Intersection(l, r):
            return f"({ra_to_text(l)} ISECT {ra_to_text(r)})"
        case NaturalJoin(l, r):
            return f"({ra_to_text(l)} JOIN {ra_to_text(r)})"
        case Projection(scheme, child):
            return f"PROJECT[{_attr_list(scheme)}]({ra_to_text(child)})"
        case Nabla(child):
            return f"NABLA({ra_to_text(child)})"
        case Delta(child):
            return f"DELTA({ra_to_text(child)})"
        case ResiduumRange(l, r, g):
            return f"RES({ra_to_text(l)} -> {ra_to_text(r)} OVER {ra_to_text(g)})"
        case DivRanged(dividend, divisor, rng):
            return f"DIV({ra_to_text(dividend)} BY {ra_to_text(divisor)} OVER {ra_to_text(rng)})"
        case EadomExpr(scheme, _):
            return f"EADOM[{_attr_list(scheme)}]"
        case Semijoin(l, r):
            return f"SEMIJOIN({ra_to_text(l)}, {ra_to_text(r)})"
        case GradedDifference(l, r):
            return f"GDIFF({ra_to_text(l)}, {ra_to_text(r)})"
        case Semidifference(l, r):
            return f"SEMIDIFF({ra_to_text(l)}, {ra_to_text(r)})"
        case GSDO(d1, d2, d3):
            return f"GSDO({ra_to_text(d1)}, {ra_to_text(d2)}; MED {ra_to_text(d3)})"
        case GSD(d1, d2, d3):
            return f"GSD({ra_to_text(d1)}, {ra_to_text(d2)}; MED {ra_to_text(d3)})"
        case GGDO(d1, d2, d3, d4):
            return f"GGDO({ra_to_text(d1)}, {ra_to_text(d2)}; MED {ra_to_text(d3)}, {ra_to_text(d4)})"
        case GDDO(d1, d2, d3, d4):
            return f"GDDO({ra_to_text(d1)}, {ra_to_text(d2)}; MED {ra_to_text(d3)}, {ra_to_text(d4)})"
        case GCodd(d1, d2, u):
            return f"GCODD({ra_to_text(d1)}, {ra_to_text(d2)}; UNIV {ra_to_text(u)})"
        case GTodd(d1, d2, u):
            return f"GTODD({ra_to_text(d1)}, {ra_to_text(d2)}; UNIV {ra_to_text(u)})"
    raise TypeError(f"not an RA expression: {expr!r}")
