"""Pseudo tuple calculus: expressions over tuple variables, their evaluation
against a database instance, the variable splitting transform, and the
constructive compiler into relational algebra.

Evaluation is domain-bounded: a calculus expression denotes a table whose
support lies inside the extended active domain of its free scheme, built
from the whole instance plus any constants the expression introduces
through singleton relations.  Universal and existential quantifiers
aggregate with ⋀/⋁ over the bound scheme's active domain; over an empty
domain they fall back to top/bottom and a warning is issued, since such
queries are almost always mistakes.

A ⋁ is a projection.  A ⋀ is a Codd division, `division.div_gcodd`, over
the free scheme's active domain, so the calculus shares the divisions'
residuum-infimum kernel.  Its cost per output row is the divisor's size:
for `ALL b . (Q(b) => φ)` with Q on exactly the bound variables and φ
covering the free and bound schemes, Q itself is the divisor, and the ∀
costs Q's support; any other ∀ divides by EADOM[bound].
"""

from __future__ import annotations

import warnings
from typing import Iterable

from . import algebra as ra
from . import division as dv
from . import table as tb
from .errors import PtcError
from .table import DatabaseInstance, RankedDataTable, Scheme, Tuple

OTIMES = "otimes"
MEET = "meet"
RESIDUUM = "residuum"
_BINARY_OPS = (OTIMES, MEET, RESIDUUM)


class TupleVar(ra.Node):
    __slots__ = ("name", "scheme")


class Atom(ra.Node):
    """A relational-algebra expression applied to tuple variables whose
    schemes jointly cover its scheme."""

    __slots__ = ("expr", "vars")
    _kids = ("expr",)


class PtcBinary(ra.Node):
    __slots__ = ("op", "left", "right")
    _kids = ("left", "right")

    def __post_init__(self):
        if self.op not in _BINARY_OPS:
            raise PtcError(f"unknown connective {self.op!r}")


class PtcNabla(ra.Node):
    __slots__ = _kids = ("body",)


class PtcDelta(ra.Node):
    __slots__ = _kids = ("body",)


class PtcSup(ra.Node):
    __slots__ = ("bound", "body")
    _kids = ("body",)


class PtcInf(ra.Node):
    __slots__ = ("bound", "body")
    _kids = ("body",)


PtcExpr = Atom | PtcBinary | PtcNabla | PtcDelta | PtcSup | PtcInf


def _calculus_children(node) -> tuple:
    """A calculus node's children, with atoms as leaves."""
    return () if type(node) is Atom else ra.children(node)


def _free_rule(node, *below) -> frozenset:
    match node:
        case Atom(_, vs):
            return vs
        case PtcSup(bound, _) | PtcInf(bound, _):
            return below[0] - bound
        case PtcBinary() | PtcNabla() | PtcDelta():
            return frozenset().union(*below)
    raise TypeError(f"not a PTC expression: {type(node).__name__}")


def free_vars(expr: PtcExpr) -> frozenset:
    return ra.fold(expr, _free_rule, _calculus_children)[id(expr)]


def scheme_of_vars(vs: Iterable[TupleVar]) -> Scheme:
    out: frozenset = frozenset()
    for v in vs:
        out |= v.scheme
    return out


def ptc_scheme(expr: PtcExpr) -> Scheme:
    """The free relation scheme of the expression."""
    return scheme_of_vars(free_vars(expr))


def all_vars(expr: PtcExpr) -> frozenset:
    out: set = set()
    for node in ra.walk(expr, _calculus_children):
        match node:
            case Atom(_, vs) | PtcSup(vs, _) | PtcInf(vs, _):
                out |= vs
    return frozenset(out)


def atoms_of(expr: PtcExpr) -> list:
    return [node for node in ra.walk(expr, _calculus_children) if type(node) is Atom]


def ptc_constants(expr: PtcExpr) -> frozenset:
    """Singleton-introduced constants anywhere inside the expression."""
    return ra.constants_of(expr)


def valuation(vs: Iterable[TupleVar], r: Tuple) -> dict:
    """The valuation a tuple induces: each variable gets r's projection
    onto its scheme; joining the values back reconstructs r."""
    return {v: r.project(v.scheme) for v in vs}


def validate_ptc(expr: PtcExpr) -> None:
    """Well-formedness: consistent variable schemes per name, atom variables
    covering the atom's scheme, quantifiers binding free variables whose
    scheme is disjoint from the remaining free scheme."""
    _check(expr)


def _check(expr: PtcExpr) -> tuple[dict, frozenset]:
    """`validate_ptc`'s checks, node by node.  Then id(node) → the node's
    free variables (its scheme, inside an atom), and the constants."""
    if not isinstance(expr, PtcExpr):
        raise TypeError(f"not a PTC expression: {type(expr).__name__}")
    registry: dict[str, Scheme] = {}
    consts: set = set()

    def register(vs: frozenset):
        for v in vs:
            prev = registry.setdefault(v.name, v.scheme)
            if prev != v.scheme:
                raise PtcError(
                    f"tuple variable {v.name!r} used with schemes "
                    f"{sorted(prev)} and {sorted(v.scheme)}"
                )

    def rule(node, *below):
        match node:
            case Atom(_, vs):
                register(vs)
                covered = scheme_of_vars(vs)
                if covered != below[0]:
                    raise PtcError(
                        f"atom variables cover {sorted(covered)} but the "
                        f"expression is on {sorted(below[0])}"
                    )
            case PtcSup(bound, _) | PtcInf(bound, _):
                register(bound)
                if not bound:
                    raise PtcError("quantifier binds no variables")
                if not bound <= below[0]:
                    raise PtcError("quantifier binds variables not free in its body")
                overlap = scheme_of_vars(bound) & scheme_of_vars(below[0] - bound)
                if overlap:
                    raise PtcError(
                        "bound scheme overlaps the free remainder on "
                        f"{sorted(overlap)}"
                    )
            case PtcBinary() | PtcNabla() | PtcDelta():
                pass
            case ra.Singleton() | ra.EadomExpr():
                consts.update(ra.node_constants(node))
                return ra._scheme_rule(node)
            case _:  # inside an atom
                return ra._scheme_rule(node, *below)
        return _free_rule(node, *below)

    return ra.fold(expr, rule), frozenset(consts)


# -- evaluation ------------------------------------------------------------


def eval_ptc(expr: PtcExpr, instance: DatabaseInstance) -> RankedDataTable:
    """Evaluate against an instance; result on the free scheme.

    Every ⋀ is a Codd division (`division.div_gcodd`) of its body over the
    free scheme's active domain.  When the body is an implication whose
    antecedent is on exactly the bound variables and whose consequent covers
    the free and bound schemes, the antecedent is the divisor: bound tuples
    outside its support contribute 0 → x = 1, so such a ∀ costs its
    antecedent's support per output row.  Any other ∀ divides the body by
    the bound scheme's active domain and costs |EADOM[bound]| per output
    row, which is exponential in the bound arity.
    """
    free, consts = _check(expr)
    ev = ra._Evaluator(instance)
    lat = instance.lattice

    def free_scheme(node) -> Scheme:
        return scheme_of_vars(free[id(node)])

    def ead(scheme: Scheme) -> RankedDataTable:
        return ev.eadom_table(frozenset(scheme), consts)

    def has_values(attr: str) -> bool:
        return any(a == attr for a, _v in consts) or any(
            attr in d.scheme and len(d) for _name, d in instance.tables())

    def warn_if_empty(scheme: Scheme, what: str):
        # EADOM over a scheme is empty exactly when one of its attributes has no value
        if not all(map(has_values, scheme)):
            warnings.warn(
                f"{what} over attributes {sorted(scheme)} with an empty "
                "extended active domain; the aggregation is vacuous",
                stacklevel=2,
            )

    def kids(node) -> tuple:
        match node:
            case PtcInf(bound, PtcBinary(op, antecedent, consequent)) if (
                op == RESIDUUM and free[id(antecedent)] == bound
                and free_scheme(consequent) == free_scheme(node) | scheme_of_vars(bound)
            ):
                # the ∀ divides by its antecedent, so its `=>` is never scored
                return antecedent, consequent
        return ra.children(node)

    def rule(node, *t) -> RankedDataTable:
        match node:
            case Atom():
                return ev.table(t[0])
            case PtcBinary(op, _, _):
                t1, t2 = t
                if op == OTIMES:
                    return tb.natural_join(t1, t2)
                if op == MEET:
                    return _pointwise_meet(t1, t2)
                scheme = t1.scheme | t2.scheme
                names = tb.attrs_of(scheme)
                to_1 = tb._project_plan(names, tb.attrs_of(t1.scheme))
                to_2 = tb._project_plan(names, tb.attrs_of(t2.scheme))
                score1, score2 = t1._rows.get, t2._rows.get
                kresiduum, bottom = lat.kresiduum, lat.bottom
                rows = {
                    u: kresiduum(score1(to_1(u), bottom), score2(to_2(u), bottom))
                    for u in ead(scheme)._rows
                }
                return tb._table(scheme, lat, rows)
            case PtcNabla():
                return tb.nabla(*t)
            case PtcDelta():
                return tb.delta(*t)
            case PtcSup(bound, _):
                warn_if_empty(scheme_of_vars(bound), "existential quantification")
                return tb.projection(*t, free_scheme(node))
            case PtcInf(bound, _):
                bound_scheme = scheme_of_vars(bound)
                if len(t) == 2:  # the antecedent and the consequent, from `kids`
                    # off the antecedent's support every term is 0 → x = top
                    divisor, dividend = t
                else:
                    # every term is top → x, which is x exactly
                    dividend, divisor = t[0], ead(bound_scheme)
                warn_if_empty(bound_scheme, "universal quantification")
                return dv.div_gcodd(dividend, divisor, ead(free_scheme(node)))
        return ev.number(node, *t)  # inside an atom

    return ra.fold(expr, rule, kids)[id(expr)]


def _pointwise_meet(t1: RankedDataTable, t2: RankedDataTable) -> RankedDataTable:
    """Like a natural join but aggregating with ∧ instead of ⊗."""
    return tb._join_rows(t1, t2, tb._same_lattice(t1, t2).kmeet)


# -- transforms ------------------------------------------------------------


class VarFactory:
    """Deterministic fresh-variable supply (counter-based)."""

    def __init__(self, prefix: str = "v"):
        self.prefix = prefix
        self.counter = 0

    def fresh(self, scheme: Scheme) -> TupleVar:
        v = TupleVar(f"{self.prefix}{self.counter}", frozenset(scheme))
        self.counter += 1
        return v


def embed_ra(expr, var_name: str = "t0") -> Atom:
    """Any RA expression is an atomic calculus expression over one fresh
    variable on its scheme."""
    return Atom(expr, frozenset({TupleVar(var_name, ra.scheme_of(expr))}))


def split_variable(expr: PtcExpr, var: TupleVar, parts: Iterable[TupleVar]) -> PtcExpr:
    """Replace one tuple variable by fresh variables that jointly cover its
    scheme; evaluation is unchanged in every instance."""
    parts = frozenset(parts)
    if scheme_of_vars(parts) != var.scheme:
        raise PtcError(
            f"parts cover {sorted(scheme_of_vars(parts))}, variable is on "
            f"{sorted(var.scheme)}"
        )

    def swap(vs: frozenset) -> frozenset:
        return (vs - {var}) | parts if var in vs else vs

    def rule(node, *below):
        match node:
            case Atom(e, vs):
                return Atom(e, swap(vs))
            case PtcSup(bound, _) | PtcInf(bound, _):
                return type(node)(swap(bound), *below)
        return ra._with_children(node, below)

    out = ra.fold(expr, rule, _calculus_children)[id(expr)]
    validate_ptc(out)
    return out


# -- compilation to relational algebra --------------------------------------

DIV_FORM = "div"
GSDO_FORM = "gsdo"


def compile_ptc_to_ra(expr: PtcExpr, inf_form: str = DIV_FORM):
    """Structural translation into relational algebra.

    Atoms pass through; ⊗ becomes a natural join; ∧ intersects the two
    sides after extending each to the full scheme with an active-domain
    join; → becomes the residuum ranged over the full scheme's active
    domain; ∇/Δ map to their table forms; ⋁ projects the bound scheme away;
    ⋀ becomes the ranged division of the body by the bound scheme's active
    domain over the free scheme's, or equivalently (inf_form="gsdo") the
    graded Small Divide with the body as mediator.  The compiled expression
    evaluates identically to the source in every instance, on all tuples.
    """
    if inf_form not in (DIV_FORM, GSDO_FORM):
        raise PtcError(f"unknown Inf compilation form {inf_form!r}")
    free, consts = _check(expr)

    def free_scheme(node) -> Scheme:
        return scheme_of_vars(free[id(node)])

    def ead(scheme: Scheme):
        scheme = frozenset(scheme)
        return ra.EadomExpr(scheme, frozenset(c for c in consts if c[0] in scheme))

    def rule(node, *f):
        match node:
            case Atom(e, _):
                return e
            case PtcBinary(op, l, r):
                if op == OTIMES:
                    return ra.NaturalJoin(*f)
                left = ra.NaturalJoin(f[0], ead(free_scheme(r)))
                right = ra.NaturalJoin(f[1], ead(free_scheme(l)))
                if op == MEET:
                    return ra.Intersection(left, right)
                return ra.ResiduumRange(left, right, ead(free_scheme(l) | free_scheme(r)))
            case PtcNabla():
                return ra.Nabla(*f)
            case PtcDelta():
                return ra.Delta(*f)
            case PtcSup():
                return ra.Projection(free_scheme(node), *f)
            case PtcInf(bound, _):
                bound_scheme, out_scheme = scheme_of_vars(bound), free_scheme(node)
                if inf_form == DIV_FORM:
                    return ra.DivRanged(*f, ead(bound_scheme), ead(out_scheme))
                return ra.GSDO(ead(out_scheme), ead(bound_scheme), *f)
        raise TypeError(f"not a PTC expression: {type(node).__name__}")

    return ra.fold(expr, rule, _calculus_children)[id(expr)]


# -- pretty printing -------------------------------------------------------

_OP_TEXT = {OTIMES: "*", MEET: "&", RESIDUUM: "=>"}


def _var_names(vs: Iterable[TupleVar]) -> str:
    return ", ".join(sorted(v.name for v in vs))


def ptc_to_text(expr: PtcExpr) -> str:
    """Deterministic textual form matching the calculus grammar."""
    return ra._rope_text(ra.fold(expr, _text_rule)[id(expr)])


def _text_rule(node, *t):
    """The text of one node as a rope (see `algebra._rope_text`)."""
    match node:
        case Atom(_, vs):
            return (t[0], f"({_var_names(vs)})")
        case PtcBinary(op, _, _):
            return ("(", t[0], f" {_OP_TEXT[op]} ", t[1], ")")
        case PtcNabla():
            return ("NABLA(", t[0], ")")
        case PtcDelta():
            return ("DELTA(", t[0], ")")
        case PtcSup(bound, _):
            return (f"ANY {_var_names(bound)} . (", t[0], ")")
        case PtcInf(bound, _):
            return (f"ALL {_var_names(bound)} . (", t[0], ")")
    return ra._text_rule(node, *t)  # inside an atom
