"""Pseudo tuple calculus: expressions over tuple variables, their
well-formedness, and the constructive compiler into relational algebra,
through which they are evaluated.

Evaluation is domain-bounded: a calculus expression denotes a table whose
support lies inside the extended active domain of its free scheme, built
from the whole instance plus any constants the expression introduces
through singleton relations.  Universal and existential quantifiers
aggregate with ⋀/⋁ over the bound scheme's active domain; over an empty
domain they fall back to top/bottom and a warning is issued, since such
queries are almost always mistakes.

The calculus has one evaluation path: `eval_ptc` evaluates exactly the
algebra expression that `compile_ptc_to_ra` returns and `COMPILE` prints.
A ⋁ is a projection.  A ⋀ is a Codd division, GCODD, over the free
scheme's active domain, so the calculus shares the divisions'
residuum-infimum kernel.  Its cost per output row is the divisor's size:
for `ALL b . (Q(b) => φ)` with Q on exactly the bound variables and φ
covering the free and bound schemes, Q itself is the divisor, and the ∀
costs Q's support; any other ∀ divides by EADOM[bound].  The paper's
literal translation and its variable-splitting lemma cross-check this in
`gradix.harness.composed`.
"""

from __future__ import annotations

import warnings
from typing import Iterable

from . import algebra as ra
from .errors import PtcError
from .table import DatabaseInstance, RankedDataTable, Scheme

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


# -- compilation to relational algebra, and evaluation through it ------------


def compile_ptc_to_ra(expr: PtcExpr):
    """Constructive translation into relational algebra, the one that
    `eval_ptc` evaluates.

    Atoms pass through; ⊗ becomes a natural join; ∧ and → extend each side
    by EADOM over only the attributes the other side adds, not at all where
    a side covers them already, and become an intersection and the residuum
    ranged over the EADOM of both schemes; ∇/Δ map to their table forms;
    ⋁ projects the bound scheme away.  Every ⋀ becomes a Codd division,
    GCODD, over the free scheme's EADOM.  For `ALL b . (Q(b) => φ)`, with
    Q on exactly the bound variables and φ covering the free and bound
    schemes, Q is the divisor and φ the dividend, and the `=>` is never
    scored: off Q's support every term is 0 → x = top.  Any other ⋀
    divides its body by EADOM over the bound scheme.  The paper's literal
    translation, which divides every body by that EADOM, is
    `gradix.harness.composed.compile_ptc_literal`.
    """
    return _compile(expr, *_check(expr))[0]


def _compile(expr: PtcExpr, free: dict, consts: frozenset) -> tuple:
    """`compile_ptc_to_ra` from `_check`'s results, and for each quantifier
    what it aggregates, as text, with its bound scheme."""
    quantifiers = []

    def free_scheme(node) -> Scheme:
        return scheme_of_vars(free[id(node)])

    def ead(scheme: Scheme):
        return ra.EadomExpr(scheme, frozenset(c for c in consts if c[0] in scheme))

    def extend(e, scheme: Scheme, other: Scheme):
        """`e`, on `scheme`, joined with EADOM over what `other` adds."""
        extra = other - scheme
        return ra.NaturalJoin(e, ead(extra)) if extra else e

    def kids(node) -> tuple:
        match node:
            case PtcInf(bound, PtcBinary(op, antecedent, consequent)) if (
                op == RESIDUUM and free[id(antecedent)] == bound
                and free_scheme(consequent) == free_scheme(node) | scheme_of_vars(bound)
            ):
                # the ∀ divides by its antecedent, so its `=>` is never compiled
                return antecedent, consequent
        return _calculus_children(node)

    def rule(node, *f):
        match node:
            case Atom(e, _):
                return e
            case PtcBinary(op, left, right):
                if op == OTIMES:
                    return ra.NaturalJoin(*f)
                s1, s2 = free_scheme(left), free_scheme(right)
                sides = extend(f[0], s1, s2), extend(f[1], s2, s1)
                if op == MEET:
                    return ra.Intersection(*sides)
                return ra.ResiduumRange(*sides, ead(s1 | s2))
            case PtcNabla():
                return ra.Nabla(*f)
            case PtcDelta():
                return ra.Delta(*f)
            case PtcSup(bound, _):
                quantifiers.append(("existential quantification", scheme_of_vars(bound)))
                return ra.Projection(free_scheme(node), *f)
            case PtcInf(bound, _):
                bound_scheme = scheme_of_vars(bound)
                quantifiers.append(("universal quantification", bound_scheme))
                if len(f) == 2:  # the antecedent and the consequent, from `kids`
                    divisor, dividend = f
                else:
                    # every term is top → x, which is x exactly
                    dividend, divisor = f[0], ead(bound_scheme)
                return ra.GCodd(dividend, divisor, ead(free_scheme(node)))
        raise TypeError(f"not a PTC expression: {type(node).__name__}")

    return ra.fold(expr, rule, kids)[id(expr)], quantifiers


def eval_ptc(expr: PtcExpr, instance: DatabaseInstance) -> RankedDataTable:
    """Evaluate against an instance; result on the free scheme.

    The result is the table of exactly the expression `compile_ptc_to_ra`
    returns, evaluated as `algebra.eval_ra` would evaluate it; the
    well-formedness checks run once, here, so the scheme inference that
    `eval_ra` adds is not repeated.  A ∀ that divides by its antecedent
    costs the antecedent's support per output row; any other ∀ costs
    |EADOM[bound]| per output row, which is exponential in the bound
    arity.  A quantifier over a scheme whose EADOM is empty warns.
    """
    free, consts = _check(expr)
    compiled, quantifiers = _compile(expr, free, consts)

    def has_values(attr: str) -> bool:
        return any(a == attr for a, _v in consts) or any(
            attr in d.scheme and len(d) for _name, d in instance.tables())

    for what, scheme in quantifiers:
        # EADOM over a scheme is empty exactly when one of its attributes has no value
        if not all(map(has_values, scheme)):
            warnings.warn(
                f"{what} over attributes {sorted(scheme)} with an empty "
                "extended active domain; the aggregation is vacuous",
                stacklevel=2,
            )
    ev = ra._Evaluator(instance)
    return ev.table(ra.fold(compiled, ev.number)[id(compiled)])


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
