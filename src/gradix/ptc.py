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
One walk of a formula checks and compiles it, whether the caller wants
the check (`validate_ptc`), the compiled expression or its value;
`eval_ptc` walks the compiled expression once more, to number it for the
evaluator.  A ⋁ is a projection.  A ⋀ is a Codd division, GCODD, over the
free scheme's active domain, so the calculus shares the divisions'
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
    _compile(expr)


# -- compilation to relational algebra, and evaluation through it ------------


def _compile(expr: PtcExpr) -> tuple:
    """`validate_ptc`'s checks and `compile_ptc_to_ra`'s translation, in one
    fold.  Returns id(node) → result, the constants, and (what it
    aggregates, bound scheme) for each quantifier.  A calculus node's result
    is its free variables, free scheme and compiled form, and a `=>`'s adds
    its sides' results, so that a ∀ above it may divide by the antecedent;
    an atom's inner node gives its scheme."""
    if not isinstance(expr, PtcExpr):
        raise TypeError(f"not a PTC expression: {type(expr).__name__}")
    registry: dict[str, Scheme] = {}
    consts: set = set()
    quantifiers = []
    eadoms: dict = {}  # scheme → its EADOM node, whose constants come after the fold

    def register(vs: frozenset):
        for v in vs:
            prev = registry.setdefault(v.name, v.scheme)
            if prev != v.scheme:
                raise PtcError(
                    f"tuple variable {v.name!r} used with schemes "
                    f"{sorted(prev)} and {sorted(v.scheme)}"
                )

    def ead(scheme: Scheme):
        node = eadoms.get(scheme)
        if node is None:
            node = eadoms[scheme] = ra.EadomExpr(scheme)
        return node

    def extend(e, scheme: Scheme, other: Scheme):
        """`e`, on `scheme`, joined with EADOM over what `other` adds."""
        extra = other - scheme
        return ra.NaturalJoin(e, ead(extra)) if extra else e

    def rule(node, *below):
        cls = type(node)
        if cls is Atom:
            vs = node.vars
            register(vs)
            covered = scheme_of_vars(vs)
            if covered != below[0]:
                raise PtcError(
                    f"atom variables cover {sorted(covered)} but the "
                    f"expression is on {sorted(below[0])}"
                )
            return vs, covered, node.expr
        if cls is PtcBinary:
            left, right = below
            free, scheme = left[0] | right[0], left[1] | right[1]
            if node.op == OTIMES:
                return free, scheme, ra.NaturalJoin(left[2], right[2])
            sides = extend(left[2], left[1], right[1]), extend(right[2], right[1], left[1])
            if node.op == MEET:
                return free, scheme, ra.Intersection(*sides)
            return free, scheme, ra.ResiduumRange(*sides, ead(scheme)), left, right
        if cls is PtcSup or cls is PtcInf:
            bound, (body_free, _, body, *sides) = node.bound, below[0]
            register(bound)
            if not bound:
                raise PtcError("quantifier binds no variables")
            if not bound <= body_free:
                raise PtcError("quantifier binds variables not free in its body")
            free, bound_scheme = body_free - bound, scheme_of_vars(bound)
            scheme = scheme_of_vars(free)
            overlap = bound_scheme & scheme
            if overlap:
                raise PtcError(
                    "bound scheme overlaps the free remainder on "
                    f"{sorted(overlap)}"
                )
            if cls is PtcSup:
                quantifiers.append(("existential quantification", bound_scheme))
                return free, scheme, ra.Projection(scheme, body)
            quantifiers.append(("universal quantification", bound_scheme))
            if sides:  # the body is a `=>`; divide by its antecedent where it qualifies
                antecedent, consequent = sides
                if antecedent[0] == bound and consequent[1] == scheme | bound_scheme:
                    # off the antecedent's support every term is 0 → x = top
                    return free, scheme, ra.GCodd(consequent[2], antecedent[2], ead(scheme))
            # every term is top → x, which is x exactly
            return free, scheme, ra.GCodd(body, ead(bound_scheme), ead(scheme))
        if cls is PtcNabla or cls is PtcDelta:
            free, scheme, e = below[0][:3]
            return free, scheme, (ra.Nabla if cls is PtcNabla else ra.Delta)(e)
        if cls is ra.Singleton or cls is ra.EadomExpr:
            consts.update(ra.node_constants(node))
        return ra._scheme_rule(node, *below)  # inside an atom

    done = ra.fold(expr, rule)
    consts = frozenset(consts)
    for scheme, node in eadoms.items():  # new nodes, not yet seen outside this function
        ra.EadomExpr.constants.__set__(node, frozenset(c for c in consts if c[0] in scheme))
    return done, consts, quantifiers


def compile_ptc_to_ra(expr: PtcExpr):
    """Constructive translation into relational algebra, the one that
    `eval_ptc` evaluates, made in the one walk that checks the formula.

    Atoms pass through; ⊗ becomes a natural join; ∧ and → extend each side
    by EADOM over only the attributes the other side adds, not at all where
    a side covers them already, and become an intersection and the residuum
    ranged over the EADOM of both schemes; ∇/Δ map to their table forms;
    ⋁ projects the bound scheme away.  Every ⋀ becomes a Codd division,
    GCODD, over the free scheme's EADOM.  For `ALL b . (Q(b) => φ)`, with
    Q on exactly the bound variables and φ covering the free and bound
    schemes, Q is the divisor and φ the dividend, and the `=>` is not
    evaluated: off Q's support every term is 0 → x = top.  Any other ⋀
    divides its body by EADOM over the bound scheme.  The paper's literal
    translation, which divides every body by that EADOM, is
    `gradix.harness.composed.compile_ptc_literal`.
    """
    return _compile(expr)[0][id(expr)][2]


def eval_ptc(expr: PtcExpr, instance: DatabaseInstance) -> RankedDataTable:
    """Evaluate against an instance; result on the free scheme.

    The result is the table of the expression `compile_ptc_to_ra` returns,
    as `algebra.eval_ra` evaluates it, in two walks: one checks and
    compiles the formula, inferring the atoms' schemes, so `eval_ra`'s
    scheme pass is not repeated; one numbers the compiled expression.  A ∀
    that divides by its antecedent costs the antecedent's support per
    output row; any other ∀ costs |EADOM[bound]| per output row, which is
    exponential in the bound arity.  A quantifier over a scheme whose
    EADOM is empty warns.
    """
    return _evaluate(expr, _compile(expr), instance)


def _evaluate(expr: PtcExpr, compilation: tuple, instance: DatabaseInstance) -> RankedDataTable:
    """`eval_ptc` of `expr`, whose `_compile` result is `compilation`."""
    done, consts, quantifiers = compilation
    compiled = done[id(expr)][2]

    def has_values(attr: str) -> bool:
        return any(a == attr for a, _v in consts) or any(
            attr in d.scheme and len(d) for _name, d in instance.tables())

    for what, scheme in quantifiers:
        # EADOM over a scheme is empty exactly when one of its attributes has no value
        if not all(map(has_values, scheme)):
            warnings.warn(
                f"{what} over attributes {sorted(scheme)} with an empty "
                "extended active domain; the aggregation is vacuous",
                stacklevel=3,
            )
    ev = ra._Evaluator(instance)
    return ev.table(ra.fold(compiled, ev.number)[id(compiled)])


# -- pretty printing -------------------------------------------------------

_OP_TEXT = {OTIMES: "*", MEET: "&", RESIDUUM: "=>"}


def _var_names(vs: Iterable[TupleVar]) -> str:
    return ", ".join(sorted(v.name for v in vs))


def ptc_to_text(expr: PtcExpr) -> str:
    """Deterministic textual form matching the calculus grammar.

    A chain of one operator prints with one pair of brackets, in the
    direction the parser reads it: `(P(s) * P(s) * P(s))`, with `*` and `&`
    to the left and `=>` to the right, so it reparses at any length.  A
    chain of alternating operators keeps a bracket level per node and does
    not reparse past `parsing.MAX_DEPTH`; nor does a compiled `=>` chain,
    whose algebra nests `RES(…)`.
    """
    return ra._rope_text(ra.fold(expr, _text_rule)[id(expr)])


def _text_rule(node, *t):
    """The text of one node as a rope (see `algebra._rope_text`)."""
    match node:
        case Atom(_, vs):
            return (t[0], f"({_var_names(vs)})")
        case PtcBinary(op, left, right):
            # a chain's inner operand drops its brackets: the left one of
            # `*` and `&`, the right one of `=>`
            inner = right if op == RESIDUUM else left
            if type(inner) is PtcBinary and inner.op == op:
                t = (t[0], t[1][1:-1]) if op == RESIDUUM else (t[0][1:-1], t[1])
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
