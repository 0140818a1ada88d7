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
from dataclasses import dataclass
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


@dataclass(frozen=True)
class TupleVar:
    name: str
    scheme: Scheme


@dataclass(frozen=True)
class Atom:
    """A relational-algebra expression applied to tuple variables whose
    schemes jointly cover its scheme."""

    expr: object  # RaExpr
    vars: frozenset


@dataclass(frozen=True)
class PtcBinary:
    op: str
    left: "PtcExpr"
    right: "PtcExpr"

    def __post_init__(self):
        if self.op not in _BINARY_OPS:
            raise PtcError(f"unknown connective {self.op!r}")


@dataclass(frozen=True)
class PtcNabla:
    body: "PtcExpr"


@dataclass(frozen=True)
class PtcDelta:
    body: "PtcExpr"


@dataclass(frozen=True)
class PtcSup:
    bound: frozenset
    body: "PtcExpr"


@dataclass(frozen=True)
class PtcInf:
    bound: frozenset
    body: "PtcExpr"


PtcExpr = Atom | PtcBinary | PtcNabla | PtcDelta | PtcSup | PtcInf


def free_vars(expr: PtcExpr) -> frozenset:
    match expr:
        case Atom(_, vs):
            return vs
        case PtcBinary(_, l, r):
            return free_vars(l) | free_vars(r)
        case PtcNabla(body) | PtcDelta(body):
            return free_vars(body)
        case PtcSup(bound, body) | PtcInf(bound, body):
            return free_vars(body) - bound
    raise TypeError(f"not a PTC expression: {expr!r}")


def scheme_of_vars(vs: Iterable[TupleVar]) -> Scheme:
    out: frozenset = frozenset()
    for v in vs:
        out |= v.scheme
    return out


def ptc_scheme(expr: PtcExpr) -> Scheme:
    """The free relation scheme of the expression."""
    return scheme_of_vars(free_vars(expr))


def all_vars(expr: PtcExpr) -> frozenset:
    match expr:
        case Atom(_, vs):
            return vs
        case PtcBinary(_, l, r):
            return all_vars(l) | all_vars(r)
        case PtcNabla(body) | PtcDelta(body):
            return all_vars(body)
        case PtcSup(bound, body) | PtcInf(bound, body):
            return all_vars(body) | bound
    raise TypeError(f"not a PTC expression: {expr!r}")


def atoms_of(expr: PtcExpr):
    match expr:
        case Atom():
            yield expr
        case PtcBinary(_, l, r):
            yield from atoms_of(l)
            yield from atoms_of(r)
        case PtcNabla(body) | PtcDelta(body) | PtcSup(_, body) | PtcInf(_, body):
            yield from atoms_of(body)


def ptc_constants(expr: PtcExpr) -> frozenset:
    """Singleton-introduced constants anywhere inside the expression."""
    out: frozenset = frozenset()
    for atom in atoms_of(expr):
        out |= ra.constants_of(atom.expr)
    return out


def valuation(vs: Iterable[TupleVar], r: Tuple) -> dict:
    """The valuation a tuple induces: each variable gets r's projection
    onto its scheme; joining the values back reconstructs r."""
    return {v: r.project(v.scheme) for v in vs}


def validate_ptc(expr: PtcExpr) -> None:
    """Well-formedness: consistent variable schemes per name, atom variables
    covering the atom's scheme, quantifiers binding free variables whose
    scheme is disjoint from the remaining free scheme."""
    registry: dict[str, Scheme] = {}
    for v in all_vars(expr):
        prev = registry.get(v.name)
        if prev is not None and prev != v.scheme:
            raise PtcError(
                f"tuple variable {v.name!r} used with schemes "
                f"{sorted(prev)} and {sorted(v.scheme)}"
            )
        registry[v.name] = v.scheme

    def rec(node):
        match node:
            case Atom(e, vs):
                covered = scheme_of_vars(vs)
                s = ra.scheme_of(e)
                if covered != s:
                    raise PtcError(
                        f"atom variables cover {sorted(covered)} but the "
                        f"expression is on {sorted(s)}"
                    )
            case PtcBinary(_, l, r):
                rec(l)
                rec(r)
            case PtcNabla(body) | PtcDelta(body):
                rec(body)
            case PtcSup(bound, body) | PtcInf(bound, body):
                if not bound:
                    raise PtcError("quantifier binds no variables")
                if not bound <= free_vars(body):
                    raise PtcError("quantifier binds variables not free in its body")
                bound_scheme = scheme_of_vars(bound)
                rest_scheme = scheme_of_vars(free_vars(body) - bound)
                if bound_scheme & rest_scheme:
                    raise PtcError(
                        "bound scheme overlaps the free remainder on "
                        f"{sorted(bound_scheme & rest_scheme)}"
                    )
                rec(body)

    rec(expr)


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
    validate_ptc(expr)
    consts = ptc_constants(expr)
    ev = ra._Evaluator(instance)
    lat = instance.lattice

    def ead(scheme: Scheme) -> RankedDataTable:
        return ev.eadom_table(frozenset(scheme), consts)

    def has_values(attr: str) -> bool:
        return any(a == attr for a, _v in consts) or any(
            attr in d.scheme and d.rows for _name, d in instance.tables())

    def warn_if_empty(scheme: Scheme, what: str):
        # EADOM over a scheme is empty exactly when one of its attributes has no value
        if not all(map(has_values, scheme)):
            warnings.warn(
                f"{what} over attributes {sorted(scheme)} with an empty "
                "extended active domain; the aggregation is vacuous",
                stacklevel=2,
            )

    def rec(node) -> RankedDataTable:
        match node:
            case Atom(e, _):
                return ev.eval(e)
            case PtcBinary(op, l, r):
                t1, t2 = rec(l), rec(r)
                if op == OTIMES:
                    return tb.natural_join(t1, t2)
                if op == MEET:
                    return _pointwise_meet(t1, t2)
                scheme = t1.scheme | t2.scheme
                names = tb.attrs_of(scheme)
                to_1 = tb._project_plan(names, tb.attrs_of(t1.scheme))
                to_2 = tb._project_plan(names, tb.attrs_of(t2.scheme))
                score1, score2 = tb._values_index(t1).get, tb._values_index(t2).get
                kresiduum, bottom = lat.kresiduum, lat.bottom
                rows = {
                    t: kresiduum(score1(to_1(t._values), bottom),
                                 score2(to_2(t._values), bottom))
                    for t in ead(scheme).rows
                }
                return tb._table(scheme, lat, rows)
            case PtcNabla(body):
                return tb.nabla(rec(body))
            case PtcDelta(body):
                return tb.delta(rec(body))
            case PtcSup(bound, body):
                inner = rec(body)
                warn_if_empty(scheme_of_vars(bound), "existential quantification")
                return tb.projection(inner, ptc_scheme(node))
            case PtcInf(bound, body):
                bound_scheme, out_scheme = scheme_of_vars(bound), ptc_scheme(node)
                match body:
                    case PtcBinary(op, antecedent, consequent) if (
                        op == RESIDUUM and free_vars(antecedent) == bound
                        and ptc_scheme(consequent) == out_scheme | bound_scheme
                    ):
                        # off the antecedent's support every term is 0 → x = top
                        divisor, dividend = rec(antecedent), rec(consequent)
                    case _:
                        # every term is top → x, which is x exactly
                        dividend, divisor = rec(body), ead(bound_scheme)
                warn_if_empty(bound_scheme, "universal quantification")
                return dv.div_gcodd(dividend, divisor, ead(out_scheme))
        raise TypeError(f"not a PTC expression: {node!r}")

    return rec(expr)


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


def resolve_schemes(expr: PtcExpr, schemes) -> PtcExpr:
    """Resolve the relation symbols inside every atom against a catalog."""

    def rec(node):
        match node:
            case Atom(e, vs):
                return Atom(ra.resolve_schemes(e, schemes), vs)
            case PtcBinary(op, l, r):
                return PtcBinary(op, rec(l), rec(r))
            case PtcNabla(body):
                return PtcNabla(rec(body))
            case PtcDelta(body):
                return PtcDelta(rec(body))
            case PtcSup(bound, body):
                return PtcSup(bound, rec(body))
            case PtcInf(bound, body):
                return PtcInf(bound, rec(body))

    return rec(expr)


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

    def rec(node):
        match node:
            case Atom(e, vs):
                return Atom(e, swap(vs))
            case PtcBinary(op, l, r):
                return PtcBinary(op, rec(l), rec(r))
            case PtcNabla(body):
                return PtcNabla(rec(body))
            case PtcDelta(body):
                return PtcDelta(rec(body))
            case PtcSup(bound, body):
                return PtcSup(swap(bound), rec(body))
            case PtcInf(bound, body):
                return PtcInf(swap(bound), rec(body))

    out = rec(expr)
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
    validate_ptc(expr)
    consts = ptc_constants(expr)

    def ead(scheme: Scheme):
        return ra.EadomExpr(frozenset(scheme), consts)

    def rec(node):
        match node:
            case Atom(e, _):
                return e
            case PtcBinary(op, l, r):
                f1, f2 = rec(l), rec(r)
                s1, s2 = ptc_scheme(l), ptc_scheme(r)
                if op == OTIMES:
                    return ra.NaturalJoin(f1, f2)
                left = ra.NaturalJoin(f1, ead(s2))
                right = ra.NaturalJoin(f2, ead(s1))
                if op == MEET:
                    return ra.Intersection(left, right)
                return ra.ResiduumRange(left, right, ead(s1 | s2))
            case PtcNabla(body):
                return ra.Nabla(rec(body))
            case PtcDelta(body):
                return ra.Delta(rec(body))
            case PtcSup(_, body) :
                return ra.Projection(ptc_scheme(node), rec(body))
            case PtcInf(bound, body):
                f = rec(body)
                bound_scheme = scheme_of_vars(bound)
                out_scheme = ptc_scheme(node)
                if inf_form == DIV_FORM:
                    return ra.DivRanged(f, ead(bound_scheme), ead(out_scheme))
                return ra.GSDO(ead(out_scheme), ead(bound_scheme), f)
        raise TypeError(f"not a PTC expression: {node!r}")

    return rec(expr)


# -- pretty printing -------------------------------------------------------

_OP_TEXT = {OTIMES: "*", MEET: "&", RESIDUUM: "=>"}


def _var_names(vs: Iterable[TupleVar]) -> str:
    return ", ".join(sorted(v.name for v in vs))


def ptc_to_text(expr: PtcExpr) -> str:
    """Deterministic textual form matching the calculus grammar."""
    match expr:
        case Atom(e, vs):
            return f"{ra.ra_to_text(e)}({_var_names(vs)})"
        case PtcBinary(op, l, r):
            return f"({ptc_to_text(l)} {_OP_TEXT[op]} {ptc_to_text(r)})"
        case PtcNabla(body):
            return f"NABLA({ptc_to_text(body)})"
        case PtcDelta(body):
            return f"DELTA({ptc_to_text(body)})"
        case PtcSup(bound, body):
            return f"ANY {_var_names(bound)} . ({ptc_to_text(body)})"
        case PtcInf(bound, body):
            return f"ALL {_var_names(bound)} . ({ptc_to_text(body)})"
    raise TypeError(f"not a PTC expression: {expr!r}")
