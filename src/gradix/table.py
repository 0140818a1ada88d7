"""Relation schemes, tuples, ranked data tables, and the fundamental
relational operations.

A ranked data table (RDT) maps tuples on a fixed relation scheme to degrees
from one residuated lattice; only tuples with nonzero score are stored, so
finiteness of the answer set is a structural invariant.  Tables are
immutable and all operations are pure: each returns a new table, except a
projection onto its operand's own scheme, which returns the operand.

Inside the engine a table keys its rows by plain value tuples, the values in
the sorted-attribute order of `attrs_of(scheme)`: the operators, the
divisions, EADOM and CSV read and write hash, probe and sort these, and no
row becomes a `Tuple`.  `Tuple` is the type of the API: the validating
constructor takes `Tuple`s, and `score`, iteration, `support`, `sorted_rows`
and the read-only `rows` view give them, each built when asked for.

Data enters through `read_csv`, which reads its source once: `str.split`
or the csv module only cut records, one parse reads them a column at a
time, and one scan in line order finds the first error.  It gives each
distinct value of a text column one object for all the rows of one call,
the dictionary encoding of column stores, so the operators hash and
compare strings they have met before.
Decimal columns keep a float per cell, because -0.0 and 0.0 are equal but
print as "-0" and "0"; integer columns do too, since sharing ints was
measured to slow loading without speeding queries.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import ItemsView, Mapping
from itertools import repeat
from operator import itemgetter
from typing import Iterable

from .errors import (
    GradixError,
    LatticeMismatchError,
    NotJoinableError,
    SchemeError,
    TypeRegistryError,
    UnboundSymbolError,
)
from .lattice import ResiduatedLattice, RowLoop

#: A relation scheme is a finite set of attribute names.
Scheme = frozenset

EMPTY_SCHEME: Scheme = frozenset()


# -- attribute-name tuples and index plans -----------------------------------
#
# A tuple stores its values in sorted-attribute order next to an interned
# tuple of the sorted attribute names, so all tuples on one scheme share one
# names object.  Projections and joins are index plans computed once per
# pair of name tuples and then applied to bare value tuples.  The caches
# grow with the distinct schemes and scheme pairs a process uses; they are
# filled with single dict operations, so concurrent callers at worst build
# an equal plan twice.

_NAMES: dict[tuple, tuple] = {}
_SCHEME_OF: dict[tuple, Scheme] = {}
_NAMES_OF: dict[Scheme, tuple] = {}
# Plans share their picker functions: the harness oracles' `Tuple.joinable`
# builds a plan for every pair of schemes, and without this cache the
# harness-suites benchmark peaked 1.0-1.2 MB higher (28.7 against
# 27.5-27.7 MB at `bench/run.py --seconds 5`, CPython 3.11, x86-64).
_PICKERS: dict[tuple, object] = {}
_PROJECT_PLANS: dict[tuple, object] = {}
_JOIN_PLANS: dict[tuple, "_JoinPlan"] = {}


def _intern(names: tuple) -> tuple:
    """The shared instance of a sorted attribute-name tuple."""
    shared = _NAMES.get(names)
    if shared is None:
        _SCHEME_OF.setdefault(names, frozenset(names))
        shared = _NAMES.setdefault(names, names)
    return shared


def attrs_of(scheme) -> tuple:
    """The interned, sorted attribute names of a scheme."""
    if type(scheme) is not frozenset:
        scheme = frozenset(scheme)
    names = _NAMES_OF.get(scheme)
    if names is None:
        names = _NAMES_OF[scheme] = _intern(tuple(sorted(scheme)))
    return names


def _picker(positions: tuple):
    """Callable returning the tuple of a sequence's items at `positions`
    (shared between all plans that pick the same positions)."""
    pick = _PICKERS.get(positions)
    if pick is None:
        if not positions:
            pick = lambda values: ()  # noqa: E731
        elif len(positions) == 1:
            i = positions[0]
            pick = lambda values: (values[i],)  # noqa: E731
        else:
            pick = itemgetter(*positions)
        _PICKERS[positions] = pick
    return pick


def _itself(values: tuple) -> tuple:
    return values


def _project_plan(src: tuple, dst: tuple):
    """Picker from values on `src` names to values on the sub-names `dst`;
    the identity where the two name tuples are equal."""
    key = (src, dst)
    pick = _PROJECT_PLANS.get(key)
    if pick is None:
        pick = _PROJECT_PLANS[key] = (
            _itself if src == dst else _picker(tuple(src.index(a) for a in dst))
        )
    return pick


class _JoinPlan:
    """Index plan for joining value tuples on names `left` and `right`.

    `merge(lv + rv)` gives the joined values on `names`; `left_key(lv)` and
    `right_key(rv)` give the values of the shared attributes, which must
    agree for the two tuples to be joinable.
    """

    __slots__ = ("names", "merge", "left_key", "right_key")

    def __init__(self, left: tuple, right: tuple):
        self.names = _intern(tuple(sorted(set(left) | set(right))))
        width = len(left)
        where = {a: width + i for i, a in enumerate(right)}
        where.update((a, i) for i, a in enumerate(left))
        self.merge = _picker(tuple(where[a] for a in self.names))
        common = [a for a in left if a in right]
        self.left_key = _picker(tuple(left.index(a) for a in common))
        self.right_key = _picker(tuple(right.index(a) for a in common))


def _join_plan(left: tuple, right: tuple) -> _JoinPlan:
    key = (left, right)
    plan = _JOIN_PLANS.get(key)
    if plan is None:
        plan = _JOIN_PLANS[key] = _JoinPlan(left, right)
    return plan


class Tuple:
    """Immutable map from the attributes of a scheme to values.

    Values are equality-only scalars (int, str, float); the engine never
    orders or computes with them.  The empty tuple is the unique tuple on
    the empty scheme.  Any mapping, or an iterable of (attribute, value)
    pairs, builds one.
    """

    __slots__ = ("_attrs", "_values")

    def __init__(self, assignment: Mapping[str, object] | Iterable = ()):
        if type(assignment) is not dict:
            assignment = dict(
                assignment.items() if isinstance(assignment, Mapping) else assignment
            )
        names = tuple(sorted(assignment))
        self._attrs = _intern(names)
        self._values = tuple([assignment[a] for a in names])

    @property
    def scheme(self) -> Scheme:
        return _SCHEME_OF[self._attrs]

    def __getitem__(self, attr: str):
        try:
            return self._values[self._attrs.index(attr)]
        except ValueError:
            raise KeyError(attr) from None

    def items(self):
        """The (attribute, value) pairs in attribute order."""
        return tuple(zip(self._attrs, self._values))

    def as_dict(self) -> dict:
        return dict(zip(self._attrs, self._values))

    def project(self, scheme: Scheme) -> "Tuple":
        """Restriction of the assignment to a subscheme."""
        names = attrs_of(scheme)
        if not _SCHEME_OF[names] <= _SCHEME_OF[self._attrs]:
            raise SchemeError(f"cannot project {self} onto {sorted(scheme)}")
        return _make_tuple(names, _project_plan(self._attrs, names)(self._values))

    def joinable(self, other: "Tuple") -> bool:
        """True when the two tuples agree on every shared attribute."""
        plan = _join_plan(self._attrs, other._attrs)
        return plan.left_key(self._values) == plan.right_key(other._values)

    def join(self, other: "Tuple") -> "Tuple":
        """Set union of the assignments; requires joinability."""
        plan = _join_plan(self._attrs, other._attrs)
        if plan.left_key(self._values) != plan.right_key(other._values):
            clash = next(a for a in self._attrs
                         if a in other._attrs and self[a] != other[a])
            raise NotJoinableError(f"{self} and {other} disagree on {clash}")
        return _make_tuple(plan.names, plan.merge(self._values + other._values))

    def __eq__(self, other):
        return (
            isinstance(other, Tuple)
            and other._attrs == self._attrs
            and other._values == self._values
        )

    def __hash__(self):
        return hash(self._values)

    def __reduce__(self):
        # rebuild through the constructor, which interns the names in the
        # unpickling process
        return Tuple, (self.as_dict(),)

    def __repr__(self):
        inner = ", ".join(f"{a}: {v!r}" for a, v in zip(self._attrs, self._values))
        return "⟨" + inner + "⟩"


_new = object.__new__


def _make_tuple(names: tuple, values: tuple) -> Tuple:
    """Trusted construction: `names` interned and sorted, `values` in the
    same order."""
    t = _new(Tuple)
    t._attrs = names
    t._values = values
    return t


EMPTY_TUPLE = Tuple()


class RowsView(Mapping):
    """Read-only map from the `Tuple`s of a table's rows to their degrees.

    It reads the table's own dict, keyed by value tuples on `names`, and
    builds a `Tuple` for each key it gives out.  A probe that is no `Tuple`,
    or one on another scheme, finds nothing; `get` and `in` are each one
    dict lookup.
    """

    __slots__ = ("_names", "_rows")

    def __init__(self, names: tuple, rows: dict):
        self._names = names
        self._rows = rows

    def get(self, t, default=None):
        if isinstance(t, Tuple) and t._attrs == self._names:
            return self._rows.get(t._values, default)
        return default

    def __getitem__(self, t):
        d = self.get(t)
        if d is None:
            raise KeyError(t)
        return d

    def __contains__(self, t):
        return isinstance(t, Tuple) and t._attrs == self._names and t._values in self._rows

    def __len__(self):
        return len(self._rows)

    def __iter__(self):
        names = self._names
        return (_make_tuple(names, v) for v in self._rows)

    def items(self):
        return _RowItems(self)

    def values(self):
        return self._rows.values()

    def __repr__(self):
        return repr(dict(self.items()))


class _RowItems(ItemsView):
    """The (Tuple, degree) pairs of a `RowsView`, without a lookup per key."""

    __slots__ = ()

    def __iter__(self):
        names = self._mapping._names
        return ((_make_tuple(names, v), d) for v, d in self._mapping._rows.items())


class RankedDataTable:
    """Finite map from tuples on a scheme to nonzero degrees.

    The constructor is the validating entry point: every tuple must be a
    `Tuple` on the scheme and every degree passes `lattice.check`.  Operator
    results are built by `_table`, which trusts its input.  `_rows` maps the
    value tuple of each stored row to its degree; `rows` is a read-only view
    of it keyed by `Tuple`s.
    """

    __slots__ = ("scheme", "lattice", "_rows")

    def __init__(self, scheme: Scheme, lattice: ResiduatedLattice, rows=()):
        self.scheme = frozenset(scheme)
        self.lattice = lattice
        names = attrs_of(self.scheme)
        check, bottom = lattice.check, lattice.bottom
        stored = {}
        items = rows.items() if type(rows) is dict or isinstance(rows, Mapping) else rows
        for t, d in items:
            if not isinstance(t, Tuple) or t._attrs != names:
                raise SchemeError(
                    f"tuple {t} is not on scheme {sorted(self.scheme)}"
                )
            d = check(d)
            if d != bottom:
                stored[t._values] = d
        self._rows = stored

    @property
    def rows(self) -> RowsView:
        return RowsView(attrs_of(self.scheme), self._rows)

    def score(self, t: Tuple):
        return self.rows.get(t, self.lattice.bottom)

    def support(self):
        return self.rows.keys()

    def is_non_ranked(self) -> bool:
        """All stored scores are exactly the top degree."""
        return all(d == self.lattice.top for d in self._rows.values())

    def __len__(self):
        return len(self._rows)

    def __iter__(self):
        return iter(self.rows.items())

    def __eq__(self, other):
        return (
            isinstance(other, RankedDataTable)
            and other.scheme == self.scheme
            and other.lattice == self.lattice
            and other._rows == self._rows
        )

    def __hash__(self):
        return hash((self.scheme, frozenset(self._rows.items())))

    def _pairs(self, other: "RankedDataTable"):
        """The (self, other) degrees of each tuple either table stores."""
        bottom = self.lattice.bottom
        r1, r2 = self._rows, other._rows
        if other.scheme != self.scheme:  # no tuple is on both schemes
            return [(d, bottom) for d in r1.values()] + [(bottom, d) for d in r2.values()]
        return [(r1.get(v, bottom), r2.get(v, bottom)) for v in r1.keys() | r2.keys()]

    def approx_equals(self, other: "RankedDataTable") -> bool:
        """Pointwise equality under the lattice's degree tolerance."""
        if other.scheme != self.scheme or other.lattice != self.lattice:
            return False
        eq = self.lattice.eq
        return all(eq(a, b) for a, b in self._pairs(other))

    def max_deviation(self, other: "RankedDataTable") -> float:
        """Largest pointwise degree difference over the union of supports;
        0.0 at once for equal rows on one scheme, as degree_diff(a, a) is."""
        if other.scheme == self.scheme and other._rows == self._rows:
            return 0.0
        diff = self.lattice.degree_diff
        dev = 0.0
        for a, b in self._pairs(other):
            dev = max(dev, diff(a, b))
        return dev

    def __repr__(self):
        cells = ", ".join(f"{t}:{d}" for t, d in sorted_rows(self))
        return f"RDT[{','.join(sorted(self.scheme))}]{{{cells}}}"


def _table(scheme: Scheme, lattice: ResiduatedLattice, rows: dict) -> RankedDataTable:
    """Trusted construction for operator results.

    `rows` (a dict the table takes over) must map value tuples on the
    frozenset `scheme`, in `attrs_of(scheme)` order, to carrier members;
    nothing of that is checked.  Bottom degrees are still dropped: only
    nonzero scores are stored, whatever the operator computed.
    """
    bottom = lattice.bottom
    if bottom in rows.values():
        rows = {v: d for v, d in rows.items() if d != bottom}
    out = _new(RankedDataTable)
    out.scheme = scheme
    out.lattice = lattice
    out._rows = rows
    return out


#: The most rows that an EADOM or a join may build.  An EADOM's row count
#: and a cross join's are products known before anything is built; a join
#: on shared attributes counts its rows from its groups first.  An EADOM
#: on four attributes takes about 115 bytes a row (1,048,576 rows: 120 MB
#: and 0.4 s, CPython 3.11, x86-64), so the bound is about a gigabyte.
MAX_ROWS = 10_000_000


def _too_many_rows(node: str, count: int) -> GradixError:
    """The error for `node`, which would build `count` rows, more than
    `MAX_ROWS`."""
    return GradixError(
        f"{node} would build {count} rows, more than the bound of "
        f"{MAX_ROWS} (table.MAX_ROWS)"
    )


# -- row kernels: each operator's loop over rows, written once and compiled
# per lattice class with its ∧, ∨, ⊗ and → inline (`lattice.RowLoop`) -------

_SUP_ROWS = RowLoop("sup_rows", ("rows", "pick"), """
    best = {}
    best_get = best.get
    for v, a in rows.items():
        s = pick(v)
        prev = best_get(s)
        if prev is None:
            best[s] = a
        else:
            best[s] = JOIN(prev, a)
    return best
""")

_UNION_ROWS = RowLoop("union_rows", ("left", "right"), """
    rows = dict(left)
    left_get = left.get
    for v, b in right.items():
        a = left_get(v)
        if a is None:
            rows[v] = b
        else:
            rows[v] = JOIN(a, b)
    return rows
""")

_INTERSECTION_ROWS = RowLoop("intersection_rows", ("left", "right"), """
    rows = {}
    right_get = right.get
    for v, a in left.items():
        b = right_get(v)
        if b is not None:
            rows[v] = MEET(a, b)
    return rows
""")

_JOIN_ROWS = RowLoop("join_rows", ("left", "right_groups", "left_key", "merge"), """
    rows = {}
    for v1, a in left.items():
        for v2, b in right_groups(left_key(v1), ()):
            rows[merge(v1 + v2)] = OTIMES(a, b)
    return rows
""")

_SEMIJOIN_ROWS = RowLoop("semijoin_rows", ("left", "sup", "key", "bottom"), """
    rows = {}
    for v, a in left.items():
        b = sup(key(v))
        if b is not None:
            x = OTIMES(a, b)
            if x != bottom:
                rows[v] = x
    return rows
""")

_RESIDUUM_ROWS = RowLoop("residuum_rows", ("weights", "left", "right", "bottom"), """
    rows = {}
    left_get, right_get = left.get, right.get
    for v, g in weights.items():
        a = left_get(v, bottom)
        b = right_get(v, bottom)
        r = RESIDUUM(a, b)
        x = OTIMES(g, r)
        if x != bottom:
            rows[v] = x
    return rows
""")


def _same_lattice(*tables: RankedDataTable) -> ResiduatedLattice:
    lat = tables[0].lattice
    for t in tables[1:]:
        if t.lattice is not lat and t.lattice != lat:
            raise LatticeMismatchError(
                f"operands over {t.lattice!r} and {lat!r} cannot be combined"
            )
    return lat


def _same_scheme(*tables: RankedDataTable) -> Scheme:
    scheme = tables[0].scheme
    for t in tables[1:]:
        if t.scheme != scheme:
            raise SchemeError(
                f"operands on schemes {sorted(t.scheme)} and {sorted(scheme)} must agree"
            )
    return scheme


def dee(lattice: ResiduatedLattice, degree) -> RankedDataTable:
    """Table on the empty scheme scoring the empty tuple with `degree`."""
    return RankedDataTable(EMPTY_SCHEME, lattice, {EMPTY_TUPLE: degree})


def empty(lattice: ResiduatedLattice, scheme: Scheme) -> RankedDataTable:
    """The empty table 0_R."""
    return RankedDataTable(scheme, lattice, {})


def union(d1: RankedDataTable, d2: RankedDataTable) -> RankedDataTable:
    lat = _same_lattice(d1, d2)
    scheme = _same_scheme(d1, d2)
    return _table(scheme, lat, _UNION_ROWS[lat._kernel_class](lat, d1._rows, d2._rows))


def intersection(d1: RankedDataTable, d2: RankedDataTable) -> RankedDataTable:
    lat = _same_lattice(d1, d2)
    scheme = _same_scheme(d1, d2)
    return _table(scheme, lat, _INTERSECTION_ROWS[lat._kernel_class](lat, d1._rows, d2._rows))


def natural_join(d1: RankedDataTable, d2: RankedDataTable) -> RankedDataTable:
    """(D1 ⋈ D2)(rst) = D1(rs) ⊗ D2(st); ⊗ acts as the conjunctive aggregator.
    D2 is hashed on the shared attributes.  A join builds at most `MAX_ROWS`
    rows; the bound holds for every caller, the divisions too.  Where
    |D1|·|D2| passes it, the rows the join would build are counted first:
    |D2's group| summed over D1's rows, so a cross join, with one group,
    counts |D1|·|D2|.  `semijoin` builds no join."""
    lat = _same_lattice(d1, d2)
    left, right = attrs_of(d1.scheme), attrs_of(d2.scheme)
    plan = _join_plan(left, right)
    right_key = plan.right_key
    by_common: dict[tuple, list] = {}
    for v2, b in d2._rows.items():
        by_common.setdefault(right_key(v2), []).append((v2, b))
    if len(d1._rows) * len(d2._rows) > MAX_ROWS:
        left_key, group = plan.left_key, by_common.get
        count = sum(len(group(left_key(v1), ())) for v1 in d1._rows)
        if count > MAX_ROWS:
            kind = "cross join" if len(plan.names) == len(left) + len(right) else "join"
            raise _too_many_rows(f"{kind} of tables on {list(left)} and {list(right)}", count)
    rows = _JOIN_ROWS[lat._kernel_class](lat, d1._rows, by_common.get, plan.left_key, plan.merge)
    return _table(_SCHEME_OF[plan.names], lat, rows)


def projection(d: RankedDataTable, scheme: Scheme) -> RankedDataTable:
    """(π_S D)(s) = ⋁ {D(r) | r(S) = s}; suprema interpret 'there is'.
    On `d`'s own scheme this is `d` itself, since tables are immutable."""
    scheme = frozenset(scheme)
    if not scheme <= d.scheme:
        raise SchemeError(
            f"projection target {sorted(scheme)} not within {sorted(d.scheme)}"
        )
    if scheme == d.scheme:
        return d
    lat, names = d.lattice, attrs_of(scheme)
    rows = _SUP_ROWS[lat._kernel_class](lat, d._rows, _project_plan(attrs_of(d.scheme), names))
    return _table(_SCHEME_OF[names], lat, rows)


def semijoin(d1: RankedDataTable, d2: RankedDataTable) -> RankedDataTable:
    """π_R(D1 ⋈ D2); the algebraic form of "some φ is ψ" queries.

    Computed as (D1 ⋉ D2)(r) = D1(r) ⊗ ⋁{D2(s) | s agrees with r}: D2 is
    projected by ∨ onto the shared attributes, and each row of D1 finds its
    supremum by one lookup, so no join is built and the result has at most
    |D1| rows, in D1's order.  This is π_R(D1 ⋈ D2) exactly, on every
    lattice: ⊗ preserves ∨ in a residuated lattice, a ⊗ ⋁B = ⋁{a ⊗ b | b ∈
    B}, and on the float lattices the computed product is monotone in each
    argument, so it commutes with `max` as it is computed.
    """
    lat = _same_lattice(d1, d2)
    common = d1.scheme & d2.scheme
    rows = _SEMIJOIN_ROWS[lat._kernel_class](
        lat, d1._rows, projection(d2, common)._rows.get,
        _project_plan(attrs_of(d1.scheme), attrs_of(common)), lat.bottom)
    return _table(d1.scheme, lat, rows)


def difference_graded(d1: RankedDataTable, d2: RankedDataTable) -> RankedDataTable:
    """(D1 ∖ D2)(r) = D1(r) ⊗ (D2(r) → 0).

    This is `residuum_with_range(D2, 0_R, D1)`, and it runs that operator's
    row kernel: weights D1, left side D2 and an empty right side.
    On the two-element lattice this is exactly set difference; on graded
    lattices it lacks several laws a difference would be expected to have,
    so only two-valued operations (the semidifference and the classic
    composed divisions of `gradix.harness.composed`) are built from it.
    """
    lat = _same_lattice(d1, d2)
    scheme = _same_scheme(d1, d2)
    rows = _RESIDUUM_ROWS[lat._kernel_class](lat, d1._rows, d2._rows, {}, lat.bottom)
    return _table(scheme, lat, rows)


def nabla(d: RankedDataTable) -> RankedDataTable:
    """Support indicator: nonzero scores become 1."""
    lat = d.lattice
    return _table(d.scheme, lat, dict.fromkeys(d._rows, lat.top))


def delta(d: RankedDataTable) -> RankedDataTable:
    """Kernel indicator: scores equal to 1 stay 1, everything else drops.

    On float lattices scores within the degree tolerance of 1 count as 1,
    absorbing drift from ⊗ chains.
    """
    lat = d.lattice
    is_top, top = lat.is_top, lat.top
    return _table(d.scheme, lat, {v: top for v, a in d._rows.items() if is_top(a)})


def residuum_with_range(
    d1: RankedDataTable, d2: RankedDataTable, rng: RankedDataTable
) -> RankedDataTable:
    """Row r gets rng(r) ⊗ (D1(r) → D2(r)); support stays inside rng's."""
    lat = _same_lattice(d1, d2, rng)
    scheme = _same_scheme(d1, d2, rng)
    rows = _RESIDUUM_ROWS[lat._kernel_class](lat, rng._rows, d1._rows, d2._rows, lat.bottom)
    return _table(scheme, lat, rows)


class DatabaseInstance:
    """Named map from relation symbols to tables sharing one lattice."""

    def __init__(self, lattice: ResiduatedLattice, tables: Mapping[str, RankedDataTable] = ()):
        self.lattice = lattice
        self._tables: dict[str, RankedDataTable] = {}
        items = tables.items() if isinstance(tables, Mapping) else tables
        for name, tab in items:
            self._bind(name, tab)

    def _bind(self, name: str, tab: RankedDataTable):
        if tab.lattice != self.lattice:
            raise LatticeMismatchError(f"table {name!r} uses a different lattice")
        if name in self._tables:
            raise SchemeError(f"relation symbol {name!r} already bound")
        self._tables[name] = tab

    def table(self, name: str) -> RankedDataTable:
        try:
            return self._tables[name]
        except KeyError:
            raise UnboundSymbolError(f"relation symbol {name!r} is not bound") from None

    def symbols(self):
        return sorted(self._tables)

    def tables(self):
        for name in self.symbols():
            yield name, self._tables[name]

    def __contains__(self, name):
        return name in self._tables

    def with_table(self, name: str, tab: RankedDataTable) -> "DatabaseInstance":
        """A widened copy with one more symbol bound."""
        inst = DatabaseInstance(self.lattice, self._tables)
        inst._bind(name, tab)
        return inst


class AttributeRegistry:
    """Session-wide attribute typing: one type per attribute name."""

    _ALIASES = {"int": "integer", "integer": "integer", "str": "text",
                "text": "text", "decimal": "decimal", "float": "decimal"}
    #: the Python type of each attribute type's values
    _VALUE_TYPES = {"integer": int, "text": str, "decimal": float}
    #: the converter of each stripped cell that is not text
    _PARSERS = {"integer": int, "decimal": float}

    def __init__(self):
        self._types: dict[str, str] = {}

    def declare(self, attr: str, type_name: str) -> None:
        try:
            canonical = self._ALIASES[type_name.lower()]
        except KeyError:
            raise TypeRegistryError(f"unknown attribute type {type_name!r}") from None
        existing = self._types.get(attr)
        if existing is not None and existing != canonical:
            raise TypeRegistryError(
                f"attribute {attr!r} already declared {existing}, cannot redeclare {canonical}"
            )
        self._types[attr] = canonical

    def type_of(self, attr: str) -> str | None:
        """Declared type of the attribute, None when undeclared."""
        return self._types.get(attr)

    def value_type(self, attr: str) -> type | None:
        """The Python type of the attribute's values (`int`, `str` or
        `float`), None when it is undeclared."""
        return self._VALUE_TYPES.get(self._types.get(attr))

    def parser(self, attr: str):
        """The function `parse_value(attr, ·)`, picked once for a column:
        `str.strip` for text attributes, else a converter of the stripped
        cell raising `parse_value`'s errors."""
        ty = self.type_of(attr) or "text"
        if ty == "text":
            return str.strip
        convert = self._PARSERS[ty]
        finite = ty == "decimal"

        def parse(cell: str):
            text = cell.strip()
            try:
                value = convert(text)
            except ValueError:
                raise TypeRegistryError(
                    f"value {text!r} is not a valid {ty} for {attr!r}"
                ) from None
            if finite and not math.isfinite(value):
                raise TypeRegistryError(
                    f"value {text!r} is not a finite decimal for {attr!r}"
                )
            return value

        return parse

    def parse_value(self, attr: str, text: str):
        """The typed value of a CSV cell, stripped of surrounding spaces as
        `read_csv` strips it.  Decimals must be finite: nan is unequal to
        itself, so two nan rows would stay distinct tuples."""
        return self.parser(attr)(text)


#: Value types the csv module writes exactly as `str` writes them.
_PLAIN_TYPES = frozenset({str, int})


def _columns(d: RankedDataTable) -> list:
    """The value columns of `d`, in sorted-attribute order."""
    return list(zip(*d._rows))


def _column_types(columns: list) -> list:
    """The set of value types in each column."""
    return [set(map(type, col)) for col in columns]


def _groups(d: RankedDataTable) -> list:
    """The rows of `d` as (degree, value tuples) groups, one per distinct
    degree, by descending rank; a rank key is computed once per degree, and
    a group's value tuples are in no particular order."""
    groups: dict = {}
    for v, a in d._rows.items():
        group = groups.get(a)
        if group is None:
            groups[a] = [v]
        else:
            group.append(v)
    sort_key = d.lattice.sort_key
    return sorted(groups.items(), key=lambda run: -float(sort_key(run[0])))


def _runs(d: RankedDataTable, column_types: list) -> list:
    """The rows of `d` in `sorted_rows` order, as (degree, value tuples) runs.

    Each of the `_groups` is sorted by values alone, so no row needs a
    nested (rank, values) key.  This is the order of the (rank, values) key
    because `sort_key` gives distinct degrees distinct keys.
    """
    runs = _groups(d)
    by_values = None  # value tuples of one type per column sort as they are
    if any(len(types) > 1 for types in column_types):
        def by_values(values):
            return tuple([(type(v).__name__, v) for v in values])
    for _a, values in runs:
        values.sort(key=by_values)
    return runs


def sorted_rows(d: RankedDataTable):
    """Rows ordered by descending rank, then lexicographic tuple order.

    Values of one attribute normally share a Python type; a column that
    mixes types is ordered by type name first, which keeps it sortable
    rather than raising.
    """
    names = attrs_of(d.scheme)
    return [(_make_tuple(names, v), a)
            for a, values in _runs(d, _column_types(_columns(d))) for v in values]


def _plain_text(d: RankedDataTable) -> str | None:
    """The CSV text of `d` built by `str.join`, or None when a value is not
    a `str` or a cell needs quoting.

    A row's line joins its values and its rank by "\\0", and the lines of
    one degree are sorted as strings.  "\\0" sorts below every other
    character, so while no value holds one this is tuple order, a prefix
    first.  The assembled text is checked before it is returned: a "\\0" or
    a line feed in a value, an attribute name or a rank text shows in the
    counts of those characters, and a comma, a quote or a carriage return
    anywhere would need quoting.  The "\\0"s then become commas.
    """
    names = attrs_of(d.scheme)
    fmt = d.lattice.format_degree
    parts = ["\0".join(names + ("rank",)), "\n"]
    for a, values in _groups(d):
        try:
            lines = list(map("\0".join, values))
        except TypeError:  # a value that is not a str
            return None
        lines.sort()
        end = "\0" + fmt(a) + "\n"
        parts += (end.join(lines), end)
    text = "".join(parts)
    rows = len(d._rows)
    if (text.count("\0") != (rows + 1) * len(names) or text.count("\n") != rows + 1
            or "," in text or '"' in text or "\r" in text):
        return None
    return text.replace("\0", ",")


class _LfLines:
    """Write target for a csv writer whose line terminator is "\r\n": such a
    writer quotes every cell that holds a "\r" or a "\n", and each of its
    lines reaches `out` ending in "\n" alone."""

    __slots__ = ("_write",)

    def __init__(self, out):
        self._write = out.write

    def write(self, line: str):
        return self._write(line[:-2] + "\n")


def write_csv(d: RankedDataTable, out) -> None:
    """Serialize: header of sorted attribute names plus a final rank column.

    Rows come in `sorted_rows` order and each distinct degree is formatted
    once.  Two paths write the same bytes.  When every value is a `str` and
    no value, attribute name or rank text holds a comma, a quote, a line
    feed, a carriage return or "\\0", `_plain_text` builds the whole text
    and it is written at once.  Every other table goes through the csv
    module: cells of columns holding only `str` and `int` values as they
    are, other columns through `_value_to_text` (floats to 9 significant
    digits), and a cell is quoted when it holds a comma, a quote, a line
    feed or a carriage return.  The csv writer quotes a carriage return only
    as a character of its line terminator, so it writes "\\r\\n" and
    `_LfLines` ends each line in "\\n".
    """
    text = _plain_text(d)
    if text is not None:
        out.write(text)
        return
    columns = _columns(d)
    column_types = _column_types(columns)
    converted = [i for i, types in enumerate(column_types) if not types <= _PLAIN_TYPES]

    def to_text(line):
        line = list(line)
        for i in converted:
            line[i] = _value_to_text(line[i])
        return line

    fmt = d.lattice.format_degree
    writer = csv.writer(_LfLines(out), lineterminator="\r\n")
    writer.writerow(list(attrs_of(d.scheme)) + ["rank"])
    for a, values in _runs(d, column_types):
        rank = (fmt(a),)
        lines = (v + rank for v in values)
        writer.writerows(map(to_text, lines) if converted else lines)


def table_to_csv(d: RankedDataTable) -> str:
    buf = io.StringIO()
    write_csv(d, buf)
    return buf.getvalue()


def _value_to_text(v) -> str:
    if isinstance(v, float):
        return f"{v:.9g}"
    return str(v)


def _pooled(values: list, pool: dict | None) -> list:
    """`values` with each value replaced by its pool's object for it."""
    if pool is None:
        return values
    return list(map(pool.setdefault, values, values))


def read_csv(
    text_or_file,
    lattice: ResiduatedLattice,
    registry: AttributeRegistry,
    types: Mapping[str, str] | None = None,
) -> RankedDataTable:
    """Parse a CSV table.

    The header names the attributes, each non-empty; an optional final
    `rank` column carries the degree (default: top).  `types` declares
    attribute types, enforced through the session registry.  Every cell
    goes through its column's `registry.parser`, picked once per column,
    and every distinct rank text through `lattice.parse_degree`, once per
    call.  Within one call, equal values of a text column are one shared
    object, so the table holds one object per distinct value; a `str`
    computes its hash once, and `==` on one object returns at once.  A
    decimal column is not shared, because -0.0 == 0.0 and yet the two print
    as "-0" and "0"; an integer column is not, because shared ints loaded
    slower and queried no faster.

    A source is read once.  A `str` is split into lines at line feeds, a
    file or other iterable of lines as its iteration splits it (a file
    opened with `newline=""` at a bare carriage return too); `_source`
    gives the rules.  The csv module reads the header.  The records after
    it are cut by `_plain_rows` with `str.split` where no csv parsing is
    needed, else by `_csv_records`, and `_rows` parses them a column at a
    time.  Where that makes no table, `_first_error` scans the records in
    line order and raises the first error: a cell or a rank that does not
    parse, then a `SchemeError` for a record that does not match the
    header or that the csv module cannot parse, naming its line, then one
    for two rows with the same tuple, naming the line of the second.
    """
    text, lines = _source(text_or_file)
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemeError("CSV input has no header row") from None
    except csv.Error as exc:
        raise _malformed(reader, exc) from None
    header = [h.strip() for h in header]
    if "" in header:
        raise SchemeError(
            f"empty attribute name in column {header.index('') + 1} of CSV header {header}"
        )
    has_rank = bool(header) and header[-1] == "rank"
    attrs = header[:-1] if has_rank else header
    if len(set(attrs)) != len(attrs):
        raise SchemeError(f"duplicate attribute in CSV header {header}")
    for a, ty in (types or {}).items():
        registry.declare(a, ty)
    names = attrs_of(frozenset(attrs))
    order = tuple(attrs.index(a) for a in names)
    parsers = [registry.parser(a) for a in attrs]
    parse_degree = lattice.parse_degree if has_rank else None
    width = len(header)
    records = _plain_rows(text, width) if text is not None else None
    if records is None:
        records = _csv_records(reader, header)
    # `body`, the plain path's list of lines, stays referenced until the
    # rows are built: freed earlier, its strings' memory takes the rows' key
    # tuples, and the operators that walk the table run slower
    cells, count, starts, error, body = records
    if error is None:
        # one pool per text column; a shared decimal zero would print one
        # row's sign in another row
        columns = [(i, parsers[i], {} if registry.type_of(attrs[i]) in (None, "text") else None)
                   for i in order]
        rows = _rows(cells, count, width, columns, parse_degree, lattice.top)
        if rows is not None:
            return _table(_SCHEME_OF[names], lattice, rows)
    raise _first_error(cells, starts, error, width, parsers, _picker(order), parse_degree)


def _source(text_or_file) -> tuple:
    """(text, lines) of a CSV source: its whole text where `str.split` may
    cut its records, else None, and one iterator over its lines as the
    source's own iteration splits them.

    A `str` is its own text, and its lines end at its line feeds.  A
    seekable file is read from where it stands, as its first line and then
    the rest in one `read()`.  Where that first line ends at the text's
    first line feed and the text holds no carriage return, the file splits
    at line feeds in every newline mode, and its lines are cut from the
    text.  Otherwise the file is rewound and iterated, as is any other
    iterable of lines, and nothing is kept of it but its records.  A line
    that is not a `str`, such as the `bytes` of a file opened in binary
    mode, is a `SchemeError` naming its line.
    """
    if isinstance(text_or_file, str):
        return text_or_file, _lines(text_or_file)
    seekable = getattr(text_or_file, "seekable", None)
    if seekable is not None and seekable():
        try:
            start = text_or_file.tell()
        except OSError:  # a file iterated by next() cannot tell
            return None, _text_lines(text_or_file)
        first = text_or_file.readline()
        if not isinstance(first, str):
            raise _not_text(first, 1)
        text = first + text_or_file.read()
        if "\r" not in text and first == text[:text.find("\n") + 1 or None]:
            return text, _lines(text)
        text_or_file.seek(start)
        return None, text_or_file
    return None, _text_lines(text_or_file)


def _text_lines(lines):
    """The items of `lines`, each checked to be a `str`."""
    for number, line in enumerate(lines, 1):
        if not isinstance(line, str):
            raise _not_text(line, number)
        yield line


def _not_text(line, number: int) -> SchemeError:
    return SchemeError(f"CSV source yields {type(line).__name__} and not text at line "
                       f"{number}; open a file in text mode")


def _lines(text: str):
    """The lines of `text`, each ending at a line feed but perhaps the last."""
    start, end = 0, len(text)
    while start < end:
        stop = text.find("\n", start) + 1 or end
        yield text[start:stop]
        start = stop


def _plain_rows(text: str, width: int) -> tuple | None:
    """The records of `text` after its header line, cut with `str.split`, as
    `_csv_records` gives them but with their list of lines last, or None
    when the csv module must read them.

    The text must hold no quote, carriage return or "\\0" (which the csv
    module of Python 3.10 refuses), and its rows no blank line, no line
    longer than `csv.field_size_limit()` and `width` − 1 commas on every
    line.  The csv module then reads the same records, each on one line.
    """
    if '"' in text or "\r" in text or "\0" in text:
        return None
    body = text.split("\n")
    del body[0]
    if body and not body[-1]:  # the text ends in a line feed
        body.pop()
    if not body:
        return [], 0, (), None, body
    if ("" in body or set(map(str.count, body, repeat(","))) != {width - 1}
            or max(map(len, body)) > csv.field_size_limit()):
        return None
    return ",".join(body).split(","), len(body), range(2, len(body) + 2), None, body


def _csv_records(reader, header: list) -> tuple:
    """(cells, count, starts, error, None) of the records `reader` gives
    after `header`: their cells in one flat list, their number and the line
    each starts on.  Blank records are skipped.  Reading stops at the first
    record that does not match the header or that the csv module cannot
    parse, and `error` is then its `SchemeError`, else None.  No line list
    is kept.
    """
    width = len(header)
    cells: list = []
    starts: list = []
    error = None
    start = reader.line_num + 1
    try:
        for record in reader:
            if record:
                if len(record) != width:
                    error = SchemeError(f"CSV row {record} does not match header {header}")
                    break
                cells += record
                starts.append(start)
            start = reader.line_num + 1
    except csv.Error as exc:
        error = _malformed(reader, exc)
    return cells, len(starts), starts, error, None


def _malformed(reader, exc: csv.Error) -> SchemeError:
    return SchemeError(f"CSV line {reader.line_num} is malformed: {exc}")


def _rows(cells: list, count: int, width: int, columns: list, parse_degree, top) -> dict | None:
    """The rows of `count` records of `width` cells, parsed a column at a
    time, or None when a cell or a rank does not parse or two rows have the
    same tuple.

    `columns` holds (header position, cell parser, value pool or None) in
    sorted-attribute order.  Each distinct rank text is parsed once;
    `parse_degree` is None without a rank column, and every row then has
    the degree `top`.
    """
    try:
        keys = (zip(*[_pooled(list(map(parse, cells[i::width])), pool)
                      for i, parse, pool in columns])
                if columns else [()] * count)
        if parse_degree is None:
            rows = dict.fromkeys(keys, top)
        else:
            texts = cells[width - 1::width]
            degree_of = {t: parse_degree(t.strip()) for t in set(texts)}
            rows = dict(zip(keys, map(degree_of.__getitem__, texts)))
    except GradixError:
        return None
    return rows if len(rows) == count else None


def _first_error(cells: list, starts, error, width: int, parsers: list, to_sorted,
                 parse_degree) -> SchemeError:
    """The error of records that make no table, found in line order.

    The first cell or rank that does not parse raises here, the cells of a
    record in header order and then its rank.  Failing that the records'
    own `error` is returned, and failing that the error for the first row
    whose tuple an earlier row has.
    """
    first_line: dict = {}
    repeated = None
    for k, start in enumerate(starts):
        record = cells[k * width:(k + 1) * width]
        values = to_sorted([parse(cell) for parse, cell in zip(parsers, record)])
        if parse_degree is not None:
            parse_degree(record[-1].strip())
        line = first_line.setdefault(values, start)
        if repeated is None and line != start:
            repeated = SchemeError(f"CSV line {start} repeats the tuple of line {line}")
    if error is None and repeated is None:
        raise AssertionError("records with no error")
    return error if error is not None else repeated
