"""Relation schemes, tuples, ranked data tables, and the fundamental
relational operations.

A ranked data table (RDT) maps tuples on a fixed relation scheme to degrees
from one residuated lattice; only tuples with nonzero score are stored, so
finiteness of the answer set is a structural invariant.  Tables are
immutable, every operation returns a new table, and all operations are pure.

Inside the engine a table keys its rows by plain value tuples, the values in
the sorted-attribute order of `attrs_of(scheme)`: the operators, the
divisions, EADOM and CSV read and write hash, probe and sort these, and no
row becomes a `Tuple`.  `Tuple` is the type of the API: the validating
constructor takes `Tuple`s, and `score`, iteration, `support`, `sorted_rows`
and the read-only `rows` view give them, each built when asked for.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import ItemsView, Mapping
from operator import itemgetter
from typing import Iterable

from .errors import (
    LatticeMismatchError,
    NotJoinableError,
    SchemeError,
    TypeRegistryError,
)
from .lattice import ResiduatedLattice

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


def _project_plan(src: tuple, dst: tuple):
    """Picker from values on `src` names to values on the sub-names `dst`."""
    key = (src, dst)
    pick = _PROJECT_PLANS.get(key)
    if pick is None:
        pick = _PROJECT_PLANS[key] = _picker(tuple(src.index(a) for a in dst))
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


def tuple_project(r: Tuple, scheme: Scheme) -> Tuple:
    return r.project(scheme)


def tuple_joinable(r1: Tuple, r2: Tuple) -> bool:
    return r1.joinable(r2)


def tuple_join(r1: Tuple, r2: Tuple) -> Tuple:
    return r1.join(r2)


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
        """Largest pointwise degree difference over the union of supports."""
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


def _sup_index(d: RankedDataTable, names: tuple) -> dict:
    """The projection of `d` onto the sub-names `names`: each projected
    value tuple scores the ∨ of its rows' degrees.  On `d`'s own names this
    is `d`'s own dict, not a copy."""
    if names == attrs_of(d.scheme):
        return d._rows
    pick = _project_plan(attrs_of(d.scheme), names)
    kjoin = d.lattice.kjoin
    best: dict[tuple, object] = {}
    for v, a in d._rows.items():
        s = pick(v)
        prev = best.get(s)
        best[s] = a if prev is None else kjoin(prev, a)
    return best


def _same_lattice(*tables: RankedDataTable) -> ResiduatedLattice:
    lat = tables[0].lattice
    for t in tables[1:]:
        if t.lattice != lat:
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
    kjoin = lat.kjoin
    r1 = d1._rows
    rows = dict(r1)
    for v, b in d2._rows.items():
        a = r1.get(v)
        rows[v] = b if a is None else kjoin(a, b)
    return _table(scheme, lat, rows)


def intersection(d1: RankedDataTable, d2: RankedDataTable) -> RankedDataTable:
    lat = _same_lattice(d1, d2)
    scheme = _same_scheme(d1, d2)
    kmeet = lat.kmeet
    r2 = d2._rows
    rows = {v: kmeet(a, r2[v]) for v, a in d1._rows.items() if v in r2}
    return _table(scheme, lat, rows)


def _join_rows(d1: RankedDataTable, d2: RankedDataTable, kernel) -> RankedDataTable:
    """Rows rs of D1 ⋈ D2 scored kernel(D1(r), D2(s)), by hashing D2 on the
    shared attributes."""
    plan = _join_plan(attrs_of(d1.scheme), attrs_of(d2.scheme))
    merge, left_key, right_key = plan.merge, plan.left_key, plan.right_key
    by_common: dict[tuple, list] = {}
    for v2, b in d2._rows.items():
        by_common.setdefault(right_key(v2), []).append((v2, b))
    rows = {}
    for v1, a in d1._rows.items():
        for v2, b in by_common.get(left_key(v1), ()):
            rows[merge(v1 + v2)] = kernel(a, b)
    return _table(_SCHEME_OF[plan.names], d1.lattice, rows)


def natural_join(d1: RankedDataTable, d2: RankedDataTable) -> RankedDataTable:
    """(D1 ⋈ D2)(rst) = D1(rs) ⊗ D2(st); ⊗ acts as the conjunctive aggregator."""
    return _join_rows(d1, d2, _same_lattice(d1, d2).kotimes)


def projection(d: RankedDataTable, scheme: Scheme) -> RankedDataTable:
    """(π_S D)(s) = ⋁ {D(r) | r(S) = s}; suprema interpret 'there is'."""
    scheme = frozenset(scheme)
    if not scheme <= d.scheme:
        raise SchemeError(
            f"projection target {sorted(scheme)} not within {sorted(d.scheme)}"
        )
    lat = d.lattice
    if scheme == d.scheme:
        return _table(d.scheme, lat, dict(d._rows))
    names = attrs_of(scheme)
    return _table(_SCHEME_OF[names], lat, _sup_index(d, names))


def semijoin(d1: RankedDataTable, d2: RankedDataTable) -> RankedDataTable:
    """π_R(D1 ⋈ D2); the algebraic form of "some φ is ψ" queries."""
    return projection(natural_join(d1, d2), d1.scheme)


def difference_graded(d1: RankedDataTable, d2: RankedDataTable) -> RankedDataTable:
    """(D1 ∖ D2)(r) = D1(r) ⊗ (D2(r) → 0).

    On the two-element lattice this is exactly set difference; on graded
    lattices it lacks several laws a difference would be expected to have,
    so only two-valued operations (the semidifference and the classic
    composed divisions of `gradix.harness.composed`) are built from it.
    """
    lat = _same_lattice(d1, d2)
    scheme = _same_scheme(d1, d2)
    kotimes, kresiduum, bottom = lat.kotimes, lat.kresiduum, lat.bottom
    r2 = d2._rows
    rows = {
        v: kotimes(a, kresiduum(r2.get(v, bottom), bottom))
        for v, a in d1._rows.items()
    }
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
    kotimes, kresiduum, bottom = lat.kotimes, lat.kresiduum, lat.bottom
    r1, r2 = d1._rows, d2._rows
    rows = {
        v: kotimes(g, kresiduum(r1.get(v, bottom), r2.get(v, bottom)))
        for v, g in rng._rows.items()
    }
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
        from .errors import UnboundSymbolError

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

    TYPES = ("integer", "text", "decimal")
    _ALIASES = {"int": "integer", "integer": "integer", "str": "text",
                "text": "text", "decimal": "decimal", "float": "decimal"}
    _PARSERS = {"integer": int, "text": str, "decimal": float}

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

    def parser(self, attr: str):
        """The function `parse_value(attr, ·)`, picked once for a column:
        `str` for text attributes, else a converter raising `parse_value`'s
        errors."""
        ty = self.type_of(attr) or "text"
        if ty == "text":
            return str
        convert = self._PARSERS[ty]
        finite = ty == "decimal"

        def parse(text: str):
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
        """The typed value of a CSV cell.  Decimals must be finite: nan is
        unequal to itself, so two nan rows would stay distinct tuples."""
        return self.parser(attr)(text)


#: Value types the csv module writes exactly as `str` writes them.
_PLAIN_TYPES = frozenset({str, int})


def _columns(d: RankedDataTable) -> list:
    """The value columns of `d`, in sorted-attribute order."""
    return list(zip(*d._rows))


def _column_types(columns: list) -> list:
    """The set of value types in each column."""
    return [set(map(type, col)) for col in columns]


def _runs(d: RankedDataTable, column_types: list) -> list:
    """The rows of `d` in `sorted_rows` order, as (degree, value tuples) runs.

    Rows are grouped by degree; the groups are ordered by a rank key
    computed once per distinct degree, and each group is sorted by values
    alone, so no row needs a nested (rank, values) key.  This is the order
    of the (rank, values) key because `sort_key` gives distinct degrees
    distinct keys.
    """
    groups: dict = {}
    for v, a in d._rows.items():
        group = groups.get(a)
        if group is None:
            groups[a] = [v]
        else:
            group.append(v)
    by_values = None  # value tuples of one type per column sort as they are
    if any(len(types) > 1 for types in column_types):
        def by_values(values):
            return tuple([(type(v).__name__, v) for v in values])
    sort_key = d.lattice.sort_key
    runs = sorted(groups.items(), key=lambda run: -float(sort_key(run[0])))
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


def _holds_cr(texts: list, columns: list, column_types: list) -> bool:
    """Whether one of `texts` or a text value of `columns` holds a "\r"."""
    return "\r" in "".join(texts) or any(
        "\r" in "".join(col if types == {str} else map(str, col))
        for col, types in zip(columns, column_types) if str in types
    )


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

    Rows come in `sorted_rows` order.  Each distinct degree is formatted
    once; cells of columns holding only `str` and `int` values go to the
    csv writer as they are, other columns through `_value_to_text` (floats
    to 9 significant digits).  A cell is quoted when it holds a comma, a
    quote, a line feed or a carriage return.
    """
    columns = _columns(d)
    column_types = _column_types(columns)
    converted = [i for i, types in enumerate(column_types) if not types <= _PLAIN_TYPES]

    def to_text(line):
        line = list(line)
        for i in converted:
            line[i] = _value_to_text(line[i])
        return line

    fmt = d.lattice.format_degree
    runs = [((fmt(a),), values) for a, values in _runs(d, column_types)]
    header = list(attrs_of(d.scheme)) + ["rank"]
    # A csv writer quotes a cell only for the characters of its line
    # terminator, and a "\r" left unquoted does not read back.  Text holding
    # one takes the "\r\n" writer through `_LfLines`; all other text takes
    # the plain writer, which writes the same bytes for it and spends about a
    # third less time (query-bulk, traced `table.write_csv.s`).
    if _holds_cr(header + [rank for (rank,), _values in runs], columns, column_types):
        writer = csv.writer(_LfLines(out), lineterminator="\r\n")
    else:
        writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for rank, values in runs:
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


def _cell_parser(parse):
    """Function from a raw CSV cell to its value: the cell is stripped and
    handed to the registry parser `parse`."""
    if parse is str:
        return str.strip
    return lambda cell: parse(cell.strip())


def read_csv(
    text_or_file,
    lattice: ResiduatedLattice,
    registry: AttributeRegistry,
    types: Mapping[str, str] | None = None,
) -> RankedDataTable:
    """Parse a CSV table.

    The header names the attributes; an optional final `rank` column carries
    the degree (default: top).  `types` declares attribute types, enforced
    through the session registry.  Every cell goes through its column's
    `registry.parser`, picked once per column, and every distinct rank text
    through `lattice.parse_degree`, once per call.  Two rows with the same
    tuple are a `SchemeError` naming the line of the second, and so is a
    record the csv module cannot parse, naming its line.
    """
    if isinstance(text_or_file, str):
        text_or_file = io.StringIO(text_or_file)
    # kept so that a repeated row can be found again, after the fact
    lines = list(text_or_file)
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemeError("CSV input has no header row") from None
    except csv.Error as exc:
        raise _malformed(reader, exc) from None
    header = [h.strip() for h in header]
    has_rank = bool(header) and header[-1] == "rank"
    attrs = header[:-1] if has_rank else header
    if len(set(attrs)) != len(attrs):
        raise SchemeError(f"duplicate attribute in CSV header {header}")
    for a, ty in (types or {}).items():
        registry.declare(a, ty)
    names = attrs_of(frozenset(attrs))
    to_sorted = _picker(tuple(attrs.index(a) for a in names))
    parsers = [_cell_parser(registry.parser(a)) for a in attrs]
    parse_degree = lattice.parse_degree
    rank = lattice.top  # every row's rank when there is no rank column
    ranks: dict = {}
    width = len(header)
    rows = {}
    count = blank = 0
    try:
        for count, row in enumerate(reader, 1):
            if not row:
                blank += 1
                continue
            if len(row) != width:
                raise SchemeError(f"CSV row {row} does not match header {header}")
            values = to_sorted([parse(cell) for parse, cell in zip(parsers, row)])
            if has_rank:
                text = row[-1]
                rank = ranks.get(text)
                if rank is None:
                    rank = ranks[text] = parse_degree(text.strip())
            rows[values] = rank
    except csv.Error as exc:
        raise _malformed(reader, exc) from None
    if count - blank != len(rows):
        raise _repeated_row(lines, parsers, to_sorted)
    return _table(_SCHEME_OF[names], lattice, rows)


def _malformed(reader, exc: csv.Error) -> SchemeError:
    return SchemeError(f"CSV line {reader.line_num} is malformed: {exc}")


def _repeated_row(lines: list, parsers: list, to_sorted) -> SchemeError:
    """The error for the first data row whose tuple an earlier row has."""
    reader = csv.reader(lines)
    next(reader)
    first_line: dict = {}
    start = reader.line_num + 1
    for row in reader:
        if row:
            values = to_sorted([parse(cell) for parse, cell in zip(parsers, row)])
            if values in first_line:
                return SchemeError(
                    f"CSV line {start} repeats the tuple of line {first_line[values]}"
                )
            first_line[values] = start
        start = reader.line_num + 1
    raise AssertionError("no repeated row")
