import functools

import pytest

from gradix import (
    Atom,
    BooleanLattice,
    FiniteChain,
    GoedelLattice,
    GoguenLattice,
    LukasiewiczLattice,
    RankedDataTable,
    Tuple,
)
from gradix.algebra import walk
from gradix.harness.latsearch import search_distributivity_counterexample


def sch(*names):
    return frozenset(names)


def rdt(lat, scheme, rows):
    """Shorthand table builder: keys are value tuples in sorted-attribute
    order (a bare scalar for single-attribute schemes)."""
    attrs = sorted(scheme)
    out = {}
    for key, d in rows.items():
        values = key if isinstance(key, tuple) else (key,)
        out[Tuple(zip(attrs, values))] = d
    return RankedDataTable(frozenset(scheme), lat, out)


def tup(scheme, *values):
    return Tuple(zip(sorted(scheme), values))


def atom_vars(expr) -> dict:
    """Name → scheme of the tuple variables of a calculus expression's
    atoms, which every well-formed expression's binders occur in."""
    return {v.name: v.scheme for node in walk(expr) if type(node) is Atom
            for v in node.vars}


def count_rule(monkeypatch, owner, name):
    """A list that grows by one per call of `owner.name`, a traversal's rule
    or any other function."""
    calls = []
    inner = getattr(owner, name)

    def counting(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def scores(table):
    """Support as a plain {value-tuple-dict: degree} map, for assertions."""
    return {tuple(sorted(t.items())): d for t, d in table.rows.items()}


@pytest.fixture
def boolean():
    return BooleanLattice()


@pytest.fixture
def godel():
    return GoedelLattice()


@pytest.fixture
def lukasiewicz():
    return LukasiewiczLattice()


@pytest.fixture
def goguen():
    return GoguenLattice()


@pytest.fixture
def chain5():
    return FiniteChain(5)


#: the lattices of `any_lattice`, by fixture id
LATTICES = {
    "boolean": BooleanLattice,
    "godel": GoedelLattice,
    "lukasiewicz": LukasiewiczLattice,
    "goguen": GoguenLattice,
    "chain3": lambda: FiniteChain(3),
    "chain5": lambda: FiniteChain(5),
}


@functools.cache
def witness_lattice():
    """The carrier-6 table lattice on which ⊗ fails to distribute over ∧."""
    lat, *_ = search_distributivity_counterexample(6)
    return lat


@pytest.fixture(params=list(LATTICES))
def any_lattice(request):
    return LATTICES[request.param]()


@pytest.fixture(params=["godel", "lukasiewicz", "goguen"])
def unit_lattice(request):
    return {
        "godel": GoedelLattice(),
        "lukasiewicz": LukasiewiczLattice(),
        "goguen": GoguenLattice(),
    }[request.param]
