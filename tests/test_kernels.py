"""Kernel ops and row kernels.

Each lattice class writes ∧, ∨, ⊗ and → once, as expressions from which
both its `k<op>` methods and the operators' row kernels are built
(`gradix.lattice.RowLoop`).  These tests hold both forms to the functions
the ops were before they were generated, keep the kernel cache at one
kernel per (row loop, lattice class), and keep every name, value and label
out of the generated source.
"""

import itertools
import operator
from pathlib import Path

import pytest

import gradix as gx
from gradix import division, lattice, table
from gradix.errors import LatticeError
from gradix.harness import gen
from gradix.lattice import (
    BooleanLattice,
    FiniteChain,
    FiniteTableLattice,
    GoedelLattice,
    GoguenLattice,
    LukasiewiczLattice,
    ResiduatedLattice,
    RowLoop,
    UnitIntervalLattice,
)
from gradix.table import _table

from conftest import rdt, witness_lattice

# -- the ops as plain functions, as each class defined them -------------------


def _goedel_residuum(a, b):
    return 1.0 if a <= b else b


def _lukasiewicz_otimes(a, b):
    if b == 1.0:
        return a
    if a == 1.0:
        return b
    return max(a + b - 1.0, 0.0)


def _lukasiewicz_residuum(a, b):
    return min(1.0, 1.0 - a + b)


def _goguen_residuum(a, b):
    return 1.0 if a <= b else b / a


REFERENCE = {
    BooleanLattice: (min, max, min, lambda a, b: 1 if a <= b else 0),
    GoedelLattice: (min, max, min, _goedel_residuum),
    LukasiewiczLattice: (min, max, _lukasiewicz_otimes, _lukasiewicz_residuum),
    GoguenLattice: (min, max, operator.mul, _goguen_residuum),
}


class _ChainReference(FiniteChain):
    kmeet = staticmethod(min)
    kjoin = staticmethod(max)

    def kotimes(self, a, b):
        return max(a + b - self.top, 0)

    def kresiduum(self, a, b):
        return min(self.top, self.top - a + b)


class _TableReference(FiniteTableLattice):
    def kmeet(self, a, b):
        return self._meet[a][b]

    def kjoin(self, a, b):
        return self._join[a][b]

    def kotimes(self, a, b):
        return self._otimes[a][b]

    def kresiduum(self, a, b):
        return self._residuum[a][b]


def _table_args(lat: FiniteTableLattice) -> tuple:
    """The carrier, order and ⊗ table that build `lat` again."""
    labels = lat.carrier
    order = [(labels[i], labels[j]) for i, row in enumerate(lat._leq)
             for j, le in enumerate(row) if le]
    otimes = [(labels[i], labels[j], labels[c]) for i, row in enumerate(lat._otimes)
              for j, c in enumerate(row)]
    return labels, order, otimes


def boolean_algebra4() -> FiniteTableLattice:
    """The four-element Boolean algebra {0, a, b, 1}, with ⊗ its meet."""
    return FiniteTableLattice(["0", "a", "b", "1"],
                              [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")],
                              [("a", "a", "a"), ("a", "b", "0"), ("b", "b", "b")])


def reference(lat: ResiduatedLattice) -> ResiduatedLattice:
    """A lattice equal in values to `lat` whose class defines the ops as the
    functions they were, so its row kernels call them."""
    if isinstance(lat, FiniteTableLattice):
        return _TableReference(*_table_args(lat))
    if isinstance(lat, FiniteChain):
        return _ChainReference(lat.n)
    cls = type(lat)
    ops = dict(zip(("kmeet", "kjoin", "kotimes", "kresiduum"), map(staticmethod, REFERENCE[cls])))
    return type("Reference" + cls.__name__, (cls,), ops)()


FINITE = {"boolean": BooleanLattice, "chain5": lambda: FiniteChain(5),
          "witness6": witness_lattice, "boolean_algebra4": boolean_algebra4}
UNIT = {"godel": GoedelLattice, "lukasiewicz": LukasiewiczLattice, "goguen": GoguenLattice}

#: a grid of twentieths with 0 and 1, thirds, 0.1 + 0.2 next to 0.3, the
#: smallest normal float, and the float just below 1
FLOAT_GRID = sorted({i / 20 for i in range(21)} | {1 / 3, 2 / 3, 0.1 + 0.2, 0.3,
                                                   2 ** -1022, 1 - 2 ** -53})


def _samples(lat) -> list:
    if isinstance(lat, UnitIntervalLattice):
        return FLOAT_GRID
    return list(range(len(lat.carrier))) if isinstance(lat, FiniteTableLattice) \
        else list(range(lat.bottom, lat.top + 1))


def _same(x, y) -> bool:
    return x == y and type(x) is type(y)


# -- (a) parity ----------------------------------------------------------------


@pytest.mark.parametrize("make", list(FINITE.values()) + list(UNIT.values()),
                         ids=list(FINITE) + list(UNIT))
def test_kernel_ops_give_the_values_of_the_functions_they_replace(make):
    lat = make()
    ref = reference(lat)
    for a, b in itertools.product(_samples(lat), repeat=2):
        for op in ("kmeet", "kjoin", "kotimes", "kresiduum"):
            assert _same(getattr(lat, op)(a, b), getattr(ref, op)(a, b)), (op, a, b)


def _operator_outputs(lat: ResiduatedLattice, source: ResiduatedLattice, seeds: int) -> list:
    """(scheme, rows in order) of every table operator and division on
    tables drawn over `source` and moved to the equal-valued `lat`."""
    outs = []
    for seed in range(seeds):
        cfg = gen.GenConfig(seed=seed, lattice=source, max_rows=2 + seed % 7,
                            max_values=1 + seed % 3, score_step=(0.05, 0.25, 0.5)[seed % 3])
        rng = gen.sub_rng(seed, "kernel-parity")
        r, s, t = gen.split_pool(rng, [rng.randint(0, 2) for _ in range(3)])

        def draw(scheme, salt):
            drawn = gen.gen_rdt(cfg, scheme, salt)
            return _table(drawn.scheme, lat, dict(drawn._rows))

        rs, rs2, st = draw(r | s, "rs"), draw(r | s, "rs2"), draw(s | t, "st")
        results = [
            gx.union(rs, rs2), gx.intersection(rs, rs2), gx.natural_join(rs, st),
            gx.projection(rs, r), gx.semijoin(rs, st), gx.difference_graded(rs, rs2),
            gx.residuum_with_range(rs, rs2, draw(r | s, "range")),
            gx.div_ranged(rs, draw(s, "s"), draw(r, "r")),
            gx.div_gsdo(draw(r, "r"), draw(s, "s"), rs),
            gx.div_gsd(draw(r | t, "rt"), draw(s, "s"), rs),
            gx.div_gcodd(rs, draw(s, "s"), gx.nabla(draw(r, "u"))),
            gx.div_gtodd(rs, st, gx.nabla(draw(r | t, "u"))),
            gx.div_ggdo(draw(r, "r"), draw(t, "t"), rs, st),
            gx.div_gddo(draw(r, "r"), draw(t, "t"), rs, st),
            gx.div_gddo(rs, draw(t, "t"), draw(r, "r"), st),
        ]
        if isinstance(lat, BooleanLattice):
            results.append(gx.semidifference(rs, st))
        outs += [(sorted(out.scheme), list(out._rows.items())) for out in results]
    return outs


@pytest.mark.parametrize("make", list(FINITE.values()) + list(UNIT.values()),
                         ids=list(FINITE) + list(UNIT))
def test_row_kernels_give_the_rows_of_the_called_functions(make):
    lat = make()
    ref = reference(lat)
    got, want = _operator_outputs(lat, lat, 40), _operator_outputs(ref, lat, 40)
    assert [[(v, (d, type(d))) for v, d in rows] for _s, rows in got] == \
           [[(v, (d, type(d))) for v, d in rows] for _s, rows in want]
    assert any(rows for _s, rows in got)


def _grid_outputs(lat: ResiduatedLattice) -> list:
    """Rows in order, with degree types, of the row loops on tables where
    every pair of grid degrees meets, ties included."""
    pairs = list(itertools.product(FLOAT_GRID, repeat=2))
    d1 = _table(frozenset({"A"}), lat, {(i,): x for i, (x, _y) in enumerate(pairs) if x})
    d2 = _table(frozenset({"A"}), lat, {(i,): y for i, (_x, y) in enumerate(pairs) if y})
    outs = [gx.union(d1, d2), gx.intersection(d1, d2), gx.difference_graded(d1, d2),
            gx.residuum_with_range(d1, d2, gx.nabla(gx.union(d1, d2))),
            gx.natural_join(d1, d2), gx.semijoin(d1, d2), gx.projection(d1, set()),
            gx.div_gsdo(gx.projection(d1, set()), d1, d2)]
    return [[(v, d, type(d)) for v, d in out._rows.items()] for out in outs]


@pytest.mark.parametrize("make", list(UNIT.values()), ids=list(UNIT))
def test_unit_interval_row_kernels_on_the_float_grid(make):
    lat = make()
    assert _grid_outputs(lat) == _grid_outputs(reference(lat))


# -- (b) one kernel per (row loop, lattice class) -------------------------------


def row_loops() -> list:
    return [v for module in (table, division) for v in vars(module).values()
            if isinstance(v, RowLoop)]


def test_the_cache_holds_one_kernel_per_lattice_class(tmp_path):
    path = tmp_path / "witness6.lat"
    path.write_bytes((Path(__file__).parents[1] / "bench" / "witness6.lat").read_bytes())
    built_in = [BooleanLattice(), GoedelLattice(), LukasiewiczLattice(), GoguenLattice(),
                FiniteChain(3), FiniteChain(5)]
    for lat in built_in + [gx.load_lattice_file(str(path))]:
        _operator_outputs(lat, lat, 12)
    before = {loop.name: dict(loop) for loop in row_loops()}
    second = gx.lattice_from_spec(f"table:{path}")
    _operator_outputs(second, second, 12)
    assert len(before) == 8
    for loop in row_loops():
        assert dict(loop) == before[loop.name]  # the second load compiled nothing
        assert all(isinstance(cls, type) for cls in loop)
        assert {type(lat) for lat in built_in} | {FiniteTableLattice} <= set(loop)


# -- (c) a class with only k<op> methods ----------------------------------------


class CallsOnly(ResiduatedLattice):
    """Gödel's ops as methods only, as a user might write them."""

    kind = "calls-only"
    bottom, top = 0.0, 1.0
    calls = 0

    def check(self, value):
        return UnitIntervalLattice.check(self, value)

    def kmeet(self, a, b):
        CallsOnly.calls += 1
        return min(a, b)

    def kjoin(self, a, b):
        CallsOnly.calls += 1
        return max(a, b)

    def kotimes(self, a, b):
        CallsOnly.calls += 1
        return min(a, b)

    def kresiduum(self, a, b):
        CallsOnly.calls += 1
        return 1.0 if a <= b else b

    def degree_diff(self, a, b):
        return abs(a - b)


def test_a_class_with_only_methods_runs_them_in_every_row_loop():
    godel, plain = GoedelLattice(), CallsOnly()
    assert CallsOnly._kernel_class is CallsOnly
    CallsOnly.calls = 0
    got = _operator_outputs(plain, godel, 30)
    assert got == _operator_outputs(godel, godel, 30)
    assert CallsOnly.calls > 1000


def test_a_class_may_write_its_ops_as_expressions():
    class Product(UnitIntervalLattice):
        kind = "product-by-expressions"
        kernel_expressions = {"otimes": "{a} * {b}",
                              "residuum": "1.0 if {a} <= {b} else {b} / {a}"}

    lat, goguen = Product(), GoguenLattice()
    assert lat.kotimes(0.5, 0.5) == 0.25 and lat.kresiduum(0.5, 0.25) == 0.5
    assert _operator_outputs(lat, goguen, 20) == _operator_outputs(goguen, goguen, 20)
    with pytest.raises(LatticeError, match="'plus' is not a kernel op"):
        type("Bad", (UnitIntervalLattice,), {"kernel_expressions": {"plus": "{a} + {b}"}})


def test_an_instance_with_its_own_op_computes_with_it(godel, monkeypatch):
    calls = []
    monkeypatch.setattr(godel, "kotimes", lambda a, b: calls.append(1) or min(a, b))
    d1 = rdt(godel, {"A"}, {"x": 0.5, "y": 0.25})
    assert gx.natural_join(d1, d1).rows
    assert len(calls) == 2
    assert GoedelLattice()._kernel_class is GoedelLattice


# -- (d) no name, value or label reaches the generated source -------------------


@pytest.fixture
def sources(monkeypatch):
    """The source of every kernel compiled from here on, with every row
    loop's cache emptied first and restored after."""
    texts = []

    def recording(source, *args):
        texts.append(source)
        return compile(source, *args)

    saved = [(loop, dict(loop)) for loop in row_loops()]
    for loop, _kernels in saved:
        loop.clear()
    monkeypatch.setattr(lattice, "compile", recording, raising=False)
    yield texts
    for loop, kernels in saved:
        loop.clear()
        loop.update(kernels)


CODE_LIKE = ["__import__('os').system('false')", "{top}", "{a}", "OTIMES(a,b)",
             "lat.__class__", '"""', "');exec('1", "\\"]


def test_code_like_names_values_and_labels_stay_out_of_kernels(sources, tmp_path):
    godel = GoedelLattice()
    outs = []
    for x, values in (("A", ("a1", "a2", "b1", "b2")), ("__import__", CODE_LIKE[:4])):
        rows = {(values[0], values[2]): 0.5, (values[1], values[3]): 0.75}
        if x > "B":  # value tuples go in sorted-attribute order
            rows = {(b, a): d for (a, b), d in rows.items()}
        d1 = rdt(godel, {x, "B"}, rows)
        d2 = rdt(godel, {"B"}, {values[2]: 0.25, values[3]: 1.0})
        results = [gx.natural_join(d1, d2), gx.semijoin(d1, d2), gx.projection(d1, {"B"}),
                   gx.div_gsdo(gx.projection(d1, {x}), d2, d1)]
        outs.append([list(t._rows.values()) for t in results])
    assert outs[0] == outs[1] and outs[0][0]

    labels = ["0"] + CODE_LIKE[:4] + ["1"]  # a chain, ⊗ its minimum
    lines = ["carrier " + " ".join(labels)]
    lines += [f"order {x} {y}" for x, y in zip(labels, labels[1:])]
    lines += [f"otimes {labels[i]} {labels[j]} {labels[i]}"
              for i in range(1, 5) for j in range(i, 5)]
    folder = tmp_path / "table:{a}');__import__('os"
    folder.mkdir()
    (folder / "l.lat").write_text("\n".join(lines) + "\n", encoding="utf-8")
    coded = gx.lattice_from_spec(f"table:{folder / 'l.lat'}")
    assert coded.carrier == tuple(labels)
    assert _operator_outputs(coded, coded, 8) == _operator_outputs(reference(coded), coded, 8)

    assert len(sources) >= 9
    for text in sources:
        for code in CODE_LIKE + ["table:", "__import__"]:
            assert code not in text, (code, text)
