"""Structures of degrees: axioms, closed forms against the supremum oracle,
finite-table validation, selection strings."""

import random
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from gradix import (
    DEGREE_TOL,
    BooleanLattice,
    DegreeError,
    FiniteChain,
    FiniteTableLattice,
    LatticeAxiomError,
    LatticeError,
    lattice_from_spec,
    load_lattice_file,
    make_lattice,
)

GRID_STEP = 0.001


def grid_residuum(lat, a, b, steps=1000):
    """Supremum-of-feasible-c oracle on an even grid: the largest grid point
    c with a⊗c ≤ b.  Independent of the closed forms under test."""
    best = 0.0
    for k in range(steps + 1):
        c = k / steps
        if lat.otimes(a, c) <= b + 1e-12:
            best = max(best, c)
    return best


def test_otimes_examples(lukasiewicz, goguen, any_lattice):
    assert lukasiewicz.otimes(0.7, 0.6) == pytest.approx(0.3, abs=DEGREE_TOL)
    assert goguen.otimes(0.8, 0.5) == pytest.approx(0.4, abs=DEGREE_TOL)
    lat = any_lattice
    for a in _samples(lat):
        assert lat.eq(lat.otimes(a, lat.top), a)
        assert lat.eq(lat.otimes(a, lat.bottom), lat.bottom)


def test_residuum_boundary(any_lattice):
    lat = any_lattice
    for a in _samples(lat):
        assert lat.residuum(lat.bottom, a) == lat.top
        assert lat.residuum(a, lat.top) == lat.top


def test_residuum_examples_match_grid_oracle(godel, lukasiewicz):
    # frozen values were produced by the grid oracle itself
    assert grid_residuum(godel, 0.7, 0.4) == pytest.approx(0.4, abs=1e-12)
    assert godel.residuum(0.7, 0.4) == pytest.approx(0.4, abs=DEGREE_TOL)
    assert grid_residuum(lukasiewicz, 0.7, 0.4) == pytest.approx(0.7, abs=1e-12)
    assert lukasiewicz.residuum(0.7, 0.4) == pytest.approx(0.7, abs=DEGREE_TOL)


def test_closed_forms_against_grid_oracle(unit_lattice):
    """The closed form dominates every feasible grid point, stays within one
    grid step of the grid supremum, and is itself feasible."""
    lat = unit_lattice
    rng = random.Random(20240511)
    for _ in range(200):
        a = rng.randrange(0, 1001) / 1000
        b = rng.randrange(0, 1001) / 1000
        closed = lat.residuum(a, b)
        gridded = grid_residuum(lat, a, b)
        assert closed >= gridded - 1e-9
        assert closed <= gridded + GRID_STEP + 1e-9
        assert lat.otimes(a, closed) <= b + DEGREE_TOL
        if lat.kind in ("goedel", "lukasiewicz"):
            assert abs(closed - gridded) <= 1e-6


def _samples(lat):
    if isinstance(lat, BooleanLattice):
        return [0, 1]
    if isinstance(lat, FiniteChain):
        return list(range(lat.n))
    return [0.0, 0.05, 0.3, 0.5, 0.7, 1.0]


def test_adjointness_exhaustive_finite():
    for lat in (BooleanLattice(), FiniteChain(3), FiniteChain(5), FiniteChain(6)):
        elems = _samples(lat)
        for a in elems:
            for b in elems:
                for c in elems:
                    assert lat.leq(lat.otimes(a, b), c) == lat.leq(a, lat.residuum(b, c))


@given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
@example(0.5, 5e-324, 0.0)  # Goguen: 0.5 ⊗ 5e-324 underflows to 0, 5e-324 → 0 is 0
def test_adjointness_floats(a, b, c):
    for lat in (make_lattice("godel"), make_lattice("lukasiewicz"), make_lattice("goguen")):
        if lat.otimes(a, b) <= c:
            assert a <= lat.residuum(b, c) + DEGREE_TOL
        if a <= lat.residuum(b, c):
            assert lat.otimes(a, b) <= c + DEGREE_TOL


@given(st.floats(0, 1))
@example(0.1)  # 1.0 + 0.1 - 1.0 is 0.10000000000000009
@example(0.9500000000000001)
def test_top_is_an_exact_unit_of_otimes(x):
    """a ⊗ 1 = 1 ⊗ a = a with ==, not within the tolerance, on every
    built-in lattice and every carrier member a."""
    carrier, order, _ = _diamond_tables()
    diamond = FiniteTableLattice(carrier, order, [("a", "a", "a"), ("a", "b", "0"),
                                                  ("b", "b", "b")])
    for lat in (make_lattice("boolean"), make_lattice("godel"), make_lattice("lukasiewicz"),
                make_lattice("goguen"), FiniteChain(2), FiniteChain(5), FiniteChain(7), diamond):
        if lat is diamond:
            a = round(x * (diamond.size() - 1))
        elif isinstance(lat, (BooleanLattice, FiniteChain)):
            a = round(x * lat.top)
        else:
            a = lat.check(x)
        assert lat.kotimes(a, lat.top) == a
        assert lat.kotimes(lat.top, a) == a
        assert lat.otimes(a, lat.top) == a


def test_otimes_distributes_over_sup(any_lattice):
    lat = any_lattice
    rng = random.Random(99)
    elems = _samples(lat)
    for _ in range(200):
        a = rng.choice(elems)
        subset = [rng.choice(elems) for _ in range(rng.randint(0, 4))]
        left = lat.otimes(a, lat.sup(subset))
        right = lat.sup(lat.otimes(a, s) for s in subset)
        assert lat.eq(left, right)


def test_empty_inf_sup(any_lattice):
    lat = any_lattice
    assert lat.inf([]) == lat.top
    assert lat.sup([]) == lat.bottom


def test_sup_inf_examples(godel):
    assert godel.sup([0.2, 0.9, 0.4]) == 0.9
    chain = FiniteChain(5)
    assert chain.inf([2, 3]) == 2  # 2/4 exactly


def test_boolean_collapse_of_connectives(boolean):
    assert boolean.otimes(1, 1) == 1 and boolean.otimes(1, 0) == 0
    for a in (0, 1):
        for b in (0, 1):
            assert boolean.otimes(a, b) == boolean.meet(a, b)
            assert boolean.residuum(a, b) == (1 if (not a) or b else 0)


def test_chain_lukasiewicz_levels():
    chain = FiniteChain(3)
    assert chain.otimes(1, 1) == 0  # ½ ⊗ ½ on exact levels
    assert chain.residuum(2, 1) == 1
    assert chain.otimes(2, 1) == 1


def test_carrier_membership_errors(godel, chain5):
    with pytest.raises(DegreeError):
        godel.otimes(1.5, 0.5)
    with pytest.raises(DegreeError):
        godel.otimes("x", 0.5)
    with pytest.raises(DegreeError):
        chain5.otimes(7, 1)
    with pytest.raises(DegreeError):
        chain5.otimes(0.5, 1)  # float degree from another lattice kind


def test_subnormal_degrees_flush_to_zero(unit_lattice):
    assert unit_lattice.check(5e-324) == 0.0
    assert unit_lattice.check(sys.float_info.min) == sys.float_info.min
    assert unit_lattice.parse_degree("1e-320") == 0.0


def test_kernels_agree_with_checked_ops(any_lattice):
    lat = any_lattice
    elems = _samples(lat)
    for a in elems:
        for b in elems:
            assert lat.kmeet(a, b) == lat.meet(a, b)
            assert lat.kjoin(a, b) == lat.join(a, b)
            assert lat.kotimes(a, b) == lat.otimes(a, b)
            assert lat.kresiduum(a, b) == lat.residuum(a, b)
    assert lat.kinf(elems) == lat.inf(elems)
    assert lat.kinf([]) == lat.top


def _diamond_tables():
    carrier = ["0", "a", "b", "1"]
    order = [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]
    otimes = [(x, y, "0") for x in ("a", "b") for y in ("a", "b")]
    return carrier, order, otimes


def test_finite_table_lattice_accepts_goedel_diamond():
    carrier, order, _ = _diamond_tables()
    otimes = [("a", "a", "a"), ("a", "b", "0"), ("b", "b", "b")]
    lat = FiniteTableLattice(carrier, order, otimes)
    ia, ib = carrier.index("a"), carrier.index("b")
    assert lat.otimes(ia, ib) == 0
    assert lat.residuum(ia, lat.bottom) == ib  # largest c with a⊗c = 0
    assert lat.join(ia, ib) == lat.top


def test_finite_table_lattice_rejects_bad_structures():
    carrier, order, _ = _diamond_tables()
    # x⊗y = 0 for middles is not residuated on the diamond:
    # {c | a⊗c ≤ 0} = {0, a, b} has no greatest element
    with pytest.raises(LatticeAxiomError) as exc:
        FiniteTableLattice(carrier, order, _diamond_tables()[2])
    assert exc.value.axiom in ("adjointness", "lattice-join", "monotonicity")

    with pytest.raises(LatticeAxiomError) as exc:
        FiniteTableLattice(
            ["0", "a", "b", "1"],
            [("0", "a"), ("a", "1"), ("0", "b"), ("b", "1")],
            [("a", "a", "1"), ("a", "b", "0"), ("b", "b", "b")],
        )
    assert exc.value.witnesses  # names the offending elements

    # no unique meet: two maximal lower bounds
    with pytest.raises(LatticeAxiomError):
        FiniteTableLattice(
            ["0", "a", "b", "c", "d", "1"],
            [("0", "a"), ("0", "b"), ("a", "c"), ("b", "c"),
             ("a", "d"), ("b", "d"), ("c", "1"), ("d", "1")],
            [],
        )


def test_finite_table_associativity_violation_named():
    # 4-element non-chain carrier with (a⊗b)⊗b ≠ a⊗(b⊗b)
    carrier, order, _ = _diamond_tables()
    with pytest.raises(LatticeAxiomError) as exc:
        FiniteTableLattice(
            carrier, order,
            [("a", "a", "a"), ("a", "b", "1"), ("b", "b", "b")],
        )
    assert exc.value.axiom == "associativity"
    assert exc.value.witnesses == ("a", "a", "b")

    # non-associative table on a 4-chain is also rejected
    with pytest.raises(LatticeAxiomError) as exc:
        FiniteTableLattice(
            ["0", "a", "b", "1"],
            [("0", "a"), ("a", "b"), ("b", "1")],
            [("a", "a", "a"), ("a", "b", "0"), ("b", "b", "b")],
        )
    assert exc.value.axiom in ("associativity", "monotonicity")


_DIAMOND_ORDER = [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]


@pytest.mark.parametrize("carrier, order, otimes, axiom, witnesses", [
    # a cycle a ≤ b ≤ c ≤ a: only the closure of the order shows it
    (["0", "a", "b", "c", "1"], [("0", "a"), ("a", "b"), ("b", "c"), ("c", "a"), ("c", "1")],
     [], "antisymmetry", ("a", "b")),
    # c and d have the lower bounds 0, a, b and no greatest one; so have d and c
    (["0", "a", "b", "c", "d", "1"], [("0", "a"), ("0", "b"), ("a", "c"), ("b", "c"),
                                      ("a", "d"), ("b", "d"), ("c", "1"), ("d", "1")],
     [], "lattice-meet", ("c", "d")),
    (["0", "a", "b"], [("0", "a"), ("0", "b")], [], "lattice-join", ("a", "b")),
    # no least element: a poset whose every pair has a meet and a join is
    # bounded, so the missing bottom shows as a missing meet
    (["a", "b", "1"], [("a", "1"), ("b", "1")], [], "lattice-meet", ("a", "b")),
    (["0", "a", "b", "1"], _DIAMOND_ORDER, [("a", "b", "0"), ("b", "a", "a")],
     "commutativity", ("b", "a")),
    (["0", "a", "b", "1"], _DIAMOND_ORDER,
     [("a", "1", "0"), ("a", "a", "0"), ("a", "b", "0"), ("b", "b", "b")], "unit", ("a",)),
    (["0", "a", "b", "1"], _DIAMOND_ORDER, [("a", "a", "a"), ("a", "b", "1"), ("b", "b", "b")],
     "associativity", ("a", "a", "b")),
    (["0", "m", "1"], [("0", "m"), ("m", "1")], [("m", "m", "1")],
     "monotonicity", ("m", "m", "1")),
    (["0", "a", "b", "1"], _DIAMOND_ORDER, [(x, y, "0") for x in "ab" for y in "ab"],
     "adjointness", ("1", "a", "0")),
], ids=["antisymmetry", "lattice-meet", "lattice-join", "bounded", "commutativity", "unit",
        "associativity", "monotonicity", "adjointness"])
def test_finite_table_lattice_names_the_first_failing_witness(carrier, order, otimes, axiom,
                                                              witnesses):
    with pytest.raises(LatticeAxiomError) as exc:
        FiniteTableLattice(carrier, order, otimes)
    assert (exc.value.axiom, exc.value.witnesses) == (axiom, witnesses)


def test_table_lattice_tables_match_brute_force_on_every_small_structure():
    """The meet, join and residuum tables of every residuated lattice up to
    carrier 6 against their definitions, element by element."""
    from gradix.harness import latsearch

    def greatest(cands, leq):
        best = [k for k in cands if all(leq[m][k] for m in cands)]
        assert len(best) == 1
        return best[0]

    structures = 0
    for n, leq, _meet, _join, otimes in latsearch.enumerate_residuated_lattices(6):
        lat, r = latsearch.as_table_lattice(n, leq, otimes), range(n)
        dual = [[leq[j][i] for j in r] for i in r]
        assert lat._leq == leq
        for a in r:
            for b in r:
                assert lat._meet[a][b] == greatest(
                    [k for k in r if leq[k][a] and leq[k][b]], leq)
                assert lat._join[a][b] == greatest(
                    [k for k in r if leq[a][k] and leq[b][k]], dual)
                assert lat._residuum[a][b] == greatest(
                    [c for c in r if leq[otimes[a][c]][b]], leq)
        structures += 1
    assert structures == 179


def test_make_lattice_and_selection_strings():
    assert make_lattice("boolean").kind == "boolean"
    assert make_lattice("godel").kind == "goedel"
    assert lattice_from_spec("chain:4").n == 4
    assert lattice_from_spec("lukasiewicz").kind == "lukasiewicz"
    with pytest.raises(LatticeError):
        make_lattice("tropical")
    with pytest.raises(LatticeError):
        lattice_from_spec("chain:x")
    with pytest.raises(LatticeError):
        FiniteChain(1)


@pytest.mark.parametrize("kind, params, missing", [
    ("chain", {}, "'n'"),
    ("finite_chain", {}, "'n'"),
    ("table", {}, "'carrier', 'order', 'otimes'"),
    ("finite_table", {"carrier": ["0", "1"], "order": []}, "'otimes'"),
])
def test_make_lattice_names_a_missing_parameter(kind, params, missing):
    with pytest.raises(LatticeError, match=f"lattice kind '{kind}' needs {missing}$"):
        make_lattice(kind, **params)


def test_lattice_file_round_trip(tmp_path):
    text = "\n".join(
        ["# tiny chain", "carrier 0 m 1", "order 0 m", "order m 1",
         "otimes m m 0"]
    )
    path = tmp_path / "lat.txt"
    path.write_text(text)
    lat = load_lattice_file(path)
    assert lat.carrier == ("0", "m", "1")
    assert lat.otimes(1, 1) == 0
    assert lat.format_degree(1) == "m"
    assert lat.parse_degree("m") == 1
    assert lattice_from_spec(f"table:{path}") == lat


def test_a_lattice_file_may_start_with_a_byte_order_mark(tmp_path):
    source = Path(__file__).parents[1] / "bench" / "witness6.lat"
    marked = tmp_path / "witness6.lat"
    marked.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
    assert load_lattice_file(marked) == load_lattice_file(source)


def test_a_lattice_file_refuses_a_second_carrier_line(tmp_path):
    path = tmp_path / "lat.txt"
    path.write_text("# two carriers\ncarrier 0 1\norder 0 1\ncarrier a b c\n")
    with pytest.raises(LatticeError) as exc:
        load_lattice_file(path)
    assert type(exc.value) is LatticeError
    assert str(exc.value) == f"{path}:4: a second carrier line (the first is line 2)"


def test_a_lattice_file_names_a_product_given_twice(tmp_path):
    path = tmp_path / "lat.txt"
    path.write_text("carrier 0 m 1\norder 0 m\norder m 1\notimes m m 0\n"
                    "otimes 1 1 1\notimes m m 0\notimes 1 1 0\n")
    with pytest.raises(LatticeError) as exc:
        load_lattice_file(path)
    assert type(exc.value) is LatticeError
    assert str(exc.value) == (f"{path}:7: otimes 1 1 given twice with different values "
                              "(1 at line 5, 0 here)")
    # a b and b a that disagree are still a failure of commutativity
    path.write_text("carrier 0 m 1\norder 0 m\norder m 1\notimes m 1 m\notimes 1 m 0\n")
    with pytest.raises(LatticeAxiomError) as exc:
        load_lattice_file(path)
    assert (exc.value.axiom, exc.value.witnesses) == ("commutativity", ("1", "m"))


@pytest.mark.parametrize("text, message", [
    ("carrier 0 a b 1\norder 0 a\norder 0 b\n",
     "axiom 'lattice-meet' fails at ('0', '1'): no unique bound"),
    ("carrier 0 a 1\norder 0 a\norder a 1\n", "otimes table misses a ⊗ a"),
    ("carrier 0 a a 1\n", "carrier labels must be distinct"),
    ("carrier\n", "carrier must be nonempty"),
    ("carrier 0 1\norder 0 z\n", "order pair mentions unknown element 'z'"),
], ids=["axiom", "missing-product", "repeated-label", "empty-carrier", "unknown-element"])
def test_a_lattice_file_that_fails_validation_names_the_file(tmp_path, text, message):
    path = tmp_path / "lat.txt"
    path.write_text(text)
    with pytest.raises(LatticeError) as exc:
        load_lattice_file(path)
    assert str(exc.value) == f"{path}: {message}"
    with pytest.raises(type(exc.value)) as selected:
        lattice_from_spec(f"table:{path}")
    assert str(selected.value) == str(exc.value)
    if isinstance(exc.value, LatticeAxiomError):
        assert (exc.value.axiom, exc.value.witnesses) == ("lattice-meet", ("0", "1"))


def test_lattices_compare_and_hash_by_kind():
    """Two selections of one built-in lattice, or two loads of one lattice
    file, are equal and hash equal; lattices of different kinds, or chains
    of different sizes, are unequal."""
    witness = f"table:{Path(__file__).parents[1] / 'bench' / 'witness6.lat'}"
    specs = ["boolean", "godel", "lukasiewicz", "goguen", "chain:4", "chain:5", witness]
    firsts = [lattice_from_spec(spec) for spec in specs]
    for spec, lat in zip(specs, firsts):
        again = lattice_from_spec(spec)
        assert again is not lat
        assert again == lat and not again != lat
        assert hash(again) == hash(lat)
    for i, a in enumerate(firsts):
        for b in firsts[i + 1:]:
            assert a != b and b != a
    assert len(set(firsts + [lattice_from_spec(spec) for spec in specs])) == len(specs)


def test_degree_formatting(godel, chain5, boolean):
    assert godel.format_degree(0.3) == "0.3"
    assert godel.format_degree(1.0) == "1"
    assert godel.format_degree(0.123456789123) == "0.123456789"
    assert chain5.format_degree(2) == "0.5"
    assert chain5.parse_degree("0.75") == 3
    with pytest.raises(DegreeError):
        chain5.parse_degree("0.6")
    assert boolean.parse_degree("1.0") == 1
    with pytest.raises(DegreeError):
        boolean.parse_degree("0.5")
