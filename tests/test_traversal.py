"""The one iterative post-order fold behind every algebra and calculus
traversal: shared subtrees are folded once, equal subtrees are evaluated
once, and expressions built through the API work at any depth."""

import copy
import pickle
import sys
import tracemalloc

import pytest

import gradix as gx
from gradix import DatabaseInstance, RelSym, parse_ra, parse_script
from gradix import algebra as alg
from gradix import cli
from gradix import ptc as pc
from gradix.harness import composed

from conftest import count_rule, rdt, sch

CHAIN = 10_000


@pytest.fixture
def inst(godel):
    return DatabaseInstance(godel, {
        "D": rdt(godel, {"A", "B"}, {(1, 1): 0.5, (2, 1): 0.9}),
        "E": rdt(godel, {"B"}, {1: 0.4, 2: 1.0}),
    })


def dag(depth, leaf):
    """`e = Union(e, Nabla(e))`, `depth` times: 2 * depth + 1 distinct nodes,
    and 2 ** depth paths from the root down to `leaf`."""
    e = leaf
    for _ in range(depth):
        e = alg.Union(e, alg.Nabla(e))
    return e


def test_shared_subtrees_are_folded_once(monkeypatch, inst):
    # no assertion names the DAG itself: its repr has 2 ** 200 leaves
    e = dag(200, RelSym("D", sch("A", "B")))
    nodes = len(alg.walk(e))
    schemes = count_rule(monkeypatch, alg, "_scheme_rule")
    scheme = gx.scheme_of(e)
    assert nodes == len(schemes) == 401 and scheme == sch("A", "B")
    schemes.clear()
    tables = count_rule(monkeypatch, alg._Evaluator, "_rule")
    got = gx.eval_ra(e, inst)
    assert len(schemes) == len(tables) == 401
    assert got == gx.nabla(inst.table("D"))


def test_parsed_equal_subtrees_are_evaluated_once(monkeypatch, inst):
    joins = count_rule(monkeypatch, alg.tb, "natural_join")
    expr = parse_ra("(D JOIN E) UNION (D JOIN E)", {"D": sch("A", "B"), "E": sch("B")})
    assert expr.left is not expr.right
    assert gx.eval_ra(expr, inst) == gx.natural_join(inst.table("D"), inst.table("E"))
    assert len(joins) == 1


def algebra_chain():
    raw = alg.Singleton("B", 1)
    for i in range(CHAIN):
        raw = alg.Union(raw, alg.Singleton("B", i % 3)) if i % 2 else alg.Nabla(raw)
    return alg.NaturalJoin(raw, RelSym("D"))


def assert_node_dunders_hold(expr, twin):
    """`==`, `hash` and `repr` of `expr` against `twin`, an equal expression
    built separately, and round trips through pickle and deepcopy.  A round
    trip may rebuild a frozenset field in another order, so it is compared
    by `==` and `hash`, not by `repr`."""
    assert expr is not twin and expr == twin and not expr != twin
    assert hash(expr) == hash(twin) and repr(expr) == repr(twin)
    for back in (pickle.loads(pickle.dumps(expr)), copy.deepcopy(expr)):
        assert back is not expr and back == expr and hash(back) == hash(expr)


def test_each_algebra_traversal_takes_a_long_chain(inst):
    raw = algebra_chain()
    expr = gx.resolve_schemes(raw, {"D": sch("A", "B")})
    assert expr.right.scheme == sch("A", "B") and expr.left is raw.left
    assert gx.scheme_of(expr) == sch("A", "B")
    assert gx.eval_ra(expr, inst) == inst.table("D")
    text = gx.ra_to_text(expr)
    assert text.count("NABLA(") == CHAIN // 2 and text.endswith(" UNION [B: 0]) JOIN D)")
    assert len(alg.walk(expr)) == 3 + CHAIN + CHAIN // 2
    assert alg.constants_of(expr) == frozenset({("B", 0), ("B", 1), ("B", 2)})
    assert_node_dunders_hold(expr, gx.resolve_schemes(algebra_chain(), {"D": sch("A", "B")}))
    session = cli.Session(inst.lattice)
    session.registry.declare("B", "int")
    assert cli._bind(expr, session) is expr


def calculus_chain(shape):
    a, b = pc.TupleVar("a", sch("A")), pc.TupleVar("b", sch("B"))
    raw = pc.Atom(RelSym("D"), frozenset({a, b}))
    for i in range(CHAIN):
        if shape == "nabla":
            raw = pc.PtcNabla(raw)
        else:
            raw = pc.PtcBinary(pc.OTIMES, raw, pc.Atom(alg.Singleton("B", i % 2), frozenset({b})))
    return raw


@pytest.mark.parametrize("shape", ["nabla", "otimes"])
def test_each_calculus_traversal_takes_a_long_chain(inst, shape):
    a, b = pc.TupleVar("a", sch("A")), pc.TupleVar("b", sch("B"))
    expr = gx.resolve_schemes(calculus_chain(shape), {"D": sch("A", "B")})
    assert pc.free_vars(expr) == frozenset({a, b})
    assert pc.ptc_scheme(expr) == sch("A", "B")
    atoms = [node for node in alg.walk(expr) if type(node) is pc.Atom]
    assert len(atoms) == (1 if shape == "nabla" else CHAIN + 1)
    assert frozenset().union(*(atom.vars for atom in atoms)) == frozenset({a, b})
    assert alg.constants_of(expr) == (frozenset() if shape == "nabla"
                                      else frozenset({("B", 0), ("B", 1)}))
    pc.validate_ptc(expr)
    want = gx.eval_ptc(expr, inst)
    d = inst.table("D")
    assert want == (gx.nabla(d) if shape == "nabla" else gx.empty(d.lattice, d.scheme))
    assert gx.eval_ra(gx.compile_ptc_to_ra(expr), inst) == want
    assert_node_dunders_hold(expr, gx.resolve_schemes(calculus_chain(shape), {"D": sch("A", "B")}))
    text = gx.ptc_to_text(expr)
    assert text.count("D(a, b)") == 1
    a2 = pc.TupleVar("a2", sch("A"))
    split = composed.split_variable(expr, a, [a2])
    assert pc.free_vars(split) == frozenset({a2, b})
    assert gx.eval_ptc(split, inst) == want


def test_shared_calculus_subtrees_are_folded_once(inst):
    b = pc.TupleVar("b", sch("B"))
    e = pc.Atom(RelSym("E", sch("B")), frozenset({b}))
    for _ in range(200):
        e = pc.PtcBinary(pc.MEET, e, pc.PtcDelta(e))
    nodes, free = len(alg.walk(e)), pc.free_vars(e)
    got, compiled = gx.eval_ptc(e, inst), gx.eval_ra(gx.compile_ptc_to_ra(e), inst)
    assert nodes == 402 and free == frozenset({b})
    assert got == compiled == gx.delta(inst.table("E"))



def test_deep_nodes_compare_hash_print_pickle_and_copy_without_recursing():
    leaf = "RelSym(name='R', scheme=None)"
    var = "frozenset({TupleVar(name='s', scheme=frozenset({'R'}))})"

    def deltas():
        e = pc.Atom(RelSym("R"), frozenset({pc.TupleVar("s", sch("R"))}))
        for _ in range(CHAIN):
            e = pc.PtcDelta(e)
        return e

    builds = [
        (nablas, "Nabla(child=" * CHAIN + leaf + ")" * CHAIN),
        (deltas, "PtcDelta(body=" * CHAIN + f"Atom(expr={leaf}, vars={var})" + ")" * CHAIN),
        (lambda: parse_script('LOAD R FROM "r.csv"\nEVAL ' + " UNION ".join(["R"] * CHAIN))[1],
         "EvalStmt(expr=" + "Union(left=" * (CHAIN - 1) + leaf
         + f", right={leaf})" * (CHAIN - 1) + ", line=2)"),
    ]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # Python's default
    try:
        for build, text in builds:
            expr = build()
            assert_node_dunders_hold(expr, build())
            for copied in (expr, pickle.loads(pickle.dumps(expr)), copy.deepcopy(expr)):
                assert repr(copied) == text
    finally:
        sys.setrecursionlimit(limit)


def nablas():
    e = RelSym("R")
    for _ in range(CHAIN):
        e = alg.Nabla(e)
    return e


def chain_text(first, op, term, n):
    """The printed form of the chain `first op term op … term` of n terms:
    one pair of brackets around the whole chain."""
    return "(" + f" {op} ".join([first] + [term] * (n - 1)) + ")"


def chains(n):
    """A left-deep algebra `UNION` chain and calculus `*` chain of n terms."""
    r, p = RelSym("R"), pc.Atom(RelSym("P"), frozenset({pc.TupleVar("s", sch("P"))}))
    e, f = r, p
    for _ in range(n - 1):
        e, f = alg.Union(e, r), pc.PtcBinary(pc.OTIMES, f, p)
    return e, f


def test_printing_a_long_chain_is_linear():
    # the short chains pin the printers' text; the long ones must follow it
    assert chain_text("R", "UNION", "R", 3) == "(R UNION R UNION R)"
    assert chain_text("P(s)", "*", "P(s)", 3) == "(P(s) * P(s) * P(s))"
    for n in (3, CHAIN):
        e, f = chains(n)
        assert gx.ra_to_text(e) == chain_text("R", "UNION", "R", n)
        assert gx.ptc_to_text(f) == chain_text("P(s)", "*", "P(s)", n)
    # a printer that copies each child's text into its parent's holds about
    # n/2 times the text at once (about 1,000 bytes per character at n = 2,000)
    for expr, to_text in zip(chains(2_000), (gx.ra_to_text, gx.ptc_to_text)):
        tracemalloc.start()
        try:
            text = to_text(expr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * len(text)


def test_a_printed_chain_of_any_length_parses_back():
    """A chain of one infix operator prints with one pair of brackets, so
    its text stays within `parsing.MAX_DEPTH` at any length: `UNION`,
    `ISECT`, `JOIN`, `*` and `&` chain to the left, `=>` to the right."""
    r, p = RelSym("R"), pc.Atom(RelSym("P"), frozenset({pc.TupleVar("s", sch("P"))}))
    algebra = (gx.ra_to_text, parse_ra, 1)
    calculus = (gx.ptc_to_text, lambda text: gx.parse_ptc(text, {"s": sch("P")}), CHAIN + 1)
    builds = [(lambda e, node=node: node(e, r), r, algebra)
              for node in (alg.Union, alg.Intersection, alg.NaturalJoin)]
    builds += [(lambda e, op=op: pc.PtcBinary(op, e, p), p, calculus)
               for op in (pc.OTIMES, pc.MEET)]
    builds.append((lambda e: pc.PtcBinary(pc.RESIDUUM, p, e), p, calculus))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # Python's default
    try:
        for grow, e, (to_text, parse, brackets) in builds:
            for _ in range(CHAIN - 1):
                e = grow(e)
            text = to_text(e)
            assert text.count("(") == brackets  # the chain's and each atom's
            assert parse(text) == e, text[:40]
    finally:
        sys.setrecursionlimit(limit)
