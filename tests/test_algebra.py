"""Algebra expressions: scheme inference, evaluation, active domains, the
explicit active-domain expression of the harness, and printing."""

import pytest

import gradix as gx
from gradix import (
    DatabaseInstance,
    DeeConst,
    DivRanged,
    EadomExpr,
    GCodd,
    Intersection,
    NaturalJoin,
    Projection,
    RelSym,
    ResiduumRange,
    SchemeError,
    Singleton,
    Tuple,
    UnboundSymbolError,
)
from gradix import parsing
from gradix import ptc as pc
from gradix.algebra import Nabla, Union, constants_of, walk
from gradix.harness import composed, gen

from conftest import count_rule, rdt, sch, scores


@pytest.fixture
def inst(godel):
    return DatabaseInstance(godel, {
        "D": rdt(godel, {"A", "B"}, {(1, 1): 0.5, (2, 1): 0.9}),
        "E": rdt(godel, {"B"}, {1: 0.4, 2: 1.0}),
    })


D = RelSym("D", sch("A", "B"))
E = RelSym("E", sch("B"))


def test_scheme_of_rules():
    assert gx.scheme_of(D) == sch("A", "B")
    assert gx.scheme_of(Projection(sch("A"), D)) == sch("A")
    assert gx.scheme_of(NaturalJoin(D, E)) == sch("A", "B")
    assert gx.scheme_of(DeeConst(0.7)) == frozenset()
    assert gx.scheme_of(Singleton("A", 3)) == sch("A")
    assert gx.scheme_of(EadomExpr(sch("A", "B"))) == sch("A", "B")
    assert gx.scheme_of(DivRanged(D, E, Projection(sch("A"), D))) == sch("A")


def test_scheme_of_errors():
    with pytest.raises(SchemeError):
        gx.scheme_of(RelSym("X"))
    with pytest.raises(SchemeError):
        gx.scheme_of(Union(D, E))
    with pytest.raises(SchemeError):
        gx.scheme_of(Projection(sch("C"), D))
    with pytest.raises(SchemeError):
        gx.scheme_of(ResiduumRange(D, E, D))
    with pytest.raises(SchemeError):
        gx.scheme_of(DivRanged(D, E, E))  # divisor/range overlap
    with pytest.raises(SchemeError):
        gx.scheme_of(GCodd(D, E, E))


def test_eval_relsym_and_dee(inst, godel):
    assert gx.eval_ra(D, inst) is inst.table("D")
    assert gx.eval_ra(DeeConst(0.7), inst) == gx.dee(godel, 0.7)
    with pytest.raises(UnboundSymbolError):
        gx.eval_ra(RelSym("X", sch("A")), inst)
    with pytest.raises(SchemeError):
        gx.eval_ra(RelSym("D", sch("A")), inst)


def test_eval_core_ops(inst, godel):
    out = gx.eval_ra(Projection(sch("A"), Nabla(D)), inst)
    assert scores(out) == {(("A", 1),): 1.0, (("A", 2),): 1.0}
    joined = gx.eval_ra(NaturalJoin(D, E), inst)
    assert joined.score(Tuple({"A": 2, "B": 1})) == 0.4
    single = gx.eval_ra(Singleton("B", 1), inst)
    assert scores(single) == {(("B", 1),): 1.0}


def test_eval_div_ranged_with_eadom_range(inst):
    expr = DivRanged(D, E, EadomExpr(sch("A")))
    direct = gx.div_ranged(
        inst.table("D"), inst.table("E"), gx.eadom(inst, sch("A"))
    )
    assert gx.eval_ra(expr, inst) == direct


def test_eval_sugar_nodes_match_direct_calls(inst):
    d, e = inst.table("D"), inst.table("E")
    cases = [
        (gx.Semijoin(D, E), gx.semijoin(d, e)),
        (gx.GradedDifference(E, E), gx.difference_graded(e, e)),
        (gx.GSDO(Projection(sch("A"), D), E, D), gx.div_gsdo(gx.projection(d, sch("A")), e, d)),
        (gx.GCodd(D, E, Nabla(Projection(sch("A"), D))),
         gx.div_gcodd(d, e, gx.nabla(gx.projection(d, sch("A"))))),
    ]
    for expr, want in cases:
        assert gx.eval_ra(expr, inst) == want


def test_adom_and_eadom(inst, godel):
    # the active domain of one table is π_{y}(∇D), as in `test_eval_core_ops`
    assert len(gx.projection(gx.nabla(gx.empty(godel, sch("B"))), sch("B"))) == 0
    with pytest.raises(SchemeError):
        gx.eval_ra(Projection(sch("Z"), Nabla(D)), inst)

    ead = gx.eadom(inst, sch("A", "B"))
    # A values {1,2} from D; B values {1} from D plus {1,2} from E
    assert frozenset(ead.support()) == frozenset(
        Tuple({"A": a, "B": b}) for a in (1, 2) for b in (1, 2)
    )
    assert ead.is_non_ranked()
    assert gx.eadom(inst, frozenset()) == gx.dee(godel, 1.0)
    with_extra = gx.eadom(inst, sch("A"), [("A", 99)])
    assert Tuple({"A": 99}) in with_extra.support()


def test_an_eadom_past_the_row_bound_is_refused(inst, monkeypatch):
    monkeypatch.setattr(gx.table, "MAX_ROWS", 4)
    assert len(gx.eval_ra(gx.EadomExpr(sch("A", "B")), inst)) == 4
    monkeypatch.setattr(gx.table, "MAX_ROWS", 3)
    with pytest.raises(gx.GradixError) as err:
        gx.eval_ra(gx.EadomExpr(sch("A", "B")), inst)
    assert str(err.value) == ("EADOM[A,B] would build 4 rows, "
                              "more than the bound of 3 (table.MAX_ROWS)")


def test_eadom_monotone_under_widening(inst, godel):
    wide = inst.with_table("Z", rdt(godel, {"A"}, {7: 0.3}))
    base = frozenset(gx.eadom(inst, sch("A")).support())
    assert base <= frozenset(gx.eadom(wide, sch("A")).support())


def test_eadom_empty_attribute(godel):
    inst = DatabaseInstance(godel, {"D": gx.empty(godel, sch("A"))})
    assert len(gx.eadom(inst, sch("A"))) == 0


def test_eadom_ra_expr_matches_eadom(inst):
    symbols = {"D": sch("A", "B"), "E": sch("B")}
    for scheme in (frozenset(), sch("A"), sch("B"), sch("A", "B")):
        expr = composed.eadom_ra_expr(scheme, symbols)
        assert gx.eval_ra(expr, inst) == gx.eadom(inst, scheme)
    expr = composed.eadom_ra_expr(sch("A"), symbols, constants=[("A", 42)])
    got = gx.eval_ra(expr, inst)
    assert got == gx.eadom(inst, sch("A"), [("A", 42)])


def test_eadom_ra_expr_on_random_instances(godel):
    symbols = {"P": sch("A", "B"), "Q": sch("B", "C")}
    for i in range(15):
        inst = gen.gen_instance(gen.GenConfig(seed=100 + i, lattice=godel), symbols)
        for scheme in (sch("A"), sch("B", "C"), sch("A", "C")):
            expr = composed.eadom_ra_expr(scheme, symbols)
            assert gx.eval_ra(expr, inst) == gx.eadom(inst, scheme)


def test_eadom_ra_expr_single_symbol_shape():
    expr = composed.eadom_ra_expr(sch("A"), {"D": sch("A")})
    assert expr == Projection(sch("A"), Nabla(RelSym("D", sch("A"))))


def test_eadom_ra_expr_uncovered_attribute(inst):
    expr = composed.eadom_ra_expr(sch("Z"), {"D": sch("A", "B")})
    assert len(gx.eval_ra(expr, inst)) == 0


def test_eadom_expr_evaluates_instance_wide(inst):
    got = gx.eval_ra(EadomExpr(sch("B")), inst)
    assert got == gx.eadom(inst, sch("B"))


def test_domain_bound_invariant(godel):
    cfg = gen.GenConfig(seed=17, lattice=godel)
    inst = gen.gen_instance(cfg, {"P": sch("A", "B"), "Q": sch("B", "C")})
    exprs = [
        NaturalJoin(RelSym("P", sch("A", "B")), RelSym("Q", sch("B", "C"))),
        Projection(sch("A"), RelSym("P", sch("A", "B"))),
        ResiduumRange(
            NaturalJoin(RelSym("P", sch("A", "B")), EadomExpr(sch("C"))),
            NaturalJoin(RelSym("Q", sch("B", "C")), EadomExpr(sch("A"))),
            EadomExpr(sch("A", "B", "C")),
        ),
        NaturalJoin(RelSym("P", sch("A", "B")), Singleton("C", 99)),
    ]
    for expr in exprs:
        out = gx.eval_ra(expr, inst)
        bound = gx.eadom(inst, gx.scheme_of(expr), constants_of(expr))
        assert frozenset(out.support()) <= frozenset(bound.support())


def test_walk_symbols_constants():
    expr = NaturalJoin(D, Intersection(Singleton("B", 1), E))
    assert {type(n).__name__ for n in walk(expr)} == {
        "NaturalJoin", "RelSym", "Intersection", "Singleton",
    }
    symbols = {n.name: n.scheme for n in walk(expr) if isinstance(n, RelSym)}
    assert symbols == {"D": sch("A", "B"), "E": sch("B")}
    assert constants_of(expr) == frozenset({("B", 1)})


def test_resolve_schemes():
    raw = NaturalJoin(RelSym("D"), RelSym("E"))
    resolved = gx.resolve_schemes(raw, {"D": sch("A", "B"), "E": sch("B")})
    assert gx.scheme_of(resolved) == sch("A", "B")
    with pytest.raises(UnboundSymbolError):
        gx.resolve_schemes(RelSym("Nope"), {})


def test_memoized_evaluation_reuses_subtrees(inst):
    shared = NaturalJoin(D, E)
    expr = Union(shared, shared)
    calls = []
    orig = gx.natural_join

    def counting(*args):
        calls.append(1)
        return orig(*args)

    import gradix.table

    old = gradix.table.natural_join
    try:
        import gradix.algebra as alg_mod

        alg_mod.tb.natural_join = counting
        gx.eval_ra(expr, inst)
    finally:
        alg_mod.tb.natural_join = old
    assert len(calls) == 1


def test_ra_to_text_shapes():
    expr = DivRanged(D, E, EadomExpr(sch("A")))
    assert gx.ra_to_text(expr) == "DIV(D BY E OVER EADOM[A])"
    assert gx.ra_to_text(Projection(sch("A"), Nabla(D))) == "PROJECT[A](NABLA(D))"
    assert gx.ra_to_text(Singleton("A", "v")) == '[A: "v"]'
    assert gx.ra_to_text(Singleton("A", 3.0)) == "[A: 3.0]"
    assert gx.ra_to_text(DeeConst(0.7)) == "DEE(0.7)"
    assert gx.ra_to_text(Union(D, E)) == "(D UNION E)"


@pytest.mark.parametrize("kind", ["GSD", "GTodd"])
def test_scheme_of_infers_each_child_once(monkeypatch, kind):
    from gradix import algebra

    if kind == "GSD":
        expr = RelSym("R", sch("A"))
        for _ in range(20):
            expr = algebra.GSD(expr, RelSym("S", sch("B")), RelSym("M", sch("A", "B")))
        want = sch("A")
    else:
        # alternates between schemes {A, C} and {A, B}
        expr = RelSym("R", sch("A", "C"))
        for i in range(20):
            other = "C" if i % 2 == 0 else "B"
            mid = "B" if i % 2 == 0 else "C"
            expr = algebra.GTodd(expr, RelSym("S", sch(other, mid)), RelSym("U", sch("A", mid)))
        want = sch("A", "C")
    nodes = sum(1 for _ in walk(expr))
    calls = count_rule(monkeypatch, algebra, "_scheme_rule")
    assert algebra.scheme_of(expr) == want
    assert len(calls) == nodes == 61


# -- the node contract: frozen-dataclass semantics ------------------------------


def test_nodes_compare_and_hash_by_class_and_fields():
    r = RelSym("R")
    assert Singleton("A", 1) == Singleton("A", 1.0)
    assert hash(Singleton("A", 1)) == hash(Singleton("A", 1.0))
    assert Union(Singleton("A", 1), r) == Union(Singleton("A", 1.0), r)
    assert hash(Union(Singleton("A", 1), r)) == hash(Union(Singleton("A", 1.0), r))
    assert Singleton("A", 1) != Singleton("A", 2) and Union(r, r) != Union(r, RelSym("S"))
    # another class with equal fields is another node
    assert parsing.EvalStmt(r, 1) != parsing.CompileStmt(r, 1)
    assert Union(r, r) != Intersection(r, r) and RelSym("R") != pc.TupleVar("R", None)
    assert (Union(r, r) == (r, r)) is False
    # a node without children hashes as the tuple of its fields, as a dataclass does
    assert hash(RelSym("R", sch("A"))) == hash(("R", sch("A")))
    assert hash(pc.TupleVar("a", sch("A", "B"))) == hash(("a", sch("A", "B")))


def test_nodes_are_frozen_and_take_their_fields_like_a_dataclass():
    r = RelSym("R")
    node = Projection(scheme=sch("A"), child=r)
    assert node == Projection(sch("A"), r) and node.child is r
    for target in (node, r, pc.TupleVar("a", sch("A"))):
        with pytest.raises(AttributeError, match="cannot assign to field"):
            target.scheme = sch("B")
        with pytest.raises(AttributeError, match="cannot delete field"):
            del target.scheme
        with pytest.raises(AttributeError):
            target.extra = 1
    assert RelSym("A").scheme is None
    assert EadomExpr(sch("A")).constants == frozenset()
    assert EadomExpr(scheme=sch("A")) == EadomExpr(sch("A"), frozenset())
    for make in (lambda: Union(r), lambda: Union(r, r, r), lambda: RelSym(),
                 lambda: Singleton("A", 1, 2), lambda: Nabla(r, child=r),
                 lambda: Nabla(node=r), lambda: DeeConst()):
        with pytest.raises(TypeError):
            make()
    for bad in ("R", Union("R", r)):  # not a node, or a node over a non-node
        with pytest.raises(TypeError, match="not an expression node: str"):
            gx.scheme_of(bad)
    with pytest.raises(gx.PtcError, match="unknown connective 'xor'"):
        atom = pc.Atom(RelSym("P", sch("P")), frozenset({pc.TupleVar("p", sch("P"))}))
        pc.PtcBinary("xor", atom, atom)
    match node:
        case Projection(scheme, child):
            assert (scheme, child) == (sch("A"), r)


def test_node_repr_is_the_dataclass_text():
    s = pc.TupleVar("s", sch("P"))
    expr = gx.parse_ptc("ALL s . (P(s) => NABLA(Q)(s) * [P: 2](s))", {"s": sch("P")})
    var = repr(frozenset({s}))
    assert var == "frozenset({TupleVar(name='s', scheme=frozenset({'P'}))})"
    assert repr(expr) == (
        f"PtcInf(bound={var}, body=PtcBinary(op='residuum', left=Atom(expr=RelSym("
        f"name='P', scheme=None), vars={var}), right=PtcBinary(op='otimes', left=Atom("
        f"expr=Nabla(child=RelSym(name='Q', scheme=None)), vars={var}), right=Atom("
        f"expr=Singleton(attribute='P', value=2), vars={var}))))")
    assert repr(gx.parse_ra('PROJECT[S](DIV(SP BY [P: "p1"] OVER EADOM[S])) UNION DEE(0.5)')) == (
        "Union(left=Projection(scheme=frozenset({'S'}), child=DivRanged(dividend=RelSym("
        "name='SP', scheme=None), divisor=Singleton(attribute='P', value='p1'), rng=EadomExpr("
        "scheme=frozenset({'S'}), constants=frozenset()))), right=DeeConst(degree=0.5))")
    assert repr(parsing.parse_script('LOAD SP FROM "sp.csv" SCHEME S:text\nEVAL SP\n')) == (
        "[LoadStmt(name='SP', path='sp.csv', types=(('S', 'text'),), line=1), "
        "EvalStmt(expr=RelSym(name='SP', scheme=None), line=2)]")
