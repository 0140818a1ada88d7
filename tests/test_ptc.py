"""Tuple calculus: evaluation semantics, splitting, validation, and the
compiler to algebra expressions, which evaluation goes through; the
pointwise `reference` and the paper's literal translation in the harness
judge both."""

import pytest

import gradix as gx
from gradix import (
    Atom,
    DatabaseInstance,
    PtcBinary,
    PtcDelta,
    PtcInf,
    PtcNabla,
    PtcSup,
    PtcError,
    RelSym,
    Tuple,
    TupleVar,
)
from gradix.algebra import constants_of
from gradix.harness import composed, gen
from gradix.harness.latsearch import search_distributivity_counterexample
from gradix.harness.suites import suite_tolerance
from gradix.parsing import parse_ptc
from gradix.ptc import (
    MEET,
    OTIMES,
    RESIDUUM,
    free_vars,
    ptc_scheme,
    scheme_of_vars,
    validate_ptc,
)

from conftest import rdt, sch


@pytest.fixture
def inst(godel):
    return DatabaseInstance(godel, {
        "D1": rdt(godel, {"A", "B"}, {(1, 1): 0.9, (1, 2): 0.4, (2, 1): 0.7}),
        "D2": rdt(godel, {"B"}, {1: 1.0, 2: 0.7}),
    })


R1 = RelSym("D1", sch("A", "B"))
R2 = RelSym("D2", sch("B"))
VR = TupleVar("r", sch("A"))
VS = TupleVar("s", sch("B"))
DIV_SHAPE = PtcInf(
    frozenset({VS}),
    PtcBinary(RESIDUUM, Atom(R2, frozenset({VS})),
              Atom(R1, frozenset({VR, VS}))),
)


def atom_of(expr) -> Atom:
    """An algebra expression as a calculus atom over one variable."""
    return Atom(expr, frozenset({TupleVar("t0", gx.scheme_of(expr))}))


def test_atom_evaluates_like_algebra(inst):
    for expr in (R1, gx.Projection(sch("A"), R1), gx.NaturalJoin(R1, R2)):
        atom = atom_of(expr)
        assert gx.eval_ptc(atom, inst) == gx.eval_ra(expr, inst)
        assert ptc_scheme(atom) == gx.scheme_of(expr)


def test_binary_semantics(inst, godel):
    a1 = Atom(R1, frozenset({VR, VS}))
    a2 = Atom(R2, frozenset({VS}))
    d1, d2 = inst.table("D1"), inst.table("D2")
    out = gx.eval_ptc(PtcBinary(OTIMES, a1, a2), inst)
    assert out == gx.natural_join(d1, d2)
    out = gx.eval_ptc(PtcBinary(MEET, a1, a2), inst)
    for t, v in out:
        assert v == min(d1.score(t.project(sch("A", "B"))), d2.score(t.project(sch("B"))))
    out = gx.eval_ptc(PtcBinary(RESIDUUM, a2, a1), inst)
    # every active-domain tuple gets a score; vacuous antecedents give 1
    ead = gx.eadom(inst, sch("A", "B"))
    for t in ead.support():
        want = godel.residuum(d2.score(t.project(sch("B"))), d1.score(t))
        assert abs(out.score(t) - want) <= 1e-9


def test_quantifier_semantics_match_divisions(inst):
    got = gx.eval_ptc(DIV_SHAPE, inst)
    want = gx.div_gcodd(inst.table("D1"), inst.table("D2"), gx.eadom(inst, sch("A")))
    assert got.approx_equals(want)
    sup = PtcSup(frozenset({VS}), Atom(R1, frozenset({VR, VS})))
    assert gx.eval_ptc(sup, inst) == gx.projection(inst.table("D1"), sch("A"))


def test_nabla_delta_semantics(inst):
    body = Atom(R1, frozenset({VR, VS}))
    assert gx.eval_ptc(PtcNabla(body), inst) == gx.nabla(inst.table("D1"))
    assert gx.eval_ptc(PtcDelta(body), inst) == gx.delta(inst.table("D1"))


def test_empty_universe_quantifier_warns(godel):
    inst = DatabaseInstance(godel, {
        "D1": rdt(godel, {"A", "B"}, {(1, 1): 0.9}),
        "E": gx.empty(godel, sch("C")),
    })
    vc = TupleVar("c", sch("C"))
    body = PtcBinary(OTIMES, Atom(RelSym("E", sch("C")), frozenset({vc})),
                     Atom(RelSym("D1", sch("A", "B")), frozenset({TupleVar("t", sch("A", "B"))})))
    quantified = PtcInf(frozenset({vc}), body)
    with pytest.warns(UserWarning, match="empty"):
        out = gx.eval_ptc(quantified, inst)
    # the vacuous infimum is 1 on every remaining active-domain tuple
    assert all(v == 1.0 for _t, v in out)
    with pytest.warns(UserWarning, match="empty"):
        out = gx.eval_ptc(PtcSup(frozenset({vc}), body), inst)
    assert len(out) == 0


def test_valuation_reconstructs_tuple():
    r = Tuple({"A": 1, "B": 2})
    vs = {TupleVar("x", sch("A")), TupleVar("y", sch("B"))}
    joined = gx.EMPTY_TUPLE
    for v in vs:
        joined = joined.join(r.project(v.scheme))
    assert joined == r


def test_validation_errors():
    with pytest.raises(PtcError):
        validate_ptc(Atom(R1, frozenset({VR})))  # variables do not cover
    clash = PtcBinary(
        OTIMES,
        Atom(R2, frozenset({TupleVar("x", sch("B"))})),
        Atom(gx.Projection(sch("A"), R1), frozenset({TupleVar("x", sch("A"))})),
    )
    with pytest.raises(PtcError, match="schemes"):
        validate_ptc(clash)
    with pytest.raises(PtcError):
        validate_ptc(PtcInf(frozenset(), Atom(R2, frozenset({VS}))))
    with pytest.raises(PtcError):
        validate_ptc(PtcInf(frozenset({VR}), Atom(R2, frozenset({VS}))))
    overlap = PtcInf(
        frozenset({TupleVar("x", sch("A", "B"))}),
        PtcBinary(OTIMES,
                  Atom(R1, frozenset({TupleVar("x", sch("A", "B"))})),
                  Atom(R1, frozenset({TupleVar("y", sch("A", "B"))}))),
    )
    with pytest.raises(PtcError, match="overlap"):
        validate_ptc(overlap)
    with pytest.raises(PtcError):
        PtcBinary("xor", Atom(R2, frozenset({VS})), Atom(R2, frozenset({VS})))


def test_split_variable_preserves_evaluation(inst):
    v = TupleVar("t", sch("A", "B"))
    expr = Atom(R1, frozenset({v}))
    parts = [TupleVar("t1", sch("A")), TupleVar("t2", sch("B"))]
    split = composed.split_variable(expr, v, parts)
    assert free_vars(split) == frozenset(parts)
    assert gx.eval_ptc(split, inst) == gx.eval_ptc(expr, inst)
    # single identical part is the identity transform
    same = composed.split_variable(expr, v, [TupleVar("u", sch("A", "B"))])
    assert gx.eval_ptc(same, inst) == gx.eval_ptc(expr, inst)
    with pytest.raises(PtcError):
        composed.split_variable(expr, v, [TupleVar("t1", sch("A"))])


def test_split_variable_random(inst, godel):
    cfg = gen.GenConfig(seed=23, lattice=godel)
    symbols = {"D1": sch("A", "B"), "D2": sch("B")}
    for i in range(20):
        expr = gen.gen_ptc_expr(cfg.with_seed(i), symbols, max_depth=3, salt="split")
        candidates = [v for v in free_vars(expr) if len(v.scheme) > 1]
        if not candidates:
            continue
        v = sorted(candidates, key=lambda v: v.name)[0]
        attrs = sorted(v.scheme)
        factory = gen.VarFactory("w")
        parts = [factory.fresh(frozenset({a})) for a in attrs]
        split = composed.split_variable(expr, v, parts)
        assert gx.eval_ptc(split, inst).approx_equals(gx.eval_ptc(expr, inst))


def test_embed_ra_round_trip(inst):
    for expr in (R1, gx.DivRanged(R1, R2, gx.EadomExpr(sch("A")))):
        atom = atom_of(expr)
        assert gx.eval_ptc(atom, inst) == gx.eval_ra(expr, inst)


def test_compile_atom_passthrough():
    atom = Atom(R1, frozenset({TupleVar("t", sch("A", "B"))}))
    assert gx.compile_ptc_to_ra(atom) is R1


def test_compile_inf_shape():
    # the ∀ divides by its antecedent, over the free scheme's EADOM
    compiled = gx.compile_ptc_to_ra(DIV_SHAPE)
    assert compiled == gx.GCodd(R1, R2, gx.EadomExpr(sch("A")))
    assert gx.ra_to_text(compiled) == "GCODD(D1, D2; UNIV EADOM[A])"
    with pytest.raises(TypeError):
        gx.compile_ptc_to_ra(DIV_SHAPE, "gsdo")

    # the paper's literal translation divides by the bound scheme's EADOM
    literal = composed.compile_ptc_literal(DIV_SHAPE)
    assert isinstance(literal, gx.DivRanged)
    assert isinstance(literal.divisor, gx.EadomExpr)
    assert literal.divisor.scheme == sch("B")
    assert isinstance(literal.rng, gx.EadomExpr)
    assert literal.rng.scheme == sch("A")
    text = gx.ra_to_text(literal)
    assert "DIV(" in text and "BY EADOM[B] OVER EADOM[A]" in text

    alt = composed.compile_ptc_literal(DIV_SHAPE, inf_form=composed.GSDO_FORM)
    assert isinstance(alt, gx.GSDO)
    with pytest.raises(PtcError):
        composed.compile_ptc_literal(DIV_SHAPE, inf_form="magic")


@pytest.mark.parametrize("text, compiled", [
    # each side is joined with EADOM over only what the other side adds
    ("Q(b) & R(a, b)", "((Q JOIN EADOM[A]) ISECT R)"),
    ("Q(b) => K(b, c)", "RES((Q JOIN EADOM[C]) -> K OVER EADOM[B,C])"),
    ("P(b) => Q(b)", "RES(P -> Q OVER EADOM[B])"),
    ("Q(b) & PROJECT[A](R)(a)", "((Q JOIN EADOM[A]) ISECT (PROJECT[A](R) JOIN EADOM[B]))"),
    # an ALL whose body does not qualify divides by EADOM over the bound scheme
    ("ALL b . (Q(b) & R(a, b))",
     "GCODD(((Q JOIN EADOM[A]) ISECT R), EADOM[B]; UNIV EADOM[A])"),
    ("ALL b . (K(b, c) => R(a, b))",
     "GCODD(RES((K JOIN EADOM[A]) -> (R JOIN EADOM[C]) OVER EADOM[A,B,C]), EADOM[B]; "
     "UNIV EADOM[A,C])"),
])
def test_compile_extends_each_side_by_what_the_other_adds(text, compiled):
    assert gx.ra_to_text(gx.compile_ptc_to_ra(parse_ptc(text, VARS, SYMBOLS))) == compiled


LITERAL_FORMS = (composed.DIV_FORM, composed.GSDO_FORM)


def test_compile_soundness_handmade(inst):
    d1, d2 = inst.table("D1"), inst.table("D2")
    want = gx.div_gcodd(d1, d2, gx.eadom(inst, sch("A")))
    assert gx.eval_ra(gx.compile_ptc_to_ra(DIV_SHAPE), inst) == want
    for form in LITERAL_FORMS:
        got = gx.eval_ra(composed.compile_ptc_literal(DIV_SHAPE, form), inst)
        assert got.approx_equals(want)


def test_compile_soundness_random(godel, lukasiewicz):
    """The calculus equals its pointwise definition, bit for bit, and agrees
    with both forms of the paper's literal translation."""
    for lat, seed in ((godel, 101), (lukasiewicz, 202)):
        cfg = gen.GenConfig(seed=seed, lattice=lat)
        symbols = {"D1": sch("A", "B"), "D2": sch("B", "C"), "D3": sch("C")}
        inst = gen.gen_instance(cfg, symbols)
        for i in range(25):
            expr = gen.gen_ptc_expr(cfg.with_seed(i), symbols, max_depth=4, salt="snd")
            want = gx.eval_ptc(expr, inst)
            assert dict(want.rows) == reference(expr, inst), gx.ptc_to_text(expr)
            for form in LITERAL_FORMS:
                got = gx.eval_ra(composed.compile_ptc_literal(expr, form), inst)
                assert got.approx_equals(want), gx.ptc_to_text(expr)


def test_compile_with_singleton_constants(godel):
    inst = DatabaseInstance(godel, {"D2": rdt(godel, {"B"}, {1: 1.0, 2: 0.7})})
    v = TupleVar("s", sch("B"))
    # the singleton introduces value 9, which both the calculus evaluation
    # and the compiled active domains must cover
    body = PtcBinary(
        RESIDUUM,
        Atom(gx.Singleton("B", 9), frozenset({v})),
        Atom(RelSym("D2", sch("B")), frozenset({v})),
    )
    expr = PtcInf(frozenset({v}), body)
    want = gx.eval_ptc(expr, inst)
    assert dict(want.rows) == reference(expr, inst)
    for form in LITERAL_FORMS:
        compiled = composed.compile_ptc_literal(expr, form)
        assert gx.eval_ra(compiled, inst).approx_equals(want)
    assert want.score(gx.EMPTY_TUPLE) == 0.0  # 1 → D2(9) = 0 kills the infimum


def test_compiled_zero_outside_active_domain(inst):
    compiled = gx.compile_ptc_to_ra(DIV_SHAPE)
    out = gx.eval_ra(compiled, inst)
    assert out.score(Tuple({"A": 777})) == 0.0


def test_compilation_deterministic(inst):
    c1 = gx.compile_ptc_to_ra(DIV_SHAPE)
    c2 = gx.compile_ptc_to_ra(DIV_SHAPE)
    assert c1 == c2 and gx.ra_to_text(c1) == gx.ra_to_text(c2)


def test_literal_translation_rejects_what_validation_rejects():
    """Each malformed formula of `test_validation_errors` fails the literal
    translation, in both forms, with the message `validate_ptc` gives."""
    x_ab, y_ab = TupleVar("x", sch("A", "B")), TupleVar("y", sch("A", "B"))
    malformed = [
        Atom(R1, frozenset({VR})),
        PtcBinary(OTIMES, Atom(R2, frozenset({TupleVar("x", sch("B"))})),
                  Atom(gx.Projection(sch("A"), R1), frozenset({TupleVar("x", sch("A"))}))),
        PtcInf(frozenset(), Atom(R2, frozenset({VS}))),
        PtcInf(frozenset({VR}), Atom(R2, frozenset({VS}))),
        PtcInf(frozenset({x_ab}), PtcBinary(OTIMES, Atom(R1, frozenset({x_ab})),
                                            Atom(R1, frozenset({y_ab})))),
    ]
    for expr in malformed:
        with pytest.raises(PtcError) as checked:
            validate_ptc(expr)
        for form in LITERAL_FORMS:
            with pytest.raises(PtcError) as literal:
                composed.compile_ptc_literal(expr, form)
            assert str(literal.value) == str(checked.value)
    for form in LITERAL_FORMS:
        with pytest.raises(TypeError, match="not a PTC expression"):
            composed.compile_ptc_literal(R1, form)


def test_ptc_to_text(inst):
    text = gx.ptc_to_text(DIV_SHAPE)
    assert text == "ALL s . ((D2(s) => D1(r, s)))"


# -- universal quantification through the division kernel ---------------------

VARS = {"a": sch("A"), "b": sch("B"), "c": sch("C"), "e": frozenset()}
SYMBOLS = {"Q": sch("B"), "P": sch("B"), "R": sch("A", "B"), "K": sch("B", "C"),
           "E": sch("B")}

#: (formula, whether its outermost ALL divides by its antecedent)
ALL_SHAPES = [
    # an atom antecedent
    ("ALL b . (Q(b) => R(a, b))", True),
    # a ⊗-conjunction antecedent, with a quantified consequent
    ("ALL b . (Q(b) * NABLA(P(b)) => ANY c . (R(a, b) * K(b, c)))", True),
    # the antecedent has the extra free variable c
    ("ALL b . (K(b, c) => R(a, b))", False),
    # the consequent misses the bound attribute B
    ("ALL b . (Q(b) => PROJECT[A](R)(a))", False),
    # ALL nested inside ALL, closed, once divided by the antecedent, once not
    ("ALL a . (PROJECT[A](R)(a) => ALL b . (Q(b) => R(a, b)))", True),
    ("ALL c . (ALL b . (Q(b) => K(b, c)) & PROJECT[C](K)(c))", False),
    # a variable on the empty scheme
    ("ALL e . (PROJECT[](Q)(e) => R(a, b))", True),
    ("ALL e . (PROJECT[](Q)(e) * PROJECT[](K)(e))", False),
    # a closed formula
    ("ALL b . (P(b) => Q(b))", True),
    # singleton constants that occur in no table
    ("ALL b . ([B: 99](b) => (R UNION ([A: 77] JOIN [B: 99]))(a, b))", True),
    ("ALL b . (Q(b) => ([B: 98](b) => R(a, b)))", True),
    # an empty antecedent table
    ("ALL b . (E(b) => R(a, b))", True),
    ("ALL b . (E(b) * Q(b) => K(b, c))", True),
]


def reference(expr, inst):
    """The calculus by its definition, pointwise on `Tuple`s with the lattice
    kernels: ⋀ and ⋁ run over every bound value of the extended active
    domain, absent rows read as bottom."""
    lat = inst.lattice
    consts = constants_of(expr)
    binary = {OTIMES: lat.kotimes, MEET: lat.kmeet, RESIDUUM: lat.kresiduum}

    def universe(scheme):
        return list(gx.eadom(inst, scheme, consts).rows)

    def score(node, t):
        match node:
            case Atom(e, _):
                d = gx.eval_ra(e, inst)
                return d.rows.get(t.project(d.scheme), lat.bottom)
            case PtcBinary(op, left, right):
                return binary[op](score(left, t), score(right, t))
            case PtcNabla(body):
                return lat.bottom if lat.is_bottom(score(body, t)) else lat.top
            case PtcDelta(body):
                return lat.top if lat.is_top(score(body, t)) else lat.bottom
            case PtcSup(bound, body) | PtcInf(bound, body):
                t = t.project(ptc_scheme(node))
                terms = [score(body, t.join(u)) for u in universe(scheme_of_vars(bound))]
                if isinstance(node, PtcInf):
                    return lat.kinf(terms)
                out = lat.bottom
                for x in terms:
                    out = lat.kjoin(out, x)
                return out

    rows = {t: score(expr, t) for t in universe(ptc_scheme(expr))}
    return {t: d for t, d in rows.items() if not lat.is_bottom(d)}


def ptc_lattices():
    witness, *_ = search_distributivity_counterexample(6)
    return [("boolean", gx.BooleanLattice()), ("godel", gx.GoedelLattice()),
            ("lukasiewicz", gx.LukasiewiczLattice()), ("goguen", gx.GoguenLattice()),
            ("chain:5", gx.FiniteChain(5)), ("witness", witness)]


@pytest.fixture
def divisions(monkeypatch):
    """Per `div_gcodd` call, whether its divisor is an EADOM table."""
    from gradix import algebra, division

    built, calls = [], []
    eadom, div_gcodd = algebra.eadom, division.div_gcodd

    def spy_eadom(*args):
        out = eadom(*args)
        built.append(out)
        return out

    def spy_div_gcodd(d1, d2, universe):
        calls.append(any(d2 is t for t in built))
        return div_gcodd(d1, d2, universe)

    monkeypatch.setattr(algebra, "eadom", spy_eadom)
    monkeypatch.setattr(division, "div_gcodd", spy_div_gcodd)
    return calls


@pytest.mark.parametrize("text, by_antecedent", ALL_SHAPES)
def test_universal_quantifier_is_bit_exact(divisions, text, by_antecedent):
    expr = parse_ptc(text, VARS, SYMBOLS)
    for name, lat in ptc_lattices():
        tolerance = suite_tolerance(lat)
        for seed in range(4):
            tables = dict(gen.gen_instance(
                gen.GenConfig(seed=seed, lattice=lat, score_step=0.001),
                {k: s for k, s in SYMBOLS.items() if k != "E"}).tables())
            inst = DatabaseInstance(lat, {**tables, "E": gx.empty(lat, sch("B"))})
            divisions.clear()
            got = gx.eval_ptc(expr, inst)
            # the outermost ALL is evaluated last
            assert divisions[-1] == (not by_antecedent), (name, seed)
            assert got.scheme == ptc_scheme(expr)
            assert dict(got.rows) == reference(expr, inst), (name, seed)
            literal = gx.eval_ra(composed.compile_ptc_literal(expr), inst)
            assert got.max_deviation(literal) <= tolerance, (name, seed)


def test_drawn_formulas_under_an_all_that_divides_by_its_antecedent(divisions):
    """`gen_ptc_expr` seldom draws an ALL whose body is `Q(b) => φ` with Q
    on exactly the bound variables, so each drawn φ with a free variable b
    on {B}, and B in no other free variable, is wrapped in one."""
    symbols = {"Q": sch("B"), "R": sch("A", "B"), "K": sch("B", "C")}
    wrapped = 0
    for k, (name, lat) in enumerate(ptc_lattices()):
        cfg = gen.GenConfig(seed=5, lattice=lat, score_step=0.001)
        inst = gen.gen_instance(cfg, symbols)
        for i in range(40 * k, 40 * k + 40):
            phi = gen.gen_ptc_expr(cfg.with_seed(i), symbols, max_depth=3, salt="wrap")
            free = free_vars(phi)
            on_b = [v for v in free if v.scheme == sch("B")]
            if len(on_b) != 1 or any("B" in v.scheme for v in free - set(on_b)):
                continue
            antecedent = Atom(RelSym("Q", sch("B")), frozenset(on_b))
            expr = PtcInf(frozenset(on_b), PtcBinary(RESIDUUM, antecedent, phi))
            divisions.clear()
            got = gx.eval_ptc(expr, inst)
            assert divisions[-1] is False, (name, i)
            assert dict(got.rows) == reference(expr, inst), (name, i, gx.ptc_to_text(expr))
            wrapped += 1
    assert wrapped >= 60, wrapped


#: `=>` where it is not the body of a qualifying ALL: a residuum over the
#: whole EADOM, top off the antecedent's support
IMPLICATION_SHAPES = [
    "ANY b . (Q(b) => R(a, b))",
    "Q(b) => R(a, b)",
    # an empty antecedent: top on every tuple of the domain
    "ANY b . (E(b) => R(a, b))",
]


@pytest.mark.parametrize("text", IMPLICATION_SHAPES)
def test_implication_outside_all_is_pointwise(text):
    expr = parse_ptc(text, VARS, SYMBOLS)
    for name, lat in ptc_lattices():
        tolerance = suite_tolerance(lat)
        for seed in range(4):
            tables = dict(gen.gen_instance(
                gen.GenConfig(seed=seed, lattice=lat, score_step=0.001),
                {k: s for k, s in SYMBOLS.items() if k != "E"}).tables())
            inst = DatabaseInstance(lat, {**tables, "E": gx.empty(lat, sch("B"))})
            got = gx.eval_ptc(expr, inst)
            assert got.scheme == ptc_scheme(expr)
            assert dict(got.rows) == reference(expr, inst), (name, seed)
            compiled = gx.eval_ra(gx.compile_ptc_to_ra(expr), inst)
            assert got.max_deviation(compiled) <= tolerance, (name, seed)


def test_universal_quantifier_touches_only_the_antecedent(monkeypatch, godel):
    """`ALL b . (Q(b) => R(a, b))` with 200 values of A and of B builds the
    EADOM over the free scheme {A} only, never the product over {A, B}."""
    from gradix import algebra

    n = 200
    rows = {(i, i): 0.5 for i in range(n)}
    rows.update({(i, b): 0.9 for i in range(3) for b in range(5)})
    inst = DatabaseInstance(godel, {
        "R": rdt(godel, {"A", "B"}, rows),
        "Q": rdt(godel, {"B"}, {b: 1.0 for b in range(5)}),
    })
    built = []
    eadom = algebra.eadom

    def counting_eadom(instance, scheme, extra_values=()):
        out = eadom(instance, scheme, extra_values)
        built.append((frozenset(scheme), len(out.rows)))
        return out

    monkeypatch.setattr(algebra, "eadom", counting_eadom)
    expr = parse_ptc("ALL b . (Q(b) => R(a, b))", VARS, SYMBOLS)
    out = gx.eval_ptc(expr, inst)
    assert sch("A", "B") not in {s for s, _rows in built}
    assert built == [(sch("A"), n)]
    assert dict(out.rows) == {Tuple({"A": i}): 0.9 for i in range(3)}


def test_calculus_entry_points_reject_an_algebra_expression(inst):
    for call in (free_vars, validate_ptc, gx.compile_ptc_to_ra,
                 lambda e: gx.eval_ptc(e, inst)):
        with pytest.raises(TypeError, match="not a PTC expression"):
            call(R1)
