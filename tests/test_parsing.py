"""Grammar coverage, parse errors with positions, print/parse round trips,
and script parsing."""

import re
import time
from typing import get_args

import pytest
from hypothesis import example, given, settings, strategies as st

import gradix as gx
from gradix import ParseError, parse_ptc, parse_ra, parse_script, parsing
from gradix import algebra as alg
from gradix.harness import gen
from gradix.lattice import lattice_from_spec
from gradix.parsing import (
    MAX_DEPTH,
    CompileStmt,
    EvalPtcStmt,
    EvalStmt,
    LetStmt,
    LoadStmt,
    SaveStmt,
    VarStmt,
)

from conftest import atom_vars, sch

SYMS = {"D1": sch("A", "B"), "D2": sch("B"), "SP": sch("S", "P"), "P": sch("P")}
VARS = {"r": sch("S"), "s": sch("P"), "t": sch("A", "B")}


def test_parse_ra_productions():
    cases = [
        "D1",
        "DEE(0.7)",
        '[A: "v"]',
        "[A: 3]",
        "[A: 3.5]",
        "(D1 JOIN D2)",
        "(D1 UNION D1)",
        "(D1 ISECT D1)",
        "PROJECT[A](D1)",
        "PROJECT[](D1)",
        "NABLA(D1)",
        "DELTA(D1)",
        "RES(D1 -> D1 OVER D1)",
        "DIV(D1 BY D2 OVER PROJECT[A](D1))",
        "GSDO(PROJECT[A](D1), D2; MED D1)",
        "GSD(PROJECT[A](D1), D2; MED D1)",
        "GGDO(PROJECT[A](D1), DEE(1); MED D1, D2)",
        "GDDO(D1, D2; MED D1, D2)",
        "GCODD(D1, D2; UNIV PROJECT[A](D1))",
        "GTODD(D1, D2; UNIV PROJECT[A](D1))",
        "SEMIJOIN(D1, D2)",
        "GDIFF(D1, D1)",
        "SEMIDIFF(D1, D2)",
        "EADOM[A,B]",
    ]
    for text in cases:
        expr = parse_ra(text, SYMS)
        gx.scheme_of(expr)  # well-formed


def test_parse_ra_values_and_precedence():
    expr = parse_ra('[A: "quoted \\" text"]')
    assert expr.value == 'quoted " text'
    assert parse_ra("[A: -3]").value == -3
    left = parse_ra("D1 UNION D1 JOIN D2", SYMS)
    # same-precedence operators associate left
    assert isinstance(left, gx.NaturalJoin)
    assert isinstance(left.left, gx.Union)


def test_parse_ra_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse_ra("DIV(D1 BY D2)")
    assert "OVER" in str(exc.value)
    assert exc.value.line == 1 and exc.value.column > 1
    with pytest.raises(ParseError):
        parse_ra("PROJECT[A](D1")
    with pytest.raises(ParseError):
        parse_ra("D1 JOIN")
    with pytest.raises(ParseError):
        parse_ra("")
    with pytest.raises(ParseError) as exc:
        parse_ra("D1 %%")
    assert exc.value.line == 1


def nested(opener, inner, depth):
    return opener * depth + inner + ")" * depth


def test_nesting_depth_limit_on_algebra():
    # only brackets nest the parser; an infix chain of any length is read
    # in a loop, and the AST it builds is as deep as the chain is long
    d2 = gx.RankedDataTable(sch("B"), gx.GoedelLattice(), {gx.Tuple({"B": 1}): 0.5})
    inst = gx.DatabaseInstance(gx.GoedelLattice(), {"D2": d2})
    for op, n in (("UNION", MAX_DEPTH + 1), ("UNION", MAX_DEPTH + 2), ("JOIN", 1000)):
        chain = parse_ra(f" {op} ".join(["D2"] * n), SYMS)
        assert gx.eval_ra(chain, inst) == d2
    parse_ra(nested("NABLA(", "D2", MAX_DEPTH), SYMS)
    parse_ra(nested("(", "D2", MAX_DEPTH), SYMS)
    parse_ra(nested("PROJECT[B](", "D2", MAX_DEPTH), SYMS)
    too_deep = [
        nested("NABLA(", "D2", MAX_DEPTH + 1),
        nested("NABLA(", "D2", 330),
        nested("(", "D2", MAX_DEPTH + 1),
        nested("(", "D2", 1000),
    ]
    for text in too_deep:
        with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH} levels"):
            parse_ra(text, SYMS)


def test_nesting_depth_limit_on_calculus_and_scripts():
    parse_ptc(" => ".join(["P(s)"] * MAX_DEPTH), VARS, SYMS)
    parse_ptc(nested("NABLA(", "P(s)", MAX_DEPTH - 1), VARS, SYMS)
    for text in (" => ".join(["P(s)"] * (MAX_DEPTH + 1)), " & ".join(["P(s)"] * 1000)):
        assert gx.ptc_to_text(parse_ptc(text, VARS, SYMS)).count("P(s)") == text.count("P(s)")
    with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH} levels"):
        parse_ptc(nested("DELTA(", "P(s)", MAX_DEPTH), VARS, SYMS)
    chain = " UNION ".join(["P"] * (MAX_DEPTH + 2))
    for stmt, want in ((f"LET X = {chain}", parse_ra(chain)), (f"EVAL {chain}", parse_ra(chain)),
                       (f"EVALPTC ({chain})(s)", parse_ptc(f"({chain})(s)", VARS)),
                       (f"COMPILE ({chain})(s)", parse_ptc(f"({chain})(s)", VARS))):
        script = parse_script(f'LOAD P FROM "p.csv"\nVAR s : {{P}}\n{stmt}\n')
        assert script[2].expr == want
    for stmt in (f"EVAL {nested('(', 'P', MAX_DEPTH + 1)}",
                 f"EVALPTC {nested('NABLA(', 'P(s)', MAX_DEPTH)}"):
        with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH} levels") as exc:
            parse_script(f'LOAD P FROM "p.csv"\nVAR s : {{P}}\n{stmt}\n')
        assert exc.value.line == 3


def test_parse_ptc_productions():
    cases = [
        "SP(r, s)",
        "P(s)",
        "DEE(1)()",
        "(P(s) => SP(r, s))",
        "P(s) * P(s)",
        "P(s) & P(s)",
        "NABLA(P(s))",
        "DELTA(P(s))",
        "ALL s . (P(s) => SP(r, s))",
        "ANY s . (SP(r, s))",
        "NABLA(P)(s)",  # algebra nabla applied to a variable: an atom
        "(SP JOIN P)(r, s)",
        "EADOM[P](s)",
    ]
    for text in cases:
        expr = parse_ptc(text, VARS, SYMS)
        gx.ptc_to_text(expr)


def test_parse_ptc_distinguishes_atom_from_group():
    atom = parse_ptc("(SP JOIN P)(r, s)", VARS, SYMS)
    assert isinstance(atom, gx.Atom)
    grouped = parse_ptc("(P(s) => SP(r, s))", VARS, SYMS)
    assert isinstance(grouped, gx.PtcBinary)
    nab_atom = parse_ptc("NABLA(P)(s)", VARS, SYMS)
    assert isinstance(nab_atom, gx.Atom)
    nab_ptc = parse_ptc("NABLA(P(s))", VARS, SYMS)
    assert isinstance(nab_ptc, gx.PtcNabla)


def test_parse_ptc_precedence():
    expr = parse_ptc("P(s) * P(s) => P(s) & P(s)", VARS, SYMS)
    assert expr.op == "residuum"
    assert expr.left.op == "otimes"
    assert expr.right.op == "meet"


def test_parse_ptc_undeclared_variable():
    with pytest.raises(ParseError, match="undeclared"):
        parse_ptc("P(z)", VARS, SYMS)
    with pytest.raises(ParseError, match="undeclared"):
        parse_ptc("ALL z . (P(s))", VARS, SYMS)


def test_ra_round_trip_spec_forms():
    texts = [
        "DIV(D1 BY D2 OVER EADOM[A])",
        "GSDO(PROJECT[A](D1), D2; MED D1)",
        "(D1 JOIN D2)",
        'PROJECT[A,B]((D1 UNION D1))',
        "RES(D1 -> D1 OVER EADOM[A,B])",
        '[A: "v"]',
        "DEE(0.25)",
    ]
    for text in texts:
        ast1 = parse_ra(text)
        ast2 = parse_ra(gx.ra_to_text(ast1))
        assert ast1 == ast2


def levels(expr) -> int:
    """Operator levels on the longest path from `expr` down to a leaf; an
    atom's algebra expression counts one level below the atom."""
    return alg.fold(expr, lambda node, *below: 1 + max(below, default=-1))[id(expr)]


def operator_instance(cls):
    """An operator node over distinct relation symbols, one per child."""
    return cls(*[alg.RelSym(f"R{i}") for i in range(len(cls._kids))])


def test_every_operator_round_trips():
    for cls in alg._SYNTAX:
        expr = operator_instance(cls)
        assert parse_ra(gx.ra_to_text(expr)) == expr, cls


def test_each_token_an_operator_template_fixes_is_expected():
    # an operator's production reads each token of its template after the
    # keyword; blanking one out names it and the token found in its place
    for cls, template in alg._SYNTAX.items():
        if template.startswith("("):
            continue  # infix: `ra_expr` reads its keyword between two operands
        text = gx.ra_to_text(operator_instance(cls))
        toks = parsing.tokenize(text)
        for i, tok in enumerate(toks[1:-1], 1):
            if tok.kind == "IDENT":
                continue  # a child
            start = tok.col - 1
            blanked = text[:start] + " " * len(tok.text) + text[start + len(tok.text):]
            after = toks[i + 1]
            with pytest.raises(ParseError) as exc:
                parse_ra(blanked)
            want = f"expected {tok.text!r}, found {after.text or after.kind!r}"
            assert (str(exc.value), exc.value.line, exc.value.column) == (
                f"{after.line}:{after.col}: {want}", after.line, after.col), blanked


def test_every_word_of_an_operator_template_is_a_keyword():
    # a word missing from KEYWORDS would read as a relation symbol, and the
    # operator it names, or its production, would not parse
    words = {w for t in alg._SYNTAX.values() for w in re.findall(r"[A-Za-z_]\w*", t)}
    assert words and words <= parsing.KEYWORDS


@pytest.mark.parametrize("opener", ["NABLA(", "DELTA(", "("])
def test_nested_calculus_groups_are_read_once(monkeypatch, opener):
    # a group is read as an algebra primary only where `(` follows its
    # closer, so each level is not read again below every level above it
    calls = []
    primary = parsing._Parser.ra_primary

    def counting(self):
        calls.append(self.pos)
        return primary(self)

    monkeypatch.setattr(parsing._Parser, "ra_primary", counting)
    for n in (50, MAX_DEPTH - 1):
        calls.clear()
        parse_ptc(nested(opener, "P(s)", n), VARS, SYMS)
        assert len(calls) == 1
        calls.clear()
        with pytest.raises(ParseError, match="expected a calculus expression, found 'BY'"):
            parse_ptc(nested(opener, "BY", n), VARS, SYMS)
        assert len(calls) == 1
        # each level here reads as algebra, so no failure is remembered, and
        # only the lookahead keeps every level from being read again (about
        # n²/2 calls without it)
        calls.clear()
        with pytest.raises(ParseError, match="expected '\\(', found '\\)'") as exc:
            parse_ptc(nested(opener, "P", n), VARS, SYMS)
        assert (exc.value.line, exc.value.column) == (1, len(opener) * n + 2)
        assert len(calls) == 1
    # a nest that is an atom's algebra expression is read once, as algebra
    # (not at full depth: the counting wrapper adds a stack frame per level)
    calls.clear()
    parse_ptc(nested(opener, "P", 100) + "(s)", VARS, SYMS)
    assert len(calls) <= 2 * 100


@pytest.mark.parametrize("opener", ["NABLA(", "DELTA(", "("])
def test_groups_an_atom_may_follow_are_read_a_bounded_number_of_times(monkeypatch, opener):
    # where `(` follows every closer the lookahead lets each level through;
    # a level whose algebra reading failed once is not read as an atom again
    calls = []
    primary = parsing._Parser.ra_primary

    def counting(self):
        calls.append(self.pos)
        return primary(self)

    monkeypatch.setattr(parsing._Parser, "ra_primary", counting)
    counts = {}
    for n in (25, 50, 100, 190):
        calls.clear()
        with pytest.raises(ParseError, match="expected '\\)', found '\\('"):
            parse_ptc(opener * n + "P(s)" + ")(s)" * n, VARS, SYMS)
        counts[n] = len(calls)
    assert all(count <= n + 2 for n, count in counts.items()), counts


@pytest.mark.parametrize("text, message", [
    ("[A: 1e400](s)", "1:5: number '1e400' is not finite"),
    ("SP", "1:3: expected '(', found 'EOF'"),
    ("SP(r) & P s", "1:11: expected '(', found 's'"),
    ("PROJECT[P(SP)(s)", "1:10: expected ']', found '('"),
    ("NABLA(P)(s", "1:8: expected '(', found ')'"),
    # an atom reading that cannot start keeps the calculus message
    ("& P(s)", "1:1: expected a calculus expression, found '&'"),
    ("(BY)", "1:2: expected a calculus expression, found 'BY'"),
])
def test_a_primary_only_an_atom_can_be_reports_the_atom_error(text, message):
    with pytest.raises(ParseError) as exc:
        parse_ptc(text, VARS, SYMS)
    assert str(exc.value) == message


def test_non_finite_number_literals_are_parse_errors():
    for text, col in (("[A: 1e400]", 5), ("DEE(-1e999)", 5), ("EADOM[A; A: 2E+308]", 13)):
        with pytest.raises(ParseError, match="is not finite") as exc:
            parse_ra(text)
        assert (exc.value.line, exc.value.column) == (1, col)
    assert parse_ra("[A: 1e308]").value == 1e308


def test_ra_round_trip_random():
    cfg = gen.GenConfig(seed=77, lattice=gx.make_lattice("godel"))
    symbols = {"D1": sch("A", "B"), "D2": sch("B", "C")}
    for i in range(40):
        expr = gen.gen_ptc_expr(cfg.with_seed(i), symbols, max_depth=4, salt="rt")
        compiled = gx.compile_ptc_to_ra(expr)
        text = gx.ra_to_text(compiled)
        reparsed = parse_ra(text, symbols)
        assert gx.ra_to_text(reparsed) == text
        # parse → print → parse is a fixpoint
        assert parse_ra(gx.ra_to_text(reparsed), symbols) == reparsed


def test_ptc_round_trip_random():
    cfg = gen.GenConfig(seed=78, lattice=gx.make_lattice("godel"))
    symbols = {"D1": sch("A", "B"), "D2": sch("B")}
    for i in range(40):
        expr = gen.gen_ptc_expr(cfg.with_seed(i), symbols, max_depth=3, salt="pt")
        text = gx.ptc_to_text(expr)
        var_schemes = atom_vars(expr)
        reparsed = parse_ptc(text, var_schemes, symbols)
        assert reparsed == expr
        assert gx.ptc_to_text(reparsed) == text


def test_parse_script_statements(tmp_path):
    text = """
# suppliers and parts
LOAD SP FROM "sp.csv" SCHEME S:text, P:text
LOAD P FROM "p.csv" SCHEME P:text
VAR r : {S}
VAR s : {P}
LET RNG = PROJECT[S](SP)
EVAL DIV(SP BY P OVER RNG)
EVALPTC ALL s . (P(s) => SP(r, s))
COMPILE ALL s . (P(s) => SP(r, s))
SAVE RNG TO "rng.csv"
"""
    stmts = parse_script(text)
    kinds = [type(s).__name__ for s in stmts]
    assert kinds == [
        "LoadStmt", "LoadStmt", "VarStmt", "VarStmt", "LetStmt",
        "EvalStmt", "EvalPtcStmt", "CompileStmt", "SaveStmt",
    ]
    assert stmts[0].types == (("S", "text"), ("P", "text"))
    assert stmts[4].name == "RNG"


def test_parse_script_define_before_use():
    with pytest.raises(ParseError, match="before definition"):
        parse_script('EVAL D1')
    with pytest.raises(ParseError, match="undefined table"):
        parse_script('SAVE X TO "x.csv"')
    with pytest.raises(ParseError, match="undeclared"):
        parse_script('LOAD D FROM "d.csv"\nEVALPTC D(q)')
    with pytest.raises(ParseError, match="redeclared"):
        parse_script("VAR r : {A}\nVAR r : {B}")


def test_error_positions_survive_multiline_strings():
    text = 'LOAD D FROM "multi\nline.csv"\nEVAL D %%\n'
    with pytest.raises(ParseError) as exc:
        parse_script(text)
    assert exc.value.line == 3


def test_parse_script_empty_and_comments():
    assert parse_script("") == []
    assert parse_script("# nothing here\n\n") == []


def test_parse_script_one_statement_per_line():
    with pytest.raises(ParseError):
        parse_script('LOAD A FROM "a.csv" LOAD B FROM "b.csv"')


def test_multiline_expression_in_parens():
    stmts = parse_script(
        'LOAD D1 FROM "x.csv"\nEVAL DIV(D1 BY D1\n  OVER D1)'
    )
    assert isinstance(stmts[1], EvalStmt)


# -- print/parse round trip on generated algebra expressions -------------------

ATTRS = st.sampled_from("ABC")
SCHEMES = st.frozensets(ATTRS)
VALUES = st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False), st.text())


def eadoms(scheme):
    if not scheme:
        return st.just(alg.EadomExpr(scheme))
    own = st.frozensets(st.tuples(st.sampled_from(sorted(scheme)), VALUES), max_size=3)
    return st.builds(alg.EadomExpr, st.just(scheme), own)


#: every operator node but PROJECT, with its number of children
OPERATORS = {
    alg.Union: 2, alg.Intersection: 2, alg.NaturalJoin: 2, alg.Nabla: 1, alg.Delta: 1,
    alg.ResiduumRange: 3, alg.DivRanged: 3, alg.Semijoin: 2, alg.GradedDifference: 2,
    alg.Semidifference: 2, alg.GSDO: 3, alg.GSD: 3, alg.GGDO: 4, alg.GDDO: 4,
    alg.GCodd: 3, alg.GTodd: 3,
}
LEAVES = (alg.RelSym, alg.DeeConst, alg.Singleton, alg.EadomExpr)

RA_EXPRS = st.recursive(
    st.one_of(
        st.builds(alg.RelSym, st.sampled_from(["R", "S", "T"])),
        st.builds(alg.DeeConst, VALUES),
        st.builds(alg.Singleton, ATTRS, VALUES),
        SCHEMES.flatmap(eadoms),
    ),
    lambda kids: st.one_of(
        st.builds(alg.Projection, SCHEMES, kids),
        *[st.builds(cls, *[kids] * n) for cls, n in OPERATORS.items()],
    ),
    max_leaves=12,
)


def test_generated_expressions_cover_every_node_type():
    assert {*OPERATORS, alg.Projection, *LEAVES} == set(get_args(alg.RaExpr))


@settings(max_examples=300, deadline=None)
@given(RA_EXPRS)
@example(alg.Singleton("A", 0.1234567891))
@example(alg.Singleton("A", 1234567890.5))
@example(alg.DeeConst(0.1234567891))
@example(alg.EadomExpr(sch("A", "B"), frozenset({("B", "z"), ("A", 1), ("A", 2.5)})))
def test_printed_algebra_parses_back_to_the_same_expression(expr):
    assert levels(expr) <= MAX_DEPTH
    text = gx.ra_to_text(expr)
    assert parse_ra(text) == expr
    # each node owns at least one token of the text
    assert levels(expr) < len(parsing.tokenize(text)) - 1


def test_float_literals_keep_nine_digits_where_they_read_back():
    assert gx.ra_to_text(alg.Singleton("A", 0.1)) == "[A: 0.1]"
    assert gx.ra_to_text(alg.Singleton("A", 1e-05)) == "[A: 1e-05]"
    assert gx.ra_to_text(alg.DeeConst(0.25)) == "DEE(0.25)"
    assert gx.ra_to_text(alg.Singleton("A", 0.1234567891)) == "[A: 0.1234567891]"
    assert gx.ra_to_text(alg.DeeConst(1234567890.5)) == "DEE(1234567890.5)"


def test_eadom_constants_print_and_parse():
    expr = alg.EadomExpr(sch("A", "B"), frozenset({("B", "z"), ("A", 1), ("C", 3)}))
    # C is not an attribute of this EADOM, so its constant never reaches the table
    assert gx.ra_to_text(expr) == 'EADOM[A,B; A: 1, B: "z"]'
    assert parse_ra("EADOM[A; A: -2, A: 0.5]") == alg.EadomExpr(
        sch("A"), frozenset({("A", -2), ("A", 0.5)}))
    with pytest.raises(ParseError, match="not one of its attributes"):
        parse_ra('EADOM[A; B: "z"]')


# -- the tokenizer against the character loop it replaced ----------------------

def char_loop_tokenize(text):
    """The tokenizer before the regular expression, one character at a time,
    kept as the reference: (kind, text, line, col) per token."""
    punct = ("->", "=>", "(", ")", "[", "]", "{", "}", ",", ";", ":", ".", "*", "&", "=")
    toks = []
    line, col = 1, 1
    i, n = 0, len(text)
    depth = 0
    while i < n:
        ch = text[i]
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            if depth == 0 and toks and toks[-1][0] != "NEWLINE":
                toks.append(("NEWLINE", "\n", line, col))
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == '"':
            j = i + 1
            out = []
            newlines = 0
            last_break = None
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    esc = text[j + 1]
                    out.append({"n": "\n", "t": "\t"}.get(esc, esc))
                    j += 2
                else:
                    if text[j] == "\n":
                        newlines += 1
                        last_break = j
                    out.append(text[j])
                    j += 1
            if j >= n:
                raise ParseError("unterminated string literal", line, col)
            toks.append(("STRING", "".join(out), line, col))
            line += newlines
            col = j + 1 - last_break if last_break is not None else col + j + 1 - i
            i = j + 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (text[j].isdigit() or text[j] in ".eE" or
                             (text[j] in "+-" and text[j - 1] in "eE")):
                j += 1
            toks.append(("NUMBER", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            toks.append(("KEYWORD" if word in parsing.KEYWORDS else "IDENT", word, line, col))
            col += j - i
            i = j
            continue
        for p in punct:
            if text.startswith(p, i):
                if p in "([{":
                    depth += 1
                    if depth > MAX_DEPTH:
                        raise ParseError(f"brackets nested deeper than {MAX_DEPTH} levels",
                                         line, col)
                elif p in ")]}":
                    depth = max(0, depth - 1)
                toks.append((p, p, line, col))
                col += len(p)
                i += len(p)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(("EOF", "", line, col))
    return toks


def tokens_or_error(tokenize, text):
    try:
        return [tuple(tok) for tok in tokenize(text)]
    except ParseError as exc:
        return (str(exc), exc.line, exc.column)


PIECES = st.one_of(
    st.sampled_from([*"!$%'+-/<>?@\\^`|~", "->", "=>", *"()[]{},;:.*&=", "-",
                     "# note", "#", '"', '\\"', "\\", "\\n", "\\\n", '"a b"', '"x\ny"',
                     "\n", "\r", "\t", " ", "  ", "1", "23", "4.5", "1e-3", "2E+7", "e",
                     "E", "x", "_y", "R2", "²", "½", "Ⅻ", "٣", "一", "́", "\xa0",
                     "\x00", "\x0b"]),
    st.sampled_from(sorted(parsing.KEYWORDS)),
    st.characters(categories=["L", "Nd", "No", "Nl"]),
    st.characters(),
)


@settings(max_examples=600, deadline=None)
@given(st.lists(PIECES, max_size=14).map("".join))
@example("²")  # str.isdigit accepts it, re's \d does not
@example("-²1e+½")
@example("a²b ½")
@example("LET Größe = R٣ UNION Ⅻ")
@example("EVAL R # trailing comment")
@example("EVAL R # comment\nEVAL S")
@example('LOAD D FROM "a\\\nb\nc\\\nd" x\ny')  # escaped newlines start no line
@example('"tab\\tquote\\"" end')
@example('"never closed \\"')
@example("(" * (MAX_DEPTH + 1))
@example("é (" + "[" * MAX_DEPTH + "\n" + "]" * MAX_DEPTH + "\n)")
def test_tokenize_matches_the_character_loop(text):
    assert tokens_or_error(parsing.tokenize, text) == tokens_or_error(char_loop_tokenize, text)


def test_token_expressions_need_no_python_newer_than_3_10():
    # possessive quantifiers and atomic groups came to re in Python 3.11
    for pattern in (parsing._ASCII_TOKENS, parsing._unicode_tokens("é²")):
        assert "(?>" not in pattern.pattern
        assert not re.search(r"[*+?}]\+", pattern.pattern)


def test_blanks_that_end_a_text_are_read_once():
    text = "EVAL R" + " \t\r" * 10_000
    start = time.perf_counter()
    toks = parsing.tokenize(text)
    assert time.perf_counter() - start < 1.0  # reading them back one by one takes minutes
    assert [tuple(tok) for tok in toks] == [
        ("KEYWORD", "EVAL", 1, 1), ("IDENT", "R", 1, 6), ("EOF", "", 1, len(text) + 1)]


def test_each_parse_tokenizes_once(monkeypatch):
    # a profiler counts tokens by rebinding the module-level name
    sizes = []
    inner = parsing.tokenize

    def counting(text):
        out = inner(text)
        assert type(out) is list
        sizes.append(len(out))
        return out

    monkeypatch.setattr(parsing, "tokenize", counting)
    parse_ra("D1 JOIN D2")
    assert sizes == [4]
    parse_ptc("ALL s . (P(s) => SP(r, s))", VARS)
    assert sizes == [4, 17]
    parse_script('LOAD P FROM "p.csv"\nVAR s : {P}\nEVALPTC NABLA(P(s))\n')
    assert sizes == [4, 17, 22]


# -- print/parse round trip on generated calculus expressions ------------------

LATTICES = ("godel", "lukasiewicz", "goguen", "chain:5")


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(LATTICES), st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_printed_calculus_parses_back_to_the_same_expression(lattice, seed, depth):
    cfg = gen.GenConfig(seed=seed, lattice=lattice_from_spec(lattice))
    symbols = {"D1": sch("A", "B"), "D2": sch("B", "C"), "D3": sch("C"), "D0": sch()}
    expr = gen.gen_ptc_expr(cfg, symbols, max_depth=depth, salt="round-trip")
    assert levels(expr) <= MAX_DEPTH
    var_schemes = atom_vars(expr)
    text = gx.ptc_to_text(expr)
    assert parse_ptc(text, var_schemes, symbols) == expr
    assert levels(expr) < len(parsing.tokenize(text)) - 1
