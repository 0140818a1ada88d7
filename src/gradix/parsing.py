"""Text front end: one tokenizer and recursive-descent parsers for the
algebra grammar, the calculus grammar, and the batch script language.

Every parse is total: it returns an AST or raises ParseError with the
offending line and column.  Relation symbols parse with unresolved schemes
(CSV headers are only known at run time); tuple variables resolve against
explicit VAR declarations, so calculus expressions parse fully typed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from . import algebra as ra
from . import ptc as pc
from .errors import ParseError
from .table import Scheme

KEYWORDS = {
    "UNION", "ISECT", "JOIN", "PROJECT", "NABLA", "DELTA", "RES", "DIV",
    "BY", "OVER", "GSDO", "GSD", "GGDO", "GDDO", "GCODD", "GTODD", "MED",
    "UNIV", "EADOM", "DEE", "SEMIJOIN", "GDIFF", "SEMIDIFF", "ALL", "ANY",
    "VAR", "LET", "LOAD", "EVAL", "EVALPTC", "COMPILE", "SAVE", "FROM",
    "TO", "SCHEME",
}

#: Deepest nesting an expression may have: brackets inside brackets, and
#: operator levels on any path from the root of the parsed expression down
#: to a relation symbol or constant.  The parser recurses once per bracket,
#: and `==`, `hash`, `repr` and pickling of the AST it returns recurse once
#: per level, so a deeper expression would exhaust Python's stack; the
#: parser raises `ParseError` instead.  The engine's own traversals are
#: iterative: an AST built through the API is evaluated at any depth.
MAX_DEPTH = 200

_PUNCT = ("->", "=>", "(", ")", "[", "]", "{", "}", ",", ";", ":", ".", "*", "&", "=")


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT, KEYWORD, NUMBER, STRING, NEWLINE, EOF, or the punct text
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    depth = 0

    def err(msg):
        raise ParseError(msg, line, col)

    while i < n:
        ch = text[i]
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            if depth == 0 and toks and toks[-1].kind != "NEWLINE":
                toks.append(Token("NEWLINE", "\n", line, col))
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
                err("unterminated string literal")
            toks.append(Token("STRING", "".join(out), line, col))
            line += newlines
            col = j + 1 - last_break if last_break is not None else col + j + 1 - i
            i = j + 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (text[j].isdigit() or text[j] in ".eE" or
                             (text[j] in "+-" and text[j - 1] in "eE")):
                j += 1
            toks.append(Token("NUMBER", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            toks.append(Token("KEYWORD" if word in KEYWORDS else "IDENT", word, line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                if p in "([{":
                    depth += 1
                    if depth > MAX_DEPTH:
                        err(f"brackets nested deeper than {MAX_DEPTH} levels")
                elif p in ")]}":
                    depth = max(0, depth - 1)
                toks.append(Token(p, p, line, col))
                col += len(p)
                i += len(p)
                break
        else:
            err(f"unexpected character {ch!r}")
    toks.append(Token("EOF", "", line, col))
    return toks


class _Parser:
    def __init__(self, tokens: list[Token], var_schemes: Mapping[str, Scheme] | None = None):
        self.toks = tokens
        self.pos = 0
        self.vars = dict(var_schemes or {})

    # -- machinery --------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def at_kw(self, word: str) -> bool:
        return self.at("KEYWORD", word)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        if self.at(kind, text):
            return self.next()
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if not self.at(kind, text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {tok.text or tok.kind!r}",
                             tok.line, tok.col)
        return self.next()

    def expect_kw(self, word: str) -> Token:
        return self.expect("KEYWORD", word)

    def skip_newlines(self):
        while self.accept("NEWLINE"):
            pass

    # -- shared pieces ----------------------------------------------------

    def attr_list(self) -> Scheme:
        attrs = [self.expect("IDENT").text]
        while self.accept(","):
            attrs.append(self.expect("IDENT").text)
        return frozenset(attrs)

    def value_literal(self):
        tok = self.peek()
        if tok.kind == "STRING":
            return self.next().text
        if tok.kind == "NUMBER":
            self.next()
            return _number(tok)
        raise ParseError("expected a value literal", tok.line, tok.col)

    def expression(self, parse):
        """One top-level expression read by `parse`, within `MAX_DEPTH`."""
        tok = self.peek()
        expr = parse()
        if _depth(expr) > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels",
                             tok.line, tok.col)
        return expr

    # -- relational algebra -------------------------------------------------

    def ra_expr(self):
        left = self.ra_primary()
        while True:
            if self.accept("KEYWORD", "UNION"):
                left = ra.Union(left, self.ra_primary())
            elif self.accept("KEYWORD", "ISECT"):
                left = ra.Intersection(left, self.ra_primary())
            elif self.accept("KEYWORD", "JOIN"):
                left = ra.NaturalJoin(left, self.ra_primary())
            else:
                return left

    def ra_primary(self):
        tok = self.peek()
        if tok.kind == "IDENT":
            self.next()
            return ra.RelSym(tok.text)
        if self.accept("("):
            e = self.ra_expr()
            self.expect(")")
            return e
        if self.accept("KEYWORD", "DEE"):
            self.expect("(")
            tok = self.peek()
            if tok.kind == "STRING":
                degree = self.next().text
            elif tok.kind == "NUMBER":
                self.next()
                degree = _number(tok)
            else:
                raise ParseError("DEE wants a rank literal", tok.line, tok.col)
            self.expect(")")
            return ra.DeeConst(degree)
        if self.accept("["):
            attr = self.expect("IDENT").text
            self.expect(":")
            value = self.value_literal()
            self.expect("]")
            return ra.Singleton(attr, value)
        if self.accept("KEYWORD", "PROJECT"):
            self.expect("[")
            scheme = frozenset() if self.at("]") else self.attr_list()
            self.expect("]")
            self.expect("(")
            child = self.ra_expr()
            self.expect(")")
            return ra.Projection(scheme, child)
        if self.accept("KEYWORD", "NABLA"):
            return ra.Nabla(self._parenthesized_ra())
        if self.accept("KEYWORD", "DELTA"):
            return ra.Delta(self._parenthesized_ra())
        if self.accept("KEYWORD", "RES"):
            self.expect("(")
            left = self.ra_expr()
            self.expect("->")
            right = self.ra_expr()
            self.expect_kw("OVER")
            rng = self.ra_expr()
            self.expect(")")
            return ra.ResiduumRange(left, right, rng)
        if self.accept("KEYWORD", "DIV"):
            self.expect("(")
            dividend = self.ra_expr()
            self.expect_kw("BY")
            divisor = self.ra_expr()
            self.expect_kw("OVER")
            rng = self.ra_expr()
            self.expect(")")
            return ra.DivRanged(dividend, divisor, rng)
        for word, node in (("GSDO", ra.GSDO), ("GSD", ra.GSD)):
            if self.accept("KEYWORD", word):
                a, b = self._pair()
                self.expect_kw("MED")
                med = self.ra_expr()
                self.expect(")")
                return node(a, b, med)
        for word, node in (("GGDO", ra.GGDO), ("GDDO", ra.GDDO)):
            if self.accept("KEYWORD", word):
                a, b = self._pair()
                self.expect_kw("MED")
                m1 = self.ra_expr()
                self.expect(",")
                m2 = self.ra_expr()
                self.expect(")")
                return node(a, b, m1, m2)
        for word, node in (("GCODD", ra.GCodd), ("GTODD", ra.GTodd)):
            if self.accept("KEYWORD", word):
                a, b = self._pair()
                self.expect_kw("UNIV")
                u = self.ra_expr()
                self.expect(")")
                return node(a, b, u)
        for word, node in (("SEMIJOIN", ra.Semijoin), ("GDIFF", ra.GradedDifference),
                           ("SEMIDIFF", ra.Semidifference)):
            if self.accept("KEYWORD", word):
                self.expect("(")
                a = self.ra_expr()
                self.expect(",")
                b = self.ra_expr()
                self.expect(")")
                return node(a, b)
        if self.accept("KEYWORD", "EADOM"):
            self.expect("[")
            scheme = frozenset() if self.at("]") else self.attr_list()
            constants = set()
            if self.accept(";"):
                while True:
                    tok = self.expect("IDENT")
                    if tok.text not in scheme:
                        raise ParseError(f"EADOM constant on {tok.text!r}, which is not one "
                                         "of its attributes", tok.line, tok.col)
                    self.expect(":")
                    constants.add((tok.text, self.value_literal()))
                    if not self.accept(","):
                        break
            self.expect("]")
            return ra.EadomExpr(scheme, frozenset(constants))
        raise ParseError(f"expected an algebra expression, found {tok.text or tok.kind!r}",
                         tok.line, tok.col)

    def _parenthesized_ra(self):
        self.expect("(")
        e = self.ra_expr()
        self.expect(")")
        return e

    def _pair(self):
        self.expect("(")
        a = self.ra_expr()
        self.expect(",")
        b = self.ra_expr()
        self.expect(";")
        return a, b

    # -- pseudo tuple calculus ----------------------------------------------

    def ptc_expr(self):
        # `=>` binds loosest and to the right, then `&`, then `*`; loops,
        # not one method per level, so only brackets make the parser recurse
        conjunctions = []
        while True:
            conj = None
            while True:
                tens = self.ptc_primary()
                while self.accept("*"):
                    tens = pc.PtcBinary(pc.OTIMES, tens, self.ptc_primary())
                conj = tens if conj is None else pc.PtcBinary(pc.MEET, conj, tens)
                if not self.accept("&"):
                    break
            conjunctions.append(conj)
            if not self.accept("=>"):
                break
        expr = conjunctions.pop()
        while conjunctions:
            expr = pc.PtcBinary(pc.RESIDUUM, conjunctions.pop(), expr)
        return expr

    def ptc_primary(self):
        tok = self.peek()
        if tok.kind == "KEYWORD" and tok.text in ("ALL", "ANY"):
            self.next()
            bound = self._var_set()
            self.expect(".")
            self.expect("(")
            body = self.ptc_expr()
            self.expect(")")
            node = pc.PtcInf if tok.text == "ALL" else pc.PtcSup
            return node(bound, body)
        # an atom is an algebra expression applied to variables; try that
        # shape first, falling back to the calculus reading of
        # NABLA/DELTA/(...); variable resolution happens only once the
        # shape is settled so undeclared-variable errors surface properly
        save = self.pos
        try:
            expr = self.ra_primary()
            self.expect("(")
            names = [] if self.at(")") else self._name_list()
            self.expect(")")
        except ParseError:
            self.pos = save
        else:
            return pc.Atom(expr, self._resolve_vars(names))
        if self.accept("KEYWORD", "NABLA"):
            return pc.PtcNabla(self._parenthesized_ptc())
        if self.accept("KEYWORD", "DELTA"):
            return pc.PtcDelta(self._parenthesized_ptc())
        if self.accept("("):
            body = self.ptc_expr()
            self.expect(")")
            return body
        raise ParseError(f"expected a calculus expression, found {tok.text or tok.kind!r}",
                         tok.line, tok.col)

    def _parenthesized_ptc(self):
        self.expect("(")
        e = self.ptc_expr()
        self.expect(")")
        return e

    def _name_list(self) -> list[Token]:
        names = [self.expect("IDENT")]
        while self.accept(","):
            names.append(self.expect("IDENT"))
        return names

    def _resolve_vars(self, names: list[Token]) -> frozenset:
        out = set()
        for tok in names:
            if tok.text not in self.vars:
                raise ParseError(f"undeclared tuple variable {tok.text!r}",
                                 tok.line, tok.col)
            out.add(pc.TupleVar(tok.text, self.vars[tok.text]))
        return frozenset(out)

    def _var_set(self) -> frozenset:
        return self._resolve_vars(self._name_list())


def _depth(expr) -> int:
    """Operator levels on the longest path from `expr` down to a leaf; an
    atom's algebra expression counts one level below the atom."""
    levels = ra.fold(expr, lambda node, *below: 1 + max(below, default=-1))
    return levels[id(expr)]


def _number(tok: Token):
    text = tok.text
    try:
        if "." in text or "e" in text or "E" in text:
            return float(text)
        return int(text)
    except ValueError:
        raise ParseError(f"bad number {text!r}", tok.line, tok.col) from None


def parse_ra(text: str, symbols: Mapping[str, Scheme] | None = None):
    """Parse one algebra expression; optionally resolve symbol schemes."""
    p = _Parser(tokenize(text))
    p.skip_newlines()
    expr = p.expression(p.ra_expr)
    p.skip_newlines()
    p.expect("EOF")
    if symbols is not None:
        expr = ra.resolve_schemes(expr, symbols)
    return expr


def parse_ptc(text: str, var_schemes: Mapping[str, Scheme],
              symbols: Mapping[str, Scheme] | None = None):
    """Parse one calculus expression against explicit variable declarations;
    optionally resolve the relation symbols inside its atoms."""
    p = _Parser(tokenize(text), var_schemes)
    p.skip_newlines()
    expr = p.expression(p.ptc_expr)
    p.skip_newlines()
    p.expect("EOF")
    if symbols is not None:
        expr = ra.resolve_schemes(expr, symbols)
    return expr


# -- scripts ----------------------------------------------------------------


@dataclass(frozen=True)
class LoadStmt:
    name: str
    path: str
    types: tuple  # ((attr, type_name), ...)
    line: int


@dataclass(frozen=True)
class VarStmt:
    name: str
    scheme: Scheme
    line: int


@dataclass(frozen=True)
class LetStmt:
    name: str
    expr: object
    line: int


@dataclass(frozen=True)
class EvalStmt:
    expr: object
    line: int


@dataclass(frozen=True)
class EvalPtcStmt:
    expr: object
    line: int


@dataclass(frozen=True)
class CompileStmt:
    expr: object
    line: int


@dataclass(frozen=True)
class SaveStmt:
    name: str
    path: str
    line: int


Statement = LoadStmt | VarStmt | LetStmt | EvalStmt | EvalPtcStmt | CompileStmt | SaveStmt


def parse_script(text: str) -> list[Statement]:
    """Parse a batch script; enforces define-before-use for table names and
    tuple variables (schemes of loaded tables stay unresolved until run)."""
    p = _Parser(tokenize(text))
    statements: list[Statement] = []
    defined: set[str] = set()

    def check_symbols(expr, line):
        for name, _scheme in sorted(ra.symbols_of(expr).items()):
            if name not in defined:
                raise ParseError(f"relation symbol {name!r} used before definition",
                                 line, 1)

    p.skip_newlines()
    while not p.at("EOF"):
        tok = p.peek()
        line = tok.line
        if p.accept("KEYWORD", "LOAD"):
            name = p.expect("IDENT").text
            p.expect_kw("FROM")
            path = p.expect("STRING").text
            types = []
            if p.accept("KEYWORD", "SCHEME"):
                while True:
                    attr = p.expect("IDENT").text
                    p.expect(":")
                    types.append((attr, p.expect("IDENT").text))
                    if not p.accept(","):
                        break
            statements.append(LoadStmt(name, path, tuple(types), line))
            defined.add(name)
        elif p.accept("KEYWORD", "VAR"):
            name = p.expect("IDENT").text
            p.expect(":")
            p.expect("{")
            scheme = frozenset() if p.at("}") else p.attr_list()
            p.expect("}")
            prev = p.vars.get(name)
            if prev is not None and prev != scheme:
                raise ParseError(
                    f"tuple variable {name!r} redeclared with a different scheme",
                    line, tok.col,
                )
            p.vars[name] = scheme
            statements.append(VarStmt(name, scheme, line))
        elif p.accept("KEYWORD", "LET"):
            name = p.expect("IDENT").text
            p.expect("=")
            expr = p.expression(p.ra_expr)
            check_symbols(expr, line)
            statements.append(LetStmt(name, expr, line))
            defined.add(name)
        elif p.accept("KEYWORD", "EVAL"):
            expr = p.expression(p.ra_expr)
            check_symbols(expr, line)
            statements.append(EvalStmt(expr, line))
        elif p.accept("KEYWORD", "EVALPTC"):
            expr = p.expression(p.ptc_expr)
            check_symbols(expr, line)
            statements.append(EvalPtcStmt(expr, line))
        elif p.accept("KEYWORD", "COMPILE"):
            expr = p.expression(p.ptc_expr)
            check_symbols(expr, line)
            statements.append(CompileStmt(expr, line))
        elif p.accept("KEYWORD", "SAVE"):
            name = p.expect("IDENT").text
            if name not in defined:
                raise ParseError(f"cannot save undefined table {name!r}", line, tok.col)
            p.expect_kw("TO")
            path = p.expect("STRING").text
            statements.append(SaveStmt(name, path, line))
        else:
            raise ParseError(f"expected a statement, found {tok.text or tok.kind!r}",
                             tok.line, tok.col)
        if not p.at("EOF"):
            p.expect("NEWLINE")
            p.skip_newlines()
    return statements
