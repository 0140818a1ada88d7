"""Text front end: one tokenizer and recursive-descent parsers for the
algebra grammar, the calculus grammar, and the batch script language.

Every parse is total: it returns an AST or raises ParseError with the
offending line and column.  Relation symbols parse with unresolved schemes
(CSV headers are only known at run time); tuple variables resolve against
explicit VAR declarations, so calculus expressions parse fully typed.

`tokenize` scans with one regular expression, one match per token and
the blanks before it; blanks that end the text match the empty end, so
no run of them is read twice.  `str.isdigit`, `str.isalpha` and
`str.isalnum` decide which characters make numbers and names, so the
expression is compiled with ASCII classes.  A text beyond ASCII that
fails to scan with those is scanned again with the classes widened by
its own characters beyond ASCII that the predicates accept.  A comment
does not advance the column, and an escaped newline inside a string
starts no line.

The parser pads the token list with one more EOF, so reading a token is
one index; a keyword picks its production from a table.  The parser
notes the name of every relation symbol it makes, so a script checks
define-before-use without walking the expression; only an expression
read from more than `MAX_DEPTH` tokens is folded to measure its depth.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Mapping, NamedTuple

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


class Token(NamedTuple):
    kind: str  # IDENT, KEYWORD, NUMBER, STRING, NEWLINE, EOF, or the punct text
    text: str
    line: int
    col: int


def _token_pattern(digit: str, alpha: str, alnum: str) -> re.Pattern:
    """The tokenizer's expression, given regex classes matching one
    character that `str.isdigit`, `str.isalpha` or `_`, and `str.isalnum`
    or `_` accept."""
    return re.compile(
        r"[ \t\r]*(?:"
        rf"(?P<WORD>{alpha}{alnum}*)"
        r"|(?P<PUNCT>->|=>|[()\[\]{},;:.*&=])"
        r"|(?P<NEWLINE>\n)"
        rf"|(?P<NUMBER>-?{digit}(?:{digit}|[.eE]|(?<=[eE])[+-])*)"
        r'|(?P<STRING>"(?:[^"\\]|\\.)*")'
        r"|(?P<COMMENT>#[^\n]*)"
        r"|(?P<ERROR>[^ \t\r])"
        r"|\Z)",  # blanks that end the text
        re.DOTALL,
    )


_ASCII_TOKENS = _token_pattern("[0-9]", "[A-Za-z_]", "[A-Za-z0-9_]")


@functools.lru_cache(maxsize=64)
def _unicode_tokens(extra: str) -> re.Pattern:
    """The expression whose classes also hold the characters of `extra`
    that `str.isdigit`, `str.isalpha` and `str.isalnum` accept."""
    def accepted(predicate) -> str:
        return re.escape("".join(filter(predicate, extra)))

    return _token_pattern(f"[0-9{accepted(str.isdigit)}]", f"[A-Za-z_{accepted(str.isalpha)}]",
                          f"[A-Za-z0-9_{accepted(str.isalnum)}]")


_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t"}
_OPENERS, _CLOSERS = frozenset("([{"), frozenset(")]}")


def tokenize(text: str) -> list[Token]:
    """The tokens of `text`, ending in EOF; ParseError at the first
    character that starts no token, at an unterminated string, or at a
    bracket nested deeper than `MAX_DEPTH`."""
    try:
        return _scan(text, _ASCII_TOKENS)
    except ParseError:
        if text.isascii():
            raise
    extra = "".join(sorted(c for c in set(text) if not c.isascii()))
    return _scan(text, _unicode_tokens(extra))


def _scan(text: str, pattern: re.Pattern) -> list[Token]:
    """The tokens of `text` read with `pattern`."""
    toks: list[Token] = []
    append, new = toks.append, tuple.__new__  # new(Token, fields) skips Token's __new__
    line, bol = 1, 0  # bol: offset of the first character of the line
    depth = 0
    for m in pattern.finditer(text):
        kind = m.lastgroup
        if kind is None:  # the blanks that end the text
            break
        word = m[kind]
        start = m.end() - len(word)
        col = start - bol + 1
        if kind == "WORD":
            append(new(Token, ("KEYWORD" if word in KEYWORDS else "IDENT", word, line, col)))
        elif kind == "PUNCT":
            if word in _OPENERS:
                depth += 1
                if depth > MAX_DEPTH:
                    raise ParseError(f"brackets nested deeper than {MAX_DEPTH} levels",
                                     line, col)
            elif word in _CLOSERS and depth:
                depth -= 1
            append(new(Token, (word, word, line, col)))
        elif kind == "NEWLINE":
            if depth == 0 and toks and toks[-1].kind != "NEWLINE":
                append(new(Token, ("NEWLINE", word, line, col)))
            line += 1
            bol = start + 1
        elif kind == "NUMBER":
            append(new(Token, ("NUMBER", word, line, col)))
        elif kind == "STRING":
            body = word[1:-1]
            plain = body
            if "\\" in body:
                plain = _ESCAPE.sub("  ", body)  # same length, no escaped newline
                body = _ESCAPE.sub(lambda e: _ESCAPES.get(e[1], e[1]), body)
            append(new(Token, ("STRING", body, line, col)))
            breaks = plain.count("\n")
            if breaks:
                line += breaks
                bol = start + 2 + plain.rindex("\n")
        elif kind == "COMMENT":
            bol += len(word)  # a comment does not advance the column
        else:
            if word == '"':
                raise ParseError("unterminated string literal", line, col)
            raise ParseError(f"unexpected character {word!r}", line, col)
    append(new(Token, ("EOF", "", line, len(text) - bol + 1)))
    return toks


class _Parser:
    def __init__(self, tokens: list[Token], var_schemes: Mapping[str, Scheme] | None = None):
        self.toks = tokens + tokens[-1:]  # one more EOF: the last `next` may step past it
        self.pos = 0
        self.vars = dict(var_schemes or {})
        self.symbols: list[str] = []  # the name of every RelSym made, in order
        self.defined: set[str] = set()  # table names a script has bound so far

    # -- machinery --------------------------------------------------------

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.toks[self.pos]
        return tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        tok = self.toks[self.pos]
        if tok.kind == kind and (text is None or tok.text == text):
            self.pos += 1
            return tok
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {tok.text or tok.kind!r}",
                             tok.line, tok.col)
        self.pos += 1
        return tok

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
        start = self.pos
        tok = self.toks[start]
        expr = parse()
        # every node owns at least one token of its own, so an expression
        # read from at most MAX_DEPTH tokens is no deeper than that
        if self.pos - start > MAX_DEPTH and _depth(expr) > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels",
                             tok.line, tok.col)
        return expr

    # -- relational algebra -------------------------------------------------

    def ra_expr(self):
        left = self.ra_primary()
        toks = self.toks
        while True:
            tok = toks[self.pos]
            node = tok.kind == "KEYWORD" and _RA_BINARY.get(tok.text)
            if not node:
                return left
            self.pos += 1
            left = node(left, self.ra_primary())

    def ra_primary(self):
        tok = self.toks[self.pos]
        if tok.kind == "IDENT":
            self.pos += 1
            self.symbols.append(tok.text)
            return ra.RelSym(tok.text)
        rule = _RA_PRIMARY.get(tok.text if tok.kind == "KEYWORD" else tok.kind)
        if rule is None:
            raise ParseError(f"expected an algebra expression, found {tok.text or tok.kind!r}",
                             tok.line, tok.col)
        self.pos += 1
        return rule(self)

    # each production below starts after its first token; one that
    # `_RA_PRIMARY` shares among keywords builds the node `_node` names

    def ra_group(self):
        e = self.ra_expr()
        self.expect(")")
        return e

    def dee(self):
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

    def singleton(self):
        attr = self.expect("IDENT").text
        self.expect(":")
        value = self.value_literal()
        self.expect("]")
        return ra.Singleton(attr, value)

    def project(self):
        self.expect("[")
        scheme = frozenset() if self.at("]") else self.attr_list()
        self.expect("]")
        self.expect("(")
        child = self.ra_expr()
        self.expect(")")
        return ra.Projection(scheme, child)

    def unary(self):
        node = self._node()
        return node(self._parenthesized_ra())

    def residuum(self):
        self.expect("(")
        left = self.ra_expr()
        self.expect("->")
        right = self.ra_expr()
        self.expect_kw("OVER")
        rng = self.ra_expr()
        self.expect(")")
        return ra.ResiduumRange(left, right, rng)

    def division(self):
        self.expect("(")
        dividend = self.ra_expr()
        self.expect_kw("BY")
        divisor = self.ra_expr()
        self.expect_kw("OVER")
        rng = self.ra_expr()
        self.expect(")")
        return ra.DivRanged(dividend, divisor, rng)

    def mediated(self):
        node = self._node()
        a, b = self._pair()
        self.expect_kw("MED")
        med = self.ra_expr()
        self.expect(")")
        return node(a, b, med)

    def two_mediators(self):
        node = self._node()
        a, b = self._pair()
        self.expect_kw("MED")
        m1 = self.ra_expr()
        self.expect(",")
        m2 = self.ra_expr()
        self.expect(")")
        return node(a, b, m1, m2)

    def universe(self):
        node = self._node()
        a, b = self._pair()
        self.expect_kw("UNIV")
        u = self.ra_expr()
        self.expect(")")
        return node(a, b, u)

    def binary(self):
        node = self._node()
        self.expect("(")
        a = self.ra_expr()
        self.expect(",")
        b = self.ra_expr()
        self.expect(")")
        return node(a, b)

    def eadom(self):
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

    def _node(self):
        """The node class named by the keyword just read."""
        return _RA_NODE[self.toks[self.pos - 1].text]

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
        save, made = self.pos, len(self.symbols)
        try:
            expr = self.ra_primary()
            self.expect("(")
            names = [] if self.at(")") else self._name_list()
            self.expect(")")
        except ParseError:
            self.pos = save
            del self.symbols[made:]
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

    # -- script statements ----------------------------------------------------
    # each starts after its keyword `tok`

    def defined_expression(self, parse, line: int):
        """One top-level expression whose relation symbols are all defined."""
        self.symbols.clear()
        expr = self.expression(parse)
        undefined = set(self.symbols).difference(self.defined)
        if undefined:
            raise ParseError(f"relation symbol {min(undefined)!r} used before definition",
                             line, 1)
        return expr

    def load(self, tok):
        name = self.expect("IDENT").text
        self.expect_kw("FROM")
        path = self.expect("STRING").text
        types = []
        if self.accept("KEYWORD", "SCHEME"):
            while True:
                attr = self.expect("IDENT").text
                self.expect(":")
                types.append((attr, self.expect("IDENT").text))
                if not self.accept(","):
                    break
        self.defined.add(name)
        return LoadStmt(name, path, tuple(types), tok.line)

    def var(self, tok):
        name = self.expect("IDENT").text
        self.expect(":")
        self.expect("{")
        scheme = frozenset() if self.at("}") else self.attr_list()
        self.expect("}")
        prev = self.vars.get(name)
        if prev is not None and prev != scheme:
            raise ParseError(f"tuple variable {name!r} redeclared with a different scheme",
                             tok.line, tok.col)
        self.vars[name] = scheme
        return VarStmt(name, scheme, tok.line)

    def let(self, tok):
        name = self.expect("IDENT").text
        self.expect("=")
        expr = self.defined_expression(self.ra_expr, tok.line)
        self.defined.add(name)
        return LetStmt(name, expr, tok.line)

    def eval_stmt(self, tok):
        return EvalStmt(self.defined_expression(self.ra_expr, tok.line), tok.line)

    def evalptc(self, tok):
        return EvalPtcStmt(self.defined_expression(self.ptc_expr, tok.line), tok.line)

    def compile_stmt(self, tok):
        return CompileStmt(self.defined_expression(self.ptc_expr, tok.line), tok.line)

    def save(self, tok):
        name = self.expect("IDENT").text
        if name not in self.defined:
            raise ParseError(f"cannot save undefined table {name!r}", tok.line, tok.col)
        self.expect_kw("TO")
        path = self.expect("STRING").text
        return SaveStmt(name, path, tok.line)


#: first token of an algebra primary other than a name (the keyword text,
#: or the punctuation) → its production
_RA_PRIMARY = {
    "(": _Parser.ra_group, "[": _Parser.singleton, "DEE": _Parser.dee,
    "PROJECT": _Parser.project, "RES": _Parser.residuum, "DIV": _Parser.division,
    "EADOM": _Parser.eadom, "NABLA": _Parser.unary, "DELTA": _Parser.unary,
    "GSDO": _Parser.mediated, "GSD": _Parser.mediated,
    "GGDO": _Parser.two_mediators, "GDDO": _Parser.two_mediators,
    "GCODD": _Parser.universe, "GTODD": _Parser.universe,
    "SEMIJOIN": _Parser.binary, "GDIFF": _Parser.binary, "SEMIDIFF": _Parser.binary,
}

#: keyword of a production that `_RA_PRIMARY` shares → the node it builds
_RA_NODE = {
    "NABLA": ra.Nabla, "DELTA": ra.Delta, "GSDO": ra.GSDO, "GSD": ra.GSD,
    "GGDO": ra.GGDO, "GDDO": ra.GDDO, "GCODD": ra.GCodd, "GTODD": ra.GTodd,
    "SEMIJOIN": ra.Semijoin, "GDIFF": ra.GradedDifference, "SEMIDIFF": ra.Semidifference,
}

#: infix algebra keyword → node; all bind alike and associate left
_RA_BINARY = {"UNION": ra.Union, "ISECT": ra.Intersection, "JOIN": ra.NaturalJoin}


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

#: statement keyword → its production
_STATEMENTS = {
    "LOAD": _Parser.load, "VAR": _Parser.var, "LET": _Parser.let,
    "EVAL": _Parser.eval_stmt, "EVALPTC": _Parser.evalptc,
    "COMPILE": _Parser.compile_stmt, "SAVE": _Parser.save,
}


def parse_script(text: str) -> list[Statement]:
    """Parse a batch script; enforces define-before-use for table names and
    tuple variables (schemes of loaded tables stay unresolved until run)."""
    p = _Parser(tokenize(text))
    statements: list[Statement] = []
    p.skip_newlines()
    while not p.at("EOF"):
        tok = p.peek()
        statement = _STATEMENTS.get(tok.text) if tok.kind == "KEYWORD" else None
        if statement is None:
            raise ParseError(f"expected a statement, found {tok.text or tok.kind!r}",
                             tok.line, tok.col)
        p.pos += 1
        statements.append(statement(p, tok))
        if not p.at("EOF"):
            p.expect("NEWLINE")
            p.skip_newlines()
    return statements
