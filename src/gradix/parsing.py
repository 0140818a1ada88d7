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
one index; a keyword picks its production from a table.  The algebra
operators are read as the printer writes them: each template of
`algebra._SYNTAX` gives an infix keyword or an `operator` production,
which expects the template's tokens and reads an expression at each `{}`.
The parser notes the name of every relation symbol it makes, so a script
checks define-before-use without walking the expression.  Only brackets
make the parser recurse, and `MAX_DEPTH` limits only them.
A calculus primary is tried as an atom before it is read as a group, but
a group whose matching closer no `(` follows cannot be an atom, and no
atom is tried where an algebra primary has failed to read, so nested
groups are read a bounded number of times.  A primary that can only be an
atom reports the atom reading's error.  Number literals must be finite.
"""

from __future__ import annotations

import functools
import math
import re
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

#: Deepest nesting of brackets inside brackets.  The parser recurses once
#: per bracket, so deeper brackets would exhaust Python's stack; the
#: tokenizer raises `ParseError` instead.  Nothing else limits depth: an
#: infix chain is read in a loop, and the AST of any depth is folded,
#: compared, hashed, printed and pickled without recursion.
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
        self.toks = tokens + tokens[-1:]  # one more EOF: a production may step past the first
        self.pos = 0
        self.vars = dict(var_schemes or {})
        self.symbols: list[str] = []  # the name of every RelSym made, in order
        self.defined: set[str] = set()  # table names a script has bound so far
        self.closers: dict | None = None  # token index of each opener → of its closer
        self.no_atom: dict[int, ParseError] = {}  # token index → why an atom there fails

    # -- machinery --------------------------------------------------------

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

    def skip_newlines(self):
        while self.accept("NEWLINE"):
            pass

    # -- shared pieces ----------------------------------------------------

    def names(self) -> list[Token]:
        names = [self.expect("IDENT")]
        while self.accept(","):
            names.append(self.expect("IDENT"))
        return names

    def scheme(self, closer: str) -> Scheme:
        """The attribute names before `closer`, none where it comes next."""
        return frozenset() if self.at(closer) else frozenset([t.text for t in self.names()])

    def value_literal(self, error: str = "expected a value literal"):
        tok = self.toks[self.pos]
        if tok.kind != "STRING" and tok.kind != "NUMBER":
            raise ParseError(error, tok.line, tok.col)
        self.pos += 1
        return tok.text if tok.kind == "STRING" else _number(tok)

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
        start = self.pos
        tok = self.toks[start]
        if tok.kind == "IDENT":
            self.pos += 1
            self.symbols.append(tok.text)
            return ra.RelSym(tok.text)
        rule = _RA_PRIMARY.get(tok.text if tok.kind == "KEYWORD" else tok.kind)
        if rule is None:
            raise ParseError(f"expected an algebra expression, found {tok.text or tok.kind!r}",
                             tok.line, tok.col)
        self.pos += 1
        try:
            return rule(self)
        except ParseError as exc:
            # an atom read from `start` fails alike, whatever reads it
            self.no_atom.setdefault(start, exc)
            raise

    # each production below starts after its first token

    def ra_group(self):
        e = self.ra_expr()
        self.expect(")")
        return e

    def dee(self):
        self.expect("(")
        degree = self.value_literal("DEE wants a rank literal")
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
        scheme = self.scheme("]")
        self.expect("]")
        self.expect("(")
        child = self.ra_expr()
        self.expect(")")
        return ra.Projection(scheme, child)

    def eadom(self):
        self.expect("[")
        scheme = self.scheme("]")
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

    def operator(self, node, steps: tuple):
        """An operator of `algebra._SYNTAX`, after its keyword: `steps` is
        what its template fixes, in order: the (kind, text) of each token,
        and None for each child, an algebra expression."""
        kids, toks = [], self.toks
        for step in steps:
            if step is None:
                kids.append(self.ra_expr())
                continue
            tok = toks[self.pos]
            if tok.kind != step[0] or tok.text != step[1]:
                self.expect(*step)  # raises
            self.pos += 1
        return node(*kids)

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
        tok = self.toks[self.pos]
        word = tok.text if tok.kind == "KEYWORD" else None
        if word == "ALL" or word == "ANY":
            self.pos += 1
            bound = self._resolve_vars(self.names())
            self.expect(".")
            return (pc.PtcInf if word == "ALL" else pc.PtcSup)(bound, self._ptc_group())
        # an atom is an algebra expression applied to variables; try that
        # shape first, where it may be one, falling back to the calculus
        # reading of NABLA/DELTA/(...); variable resolution happens only once
        # the shape is settled so undeclared-variable errors surface properly
        group = word == "NABLA" or word == "DELTA"
        start = self.pos
        failure = self.no_atom.get(start)
        if failure is None and self._may_be_atom(start + group):
            made = len(self.symbols)
            try:
                expr = self.ra_primary()
                self.expect("(")
                names = [] if self.at(")") else self.names()
                self.expect(")")
            except ParseError as exc:
                self.pos = start
                del self.symbols[made:]
                failure = exc
            else:
                return pc.Atom(expr, self._resolve_vars(names))
        if group:
            self.pos += 1
            return (pc.PtcNabla if word == "NABLA" else pc.PtcDelta)(self._ptc_group())
        if tok.kind != "(":
            # no calculus reading starts here, so the atom reading's error
            # tells why, unless that reading could not start either
            if (failure.line, failure.column) != (tok.line, tok.col):
                raise failure
            raise ParseError(f"expected a calculus expression, found {tok.text or tok.kind!r}",
                             tok.line, tok.col)
        return self._ptc_group()

    def _may_be_atom(self, opener: int) -> bool:
        """False where the token at `opener` is `(` and no `(` follows its
        matching closer, where any algebra primary opened there ends.  The
        `no_atom` memo does not replace this: it holds only readings that
        failed, and in a nest like `((P))` each level reads as algebra, so
        without this test every level would be read again below each level
        above it."""
        if self.toks[opener].kind != "(":
            return True
        if self.closers is None:  # built once per parse, when first needed
            self.closers, open_ = {}, []
            for i, t in enumerate(self.toks):
                if t.kind in _OPENERS:
                    open_.append(i)
                elif t.kind in _CLOSERS and open_:
                    self.closers[open_.pop()] = i
        closer = self.closers.get(opener)
        return closer is not None and self.toks[closer + 1].kind == "("

    def _ptc_group(self):
        self.expect("(")
        e = self.ptc_expr()
        self.expect(")")
        return e

    def _resolve_vars(self, names: list[Token]) -> frozenset:
        out = set()
        for tok in names:
            if tok.text not in self.vars:
                raise ParseError(f"undeclared tuple variable {tok.text!r}",
                                 tok.line, tok.col)
            out.add(pc.TupleVar(tok.text, self.vars[tok.text]))
        return frozenset(out)

    # -- script statements ----------------------------------------------------
    # each starts after its keyword `tok`

    def defined_expression(self, parse, line: int):
        """One top-level expression whose relation symbols are all defined."""
        self.symbols.clear()
        expr = parse()
        undefined = set(self.symbols).difference(self.defined)
        if undefined:
            raise ParseError(f"relation symbol {min(undefined)!r} used before definition",
                             line, 1)
        return expr

    def load(self, tok):
        name = self.expect("IDENT").text
        self.expect("KEYWORD", "FROM")
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
        scheme = self.scheme("}")
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
        self.expect("KEYWORD", "TO")
        path = self.expect("STRING").text
        return SaveStmt(name, path, tok.line)


#: first token of an algebra primary other than a name (the keyword text,
#: or the punctuation) → its production; `_read_syntax` adds the operators
_RA_PRIMARY = {
    "(": _Parser.ra_group, "[": _Parser.singleton, "DEE": _Parser.dee,
    "PROJECT": _Parser.project, "EADOM": _Parser.eadom,
}

#: infix algebra keyword → node; all bind alike and associate left
_RA_BINARY = {}


def _read_syntax():
    """Read each template of `algebra._SYNTAX` with `_scan` (a profiler counts
    the tokens of `tokenize`): one of the form `({} KEYWORD {})` puts its node
    in `_RA_BINARY`, any other an `operator` production in `_RA_PRIMARY`."""
    for node, template in ra._SYNTAX.items():
        steps = []
        for piece in template.split("{}"):
            steps += [(tok.kind, tok.text) for tok in _scan(piece, _ASCII_TOKENS)[:-1]]
            steps.append(None)
        steps.pop()  # the last piece is followed by no child
        if steps[0] == ("(", "("):
            _RA_BINARY[steps[2][1]] = node
        else:
            _RA_PRIMARY[steps[0][1]] = functools.partial(
                _Parser.operator, node=node, steps=tuple(steps[1:]))


_read_syntax()


def _number(tok: Token):
    """The int or float a NUMBER token spells; ParseError where it spells
    none, or a float too large to be finite."""
    text = tok.text
    try:
        if "." not in text and "e" not in text and "E" not in text:
            return int(text)
        value = float(text)
    except ValueError:
        raise ParseError(f"bad number {text!r}", tok.line, tok.col) from None
    if not math.isfinite(value):
        raise ParseError(f"number {text!r} is not finite", tok.line, tok.col)
    return value


def parse_ra(text: str, symbols: Mapping[str, Scheme] | None = None):
    """Parse one algebra expression; optionally resolve symbol schemes."""
    p = _Parser(tokenize(text))
    p.skip_newlines()
    expr = p.ra_expr()
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
    expr = p.ptc_expr()
    p.skip_newlines()
    p.expect("EOF")
    if symbols is not None:
        expr = ra.resolve_schemes(expr, symbols)
    return expr


# -- scripts ----------------------------------------------------------------


class LoadStmt(ra.Node):
    __slots__ = ("name", "path", "types", "line")  # types: ((attr, type_name), ...)


class VarStmt(ra.Node):
    __slots__ = ("name", "scheme", "line")


class LetStmt(ra.Node):
    __slots__ = ("name", "expr", "line")
    _kids = ("expr",)


class EvalStmt(ra.Node):
    __slots__ = ("expr", "line")
    _kids = ("expr",)


class EvalPtcStmt(ra.Node):
    __slots__ = ("expr", "line")
    _kids = ("expr",)


class CompileStmt(ra.Node):
    __slots__ = ("expr", "line")
    _kids = ("expr",)


class SaveStmt(ra.Node):
    __slots__ = ("name", "path", "line")


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
        tok = p.toks[p.pos]
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
