"""Concrete syntax: tokenizer, a loop for types, recursive descent for terms.

Grammar summary::

    type   := tensor ('->' type)?            -- '->' right associative
    tensor := tatom ('*' tatom)*              -- '*' left associative, tighter
    tatom  := IDENT | '(' type ')'

    term   := '\\' IDENT ':' type '.' term
            | 'let' '<' IDENT ':' type ',' IDENT ':' type '>' '=' term 'in' term
            | 'break' term 'as' '<' IDENT ',' IDENT '>' '@' type 'in' term
            | atom+                           -- application, left associative
    atom   := IDENT | '(' IDENT ':' type ')' | '(' term ')'
            | '<' term ',' term '>'

Identifiers are ``[A-Za-z][A-Za-z0-9_']*``; ``--`` starts a line comment.  A
free variable must be written with a type ascription ``(x : A)`` at its first
use; later uses may be bare.  Parsed terms are canonically renamed, so all
binders are distinct from each other and from every free name.

A token is a plain tuple ``(kind, value, offset)``: the kind is ``"IDENT"``,
``"EOF"``, a punctuation name such as ``"LPAREN"``, or the keyword itself, and
the offset is where the value starts in the text.  Tokens carry no line or
column: those are counted from the offset only when a ``ParseError`` is
raised.  Lines and columns count from 1, one column per character, and only
``\\n`` ends a line.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, TypeVar

from .syntax import (
    KEYWORDS, App, Arrow, Atom, Break, IllFormedTermError, Lam, Let, Pair,
    Tensor, Term, TypeExpr, Var, annotated_type, canonicalize, ks_types,
)

_T = TypeVar("_T")


class SourceSpan(NamedTuple):
    start: int
    end: int
    line: int
    column: int


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan,
                 expected: list[str] | None = None):
        self.span = span
        self.expected = expected or []
        loc = f"line {span.line}, column {span.column}"
        if self.expected:
            message = f"{message} (expected one of: {', '.join(self.expected)})"
        super().__init__(f"{loc}: {message}")


_PUNCT = {
    "->": "ARROW", "|-": "TURNSTILE",
    "*": "STAR", "(": "LPAREN", ")": "RPAREN", "<": "LANGLE", ">": "RANGLE",
    ",": "COMMA", ":": "COLON", ".": "DOT", "\\": "LAMBDA", "@": "AT",
    "=": "EQUALS", "[": "LBRACK", "]": "RBRACK", "{": "LBRACE", "}": "RBRACE",
}
_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
_IDENT_START = frozenset(_LETTERS)
_IDENT_CHARS = frozenset(_LETTERS + "0123456789_'")


def _line_column(text: str, offset: int) -> tuple[int, int]:
    """The line and column of offset in text, both counted from 1."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _error(text: str, tok: tuple[str, str, int], message: str,
           expected: list[str] | None = None) -> ParseError:
    """The ParseError at token tok of text, with its line and column."""
    start = tok[2]
    span = SourceSpan(start, start + len(tok[1]), *_line_column(text, start))
    return ParseError(message, span, expected)


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """The (kind, value, offset) tokens of text, ending with EOF at len(text)."""
    tokens = []
    append = tokens.append
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in _PUNCT:
            append((_PUNCT[c], c, i))
            i += 1
        elif c in _IDENT_START:
            j = i + 1
            while j < n and text[j] in _IDENT_CHARS:
                j += 1
            word = text[i:j]
            append((word if word in KEYWORDS else "IDENT", word, i))
            i = j
        elif text.startswith("--", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif (two := text[i:i + 2]) in _PUNCT:  # no 1-char punct starts one
            append((_PUNCT[two], two, i))
            i += 2
        else:
            raise _error(text, ("", c, i), f"unexpected character {c!r}")
    append(("EOF", "", n))
    return tokens


class TokenStream:
    """The tokens of text, read in order; the parser never reads past EOF."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self, ahead: int = 0) -> tuple[str, str, int]:
        return self.tokens[self.pos + ahead]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, kind: str) -> bool:
        """Whether the next token is of this kind; if so, it is read."""
        if self.tokens[self.pos][0] == kind:
            self.pos += 1
            return True
        return False

    def expect(self, kind: str, what: str | None = None) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise self.error(tok, f"unexpected {tok[1]!r}", [what or kind])
        self.pos += 1
        return tok

    def error(self, tok: tuple[str, str, int], message: str,
              expected: list[str] | None = None) -> ParseError:
        return _error(self.text, tok, message, expected)

    def parse(self, rule: Callable[[TokenStream], _T]) -> _T:
        """rule(self), which must read the whole input."""
        result = rule(self)
        tok = self.tokens[self.pos]
        if tok[0] != "EOF":
            raise self.error(tok, f"trailing input {tok[1]!r}", ["end of input"])
        return result


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

def parse_type_stream(ts: TokenStream) -> TypeExpr:
    """The type at ts, read in one loop, so a type of any depth parses:
    `stack` keeps, per open parenthesis, the `arrows` and `left` of the level
    around it.  The loop keeps its own index into ts.tokens, and stores it
    back in ts.pos."""
    tokens, pos = ts.tokens, ts.pos
    stack: list[tuple[list[TypeExpr], TypeExpr | None]] = []
    arrows: list[TypeExpr] = []  # this level's tensors before each '->'
    left = None                  # this level's tensor so far
    while True:
        tok = tokens[pos]
        pos += 1
        if tok[0] == "LPAREN":
            stack.append((arrows, left))
            arrows, left = [], None
            continue
        if tok[0] != "IDENT":
            raise ts.error(tok, f"unexpected {tok[1]!r} in type",
                           ["identifier", "'('"])
        ty = Atom(tok[1])
        while True:  # ty is a factor of this level's tensor
            left = ty if left is None else Tensor(left, ty)
            kind = tokens[pos][0]
            if kind == "STAR":
                pos += 1
                break
            if kind == "ARROW":
                pos += 1
                arrows.append(left)
                left = None
                break
            ty = left  # '->' is right associative
            while arrows:
                ty = Arrow(arrows.pop(), ty)
            ts.pos = pos
            if not stack:
                return ty
            ts.expect("RPAREN", "')'")
            pos = ts.pos
            arrows, left = stack.pop()


def parse_type(text: str) -> TypeExpr:
    return TokenStream(text).parse(parse_type_stream)


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

_ATOM_START = frozenset({"IDENT", "LPAREN", "LANGLE"})


class _TermParser:
    def __init__(self, ts: TokenStream):
        self.ts = ts
        self.free_types: dict[str, TypeExpr] = {}

    def term(self, bound: dict[str, TypeExpr]) -> Term:
        ts = self.ts
        if ts.accept("LAMBDA"):
            name = ts.expect("IDENT", "binder name")[1]
            ts.expect("COLON", "':'")
            ty = parse_type_stream(ts)
            ts.expect("DOT", "'.'")
            body = self.term(bound | {name: ty})
            return Lam(name, ty, body)
        if ts.accept("let"):
            ts.expect("LANGLE", "'<'")
            x = ts.expect("IDENT", "binder name")[1]
            ts.expect("COLON", "':'")
            xt = parse_type_stream(ts)
            ts.expect("COMMA", "','")
            ytok = ts.expect("IDENT", "binder name")
            y = ytok[1]
            if y == x:
                raise ts.error(ytok, f"duplicate binder {y!r} in let")
            ts.expect("COLON", "':'")
            yt = parse_type_stream(ts)
            ts.expect("RANGLE", "'>'")
            ts.expect("EQUALS", "'='")
            scrut = self.term(bound)
            ts.expect("in")
            body = self.term(bound | {x: xt, y: yt})
            return Let(x, xt, y, yt, scrut, body)
        if ts.accept("break"):
            scrut_offset = ts.peek()[2]
            scrut = self.term(bound)
            ts.expect("as")
            ts.expect("LANGLE", "'<'")
            p = ts.expect("IDENT", "binder name")[1]
            ts.expect("COMMA", "','")
            ftok = ts.expect("IDENT", "binder name")
            f = ftok[1]
            if f == p:
                raise ts.error(ftok, f"duplicate binder {f!r} in break")
            ts.expect("RANGLE", "'>'")
            ts.expect("AT", "'@'")
            residue = parse_type_stream(ts)
            ts.expect("in")
            try:
                scrut_type = annotated_type(scrut)
            except IllFormedTermError as exc:
                line, column = _line_column(ts.text, scrut_offset)
                raise IllFormedTermError(
                    f"line {line}, column {column}: {exc}") from None
            k, s = ks_types(scrut_type, residue)
            body = self.term(bound | {p: k, f: s})
            return Break(scrut, p, f, residue, body)
        return self.appterm(bound)

    def appterm(self, bound: dict[str, TypeExpr]) -> Term:
        t = self.atom(bound)
        while self.ts.peek()[0] in _ATOM_START:
            t = App(t, self.atom(bound))
        return t

    def atom(self, bound: dict[str, TypeExpr]) -> Term:
        ts = self.ts
        tok = ts.peek()
        if ts.accept("IDENT"):
            return self._var(tok, bound)
        if ts.accept("LPAREN"):
            if ts.peek()[0] == "IDENT" and ts.peek(1)[0] == "COLON":
                name_tok = ts.next()
                ts.next()  # colon
                ty = parse_type_stream(ts)
                ts.expect("RPAREN", "')'")
                return self._var(name_tok, bound, ty)
            t = self.term(bound)
            ts.expect("RPAREN", "')'")
            return t
        if ts.accept("LANGLE"):
            first = self.term(bound)
            ts.expect("COMMA", "','")
            second = self.term(bound)
            ts.expect("RANGLE", "'>'")
            return Pair(first, second)
        raise ts.error(tok, f"unexpected {tok[1]!r}",
                       ["identifier", "'('", "'<'"])

    def _var(self, tok: tuple[str, str, int], bound: dict[str, TypeExpr],
             ty: TypeExpr | None = None) -> Var:
        """The variable tok names, ascribed ty unless ty is None: a bound
        one at its binder's type, a free one at its first ascription's."""
        name = tok[1]
        free = name not in bound
        known = self.free_types.get(name) if free else bound[name]
        if ty is None:
            if known is None:
                raise self.ts.error(
                    tok, f"free variable {name!r} needs a type ascription at"
                    f" first use, e.g. ({name} : A)")
            ty = known
        elif known is not None and known != ty:
            raise self.ts.error(tok, (
                f"free variable {name!r} ascribed two different types" if free
                else f"variable {name!r} ascribed a type differing from its"
                " binder"))
        elif free:
            self.free_types[name] = ty
        return Var(name, ty)


def parse_term(text: str) -> Term:
    return canonicalize(
        TokenStream(text).parse(lambda ts: _TermParser(ts).term({})))
