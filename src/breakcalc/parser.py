"""Concrete syntax: tokenizer and recursive-descent parsers for types and terms.

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
"""

from __future__ import annotations

from typing import NamedTuple

from .syntax import (
    App, Arrow, Atom, Break, Lam, Let, Pair, Tensor, Term, TypeExpr, Var,
    annotated_type, canonicalize, ks_types,
)


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


KEYWORDS = frozenset({"let", "in", "break", "as"})

_PUNCT = {
    "->": "ARROW", "|-": "TURNSTILE", "--": "COMMENT",
    "*": "STAR", "(": "LPAREN", ")": "RPAREN", "<": "LANGLE", ">": "RANGLE",
    ",": "COMMA", ":": "COLON", ".": "DOT", "\\": "LAMBDA", "@": "AT",
    "=": "EQUALS", "[": "LBRACK", "]": "RBRACK", "{": "LBRACE", "}": "RBRACE",
}


class Token(NamedTuple):
    kind: str
    value: str
    span: SourceSpan


def _is_ident_start(c: str) -> bool:
    return c.isalpha() and c.isascii()


def _is_ident_char(c: str) -> bool:
    return (c.isalnum() and c.isascii()) or c in "_'"


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        start, sline, scol = i, line, col
        two = text[i:i + 2]
        if two == "--":
            while i < n and text[i] != "\n":
                i += 1
            col += i - start
            continue
        if two in _PUNCT:
            span = SourceSpan(start, i + 2, sline, scol)
            tokens.append(Token(_PUNCT[two], two, span))
            i += 2
            col += 2
            continue
        if c in _PUNCT:
            span = SourceSpan(start, i + 1, sline, scol)
            tokens.append(Token(_PUNCT[c], c, span))
            i += 1
            col += 1
            continue
        if _is_ident_start(c):
            j = i
            while j < n and _is_ident_char(text[j]):
                j += 1
            word = text[i:j]
            span = SourceSpan(start, j, sline, scol)
            kind = "KEYWORD" if word in KEYWORDS else "IDENT"
            tokens.append(Token(kind, word, span))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}",
                         SourceSpan(start, i + 1, sline, scol))
    tokens.append(Token("EOF", "", SourceSpan(n, n, line, col)))
    return tokens


class TokenStream:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"unexpected {tok.value!r}", tok.span,
                             [what or kind])
        return self.next()

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "KEYWORD" or tok.value != word:
            raise ParseError(f"unexpected {tok.value!r}", tok.span, [word])
        return self.next()


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

def parse_type_stream(ts: TokenStream) -> TypeExpr:
    left = _parse_tensor(ts)
    if ts.peek().kind == "ARROW":
        ts.next()
        return Arrow(left, parse_type_stream(ts))
    return left


def _parse_tensor(ts: TokenStream) -> TypeExpr:
    left = _parse_type_atom(ts)
    while ts.peek().kind == "STAR":
        ts.next()
        left = Tensor(left, _parse_type_atom(ts))
    return left


def _parse_type_atom(ts: TokenStream) -> TypeExpr:
    tok = ts.peek()
    if tok.kind == "IDENT":
        ts.next()
        return Atom(tok.value)
    if tok.kind == "LPAREN":
        ts.next()
        ty = parse_type_stream(ts)
        ts.expect("RPAREN", "')'")
        return ty
    raise ParseError(f"unexpected {tok.value!r} in type", tok.span,
                     ["identifier", "'('"])


def parse_type(text: str) -> TypeExpr:
    ts = TokenStream(tokenize(text))
    ty = parse_type_stream(ts)
    tok = ts.peek()
    if tok.kind != "EOF":
        raise ParseError(f"trailing input {tok.value!r}", tok.span, ["end of input"])
    return ty


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
        tok = ts.peek()
        if tok.kind == "LAMBDA":
            ts.next()
            name = ts.expect("IDENT", "binder name").value
            ts.expect("COLON", "':'")
            ty = parse_type_stream(ts)
            ts.expect("DOT", "'.'")
            body = self.term(bound | {name: ty})
            return Lam(name, ty, body)
        if tok.kind == "KEYWORD" and tok.value == "let":
            ts.next()
            ts.expect("LANGLE", "'<'")
            xtok = ts.expect("IDENT", "binder name")
            ts.expect("COLON", "':'")
            xt = parse_type_stream(ts)
            ts.expect("COMMA", "','")
            ytok = ts.expect("IDENT", "binder name")
            if ytok.value == xtok.value:
                raise ParseError(f"duplicate binder {ytok.value!r} in let",
                                 ytok.span)
            ts.expect("COLON", "':'")
            yt = parse_type_stream(ts)
            ts.expect("RANGLE", "'>'")
            ts.expect("EQUALS", "'='")
            scrut = self.term(bound)
            ts.expect_keyword("in")
            body = self.term(bound | {xtok.value: xt, ytok.value: yt})
            return Let(xtok.value, xt, ytok.value, yt, scrut, body)
        if tok.kind == "KEYWORD" and tok.value == "break":
            ts.next()
            scrut = self.term(bound)
            ts.expect_keyword("as")
            ts.expect("LANGLE", "'<'")
            ptok = ts.expect("IDENT", "binder name")
            ts.expect("COMMA", "','")
            ftok = ts.expect("IDENT", "binder name")
            if ftok.value == ptok.value:
                raise ParseError(f"duplicate binder {ftok.value!r} in break",
                                 ftok.span)
            ts.expect("RANGLE", "'>'")
            ts.expect("AT", "'@'")
            residue = parse_type_stream(ts)
            ts.expect_keyword("in")
            k, s = ks_types(annotated_type(scrut), residue)
            body = self.term(bound | {ptok.value: k, ftok.value: s})
            return Break(scrut, ptok.value, ftok.value, residue, body)
        return self.appterm(bound)

    def appterm(self, bound: dict[str, TypeExpr]) -> Term:
        t = self.atom(bound)
        while self.ts.peek().kind in _ATOM_START:
            t = App(t, self.atom(bound))
        return t

    def atom(self, bound: dict[str, TypeExpr]) -> Term:
        ts = self.ts
        tok = ts.peek()
        if tok.kind == "IDENT":
            ts.next()
            return self._var(tok, bound)
        if tok.kind == "LPAREN":
            if ts.peek(1).kind == "IDENT" and ts.peek(2).kind == "COLON":
                ts.next()
                name_tok = ts.next()
                ts.next()  # colon
                ty = parse_type_stream(ts)
                ts.expect("RPAREN", "')'")
                return self._ascribed_var(name_tok, ty, bound)
            ts.next()
            t = self.term(bound)
            ts.expect("RPAREN", "')'")
            return t
        if tok.kind == "LANGLE":
            ts.next()
            first = self.term(bound)
            ts.expect("COMMA", "','")
            second = self.term(bound)
            ts.expect("RANGLE", "'>'")
            return Pair(first, second)
        raise ParseError(f"unexpected {tok.value!r}", tok.span,
                         ["identifier", "'('", "'<'"])

    def _var(self, tok: Token, bound: dict[str, TypeExpr]) -> Var:
        name = tok.value
        if name in bound:
            return Var(name, bound[name])
        if name in self.free_types:
            return Var(name, self.free_types[name])
        raise ParseError(
            f"free variable {name!r} needs a type ascription at first use,"
            f" e.g. ({name} : A)", tok.span)

    def _ascribed_var(self, tok: Token, ty: TypeExpr,
                      bound: dict[str, TypeExpr]) -> Var:
        name = tok.value
        if name in bound:
            if bound[name] != ty:
                raise ParseError(
                    f"variable {name!r} ascribed a type differing from its"
                    " binder", tok.span)
            return Var(name, ty)
        known = self.free_types.get(name)
        if known is not None and known != ty:
            raise ParseError(
                f"free variable {name!r} ascribed two different types",
                tok.span)
        self.free_types[name] = ty
        return Var(name, ty)


def parse_term(text: str) -> Term:
    ts = TokenStream(tokenize(text))
    parser = _TermParser(ts)
    t = parser.term({})
    tok = ts.peek()
    if tok.kind != "EOF":
        raise ParseError(f"trailing input {tok.value!r}", tok.span,
                         ["end of input"])
    return canonicalize(t)
