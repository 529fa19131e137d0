"""The recursive-descent term parser that breakcalc.parser's loop replaced,
kept as the reference the loop is compared with.

It reads a term with its source names, three Python frames per nesting
level, so it raises RecursionError a few hundred levels deep.  parse_term
gives the same term as ``canonicalize(raw_parse(text))``, and the same
ParseError or IllFormedTermError on text that does not parse.
"""

from __future__ import annotations

from breakcalc.parser import (
    TokenStream, _ATOM_START, _line_column, parse_type_stream,
)
from breakcalc.syntax import (
    App, Break, IllFormedTermError, Lam, Let, Pair, Term, TypeExpr, Var,
    annotated_type, canonicalize, ks_types,
)


class TermParser:
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
            if (ts.peek()[0] == "IDENT"
                    and ts.tokens[ts.pos + 1][0] == "COLON"):
                name_tok = ts.expect("IDENT")
                ts.expect("COLON")
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


def raw_parse(text: str) -> Term:
    """The term text spells, with its source names."""
    return TokenStream(text).parse(lambda ts: TermParser(ts).term({}))


def reference_parse_term(text: str) -> Term:
    """parse_term as two walks: the descent, then canonical renaming."""
    return canonicalize(raw_parse(text))
