"""Concrete syntax: a tokenizer, and one loop each for types and terms.

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
use; later uses may be bare.  A parsed term is canonical: the term loop names
each binder as it enters its scope, so all binders are distinct from each
other and from every free name.  No function here calls itself, so input
nests as deep as memory allows; only a break's scrutinee is typed by
syntax.annotated_type, which recurses.

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
    Tensor, Term, TypeExpr, Var, _freshen, annotated_type, canonicalize,
    ks_types,
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

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

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
# what an entry of the term loop's stack waits for: the next atom of an
# application, a parenthesized term's ')', a pair's first or second
# component, a let's or break's scrutinee, or a binder's body
_APP, _PAREN, _FIRST, _SECOND, _LET, _BREAK, _BODY = range(7)
# the token that ends the term each entry waits for, and its name in errors
_CLOSERS = {_PAREN: ("RPAREN", "')'"), _FIRST: ("COMMA", "','"),
            _SECOND: ("RANGLE", "'>'"), _LET: ("in", "in"),
            _BREAK: ("as", "as")}


def _read_term(ts: TokenStream, used: set[str]
               ) -> tuple[Term, dict[str, TypeExpr], bool]:
    """The term at ts with its binders canonically named, its free names'
    types, and whether a free name turned up that a binder was given.

    One loop over the tokens, so a term of any depth parses: `stack` holds
    the constructs begun and not yet closed.  A binder is named when its
    scope is entered, in the renaming walk's order (see
    syntax._canonical_names): a lambda's at its '.', a let's or break's
    after its scrutinee.  _freshen names it, with one cursor, away from
    `used`, which grows by the free names read and the names given.
    `scope` maps a source name in scope to its binder's name and type, and
    the entry that the binder hides, which leaving the scope restores.

    The names equal the renaming walk's unless a free name read late
    equals a name given earlier, which the flag reports: run again with
    `used` seeded by the free names, the loop is the renaming walk."""
    tokens, pos = ts.tokens, ts.pos
    stack: list[tuple] = []
    push, pop = stack.append, stack.pop
    scope: dict[str, tuple] = {}
    free_types: dict[str, TypeExpr] = {}
    cursor: dict[str, str] = {}
    clash = False

    def enter(names, types):
        """The names given to a let's or break's two binders, names, of
        types, whose scope starts.  A lambda's one binder is named the same
        way inline: a call per lambda made lambda-heavy text parse about 10%
        slower than the recursive descent did."""
        given = _freshen(names, used, cursor)[0]
        used.update(given)
        (x, y), (gx, gy) = names, given
        scope[x] = (gx, types[0], scope.get(x))
        scope[y] = (gy, types[1], scope.get(y))
        return given

    while True:
        # a term starts at pos, or an application's next atom when an _APP
        # entry is on top
        tok = tokens[pos]
        kind = tok[0]
        ty = None
        if kind == "IDENT":
            pos += 1
        elif kind == "LPAREN":
            if tokens[pos + 1][0] != "IDENT" or tokens[pos + 2][0] != "COLON":
                push((_PAREN,))
                pos += 1
                continue
            ts.pos = pos + 3
            ty = parse_type_stream(ts)
            ts.expect("RPAREN", "')'")
            tok = tokens[pos + 1]
            pos = ts.pos
        elif kind == "LANGLE":
            push((_FIRST,))
            pos += 1
            continue
        elif kind == "LAMBDA":
            ts.pos = pos + 1
            name = ts.expect("IDENT", "binder name")[1]
            ts.expect("COLON", "':'")
            ty = parse_type_stream(ts)
            ts.expect("DOT", "'.'")
            pos = ts.pos
            given = name if name not in used else _freshen(
                (name,), used, cursor)[0][0]
            used.add(given)
            scope[name] = (given, ty, scope.get(name))
            push((_BODY, Lam, (given, ty), (name,)))
            continue
        elif kind == "let":
            ts.pos = pos + 1
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
            pos = ts.pos
            push((_LET, (x, y), (xt, yt)))
            continue
        elif kind == "break":
            push((_BREAK, tokens[pos + 1][2]))  # where the scrutinee starts
            pos += 1
            continue
        else:
            raise ts.error(tok, f"unexpected {tok[1]!r}",
                           ["identifier", "'('", "'<'"])
        # a variable: bound at its binder's type, free at its first
        # ascription's
        name = tok[1]
        entry = scope.get(name)
        if entry is not None:
            if ty is None:
                ty = entry[1]
            elif ty != entry[1]:
                raise ts.error(tok, f"variable {name!r} ascribed a type"
                                    " differing from its binder")
            name = entry[0]
        else:
            known = free_types.get(name)
            if ty is None:
                if known is None:
                    raise ts.error(
                        tok, f"free variable {name!r} needs a type ascription"
                        f" at first use, e.g. ({name} : A)")
                ty = known
            elif known is None:
                free_types[name] = ty
                clash = clash or name in used
                used.add(name)
            elif ty != known:
                raise ts.error(tok, f"free variable {name!r} ascribed two"
                                    " different types")
        t = Var(name, ty)
        atom = True
        while True:  # t is read: close what it completes
            if atom:
                if stack and stack[-1][0] == _APP:
                    t = App(pop()[1], t)
                if tokens[pos][0] in _ATOM_START:
                    push((_APP, t))
                    break
            if not stack:
                ts.pos = pos
                return t, free_types, clash
            entry = pop()
            kind = entry[0]
            if kind == _BODY:  # leaving the binders' scope
                _, cls, fields, names = entry
                for n in names:
                    outer = scope[n][2]
                    if outer is None:
                        del scope[n]
                    else:
                        scope[n] = outer
                t = cls(*fields, t)
                atom = False
                continue
            closer, what = _CLOSERS[kind]
            tok = tokens[pos]
            if tok[0] != closer:
                raise ts.error(tok, f"unexpected {tok[1]!r}", [what])
            pos += 1
            if kind == _PAREN:
                atom = True
                continue
            if kind == _SECOND:
                t = Pair(entry[1], t)
                atom = True
                continue
            if kind == _FIRST:
                push((_SECOND, t))
                break
            if kind == _LET:
                _, names, types = entry
                x, y = enter(names, types)
                push((_BODY, Let, (x, types[0], y, types[1], t), names))
                break
            # _BREAK: its scrutinee and 'as' are read
            ts.pos = pos
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
                scrut_type = annotated_type(t)
            except IllFormedTermError as exc:
                line, column = _line_column(ts.text, entry[1])
                raise IllFormedTermError(
                    f"line {line}, column {column}: {exc}") from None
            names = (p, f)
            given = enter(names, ks_types(scrut_type, residue))
            push((_BODY, Break, (t, *given, residue), names))
            pos = ts.pos
            break


def parse_term(text: str) -> Term:
    """The term text spells, with its binders canonically named (see
    syntax.canonicalize) as they are read.

    When a free name read late equals a name given to an earlier binder,
    the text is read once more with every free name known from the start.
    canonicalize then costs one _scan of the result, and its memo answers
    check(parse_term(text)) without renaming again."""
    ts = TokenStream(text)
    t, free_types, clash = ts.parse(lambda ts: _read_term(ts, set()))
    if clash:
        ts.pos = 0
        t = ts.parse(lambda ts: _read_term(ts, set(free_types)))[0]
    return canonicalize(t)
