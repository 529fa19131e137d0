"""Pretty-printers producing minimal-parenthesis text the parser accepts.

Free variable occurrences are printed with their type ascription ``(x : A)``
so the output is self-contained; bound occurrences are bare.
"""

from __future__ import annotations

from .syntax import (  # print_type is re-exported
    _PRINTED, App, Break, FreeNames, Lam, Let, NodeMemo, Pair, Term, Var,
    print_type,
)
from .lambda_pair import LApp, LLam, LPair, LProj0, LProj1, LTerm, LVar


def print_term(t: Term) -> str:
    return _PlainPrinter().text(t, frozenset())


# a term of these classes reaches as far right as it can, so it takes
# parentheses in function position, in argument position and as scrutinee
_OPEN = (Lam, Let, Break)
_OPEN_OR_APP = (Lam, Let, Break, App)


class TermPrinter:
    """print_term for a run of terms that share subterms, as a trace does.

    A subterm's text depends only on which of its free names are bound
    around it, so `memo`, a NodeMemo, maps the node's identity to the node,
    those names and the text; the user of a text adds the parentheses its
    position needs.  Call `forget` with the nodes that have left the terms
    still to be printed (a step's replaced spine), so that the memo and the
    free names memo hold about one term's entries.

    `text` is the one builder, memo or none: it tests the node's class,
    reads its fields by index and calls itself on the children, so a
    nesting level costs one Python frame, and about 900 levels print under
    the default recursion limit.
    """

    __slots__ = ("memo", "names")

    def __init__(self) -> None:
        self.memo: NodeMemo | None = NodeMemo()
        self.names = FreeNames()

    def __call__(self, t: Term) -> str:
        return self.text(t, frozenset())

    def forget(self, nodes) -> None:
        self.memo.forget(nodes)
        self.names.forget(nodes)

    def text(self, t: Term, bound: frozenset[str]) -> str:
        """t's text, without outer parentheses, when bound is bound around it."""
        cls = type(t)
        if cls is Var:  # cheaper to build than to memoise
            name = t[0]
            return name if name in bound else f"({name} : {_PRINTED[t[1]]})"
        memo = self.memo
        if memo is not None:
            if bound:
                bound = bound.intersection(self.names(t))
            hit = memo.get(id(t))
            if hit is not None and hit[1] == bound:
                return hit[2]
        if cls is App:
            fun, arg = t[0], t[1]
            f, a = self.text(fun, bound), self.text(arg, bound)
            if isinstance(fun, _OPEN):
                f = f"({f})"
            s = f"{f} ({a})" if isinstance(arg, _OPEN_OR_APP) else f"{f} {a}"
        elif cls is Lam:
            b = t[0]
            s = f"\\{b}:{_PRINTED[t[1]]}. {self.text(t[2], bound | {b})}"
        elif cls is Pair:
            s = f"<{self.text(t[0], bound)}, {self.text(t[1], bound)}>"
        elif cls is Let:
            # scrutinees would reparse unparenthesized, but parens keep the
            # binding structure readable
            x, y, scrut = t[0], t[2], t[4]
            sc = self.text(scrut, bound)
            if isinstance(scrut, _OPEN):
                sc = f"({sc})"
            s = (f"let <{x}:{_PRINTED[t[1]]}, {y}:{_PRINTED[t[3]]}> = {sc} "
                 f"in {self.text(t[5], bound | {x, y})}")
        elif cls is Break:
            scrut, phi, f = t[0], t[1], t[2]
            sc = self.text(scrut, bound)
            if isinstance(scrut, _OPEN):
                sc = f"({sc})"
            s = (f"break {sc} as <{phi}, {f}> @ {_PRINTED[t[3]]} in "
                 f"{self.text(t[4], bound | {phi, f})}")
        else:
            raise TypeError(f"not a term: {t!r}")
        if memo is not None:
            memo[id(t)] = (t, bound, s)
        return s


class _PlainPrinter(TermPrinter):
    """The same text without a memo, for a term printed once."""

    __slots__ = ()

    def __init__(self) -> None:
        self.memo = self.names = None


def print_lterm(e: LTerm) -> str:
    """Display form for lambda-with-pairing terms; projections print as p0/p1.

    Parentheses go by node class, as in TermPrinter: a lambda takes them in
    function and argument position, an application in argument position."""
    match e:
        case LVar(name):
            return name
        case LLam(b, bt, body):
            return f"\\{b}:{print_type(bt)}. {print_lterm(body)}"
        case LApp(fun, arg):
            f, a = print_lterm(fun), print_lterm(arg)
            if isinstance(fun, LLam):
                f = f"({f})"
            if isinstance(arg, (LLam, LApp)):
                a = f"({a})"
            return f"{f} {a}"
        case LPair(first, second):
            return f"<{print_lterm(first)}, {print_lterm(second)}>"
        case LProj0(arg):
            return f"p0({print_lterm(arg)})"
        case LProj1(arg):
            return f"p1({print_lterm(arg)})"
    raise TypeError(f"not a lambda-pair term: {e!r}")
