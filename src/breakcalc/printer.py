"""Pretty-printers producing minimal-parenthesis text the parser accepts.

Free variable occurrences are printed with their type ascription ``(x : A)``
so the output is self-contained; bound occurrences are bare.
"""

from __future__ import annotations

from .syntax import (  # print_type is re-exported
    _ARG_L, _ARG_R, _TOP, App, Break, FreeNames, Lam, Let, Pair, Term, Var,
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
    around it, so the text is memoised by the node's identity and those
    names; the user of a text adds the parentheses its position needs.  Call
    `forget` with the nodes that have left the terms still to be printed (a
    step's replaced spine), so that the memo holds about one term's text.
    """

    __slots__ = ("memo", "names")

    def __init__(self) -> None:
        self.memo: dict[int, tuple[Term, frozenset[str], str]] = {}
        self.names = FreeNames()

    def __call__(self, t: Term) -> str:
        return self.text(t, frozenset())

    def forget(self, nodes) -> None:
        pop = self.memo.pop
        for t in nodes:
            pop(id(t), None)
        self.names.forget(nodes)

    def text(self, t: Term, bound: frozenset[str]) -> str:
        """t's text, without outer parentheses, when bound is bound around it."""
        if bound:
            bound = bound.intersection(self.names(t))
        hit = self.memo.get(id(t))
        if hit is not None and hit[1] == bound:
            return hit[2]
        s = self._build(t, bound)
        self.memo[id(t)] = (t, bound, s)
        return s

    def _part(self, t: Term, bound: frozenset[str], parens: tuple) -> str:
        s = self.text(t, bound)
        return f"({s})" if isinstance(t, parens) else s

    def _build(self, t: Term, bound: frozenset[str]) -> str:
        match t:
            case Var(name, ty):
                return name if name in bound else f"({name} : {print_type(ty)})"
            case Lam(b, bt, body):
                return f"\\{b}:{print_type(bt)}. {self.text(body, bound | {b})}"
            case App(fun, arg):
                return (f"{self._part(fun, bound, _OPEN)} "
                        f"{self._part(arg, bound, _OPEN_OR_APP)}")
            case Pair(first, second):
                return (f"<{self.text(first, bound)}, "
                        f"{self.text(second, bound)}>")
            case Let(x, xt, y, yt, scrut, body):
                # scrutinees would reparse unparenthesized, but parens keep
                # the binding structure readable
                return (f"let <{x}:{print_type(xt)}, {y}:{print_type(yt)}> = "
                        f"{self._part(scrut, bound, _OPEN)} in "
                        f"{self.text(body, bound | {x, y})}")
            case Break(scrut, phi, f, residue, body):
                return (f"break {self._part(scrut, bound, _OPEN)} as "
                        f"<{phi}, {f}> @ {print_type(residue)} in "
                        f"{self.text(body, bound | {phi, f})}")
        raise TypeError(f"not a term: {t!r}")


class _PlainPrinter(TermPrinter):
    """The same text without a memo, for a term printed once."""

    __slots__ = ()

    def __init__(self) -> None:
        pass

    text = TermPrinter._build


def print_lterm(e: LTerm) -> str:
    """Display form for lambda-with-pairing terms; projections print as p0/p1."""
    return _plterm(e, _TOP)


def _plterm(e: LTerm, ctx: int) -> str:
    match e:
        case LVar(name):
            return name
        case LLam(b, bt, body):
            s = f"\\{b}:{print_type(bt)}. {_plterm(body, _TOP)}"
            return f"({s})" if ctx > _TOP else s
        case LApp(fun, arg):
            s = f"{_plterm(fun, _ARG_L)} {_plterm(arg, _ARG_R)}"
            return f"({s})" if ctx >= _ARG_R else s
        case LPair(first, second):
            return f"<{_plterm(first, _TOP)}, {_plterm(second, _TOP)}>"
        case LProj0(arg):
            return f"p0({_plterm(arg, _TOP)})"
        case LProj1(arg):
            return f"p1({_plterm(arg, _TOP)})"
    raise TypeError(f"not a lambda-pair term: {e!r}")
