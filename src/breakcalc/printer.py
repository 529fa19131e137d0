"""Pretty-printers producing minimal-parenthesis text the parser accepts.

Free variable occurrences are printed with their type ascription ``(x : A)``
so the output is self-contained; bound occurrences are bare.  A variable of
the lambda-pair calculus carries no type and always prints bare.
"""

from __future__ import annotations

# print_type is re-exported
from .syntax import SPECS, FreeNames, NodeMemo, Term, print_type


def print_term(t: Term) -> str:
    return _PlainPrinter().text(t, frozenset())


#: The lambda-pair terms print through the same printer; projections print
#: as p0(...) and p1(...).
print_lterm = print_term


# a node with these tags reaches as far right as it can, so it takes
# parentheses in function position, in argument position and as scrutinee
_OPEN = frozenset({"l", "L", "B"})
_OPEN_OR_APP = _OPEN | {"a"}


class TermPrinter:
    """print_term for a run of terms that share subterms, as a trace does.

    A subterm's text depends only on which of its free names are bound
    around it, so `memo`, a NodeMemo, maps the node's identity to the node,
    those names and the text; the user of a text adds the parentheses its
    position needs.  Call `forget` with the nodes that have left the terms
    still to be printed (the spine a step rebuilt and its redex's children,
    as format_trace does), so that the memo and the free names memo hold
    about one term's entries.

    `text` is the one builder, memo or none, for Term and LTerm alike: it
    dispatches on the tag of the node's constructor spec, with a branch for
    every tag in SPECS, reads its fields by index and calls itself on the
    children, so a nesting level costs one Python frame, and about 900
    levels print under the default recursion limit.
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
        try:
            sp = SPECS[type(t)]
        except KeyError:
            raise TypeError(f"not a term: {t!r}") from None
        tag = sp.tag
        if tag == "v":  # cheaper to build than to memoise
            name = t[0]
            if name in bound or not sp.annot_slots:
                return name
            return f"({name} : {print_type(t[1])})"
        memo = self.memo
        if memo is not None:
            if bound:
                bound = bound.intersection(self.names(t))
            hit = memo.get(id(t))
            if hit is not None and hit[1] == bound:
                return hit[2]
        if tag == "a":
            fun, arg = t[0], t[1]
            f, a = self.text(fun, bound), self.text(arg, bound)
            if SPECS[type(fun)].tag in _OPEN:
                f = f"({f})"
            if SPECS[type(arg)].tag in _OPEN_OR_APP:
                a = f"({a})"
            s = f"{f} {a}"
        elif tag == "l":
            b = t[0]
            s = f"\\{b}:{print_type(t[1])}. {self.text(t[2], bound | {b})}"
        elif tag == "p":
            s = f"<{self.text(t[0], bound)}, {self.text(t[1], bound)}>"
        elif tag == "L":
            # scrutinees would reparse unparenthesized, but parens keep the
            # binding structure readable
            x, y, scrut = t[0], t[2], t[4]
            sc = self.text(scrut, bound)
            if SPECS[type(scrut)].tag in _OPEN:
                sc = f"({sc})"
            s = (f"let <{x}:{print_type(t[1])}, {y}:{print_type(t[3])}> = "
                 f"{sc} in {self.text(t[5], bound | {x, y})}")
        elif tag == "B":
            scrut, phi, f = t[0], t[1], t[2]
            sc = self.text(scrut, bound)
            if SPECS[type(scrut)].tag in _OPEN:
                sc = f"({sc})"
            s = (f"break {sc} as <{phi}, {f}> @ {print_type(t[3])} in "
                 f"{self.text(t[4], bound | {phi, f})}")
        elif tag == "p0" or tag == "p1":
            s = f"{tag}({self.text(t[0], bound)})"
        if memo is not None:
            memo[id(t)] = (t, bound, s)
        return s


class _PlainPrinter(TermPrinter):
    """The same text without a memo, for a term printed once."""

    __slots__ = ()

    def __init__(self) -> None:
        self.memo = self.names = None
