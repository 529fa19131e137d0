"""Pretty-printers producing minimal-parenthesis text the parser accepts.

Free variable occurrences are printed with their type ascription ``(x : A)``
so the output is self-contained; bound occurrences are bare.  A variable of
the lambda-pair calculus carries no type and always prints bare.
"""

from __future__ import annotations

# print_type is re-exported
from .syntax import SPECS, FreeNames, NodeMemo, Term, print_type


def print_term(t: Term) -> str:
    return _PlainPrinter()(t)


#: The lambda-pair terms print through the same printer; projections print
#: as p0(...) and p1(...).
print_lterm = print_term


# a node with these tags reaches as far right as it can, so it takes
# parentheses in function position, in argument position and as scrutinee
_OPEN = frozenset({"l", "L", "B"})
_OPEN_OR_APP = _OPEN | {"a"}
_NONE: frozenset[str] = frozenset()


class TermPrinter:
    """print_term for a run of terms that share subterms, as a trace does.

    `write` is the one builder, memo or none, for Term and LTerm alike: it
    appends a term's text to a list as pieces, which the caller joins
    once.  It dispatches on the tag of the node's constructor spec, reads
    its fields by index and calls itself on the children, so a nesting
    level costs one Python frame, and 900 levels print under the default
    recursion limit.  The parentheses a position needs are written by the
    parent.

    A subterm's text depends only on which of its free names are bound
    around it, so `memo`, a NodeMemo, maps the node's identity to the node,
    those names and its text's span (list, start, end) in the list it was
    first written to.  When a later write reuses the node, the span becomes
    one string, which is one piece from then on, so a text is copied when
    it is first reused and when its list is joined, not once per enclosing
    node.  Call `forget` with the nodes that have left the terms still to
    be printed (the spine a step rebuilt and its redex's children, as
    format_trace does), so that the memo and the free names memo hold
    about one term's entries.  A span keeps its list alive.
    """

    __slots__ = ("memo", "names")

    def __init__(self) -> None:
        self.memo: NodeMemo | None = NodeMemo()
        self.names = FreeNames()

    def __call__(self, t: Term) -> str:
        out: list[str] = []
        self.write(t, _NONE, out)
        return "".join(out)

    def forget(self, nodes) -> None:
        self.memo.forget(nodes)
        self.names.forget(nodes)

    def write(self, t: Term, bound: frozenset[str], out: list[str]) -> None:
        """Append t's text, without outer parentheses, to out, when bound
        is bound around it."""
        try:
            sp = SPECS[type(t)]
        except KeyError:
            raise TypeError(f"not a term: {t!r}") from None
        tag = sp.tag
        if tag == "v":  # cheaper to build than to memoise
            name = t[0]
            if name in bound or not sp.annot_slots:
                out.append(name)
            else:
                out.append(f"({name} : {print_type(t[1])})")
            return
        memo = self.memo
        if memo is not None:
            if bound:
                bound = bound.intersection(self.names(t))
            key = id(t)
            hit = memo.get(key)
            if hit is not None and hit[1] == bound:
                text = hit[2]
                if type(text) is not str:  # a span, reused for the first time
                    text = "".join(text[hit[3]:hit[4]])
                    memo[key] = (t, bound, text)
                out.append(text)
                return
            start = len(out)
        if tag == "a":
            fun, arg = t[0], t[1]
            fo = SPECS[type(fun)].tag in _OPEN
            ao = SPECS[type(arg)].tag in _OPEN_OR_APP
            if fo:
                out.append("(")
            self.write(fun, bound, out)
            out.append((") (" if ao else ") ") if fo else " (" if ao else " ")
            self.write(arg, bound, out)
            if ao:
                out.append(")")
        elif tag == "l":
            b = t[0]
            out.append(f"\\{b}:{print_type(t[1])}. ")
            self.write(t[2], bound | {b}, out)
        elif tag == "p":
            out.append("<")
            self.write(t[0], bound, out)
            out.append(", ")
            self.write(t[1], bound, out)
            out.append(">")
        elif tag == "L":
            # scrutinees would reparse unparenthesized, but parens keep the
            # binding structure readable
            x, y, scrut = t[0], t[2], t[4]
            so = SPECS[type(scrut)].tag in _OPEN
            out.append(f"let <{x}:{print_type(t[1])}, {y}:{print_type(t[3])}>"
                       + (" = (" if so else " = "))
            self.write(scrut, bound, out)
            out.append(") in " if so else " in ")
            self.write(t[5], bound | {x, y}, out)
        elif tag == "B":
            scrut, phi, f = t[0], t[1], t[2]
            so = SPECS[type(scrut)].tag in _OPEN
            out.append("break (" if so else "break ")
            self.write(scrut, bound, out)
            out.append(f"{')' if so else ''} as <{phi}, {f}> @ "
                       f"{print_type(t[3])} in ")
            self.write(t[4], bound | {phi, f}, out)
        elif tag == "p0" or tag == "p1":
            out.append(f"{tag}(")
            self.write(t[0], bound, out)
            out.append(")")
        if memo is not None:
            memo[key] = (t, bound, out, start, len(out))


class _PlainPrinter(TermPrinter):
    """The same text without a memo, for a term printed once."""

    __slots__ = ()

    def __init__(self) -> None:
        self.memo = self.names = None
