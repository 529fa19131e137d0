"""Redex discovery, single-step conversion, the termination measure, and
normalization with traces.

Rules are matched in preorder (leftmost-outermost first).  The experimental
rule pushing a break past a let in its scrutinee destroys confluence and is
off unless explicitly enabled.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .syntax import (
    App, Arrow, Break, FreeNames, Lam, Let, Pair, Term, Var, alpha_key,
    annotated_type, avoid_capture, binders, children, free_names, fresh_name,
    rebuild_spine, spine_at, subterm_at, substitute, subterms, term_size,
    type_size,
)


class RuleName(str, enum.Enum):
    BETA = "beta"
    L_CONV = "l-conv"
    B_CONV = "b-conv"
    AP_L_CONV = "ap-l-conv"
    L_L_CONV = "l-l-conv"
    AP_B_CONV = "ap-b-conv"
    L_B_CONV = "l-b-conv"
    B_L_CONV = "b-l-conv"  # experimental; breaks Church-Rosser

    def __str__(self) -> str:  # trace format uses the bare rule name
        return self.value


STANDARD_RULES = frozenset({RuleName.BETA, RuleName.L_CONV, RuleName.B_CONV})
PERMUTING_RULES = frozenset({RuleName.AP_L_CONV, RuleName.L_L_CONV,
                             RuleName.AP_B_CONV, RuleName.L_B_CONV})


class Redex(NamedTuple):
    position: tuple[int, ...]
    rule: RuleName


class InvalidRedex(Exception):
    pass


class StepBudgetExceeded(Exception):
    def __init__(self, max_steps: int):
        self.max_steps = max_steps
        super().__init__(f"no normal form within {max_steps} steps")


class Measure(NamedTuple):
    """Lexicographic termination measure.

    Components: total term size, then the summed sizes of let/break first
    arguments, then the summed type sizes of let/break second arguments.  The
    last component may grow when lets commute, so it must rank last.
    """

    size: int
    first_arg_load: int
    second_arg_type_load: int


class TraceStep(NamedTuple):
    index: int
    rule: RuleName
    position: tuple[int, ...]
    before: Term
    after: Term


# ---------------------------------------------------------------------------
# Redex discovery
# ---------------------------------------------------------------------------

def _node_rules(t: Term, experimental: bool,
                fn=free_names) -> list[RuleName]:
    """The rules matching at the root of t; fn gives free names of subterms."""
    rules: list[RuleName] = []
    match t:
        case App(fun=Lam()):
            rules.append(RuleName.BETA)
        case App(fun=Let()):
            rules.append(RuleName.AP_L_CONV)
        case App(fun=Break()):
            rules.append(RuleName.AP_B_CONV)
        case Let(scrutinee=Pair()):
            rules.append(RuleName.L_CONV)
        case Let(scrutinee=Let() as inner, body=body):
            if fn(body).isdisjoint(binders(inner)):
                rules.append(RuleName.L_L_CONV)
        case Let(scrutinee=Break() as inner, body=body):
            if fn(body).isdisjoint(binders(inner)):
                rules.append(RuleName.L_B_CONV)
        case Break(scrutinee=scrut, phi=phi, f=f, body=body):
            fns = fn(body)
            if phi not in fns or f not in fns or not fn(scrut):
                rules.append(RuleName.B_CONV)
            if experimental and isinstance(scrut, Let):
                rules.append(RuleName.B_L_CONV)
    return rules


def find_redexes(t: Term, experimental: bool = False) -> list[Redex]:
    """All redexes in preorder; at one position, standard rules come first."""
    return [Redex(path, rule) for path, sub in subterms(t)
            for rule in _node_rules(sub, experimental)]


# ---------------------------------------------------------------------------
# Single steps
# ---------------------------------------------------------------------------

def apply_step(t: Term, r: Redex) -> Term:
    """Contract the redex r in t; InvalidRedex if it does not match."""
    try:
        spine = spine_at(t, r.position)
    except IndexError as exc:
        raise InvalidRedex(str(exc)) from None
    if r.rule not in _node_rules(spine[-1], experimental=True):
        raise InvalidRedex(f"{r.rule} does not match at {list(r.position)}")
    new = _contract(spine[-1], r.rule, FreeNames())
    return rebuild_spine(spine, r.position, new)[0]


def _contract(t: Term, rule: RuleName, fn: FreeNames) -> Term:
    match rule:
        case RuleName.BETA:
            assert isinstance(t, App) and isinstance(t.fun, Lam)
            return substitute(t.fun.body, [(t.fun.binder, t.arg)], fn)
        case RuleName.L_CONV:
            assert isinstance(t, Let) and isinstance(t.scrutinee, Pair)
            return substitute(t.body, [(t.x, t.scrutinee.first),
                                       (t.y, t.scrutinee.second)], fn)
        case RuleName.B_CONV:
            assert isinstance(t, Break)
            scrut = t.scrutinee
            a = annotated_type(scrut)
            b = t.residue
            avoid = fn(scrut) | fn(t.body) | {t.phi, t.f}
            p = fresh_name("p", avoid)
            z = fresh_name("z", avoid | {p})
            k_term = Lam(p, Arrow(a, b), App(Var(p, Arrow(a, b)), scrut))
            s_term = Lam(z, b, scrut)
            return substitute(t.body, [(t.phi, k_term), (t.f, s_term)], fn)
        case RuleName.AP_L_CONV:
            assert isinstance(t, App) and isinstance(t.fun, Let)
            inner = avoid_capture(t.fun, fn(t.arg), fn)
            return Let(inner.x, inner.x_type, inner.y, inner.y_type,
                       inner.scrutinee, App(inner.body, t.arg))
        case RuleName.AP_B_CONV:
            assert isinstance(t, App) and isinstance(t.fun, Break)
            inner = avoid_capture(t.fun, fn(t.arg), fn)
            return Break(inner.scrutinee, inner.phi, inner.f, inner.residue,
                         App(inner.body, t.arg))
        case RuleName.L_L_CONV:
            assert isinstance(t, Let) and isinstance(t.scrutinee, Let)
            inner = t.scrutinee
            return Let(inner.x, inner.x_type, inner.y, inner.y_type,
                       inner.scrutinee,
                       Let(t.x, t.x_type, t.y, t.y_type, inner.body, t.body))
        case RuleName.L_B_CONV:
            assert isinstance(t, Let) and isinstance(t.scrutinee, Break)
            inner = t.scrutinee
            return Break(inner.scrutinee, inner.phi, inner.f, inner.residue,
                         Let(t.x, t.x_type, t.y, t.y_type, inner.body, t.body))
        case RuleName.B_L_CONV:
            assert isinstance(t, Break) and isinstance(t.scrutinee, Let)
            inner = avoid_capture(t.scrutinee, fn(t.body), fn)
            return Let(inner.x, inner.x_type, inner.y, inner.y_type,
                       inner.scrutinee,
                       Break(inner.body, t.phi, t.f, t.residue, t.body))
    raise InvalidRedex(f"unknown rule {rule}")


def is_silent(t: Term, r: Redex) -> bool:
    """True iff the contraction substitutes for variables absent from the body.

    Only defined for the pair and break contractions; permuting rules raise.
    """
    if r.rule not in (RuleName.L_CONV, RuleName.B_CONV):
        raise ValueError(f"silence undefined for {r.rule}")
    node = subterm_at(t, r.position)
    return free_names(node.body).isdisjoint(binders(node))


# ---------------------------------------------------------------------------
# Measure
# ---------------------------------------------------------------------------

def measure(t: Term) -> Measure:
    """Measure that strictly decreases on silent and permuting steps."""
    first_load = type_load = 0
    for _, sub in subterms(t):
        if isinstance(sub, (Let, Break)):
            first_load += term_size(sub.scrutinee)
            type_load += type_size(annotated_type(sub.body))
    return Measure(term_size(t), first_load, type_load)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def normalize(t: Term, max_steps: int = 100_000, strategy: str = "first",
              experimental: bool = False) -> tuple[Term, list[TraceStep]]:
    """Reduce to normal form, recording every step.

    `strategy` picks the first (leftmost-outermost) or last redex of the
    preorder listing; by Church-Rosser both reach the same normal form unless
    the experimental rule is enabled.  StepBudgetExceeded if a redex is left
    after max_steps steps; ValueError if max_steps is negative.

    The first strategy does not list the redexes.  Whether a node is a redex
    depends on its subtree alone, and a step at position p rebuilds only p
    and its ancestors.  So of the nodes before p in preorder, only the
    ancestors of p can have become redexes: the others are the objects they
    were before the step, when none of them was a redex.  The next search
    therefore checks the ancestors root first, then goes on in preorder from
    p (its subtree, then the right siblings along the path) and stops at the
    first redex.  Free names are memoised by node for the whole run and
    forgotten for the nodes a step replaces.
    """
    if strategy not in ("first", "last"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, not {max_steps}")
    fn = FreeNames()

    def next_redex(spine: list, path: tuple[int, ...]) -> Redex | None:
        if strategy == "first":
            return _first_redex(spine, path, experimental, fn)
        redexes = find_redexes(spine[0], experimental)
        return redexes[-1] if redexes else None

    steps: list[TraceStep] = []
    r = next_redex([t], ())
    for index in range(max_steps):
        if r is None:
            return t, steps
        old = spine_at(t, r.position)
        spine = rebuild_spine(old, r.position,
                              _contract(old[-1], r.rule, fn))
        fn.forget(old)
        fn.forget(children(old[-1]))
        steps.append(TraceStep(index, r.rule, r.position, t, spine[0]))
        t = spine[0]
        r = next_redex(spine, r.position)
    if r is None:
        return t, steps
    raise StepBudgetExceeded(max_steps)


def _first_redex(spine: list, path: tuple[int, ...], experimental: bool,
                 fn: FreeNames) -> Redex | None:
    """The first redex in preorder of spine[0], where spine holds the nodes
    from the root to path and no node before path in preorder, other than
    its ancestors, is a redex."""
    for d in range(len(path)):
        rules = _node_rules(spine[d], experimental, fn)
        if rules:
            return Redex(path[:d], rules[0])
    # path's subtree, then the right siblings of path and of each ancestor
    roots = [(path, spine[-1])]
    for d in range(len(path) - 1, -1, -1):
        kids = children(spine[d])
        roots.extend((path[:d] + (j,), kids[j])
                     for j in range(path[d] + 1, len(kids)))
    for prefix, root in roots:
        for rel, sub in subterms(root):
            rules = _node_rules(sub, experimental, fn)
            if rules:
                return Redex(prefix + rel, rules[0])
    return None


def reducts_one_step(t: Term, experimental: bool = False) -> list[Term]:
    """All one-step reducts, deduplicated up to alpha equivalence."""
    seen: dict[str, Term] = {}
    for r in find_redexes(t, experimental):
        u = apply_step(t, r)
        seen.setdefault(alpha_key(u), u)
    return list(seen.values())


def format_trace(steps: list[TraceStep]) -> str:
    """One line per step: index, rule, dot-separated path, resulting term.

    Consecutive terms share every node off the contracted spine, so the
    text of the shared subterms is printed once.
    """
    from .printer import TermPrinter

    printer = TermPrinter()
    lines = []
    for s in steps:
        spine = spine_at(s.before, s.position)
        printer.forget(spine)
        printer.forget(children(spine[-1]))
        path = ".".join(str(i) for i in s.position) if s.position else "root"
        lines.append(f"{s.index} {s.rule} {path} {printer(s.after)}")
    return "\n".join(lines)
