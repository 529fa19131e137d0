"""Redex discovery, single-step conversion, the termination measure, and
normalization with traces.

Rules are matched in preorder (leftmost-outermost first).  The experimental
rule pushing a break past a let in its scrutinee destroys confluence and is
off unless explicitly enabled.
"""

from __future__ import annotations

import enum
import functools
from typing import NamedTuple

from .syntax import (
    App, Arrow, Break, FreeNames, Lam, Let, Pair, Term, Var, _rebuild,
    annotated_type, avoid_capture, binders, children, distinct_reducts,
    free_names, fresh_name, rebuild_spine, spine_at, subterm_at, substitute,
    subterms, term_size, type_size,
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
#: The permuting conversions by (outer class, inner class); b-l-conv, off
#: unless experimental, is (Break, Let).  All five are two schemata: an
#: argument (outer App) or an outer body (outer Let or Break) moves under
#: the binders of the inner let or break (see _contract).
_PERMUTING = {(App, Let): RuleName.AP_L_CONV, (App, Break): RuleName.AP_B_CONV,
              (Let, Let): RuleName.L_L_CONV, (Let, Break): RuleName.L_B_CONV}
PERMUTING_RULES = frozenset(_PERMUTING.values())


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

def _node_rules(t: Term, experimental: bool, fn) -> list[RuleName]:
    """The rules matching at the root of t; fn gives free names of subterms."""
    rules: list[RuleName] = []
    match t:
        case App(fun=Lam()):
            rules.append(RuleName.BETA)
        case App(fun=Let() | Break() as inner):
            rules.append(_PERMUTING[App, type(inner)])
        case Let(scrutinee=Pair()):
            rules.append(RuleName.L_CONV)
        case Let(scrutinee=Let() | Break() as inner, body=body):
            if fn(body).isdisjoint(binders(inner)):
                rules.append(_PERMUTING[Let, type(inner)])
        case Break(scrutinee=scrut, phi=phi, f=f, body=body):
            fns = fn(body)
            if phi not in fns or f not in fns or not fn(scrut):
                rules.append(RuleName.B_CONV)
            if experimental and isinstance(scrut, Let):
                rules.append(RuleName.B_L_CONV)
    return rules


def find_redexes(t: Term, experimental: bool = False) -> list[Redex]:
    """All redexes in preorder; at one position, standard rules come first."""
    fn = FreeNames()
    return [Redex(path, rule) for path, sub in subterms(t)
            for rule in _node_rules(sub, experimental, fn)]


# ---------------------------------------------------------------------------
# Single steps
# ---------------------------------------------------------------------------

def apply_step(t: Term, r: Redex) -> Term:
    """Contract the redex r in t; InvalidRedex if it does not match."""
    try:
        spine = spine_at(t, r.position)
    except IndexError as exc:
        raise InvalidRedex(str(exc)) from None
    fn = FreeNames()
    if r.rule not in _node_rules(spine[-1], True, fn):
        raise InvalidRedex(f"{r.rule} does not match at {list(r.position)}")
    new = _contract(spine[-1], r.rule, fn)
    return rebuild_spine(spine, r.position, new)[0]


def _contract(t: Term, rule: RuleName, fn: FreeNames) -> Term:
    """The contractum of t, a redex of rule as _node_rules matched it."""
    match rule:
        case RuleName.BETA:
            return substitute(t.fun.body, [(t.fun.binder, t.arg)], fn)
        case RuleName.L_CONV:
            return substitute(t.body, [(t.x, t.scrutinee.first),
                                       (t.y, t.scrutinee.second)], fn)
        case RuleName.B_CONV:
            scrut = t.scrutinee
            a = annotated_type(scrut)
            b = t.residue
            avoid = fn(scrut) | fn(t.body) | {t.phi, t.f}
            p = fresh_name("p", avoid)
            z = fresh_name("z", avoid | {p})
            k_term = Lam(p, Arrow(a, b), App(Var(p, Arrow(a, b)), scrut))
            s_term = Lam(z, b, scrut)
            return substitute(t.body, [(t.phi, k_term), (t.f, s_term)], fn)
        case RuleName.AP_L_CONV | RuleName.AP_B_CONV:
            # the argument moves under the binders of the let or break
            inner = avoid_capture(t.fun, fn(t.arg), fn)
            scrut, body = children(inner)
            return _rebuild(inner, (scrut, App(body, t.arg)))
        case RuleName.L_L_CONV | RuleName.L_B_CONV | RuleName.B_L_CONV:
            # t's body moves under the binders of its scrutinee; for
            # l-l-conv and l-b-conv the side condition leaves nothing to rename
            inner = avoid_capture(t.scrutinee, fn(t.body), fn)
            scrut, body = children(inner)
            return _rebuild(inner, (scrut, _rebuild(t, (body, t.body))))
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

    Neither strategy lists the redexes.  Whether a node is a redex depends
    on its subtree alone, and a step at position p rebuilds only p and its
    ancestors.  So of the nodes before p in preorder, only the ancestors of
    p can have become redexes: the others are the objects they were before
    the step, when none of them was a redex.  The first strategy's next
    search therefore checks the ancestors root first, then goes on in
    preorder from p (its subtree, then the right siblings along the path)
    and stops at the first redex.

    The last redex in a subtree depends on the subtree alone too, so the
    last strategy memoises it by node identity, beside the free names.  An
    entry holds its node, so it stays right for as long as it exists.  The
    first search makes an entry for every node.  After a step only the
    nodes it builds (the new spine and the contractum's new nodes) and the
    redex's children lack one, so the next search makes entries for those
    and reads the rest from the memo.  Both memos forget the nodes a step
    replaces, the spine and the redex's children, which only bounds their
    size.
    """
    if strategy not in ("first", "last"):
        raise ValueError(f"unknown strategy {strategy!r}")
    fn = FreeNames()
    pick = 0 if strategy == "first" else -1

    def rule_at(u: Term) -> RuleName | None:
        rules = _node_rules(u, experimental, fn)
        return rules[pick] if rules else None

    if strategy == "first":
        search = functools.partial(first_redex, rule_at=rule_at)
        memos = (fn,)
    else:
        search = LastRedex(rule_at)
        memos = (fn, search)
    steps = [TraceStep(index, r.rule, r.position, before, after)
             for index, (r, before, after) in enumerate(reduce_steps(
                 t, max_steps, search,
                 lambda node, rule: _contract(node, rule, fn), memos))]
    return (steps[-1].after if steps else t), steps


def reduce_steps(t, max_steps: int, search, contract, memos):
    """Contract the redexes that search picks until none is left, yielding
    (redex, before, after) per step.

    search(spine, path) gives the next redex of spine[0], where spine holds
    the nodes from the root to the last contracted position path, or None;
    contract(node, rule) gives the contractum of a redex; every memo in
    memos forgets the nodes a step replaces.  StepBudgetExceeded if a redex
    is left after max_steps steps; ValueError if max_steps is negative.
    """
    if max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, not {max_steps}")
    r = search([t], ())
    for _ in range(max_steps):
        if r is None:
            return
        old = spine_at(t, r.position)
        spine = rebuild_spine(old, r.position, contract(old[-1], r.rule))
        for memo in memos:
            memo.forget(old)
            memo.forget(children(old[-1]))
        yield r, t, spine[0]
        t = spine[0]
        r = search(spine, r.position)
    if r is not None:
        raise StepBudgetExceeded(max_steps)


def first_redex(spine: list, path: tuple[int, ...], rule_at) -> Redex | None:
    """The first redex in preorder of spine[0], where spine holds the nodes
    from the root to path and no node before path in preorder, other than
    its ancestors, is a redex.

    rule_at(node) is the rule to contract at node, or None if it is no
    redex.
    """
    for d in range(len(path)):
        rule = rule_at(spine[d])
        if rule:
            return Redex(path[:d], rule)
    # path's subtree, then the right siblings of path and of each ancestor
    roots = [(path, spine[-1])]
    for d in range(len(path) - 1, -1, -1):
        kids = children(spine[d])
        roots.extend((path[:d] + (j,), kids[j])
                     for j in range(path[d] + 1, len(kids)))
    for prefix, root in roots:
        for rel, sub in subterms(root):
            rule = rule_at(sub)
            if rule:
                return Redex(prefix + rel, rule)
    return None


class LastRedex:
    """The last redex in preorder of a term, memoised by node identity.

    rule_at(node) is the rule to contract at node, or None if it is no
    redex.  A node's entry is None when its subtree has no redex, else the
    index of the child holding the last redex, or -1 for the node itself,
    with the rule.  An entry holds its node, so an id is not reused while it
    is cached; `forget` drops entries of nodes that have left the term.
    """

    __slots__ = ("memo", "rule_at")

    def __init__(self, rule_at) -> None:
        self.memo: dict[int, tuple] = {}
        self.rule_at = rule_at

    def __call__(self, spine: list, path: tuple[int, ...]) -> Redex | None:
        t = spine[0]
        found = self._last(t)
        if found is None:
            return None
        position = []
        while found[0] >= 0:
            position.append(found[0])
            t = children(t)[found[0]]
            found = self._last(t)
        return Redex(tuple(position), found[1])

    def forget(self, nodes) -> None:
        pop = self.memo.pop
        for t in nodes:
            pop(id(t), None)

    def _last(self, t) -> tuple[int, RuleName] | None:
        """t's entry, made if missing.  A node's children are looked at
        from the right and a child without an entry gets one first; the
        first child holding a redex ends the look.  A loop, not recursion,
        so that any depth works."""
        memo = self.memo
        hit = memo.get(id(t))
        if hit is not None:
            return hit[1]
        kids = children(t)
        stack = [[t, kids, len(kids)]]  # node, children, children left
        while stack:
            frame = stack[-1]
            u, kids, i = frame
            while i:
                hit = memo.get(id(kids[i - 1]))
                if hit is None or hit[1] is not None:
                    break
                i -= 1
            frame[2] = i
            if i and hit is None:
                k = kids[i - 1]
                grandkids = children(k)
                stack.append([k, grandkids, len(grandkids)])
                continue
            if i:
                found = (i - 1, None)
            else:
                rule = self.rule_at(u)
                found = (-1, rule) if rule else None
            memo[id(u)] = (u, found)
            stack.pop()
        return memo[id(t)][1]


def reducts_one_step(t: Term, experimental: bool = False) -> list[Term]:
    """All one-step reducts, deduplicated up to alpha equivalence, in the
    order of their first redex in preorder.

    Each reduct's key is t's key with the contracted node's key spliced in
    at its position (see syntax.distinct_reducts).  That equals alpha_key
    of the reduct byte for byte, because a key is written node by node and
    each node's part depends only on the node and the levels of the names
    bound above it, which the step leaves unchanged.
    """
    fn = FreeNames()
    return distinct_reducts(t, find_redexes(t, experimental),
                            lambda node, rule: _contract(node, rule, fn))


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
