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

from .printer import TermPrinter
from .syntax import (
    App, Arrow, Break, FreeNames, Lam, Let, NodeMemo, Pair, Term, Var,
    _freshen, _rebuild, annotated_type, avoid_capture, binders, children,
    distinct_reducts, free_names, rebuild_spine, spine_at, subterm_at,
    substitute, subterms, term_size, type_size,
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

def _node_rules(t: Term, experimental: bool, fn) -> tuple[RuleName, ...]:
    """The rules matching at the root of t; fn gives free names of subterms.

    One test of t's class picks the case and its fields are read by index:
    an App is a beta or permuting redex by its function's class, a Let an
    l-conv or (under the free-name side condition) permuting redex by its
    scrutinee's, and a Break a b-conv redex, then a b-l-conv one.
    """
    cls = type(t)
    if cls is App:
        inner = type(t[0])
        if inner is Lam:
            return (RuleName.BETA,)
        rule = _PERMUTING.get((App, inner))
        return (rule,) if rule else ()
    if cls is Let:
        scrut = t[4]
        inner = type(scrut)
        if inner is Pair:
            return (RuleName.L_CONV,)
        rule = _PERMUTING.get((Let, inner))
        return (rule,) if rule and fn(t[5]).isdisjoint(binders(scrut)) else ()
    if cls is Break:
        scrut, fns = t[0], fn(t[4])
        rules = ((RuleName.B_CONV,) if t[1] not in fns or t[2] not in fns
                 or not fn(scrut) else ())
        if experimental and type(scrut) is Let:
            rules += (RuleName.B_L_CONV,)
        return rules
    return ()


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
            (p, z), _ = _freshen(("p", "z"), avoid)
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
    ancestors; every other node is the object it was before the step.  So
    the two searches are mirror-image walks from p with the spine they
    hold.  The first strategy had no redex before p in preorder, so its
    next search checks the ancestors of p root first, then walks on in
    preorder from p (down to a first child, else up to the next right
    sibling) and stops at the first redex (see first_redex).  The last
    strategy had none after p, so its next search walks p's subtree in
    reverse preorder (children right to left, then the node), then on from
    p: at each ancestor the children left of the path, right to left, then
    the ancestor itself; it stops at the last redex (see LastRedex).

    Whether a subtree holds a redex depends on the subtree alone too, so
    the last strategy keeps the subtrees it found normal by node identity,
    beside the free names, and its walk skips them.  An entry holds its
    node, so it stays right for as long as it exists.  Both memos forget
    the nodes a step replaces, the spine and the redex's children, which
    only bounds their size.

    Each search returns the spine down to the redex it finds, so a step
    costs its search, its contraction and the rebuilt spine, which gives
    the root that TraceStep.after holds.
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

    search(spine, path) gives the next redex of spine[0] with the nodes
    from spine[0] down to it, or None, where spine holds the nodes from the
    root to path, the position the last step contracted ([t] and () before
    the first step).  contract(node, rule) gives the contractum of a redex;
    every memo in memos forgets the nodes a step replaces.  Of the term, a
    step rebuilds only the found spine, over the contractum.
    StepBudgetExceeded if a redex is left after max_steps steps; ValueError
    if max_steps is negative.
    """
    if max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, not {max_steps}")
    found = search([t], ())
    for _ in range(max_steps):
        if found is None:
            return
        r, old = found
        spine = rebuild_spine(old, r.position, contract(old[-1], r.rule))
        for memo in memos:
            memo.forget(old)
            memo.forget(children(old[-1]))
        yield r, t, spine[0]
        t = spine[0]
        found = search(spine, r.position)
    if found is not None:
        raise StepBudgetExceeded(max_steps)


def first_redex(spine: list, path: tuple[int, ...],
                rule_at) -> tuple[Redex, list] | None:
    """The first redex in preorder of spine[0], with the nodes from spine[0]
    down to it, or None; spine holds the nodes from the root to path and no
    node before path in preorder, other than its ancestors, is a redex.

    rule_at(node) is the rule to contract at node, or None if it is no
    redex.  After the ancestors, root first, the search walks on in
    preorder from path, carrying the spine: down to a node's first child,
    else up to the next right sibling of the node or of its nearest
    ancestor that has one.  So it touches only the nodes it looks at.
    """
    for d in range(len(path)):
        rule = rule_at(spine[d])
        if rule:
            return Redex(path[:d], rule), spine[:d + 1]
    spine, path = spine[:], list(path)
    u = spine[-1]
    while True:
        rule = rule_at(u)
        if rule:
            return Redex(tuple(path), rule), spine
        kids, i = children(u), 0
        while i == len(kids):
            if not path:
                return None
            spine.pop()
            i = path.pop() + 1
            kids = children(spine[-1])
        u = kids[i]
        path.append(i)
        spine.append(u)


class LastRedex(NodeMemo):
    """The last redex in preorder of a term, found from where the last step
    contracted, with the subtrees known to hold no redex kept by node
    identity.

    rule_at(node) is the rule to contract at node, or None if it is no
    redex.  The memo's entries are the subtrees found normal, each mapped
    from its id to itself.
    """

    __slots__ = ("rule_at",)

    def __init__(self, rule_at) -> None:  # the memo starts empty
        self.rule_at = rule_at

    def __call__(self, spine: list,
                 path: tuple[int, ...]) -> tuple[Redex, list] | None:
        """The last redex of spine[0], with the nodes from spine[0] down to
        it, or None; spine holds the nodes from the root to path, and no
        node after path in preorder is a redex unless it is in path's
        subtree.

        After a step at path that holds: the step built only the spine and
        the contractum, and before it nothing after path was a redex.  So
        the search walks path's subtree in reverse preorder (children right
        to left, then the node) and then climbs, at each ancestor looking at
        the children left of the path, right to left, then at the ancestor
        itself.  Both are one walk, whose stack is the spine and path it
        returns.  It skips a child known to be normal and records a node as
        normal when it leaves the node without a redex.  The first call
        passes [t] and (), so it looks at all of t.
        """
        normal, rule_at = self, self.rule_at
        spine, path = spine[:], list(path)
        kids = children(spine[-1])
        i = len(kids)  # the children of spine[-1] left to look at
        while True:
            if i:
                i -= 1
                u = kids[i]
                if id(u) not in normal:
                    path.append(i)
                    spine.append(u)
                    kids = children(u)
                    i = len(kids)
                continue
            u = spine[-1]
            rule = rule_at(u)
            if rule:
                return Redex(tuple(path), rule), spine
            normal[id(u)] = u
            if not path:
                return None
            spine.pop()
            i = path.pop()
            kids = children(spine[-1])


def reducts_one_step(t: Term, experimental: bool = False) -> list[Term]:
    """All one-step reducts, deduplicated up to alpha equivalence, in the
    order of their first redex in preorder.

    One walk over t writes its key and lists its redexes (see
    syntax.distinct_reducts).  Each reduct's key is t's key with the
    contracted node's key spliced in at its position.  That equals alpha_key
    of the reduct byte for byte, because a key is written node by node and
    each node's part depends only on the node and the levels of the names
    bound above it, which the step leaves unchanged.
    """
    fn = FreeNames()
    return distinct_reducts(t, lambda node: _node_rules(node, experimental, fn),
                            lambda node, rule: _contract(node, rule, fn))


def format_trace(steps: list[TraceStep]) -> str:
    """One line per step: index, rule, dot-separated path, resulting term.

    Consecutive terms share every node off the contracted spine, so the
    text of the shared subterms is printed once.
    """
    printer = TermPrinter()
    lines = []
    for s in steps:
        spine = spine_at(s.before, s.position)
        printer.forget(spine)
        printer.forget(children(spine[-1]))
        path = ".".join(str(i) for i in s.position) if s.position else "root"
        lines.append(f"{s.index} {s.rule} {path} {printer(s.after)}")
    return "\n".join(lines)
