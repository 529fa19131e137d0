"""Redex discovery, single-step conversion, the termination measure, and
normalization with traces.

Each rule is one record of the table RULES: the classes of the redex and
of its first child, its side condition, its contraction and how a step
maps through the translation.  Rules are matched in preorder
(leftmost-outermost first).  The experimental rule pushing a break past a
let in its scrutinee destroys confluence and is off unless explicitly
enabled.
"""

from __future__ import annotations

import enum
import functools
from collections import namedtuple
from typing import NamedTuple

from .printer import TermPrinter
from .syntax import (
    App, Arrow, Break, FreeNames, Lam, Let, NodeMemo, Pair, SPECS, Term, Var,
    _freshen, _rebuild, annotated_type, avoid_capture, binders, children,
    distinct_reducts, free_names, rebuild_spine, replace_child, spine_at,
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


#: A reduction rule: it matches at a node of class outer whose first child
#: is of class inner (None: any) if side(node, fn) holds (None: always),
#: fn giving free names, and contract(node, fn) is the contractum.  Its
#: step maps through the translation (lambda_pair.check_step_mapping) by
#: clause: "beta", to a beta step at the root of the redex's image;
#: "substitution", to a contraction wherever a substituted variable occurs
#: in the body's image; "unchanged", to the same image.  A rule with no
#: clause is experimental and matches only when asked for.
Rule = namedtuple("Rule", "name outer inner side contract clause")


def _beta(t, fn):
    return substitute(t.fun.body, [(t.fun.binder, t.arg)], fn)


def _pair_subst(t, fn):
    return substitute(t.body, zip((t.x, t.y), t.scrutinee), fn)


def _break_subst(t, fn):
    scrut, a, b = t.scrutinee, annotated_type(t.scrutinee), t.residue
    (p, z), _ = _freshen(("p", "z"), fn(scrut) | fn(t.body) | {t.phi, t.f})
    k_term = Lam(p, Arrow(a, b), App(Var(p, Arrow(a, b)), scrut))
    return substitute(t.body, [(t.phi, k_term), (t.f, Lam(z, b, scrut))], fn)


def _move_under(t, fn):
    """t's second child moves under the binders of its first, a let or a
    break, renamed if they would capture it (never in l-l- or l-b-conv)."""
    inner, moving = children(t)
    inner = avoid_capture(inner, fn(moving), fn)
    scrut, body = children(inner)
    return _rebuild(inner, (scrut, _rebuild(t, (body, moving))))


def _disjoint(t, fn):
    return fn(t.body).isdisjoint(binders(t.scrutinee))


def _unused_or_closed(t, fn):
    used = fn(t.body)
    return t.phi not in used or t.f not in used or not fn(t.scrutinee)


#: The rules, in the order they match at one node.
RULES = (
    Rule(RuleName.BETA, App, Lam, None, _beta, "beta"),
    Rule(RuleName.AP_L_CONV, App, Let, None, _move_under, "unchanged"),
    Rule(RuleName.AP_B_CONV, App, Break, None, _move_under, "unchanged"),
    Rule(RuleName.L_CONV, Let, Pair, None, _pair_subst, "substitution"),
    Rule(RuleName.L_L_CONV, Let, Let, _disjoint, _move_under, "unchanged"),
    Rule(RuleName.L_B_CONV, Let, Break, _disjoint, _move_under, "unchanged"),
    Rule(RuleName.B_CONV, Break, None, _unused_or_closed,
         _break_subst, "substitution"),
    Rule(RuleName.B_L_CONV, Break, Let, None, _move_under, None),
)
RULE = {r.name: r for r in RULES}
PERMUTING_RULES = frozenset(r.name for r in RULES if r.clause == "unchanged")


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


class TraceStep:
    """One step of a trace: its index, the rule it contracted at position,
    and the terms before and after it, read by these names and unpacked in
    this order.

    A step holds its contractum and the step before it (the start term, for
    the first step).  It builds before and after when they are first read
    and keeps them: after is before with the contractum at position
    (replace_at), unless normalize handed the step the root its search had
    already built.  Reading a step whose earlier steps are unbuilt builds
    them first, in one loop without recursion, so a trace read in either
    order builds each root once.
    """

    __slots__ = ("index", "rule", "position", "contractum", "_before",
                 "_after")

    def __init__(self, index: int, rule: RuleName, position: tuple[int, ...],
                 contractum: Term, previous: TraceStep | Term,
                 after: Term | None = None):
        self.index, self.rule, self.position = index, rule, position
        self.contractum, self._before = contractum, previous
        self._after = after

    @property
    def before(self) -> Term:
        b = self._before
        if type(b) is TraceStep:  # keep the term, not the step before
            b = self._before = b.after
        return b

    @property
    def after(self) -> Term:
        if self._after is None:
            self._replay()
        return self._after

    def _replay(self) -> None:
        """Build after for this step and each unbuilt step before it."""
        todo, s = [], self
        while type(s) is TraceStep and s._after is None:
            todo.append(s)
            s = s._before
        for s in reversed(todo):
            s._build(spine_at(s.before, s.position))

    def _build(self, spine: list) -> Term:
        """after, built from spine, which is spine_at(before, position),
        unless it is built already."""
        if self._after is None:
            self._after = rebuild_spine(spine, self.position, self.contractum)
        return self._after

    def __iter__(self):
        return iter((self.index, self.rule, self.position, self.before,
                     self.after))

    def __eq__(self, other):
        if type(other) is not TraceStep:
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return ("TraceStep(index={!r}, rule={!r}, position={!r}, before={!r}, "
                "after={!r})".format(*self))


# ---------------------------------------------------------------------------
# Redex discovery
# ---------------------------------------------------------------------------

def rule_matcher(rules):
    """node_rules(t, experimental, fn): the names of the rules that match
    at the root of t, in the order of rules; fn gives the free names.  One
    dict read by t's class and one by its first child's give a ready tuple
    of names, so a miss allocates nothing, or the rules to test one by one.
    """
    def entry(rs):  # a ready tuple of names, or the rules to test
        if any(r.side or not r.clause for r in rs):
            return (), tuple((r.name, r.side, bool(r.clause)) for r in rs)
        return tuple(r.name for r in rs), ()

    at = {}
    for outer in dict.fromkeys(r.outer for r in rules):
        mine = [r for r in rules if r.outer is outer]
        by_inner = {i: entry([r for r in mine if r.inner in (None, i)])
                    for i in [None] + [r.inner for r in mine]}
        at[outer] = SPECS[outer].kid_slots[0], by_inner, by_inner.pop(None)

    def node_rules(t, experimental: bool, fn) -> tuple:
        found = at.get(type(t))
        if found is None:
            return ()
        slot, by_inner, other = found
        ready, checked = by_inner.get(type(t[slot]), other)
        for name, side, standard in checked:  # genexpr would make t a cell
            if (experimental or standard) and (side is None or side(t, fn)):
                ready += (name,)
        return ready

    return node_rules


_node_rules = rule_matcher(RULES)


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
    fn = FreeNames()
    spine = _redex_spine(t, r, fn)
    return rebuild_spine(spine, r.position,
                         RULE[r.rule].contract(spine[-1], fn))


def _redex_spine(t: Term, r: Redex, fn: FreeNames) -> list:
    """spine_at(t, r.position); InvalidRedex if r.rule does not match there."""
    try:
        spine = spine_at(t, r.position)
    except IndexError as exc:
        raise InvalidRedex(str(exc)) from None
    if r.rule not in _node_rules(spine[-1], True, fn):
        raise InvalidRedex(f"{r.rule} does not match at {list(r.position)}")
    return spine


def is_silent(t: Term, r: Redex) -> bool:
    """True iff the contraction substitutes for variables absent from the body.

    Only defined for the rules whose clause is substitution; other rules
    raise ValueError, and a redex that does not match raises InvalidRedex.
    """
    rule = RULE.get(r.rule)
    if rule is None or rule.clause != "substitution":
        raise ValueError(f"silence undefined for {r.rule}")
    node = _redex_spine(t, r, FreeNames())[-1]
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
    on its subtree alone, and a step at position p changes only p and its
    ancestors, so the two searches are mirror-image walks from p on the
    zipper that reduce_steps keeps: on in preorder (first_redex), or back
    in reverse preorder, skipping the subtrees found normal (LastRedex).
    Both memos, that one and the free names, live for this call and forget
    nothing: each entry holds its node, so an id is not reused while the
    entry lives.

    The first strategy's search rebuilds every ancestor of p, so it has the
    root after each step, and the trace keeps it.  The last strategy's
    search rebuilds an ancestor only as it climbs into it (Zipper.up), so a
    step costs its contraction plus the distance the cursor moves.  A step
    keeps its search's root whenever the search climbed to the root, else
    its roots are built when the trace is read (see TraceStep); the last
    search ends at the root, so the last step keeps the normal form.
    """
    if strategy not in ("first", "last"):
        raise ValueError(f"unknown strategy {strategy!r}")
    fn = FreeNames()

    def rules_at(u: Term) -> tuple[RuleName, ...]:
        return _node_rules(u, experimental, fn)

    if strategy == "first":
        search = functools.partial(first_redex, rules_at=rules_at)
    else:
        search = LastRedex(rules_at)
    steps: list[TraceStep] = []
    nf = t
    for index, (r, new, nf) in enumerate(reduce_steps(
            t, max_steps, search,
            lambda node, rule: RULE[rule].contract(node, fn))):
        steps.append(TraceStep(index, r.rule, r.position, new,
                               steps[-1] if steps else t, nf))
    return nf, steps


def reduce_steps(t, max_steps: int, search, contract):
    """Contract the redexes that search picks until none is left, yielding
    (redex, contractum, root) per step.

    The term is kept as a Zipper.  search(z) moves z's cursor to the next
    redex and gives it, or gives None with the cursor at the settled root;
    contract(node, rule) gives the contractum of a redex.  root is z.root
    after the search: the term after the step, or None while a frame is
    stale; the last step always has it.  StepBudgetExceeded if a redex is
    left after max_steps steps; ValueError if max_steps is negative.
    """
    if max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, not {max_steps}")
    z = Zipper(t)
    found = search(z)
    for _ in range(max_steps):
        if found is None:
            return
        new = contract(z.nodes[-1], found.rule)
        z.replace(new)
        r, found = found, search(z)
        yield r, new, z.root
    if found is not None:
        raise StepBudgetExceeded(max_steps)


class Zipper:
    """A term held as the frames from its root down to a cursor (Huet, "The
    Zipper", JFP 7(5), 1997), so that a change at the cursor rebuilds an
    ancestor only when a walk needs it.

    nodes[d] is the node of the frame at depth d, and path[d] the index of
    nodes[d + 1] among its children.  replace sets only the cursor's node,
    so a frame is stale while nodes[d + 1] is not the child that nodes[d]
    holds; up and settle_spine rebuild it by replace_child, which puts the
    child in and runs no constructor check: only a frame's child changes,
    never the names its constructor checked.  root is the whole term while
    no frame is stale, else None.
    """

    __slots__ = ("nodes", "path", "root")

    def __init__(self, t) -> None:
        self.nodes, self.path = [t], []
        self.root = t

    def replace(self, new) -> None:
        """Put new in place of the cursor's node."""
        self.nodes[-1] = new
        self.root = None if self.path else new

    def up(self) -> tuple[int, tuple | list]:
        """Move the cursor to its parent, rebuilt if stale; give the index
        of the node left and the parent's children."""
        nodes, path = self.nodes, self.path
        u, i = nodes.pop(), path.pop()
        nodes[-1] = parent = replace_child(nodes[-1], i, u)
        if not path:
            self.root = parent
        return i, children(parent)

    def settle_spine(self) -> None:
        """Rebuild the stale frames, from the cursor up, leaving it put."""
        nodes, path = self.nodes, self.path
        for d in range(len(path) - 1, -1, -1):
            nodes[d] = replace_child(nodes[d], path[d], nodes[d + 1])
        self.root = nodes[0]


def first_redex(z: Zipper, rules_at) -> Redex | None:
    """The first redex in preorder of z's term, with z's cursor moved to
    it, or None with the cursor at the root; no node before the cursor in
    preorder, other than its ancestors, is a redex.

    rules_at(node) gives the rules that match at node, and the first is
    contracted.  The search settles the frames from the cursor up
    (settle_spine) and checks the ancestors, root first.  Then it walks on
    in preorder from the cursor: down to a node's first child, else up with
    z.up(), which rebuilds nothing now, to the next right sibling of the
    node or of its nearest ancestor that has one.  So it touches only the
    nodes it looks at, besides the ancestors it rebuilds.
    """
    z.settle_spine()
    nodes, path = z.nodes, z.path
    for d in range(len(path)):
        rules = rules_at(nodes[d])
        if rules:
            del nodes[d + 1:], path[d:]
            return Redex(tuple(path), rules[0])
    u = nodes[-1]
    while True:
        rules = rules_at(u)
        if rules:
            return Redex(tuple(path), rules[0])
        kids, i = children(u), 0
        while i == len(kids):
            if not path:
                return None
            i, kids = z.up()
            i += 1
        u = kids[i]
        path.append(i)
        nodes.append(u)


class LastRedex(NodeMemo):
    """The last redex in preorder of a term, found from where the last step
    contracted, with the subtrees known to hold no redex kept by node
    identity.

    rules_at(node) gives the rules that match at node, and the last is
    contracted.  The memo's entries are the subtrees found normal, each mapped
    from its id to itself.
    """

    __slots__ = ("rules_at",)

    def __init__(self, rules_at) -> None:  # the memo starts empty
        self.rules_at = rules_at

    def __call__(self, z: Zipper) -> Redex | None:
        """The last redex of z's term, with z's cursor moved to it, or None
        with the cursor at the root; no node after the cursor in preorder is
        a redex unless it is in the cursor's subtree.

        After a step at the cursor that holds: the step changed only the
        cursor's node and, before it, nothing after the cursor was a redex.
        So the search walks the cursor's subtree in reverse preorder
        (children right to left, then the node) and then climbs with z.up(),
        at each ancestor looking at the children left of the path, right to
        left, then at the ancestor itself, which up has rebuilt if a child
        changed.  Both are one walk on z.  It skips a child known to be
        normal and records a node as normal when it leaves the node without
        a redex.  The first call gets a zipper on the whole term with its
        cursor at the root, so it looks at all of it.
        """
        normal, rules_at = self, self.rules_at
        nodes, path = z.nodes, z.path
        kids = children(nodes[-1])
        i = len(kids)  # the children of the cursor's node left to look at
        while True:
            if i:
                i -= 1
                u = kids[i]
                if id(u) not in normal:
                    path.append(i)
                    nodes.append(u)
                    kids = children(u)
                    i = len(kids)
                continue
            u = nodes[-1]
            rules = rules_at(u)
            if rules:
                return Redex(tuple(path), rules[-1])
            normal[id(u)] = u
            if not path:
                return None
            i, kids = z.up()


def reducts_one_step(t: Term, experimental: bool = False) -> list[Term]:
    """All one-step reducts, deduplicated up to alpha equivalence, in the
    order of their first redex in preorder.

    One walk over t hashes its nodes by shape, names left out, and lists
    its redexes (see syntax.distinct_reducts).  A reduct's hash costs the
    nodes its contraction created and one climb up its spine; alpha_key is
    written only to confirm two equal hashes, so the result is exact.
    """
    fn = FreeNames()
    return distinct_reducts(t, lambda node: _node_rules(node, experimental, fn),
                            lambda node, rule: RULE[rule].contract(node, fn))


def format_trace(steps: list[TraceStep]) -> str:
    """One line per step: index, rule, dot-separated path, resulting term.

    The lines are written to one list of pieces, joined once at the end.
    Consecutive terms share every node off the contracted spine, so the
    printer writes the text of a shared subterm once and, when a later
    line reuses it, copies it once into one piece (see TermPrinter).
    Before each line the printer forgets the nodes the step took out, the
    spine down to the redex and the redex's children, so its memos hold
    about one term's entries; no other memo forgets.  Each step's spine
    is walked once, for that and to build the step's after when it is
    unbuilt.
    """
    printer = TermPrinter()
    out: list[str] = []
    unbound = frozenset()
    for s in steps:
        spine = spine_at(s.before, s.position)
        printer.forget((*spine, *children(spine[-1])))
        path = ".".join(map(str, s.position)) if s.position else "root"
        if out:
            out.append("\n")
        out.append(f"{s.index} {s.rule.value} {path} ")
        printer.write(s._build(spine), unbound, out)
    return "".join(out)
