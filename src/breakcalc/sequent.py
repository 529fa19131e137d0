"""Gentzen-style sequent calculus with a break rule: checking, translations
to and from terms, cut elimination, and bounded proof search.

Antecedents are multisets of formulas, stored as tuples sorted by formula
text (see `sequent`).  Distinct formulas print differently, so two
antecedents are the same multiset exactly when their sorted tuples are
equal; the checker compares them so, re-sorting a stated antecedent first.
There is no contraction rule, so affinity carries over; weakening is
admissible because the axiom rule allows an arbitrary context.

`_conclude` is the one definition of each non-axiom rule: the conclusion it
draws from its premises and its formula.  The node builders, the checker and
cut elimination all go through it.
"""

from __future__ import annotations

import enum
import itertools
import operator
import re
from typing import NamedTuple

from .parser import ParseError, TokenStream, parse_type, parse_type_stream
from .syntax import (
    App, Arrow, Break, Lam, Let, Pair, Tensor, Term, TypeExpr, Var, _PARSED,
    _canonical_names, _remember_last, ks_types, print_type,
)
from .typecheck import check


class InvalidRule(Exception):
    def __init__(self, path: tuple[int, ...], reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"invalid rule at {list(path)}: {reason}")


class PreconditionViolation(Exception):
    pass


class BudgetExceeded(Exception):
    pass


class Sequent(NamedTuple):
    """antecedent |- succedent; `sequent` sorts the antecedent by formula text."""

    antecedent: tuple[TypeExpr, ...]
    succedent: TypeExpr

    def __str__(self) -> str:
        ant = ", ".join(map(print_type, self.antecedent))
        return f"{ant} |- {print_type(self.succedent)}" if ant \
            else f"|- {print_type(self.succedent)}"


def sequent(antecedent, succedent: TypeExpr) -> Sequent:
    return Sequent(tuple(sorted(antecedent, key=print_type)), succedent)


def _take(formulas, formula: TypeExpr, path: tuple[int, ...],
          what: str) -> list[TypeExpr]:
    """formulas less one copy of formula; InvalidRule if there is none."""
    out = list(formulas)
    try:
        out.remove(formula)
    except ValueError:
        raise InvalidRule(
            path, f"{what} {print_type(formula)} not in antecedent") from None
    return out


class SRule(str, enum.Enum):
    ASM = "ASM"
    CUT = "CUT"
    BRK = "BRK"
    ArrR = "ArrR"
    ArrL = "ArrL"
    TensR = "TensR"
    TensL = "TensL"


_ARITY = {SRule.ASM: 0, SRule.ArrR: 1, SRule.TensL: 1,
          SRule.CUT: 2, SRule.BRK: 2, SRule.ArrL: 2, SRule.TensR: 2}

#: the class of the `data` field per rule (BRK: the residue type, ArrL and
#: TensL: the principal formula); the other rules carry no datum
_DATUM = {SRule.BRK: (TypeExpr, "a formula"), SRule.ArrL: (Arrow, "an arrow"),
          SRule.TensL: (Tensor, "a pair")}


class SDerivation(NamedTuple):
    rule: SRule
    conclusion: Sequent
    premises: tuple[SDerivation, ...] = ()
    data: TypeExpr | None = None

    def node_count(self) -> int:
        return sum(1 for _ in self._nodes())

    def uses_rule(self, rule: SRule) -> bool:
        return any(d.rule == rule for d in self._nodes())

    def _nodes(self):  # an explicit stack, so that any depth is walked
        stack = [self]
        while stack:
            d = stack.pop()
            yield d
            stack.extend(d.premises)


def _conclude(rule: SRule, premises: tuple[SDerivation, ...],
              formula: TypeExpr | None,
              path: tuple[int, ...]) -> tuple[list[TypeExpr], TypeExpr]:
    """Antecedent (a multiset, as a list) and succedent that a non-axiom rule
    concludes from its premises and its formula: the residue of BRK, the
    domain of ArrR, the principal formula of ArrL and TensL, None otherwise.
    InvalidRule at path when the premises do not fit."""
    c = [p.conclusion for p in premises]
    match rule:
        case SRule.CUT:
            rest = _take(c[1].antecedent, c[0].succedent, path, "cut formula")
            return [*c[0].antecedent, *rest], c[1].succedent
        case SRule.BRK:
            k, s = ks_types(c[0].succedent, formula)
            rest = _take(c[1].antecedent, k, path, "higher-order assumption")
            rest = _take(rest, s, path, "section assumption")
            return [*c[0].antecedent, *rest], c[1].succedent
        case SRule.ArrR:
            rest = _take(c[0].antecedent, formula, path, "discharged formula")
            return rest, Arrow(formula, c[0].succedent)
        case SRule.ArrL:
            if c[0].succedent != formula.dom:
                raise InvalidRule(path, "first premise must prove the domain")
            rest = _take(c[1].antecedent, formula.cod, path,
                         "codomain assumption")
            return [*c[0].antecedent, *rest, formula], c[1].succedent
        case SRule.TensR:
            return ([*c[0].antecedent, *c[1].antecedent],
                    Tensor(c[0].succedent, c[1].succedent))
        case SRule.TensL:
            rest = _take(c[0].antecedent, formula.left, path, "left component")
            rest = _take(rest, formula.right, path, "right component")
            return [*rest, formula], c[0].succedent
    raise TypeError(f"not a non-axiom rule: {rule!r}")


def _formula(d: SDerivation) -> TypeExpr | None:
    """The formula `_conclude` reads for d's rule; ArrR keeps no datum, its
    domain is read off its succedent."""
    return d.conclusion.succedent.dom if d.rule == SRule.ArrR else d.data


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------

@_remember_last
def check_derivation(d: SDerivation) -> Sequent:
    """Validate every node; returns the end sequent of a valid derivation.

    A repeated call on the same object (`is`) reuses the last result; a
    failing one raises again."""
    _check_node(d, ())
    return d.conclusion


def _check_node(d: SDerivation, path: tuple[int, ...]) -> None:
    if len(d.premises) != _ARITY[d.rule]:
        raise InvalidRule(path, f"{d.rule.value} wants {_ARITY[d.rule]} premises,"
                                f" got {len(d.premises)}")
    cls, what = _DATUM.get(d.rule, (type(None), "no"))
    if not isinstance(d.data, cls):
        raise InvalidRule(path, f"{d.rule.value} takes {what} datum")
    for i, p in enumerate(d.premises):
        _check_node(p, path + (i,))
    concl = d.conclusion
    if d.rule == SRule.ASM:
        if concl.succedent not in concl.antecedent:
            raise InvalidRule(path, "axiom succedent not in antecedent")
        return
    if d.rule == SRule.ArrR and not isinstance(concl.succedent, Arrow):
        raise InvalidRule(path, "right arrow rule with non-arrow succedent")
    ant, suc = _conclude(d.rule, d.premises, _formula(d), path)
    if sequent(ant, suc) != sequent(*concl):
        raise InvalidRule(
            path, f"{d.rule.value} conclusion does not match its premises")


# ---------------------------------------------------------------------------
# Node builders (conclusions computed from premises)
# ---------------------------------------------------------------------------

def _node(rule: SRule, premises: tuple[SDerivation, ...],
          formula: TypeExpr | None = None) -> SDerivation:
    ant, suc = _conclude(rule, premises, formula, ())
    return SDerivation(rule, sequent(ant, suc), premises,
                       None if rule == SRule.ArrR else formula)


def asm(antecedent, succedent: TypeExpr) -> SDerivation:
    return SDerivation(SRule.ASM, sequent(antecedent, succedent))


def cut(p1: SDerivation, p2: SDerivation) -> SDerivation:
    return _node(SRule.CUT, (p1, p2))


def brk(p1: SDerivation, p2: SDerivation, residue: TypeExpr) -> SDerivation:
    return _node(SRule.BRK, (p1, p2), residue)


def arr_r(p: SDerivation, dom: TypeExpr) -> SDerivation:
    return _node(SRule.ArrR, (p,), dom)


def arr_l(p1: SDerivation, p2: SDerivation, principal: Arrow) -> SDerivation:
    return _node(SRule.ArrL, (p1, p2), principal)


def tens_r(p1: SDerivation, p2: SDerivation) -> SDerivation:
    return _node(SRule.TensR, (p1, p2))


def tens_l(p: SDerivation, principal: Tensor) -> SDerivation:
    return _node(SRule.TensL, (p,), principal)


def weaken(d: SDerivation, extras) -> SDerivation:
    """Add formulas to the end sequent's antecedent.

    Weakening is admissible: the extras ride up the last premise until they
    land in an axiom leaf, whose context is arbitrary.
    """
    extras = tuple(extras)
    if not extras:
        return d
    concl = sequent(d.conclusion.antecedent + extras, d.conclusion.succedent)
    premises = d.premises[:-1] + tuple(weaken(p, extras)
                                       for p in d.premises[-1:])
    return SDerivation(d.rule, concl, premises, d.data)


# ---------------------------------------------------------------------------
# Natural deduction <-> sequents
# ---------------------------------------------------------------------------

def nd_to_sequent(t: Term) -> SDerivation:
    """Compositional translation of a typable term into a derivation of
    Gamma |- A, where Gamma is the multiset of free-variable types.

    Right after check(t) on the same object, the canonical renaming and the
    typing are not redone (see typecheck.check)."""
    check(t)
    t, names = _canonical_names(t)
    return _translate(t, (), names)


def _translate(t: Term, pending: tuple[TypeExpr, ...],
               names: set[str]) -> SDerivation:
    """The derivation of a canonical t, weakened by pending.

    The types of binders a body leaves unused join pending, which rides the
    last-premise path down to the axiom leaf where `weaken` would put it, so
    every node is built once, with its final sequent.
    """
    match t:
        case Var(_, ty):
            return asm((ty, *pending), ty)
        case Lam(b, bt, body):
            extra = _unused(((b, bt),), names)
            return arr_r(_translate(body, pending + extra, names), bt)
        case App(fun, arg):
            df = _translate(fun, (), names)
            fty = df.conclusion.succedent
            assert isinstance(fty, Arrow)
            hook = asm((fty.cod, *pending), fty.cod)
            return cut(df, arr_l(_translate(arg, (), names), hook, fty))
        case Pair(a, b):
            return tens_r(_translate(a, (), names),
                          _translate(b, pending, names))
        case Let(x, xt, y, yt, scrut, body):
            extra = _unused(((x, xt), (y, yt)), names)
            db = _translate(body, pending + extra, names)
            return cut(_translate(scrut, (), names), tens_l(db, Tensor(xt, yt)))
        case Break(scrut, phi, f, residue, body):
            ds = _translate(scrut, (), names)
            k, s = ks_types(ds.conclusion.succedent, residue)
            extra = _unused(((phi, k), (f, s)), names)
            return brk(ds, _translate(body, pending + extra, names), residue)
    raise TypeError(f"not a term: {t!r}")


def _unused(binders, names: set[str]) -> tuple[TypeExpr, ...]:
    """The type of each binder its body leaves unused: the formulas the rule
    closing the binders must find weakened in.  A canonical term's binder is
    used when its name is in names, those of all the term's variables."""
    return tuple(ty for name, ty in binders if name not in names)


def _pick(ctx: list[tuple[Term, TypeExpr]], ty: TypeExpr):
    """The first (term, type) entry of ctx at type ty, and ctx without it."""
    for i, (term, t2) in enumerate(ctx):
        if t2 is ty:  # types are interned
            return (term, ty), ctx[:i] + ctx[i + 1:]
    raise InvalidRule((), f"no assumption of type {print_type(ty)}")


def _split(ctx: list[tuple[Term, TypeExpr]], needed):
    """The entries of ctx that _pick would take for each formula of the
    multiset needed in turn, in that order, and the rest of ctx in its
    order.  One pass over ctx: an entry fills the first open slot of its
    type in needed (types are interned), so each type's entries fill its
    slots in context order."""
    slots: dict[TypeExpr, list[int]] = {}  # each type's open slots, last first
    for i in range(len(needed) - 1, -1, -1):
        slots.setdefault(needed[i], []).append(i)
    taken = [None] * len(needed)
    rest = []
    for entry in ctx:
        open_slots = slots.get(entry[1])
        if open_slots:
            taken[open_slots.pop()] = entry
        else:
            rest.append(entry)
    if None in taken:  # where the picks would have stopped
        ty = needed[taken.index(None)]
        raise InvalidRule((), f"no assumption of type {print_type(ty)}")
    return taken, rest


def sequent_to_term(d: SDerivation) -> Term:
    """Extract a term from a valid derivation; break nodes become break terms.

    Each context entry pairs a formula with its term: a variable for a
    hypothesis or binder, the first premise's term for a cut formula, and g
    applied to it for an ArrL's codomain.  Binders come from one counter and
    each entry goes to one premise, so no term is captured or placed twice.
    d is validated by check_derivation, which reuses its result when d was
    the last derivation it checked.
    """
    check_derivation(d)
    counter = itertools.count()

    def fresh(base: str) -> str:
        return f"{base}{next(counter)}"

    def go(d: SDerivation, ctx: list[tuple[Term, TypeExpr]]) -> Term:
        match d.rule:
            case SRule.ASM:
                (term, _), _ = _pick(ctx, d.conclusion.succedent)
                return term
            case SRule.CUT:
                p1, p2 = d.premises
                ctx1, rest = _split(ctx, p1.conclusion.antecedent)
                t1 = go(p1, ctx1)
                return go(p2, rest + [(t1, p1.conclusion.succedent)])
            case SRule.BRK:
                p1, p2 = d.premises
                k, s = ks_types(p1.conclusion.succedent, d.data)
                ctx1, rest = _split(ctx, p1.conclusion.antecedent)
                phi, f = fresh("phi"), fresh("sec")
                return Break(go(p1, ctx1), phi, f, d.data,
                             go(p2, rest + [(Var(phi, k), k), (Var(f, s), s)]))
            case SRule.ArrR:
                (p,) = d.premises
                dom = d.conclusion.succedent.dom
                x = fresh("x")
                return Lam(x, dom, go(p, ctx + [(Var(x, dom), dom)]))
            case SRule.ArrL:
                p1, p2 = d.premises
                principal: Arrow = d.data
                (g, _), rest0 = _pick(ctx, principal)
                ctx1, rest = _split(rest0, p1.conclusion.antecedent)
                t1 = go(p1, ctx1)
                return go(p2, rest + [(App(g, t1), principal.cod)])
            case SRule.TensR:
                p1, p2 = d.premises
                ctx1, ctx2 = _split(ctx, p1.conclusion.antecedent)
                return Pair(go(p1, ctx1), go(p2, ctx2))
            case SRule.TensL:
                (p,) = d.premises
                principal: Tensor = d.data
                (v, _), rest = _pick(ctx, principal)
                left, right = principal
                x, y = fresh("a"), fresh("b")
                body = go(p, rest + [(Var(x, left), left),
                                     (Var(y, right), right)])
                return Let(x, left, y, right, v, body)
        raise TypeError(f"unknown rule {d.rule!r}")

    ctx0 = [(Var(fresh("h"), ty), ty) for ty in d.conclusion.antecedent]
    return go(d, ctx0)


# ---------------------------------------------------------------------------
# Cut elimination
# ---------------------------------------------------------------------------

def eliminate_cuts(d: SDerivation, node_budget: int = 1_000_000) -> SDerivation:
    """Rewrite a valid derivation into a cut-free one with the same end sequent.

    Principal cuts split into smaller cuts, other cuts ride up whichever
    premise carries the cut formula (break nodes included), and cuts against
    axioms vanish into weakening.  No break node is ever added.  A break node
    is dropped only inside a premise that is discarded whole, when the cut
    formula it derives meets a weakened axiom (the sequent form of a beta
    step whose bound variable is unused).  Terminates by the usual (cut
    formula size, combined premise height) measure.  BudgetExceeded once
    more than node_budget nodes are built; ValueError if node_budget is
    negative.
    """
    if node_budget < 0:
        raise ValueError(
            f"node_budget must be non-negative, not {node_budget}")
    built = [0]

    def bump() -> None:
        built[0] += 1
        if built[0] > node_budget:
            raise BudgetExceeded(f"more than {node_budget} nodes built")

    def elim(d: SDerivation) -> SDerivation:
        """d without cuts; d itself when it has none."""
        premises = [elim(p) for p in d.premises]
        if d.rule == SRule.CUT:
            return combine(premises[0], premises[1])
        bump()
        if all(map(operator.is_, premises, d.premises)):
            return d
        return SDerivation(d.rule, d.conclusion, tuple(premises), d.data)

    def combine(p1: SDerivation, p2: SDerivation) -> SDerivation:
        """Cut-free equivalent of cut(p1, p2); both inputs are cut-free."""
        bump()
        a = p1.conclusion.succedent

        if p1.rule == SRule.ASM:
            return weaken(p2, _take(p1.conclusion.antecedent, a, (),
                                    "axiom formula"))
        if p2.rule == SRule.ASM:
            c = p2.conclusion.succedent
            others = _take(p2.conclusion.antecedent, a, (), "cut formula")
            if c in others:
                return asm(p1.conclusion.antecedent + tuple(others), c)
            # the axiom's formula is the cut formula itself
            return weaken(p1, others)

        match p1.rule, p2.rule:
            case SRule.ArrR, SRule.ArrL if p2.data == a:
                # cut of A1 -> A2 against its left rule: two smaller cuts
                (q,) = p1.premises
                q1, q2 = p2.premises
                return combine(combine(q1, q), q2)
            case SRule.TensR, SRule.TensL if p2.data == a:
                # pair: cut each component
                r1, r2 = p1.premises
                (q,) = p2.premises
                return combine(r1, combine(r2, q))
            case (SRule.ArrR | SRule.TensR), _:
                # into the premise of p2 that holds the cut formula: the
                # first if it does, else the last
                i = 0 if a in p2.premises[0].conclusion.antecedent else -1
                return push(p2, i, combine(p1, p2.premises[i]))
        # p1 ends in a left rule or break: push the cut into the branch
        # providing the succedent
        return push(p1, -1, combine(p1.premises[-1], p2))

    def push(d: SDerivation, i: int, inner: SDerivation) -> SDerivation:
        """d's rule over its premises, premise i replaced by inner."""
        bump()
        premises = list(d.premises)
        premises[i] = inner
        return _node(d.rule, tuple(premises), _formula(d))

    return elim(d)


# ---------------------------------------------------------------------------
# Break from cut, in the two special cases
# ---------------------------------------------------------------------------

def _derive_section(d_a: SDerivation, residue: TypeExpr) -> SDerivation:
    """From |- A derive |- residue -> A."""
    return arr_r(weaken(d_a, [residue]), residue)


def _derive_hof(d_a: SDerivation, residue: TypeExpr) -> SDerivation:
    """From |- A derive |- (A -> residue) -> residue."""
    a = d_a.conclusion.succedent
    hook = asm([residue], residue)
    return arr_r(arr_l(d_a, hook, Arrow(a, residue)), Arrow(a, residue))


def _residues(a: TypeExpr, ant, which: int):
    """Each residue B, in print order of the assumptions, such that ant holds
    ks_types(a, B)[which]: the higher-order assumption (0) or the section (1).
    """
    for formula in sorted(set(ant), key=print_type):
        if isinstance(formula, Arrow):
            b = formula.dom if which else formula.cod
            if ks_types(a, b)[which] == formula:
                yield b


def _infer_break_pair(d_a: SDerivation, d_c: SDerivation) -> TypeExpr:
    """Residue B such that both derived break assumptions for A sit in d_c."""
    a = d_a.conclusion.succedent
    ant = d_c.conclusion.antecedent
    for b in _residues(a, ant, 1):
        if ks_types(a, b)[0] in ant:
            return b
    raise PreconditionViolation(
        "second derivation carries no matching assumption pair")


def brk_via_cut_empty(d_a: SDerivation, d_c: SDerivation,
                      residue: TypeExpr | None = None) -> SDerivation:
    """Simulate a break step by two cuts; only valid for a closed first premise.

    d_a must end in |- A and d_c in Delta, (A->B)->B, B->A |- C; the result
    derives Delta |- C without any break node added.  The residue B is
    inferred from d_c's context when not supplied.
    """
    if d_a.conclusion.antecedent:
        raise PreconditionViolation("first derivation has a nonempty context")
    b = residue if residue is not None else _infer_break_pair(d_a, d_c)
    a = d_a.conclusion.succedent
    k, s = ks_types(a, b)
    ant = d_c.conclusion.antecedent
    if k not in ant or s not in ant:
        raise PreconditionViolation(
            "second derivation lacks the break assumption pair")
    d_k = _derive_hof(d_a, b)
    d_s = _derive_section(d_a, b)
    return cut(d_s, cut(d_k, d_c))


def brk_via_cut_superfluous(d_a: SDerivation, d_c: SDerivation, which: str,
                            residue: TypeExpr | None = None) -> SDerivation:
    """Simulate a break step by a single cut when one assumption is unused.

    `which` is "K-side" when the higher-order assumption is superfluous (d_c
    proves Delta, B->A |- C) or "S-side" when the section is superfluous (d_c
    proves Delta, (A->B)->B |- C).  Unlike the closed case, d_a may have a
    context: weakening absorbs it into the single cut.

    When the residue is not supplied it is inferred from d_c, and inference
    insists the other assumption is absent; Delta containing a formula of the
    same shape would make the instance ambiguous.
    """
    a = d_a.conclusion.succedent
    ant = d_c.conclusion.antecedent
    if which not in ("K-side", "S-side"):
        raise ValueError(f"which must be 'K-side' or 'S-side', got {which!r}")
    # the index in ks_types of the assumption d_c uses, and its derivation
    used, derive = ((1, _derive_section) if which == "K-side"
                    else (0, _derive_hof))
    names = ("higher-order", "section")
    if residue is not None:
        needed = ks_types(a, residue)[used]
        if needed not in ant:
            raise PreconditionViolation(
                f"assumption {print_type(needed)} not in the second derivation")
        return cut(derive(d_a, residue), d_c)
    b = next(_residues(a, ant, used), None)
    if b is None:
        raise PreconditionViolation(f"no {names[used]} assumption found")
    if ks_types(a, b)[1 - used] in ant:
        raise PreconditionViolation(
            f"{names[1 - used]} assumption present; it must be superfluous")
    return cut(derive(d_a, b), d_c)


# ---------------------------------------------------------------------------
# Bounded proof search (cut-free, break-free fragment)
# ---------------------------------------------------------------------------

def prove_bounded(goal: Sequent, depth: int = 8) -> SDerivation | None:
    """Depth-bounded, cut-free, break-free proof search.

    Returns a derivation or None; failed sequents are memoized with the depth
    at which they failed.
    """
    failed: dict[Sequent, int] = {}

    def search(goal: Sequent, d: int) -> SDerivation | None:
        if failed.get(goal, -1) >= d:
            return None
        if goal.succedent in goal.antecedent:
            return asm(goal.antecedent, goal.succedent)
        if d <= 0:
            failed[goal] = max(failed.get(goal, 0), d)
            return None
        # right rules
        match goal.succedent:
            case Arrow(dom, cod):
                sub = search(sequent(goal.antecedent + (dom,), cod), d - 1)
                if sub is not None:
                    return arr_r(sub, dom)
            case Tensor(left, right):
                for g1, g2 in _splits(goal.antecedent):
                    s1 = search(sequent(g1, left), d - 1)
                    if s1 is None:
                        continue
                    s2 = search(sequent(g2, right), d - 1)
                    if s2 is not None:
                        return tens_r(s1, s2)
        # left rules
        for formula in sorted(set(goal.antecedent), key=print_type):
            rest = tuple(_take(goal.antecedent, formula, (), "assumption"))
            match formula:
                case Arrow(dom, cod):
                    for g1, g2 in _splits(rest):
                        s1 = search(sequent(g1, dom), d - 1)
                        if s1 is None:
                            continue
                        s2 = search(sequent(g2 + (cod,), goal.succedent), d - 1)
                        if s2 is not None:
                            return arr_l(s1, s2, formula)
                case Tensor(left, right):
                    sub = search(sequent(rest + (left, right),
                                         goal.succedent), d - 1)
                    if sub is not None:
                        return tens_l(sub, formula)
        failed[goal] = max(failed.get(goal, -1), d)
        return None

    return search(goal, depth)


def _splits(formulas: tuple[TypeExpr, ...]):
    n = len(formulas)
    seen = set()
    for mask in range(1 << n):
        left = tuple(formulas[i] for i in range(n) if mask >> i & 1)
        right = tuple(formulas[i] for i in range(n) if not mask >> i & 1)
        key = tuple(sorted(left, key=print_type))
        if key in seen:
            continue
        seen.add(key)
        yield left, right


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def print_derivation(d: SDerivation) -> str:
    """One line per node, in preorder, indented two spaces per level.

    A node's closing parenthesis ends the line of its last leaf, so a leaf
    line ends with one per subtree it closes (`close`).  An explicit stack,
    so that any depth prints.
    """
    lines = []
    stack = [(d, 0, 1)]  # node, depth, parentheses its subtree closes
    while stack:
        d, depth, close = stack.pop()
        line = "  " * depth + "(" + d.rule.value
        if d.data is not None:
            line += " {" + print_type(d.data) + "}"
        line += f" [{d.conclusion}]"
        if not d.premises:
            lines.append(line + ")" * close)
            continue
        lines.append(line)
        *side, last = d.premises
        stack.append((last, depth + 1, close + 1))
        stack.extend((p, depth + 1, 1) for p in reversed(side))
    return "\n".join(lines)


def _derivation(ts: TokenStream) -> SDerivation:
    """The derivation at ts."""
    ts.expect("LPAREN", "'('")
    tok = ts.expect("IDENT", "rule name")
    try:
        rule = SRule(tok[1])
    except ValueError:
        raise ts.error(tok, f"unknown rule {tok[1]!r}",
                       [r.value for r in SRule]) from None
    data = None
    if ts.accept("LBRACE"):
        data = parse_type_stream(ts)
        ts.expect("RBRACE", "'}'")
    ts.expect("LBRACK", "'['")
    ant: list[TypeExpr] = []
    if ts.peek()[0] != "TURNSTILE":
        ant.append(parse_type_stream(ts))
        while ts.accept("COMMA"):
            ant.append(parse_type_stream(ts))
    ts.expect("TURNSTILE", "'|-'")
    suc = parse_type_stream(ts)
    ts.expect("RBRACK", "']'")
    premises = []
    while ts.peek()[0] == "LPAREN":
        premises.append(_derivation(ts))
    ts.expect("RPAREN", "')'")
    return SDerivation(rule, sequent(ant, suc), tuple(premises), data)


#: one event of derivation text: a closing ``)`` (group 1), or a node head
#: ``(RULE {datum} [antecedent |- succedent]`` (groups 2 to 5).  No formula
#: holds ``{``, ``}``, ``[``, ``]``, ``|`` or ``,``, so the groups end where
#: the token parser's formulas end.
_EVENT = re.compile(r"\s*(?:(\))|\(\s*([A-Za-z][A-Za-z0-9_']*)\s*"
                    r"(?:\{([^{}]*)\}\s*)?\[([^\]|]*)\|-([^\]]*)\])")
_END = re.compile(r"\s*\Z")
#: a comment, up to the end of its line; deleting it joins no two tokens,
#: since a line break or the end of the text follows it
_COMMENT = re.compile(r"--[^\n]*")
_RULES = {r.value: r for r in SRule}


def _read_layout(text: str) -> SDerivation | None:
    """The derivation that text spells, read one node head per regular
    expression match with an explicit stack, or None when the text holds
    anything the events do not fit.

    Comments are deleted first.  Outside a comment, every ``--`` starts one
    for the tokenizer too, except right after ``|``, where the first ``-``
    ends a turnstile; deleting from there leaves a ``|`` before a line break
    or the end, which no event and no formula reads, so such a text goes to
    the token parser.

    A formula's stripped text that print_type wrote is looked up in
    syntax._PARSED; any other is parsed once per call by parse_type.  A
    formula group is exactly the tokens the token parser reads as that
    formula, followed there by a token that ends it as end of input does, so
    a text read here is one the token parser reads to the same derivation.
    """
    text = _COMMENT.sub("", text)
    memo: dict[str, TypeExpr] = {}

    def formula(part: str) -> TypeExpr:
        key = part.strip()
        ty = _PARSED.get(key) or memo.get(key)
        if ty is None:
            ty = memo[key] = parse_type(key)
        return ty

    match = _EVENT.match
    stack: list[tuple[SRule, Sequent, TypeExpr | None, list]] = []
    pos = 0
    try:
        while True:
            m = match(text, pos)
            if m is None:
                return None
            pos = m.end()
            if m.lastindex == 1:  # ')'
                if not stack:
                    return None
                rule, concl, data, premises = stack.pop()
                d = SDerivation(rule, concl, tuple(premises), data)
                if not stack:
                    return d if _END.match(text, pos) else None
                stack[-1][3].append(d)
                continue
            name, datum, ant, suc = m.group(2, 3, 4, 5)
            rule = _RULES.get(name)
            if rule is None:
                return None
            data = None if datum is None else formula(datum)
            ants = [formula(f) for f in ant.split(",")] if ant.strip() else ()
            stack.append((rule, sequent(ants, formula(suc)), data, []))
    except ParseError:
        return None


def parse_derivation(text: str) -> SDerivation:
    """The derivation that text spells, in the syntax of print_derivation.

    _read_layout reads the text first; on anything it does not fit, the
    token parser reads it from the start, so the token parser defines the
    grammar and raises every ParseError.
    """
    d = _read_layout(text)
    if d is not None:
        return d
    return TokenStream(text).parse(_derivation)
