"""Gentzen-style sequent calculus with a break rule: checking, translations
to and from terms, cut elimination, and bounded proof search.

Antecedents are multisets of formulas (stored as canonically sorted tuples).
There is no contraction rule, so affinity carries over; weakening is
admissible because the axiom rule allows an arbitrary context.
"""

from __future__ import annotations

import enum
import itertools
from collections import Counter
from dataclasses import dataclass

from .printer import print_type
from .syntax import (
    App, Arrow, Break, Lam, Let, Pair, Tensor, Term, TypeExpr, Var,
    canonicalize, free_names, ks_types, substitute,
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


def _type_key(ty: TypeExpr) -> str:
    return print_type(ty)


@dataclass(frozen=True)
class Sequent:
    """antecedent |- succedent; the antecedent tuple is kept canonically sorted."""

    antecedent: tuple[TypeExpr, ...]
    succedent: TypeExpr

    def __str__(self) -> str:
        ant = ", ".join(print_type(f) for f in self.antecedent)
        return f"{ant} |- {print_type(self.succedent)}" if ant \
            else f"|- {print_type(self.succedent)}"


def sequent(antecedent, succedent: TypeExpr) -> Sequent:
    return Sequent(tuple(sorted(antecedent, key=_type_key)), succedent)


def _ms(formulas) -> Counter:
    return Counter(formulas)


def _ms_tuple(ms: Counter) -> tuple[TypeExpr, ...]:
    return tuple(sorted(ms.elements(), key=_type_key))


def _take(ms: Counter, formula: TypeExpr, path: tuple[int, ...],
          what: str) -> Counter:
    if ms[formula] < 1:
        raise InvalidRule(path, f"{what} {print_type(formula)} not in antecedent")
    out = ms.copy()
    out[formula] -= 1
    if out[formula] == 0:
        del out[formula]
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

#: rules whose `data` field holds a formula (BRK: the residue type)
_DATA_RULES = frozenset({SRule.BRK, SRule.ArrL, SRule.TensL})


@dataclass(frozen=True)
class SDerivation:
    rule: SRule
    conclusion: Sequent
    premises: tuple[SDerivation, ...] = ()
    data: TypeExpr | None = None

    def node_count(self) -> int:
        return 1 + sum(p.node_count() for p in self.premises)

    def uses_rule(self, rule: SRule) -> bool:
        return self.rule == rule or any(p.uses_rule(rule) for p in self.premises)


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------

def check_derivation(d: SDerivation) -> Sequent:
    """Validate every node; returns the end sequent of a valid derivation."""
    _check_node(d, ())
    return d.conclusion


def _check_node(d: SDerivation, path: tuple[int, ...]) -> None:
    if len(d.premises) != _ARITY[d.rule]:
        raise InvalidRule(path, f"{d.rule.value} wants {_ARITY[d.rule]} premises,"
                                f" got {len(d.premises)}")
    if d.data is None and d.rule in _DATA_RULES:
        raise InvalidRule(path, f"{d.rule.value} needs its formula datum")
    for i, p in enumerate(d.premises):
        _check_node(p, path + (i,))
    concl = d.conclusion
    ant = _ms(concl.antecedent)
    match d.rule:
        case SRule.ASM:
            if ant[concl.succedent] < 1:
                raise InvalidRule(path, "axiom succedent not in antecedent")
        case SRule.CUT:
            p1, p2 = d.premises
            cut = p1.conclusion.succedent
            rest = _take(_ms(p2.conclusion.antecedent), cut, path, "cut formula")
            expect = _ms(p1.conclusion.antecedent) + rest
            if ant != expect or concl.succedent != p2.conclusion.succedent:
                raise InvalidRule(path, "cut conclusion does not match premises")
        case SRule.BRK:
            p1, p2 = d.premises
            a = p1.conclusion.succedent
            k, s = ks_types(a, d.data)
            rest = _take(_ms(p2.conclusion.antecedent), k, path,
                         "higher-order assumption")
            rest = _take(rest, s, path, "section assumption")
            expect = _ms(p1.conclusion.antecedent) + rest
            if ant != expect or concl.succedent != p2.conclusion.succedent:
                raise InvalidRule(path, "break conclusion does not match premises")
        case SRule.ArrR:
            (p,) = d.premises
            if not isinstance(concl.succedent, Arrow):
                raise InvalidRule(path, "right arrow rule with non-arrow succedent")
            dom, cod = concl.succedent.dom, concl.succedent.cod
            if p.conclusion.succedent != cod:
                raise InvalidRule(path, "premise succedent is not the codomain")
            if _ms(p.conclusion.antecedent) != ant + _ms([dom]):
                raise InvalidRule(path, "premise context must add the domain")
        case SRule.ArrL:
            p1, p2 = d.premises
            if not isinstance(d.data, Arrow):
                raise InvalidRule(path, "left arrow rule needs an arrow datum")
            if p1.conclusion.succedent != d.data.dom:
                raise InvalidRule(path, "first premise must prove the domain")
            rest = _take(_ms(p2.conclusion.antecedent), d.data.cod, path,
                         "codomain assumption")
            expect = _ms(p1.conclusion.antecedent) + rest + _ms([d.data])
            if ant != expect or concl.succedent != p2.conclusion.succedent:
                raise InvalidRule(path, "left arrow conclusion does not match")
        case SRule.TensR:
            p1, p2 = d.premises
            want = Tensor(p1.conclusion.succedent, p2.conclusion.succedent)
            expect = _ms(p1.conclusion.antecedent) + _ms(p2.conclusion.antecedent)
            if ant != expect or concl.succedent != want:
                raise InvalidRule(path, "right pair conclusion does not match")
        case SRule.TensL:
            (p,) = d.premises
            if not isinstance(d.data, Tensor):
                raise InvalidRule(path, "left pair rule needs a pair datum")
            rest = _take(_ms(p.conclusion.antecedent), d.data.left, path,
                         "left component")
            rest = _take(rest, d.data.right, path, "right component")
            expect = rest + _ms([d.data])
            if ant != expect or concl.succedent != p.conclusion.succedent:
                raise InvalidRule(path, "left pair conclusion does not match")


# ---------------------------------------------------------------------------
# Node builders (conclusions computed from premises)
# ---------------------------------------------------------------------------

def asm(antecedent, succedent: TypeExpr) -> SDerivation:
    return SDerivation(SRule.ASM, sequent(antecedent, succedent))


def cut(p1: SDerivation, p2: SDerivation) -> SDerivation:
    a = p1.conclusion.succedent
    rest = _take(_ms(p2.conclusion.antecedent), a, (), "cut formula")
    concl = sequent(_ms_tuple(_ms(p1.conclusion.antecedent) + rest),
                    p2.conclusion.succedent)
    return SDerivation(SRule.CUT, concl, (p1, p2))


def brk(p1: SDerivation, p2: SDerivation, residue: TypeExpr) -> SDerivation:
    a = p1.conclusion.succedent
    k, s = ks_types(a, residue)
    rest = _take(_ms(p2.conclusion.antecedent), k, (), "higher-order assumption")
    rest = _take(rest, s, (), "section assumption")
    concl = sequent(_ms_tuple(_ms(p1.conclusion.antecedent) + rest),
                    p2.conclusion.succedent)
    return SDerivation(SRule.BRK, concl, (p1, p2), data=residue)


def arr_r(p: SDerivation, dom: TypeExpr) -> SDerivation:
    rest = _take(_ms(p.conclusion.antecedent), dom, (), "discharged formula")
    concl = sequent(_ms_tuple(rest), Arrow(dom, p.conclusion.succedent))
    return SDerivation(SRule.ArrR, concl, (p,))


def arr_l(p1: SDerivation, p2: SDerivation, principal: Arrow) -> SDerivation:
    rest = _take(_ms(p2.conclusion.antecedent), principal.cod, (),
                 "codomain assumption")
    concl = sequent(
        _ms_tuple(_ms(p1.conclusion.antecedent) + rest + _ms([principal])),
        p2.conclusion.succedent)
    return SDerivation(SRule.ArrL, concl, (p1, p2), data=principal)


def tens_r(p1: SDerivation, p2: SDerivation) -> SDerivation:
    concl = sequent(
        _ms_tuple(_ms(p1.conclusion.antecedent) + _ms(p2.conclusion.antecedent)),
        Tensor(p1.conclusion.succedent, p2.conclusion.succedent))
    return SDerivation(SRule.TensR, concl, (p1, p2))


def tens_l(p: SDerivation, principal: Tensor) -> SDerivation:
    rest = _take(_ms(p.conclusion.antecedent), principal.left, (),
                 "left component")
    rest = _take(rest, principal.right, (), "right component")
    concl = sequent(_ms_tuple(rest + _ms([principal])),
                    p.conclusion.succedent)
    return SDerivation(SRule.TensL, concl, (p,), data=principal)


def weaken(d: SDerivation, extras) -> SDerivation:
    """Add formulas to the end sequent's antecedent.

    Weakening is admissible: the extras ride up one branch until they land in
    an axiom leaf, whose context is arbitrary.
    """
    extras = list(extras)
    if not extras:
        return d
    concl = sequent(_ms_tuple(_ms(d.conclusion.antecedent) + _ms(extras)),
                    d.conclusion.succedent)
    if d.rule == SRule.ASM:
        return SDerivation(SRule.ASM, concl)
    if d.rule in (SRule.ArrR, SRule.TensL):
        return SDerivation(d.rule, concl, (weaken(d.premises[0], extras),),
                           data=d.data)
    p1, p2 = d.premises
    return SDerivation(d.rule, concl, (p1, weaken(p2, extras)), data=d.data)


# ---------------------------------------------------------------------------
# Natural deduction <-> sequents
# ---------------------------------------------------------------------------

def nd_to_sequent(t: Term) -> SDerivation:
    """Compositional translation of a typable term into a derivation of
    Gamma |- A, where Gamma is the multiset of free-variable types."""
    t = canonicalize(t)
    check(t)
    d, _ = _translate(t, {})
    return d


def _translate(t: Term, env: dict[str, TypeExpr]) -> tuple[SDerivation, TypeExpr]:
    match t:
        case Var(_, ty):
            return asm([ty], ty), ty
        case Lam(b, bt, body):
            db, bty = _translate(body, env | {b: bt})
            if b not in free_names(body):
                db = weaken(db, [bt])
            return arr_r(db, bt), Arrow(bt, bty)
        case App(fun, arg):
            df, fty = _translate(fun, env)
            da, _ = _translate(arg, env)
            assert isinstance(fty, Arrow)
            hook = asm([fty.cod], fty.cod)
            return cut(df, arr_l(da, hook, fty)), fty.cod
        case Pair(a, b):
            da, _ = _translate(a, env)
            db, _ = _translate(b, env)
            return tens_r(da, db), Tensor(da.conclusion.succedent,
                                          db.conclusion.succedent)
        case Let(x, xt, y, yt, scrut, body):
            ds, _ = _translate(scrut, env)
            db, bty = _translate(body, env | {x: xt, y: yt})
            fns = free_names(body)
            missing = [ty for name, ty in ((x, xt), (y, yt)) if name not in fns]
            if missing:
                db = weaken(db, missing)
            return cut(ds, tens_l(db, Tensor(xt, yt))), bty
        case Break(scrut, phi, f, residue, body):
            ds, sty = _translate(scrut, env)
            k, s = ks_types(sty, residue)
            db, bty = _translate(body, env | {phi: k, f: s})
            fns = free_names(body)
            missing = [ty for name, ty in ((phi, k), (f, s)) if name not in fns]
            if missing:
                db = weaken(db, missing)
            return brk(ds, db, residue), bty
    raise TypeError(f"not a term: {t!r}")


def sequent_to_term(d: SDerivation) -> Term:
    """Extract a term from a valid derivation: cuts become substitutions,
    break nodes become break terms."""
    check_derivation(d)
    counter = itertools.count()

    def fresh(base: str) -> str:
        return f"{base}{next(counter)}"

    def split(ctx: list[tuple[str, TypeExpr]], needed: Counter):
        """Partition ctx entries into one part matching the multiset `needed`
        and the rest."""
        need = needed.copy()
        taken, rest = [], []
        for name, ty in ctx:
            if need[ty] > 0:
                need[ty] -= 1
                taken.append((name, ty))
            else:
                rest.append((name, ty))
        if +need:
            raise InvalidRule((), "context split failed")
        return taken, rest

    def pick(ctx: list[tuple[str, TypeExpr]], ty: TypeExpr):
        for i, (name, t2) in enumerate(ctx):
            if t2 == ty:
                return (name, ty), ctx[:i] + ctx[i + 1:]
        raise InvalidRule((), f"no assumption of type {print_type(ty)}")

    def go(d: SDerivation, ctx: list[tuple[str, TypeExpr]]) -> Term:
        match d.rule:
            case SRule.ASM:
                (name, ty), _ = pick(ctx, d.conclusion.succedent)
                return Var(name, ty)
            case SRule.CUT:
                p1, p2 = d.premises
                a = p1.conclusion.succedent
                ctx1, rest = split(ctx, _ms(p1.conclusion.antecedent))
                x = fresh("cutv")
                t2 = go(p2, rest + [(x, a)])
                t1 = go(p1, ctx1)
                return substitute(t2, [(x, t1)])
            case SRule.BRK:
                p1, p2 = d.premises
                a = p1.conclusion.succedent
                k, s = ks_types(a, d.data)
                ctx1, rest = split(ctx, _ms(p1.conclusion.antecedent))
                phi, f = fresh("phi"), fresh("sec")
                t2 = go(p2, rest + [(phi, k), (f, s)])
                t1 = go(p1, ctx1)
                return Break(t1, phi, f, d.data, t2)
            case SRule.ArrR:
                (p,) = d.premises
                dom = d.conclusion.succedent.dom
                x = fresh("x")
                return Lam(x, dom, go(p, ctx + [(x, dom)]))
            case SRule.ArrL:
                p1, p2 = d.premises
                principal: Arrow = d.data
                (g, _), rest0 = pick(ctx, principal)
                ctx1, rest = split(rest0, _ms(p1.conclusion.antecedent))
                x = fresh("r")
                t2 = go(p2, rest + [(x, principal.cod)])
                t1 = go(p1, ctx1)
                return substitute(t2, [(x, App(Var(g, principal), t1))])
            case SRule.TensR:
                p1, p2 = d.premises
                ctx1, ctx2 = split(ctx, _ms(p1.conclusion.antecedent))
                return Pair(go(p1, ctx1), go(p2, ctx2))
            case SRule.TensL:
                (p,) = d.premises
                principal: Tensor = d.data
                (v, _), rest = pick(ctx, principal)
                x, y = fresh("a"), fresh("b")
                body = go(p, rest + [(x, principal.left), (y, principal.right)])
                return Let(x, principal.left, y, principal.right,
                           Var(v, principal), body)
        raise TypeError(f"unknown rule {d.rule!r}")

    ctx0 = [(fresh("h"), ty) for ty in d.conclusion.antecedent]
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

    def bump(n: int = 1) -> None:
        built[0] += n
        if built[0] > node_budget:
            raise BudgetExceeded(f"more than {node_budget} nodes built")

    def rebuild(d: SDerivation, premises: tuple[SDerivation, ...]) -> SDerivation:
        bump()
        return SDerivation(d.rule, d.conclusion, premises, d.data)

    def elim(d: SDerivation) -> SDerivation:
        premises = tuple(elim(p) for p in d.premises)
        if d.rule != SRule.CUT:
            return rebuild(d, premises)
        return combine(premises[0], premises[1])

    def combine(p1: SDerivation, p2: SDerivation) -> SDerivation:
        """Cut-free equivalent of cut(p1, p2); both inputs are cut-free."""
        bump()
        a = p1.conclusion.succedent

        if p1.rule == SRule.ASM:
            extras = _take(_ms(p1.conclusion.antecedent), a, (), "axiom formula")
            return weaken(p2, _ms_tuple(extras))
        if p2.rule == SRule.ASM:
            c = p2.conclusion.succedent
            others = _take(_ms(p2.conclusion.antecedent), a, (), "cut formula")
            if others[c] >= 1:
                return asm(_ms_tuple(_ms(p1.conclusion.antecedent) + others), c)
            # the axiom's formula is the cut formula itself
            return weaken(p1, _ms_tuple(others))

        if p1.rule in (SRule.ArrR, SRule.TensR):
            if _principal_match(p1, p2):
                return principal_cut(p1, p2)
            return push_right(p1, p2)
        # p1 ends in a left rule or break: push the cut into the branch
        # providing the succedent
        return push_left(p1, p2)

    def _principal_match(p1: SDerivation, p2: SDerivation) -> bool:
        a = p1.conclusion.succedent
        if p1.rule == SRule.ArrR:
            return p2.rule == SRule.ArrL and p2.data == a
        return p2.rule == SRule.TensL and p2.data == a

    def principal_cut(p1: SDerivation, p2: SDerivation) -> SDerivation:
        if p1.rule == SRule.ArrR:
            # cut of A1 -> A2 against its left rule: two smaller cuts
            (q,) = p1.premises
            q1, q2 = p2.premises
            return combine(combine(q1, q), q2)
        # pair: cut each component
        r1, r2 = p1.premises
        (q,) = p2.premises
        return combine(r1, combine(r2, q))

    def push_left(p1: SDerivation, p2: SDerivation) -> SDerivation:
        match p1.rule:
            case SRule.ArrL:
                r1, r2 = p1.premises
                inner = combine(r2, p2)
                bump()
                return arr_l(r1, inner, p1.data)
            case SRule.TensL:
                (r,) = p1.premises
                inner = combine(r, p2)
                bump()
                return tens_l(inner, p1.data)
            case SRule.BRK:
                r1, r2 = p1.premises
                inner = combine(r2, p2)
                bump()
                return brk(r1, inner, p1.data)
        raise InvalidRule((), f"cannot push cut past {p1.rule.value}")

    def push_right(p1: SDerivation, p2: SDerivation) -> SDerivation:
        a = p1.conclusion.succedent
        match p2.rule:
            case SRule.ArrR:
                (q,) = p2.premises
                inner = combine(p1, q)
                bump()
                return arr_r(inner, p2.conclusion.succedent.dom)
            case SRule.ArrL:
                q1, q2 = p2.premises
                if _ms(q1.conclusion.antecedent)[a] >= 1:
                    inner = combine(p1, q1)
                    bump()
                    return arr_l(inner, q2, p2.data)
                avail = _take(_ms(q2.conclusion.antecedent), p2.data.cod, (),
                              "codomain assumption")
                if avail[a] < 1:
                    raise InvalidRule((), "cut formula lost in left arrow rule")
                inner = combine(p1, q2)
                bump()
                return arr_l(q1, inner, p2.data)
            case SRule.TensR:
                q1, q2 = p2.premises
                if _ms(q1.conclusion.antecedent)[a] >= 1:
                    inner = combine(p1, q1)
                    bump()
                    return tens_r(inner, q2)
                inner = combine(p1, q2)
                bump()
                return tens_r(q1, inner)
            case SRule.TensL:
                (q,) = p2.premises
                inner = combine(p1, q)
                bump()
                return tens_l(inner, p2.data)
            case SRule.BRK:
                q1, q2 = p2.premises
                if _ms(q1.conclusion.antecedent)[a] >= 1:
                    inner = combine(p1, q1)
                    bump()
                    return brk(inner, q2, p2.data)
                inner = combine(p1, q2)
                bump()
                return brk(q1, inner, p2.data)
        raise InvalidRule((), f"cannot push cut into {p2.rule.value}")

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


def _infer_break_pair(d_a: SDerivation, d_c: SDerivation) -> TypeExpr:
    """Residue B such that both derived break assumptions for A sit in d_c."""
    a = d_a.conclusion.succedent
    ant = _ms(d_c.conclusion.antecedent)
    for formula in sorted(ant, key=_type_key):
        if isinstance(formula, Arrow) and formula.cod == a:
            b = formula.dom
            k, s = ks_types(a, b)
            if ant[k] >= 1 and ant[s] >= 1:
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
    ant = _ms(d_c.conclusion.antecedent)
    if ant[k] < 1 or ant[s] < 1:
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
    ant = _ms(d_c.conclusion.antecedent)
    if which not in ("K-side", "S-side"):
        raise ValueError(f"which must be 'K-side' or 'S-side', got {which!r}")
    if residue is not None:
        k, s = ks_types(a, residue)
        needed = s if which == "K-side" else k
        if ant[needed] < 1:
            raise PreconditionViolation(
                f"assumption {print_type(needed)} not in the second derivation")
        helper = (_derive_section(d_a, residue) if which == "K-side"
                  else _derive_hof(d_a, residue))
        return cut(helper, d_c)
    if which == "K-side":
        for formula in sorted(ant, key=_type_key):
            if isinstance(formula, Arrow) and formula.cod == a:
                b = formula.dom
                k, _ = ks_types(a, b)
                if ant[k] >= 1:
                    raise PreconditionViolation(
                        "higher-order assumption present; it must be superfluous")
                return cut(_derive_section(d_a, b), d_c)
        raise PreconditionViolation("no section assumption found")
    for formula in sorted(ant, key=_type_key):
        match formula:
            case Arrow(dom=Arrow(dom=a2, cod=b1), cod=b2) if (
                    a2 == a and b1 == b2):
                _, s = ks_types(a, b1)
                if ant[s] >= 1:
                    raise PreconditionViolation(
                        "section assumption present; it must be superfluous")
                return cut(_derive_hof(d_a, b1), d_c)
    raise PreconditionViolation("no higher-order assumption found")


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
        ant = _ms(goal.antecedent)
        if ant[goal.succedent] >= 1:
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
        for formula in sorted(set(ant), key=_type_key):
            rest = _take(ant, formula, (), "assumption")
            match formula:
                case Arrow(dom, cod):
                    for g1, g2 in _splits(_ms_tuple(rest)):
                        s1 = search(sequent(g1, dom), d - 1)
                        if s1 is None:
                            continue
                        s2 = search(sequent(g2 + (cod,), goal.succedent), d - 1)
                        if s2 is not None:
                            return arr_l(s1, s2, formula)
                case Tensor(left, right):
                    sub = search(sequent(_ms_tuple(rest) + (left, right),
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
        key = (tuple(sorted(left, key=_type_key)),)
        if key in seen:
            continue
        seen.add(key)
        yield left, right


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def print_derivation(d: SDerivation, indent: int = 0) -> str:
    pad = "  " * indent
    head = f"({d.rule.value}"
    if d.data is not None:
        head += " {" + print_type(d.data) + "}"
    head += f" [{d.conclusion}]"
    if not d.premises:
        return pad + head + ")"
    lines = [pad + head]
    lines.extend(print_derivation(p, indent + 1) for p in d.premises)
    lines[-1] += ")"
    return "\n".join(lines)


def parse_derivation(text: str) -> SDerivation:
    from .parser import ParseError, TokenStream, parse_type_stream, tokenize

    ts = TokenStream(tokenize(text))

    def node() -> SDerivation:
        ts.expect("LPAREN", "'('")
        tok = ts.expect("IDENT", "rule name")
        try:
            rule = SRule(tok.value)
        except ValueError:
            raise ParseError(f"unknown rule {tok.value!r}", tok.span,
                             [r.value for r in SRule]) from None
        data = None
        if ts.peek().kind == "LBRACE":
            ts.next()
            data = parse_type_stream(ts)
            ts.expect("RBRACE", "'}'")
        ts.expect("LBRACK", "'['")
        ant: list[TypeExpr] = []
        if ts.peek().kind != "TURNSTILE":
            ant.append(parse_type_stream(ts))
            while ts.peek().kind == "COMMA":
                ts.next()
                ant.append(parse_type_stream(ts))
        ts.expect("TURNSTILE", "'|-'")
        suc = parse_type_stream(ts)
        ts.expect("RBRACK", "']'")
        premises = []
        while ts.peek().kind == "LPAREN":
            premises.append(node())
        ts.expect("RPAREN", "')'")
        return SDerivation(rule, sequent(ant, suc), tuple(premises), data)

    d = node()
    tok = ts.peek()
    if tok.kind != "EOF":
        raise ParseError(f"trailing input {tok.value!r}", tok.span,
                         ["end of input"])
    return d
