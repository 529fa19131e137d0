"""Redex discovery, single-step conversion, the termination measure, and
normalization with traces.

Rules are matched in preorder (leftmost-outermost first).  The experimental
rule pushing a break past a let in its scrutinee destroys confluence and is
off unless explicitly enabled.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from .syntax import (
    App, Arrow, Break, Lam, Let, Pair, Term, Var, alpha_key, annotated_type,
    avoid_capture, binders, free_names, fresh_name, replace_at,
    subterm_at, substitute, subterms, term_size, type_size,
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


@dataclass(frozen=True, slots=True)
class Redex:
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


@dataclass(frozen=True, slots=True)
class TraceStep:
    index: int
    rule: RuleName
    position: tuple[int, ...]
    before: Term
    after: Term


# ---------------------------------------------------------------------------
# Redex discovery
# ---------------------------------------------------------------------------

def _node_rules(t: Term, experimental: bool) -> list[RuleName]:
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
            if free_names(body).isdisjoint(binders(inner)):
                rules.append(RuleName.L_L_CONV)
        case Let(scrutinee=Break() as inner, body=body):
            if free_names(body).isdisjoint(binders(inner)):
                rules.append(RuleName.L_B_CONV)
        case Break(scrutinee=scrut, phi=phi, f=f, body=body):
            fns = free_names(body)
            if phi not in fns or f not in fns or not free_names(scrut):
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
        node = subterm_at(t, r.position)
    except IndexError as exc:
        raise InvalidRedex(str(exc)) from None
    if r.rule not in _node_rules(node, experimental=True):
        raise InvalidRedex(f"{r.rule} does not match at {list(r.position)}")
    return replace_at(t, r.position, _contract(node, r.rule))


def _contract(t: Term, rule: RuleName) -> Term:
    match rule:
        case RuleName.BETA:
            assert isinstance(t, App) and isinstance(t.fun, Lam)
            return substitute(t.fun.body, [(t.fun.binder, t.arg)])
        case RuleName.L_CONV:
            assert isinstance(t, Let) and isinstance(t.scrutinee, Pair)
            return substitute(t.body, [(t.x, t.scrutinee.first),
                                       (t.y, t.scrutinee.second)])
        case RuleName.B_CONV:
            assert isinstance(t, Break)
            scrut = t.scrutinee
            a = annotated_type(scrut)
            b = t.residue
            avoid = free_names(scrut) | free_names(t.body) | {t.phi, t.f}
            p = fresh_name("p", avoid)
            z = fresh_name("z", avoid | {p})
            k_term = Lam(p, Arrow(a, b), App(Var(p, Arrow(a, b)), scrut))
            s_term = Lam(z, b, scrut)
            return substitute(t.body, [(t.phi, k_term), (t.f, s_term)])
        case RuleName.AP_L_CONV:
            assert isinstance(t, App) and isinstance(t.fun, Let)
            inner = avoid_capture(t.fun, free_names(t.arg))
            return Let(inner.x, inner.x_type, inner.y, inner.y_type,
                       inner.scrutinee, App(inner.body, t.arg))
        case RuleName.AP_B_CONV:
            assert isinstance(t, App) and isinstance(t.fun, Break)
            inner = avoid_capture(t.fun, free_names(t.arg))
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
            inner = avoid_capture(t.scrutinee, free_names(t.body))
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
    the experimental rule is enabled.
    """
    if strategy not in ("first", "last"):
        raise ValueError(f"unknown strategy {strategy!r}")
    steps: list[TraceStep] = []
    for index in range(max_steps):
        redexes = find_redexes(t, experimental)
        if not redexes:
            return t, steps
        r = redexes[0] if strategy == "first" else redexes[-1]
        after = apply_step(t, r)
        steps.append(TraceStep(index, r.rule, r.position, t, after))
        t = after
    if not find_redexes(t, experimental):
        return t, steps
    raise StepBudgetExceeded(max_steps)


def reducts_one_step(t: Term, experimental: bool = False) -> list[Term]:
    """All one-step reducts, deduplicated up to alpha equivalence."""
    seen: dict[str, Term] = {}
    for r in find_redexes(t, experimental):
        u = apply_step(t, r)
        seen.setdefault(alpha_key(u), u)
    return list(seen.values())


def format_trace(steps: list[TraceStep]) -> str:
    """One line per step: index, rule, dot-separated path, resulting term."""
    from .printer import print_term

    lines = []
    for s in steps:
        path = ".".join(str(i) for i in s.position) if s.position else "root"
        lines.append(f"{s.index} {s.rule} {path} {print_term(s.after)}")
    return "\n".join(lines)
