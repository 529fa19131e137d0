"""Simply typed lambda calculus with pairs and projections, and the
size-respecting translation into it used to justify termination.

The translation erases lets and breaks into substitutions: a let body receives
projections of the translated scrutinee, and a break body receives the two
closed combinators ``\\x. \\p. p x`` and ``\\x. \\z. x`` applied to it.

The λ-pair rules are records of the kind of reduction.RULES, and how a
break-calculus step maps through the translation is its record's clause.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from typing import NamedTuple

from .reduction import (
    RULE, Redex, Rule, RuleName, apply_step, first_redex, is_silent,
    reduce_steps, rule_matcher,
)
from .syntax import (
    App, Arrow, Break, FreeNames, Lam, Let, Node, Pair, Tensor, Term,
    TypeExpr, Var, all_names, alpha_eq, alpha_key, annotated_type, binders,
    canonicalize, children, constructor, distinct_reducts, free_positions,
    fresh_name, graft, print_type, replace_at, subterm_at, substitute,
    subterms,
)

# This module's names for three of the shared term operations.
l_children, l_alpha_eq, l_alpha_key = children, alpha_eq, alpha_key


class LTerm(Node):
    __slots__ = ()


@constructor("v", var="name")
class LVar(LTerm, namedtuple("LVar", "name")):
    __slots__ = ()


@constructor("l", kids=("body",), binders=("binder",), over="body",
             annots=("binder_type",))
class LLam(LTerm, namedtuple("LLam", "binder binder_type body")):
    __slots__ = ()


@constructor("a", kids=("fun", "arg"))
class LApp(LTerm, namedtuple("LApp", "fun arg")):
    __slots__ = ()


@constructor("p", kids=("first", "second"))
class LPair(LTerm, namedtuple("LPair", "first second")):
    __slots__ = ()


@constructor("p0", kids=("arg",))
class LProj0(LTerm, namedtuple("LProj0", "arg")):
    __slots__ = ()


@constructor("p1", kids=("arg",))
class LProj1(LTerm, namedtuple("LProj1", "arg")):
    __slots__ = ()


class LTypeError(Exception):
    pass


class MappingFailure(Exception):
    """A conversion step whose image misbehaves; indicates an implementation bug."""


# ---------------------------------------------------------------------------
# Typing
# ---------------------------------------------------------------------------

def l_check(e: LTerm, env: dict[str, TypeExpr] | None = None) -> TypeExpr:
    """Simple type checking; contraction and weakening are both fine here."""
    env = dict(env or {})

    def go(e: LTerm, env: dict[str, TypeExpr]) -> TypeExpr:
        match e:
            case LVar(name):
                if name not in env:
                    raise LTypeError(f"no type for free variable {name!r}")
                return env[name]
            case LLam(b, bt, body):
                return Arrow(bt, go(body, env | {b: bt}))
            case LApp(fun, arg):
                ft = go(fun, env)
                at = go(arg, env)
                if not isinstance(ft, Arrow) or ft.dom != at:
                    raise LTypeError(f"bad application of {print_type(ft)} to "
                                     f"{print_type(at)}")
                return ft.cod
            case LPair(a, b):
                return Tensor(go(a, env), go(b, env))
            case LProj0(a) | LProj1(a):
                ty = go(a, env)
                if not isinstance(ty, Tensor):
                    raise LTypeError(
                        f"projection from non-pair type {print_type(ty)}")
                return ty.left if isinstance(e, LProj0) else ty.right
        raise TypeError(f"not a lambda-pair term: {e!r}")

    return go(e, env)


# ---------------------------------------------------------------------------
# Reduction: beta plus the two projection rules
# ---------------------------------------------------------------------------

#: The λ-pair rules.  Beta is the break calculus's record on LApp and LLam,
#: laid out as App and Lam.  A λ-pair term is its own image, so each step
#: maps to one step at the root: the "beta" clause.
L_RULES = (
    RULE[RuleName.BETA]._replace(outer=LApp, inner=LLam),
    Rule("proj0", LProj0, LPair, None, lambda t, fn: t.arg.first, "beta"),
    Rule("proj1", LProj1, LPair, None, lambda t, fn: t.arg.second, "beta"),
)
_L_RULE = {r.name: r for r in L_RULES}
_l_rules = rule_matcher(L_RULES)


def l_find_redexes(e: LTerm) -> list[tuple[int, ...]]:
    return [path for path, sub in subterms(e) if _l_rules(sub, False, None)]


def l_contract_at(e: LTerm, path: tuple[int, ...]) -> LTerm:
    node = subterm_at(e, path)
    rules = _l_rules(node, False, None)
    if not rules:
        raise ValueError(f"no redex at {list(path)}")
    return replace_at(e, path, _L_RULE[rules[0]].contract(node, None))


def l_step(e: LTerm) -> list[LTerm]:
    """All one-step reducts, deduplicated up to alpha equivalence by shape
    hash and confirmed by alpha_key, as in reducts_one_step."""
    names = FreeNames()
    return distinct_reducts(e, lambda node: _l_rules(node, False, names),
                            lambda node, rule:
                            _L_RULE[rule].contract(node, names))


def l_normalize(e: LTerm, max_steps: int = 100_000) -> LTerm:
    """Leftmost-outermost normalization to the unique normal form.

    StepBudgetExceeded if a redex is left after max_steps steps; ValueError
    if max_steps is negative.  Runs the resumable search of normalize's
    first strategy.
    """
    names = FreeNames()
    search = functools.partial(
        first_redex, rules_at=lambda node: _l_rules(node, False, names))
    for _, _, e in reduce_steps(
            e, max_steps, search,
            lambda node, rule: _L_RULE[rule].contract(node, names)):
        pass  # e becomes each step's result in turn
    return e


# ---------------------------------------------------------------------------
# Translation
# ---------------------------------------------------------------------------

def _k0(a: TypeExpr, b: TypeExpr) -> LTerm:
    # \x:a. \p:a->b. p x
    return LLam("x", a, LLam("p", Arrow(a, b), LApp(LVar("p"), LVar("x"))))


def _k1(a: TypeExpr, b: TypeExpr) -> LTerm:
    # \x:a. \z:b. x
    return LLam("x", a, LLam("z", b, LVar("x")))


def star_translate(t: Term) -> LTerm:
    """Translate a typable term; lets and breaks become substitutions.

    The image is simply typable at the same type, with the pair type read as a
    product.  t is canonicalised, so that _star substitutes with no capture.
    """
    return _star(canonicalize(t), {})


def _star(t: Term, env: dict[str, LTerm]) -> LTerm:
    """The image of a canonical t, where env, empty at the top, maps each
    let and break binder met so far to its image.  No binder can capture a
    name of an image: the combinators are closed, and a canonical term's
    binders shadow nothing, which also lets env only grow."""
    match t:
        case Var(name, _):
            return env[name] if name in env else LVar(name)
        case Lam(b, bt, body):
            return LLam(b, bt, _star(body, env))
        case App(fun, arg):
            return LApp(_star(fun, env), _star(arg, env))
        case Pair(a, b):
            return LPair(_star(a, env), _star(b, env))
        case Let(x, _, y, _, scrut, body):
            s_img = _star(scrut, env)
            env[x], env[y] = LProj0(s_img), LProj1(s_img)
            return _star(body, env)
        case Break(scrut, phi, f, residue, body):
            a = annotated_type(scrut)
            s_img = _star(scrut, env)
            env[phi] = LApp(_k0(a, residue), s_img)
            env[f] = LApp(_k1(a, residue), s_img)
            return _star(body, env)
    raise TypeError(f"not a term: {t!r}")


def check_substitution_lemma(s: Term, t: Term, x: str) -> bool:
    """Translation first or substitution first must agree up to alpha."""
    lhs = star_translate(substitute(s, [(x, t)]))
    rhs = substitute(star_translate(s), {x: star_translate(t)})
    return alpha_eq(lhs, rhs)


# ---------------------------------------------------------------------------
# Step mapping
# ---------------------------------------------------------------------------

class StepMappingVerdict(NamedTuple):
    """clause is "reduced" (image took steps) or "equal" (images coincide)."""

    clause: str
    steps: int = 0
    dead_context: bool = False


def check_step_mapping(t: Term, r: Redex) -> StepMappingVerdict:
    """Verify how one conversion step maps through the translation.

    Non-silent standard steps must map to one or more beta/projection steps;
    silent and permuting steps must leave the image unchanged up to alpha.
    The verification decomposes the image as context-plus-copies, replays the
    local contractions at their known positions in one copy, and checks the
    recomposition against the image of the stepped term.

    A non-silent standard redex can still map to equality when the
    translation erases its position outright (a discarded scrutinee); such
    verdicts carry dead_context=True.
    """
    t = canonicalize(t)
    rule = RULE.get(r.rule)
    if rule and rule.clause is None:
        raise MappingFailure("experimental rule has no mapping guarantee")
    t_after = apply_step(t, r)  # InvalidRedex unless a rule matches as r says
    img_before = _star(t, {})
    img_after = star_translate(t_after)

    silent = rule.clause == "substitution" and is_silent(t, r)
    if rule.clause == "unchanged" or silent:
        if alpha_eq(img_before, img_after):
            return StepMappingVerdict("equal")
        raise MappingFailure(f"image changed under {r.rule}")

    def equal_verdict() -> StepMappingVerdict:
        if alpha_eq(img_before, img_after):
            return StepMappingVerdict("equal", dead_context=True)
        raise MappingFailure("erased redex changed the image")

    node = subterm_at(t, r.position)
    hole = fresh_name("hole", all_names(t))
    ctx = replace_at(t, r.position, Var(hole, annotated_type(node)))
    ctx_img = _star(ctx, {})
    hole_paths = free_positions(ctx_img, hole)
    if not hole_paths:
        return equal_verdict()

    # every copy received the same pending substitutions, so the subtree at
    # the first hole path is the common image of the redex
    copy_img = subterm_at(img_before, hole_paths[0])
    if graft(ctx_img, hole, copy_img) != img_before:
        raise MappingFailure("context decomposition disagrees with image")

    # a beta redex at the root of the copy, or a projection or combinator
    # redex wherever the body's image has a substituted variable
    if rule.clause == "beta":
        spots = [()]
    else:
        body_img = _star(node.body, {})
        spots = [p for b in binders(node) for p in free_positions(body_img, b)]
    if not spots:
        return equal_verdict()
    stepped_copy = copy_img
    for path in spots:
        stepped_copy = l_contract_at(stepped_copy, path)
    if not alpha_eq(graft(ctx_img, hole, stepped_copy), img_after):
        raise MappingFailure("recomposed image differs from the step image")
    return StepMappingVerdict("reduced",
                              steps=len(hole_paths) * len(spots))
