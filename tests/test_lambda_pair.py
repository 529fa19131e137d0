"""The pairing lambda calculus target and the erasing translation."""

import random

import pytest

from breakcalc.catalog import identity_break
from breakcalc.lambda_pair import (
    LApp, LLam, LPair, LProj0, LProj1, LTypeError, LVar, MappingFailure,
    l_alpha_eq, l_alpha_key, l_check, l_contract_at, l_normalize, l_step,
    check_step_mapping, check_substitution_lemma, star_translate,
)
from breakcalc.lambda_pair import _k0, _k1
from breakcalc.printer import print_lterm, print_type
from breakcalc.reduction import Redex, RuleName, find_redexes, is_silent
from breakcalc.syntax import (
    App, Arrow, Atom, Break, Lam, Let, Pair, Tensor, Var, annotated_type,
    canonicalize, free_vars, fresh_name, substitute,
)
from breakcalc.typecheck import check
from termgen import clashing_copy, random_typable_term
from test_golden_outputs import golden_items

P, Q, R = Atom("P"), Atom("Q"), Atom("R")
A, B = Atom("A"), Atom("B")


class TestStarTranslate:
    def test_variable(self):
        assert star_translate(Var("x", A)) == LVar("x")

    def test_break_becomes_applied_combinators(self):
        k, s = Arrow(Arrow(A, B), B), Arrow(B, A)
        t = Break(Var("x", A), "phi", "f", B,
                  App(Var("phi", k), Var("f", s)))
        k0 = LLam("x", A, LLam("p", Arrow(A, B), LApp(LVar("p"), LVar("x"))))
        k1 = LLam("x", A, LLam("z", B, LVar("x")))
        expected = LApp(LApp(k0, LVar("x")), LApp(k1, LVar("x")))
        assert l_alpha_eq(star_translate(t), expected)

    def test_let_becomes_projection(self):
        t = Let("x", A, "y", B, Var("v", Tensor(A, B)), Var("x", A))
        assert l_alpha_eq(star_translate(t), LProj0(LVar("v")))

    def test_type_preserved_on_random_terms(self):
        rng = random.Random(51)
        for _ in range(200):
            t = random_typable_term(rng, max_size=28)
            ty = check(t)
            assert l_check(star_translate(t), free_vars(t)) == ty


def substituting_star(t):
    """The translation as it was, with a capture-avoiding substitution for
    each let and break: the reference the environment must agree with."""
    match t:
        case Var(name, _):
            return LVar(name)
        case Lam(b, bt, body):
            return LLam(b, bt, substituting_star(body))
        case App(fun, arg):
            return LApp(substituting_star(fun), substituting_star(arg))
        case Pair(a, b):
            return LPair(substituting_star(a), substituting_star(b))
        case Let(x, _, y, _, scrut, body):
            s_img = substituting_star(scrut)
            return substitute(substituting_star(body),
                              {x: LProj0(s_img), y: LProj1(s_img)})
        case Break(scrut, phi, f, residue, body):
            a = annotated_type(scrut)
            s_img = substituting_star(scrut)
            return substitute(substituting_star(body),
                              {phi: LApp(_k0(a, residue), s_img),
                               f: LApp(_k1(a, residue), s_img)})
    raise TypeError(f"not a term: {t!r}")


class TestStarEnvironment:
    """_star substitutes through an environment, which builds the same
    image as substituting after each let and break."""

    def test_equals_the_substituting_reference(self):
        terms = [t for _, t in golden_items()]
        rng = random.Random(20261024)
        for _ in range(1000):
            t = random_typable_term(rng, max_size=30)
            terms += [t, clashing_copy(t, rng)]
        for t in terms:
            assert star_translate(t) == substituting_star(canonicalize(t)), t

    def test_each_translation_starts_with_an_empty_environment(self):
        ab = Tensor(A, B)
        first = Lam("p", ab, Let("x", A, "y", B, Var("p", ab), Var("x", A)))
        again = Lam("q", ab, Let("x", A, "y", B, Var("q", ab), Var("x", A)))
        bound = Lam("x", A, Var("x", A))
        free = Pair(Var("x", A), Var("y", B))
        star_translate(first)
        assert star_translate(again) == LLam("q", ab, LProj0(LVar("q")))
        assert star_translate(bound) == LLam("x", A, LVar("x"))
        assert star_translate(free) == LPair(LVar("x"), LVar("y"))


class TestLCheckErrors:
    def test_bad_application_prints_surface_types(self):
        e = LApp(LVar("f"), LVar("x"))
        with pytest.raises(LTypeError) as exc:
            l_check(e, {"f": Arrow(Tensor(A, B), B), "x": Arrow(A, B)})
        assert str(exc.value) == "bad application of A * B -> B to A -> B"

    def test_application_of_non_function_prints_surface_types(self):
        e = LApp(LVar("f"), LVar("x"))
        with pytest.raises(LTypeError) as exc:
            l_check(e, {"f": A, "x": A})
        assert str(exc.value) == "bad application of A to A"

    def test_free_variable_without_environment(self):
        with pytest.raises(LTypeError) as exc:
            l_check(LApp(LLam("x", A, LVar("x")), LVar("y")))
        assert str(exc.value) == "no type for free variable 'y'"

    def test_projection_from_non_pair_prints_surface_type(self):
        e = LProj1(LVar("p"))
        with pytest.raises(LTypeError) as exc:
            l_check(e, {"p": Arrow(Arrow(A, B), B)})
        assert str(exc.value) == "projection from non-pair type (A -> B) -> B"


class TestLReduction:
    def test_projection(self):
        e = LProj0(LPair(LVar("s"), LVar("t")))
        assert l_step(e) == [LVar("s")]

    def test_beta(self):
        e = LApp(LLam("x", A, LVar("x")), LVar("y"))
        assert l_step(e) == [LVar("y")]

    def test_identity_image_collapses_when_applied(self):
        s = Lam("w", P, Var("w", P))
        applied = App(identity_break(Arrow(P, P)), s)
        lhs = l_normalize(star_translate(applied))
        rhs = l_normalize(star_translate(s))
        assert l_alpha_eq(lhs, rhs)

    def test_contracting_a_non_redex_rejected(self):
        e = LApp(LVar("f"), LApp(LLam("x", A, LVar("x")), LVar("y")))
        assert l_contract_at(e, (1,)) == LApp(LVar("f"), LVar("y"))
        for path in ((), (0,), (1, 0)):
            with pytest.raises(ValueError) as exc:
                l_contract_at(e, path)
            assert str(exc.value) == f"no redex at {list(path)}"
        with pytest.raises(IndexError, match="no child -1 at LApp"):
            l_contract_at(e, (-1,))

    def test_negative_budget_rejected(self):
        for e in (LVar("x"), LProj0(LPair(LVar("s"), LVar("t")))):
            with pytest.raises(ValueError):
                l_normalize(e, -1)

    def test_unique_normal_forms_on_random_images(self):
        rng = random.Random(52)
        for _ in range(100):
            t = random_typable_term(rng, max_size=22)
            e = star_translate(t)
            classes = {l_alpha_key(l_normalize(u)) for u in l_step(e)}
            assert len(classes) <= 1


class TestSubstitutionLemma:
    def test_variable_base_case(self):
        assert check_substitution_lemma(Var("x", A), Var("t0", A), "x")

    def test_break_with_application_body(self):
        k, s = Arrow(Arrow(A, B), B), Arrow(B, A)
        body = App(Var("phi", k), App(Var("g", Arrow(P, Arrow(A, B))),
                                      Var("x", P)))
        term = Break(Var("y", A), "phi", "f", B, body)
        closed = Lam("c", P, Var("c", P))
        # substituted term must have the variable's type; x : P here
        assert check_substitution_lemma(term, Var("x'", P), "x")

    def test_random_triples(self):
        rng = random.Random(53)
        checked = 0
        for _ in range(400):
            s = random_typable_term(rng, max_size=22)
            fv = free_vars(s)
            if not fv:
                continue
            x = sorted(fv)[0]
            t = random_typable_term(rng, max_size=10)
            # retype: build a replacement of the right type instead
            repl = Var(fresh_name("rp", set(fv)), fv[x])
            target = t if check(t) == fv[x] else repl
            assert check_substitution_lemma(s, target, x)
            checked += 1
        assert checked > 200


class TestStepMapping:
    def test_beta_maps_to_one_step(self):
        t = App(Lam("x", A, Var("x", A)), Var("y", A))
        v = check_step_mapping(t, Redex((), RuleName.BETA))
        assert v.clause == "reduced" and v.steps == 1

    def test_permuting_step_maps_to_equality(self):
        w = App(Let("x", Arrow(P, Q), "y", R,
                    Var("t0", Tensor(Arrow(P, Q), R)), Var("x", Arrow(P, Q))),
                Var("r", P))
        v = check_step_mapping(w, Redex((), RuleName.AP_L_CONV))
        assert v.clause == "equal"

    def test_silent_break_maps_to_equality(self):
        t = Break(Var("a", P), "phi", "f", Q, Var("z", R))
        v = check_step_mapping(t, Redex((), RuleName.B_CONV))
        assert v.clause == "equal"

    def test_non_silent_break_counts_occurrences(self):
        s = Lam("w", P, Var("w", P))
        a = Arrow(P, P)
        t = Break(s, "phi", "f", a,
                  App(Var("phi", Arrow(Arrow(a, a), a)), Var("f", Arrow(a, a))))
        v = check_step_mapping(t, Redex((), RuleName.B_CONV))
        assert v.clause == "reduced" and v.steps == 2

    def test_dead_context_standard_step_maps_to_equality(self):
        # a beta redex inside a discarded let scrutinee: the translation
        # erases it entirely, so the image cannot take a step
        redex = App(Lam("z", P, Var("z", P)), Var("c", P))
        t = Let("x", P, "y", Q, Pair(redex, Var("d", Q)), Var("e", R))
        v = check_step_mapping(t, Redex((0, 0), RuleName.BETA))
        assert v.clause == "equal" and v.dead_context

    def test_every_step_of_random_terms_maps(self):
        rng = random.Random(54)
        reduced = equal = dead = 0
        for _ in range(250):
            t = random_typable_term(rng, max_size=25)
            for r in find_redexes(t):
                v = check_step_mapping(t, r)
                silent = (r.rule in (RuleName.L_CONV, RuleName.B_CONV)
                          and is_silent(t, r))
                if r.rule == RuleName.BETA or (
                        r.rule in (RuleName.L_CONV, RuleName.B_CONV)
                        and not silent):
                    if v.dead_context:
                        dead += 1
                    else:
                        assert v.clause == "reduced" and v.steps >= 1
                        reduced += 1
                else:
                    assert v.clause == "equal"
                    equal += 1
        assert reduced > 100 and equal > 300

    def test_experimental_rule_has_no_mapping(self):
        k = Arrow(Arrow(A, B), B)
        scrut = Let("x", P, "y", Q, Var("t", Tensor(P, Q)), Var("u", A))
        w = Break(scrut, "phi", "f", B,
                  App(Var("phi", k), Var("h", Arrow(A, B))))
        with pytest.raises(MappingFailure):
            check_step_mapping(w, Redex((), RuleName.B_L_CONV))


# ---------------------------------------------------------------------------
# print_lterm against the printer it replaced, which passed a precedence
# context down instead of testing the child's class
# ---------------------------------------------------------------------------

def reference_print_lterm(e) -> str:
    """print_lterm with contexts: 0 at the top, 1 in function position and
    2 in argument position; a lambda is parenthesized above 0, an
    application at 2."""
    def go(e, ctx: int) -> str:
        match e:
            case LVar(name):
                return name
            case LLam(b, bt, body):
                s = f"\\{b}:{print_type(bt)}. {go(body, 0)}"
                return f"({s})" if ctx > 0 else s
            case LApp(fun, arg):
                s = f"{go(fun, 1)} {go(arg, 2)}"
                return f"({s})" if ctx >= 2 else s
            case LPair(first, second):
                return f"<{go(first, 0)}, {go(second, 0)}>"
            case LProj0(arg):
                return f"p0({go(arg, 0)})"
            case LProj1(arg):
                return f"p1({go(arg, 0)})"
        raise TypeError(f"not a lambda-pair term: {e!r}")

    return go(e, 0)


class TestPrintLtermAgainstReference:
    def test_every_position_of_a_lambda_and_an_application(self):
        lam, app = LLam("x", A, LVar("x")), LApp(LVar("f"), LVar("y"))
        for outer in (lam, app):
            for inner in (lam, app):
                for e in (LApp(outer, inner), LLam("z", B, LApp(inner, outer)),
                          LPair(outer, inner), LProj0(LApp(inner, outer))):
                    assert print_lterm(e) == reference_print_lterm(e)
        assert print_lterm(LApp(lam, LApp(app, lam))) == \
            "(\\x:A. x) (f y (\\x:A. x))"

    def test_golden_items_and_seeded_terms(self):
        terms = [t for _, t in golden_items()]
        for seed in range(1, 6):
            rng = random.Random(seed)
            terms += [random_typable_term(rng) for _ in range(40)]
        for t in terms:
            image = star_translate(t)
            for e in (image, l_normalize(image)):
                assert print_lterm(e) == reference_print_lterm(e)
