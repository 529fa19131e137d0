"""Reduction: redex discovery, stepping, silence, the measure, normalization,
critical pairs, and the confluence counterexample."""

import collections
import copy
import functools
import pickle
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import breakcalc.reduction as reduction_module
import breakcalc.syntax as syntax_module
from breakcalc import catalog
from breakcalc.catalog import divisibility_terms, identity_break
from breakcalc.lambda_pair import (
    L_RULES, LApp, LLam, LPair, LProj0, LProj1, check_step_mapping,
    l_contract_at, l_find_redexes, l_normalize, l_step, star_translate,
)
from breakcalc.parser import parse_term
from breakcalc.printer import TermPrinter, print_lterm, print_term
from breakcalc.reduction import (
    PERMUTING_RULES, RULES, InvalidRedex, Measure, Redex, RuleName,
    StepBudgetExceeded, Zipper, apply_step, find_redexes, format_trace,
    is_silent, measure, normalize, reducts_one_step,
)
from breakcalc.syntax import (
    SPECS, App, Arrow, Atom, Break, FreeNames, IllFormedTermError, Lam, Let,
    Node, NodeMemo, Pair, Tensor, TypeExpr, Var, _rebuild, alpha_eq,
    alpha_key, avoid_capture, binders, children, free_vars, print_type,
    replace_at, replace_child, spine_at, substitute, subterm_at, subterms,
)
from breakcalc.typecheck import UBreak, ULet, UVar, check
from schemas import critical_pair_instances, join_within, nonconfluence_witness
from termgen import clashing_copy, random_typable_term
from test_golden_outputs import ITEMS as GOLDEN_ITEMS
from test_lambda_pair import reference_print_lterm

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

P, Q, R = Atom("P"), Atom("Q"), Atom("R")
A, B = Atom("A"), Atom("B")


class TestFindRedexes:
    def test_beta_at_root(self):
        t = App(Lam("x", A, Var("x", A)), Var("y", A))
        assert find_redexes(t) == [Redex((), RuleName.BETA)]

    def test_overlapping_let_redexes(self):
        w = App(Let("x", Arrow(P, Q), "y", R,
                    Pair(Var("a", Arrow(P, Q)), Var("b", R)),
                    Var("x", Arrow(P, Q))),
                Var("r", P))
        assert find_redexes(w) == [Redex((), RuleName.AP_L_CONV),
                                   Redex((0,), RuleName.L_CONV)]

    def test_witness_redexes_without_and_with_flag(self):
        w = nonconfluence_witness()
        assert find_redexes(w) == [Redex((), RuleName.B_CONV)]
        assert find_redexes(w, experimental=True) == [
            Redex((), RuleName.B_CONV), Redex((), RuleName.B_L_CONV)]

    def test_break_on_open_scrutinee_with_both_vars_used_is_stuck(self):
        t, _ = divisibility_terms(A, B)
        assert find_redexes(t) == []

    def test_permuting_side_condition_blocks(self):
        # inner let binders free in the outer body: no l-l-conv
        inner = Let("x", P, "y", Q, Var("t", Tensor(P, Q)),
                    Pair(Var("x", P), Var("y", Q)))
        outer = Let("v", P, "w", Q, inner, Var("x", P))
        assert RuleName.L_L_CONV not in [r.rule for r in find_redexes(outer)]


class TestApplyStep:
    def test_beta(self):
        t = App(Lam("x", A, Var("x", A)), Var("y", A))
        assert apply_step(t, Redex((), RuleName.BETA)) == Var("y", A)

    def test_b_conv_on_identity_body(self):
        s = Lam("w", P, Var("w", P))
        a = Arrow(P, P)
        t = Break(s, "phi", "f", a,
                  App(Var("phi", Arrow(Arrow(a, a), a)), Var("f", Arrow(a, a))))
        out = apply_step(t, Redex((), RuleName.B_CONV))
        expected = App(Lam("p", Arrow(a, a), App(Var("p", Arrow(a, a)), s)),
                       Lam("z", a, s))
        assert alpha_eq(out, expected)

    def test_ap_b_conv(self):
        k = Arrow(Arrow(P, Q), Q)
        t = App(Break(Var("t0", P), "phi", "f", Q,
                      Var("u0", Arrow(R, Q))),
                Var("s0", R))
        out = apply_step(t, Redex((), RuleName.AP_B_CONV))
        expected = Break(Var("t0", P), "phi", "f", Q,
                         App(Var("u0", Arrow(R, Q)), Var("s0", R)))
        assert alpha_eq(out, expected)

    def test_invalid_redex_rejected(self):
        t = App(Lam("x", A, Var("x", A)), Var("y", A))
        with pytest.raises(InvalidRedex):
            apply_step(t, Redex((), RuleName.L_CONV))

    def test_path_past_a_leaf_rejected(self):
        t = Lam("x", A, Var("x", A))
        with pytest.raises(InvalidRedex, match="no child 0 at Var"):
            apply_step(t, Redex((0, 0), RuleName.BETA))
        # a negative index names no child, not the last one
        t = App(Lam("x", A, Var("x", A)),
                App(Lam("y", A, Var("y", A)), Var("a", A)))
        with pytest.raises(InvalidRedex, match="no child -1 at App"):
            apply_step(t, Redex((-1,), RuleName.BETA))

    def test_permuting_step_renames_to_avoid_capture(self):
        # (let <x, y> = t0 in u0) x  with x free in the argument
        w = App(Let("x", Arrow(P, Q), "y", R, Var("t0", Tensor(Arrow(P, Q), R)),
                    Var("u0", Arrow(P, Q))),
                Var("x", P))
        out = apply_step(w, Redex((), RuleName.AP_L_CONV))
        assert check(out) == check(w)
        assert free_vars(out) == free_vars(w)
        # only the binder that would capture is renamed
        assert print_term(out) == ("let <x':P -> Q, y:R> = (t0 : (P -> Q) * R)"
                                   " in (u0 : P -> Q) (x : P)")


class TestIsSilent:
    def test_silent_let(self):
        t = Let("x", P, "y", Q, Pair(Var("a", P), Var("b", Q)), Var("z", R))
        assert is_silent(t, Redex((), RuleName.L_CONV))

    def test_identity_break_contraction_not_silent(self):
        s = Lam("w", P, Var("w", P))
        a = Arrow(P, P)
        t = Break(s, "phi", "f", a,
                  App(Var("phi", Arrow(Arrow(a, a), a)), Var("f", Arrow(a, a))))
        assert not is_silent(t, Redex((), RuleName.B_CONV))

    def test_one_absent_variable_is_not_silent(self):
        k = Arrow(Arrow(P, Q), Q)
        t = Break(Var("x'", P), "phi", "f", Q,
                  App(Var("phi", k), Var("g'", Arrow(P, Q))))
        assert not is_silent(t, Redex((), RuleName.B_CONV))

    def test_undefined_for_permuting(self):
        """Silence is undefined for a permuting rule, beta and b-l-conv,
        each at a redex it matches."""
        t = App(Let("x", Arrow(P, Q), "y", R,
                    Var("t0", Tensor(Arrow(P, Q), R)), Var("x", Arrow(P, Q))),
                Var("r", P))
        beta = App(Lam("x", A, Var("x", A)), Var("a", A))
        b_l = Break(Let("x", P, "y", Q, Var("t", Tensor(P, Q)), Var("u", A)),
                    "phi", "f", B, Var("f", Arrow(A, B)))
        for u, rule in [(t, RuleName.AP_L_CONV), (beta, RuleName.BETA),
                        (b_l, RuleName.B_L_CONV)]:
            assert rule in [r.rule for r in find_redexes(u, True)]
            with pytest.raises(ValueError) as exc:
                is_silent(u, Redex((), rule))
            assert str(exc.value) == f"silence undefined for {rule}"

    def test_unknown_rule(self):
        """A rule name that no rule has raises ValueError from is_silent and
        InvalidRedex from apply_step and check_step_mapping, not the
        KeyError of a lookup in the rule table."""
        t = App(Lam("x", A, Var("x", A)), Var("a", A))
        r = Redex((), "no-such-conv")
        with pytest.raises(ValueError) as exc:
            is_silent(t, r)
        assert str(exc.value) == "silence undefined for no-such-conv"
        for f in (apply_step, check_step_mapping):
            with pytest.raises(InvalidRedex) as exc:
                f(t, r)
            assert str(exc.value) == "no-such-conv does not match at []"

    def test_rule_must_match_at_the_position(self):
        """A rule that does not match is rejected as apply_step rejects it,
        whether the node lacks the fields it reads or has them."""
        t = App(Lam("x", A, Var("x", A)), Var("a", A))
        for r, message in [
                (Redex((), RuleName.L_CONV), "l-conv does not match at []"),
                (Redex((0,), RuleName.B_CONV), "b-conv does not match at [0]")]:
            for f in (is_silent, apply_step):
                with pytest.raises(InvalidRedex) as exc:
                    f(t, r)
                assert str(exc.value) == message


class TestMeasure:
    def test_variable(self):
        assert measure(Var("x", A)) == Measure(1, 0, 0)

    def test_ap_l_conv_drops_only_type_load(self):
        w = App(Let("x", Arrow(P, R), "y", Q,
                    Var("v", Tensor(Arrow(P, R), Q)), Var("x", Arrow(P, R))),
                Var("r", P))
        before = measure(w)
        after = measure(apply_step(w, Redex((), RuleName.AP_L_CONV)))
        assert before.size == after.size
        assert before.first_arg_load == after.first_arg_load
        assert after.second_arg_type_load < before.second_arg_type_load

    def test_decreases_on_silent_and_permuting_steps(self):
        rng = random.Random(41)
        silent_rules = (RuleName.L_CONV, RuleName.B_CONV)
        seen = 0
        for _ in range(300):
            t = random_typable_term(rng, max_size=30)
            _, steps = normalize(t)
            for step in steps:
                r = Redex(step.position, step.rule)
                if step.rule in silent_rules and not is_silent(step.before, r):
                    continue
                assert measure(step.after) < measure(step.before)
                seen += 1
        assert seen > 200


class TestNormalize:
    def test_variable_already_normal(self):
        t = Var("x", A)
        nf, trace = normalize(t)
        assert nf == t and trace == []

    def test_divisibility_wrapper_reduces_to_flip_application(self):
        # single-step leftmost-outermost run of the first-projection wrapper:
        # the two stacked applications force the permuting step before the
        # inner beta, giving seven steps in total; acceptance criterion 2
        # enumerates every maximal reduction sequence of u to confirm it
        _, u = divisibility_terms(A, B)
        nf, steps = normalize(u)
        assert alpha_eq(nf, parse_term(r"\x':A. \g':A -> B. g' x'"))
        assert [s.rule for s in steps] == [
            RuleName.BETA, RuleName.AP_B_CONV, RuleName.L_B_CONV,
            RuleName.BETA, RuleName.L_CONV, RuleName.B_CONV, RuleName.BETA]

    def test_identity_behaves_as_identity_on_closed_normal_terms(self):
        s = Lam("w", P, Var("w", P))
        nf, steps = normalize(App(identity_break(Arrow(P, P)), s))
        assert alpha_eq(nf, s)
        assert [x.rule for x in steps] == [
            RuleName.BETA, RuleName.B_CONV, RuleName.BETA, RuleName.BETA]

    def test_budget_exceeded_signalled(self):
        _, u = divisibility_terms(A, B)
        with pytest.raises(StepBudgetExceeded):
            normalize(u, max_steps=2)

    def test_same_normal_form_under_both_strategies(self):
        rng = random.Random(42)
        for _ in range(150):
            t = random_typable_term(rng, max_size=30)
            nf1, _ = normalize(t, strategy="first")
            nf2, _ = normalize(t, strategy="last")
            assert alpha_eq(nf1, nf2)

    def test_negative_budget_rejected(self):
        _, u = divisibility_terms(A, B)
        with pytest.raises(ValueError):
            normalize(u, max_steps=-1)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy 'middle'"):
            normalize(Var("x", A), strategy="middle")

    def test_trace_format(self):
        t = App(Lam("x", A, Var("x", A)), Var("y", A))
        _, steps = normalize(t)
        line = format_trace(steps)
        assert line == "0 beta root (y : A)"


class TestSubjectReduction:
    def test_every_one_step_reduct_keeps_the_type(self):
        rng = random.Random(43)
        for _ in range(250):
            t = random_typable_term(rng, max_size=30)
            ty = check(t)
            for r in find_redexes(t):
                assert check(apply_step(t, r)) == ty

    def test_stability_under_closed_normal_substitution(self):
        rng = random.Random(44)
        checked = 0
        for _ in range(300):
            t = random_typable_term(rng, max_size=25)
            fv = free_vars(t)
            arrows = {n: ty for n, ty in fv.items()
                      if isinstance(ty, Arrow) and ty.dom == ty.cod}
            if not arrows:
                continue
            name, ty = sorted(arrows.items())[0]
            closed = Lam("cn", ty.dom, Var("cn", ty.dom))
            ts = substitute(t, [(name, closed)])
            for r in find_redexes(t):
                stepped_then_sub = substitute(apply_step(t, r), [(name, closed)])
                sub_then_stepped = apply_step(ts, r)
                assert alpha_eq(stepped_then_sub, sub_then_stepped)
                checked += 1
        assert checked > 50


class TestReducts:
    def test_overlap_gives_two_reducts(self):
        w = App(Let("x", Arrow(P, Q), "y", R,
                    Pair(Var("a", Arrow(P, Q)), Var("b", R)),
                    Var("x", Arrow(P, Q))),
                Var("r", P))
        outs = reducts_one_step(w)
        assert len(outs) == 2
        expected1 = App(Var("a", Arrow(P, Q)), Var("r", P))
        expected2 = Let("x", Arrow(P, Q), "y", R,
                        Pair(Var("a", Arrow(P, Q)), Var("b", R)),
                        App(Var("x", Arrow(P, Q)), Var("r", P)))
        keys = {alpha_key(o) for o in outs}
        assert keys == {alpha_key(expected1), alpha_key(expected2)}

    def test_normal_forms_have_no_reducts(self):
        t, _ = divisibility_terms(A, B)
        assert reducts_one_step(t) == []

    def test_alpha_equal_reducts_give_one(self):
        """identity_chain(3)'s three reducts are alpha-equal: they share a
        shape hash, and alpha_key keeps the first."""
        t = identity_chain(3)
        assert len(find_redexes(t)) == 3
        assert reducts_one_step(t) == [apply_step(t, find_redexes(t)[0])]

    def test_reducts_of_one_shape_hash_that_are_not_alpha_equal(self):
        """The smallest differential term with two reducts of one shape hash:
        they differ in a free name only, so both are kept."""
        t = parse_term(r"(\w5:P3. (\v1:P3. (fv2 : P2)) (fv3 : P3)) (fv4 : P3)")
        first, second = (apply_step(t, r) for r in find_redexes(t))
        assert (syntax_module._shape(first, NodeMemo())
                == syntax_module._shape(second, NodeMemo()))
        assert not alpha_eq(first, second)
        assert reducts_one_step(t) == [first, second]

    def test_witness_has_two_diverging_reducts_with_flag(self):
        w = nonconfluence_witness()
        outs = reducts_one_step(w, experimental=True)
        assert len(outs) == 2
        nfs = {alpha_key(normalize(o, experimental=True)[0]) for o in outs}
        assert len(nfs) == 2


class TestNonConfluenceWitness:
    def test_two_normal_forms_with_flag_one_without(self):
        w = nonconfluence_witness()
        nf_first, _ = normalize(w, strategy="first", experimental=True)
        nf_last, _ = normalize(w, strategy="last", experimental=True)
        assert not alpha_eq(nf_first, nf_last)
        # expected shapes: h applied to the stuck let vs. the let around h u
        k = Arrow(Arrow(A, B), B)
        stuck_let = Let("x", P, "y", Q, Var("t", Tensor(P, Q)), Var("u", A))
        assert alpha_eq(nf_first, App(Var("h", Arrow(A, B)), stuck_let))
        assert alpha_eq(nf_last,
                        Let("x", P, "y", Q, Var("t", Tensor(P, Q)),
                            App(Var("h", Arrow(A, B)), Var("u", A))))
        off_first, _ = normalize(w, strategy="first")
        off_last, _ = normalize(w, strategy="last")
        assert alpha_eq(off_first, off_last)


class TestCriticalPairs:
    """The seven overlapping-rule families, on schematic instances."""

    @pytest.mark.parametrize("name,w,r1,r2", critical_pair_instances(),
                             ids=[row[0] for row in critical_pair_instances()])
    def test_family_rejoins_within_two_steps(self, name, w, r1, r2):
        redexes = find_redexes(w)
        assert r1 in redexes and r2 in redexes
        check(w)
        assert join_within(w, r1, r2)


class TestConfluenceProperty:
    def test_random_terms_single_alpha_class(self):
        rng = random.Random(45)
        for _ in range(120):
            t = random_typable_term(rng, max_size=28)
            classes = set()
            for u in reducts_one_step(t):
                for strategy in ("first", "last"):
                    nf, _ = normalize(u, strategy=strategy)
                    classes.add(alpha_key(nf))
            assert len(classes) <= 1


# ---------------------------------------------------------------------------
# The resumable and memoised searches, and the spliced reduct keys, against
# listing every redex
# ---------------------------------------------------------------------------

def reference_normalize(t, experimental: bool, max_steps: int = 100_000,
                        pick: int = 0):
    """Normalization by listing every redex at every step and contracting
    the one at index pick of the listing: 0 is leftmost-outermost, -1 the
    last redex."""
    steps = []
    while True:
        redexes = find_redexes(t, experimental)
        if not redexes:
            return t, steps
        if len(steps) == max_steps:
            raise StepBudgetExceeded(max_steps)
        steps.append((redexes[pick].rule, redexes[pick].position))
        t = apply_step(t, redexes[pick])


def reference_l_normalize(e, max_steps: int = 100_000):
    """Leftmost-outermost normalization of a lambda-pair term by listing every
    redex at every step; the normal form and the number of steps."""
    n = 0
    while redexes := l_find_redexes(e):
        if n == max_steps:
            raise StepBudgetExceeded(max_steps)
        e = l_contract_at(e, redexes[0])
        n += 1
    return e, n


def reference_reducts(t, redexes, contract_at):
    """contract_at(t, r) for each redex r, the first of each alpha class."""
    seen = {}
    for r in redexes:
        u = contract_at(t, r)
        seen.setdefault(alpha_key(u), u)
    return list(seen.values())


def fixed_terms():
    """The samples and the catalog terms."""
    C = Atom("C")
    out = [parse_term(path.read_text(encoding="utf-8"))
           for path in sorted(SAMPLES.glob("*.bterm"))]
    out += [catalog.axiom_term(axiom, A, B, C) for axiom in catalog.AxiomId]
    out += [catalog.identity_break(A), *catalog.divisibility_terms(A, B),
            catalog.axiom_L_term(A, B), catalog.homomorphism_term(A, B, C),
            catalog.break_free_split(A, B), nonconfluence_witness()]
    return out


@functools.cache
def differential_terms():
    rng = random.Random(20261018)
    return fixed_terms() + [random_typable_term(rng) for _ in range(10_000)]


@functools.cache
def differential_images():
    return [star_translate(t) for t in differential_terms()]


@functools.cache
def clashing_terms():
    """A clashing copy of each differential term.  Its binders reuse the
    term's names, so a let over a let or a break whose body uses an inner
    binder's name makes l-l-conv's or l-b-conv's side condition refuse,
    which no generated term does."""
    rng = random.Random(20261020)
    return [clashing_copy(t, rng) for t in differential_terms()]


@functools.cache
def clashing_images():
    return [star_translate(t) for t in clashing_terms()]


def assert_normalize_matches_listing(strategy: str, experimental: bool):
    pick = 0 if strategy == "first" else -1
    for t in differential_terms() + clashing_terms():
        ref_nf, ref_steps = reference_normalize(t, experimental, pick=pick)
        nf, steps = normalize(t, strategy=strategy, experimental=experimental)
        assert nf == ref_nf
        assert [(s.rule, s.position) for s in steps] == ref_steps
        n = len(ref_steps)
        assert normalize(t, max_steps=n, strategy=strategy,
                         experimental=experimental)[0] == nf
        if n:
            with pytest.raises(StepBudgetExceeded):
                normalize(t, max_steps=n - 1, strategy=strategy,
                          experimental=experimental)
            with pytest.raises(StepBudgetExceeded):
                reference_normalize(t, experimental, max_steps=n - 1,
                                    pick=pick)


@pytest.mark.parametrize("experimental", [False, True],
                         ids=["standard", "experimental"])
def test_normalize_matches_listing_every_redex(experimental):
    assert_normalize_matches_listing("first", experimental)


@pytest.mark.parametrize("experimental", [False, True],
                         ids=["standard", "experimental"])
def test_last_strategy_matches_listing_every_redex(experimental):
    assert_normalize_matches_listing("last", experimental)


@pytest.mark.parametrize("experimental", [False, True],
                         ids=["standard", "experimental"])
def test_reducts_match_keying_every_apply_step(experimental):
    for t in differential_terms() + clashing_terms():
        expected = reference_reducts(t, find_redexes(t, experimental),
                                     apply_step)
        assert reducts_one_step(t, experimental) == expected


def test_l_step_matches_keying_every_contraction():
    for e in differential_images() + clashing_images():
        expected = reference_reducts(e, l_find_redexes(e), l_contract_at)
        assert l_step(e) == expected


def test_l_normalize_matches_listing_every_redex():
    for e in differential_images():
        nf, n = reference_l_normalize(e)
        assert l_normalize(e) == nf
        assert l_normalize(e, max_steps=n) == nf
        if n:
            with pytest.raises(StepBudgetExceeded):
                l_normalize(e, max_steps=n - 1)


# ---------------------------------------------------------------------------
# The two permuting schemata against the five rules written out one by one
# ---------------------------------------------------------------------------

def reference_permute(t, rule):
    """The contractum of a permuting redex, one case per rule."""
    fn = FreeNames()
    match rule:
        case RuleName.AP_L_CONV:
            inner = avoid_capture(t.fun, fn(t.arg), fn)
            return Let(inner.x, inner.x_type, inner.y, inner.y_type,
                       inner.scrutinee, App(inner.body, t.arg))
        case RuleName.AP_B_CONV:
            inner = avoid_capture(t.fun, fn(t.arg), fn)
            return Break(inner.scrutinee, inner.phi, inner.f, inner.residue,
                         App(inner.body, t.arg))
        case RuleName.L_L_CONV:
            inner = t.scrutinee
            return Let(inner.x, inner.x_type, inner.y, inner.y_type,
                       inner.scrutinee,
                       Let(t.x, t.x_type, t.y, t.y_type, inner.body, t.body))
        case RuleName.L_B_CONV:
            inner = t.scrutinee
            return Break(inner.scrutinee, inner.phi, inner.f, inner.residue,
                         Let(t.x, t.x_type, t.y, t.y_type, inner.body, t.body))
        case RuleName.B_L_CONV:
            inner = avoid_capture(t.scrutinee, fn(t.body), fn)
            return Let(inner.x, inner.x_type, inner.y, inner.y_type,
                       inner.scrutinee,
                       Break(inner.body, t.phi, t.f, t.residue, t.body))
    raise AssertionError(rule)


def capturing_permutations():
    """Permuting redexes whose moving argument or outer body has a free name
    equal to a binder it moves under."""
    pq = Tensor(P, Q)
    let_xy = Let("x", P, "y", Q, Var("t", pq), Var("u", Arrow(R, A)))
    brk = Break(Var("t", P), "phi", "f", Q, Var("u", Arrow(R, A)))
    return [
        App(let_xy, Var("x", R)),                           # ap-l-conv
        App(let_xy, Pair(Var("y", R), Var("z", R))),
        App(brk, Var("phi", R)),                            # ap-b-conv
        App(brk, Pair(Var("f", R), Var("phi", R))),
        Break(let_xy, "phi", "f", B, Var("x", A)),          # b-l-conv
        Break(let_xy, "x", "f", B, App(Var("y", Arrow(A, B)), Var("x", A))),
        # l-l-conv and l-b-conv: the side condition leaves nothing to rename
        Let("v", R, "w", A, Let("x", P, "y", Q, Var("t", pq), Var("s", pq)),
            Var("v", R)),
        Let("v", R, "w", A, brk, Var("w", A)),
    ]


def test_permuting_schemata_match_the_five_rules():
    rng = random.Random(1809)
    terms = capturing_permutations()
    for _ in range(1500):
        t = random_typable_term(rng)
        terms += [t, clashing_copy(t, rng)]
    five = PERMUTING_RULES | {RuleName.B_L_CONV}
    seen, renamed = set(), set()
    for t in terms:
        for r in find_redexes(t, experimental=True):
            if r.rule not in five:
                continue
            node = subterm_at(t, r.position)
            expected = reference_permute(node, r.rule)
            assert apply_step(t, r) == replace_at(t, r.position, expected)
            seen.add(r.rule)
            inner = node.fun if isinstance(node, App) else node.scrutinee
            if binders(expected) != binders(inner):
                renamed.add(r.rule)
    assert seen == five
    assert renamed == {RuleName.AP_L_CONV, RuleName.AP_B_CONV,
                       RuleName.B_L_CONV}


# ---------------------------------------------------------------------------
# Trace text: the memoised printer against print_term line by line
# ---------------------------------------------------------------------------

def identity_chain(n: int):
    t = Var("w", A)
    for i in reversed(range(n)):
        t = App(Lam(f"x{i}", A, Var(f"x{i}", A)), t)
    return t


def pair_chain(n: int):
    r"""(\x0. <\u0:A. u0, x0>) ((\x1. <\u1:A. u1, x1>) (... (w : A))):
    every contractum holds the normal pair the step before built."""
    t, ty = Var("w", A), A
    for i in reversed(range(n)):
        ident = Lam(f"u{i}", A, Var(f"u{i}", A))
        t = App(Lam(f"x{i}", ty, Pair(ident, Var(f"x{i}", ty))), t)
        ty = Tensor(Arrow(A, A), ty)
    return t


def nested_pairs(n: int):
    """pair_chain(n)'s normal form."""
    t = Var("w", A)
    for i in reversed(range(n)):
        t = Pair(Lam(f"u{i}", A, Var(f"u{i}", A)), t)
    return t


@pytest.mark.parametrize("chain, normal_form", [
    (identity_chain, lambda n: Var("w", A)), (pair_chain, nested_pairs)],
    ids=["identity_chain", "pair_chain"])
def test_last_search_work_is_linear_in_the_depth(monkeypatch, chain,
                                                 normal_form):
    """The last strategy on the identity chain: each step's search starts
    where the step contracted, so the nodes the searches visit (counted as
    calls to children and to the rule matcher, not timed) grow linearly
    with the depth; a search from the root would grow quadratically.  On
    the pair chain a search that walked every subtree it meets, not
    skipping those known to be normal, would grow quadratically too."""
    visits = [0]

    def counted(real):
        def wrapper(*args):
            visits[0] += 1
            return real(*args)
        return wrapper

    for name in ("children", "_node_rules"):
        monkeypatch.setattr(reduction_module, name,
                            counted(getattr(reduction_module, name)))
    counts = []
    for n in (200, 400):
        visits[0] = 0
        nf, steps = normalize(chain(n), strategy="last")
        # == on nested pairs recurses past the limit at these depths
        assert print_term(nf) == print_term(normal_form(n))
        assert len(steps) == n
        counts.append(visits[0])
    assert counts[1] <= 2.5 * counts[0]


@pytest.mark.parametrize("chain, normal_form", [
    (identity_chain, lambda n: Var("w", A)), (pair_chain, nested_pairs)],
    ids=["identity_chain", "pair_chain"])
def test_last_strategy_rebuilds_are_linear_in_the_depth(monkeypatch, chain,
                                                       normal_form):
    """The last strategy on the chains: a step rebuilds an ancestor of its
    redex only when the next search reaches it, so the nodes rebuilt from
    changed children (counted as the calls to _rebuild and the calls to
    replace_child that build a node, not timed) grow linearly with the
    depth; rebuilding the spine up to the root at every step would grow
    quadratically."""
    rebuilds = [0]

    def counted(real):
        def wrapper(t, *args):
            new = real(t, *args)
            rebuilds[0] += new is not t
            return new
        return wrapper

    for module in (syntax_module, reduction_module):
        for name in ("_rebuild", "replace_child"):
            monkeypatch.setattr(module, name, counted(getattr(module, name)))
    counts = []
    for n in (200, 400):
        rebuilds[0] = 0
        nf, steps = normalize(chain(n), strategy="last")
        assert print_term(nf) == print_term(normal_form(n))
        assert len(steps) == n
        counts.append(rebuilds[0])
    assert counts[1] <= 2.5 * counts[0]


def break_chain(n: int):
    """b-conv puts the shared argument under fresh binders at every layer."""
    t = Lam("w", A, Var("w", A))
    for _ in range(n):
        t = App(identity_break(Arrow(A, A)), t)
    return t


@pytest.mark.parametrize("chain, all_distinct", [
    (break_chain, True), (identity_chain, False)],
    ids=["break_chain", "identity_chain"])
def test_reducts_write_alpha_keys_only_on_a_shape_hash_match(monkeypatch,
                                                             chain,
                                                             all_distinct):
    """reducts_one_step writes alpha keys (counted as outermost calls to
    _key_parts, not timed) only to settle a shape hash match: none for the
    break chain, whose reducts are all distinct, and at most one per reduct
    plus one for the identity chain, whose reducts are all alpha-equal."""
    keys, depth = [0], [0]
    real = syntax_module._key_parts

    def counted(*args):
        keys[0] += not depth[0]
        depth[0] += 1
        try:
            return real(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(syntax_module, "_key_parts", counted)
    t = chain(80)
    n = len(find_redexes(t))
    kept = len(reducts_one_step(t))
    if all_distinct:
        assert (kept, keys[0]) == (n, 0)
    else:
        assert kept == 1
        assert keys[0] <= n + 1


def permuting_chain(n: int):
    t2 = Tensor(A, A)
    blocks = [App(Let(f"x{k}", A, f"y{k}", A,
                      Let(f"u{k}", A, f"v{k}", A, Var(f"p{k}", t2),
                          Var(f"q{k}", t2)),
                      Break(Var(f"c{k}", A), f"phi{k}", f"f{k}", A,
                            Var(f"g{k}", Arrow(A, A)))),
                  Var(f"d{k}", A))
              for k in range(n)]
    while len(blocks) > 1:
        blocks = [Pair(*blocks[i:i + 2]) if i + 1 < len(blocks)
                  else blocks[i] for i in range(0, len(blocks), 2)]
    return blocks[0]


def plain_trace(steps) -> str:
    return "\n".join(
        f"{s.index} {s.rule} "
        f"{'.'.join(map(str, s.position)) if s.position else 'root'} "
        f"{print_term(s.after)}" for s in steps)


class TestTraceText:
    @pytest.mark.parametrize("chain", [identity_chain, break_chain,
                                       permuting_chain])
    @pytest.mark.parametrize("n", [1, 2, 5, 20])
    def test_chains(self, chain, n):
        _, steps = normalize(chain(n))
        assert steps
        assert format_trace(steps) == plain_trace(steps)

    def test_random_terms_both_strategies(self):
        rng = random.Random(7)
        for _ in range(500):
            t = random_typable_term(rng)
            for strategy in ("first", "last"):
                _, steps = normalize(t, strategy=strategy)
                assert format_trace(steps) == plain_trace(steps)

    def test_one_node_in_two_binding_contexts(self):
        x = Var("x", A)
        printer = TermPrinter()
        assert printer(x) == "(x : A)"
        assert printer(Lam("x", A, x)) == "\\x:A. x"
        assert printer(Pair(x, Lam("x", A, x))) == "<(x : A), \\x:A. x>"
        assert printer(App(Lam("y", A, x), x)) == "(\\y:A. (x : A)) (x : A)"

    def test_memory_stays_within_a_few_times_the_text(self):
        """The printer forgets the nodes each step took out, so its memos
        hold about one term's texts: format_trace of break_chain(80) under
        the last strategy peaks at about 3x its output, where a printer
        that forgot nothing would keep every step's new texts (about 33x)."""
        _, steps = normalize(break_chain(80), strategy="last")
        tracemalloc.start()
        try:
            text = format_trace(steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * len(text)

    def test_memory_under_the_first_strategy_stays_within_twice_the_text(self):
        """Under the first strategy normalize hands every step its root, so
        format_trace builds no term: it keeps one list of pieces, in which
        a reused text is one piece, and joins it once.  For break_chain(80)
        the peak is about 1.5x the output; a printer that built a string
        per node, and a string per line, peaked at about 2.2x."""
        _, steps = normalize(break_chain(80))
        tracemalloc.start()
        try:
            text = format_trace(steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * len(text)

    def test_each_spine_is_walked_once(self, monkeypatch):
        """Under the last strategy most steps' roots are built when the
        trace is read; format_trace builds each from the spine it walks to
        name the nodes the printer forgets, so one spine_at call per step."""
        _, steps = normalize(identity_chain(400), strategy="last")
        calls = []

        def counted(t, path):
            calls.append(path)
            return spine_at(t, path)

        monkeypatch.setattr(reduction_module, "spine_at", counted)
        text = format_trace(steps)
        assert len(calls) == len(steps) == 400
        assert text == plain_trace(steps)


@functools.cache
def lazy_root_terms():
    """The golden items and 200 more seeded random terms."""
    rng = random.Random(2024)
    return ([t for _, t in GOLDEN_ITEMS]
            + [random_typable_term(rng) for _ in range(200)])


@pytest.mark.parametrize("experimental", [False, True],
                         ids=["standard", "experimental"])
@pytest.mark.parametrize("strategy", ["first", "last"])
class TestLazyRoots:
    """A trace step builds its before and after when they are first read,
    or keeps the root its search built; either way they equal the terms
    that contracting each step in turn with apply_step gives."""

    @pytest.mark.parametrize("order", ["first_to_last", "last_to_first"])
    def test_roots_equal_the_replay(self, strategy, experimental, order):
        for t in lazy_root_terms():
            nf, steps = normalize(t, strategy=strategy,
                                  experimental=experimental)
            roots = [t]
            for s in steps:
                roots.append(apply_step(roots[-1], Redex(s.position, s.rule)))
            assert nf is (steps[-1].after if steps else t)
            for s in (steps if order == "first_to_last" else steps[::-1]):
                assert s.before == roots[s.index]
                assert s.after == roots[s.index + 1]
            assert nf == roots[-1]

    def test_step_budget(self, strategy, experimental):
        for t in lazy_root_terms():
            _, steps = normalize(t, strategy=strategy,
                                 experimental=experimental)
            n = len(steps)
            assert normalize(t, max_steps=n, strategy=strategy,
                             experimental=experimental)[1] == steps
            if n:
                with pytest.raises(StepBudgetExceeded) as exc:
                    normalize(t, max_steps=n - 1, strategy=strategy,
                              experimental=experimental)
                assert exc.value.max_steps == n - 1


def zipper_at(t, path) -> Zipper:
    """A zipper on t with its cursor moved down to path, as the searches
    move it: one frame per child index."""
    z = Zipper(t)
    for i in path:
        z.nodes.append(children(z.nodes[-1])[i])
        z.path.append(i)
    return z


class TestZipper:
    """A change at the cursor reaches an ancestor only when a move climbs
    into it or settles the spine."""

    def test_up_out_of_an_unchanged_child_keeps_the_parent(self):
        t = pair_chain(3)
        z = zipper_at(t, (1, 1, 0))
        parent = z.nodes[-2]
        assert z.up() == (0, children(parent))
        assert z.nodes[-1] is parent and z.path == [1, 1]
        z.up()
        z.up()
        assert z.nodes == [t] and z.root is t

    def test_settled_spine_after_a_change_at_depth_3(self):
        t = pair_chain(3)
        path = (1, 1, 0)
        z = zipper_at(t, path)
        old_spine = spine_at(t, path)
        new = Var("w", A)
        z.replace(new)
        assert z.root is None
        z.settle_spine()
        root = z.root
        assert root == replace_at(t, path, new)
        assert z.path == list(path) and z.nodes[-1] is new  # cursor kept
        new_spine = spine_at(root, path)
        assert new_spine == z.nodes and new_spine[-1] is new
        for d, i in enumerate(path):  # every node off the path is shared
            pairs = zip(children(old_spine[d]), children(new_spine[d]))
            assert all(a is b for j, (a, b) in enumerate(pairs) if j != i)


def constructed(t):
    """t built again, node by node, by the constructors, so every check
    that they make runs on it."""
    if not isinstance(t, Node) or isinstance(t, TypeExpr):
        return t
    return type(t)(*map(constructed, t))


def assert_as_constructed(t) -> None:
    """t cannot be told apart from t built by the constructors: the two
    trees are equal and print alike, and node by node they have one type
    and one hash."""
    c = constructed(t)
    assert t == c and c == t and repr(t) == repr(c)  # == checks every field
    pairs = [(t, c)]
    while pairs:
        a, b = pairs.pop()
        assert type(a) is type(b) and hash(a) == hash(b)
        pairs += zip(children(a), children(b))


def contract_terms():
    """The fixed differential terms and every fifth random one: each whole
    term is rebuilt by the constructors, which takes too long on all."""
    terms = differential_terms()
    n = len(fixed_terms())
    return terms[:n] + terms[n::5]


def deepest_path(t) -> tuple[int, ...]:
    """The first of the longest paths from t's root to a leaf."""
    return max((p for p, _ in subterms(t)), key=len)


class TestConstructionContract:
    """A node rebuilt without its constructor's checks (_rebuild,
    replace_child and the walks that use them) is the node that the
    constructor builds, and no other way of building a node has lost a
    check."""

    def test_rebuild_of_every_node(self):
        # each child replaced by a leaf, so that repr stays short
        w = Var("w'", A)
        for t in differential_terms():
            for _, node in subterms(t):
                sp = SPECS[type(node)]
                kids = [w] * len(sp.kid_slots)
                vals = list(node)
                for i in sp.kid_slots:
                    vals[i] = w
                got, want = _rebuild(node, kids), type(node)(*vals)
                assert type(got) is type(want) and got == want and want == got
                assert hash(got) == hash(want) and repr(got) == repr(want)

    def test_rebuilt_spines_zippers_and_reducts(self):
        w = Var("w'", A)
        for t in contract_terms():
            path = deepest_path(t)
            assert_as_constructed(replace_at(t, path, w))
            z = zipper_at(t, path)
            z.replace(w)
            z.settle_spine()
            assert_as_constructed(z.root)
            z = zipper_at(t, path)
            z.replace(w)
            while z.path:
                z.up()
            assert_as_constructed(z.root)
            assert z.root == replace_at(t, path, w)
            for u in reducts_one_step(t):
                assert_as_constructed(u)

    @pytest.mark.parametrize("strategy", ["first", "last"])
    def test_roots_of_both_strategies(self, strategy):
        for t in contract_terms():
            nf, steps = normalize(t, strategy=strategy)
            assert_as_constructed(nf)
            for s in steps:
                assert_as_constructed(s.after)

    @pytest.mark.parametrize("cls, fields, names", [
        (Let, ("x", A, "y", B, Var("s", Tensor(A, B)), Var("x", A)),
         ("x", "x")),
        (Break, (Var("s", A), "phi", "f", B, Var("f", Arrow(B, A))),
         ("f", "f")),
        (ULet, ("x", "y", UVar("s"), UVar("x")), ("y", "y")),
        (UBreak, (UVar("s"), "phi", "f", UVar("f")), ("phi", "phi")),
    ], ids=["let", "break", "untyped let", "untyped break"])
    def test_one_name_for_both_binders_is_refused(self, cls, fields, names):
        t = cls(*fields)
        first, second = SPECS[cls].binders(t)
        twice = [first if v == second else v for v in fields]
        with pytest.raises(IllFormedTermError):
            _rebuild(t, children(t), names)
        with pytest.raises(IllFormedTermError):
            cls(*twice)
        with pytest.raises(IllFormedTermError):
            cls._make(twice)
        with pytest.raises(IllFormedTermError):
            t._replace(**{t._fields[SPECS[cls].name_slots[1]]: first})
        # a node made past the checks is checked again when copied or
        # unpickled, which build through the constructor
        bad = tuple.__new__(cls, twice)
        for rebuild in (copy.copy, copy.deepcopy,
                        lambda u: pickle.loads(pickle.dumps(u))):
            with pytest.raises(IllFormedTermError):
                rebuild(bad)

    @pytest.mark.parametrize("ty", [A, Arrow(A, B), Tensor(A, B)])
    def test_no_type_is_rebuilt(self, ty):
        with pytest.raises(KeyError):
            _rebuild(ty, ())
        with pytest.raises(KeyError):
            replace_child(ty, 0, B)


def identity_chain_text(n: int) -> str:
    """print_term(identity_chain(n)), written out."""
    text = "(w : A)"
    for i in reversed(range(n)):
        text = f"(\\x{i}:A. x{i}) {text if i == n - 1 else f'({text})'}"
    return text


class TestDeepPrinting:
    """The printer spends one Python frame per nesting level, so the
    500-deep identity chain and its lambda-pair image print under the
    default recursion limit."""

    def test_print_term(self):
        assert print_term(identity_chain(500)) == identity_chain_text(500)

    def test_print_lterm(self):
        image = star_translate(identity_chain(500))
        assert print_lterm(image) == reference_print_lterm(image)

    def test_format_trace_of_the_last_strategy(self):
        n = 500
        _, steps = normalize(identity_chain(n), strategy="last")
        # step k contracts the innermost redex, at depth n - 1 - k
        assert format_trace(steps) == "\n".join(
            f"{k} beta {'.'.join('1' * (n - 1 - k)) or 'root'} "
            f"{identity_chain_text(n - 1 - k)}" for k in range(n))


class TestPrinterContract:
    """Every printer entry point raises TypeError for what is not a node of
    a registered term constructor, a type included."""

    @pytest.mark.parametrize("printer", [print_term, print_lterm, TermPrinter()],
                             ids=["print_term", "print_lterm", "TermPrinter"])
    @pytest.mark.parametrize("value", [42, (1, 2), Atom("A")],
                             ids=["int", "tuple", "type"])
    def test_a_non_term_raises_type_error(self, printer, value):
        with pytest.raises(TypeError, match="not a term"):
            printer(value)


class TestPrinterBuffers:
    """TermPrinter writes each call's text as pieces to one list and joins
    it once.  A node's memo entry is the span of the list it was first
    written to, until a later write reuses the node and joins the span."""

    F = Var("f", Arrow(A, A))

    def test_a_span_in_an_earlier_call_before_and_after_forget(self):
        inner = Lam("x", A, App(self.F, Var("x", A)))
        outer = Pair(inner, Var("y", A))
        printer = TermPrinter()
        assert printer(outer) == print_term(outer)
        buf = printer.memo[id(inner)][2]  # the first call's list
        assert type(buf) is list
        # the node that held inner leaves; inner's span stays in that list
        printer.forget([outer])
        later = App(inner, Var("z", A))
        assert printer(later) == print_term(later)
        assert printer.memo[id(inner)][2] == print_term(inner)
        # inner under a binder of its free name is written anew
        bound = Lam("f", Arrow(A, A), inner)
        assert printer(bound) == print_term(bound)
        printer.forget([inner])
        again = Pair(Var("y", A), inner)
        assert printer(again) == print_term(again)

    def test_a_span_reused_in_a_later_call_without_forget(self):
        inner = Lam("x", A, App(self.F, Var("x", A)))
        printer = TermPrinter()
        terms = [Pair(inner, Var("y", A)), App(inner, Var("z", A)),
                 Pair(Var("y", A), Pair(inner, inner))]
        assert [printer(t) for t in terms] == [print_term(t) for t in terms]

    def test_900_levels_print_under_the_default_recursion_limit(self):
        # in a subprocess, so that the limit and the stack below the
        # printer are a fresh interpreter's
        depth = 900
        script = (
            "import sys\n"
            "from breakcalc.printer import TermPrinter, print_term\n"
            "from breakcalc.syntax import App, Arrow, Atom, Lam, Var\n"
            "A = Atom('A')\n"
            "lams = apps = Var('w', A)\n"
            f"for i in range({depth}):\n"
            "    lams = Lam(f'x{i}', A, lams)\n"
            "    apps = App(Var('f', Arrow(A, A)), apps)\n"
            "assert sys.getrecursionlimit() == 1000\n"
            "for t in (lams, apps):\n"
            "    text = print_term(t)\n"
            "    assert TermPrinter()(t) == text\n"
            "    print(text)\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        lams = "".join(f"\\x{i}:A. " for i in reversed(range(depth)))
        assert proc.stdout.splitlines() == [
            lams + "(w : A)",
            "(f : A -> A) (" * (depth - 1) + "(f : A -> A) (w : A)"
            + ")" * (depth - 1)]


# ---------------------------------------------------------------------------
# The class-dispatch printer and rule matcher against the match-based ones
# ---------------------------------------------------------------------------

_OPEN = (Lam, Let, Break)


def reference_print_term(t, bound: frozenset = frozenset()) -> str:
    """print_term with one match per node and no memo."""
    def part(u, parens) -> str:
        text = reference_print_term(u, bound)
        return f"({text})" if isinstance(u, parens) else text

    match t:
        case Var(name, ty):
            return name if name in bound else f"({name} : {print_type(ty)})"
        case Lam(b, bt, body):
            return (f"\\{b}:{print_type(bt)}. "
                    f"{reference_print_term(body, bound | {b})}")
        case App(fun, arg):
            return f"{part(fun, _OPEN)} {part(arg, _OPEN + (App,))}"
        case Pair(first, second):
            return (f"<{reference_print_term(first, bound)}, "
                    f"{reference_print_term(second, bound)}>")
        case Let(x, xt, y, yt, scrut, body):
            return (f"let <{x}:{print_type(xt)}, {y}:{print_type(yt)}> = "
                    f"{part(scrut, _OPEN)} in "
                    f"{reference_print_term(body, bound | {x, y})}")
        case Break(scrut, phi, f, residue, body):
            return (f"break {part(scrut, _OPEN)} as <{phi}, {f}> @ "
                    f"{print_type(residue)} in "
                    f"{reference_print_term(body, bound | {phi, f})}")
    raise TypeError(f"not a term: {t!r}")


def reference_trace(steps) -> str:
    return "\n".join(
        f"{s.index} {s.rule} "
        f"{'.'.join(map(str, s.position)) if s.position else 'root'} "
        f"{reference_print_term(s.after)}" for s in steps)


def reference_node_rules(t, experimental: bool, fn) -> list:
    """The rules matching at the root of t, one match case per rule."""
    rules = []
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


def assert_prints_match_reference(terms, strategies=("first", "last")):
    """print_term, one TermPrinter shared by all the terms and their
    normal forms, and format_trace against the reference printer."""
    shared = TermPrinter()
    for t in terms:
        text = reference_print_term(t)
        assert print_term(t) == text
        assert shared(t) == text
        for strategy in strategies:
            nf, steps = normalize(t, strategy=strategy)
            assert format_trace(steps) == reference_trace(steps)
            assert shared(nf) == reference_print_term(nf)


class TestPrinterAgainstReference:
    def test_differential_terms(self):
        assert_prints_match_reference(differential_terms())

    @pytest.mark.parametrize("chain", [identity_chain, break_chain,
                                       permuting_chain])
    def test_chains(self, chain):
        assert_prints_match_reference([chain(n) for n in range(1, 21)])

    def test_one_node_in_two_binding_contexts(self):
        x = Var("x", A)
        assert_prints_match_reference(
            [x, Lam("x", A, x), Pair(x, Lam("x", A, x)),
             App(Lam("y", A, x), x)], strategies=())


def side_condition_terms():
    """Redex shapes whose side condition fails, each beside one where it
    holds."""
    pq, ab = Tensor(P, Q), Arrow(A, B)
    inner_let = Let("x", P, "y", Q, Var("t", pq), Var("s", pq))
    open_break = Break(Var("t", A), "phi", "f", B,
                       App(Var("phi", Arrow(ab, B)), Var("f", ab)))
    return {
        # a let whose scrutinee is a let: the body uses a scrutinee binder
        Let("v", P, "w", Q, inner_let, Var("y", Q)): [],
        Let("v", P, "w", Q, inner_let, Var("w", Q)): [RuleName.L_L_CONV],
        # a break with an open scrutinee whose body uses both binders
        open_break: [],
        open_break._replace(body=Var("f", ab)): [RuleName.B_CONV],
        open_break._replace(scrutinee=Let("x", P, "y", Q, Var("t", pq),
                                          Var("y", A))): [RuleName.B_L_CONV],
        # a let whose scrutinee is a break: the body uses a break binder
        Let("v", P, "w", Q, open_break, Var("f", ab)): [],
        Let("v", P, "w", Q, open_break, Var("w", Q)): [RuleName.L_B_CONV],
    }


@pytest.mark.parametrize("experimental", [False, True],
                         ids=["standard", "experimental"])
def test_node_rules_match_reference(experimental):
    fn = FreeNames()
    shapes = side_condition_terms()
    for t, rules in shapes.items():
        expected = [r for r in rules
                    if experimental or r is not RuleName.B_L_CONV]
        assert reference_node_rules(t, experimental, fn) == expected
    for t in differential_terms() + list(shapes):
        for _, sub in subterms(t):
            assert (list(reduction_module._node_rules(sub, experimental, fn))
                    == reference_node_rules(sub, experimental, fn))


def shape_matches(rule, node) -> bool:
    """node's class and its first child's are those of rule's record."""
    return (type(node) is rule.outer
            and rule.inner in (None, type(children(node)[0])))


def test_every_rule_record_matches_and_every_side_condition_refuses():
    """Over the differential and side-condition terms, with the experimental
    rule on, each record of the break calculus's rule table matches at some
    node, and each side condition refuses some node of its record's shape;
    over their images, each lambda-pair record matches.  So a record that
    never matches, or a side condition that no input tests, fails."""
    fn = FreeNames()
    matched, refused = set(), set()
    for t in differential_terms() + list(side_condition_terms()):
        matched.update(r.rule for r in find_redexes(t, experimental=True))
        refused.update(rule.name for _, sub in subterms(t) for rule in RULES
                       if rule.side and shape_matches(rule, sub)
                       and not rule.side(sub, fn))
    assert matched == {rule.name for rule in RULES}
    assert refused == {rule.name for rule in RULES if rule.side}
    l_matched = {rule.name for e in differential_images()
                 for _, sub in subterms(e) for rule in L_RULES
                 if shape_matches(rule, sub)}
    assert l_matched == {rule.name for rule in L_RULES}


def test_clashing_copies_make_the_let_side_conditions_refuse():
    """l-l-conv's and l-b-conv's side conditions, which refuse at no node
    of a generated term, each refuse at least 100 nodes of the clashing
    copies, so the differential tests run over both outcomes."""
    fn = FreeNames()
    refused = collections.Counter(
        rule.name for t in clashing_terms() for _, sub in subterms(t)
        for rule in RULES if rule.side and shape_matches(rule, sub)
        and not rule.side(sub, fn))
    assert refused[RuleName.L_L_CONV] >= 100
    assert refused[RuleName.L_B_CONV] >= 100


def reference_l_rules(e) -> list:
    """The contracta of the lambda-pair rules matching at the root of e, one
    match case per rule."""
    match e:
        case LApp(fun=LLam(binder=x, body=body), arg=arg):
            return [substitute(body, {x: arg})]
        case LProj0(arg=LPair(first=a)):
            return [a]
        case LProj1(arg=LPair(second=b)):
            return [b]
    return []


def test_l_rules_match_reference():
    """l_find_redexes and l_contract_at against the lambda-pair rules
    written out one by one, at every node of every differential image."""
    for e in differential_images():
        expected = [(path, reference_l_rules(sub))
                    for path, sub in subterms(e)]
        assert l_find_redexes(e) == [path for path, c in expected if c]
        for path, contracta in expected:
            if contracta:
                assert l_contract_at(e, path) == replace_at(e, path,
                                                            contracta[0])
            else:
                with pytest.raises(ValueError):
                    l_contract_at(e, path)
