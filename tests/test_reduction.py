"""Reduction: redex discovery, stepping, silence, the measure, normalization,
critical pairs, and the confluence counterexample."""

import functools
import random
from pathlib import Path

import pytest

from breakcalc import catalog
from breakcalc.catalog import divisibility_terms, identity_break
from breakcalc.lambda_pair import (
    l_contract_at, l_find_redexes, l_normalize, l_step, star_translate,
)
from breakcalc.parser import parse_term
from breakcalc.printer import TermPrinter, print_term
from breakcalc.reduction import (
    PERMUTING_RULES, InvalidRedex, Measure, Redex, RuleName,
    StepBudgetExceeded, apply_step, find_redexes, format_trace, is_silent,
    measure, normalize, reducts_one_step,
)
from breakcalc.syntax import (
    App, Arrow, Atom, Break, FreeNames, Lam, Let, Pair, Tensor, Var, alpha_eq,
    alpha_key, avoid_capture, binders, free_vars, replace_at, substitute,
    subterm_at,
)
from breakcalc.typecheck import check
from schemas import critical_pair_instances, join_within, nonconfluence_witness
from termgen import clashing_copy, random_typable_term

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

    def test_permuting_step_renames_to_avoid_capture(self):
        # (let <x, y> = t0 in u0) x  with x free in the argument
        w = App(Let("x", Arrow(P, Q), "y", R, Var("t0", Tensor(Arrow(P, Q), R)),
                    Var("u0", Arrow(P, Q))),
                Var("x", P))
        out = apply_step(w, Redex((), RuleName.AP_L_CONV))
        assert check(out) == check(w)
        assert free_vars(out) == free_vars(w)


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
        t = App(Let("x", Arrow(P, Q), "y", R,
                    Var("t0", Tensor(Arrow(P, Q), R)), Var("x", Arrow(P, Q))),
                Var("r", P))
        with pytest.raises(ValueError):
            is_silent(t, Redex((), RuleName.AP_L_CONV))


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


def assert_normalize_matches_listing(strategy: str, experimental: bool):
    pick = 0 if strategy == "first" else -1
    for t in differential_terms():
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
    for t in differential_terms():
        expected = reference_reducts(t, find_redexes(t, experimental),
                                     apply_step)
        assert reducts_one_step(t, experimental) == expected


def test_l_step_matches_keying_every_contraction():
    for e in differential_images():
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


def break_chain(n: int):
    """b-conv puts the shared argument under fresh binders at every layer."""
    t = Lam("w", A, Var("w", A))
    for _ in range(n):
        t = App(identity_break(Arrow(A, A)), t)
    return t


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
