"""Type checking, erasure, and principal type inference."""

import random
import sys
import threading
from collections import Counter

import pytest

import breakcalc.syntax as syntax_module
import breakcalc.typecheck as typecheck_module
from breakcalc.catalog import AxiomId, axiom_term
from breakcalc.lambda_pair import star_translate
from breakcalc.parser import parse_term
from breakcalc.printer import print_type
from breakcalc.sequent import (
    check_derivation, eliminate_cuts, nd_to_sequent, parse_derivation,
    print_derivation, sequent_to_term,
)
from breakcalc.syntax import (
    App, Arrow, Atom, Lam, Pair, Tensor, Var, affine_check, alpha_eq,
    canonical_contraction, canonicalize, first_contraction, free_names,
    free_vars, is_canonical, replace_at, subterms,
)
from breakcalc.typecheck import (
    AffinityViolation, TypeCheckError, TypeMismatch, UBreak, ULam, ULet,
    UPair, UVar, UApp, check, erase, infer_principal, scheme_admits,
)
from termgen import clashing_copy, random_typable_term

A, B, C = Atom("A"), Atom("B"), Atom("C")


class TestCheck:
    def test_composition_term(self):
        t = parse_term(r"\f:A->B. \g:B->C. \x:A. g (f x)")
        assert check(t) == Arrow(Arrow(A, B), Arrow(Arrow(B, C), Arrow(A, C)))

    def test_identity_break(self):
        t = parse_term(r"\x:A. break x as <phi,f> @ A in phi f")
        assert check(t) == Arrow(A, A)

    def test_contraction_rejected(self):
        t = parse_term(r"\x:A. <x, x>")
        with pytest.raises(AffinityViolation) as err:
            check(t)
        assert err.value.name == "x"

    def test_unused_free_variable_shared_between_premises(self):
        # sharing an *unused* name cannot create contraction; the used sets
        # here are disjoint, so this checks
        t = Pair(Var("x", A), Var("y", B))
        assert check(t) == Tensor(A, B)

    def test_contraction_reported_before_type_error(self):
        # x x both contracts x and applies a non-function
        with pytest.raises(AffinityViolation) as err:
            check(parse_term(r"\x:A. x x"))
        assert err.value.name == "x"

    def test_mismatch_reports_path(self):
        t = parse_term(r"(f : A -> B) (x : C)")
        with pytest.raises(TypeMismatch) as err:
            check(t)
        assert err.value.path == (1,)

    def test_uniqueness_idempotent(self):
        rng = random.Random(31)
        for _ in range(100):
            t = random_typable_term(rng, max_size=25)
            assert check(t) == check(t)

    def test_affinity_soundness(self):
        rng = random.Random(32)
        for _ in range(200):
            t = random_typable_term(rng, max_size=25)
            check(t)
            assert affine_check(t)

    def test_axiom_types_exact(self):
        expected = {
            AxiomId.B1: Arrow(Arrow(A, B), Arrow(Arrow(B, C), Arrow(A, C))),
            AxiomId.B2: Arrow(Tensor(A, B), A),
            AxiomId.B3: Arrow(Tensor(A, B), Tensor(B, A)),
            AxiomId.B4: Arrow(Tensor(A, Arrow(A, B)),
                              Tensor(B, Arrow(B, A))),
            AxiomId.B5a: Arrow(Arrow(Tensor(A, B), C),
                               Arrow(A, Arrow(B, C))),
            AxiomId.B5b: Arrow(Arrow(A, Arrow(B, C)),
                               Arrow(Tensor(A, B), C)),
        }
        for axiom, ty in expected.items():
            assert check(axiom_term(axiom, A, B, C)) == ty


def copied(t):
    """An object equal to t but not t itself."""
    u = type(t)(*t)
    assert u == t and u is not t
    return u


class TestRepeatedCheck:
    """check answers a repeated call on the same object from its last
    result, which nd_to_sequent shares; a failing call stores nothing."""

    good = Lam("f", Arrow(A, B), Lam("x", A, App(Var("f", Arrow(A, B)),
                                                  Var("x", A))))
    mismatch = App(Var("g", Arrow(A, B)), Var("y", B))
    contraction = Pair(Var("a", A), Var("a", A))

    def test_a_failing_check_raises_again(self):
        for bad in (self.mismatch, self.contraction):
            expected = outcome(check, bad)
            assert expected[0] in (TypeMismatch, AffinityViolation)
            for f in (check, check, nd_to_sequent, check):
                assert outcome(f, bad) == expected

    def test_an_ill_typed_term_after_a_typable_one_still_raises(self):
        for bad in (self.mismatch, self.contraction):
            expected = outcome(check, bad)
            for f in (check, nd_to_sequent):
                check(self.good)
                assert outcome(f, bad) == expected

    def test_an_equal_distinct_object_gets_the_same_answer(self):
        for t in (self.good, self.mismatch, self.contraction):
            assert outcome(check, copied(t)) == outcome(check, t)
            assert outcome(check, t) == outcome(check, copied(t))

    def test_nd_to_sequent_after_check_runs_no_scan_and_no_check(
            self, monkeypatch):
        counts = Counter()
        for module, name in ((syntax_module, "_scan"),
                             (typecheck_module, "_check")):
            def counted(*args, real=getattr(module, name), name=name):
                counts[name] += 1
                return real(*args)
            monkeypatch.setattr(module, name, counted)
        t = copied(self.good)
        ty = check(t)
        assert counts["_scan"] == 1 and counts["_check"] > 0
        counts.clear()
        assert nd_to_sequent(t).conclusion.succedent is ty
        assert not counts

    def test_check_infer_translate_extract_scan_each_term_once(
            self, monkeypatch):
        # t, its erasure and the extracted term, as the sequence of calls
        # in the proofs benchmark makes them; the erasure's scan between
        # check(t) and star_translate(t) must not evict t
        scanned = []
        real = syntax_module._scan
        monkeypatch.setattr(syntax_module, "_scan",
                            lambda t: scanned.append(t) or real(t))
        t = copied(self.good)
        ty = check(t)
        u = erase(t)
        infer_principal(u)
        star_translate(t)
        text = print_derivation(eliminate_cuts(nd_to_sequent(t)))
        parsed = parse_derivation(text)
        check_derivation(parsed)
        extracted = sequent_to_term(parsed)
        assert check(extracted) == ty
        assert [id(x) for x in scanned] == [id(t), id(u), id(extracted)]

    def test_check_after_a_renaming_parse_runs_no_scan(self, monkeypatch):
        # each layer of the text binds x, phi and f again, so parse_term
        # renames; the renamed term is its own canonical form
        layer = r"(\x:A -> A. break x as <phi, f> @ A -> A in phi f)"
        text = f"{layer} ({layer} (\\w:A. w))"
        scanned = []
        real = syntax_module._scan
        monkeypatch.setattr(syntax_module, "_scan",
                            lambda t: scanned.append(t) or real(t))
        t = parse_term(text)
        assert len(scanned) == 2 and scanned[1] is t
        assert t.arg.fun.binder != "x"
        scanned.clear()
        assert check(t) == Arrow(A, A)
        assert scanned == []

    def test_two_threads_alternating_two_terms_get_their_own_types(self):
        assert_threads_get_their_own_types(
            [self.good, Pair(Var("p", A), Var("q", B))])

    def test_two_threads_cycling_three_terms_get_their_own_types(self):
        # three terms, so that the memo of the last two calls keeps storing
        assert_threads_get_their_own_types(
            [self.good, Pair(Var("p", A), Var("q", B)), Var("r", C)])


def assert_threads_get_their_own_types(terms):
    """Two threads check the terms in turn, with a 1 us switch interval;
    every check returns the term's own type."""
    types = [check(t) for t in terms]
    assert len(set(types)) == len(terms)
    wrong = []

    def run(offset: int) -> None:
        for i in range(offset, offset + 4000):
            t, ty = terms[i % len(terms)], types[i % len(terms)]
            if check(t) is not ty:
                wrong.append((t, ty))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,))
                   for k in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not wrong


class TestErase:
    def test_lambda(self):
        t = parse_term(r"\x:A. x")
        assert erase(t) == ULam("x", UVar("x"))

    def test_break(self):
        t = parse_term(r"break (x : A) as <phi,f> @ B in phi f")
        assert erase(t) == UBreak(UVar("x"), "phi", "f",
                                  UApp(UVar("phi"), UVar("f")))

    def test_let(self):
        t = parse_term(r"let <x:A, y:B> = (v : A*B) in x")
        assert erase(t) == ULet("x", "y", UVar("v"), UVar("x"))


class TestInfer:
    def test_break_forces_residue_equal_scrutinee(self):
        u = ULam("x", UBreak(UVar("x"), "phi", "f", UApp(UVar("phi"), UVar("f"))))
        scheme = infer_principal(u)
        a = Atom("a")
        assert scheme.body == Arrow(a, a)

    def test_let_projection(self):
        u = ULam("v", ULet("x", "y", UVar("v"), UVar("x")))
        scheme = infer_principal(u)
        assert print_type(scheme.body) == "a * b -> a"
        # the annotated first-projection term instantiates this scheme
        church = axiom_term(AxiomId.B2, A, B)
        assert scheme_admits(scheme, check(church))

    def test_plain_identity(self):
        scheme = infer_principal(ULam("x", UVar("x")))
        assert print_type(scheme.body) == "a -> a"

    def test_contraction_rejected(self):
        u = ULam("x", UPair(UVar("x"), UVar("x")))
        with pytest.raises(AffinityViolation):
            infer_principal(u)

    def test_contraction_names_the_contracted_variable(self):
        # x is bound twice but used once per binder; only y is contracted,
        # and inference names the same variable as check on the typed twin
        typed = Pair(Pair(Lam("x", A, Var("x", A)), Lam("x", A, Var("x", A))),
                     Lam("y", A, Pair(Var("y", A), Var("y", A))))
        u = UPair(UPair(ULam("x", UVar("x")), ULam("x", UVar("x"))),
                  ULam("y", UPair(UVar("y"), UVar("y"))))
        assert erase(typed) == u
        with pytest.raises(AffinityViolation) as inferred:
            infer_principal(u)
        with pytest.raises(AffinityViolation) as checked:
            check(typed)
        assert inferred.value.name == checked.value.name == "y"

    def test_principality_on_random_church_terms(self):
        rng = random.Random(33)
        for _ in range(500):
            t = random_typable_term(rng, max_size=30)
            scheme = infer_principal(erase(t))
            assert scheme_admits(scheme, check(t)), print_type(scheme.body)


def outcome(f, t):
    """f(t), or the class and message of the TypeCheckError it raises."""
    try:
        return f(t)
    except TypeCheckError as exc:
        return type(exc), str(exc)


def ill_typed_variants(t):
    """Variants of a typable term t that check rejects, each with the name
    the check reports (None for a type error): a bound variable annotated
    at another type; a free variable used twice, under an application of a
    pair; and a bound variable used twice, in a pair applied to it.  The
    last two are also ill-typed, so they pin contraction before typing."""
    out = []
    for path, sub in subterms(t):
        if isinstance(sub, Lam) and sub.binder in free_names(sub.body):
            x = Var(sub.binder, sub.binder_type)
            for inner, v in subterms(sub.body):
                if v == x:  # that binder's first use, at another type
                    wrong = Var(v.name, Arrow(v.type, v.type))
                    out.append((replace_at(t, path + (0,) + inner, wrong),
                                None))
                    break
            twice = Lam(sub.binder, sub.binder_type,
                        App(Pair(sub.body, x), x))
            out.append((replace_at(t, path, twice), sub.binder))
            break
    for name, ty in sorted(free_vars(t).items()):
        out.append((App(Pair(t, Var(name, ty)), Var(name, ty)), name))
        break
    return out


class TestNonCanonicalCopies:
    """check, nd_to_sequent, star_translate and inference canonicalise a
    term that is not canonical, and agree with the term they copy."""

    def test_typable_terms(self):
        rng = random.Random(20261022)
        copies = 0
        for _ in range(200):
            t = random_typable_term(rng, max_size=30)
            assert is_canonical(t)
            c = clashing_copy(t, rng)
            copies += not is_canonical(c)
            assert check(c) == check(t)
            assert nd_to_sequent(c) == nd_to_sequent(t)
            assert alpha_eq(star_translate(c), star_translate(t))
            assert infer_principal(erase(c)) == infer_principal(erase(t))
        assert copies > 150

    def test_rejected_terms_report_the_same_error(self):
        rng = random.Random(20261023)
        seen = {None: 0, "bound": 0, "free": 0}
        while min(seen.values()) < 40:
            t = random_typable_term(rng, max_size=30)
            for bad, name in ill_typed_variants(t):
                keep = frozenset() if name is None else frozenset((name,))
                c = clashing_copy(bad, rng, keep)
                if is_canonical(c):
                    continue
                expected = outcome(check, bad)
                assert outcome(check, c) == expected
                assert outcome(nd_to_sequent, c) == expected
                assert (outcome(infer_principal, erase(c))
                        == outcome(infer_principal, erase(bad)))
                if name is None:
                    assert expected[0] is TypeMismatch
                    seen[None] += 1
                else:  # contraction, although the term is also ill-typed
                    assert expected == (AffinityViolation,
                                        str(AffinityViolation(name)))
                    assert first_contraction(c) == name
                    seen["free" if name in free_names(bad) else "bound"] += 1

    def test_a_renamed_binder_is_reported_by_its_canonical_name(self):
        # the binder a clashes with the free a, so canonicalize primes it
        t = Pair(Var("a", A), Lam("a", B, Pair(Var("a", B), Var("a", B))))
        expected = (AffinityViolation, str(AffinityViolation("a'")))
        assert outcome(check, t) == expected
        assert outcome(nd_to_sequent, t) == expected
        assert outcome(infer_principal, erase(t)) == expected
        assert first_contraction(t) == "a'"


def reference_first_contraction(t):
    """first_contraction as it was: the post-order walk on every term."""
    return canonical_contraction(canonicalize(t))


def reference_affine(f):
    """f, after the reference rejects contraction, as check, nd_to_sequent
    and infer_principal did before they read contraction off the names."""
    def checked(t):
        name = reference_first_contraction(t)
        if name is not None:
            raise AffinityViolation(name)
        return f(t)
    return checked


def affinity_population(seed: int, count: int):
    """count seeded typable terms, each with a clashing copy, and every
    contracting variant of ill_typed_variants with a clashing copy."""
    rng = random.Random(seed)
    for _ in range(count):
        t = random_typable_term(rng, max_size=30)
        yield t
        yield clashing_copy(t, rng)
        for bad, name in ill_typed_variants(t):
            if name is not None:
                yield bad
                yield clashing_copy(bad, rng, frozenset((name,)))


def infer_erased(t):
    return infer_principal(erase(t))


class TestAffinityByOccurrence:
    """A canonical term contracts exactly when a name occurs in it twice;
    the post-order walk runs only to name the variable."""

    def test_outcomes_equal_the_post_order_reference(self):
        contracting = 0
        for t in affinity_population(20261019, 300):
            expected = reference_first_contraction(t)
            contracting += expected is not None
            assert first_contraction(t) == expected, t
            assert affine_check(t) == (expected is None)
            for f in (check, nd_to_sequent, infer_erased):
                assert outcome(f, t) == outcome(reference_affine(f), t), t
        assert contracting > 300

    def test_free_variable_used_twice(self):
        t = Pair(Var("a", A), Var("a", A))
        assert first_contraction(t) == "a"
        expected = (AffinityViolation, str(AffinityViolation("a")))
        for f in (check, nd_to_sequent, infer_erased):
            assert outcome(f, t) == expected
        assert outcome(check, App(t, Var("a", A))) == expected

    def test_affine_terms_never_run_the_post_order_walk(self, monkeypatch):
        def walk(t):
            raise AssertionError("canonical_contraction ran on an affine term")

        monkeypatch.setattr(syntax_module, "canonical_contraction", walk)
        monkeypatch.setattr(typecheck_module, "canonical_contraction", walk)
        rng = random.Random(20261020)
        for _ in range(200):
            t = random_typable_term(rng, max_size=30)
            for u in (t, clashing_copy(t, rng)):
                check(u)
                nd_to_sequent(u)
                infer_principal(erase(u))
                assert first_contraction(u) is None
        with pytest.raises(AssertionError):
            check(Pair(Var("a", A), Var("a", A)))
