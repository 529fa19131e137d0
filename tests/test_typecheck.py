"""Type checking, erasure, and principal type inference."""

import functools
import itertools
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
    App, Arrow, Atom, Break, IllFormedTermError, Lam, Let, Pair, Tensor, Var,
    affine_check, alpha_eq, canonical_contraction, canonicalize,
    first_contraction, free_names, free_vars, is_canonical, ks_types,
    replace_at, subterm_at, subterms, type_size,
)
from breakcalc.typecheck import (
    AffinityViolation, OccursCheck, TypeCheckError, TypeMismatch,
    TypeScheme, UBreak, ULam, ULet, UPair, UVar, UApp, UnificationFailure,
    check, erase, infer_principal, scheme_admits,
)
from termgen import (
    clashing_copy, random_type, random_typable_term,
)
from test_golden_outputs import golden_items

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
                             (typecheck_module._Checker, "type_of")):
            def counted(*args, real=getattr(module, name), name=name):
                counts[name] += 1
                return real(*args)
            monkeypatch.setattr(module, name, counted)
        t = copied(self.good)
        ty = check(t)
        assert counts["_scan"] == 1 and counts["type_of"] > 0
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
        # renames; the renamed term is its own canonical form, and its
        # names are listed by the renaming walk, with no scan of it
        layer = r"(\x:A -> A. break x as <phi, f> @ A -> A in phi f)"
        text = f"{layer} ({layer} (\\w:A. w))"
        scanned = []
        real = syntax_module._scan
        monkeypatch.setattr(syntax_module, "_scan",
                            lambda t: scanned.append(t) or real(t))
        t = parse_term(text)
        assert len(scanned) == 1 and scanned[0] is not t
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


def reference_erase(t):
    """erase as it was: a case per Term constructor."""
    match t:
        case Var(name, _):
            return UVar(name)
        case Lam(b, _, body):
            return ULam(b, reference_erase(body))
        case App(fun, arg):
            return UApp(reference_erase(fun), reference_erase(arg))
        case Pair(a, b):
            return UPair(reference_erase(a), reference_erase(b))
        case Let(x, _, y, _, scrut, body):
            return ULet(x, y, reference_erase(scrut), reference_erase(body))
        case Break(scrut, phi, f, _, body):
            return UBreak(reference_erase(scrut), phi, f,
                          reference_erase(body))
    raise TypeError(f"not a term: {t!r}")


class TestErase:
    def test_equals_the_reference(self):
        # the golden items and 2,000 seeded terms, with their copies and
        # mutations, from the checker's population
        kinds = Counter()
        for kind, t in check_population():
            assert erase(t) == reference_erase(t), t
            kinds[kind] += 1
        assert kinds["golden"] > 20 and kinds["seeded"] == 2000
        for bad in ("x", UVar("x"), A, ULam("x", UVar("x"))):
            with pytest.raises(TypeError) as got:
                erase(bad)
            with pytest.raises(TypeError) as expected:
                reference_erase(bad)
            assert str(got.value) == str(expected.value)

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


class TestSchemeAdmits:
    """scheme_admits rejects what is no substitution instance."""

    a, b = Atom("a"), Atom("b")

    def test_a_variable_keeps_its_first_binding(self):
        scheme = TypeScheme(Arrow(self.a, self.a), frozenset("a"))
        assert scheme_admits(scheme, Arrow(A, A))
        assert scheme_admits(scheme, Arrow(Tensor(A, B), Tensor(A, B)))
        assert not scheme_admits(scheme, Arrow(A, B))
        assert not scheme_admits(scheme, Arrow(Arrow(A, B), Arrow(B, A)))

    def test_a_tensor_does_not_admit_an_arrow(self):
        scheme = TypeScheme(Tensor(self.a, self.b), frozenset("ab"))
        assert scheme_admits(scheme, Tensor(A, Arrow(A, B)))
        assert not scheme_admits(scheme, Arrow(A, B))
        assert not scheme_admits(TypeScheme(Arrow(self.a, self.b),
                                            frozenset("ab")), Tensor(A, B))

    def test_an_atom_that_is_no_scheme_variable_matches_only_itself(self):
        scheme = TypeScheme(Arrow(A, self.a), frozenset("a"))
        assert scheme_admits(scheme, Arrow(A, B))
        assert not scheme_admits(scheme, Arrow(B, B))
        assert not scheme_admits(scheme, Arrow(Arrow(A, A), B))
        closed = TypeScheme(Arrow(self.a, self.a))
        assert scheme_admits(closed, Arrow(self.a, self.a))
        assert not scheme_admits(closed, Arrow(A, A))
        assert not scheme_admits(TypeScheme(A), B)


# The type layer as it was, with a case per compound type in each walk and
# a branch per side of unification: the oracle of TestTypeLayerAgainstReference.

class ReferenceInferencer:
    def __init__(self) -> None:
        self.counter = 0
        self.sub = {}

    def fresh(self):
        self.counter += 1
        return Atom(f"?{self.counter}")

    def resolve(self, ty):
        while isinstance(ty, Atom) and ty.name in self.sub:
            ty = self.sub[ty.name]
        return ty

    def occurs(self, name, ty):
        ty = self.resolve(ty)
        match ty:
            case Atom(n):
                return n == name
            case Arrow(d, c):
                return self.occurs(name, d) or self.occurs(name, c)
            case Tensor(l, r):
                return self.occurs(name, l) or self.occurs(name, r)
        return False

    def unify(self, a, b, path):
        a, b = self.resolve(a), self.resolve(b)
        if a == b:
            return
        if isinstance(a, Atom) and a.name.startswith("?"):
            if self.occurs(a.name, b):
                raise OccursCheck(a.name, b, path)
            self.sub[a.name] = b
            return
        if isinstance(b, Atom) and b.name.startswith("?"):
            if self.occurs(b.name, a):
                raise OccursCheck(b.name, a, path)
            self.sub[b.name] = a
            return
        if isinstance(a, Arrow) and isinstance(b, Arrow):
            self.unify(a.dom, b.dom, path)
            self.unify(a.cod, b.cod, path)
            return
        if isinstance(a, Tensor) and isinstance(b, Tensor):
            self.unify(a.left, b.left, path)
            self.unify(a.right, b.right, path)
            return
        raise UnificationFailure(a, b, path)

    def walk(self, u, env, free, path):
        match u:
            case UVar(name):
                if name in env:
                    return env[name]
                return free.setdefault(name, self.fresh())
            case ULam(b, body):
                a = self.fresh()
                r = self.walk(body, env | {b: a}, free, path + (0,))
                return Arrow(a, r)
            case UApp(fun, arg):
                ft = self.walk(fun, env, free, path + (0,))
                at = self.walk(arg, env, free, path + (1,))
                res = self.fresh()
                self.unify(ft, Arrow(at, res), path)
                return res
            case UPair(a, b):
                return Tensor(self.walk(a, env, free, path + (0,)),
                              self.walk(b, env, free, path + (1,)))
            case ULet(x, y, scrut, body):
                st = self.walk(scrut, env, free, path + (0,))
                xa, yb = self.fresh(), self.fresh()
                self.unify(st, Tensor(xa, yb), path + (0,))
                return self.walk(body, env | {x: xa, y: yb}, free, path + (1,))
            case UBreak(scrut, phi, f, body):
                alpha = self.walk(scrut, env, free, path + (0,))
                kty, sty = ks_types(alpha, self.fresh())
                return self.walk(body, env | {phi: kty, f: sty}, free,
                                 path + (1,))
        raise TypeError(f"not an untyped term: {u!r}")


def reference_infer_principal(u):
    name = first_contraction(u)
    if name is not None:
        raise AffinityViolation(name)
    inf = ReferenceInferencer()
    return reference_canonical_scheme(inf.walk(u, {}, {}, ()), inf.resolve)


def reference_canonical_scheme(ty, resolve):
    mapping = {}

    def name_for(i):
        letters = "abcdefghijklmnopqrstuvwxyz"
        return letters[i] if i < 26 else f"{letters[i % 26]}{i // 26}"

    def go(ty):
        match resolve(ty):
            case Atom(n) if n.startswith("?"):
                if n not in mapping:
                    mapping[n] = Atom(name_for(len(mapping)))
                return mapping[n]
            case Arrow(d, c):
                return Arrow(go(d), go(c))
            case Tensor(l, r):
                return Tensor(go(l), go(r))
            case resolved:
                return resolved

    body = go(ty)
    return TypeScheme(body, frozenset(a.name for a in mapping.values()))


def reference_scheme_admits(scheme, ty):
    binding = {}

    def match(pat, ty):
        match pat:
            case Atom(n) if n in scheme.variables:
                if n in binding:
                    return binding[n] == ty
                binding[n] = ty
                return True
            case Atom(n):
                return pat == ty
            case Arrow(d, c):
                return (isinstance(ty, Arrow) and match(d, ty.dom)
                        and match(c, ty.cod))
            case Tensor(l, r):
                return (isinstance(ty, Tensor) and match(l, ty.left)
                        and match(r, ty.right))
        return False

    return match(scheme.body, ty)


def reference_type_size(ty):
    match ty:
        case Atom():
            return 1
        case Arrow(dom, cod):
            return 1 + reference_type_size(dom) + reference_type_size(cod)
        case Tensor(left, right):
            return 1 + reference_type_size(left) + reference_type_size(right)
    raise TypeError(f"not a type: {ty!r}")


def random_affine_untyped(rng, size, scope, fresh):
    """A random untyped term of about size nodes, affine by construction:
    each variable is a binder of scope, which it leaves, or a new free
    name.  Most are untypable, which unification finds."""
    if size <= 1:
        if scope and rng.random() < 0.7:
            return UVar(scope.pop(rng.randrange(len(scope))))
        return UVar(f"z{next(fresh)}")
    kind = rng.randrange(5)
    if kind == 0:
        b = f"x{next(fresh)}"
        scope.append(b)
        body = random_affine_untyped(rng, size - 1, scope, fresh)
        if b in scope:
            scope.remove(b)
        return ULam(b, body)
    left = rng.randrange(1, size)
    first = random_affine_untyped(rng, left, scope, fresh)
    if kind < 3:
        second = random_affine_untyped(rng, size - left, scope, fresh)
        return (UApp if kind == 1 else UPair)(first, second)
    x, y = f"x{next(fresh)}", f"x{next(fresh)}"
    scope += (x, y)
    body = random_affine_untyped(rng, size - left, scope, fresh)
    scope[:] = [n for n in scope if n not in (x, y)]
    return (ULet(x, y, first, body) if kind == 3
            else UBreak(first, x, y, body))


def outcome_kind(got):
    """The class of the error in an outcome, or TypeScheme."""
    return got[0] if type(got) is tuple else TypeScheme


class TestTypeLayerAgainstReference:
    """Inference, scheme matching and type sizes, with one structural case
    per walk and one binding case in unification, agree with the type layer
    as it was."""

    def test_inference_on_erasures_variants_and_copies(self):
        rng = random.Random(20261019)
        kinds = Counter()
        terms = [t for _, t in golden_items()]
        for _ in range(2000):
            t = random_typable_term(rng, max_size=30)
            terms.append(t)
            terms.append(clashing_copy(t, rng))
            terms.extend(bad for bad, _ in ill_typed_variants(t))
        for t in terms:
            u = erase(t)
            got = outcome(infer_principal, u)
            assert got == outcome(reference_infer_principal, u), t
            kinds[outcome_kind(got)] += 1
        assert kinds[TypeScheme] > 4000 and kinds[AffinityViolation] > 1000

    def test_inference_on_random_affine_untyped_terms(self):
        rng = random.Random(20261020)
        fresh = itertools.count()
        kinds = Counter()
        for _ in range(3000):
            u = random_affine_untyped(rng, rng.randrange(2, 25), [], fresh)
            got = outcome(infer_principal, u)
            assert got == outcome(reference_infer_principal, u), u
            kinds[outcome_kind(got)] += 1
        assert min(kinds[k] for k in (TypeScheme, UnificationFailure,
                                      OccursCheck)) > 50, kinds

    def test_scheme_admits_on_checked_and_mismatched_types(self):
        rng = random.Random(20261021)
        pairs = []
        for _ in range(1000):
            t = random_typable_term(rng, max_size=30)
            pairs.append((infer_principal(erase(t)), check(t)))
        schemes, types = zip(*pairs)
        mismatched = list(zip(schemes, types[1:] + types[:1]))
        verdicts = Counter()
        for scheme, ty in pairs + mismatched:
            got = scheme_admits(scheme, ty)
            assert got == reference_scheme_admits(scheme, ty), (scheme, ty)
            verdicts[got] += 1
        assert verdicts[True] >= 1000 and verdicts[False] > 200

    def test_type_size_on_random_types(self):
        rng = random.Random(20261022)
        for _ in range(2000):
            ty = random_type(rng, depth=rng.randrange(8))
            assert type_size(ty) == reference_type_size(ty)
        for bad in ("A", Var("x", A), UVar("x")):
            with pytest.raises(TypeError) as got:
                type_size(bad)
            with pytest.raises(TypeError) as expected:
                reference_type_size(bad)
            assert str(got.value) == str(expected.value)


# check as it was: the contraction test first, then a case per Term
# constructor.  Each error it raises at a typing rule carries the name of
# that rule's site, which outcomes do not compare, so that the tests can
# count the mutations that reach each site.

def reference_check(t):
    name = reference_first_contraction(t)
    if name is not None:
        raise AffinityViolation(name)
    return _reference_check(canonicalize(t), {}, (), {})


def at_site(site, exc):
    exc.site = site
    return exc


def _reference_check(t, env, path, free_seen):
    match t:
        case Var(name, ty):
            if name in env:
                if env[name] != ty:
                    raise at_site("bound variable",
                                  TypeMismatch(env[name], ty, path))
            else:
                seen = free_seen.get(name)
                if seen is not None and seen != ty:
                    raise at_site("free name at two types", IllFormedTermError(
                        f"variable {name!r} used at two types"))
                free_seen[name] = ty
            return ty
        case Lam(b, bt, body):
            env[b] = bt
            return Arrow(bt, _reference_check(body, env, path + (0,),
                                              free_seen))
        case App(fun, arg):
            fty = _reference_check(fun, env, path + (0,), free_seen)
            aty = _reference_check(arg, env, path + (1,), free_seen)
            if not isinstance(fty, Arrow):
                raise at_site("not a function", TypeMismatch(
                    "a function type", fty, path + (0,)))
            if fty.dom != aty:
                raise at_site("domain", TypeMismatch(fty.dom, aty,
                                                     path + (1,)))
            return fty.cod
        case Pair(a, b):
            return Tensor(_reference_check(a, env, path + (0,), free_seen),
                          _reference_check(b, env, path + (1,), free_seen))
        case Let(x, xt, y, yt, scrut, body):
            sty = _reference_check(scrut, env, path + (0,), free_seen)
            if sty != Tensor(xt, yt):
                raise at_site("let", TypeMismatch(Tensor(xt, yt), sty,
                                                  path + (0,)))
            env[x], env[y] = xt, yt
            return _reference_check(body, env, path + (1,), free_seen)
        case Break(scrut, phi, f, residue, body):
            sty = _reference_check(scrut, env, path + (0,), free_seen)
            env[phi], env[f] = ks_types(sty, residue)
            return _reference_check(body, env, path + (1,), free_seen)
    raise TypeError(f"not a term: {t!r}")


def check_outcome(f, t):
    """f(t), or the class and message of the error it raises, and the site
    of the rule that raised it, if it names one."""
    try:
        return f(t), None
    except (TypeCheckError, IllFormedTermError) as exc:
        return (type(exc), str(exc)), getattr(exc, "site", None)


#: the annotation fields of each Term class
ANNOTATIONS = {Var: ("type",), Lam: ("binder_type",),
               Let: ("x_type", "y_type"), Break: ("residue",)}


def annotation_mutations(t, rng, count):
    """Up to count copies of t, each with one annotation ty, drawn at
    random, replaced by ty * ty."""
    slots = [(path, field) for path, sub in subterms(t)
             for field in ANNOTATIONS.get(type(sub), ())]
    for path, field in rng.sample(slots, min(count, len(slots))):
        sub = subterm_at(t, path)
        ty = getattr(sub, field)
        yield replace_at(t, path, sub._replace(**{field: Tensor(ty, ty)}))


def free_name_at_two_types(t):
    """t paired with one of its free variables at another type, or nothing
    if t is closed."""
    for name, ty in sorted(free_vars(t).items()):
        yield Pair(t, Var(name, Tensor(ty, ty)))
        break


@functools.cache
def check_population():
    """(kind, term): the golden items, 2,000 seeded terms, their clashing
    copies, ill_typed_variants, annotation mutations and free names at two
    types."""
    rng = random.Random(20261023)
    out = [("golden", t) for _, t in golden_items()]
    for _ in range(2000):
        t = random_typable_term(rng, max_size=30)
        out += [("seeded", t), ("copy", clashing_copy(t, rng))]
        out += [("variant", bad) for bad, _ in ill_typed_variants(t)]
        out += [("annotation", m) for m in annotation_mutations(t, rng, 3)]
        out += [("two types", m) for m in free_name_at_two_types(t)]
    return out


class TestCheckAgainstReference:
    """check, one walk with inference, agrees with check as it was, a case
    per constructor, on typable terms and on mutations that reach each of
    its error sites."""

    def test_outcomes_equal_the_reference(self):
        sites, kinds = Counter(), Counter()
        for kind, t in check_population():
            expected, site = check_outcome(reference_check, t)
            assert check_outcome(check, t)[0] == expected, t
            kinds[kind, type(expected) is tuple and expected[0]] += 1
            sites[site] += 1
        floors = {"not a function": 100, "domain": 800, "let": 1500,
                  "bound variable": 500}
        assert all(sites[s] > n for s, n in floors.items()), sites
        assert kinds["seeded", False] == 2000
        assert kinds["annotation", TypeMismatch] > 3000, kinds
        # contraction is tested first, and two occurrences of one free name
        # contract, so the reference's "used at two types" site is never
        # reached, and check has none
        assert sites["free name at two types"] == 0
        assert kinds["two types", AffinityViolation] > 1500, kinds
        assert not any(k == "two types" and v is not AffinityViolation
                       for k, v in kinds), kinds

    def test_a_term_of_the_other_family_is_no_term(self):
        for f, reference, bad in (
                (check, reference_check, ULam("x", UVar("x"))),
                (check, reference_check, UVar("x")),
                (infer_principal, reference_infer_principal,
                 Lam("x", A, Var("x", A))),
                (infer_principal, reference_infer_principal, Var("x", A))):
            with pytest.raises(TypeError) as got:
                f(bad)
            with pytest.raises(TypeError) as expected:
                reference(bad)
            assert str(got.value) == str(expected.value)
