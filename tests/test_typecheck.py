"""Type checking, erasure, and principal type inference."""

import random

import pytest

from breakcalc.catalog import AxiomId, axiom_term
from breakcalc.parser import parse_term
from breakcalc.printer import print_type
from breakcalc.syntax import (
    Arrow, Atom, Lam, Pair, Tensor, Var, affine_check,
)
from breakcalc.typecheck import (
    AffinityViolation, TypeMismatch, UBreak, ULam, ULet, UPair, UVar,
    UApp, check, erase, infer_principal, scheme_admits,
)
from termgen import random_typable_term

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
