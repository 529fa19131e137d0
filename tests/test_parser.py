"""Parser and printer: grammar cases, error reporting, and the round trip."""

import random

import pytest

from breakcalc.parser import ParseError, parse_term, parse_type, tokenize
from breakcalc.printer import print_term, print_type
from breakcalc.syntax import (
    App, Arrow, Atom, Break, Lam, Let, Pair, Tensor, Var, alpha_eq,
)
from termgen import random_typable_term

A, B, C = Atom("A"), Atom("B"), Atom("C")


class TestTokenize:
    def test_tokens_are_kind_value_offset(self):
        # a keyword is its own kind; comments leave no token
        assert tokenize("let x -- note\n->(") == [
            ("let", "let", 0), ("IDENT", "x", 4), ("ARROW", "->", 14),
            ("LPAREN", "(", 16), ("EOF", "", 17)]


class TestParseType:
    def test_arrow_right_associative(self):
        assert parse_type("A -> B -> C") == Arrow(A, Arrow(B, C))

    def test_tensor_binds_tighter(self):
        assert parse_type("A * B -> A") == Arrow(Tensor(A, B), A)

    def test_parens_group(self):
        assert parse_type("(A -> B) -> B") == Arrow(Arrow(A, B), B)

    def test_tensor_left_associative(self):
        assert parse_type("A * B * C") == Tensor(Tensor(A, B), C)

    def test_error_has_span_and_expectations(self):
        with pytest.raises(ParseError) as err:
            parse_type("A -> ->")
        assert err.value.span.line == 1
        assert err.value.expected


class TestParseTerm:
    def test_identity_break(self):
        t = parse_term(r"\x:A. break x as <phi,f> @ A in phi f")
        assert isinstance(t, Lam)
        assert isinstance(t.body, Break)
        assert t.body.residue == A

    def test_let_projection(self):
        t = parse_term(r"\v:A*B. let <x:A, y:B> = v in x")
        assert isinstance(t, Lam) and isinstance(t.body, Let)

    def test_application_left_associative(self):
        t = parse_term("(f : A -> A -> B) (x : A) (y : A)")
        assert isinstance(t, App) and isinstance(t.fun, App)

    def test_lambda_body_extends_right(self):
        t = parse_term(r"\f:A -> B. \x:A. f x")
        assert isinstance(t, Lam) and isinstance(t.body, Lam)

    def test_free_variable_needs_ascription(self):
        with pytest.raises(ParseError):
            parse_term("x")

    def test_ascription_once_then_bare(self):
        t = parse_term("<(x : A), x>")
        assert t == Pair(Var("x", A), Var("x", A))

    def test_conflicting_ascriptions_rejected(self):
        with pytest.raises(ParseError):
            parse_term("<(x : A), (x : B)>")

    def test_duplicate_let_binders_rejected(self):
        with pytest.raises(ParseError):
            parse_term(r"let <x:A, x:B> = (v : A*B) in x")

    def test_duplicate_break_binders_rejected(self):
        with pytest.raises(ParseError):
            parse_term("break (x : A) as <p,p> @ B in p")

    def test_comments_ignored(self):
        t = parse_term("-- the identity\n\\x:A. x -- trailing\n")
        assert alpha_eq(t, Lam("x", A, Var("x", A)))

    def test_primes_in_identifiers(self):
        t = parse_term(r"\x':A. x'")
        assert isinstance(t, Lam)

    def test_binders_renamed_apart(self):
        t = parse_term(r"\x:A. <\x:B. x, x>")
        # canonical renaming keeps the outer x and renames the inner one
        assert isinstance(t, Lam)
        inner = t.body.first
        assert inner.binder != t.binder


class TestPrint:
    def test_arrow_chain(self):
        assert print_type(Arrow(A, Arrow(B, C))) == "A -> B -> C"

    def test_arrow_domain_parenthesized(self):
        assert print_type(Arrow(Arrow(A, B), B)) == "(A -> B) -> B"

    def test_tensor_right_nesting(self):
        assert print_type(Tensor(A, Tensor(B, C))) == "A * (B * C)"

    def test_identity_break_round(self):
        t = parse_term(r"\x:A. break x as <phi, f> @ A in phi f")
        assert print_term(t) == r"\x:A. break x as <phi, f> @ A in phi f"

    def test_application_spine(self):
        t = App(App(Var("f", Arrow(A, Arrow(A, B))), Var("x", A)), Var("y", A))
        out = print_term(t)
        assert out == "(f : A -> A -> B) (x : A) (y : A)"

    def test_no_parens_on_atoms(self):
        t = parse_term(r"\x:A. x")
        assert "(" not in print_term(t)


class TestRoundTrip:
    def test_non_affine_terms_round_trip_too(self):
        # well-formedness does not require affinity; the printer ascribes
        # every free occurrence and the parser accepts consistent repeats
        contraction = Lam("x", A, Pair(Var("x", A), Var("x", A)))
        assert alpha_eq(parse_term(print_term(contraction)), contraction)
        free_twice = Pair(Var("x", A), Var("x", A))
        assert alpha_eq(parse_term(print_term(free_twice)), free_twice)

    def test_random_terms(self):
        rng = random.Random(21)
        for _ in range(300):
            t = random_typable_term(rng, max_size=35)
            back = parse_term(print_term(t))
            assert alpha_eq(back, t), print_term(t)

    def test_random_types(self):
        rng = random.Random(22)
        from termgen import random_type

        for _ in range(300):
            ty = random_type(rng, 4)
            assert parse_type(print_type(ty)) == ty
