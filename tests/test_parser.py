"""Parser and printer: grammar cases, error reporting, and the round trip."""

import random
import subprocess
import sys

import pytest

import breakcalc.parser as parser_module
from breakcalc import catalog
from breakcalc.parser import ParseError, parse_term, parse_type, tokenize
from breakcalc.printer import print_term, print_type
from breakcalc.syntax import (
    App, Arrow, Atom, Break, IllFormedTermError, Lam, Let, Pair, Tensor,
    Term, Var, _canonical_names, alpha_eq, canonicalize,
)
from reference_parser import raw_parse, reference_parse_term
from termgen import clashing_copy, random_typable_term
from test_parse_errors import (
    SAMPLES, inputs as parse_error_inputs, mutations as parse_error_mutations,
)
from test_reduction import break_chain, identity_chain, permuting_chain

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


def outcome(parse, text: str):
    """parse(text), its printed text and its variables' names; or the
    error's class, text, span and expected list."""
    try:
        t = parse(text)
    except (ParseError, IllFormedTermError) as exc:
        return (type(exc), str(exc), getattr(exc, "span", None),
                getattr(exc, "expected", None))
    return t, print_term(t), _canonical_names(t)[1]


def count_passes(monkeypatch) -> list[int]:
    """A list that gets, per parse_term call, how many times it read the
    text."""
    counts: list[int] = []
    read = parser_module._read_term

    def counting(ts, used):
        if ts.pos == 0 and not used:
            counts.append(0)
        counts[-1] += 1
        return read(ts, used)

    monkeypatch.setattr(parser_module, "_read_term", counting)
    return counts


class TestOneLoopAgainstRecursiveDescent:
    """parse_term, one loop that names each binder as its scope is entered,
    gives what the recursive descent followed by canonical renaming gives:
    the same term, text and names, or the same error.  The renaming reads
    sets, so these run under two hash seeds too."""

    def assert_as_reference(self, text: str, reference=None) -> None:
        """reference, a term built in code whose printed text is text, stands
        for the descent where that would run out of recursion."""
        got = outcome(parse_term, text)
        if reference is None:
            want = outcome(reference_parse_term, text)
            raw_names = (_canonical_names(raw_parse(text))[1]
                         if isinstance(want[0], Term) else None)
        else:
            want = outcome(canonicalize, reference)
            raw_names = _canonical_names(reference)[1]
        assert got == want, text
        if isinstance(got[0], Term):
            # the name set the renaming walk lists is the _scan of the result
            assert got[2] == raw_names, text
            assert _canonical_names(got[0])[0] is got[0]

    @pytest.mark.parametrize("chain", [identity_chain, break_chain,
                                       permuting_chain])
    def test_chains(self, chain):
        for n in [*range(1, 81), 120, 160, 240, 320]:
            t = chain(n)
            self.assert_as_reference(print_term(t),
                                     t if n > 80 else None)

    def test_random_terms_and_their_clashing_copies(self, monkeypatch):
        passes = count_passes(monkeypatch)
        rng = random.Random(20261103)
        for _ in range(400):
            t = random_typable_term(rng, max_size=30)
            for u in (t, clashing_copy(t, rng), clashing_copy(t, rng)):
                self.assert_as_reference(print_term(u))
        # the population reaches the second pass, and mostly needs none
        assert 50 < passes.count(2) < passes.count(1)

    def test_samples_and_catalog_templates(self):
        texts = [p.read_text(encoding="utf-8")
                 for p in sorted(SAMPLES.glob("*.bterm"))]
        texts += [text for _, text in [*catalog.AXIOMS.values(),
                                       *catalog.NAMED.values()]]
        assert len(texts) == 4 + len(catalog.AXIOMS) + len(catalog.NAMED)
        for text in texts:
            self.assert_as_reference(text)

    def test_mutated_inputs_raise_as_the_reference_does(self):
        rng = random.Random(20261104)
        errors = 0
        for _, kind, text in parse_error_inputs():
            if kind == "term":
                for _, mutated in parse_error_mutations(text, rng):
                    self.assert_as_reference(mutated)
                    errors += not isinstance(
                        outcome(parse_term, mutated)[0], Term)
        assert errors > 500

    @pytest.mark.parametrize("text, printed, passes", [
        # a free name read after a binder that kept it: read again
        (r"<\x:A. x, (x : A)>", r"<\x':A. x', (x : A)>", 2),
        (r"<let <x:A, y:B> = (p : A * B) in x, (y : B)>",
         r"<let <x:A, y':B> = (p : A * B) in x, (y : B)>", 2),
        (r"<break (c : A) as <phi, f> @ B in f, (phi : A)>",
         r"<break (c : A) as <phi', f> @ B in f, (phi : A)>", 2),
        # ... or after a binder that was given its name as a primed one
        (r"<\x:A. <\x:A. x, x>, (x' : A)>",
         r"<\x:A. <\x'':A. x'', x>, (x' : A)>", 2),
        (r"<\x:A. \x':A. x, (x' : A)>", r"<\x:A. \x'':A. x, (x' : A)>", 2),
        # a free name read before the binder: one pass
        (r"<(x : A), \x:A. x>", r"<(x : A), \x':A. x'>", 1),
        (r"<(x : A), <\x:A. x, \x:A. x>>",
         r"<(x : A), <\x':A. x', \x'':A. x''>>", 1),
        # a let's binders are named after its scrutinee's
        (r"let <x:A, y:A> = (\x:A. <x, (z : A)>) (w : A) in <x, y>",
         r"let <x':A, y:A> = (\x:A. <x, (z : A)>) (w : A) in <x', y>", 1),
    ])
    def test_free_name_after_a_binder_of_that_name(self, monkeypatch, text,
                                                   printed, passes):
        counted = count_passes(monkeypatch)
        self.assert_as_reference(text)
        assert print_term(parse_term(text)) == printed
        assert counted == [passes, passes]


class TestNestingDepth:
    """The term parser keeps its own stack, so a term of any depth parses
    under the default recursion limit."""

    def test_3000_deep_nests_parse_without_recursion(self):
        # a fresh interpreter, so the limit is the default one
        code = (
            "import sys\n"
            "from breakcalc.parser import parse_term\n"
            "from breakcalc.syntax import App, Arrow, Atom, Lam, Pair, Var\n"
            "A = Atom('A'); n = 3000\n"
            "assert sys.getrecursionlimit() == 1000\n"
            "lam = Var('x0', A)\n"
            "for i in reversed(range(n)): lam = Lam(f'x{i}', A, lam)\n"
            "f = Var('f', Arrow(A, A)); app = Var('a', A)\n"
            "for _ in range(n): app = App(f, app)\n"
            "pair = Var('a', A)\n"
            "for _ in range(n): pair = Pair(pair, Var('b', A))\n"
            "texts = [''.join(f'\\\\x{i}:A. ' for i in range(n)) + 'x0',\n"
            "         '(f : A -> A) (' * n + '(a : A)' + ')' * n,\n"
            "         '<' * n + '(a : A)' + ', (b : A)>' * n]\n"
            "for text, want in zip(texts, (lam, app, pair)):\n"
            "    assert parse_term(text) == want\n"
            "print('ok')\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")
