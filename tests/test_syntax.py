"""Core syntax operations: free variables, substitution, sizes, affinity,
and the value contract of syntax nodes and records."""

import copy
import pickle
import random
import subprocess
import sys

import pytest

from breakcalc.lambda_pair import (
    LApp, LLam, LPair, LProj0, LProj1, LVar, star_translate,
)
from breakcalc.parser import parse_type
from breakcalc.reduction import Redex, RuleName
from breakcalc.sequent import arr_r, asm, sequent
from breakcalc.syntax import (
    SPECS, App, Arrow, Atom, Break, IllFormedTermError, Lam, Let, Pair,
    Tensor, TypeExpr, Var, affine_check, all_names, alpha_eq, annotated_type,
    binders, canonicalize, free_names, free_vars, fresh_name, is_canonical,
    ks_types, print_type, replace_at, substitute, subterm_at, subterms,
    term_size, type_size,
)
from breakcalc.syntax import _TOP, _ptype
from breakcalc.typecheck import UApp, UBreak, ULam, ULet, UPair, UVar, erase
from termgen import (
    clashing_copy, random_large_term, random_type, random_typable_term,
)

A, B, C = Atom("A"), Atom("B"), Atom("C")


def identity_break_body():
    k, s = ks_types(A, B)
    return Break(Var("x", A), "phi", "f", B,
                 App(Var("phi", k), Var("f", s)))


class TestFreeVars:
    def test_variable(self):
        assert free_vars(Var("x", A)) == {"x": A}

    def test_binder_removes_variable(self):
        assert free_vars(Lam("x", A, Var("x", A))) == {}

    def test_break_removes_both_binders(self):
        t = identity_break_body()
        assert free_vars(t) == {"x": A}

    def test_conflicting_types_rejected(self):
        t = Pair(Var("x", A), Var("x", B))
        with pytest.raises(IllFormedTermError):
            free_vars(t)

    def test_let_unions_scrutinee(self):
        t = Let("x", A, "y", B, Var("v", Tensor(A, B)), Var("z", C))
        assert free_vars(t) == {"v": Tensor(A, B), "z": C}


class TestSubstitute:
    def test_hit(self):
        s = Lam("z", B, Var("z", B))
        assert substitute(Var("x", Arrow(B, B)), [("x", s)]) == s

    def test_miss(self):
        assert substitute(Var("y", A), [("x", Var("z", A))]) == Var("y", A)

    def test_capture_avoided(self):
        # \y:B. x with x := y must rename the binder
        t = Lam("y", B, Var("x", B))
        out = substitute(t, [("x", Var("y", B))])
        assert alpha_eq(out, Lam("w", B, Var("y", B)))
        assert out.binder != "y"

    def test_renamed_binder_does_not_capture(self):
        # \y:A. \y':B. <y, (x : C)> with x := (y : C): the outer binder
        # becomes y', so the inner binder y' must move away too
        t = Lam("y", A, Lam("y'", B, Pair(Var("y", A), Var("x", C))))
        out = substitute(t, [("x", Var("y", C))])
        assert out == Lam("y'", A, Lam("y''", B,
                                        Pair(Var("y'", A), Var("y", C))))

    def test_bound_name_as_value_never_captured(self):
        # the value is a variable named like a used binder of t, so
        # substitution under that binder must rename it and its occurrences
        rng = random.Random(12)
        renamed = 0
        for _ in range(1000):
            t = random_typable_term(rng, max_size=25)
            fv = free_vars(t)
            bound = sorted({s.name for _, s in subterms(t)
                            if isinstance(s, Var)} - set(fv))
            if not fv or not bound:
                continue
            x = sorted(fv)[0]
            v = Var(rng.choice(bound), fv[x])
            out = substitute(t, [(x, v)])
            expected = {n: ty for n, ty in fv.items() if n != x}
            expected[v.name] = v.type
            assert free_vars(out) == expected
            # reference: rename t's binders apart from v first, so that no
            # binder needs renaming during the substitution
            apart = canonicalize(Pair(t, v)).first
            assert alpha_eq(out, substitute(apart, [(x, v)]))
            renamed += bool(all_names(out) - all_names(t) - {v.name})
        assert renamed >= 10

    def test_simultaneous_not_sequential(self):
        # x := y, y := x swaps in one pass
        t = Pair(Var("x", A), Var("y", A))
        out = substitute(t, [("x", Var("y", A)), ("y", Var("x", A))])
        assert out == Pair(Var("y", A), Var("x", A))

    def test_free_vars_equation_on_random_terms(self):
        rng = random.Random(11)
        checked = 0
        for _ in range(200):
            t = random_typable_term(rng, max_size=25)
            fv = free_vars(t)
            if not fv:
                continue
            x = sorted(fv)[0]
            s = Var(fresh_name("repl", set(fv)), fv[x])
            got = free_vars(substitute(t, [(x, s)]))
            expected = {n: ty for n, ty in fv.items() if n != x}
            expected[s.name] = s.type
            assert got == expected
            checked += 1
        assert checked > 100

    def test_size_additive_in_affine_case(self):
        rng = random.Random(12)
        checked = 0
        for _ in range(200):
            t = random_typable_term(rng, max_size=25)
            fv = free_vars(t)
            if not fv:
                continue
            x = sorted(fv)[0]
            ty = fv[x]
            s = (Lam("u0", ty.dom, Var("u0", ty.dom))
                 if isinstance(ty, Arrow) and ty.dom == ty.cod
                 else Var(fresh_name("s0", set(fv)), ty))
            out = substitute(t, [(x, s)])
            assert term_size(out) == term_size(t) + term_size(s) - 1
            checked += 1
        assert checked > 100


class TestAlphaEq:
    def test_renamed_binders_equal(self):
        assert alpha_eq(Lam("x", A, Var("x", A)), Lam("y", A, Var("y", A)))

    def test_annotations_matter(self):
        assert not alpha_eq(Lam("x", A, Var("x", A)), Lam("x", B, Var("x", B)))

    def test_break_binder_renaming(self):
        k, s = ks_types(A, B)
        t1 = identity_break_body()
        t2 = Break(Var("x", A), "g", "h", B, App(Var("g", k), Var("h", s)))
        assert alpha_eq(t1, t2)

    def test_equivalence_relation_on_random_terms(self):
        rng = random.Random(13)
        for _ in range(100):
            t = random_typable_term(rng, max_size=20)
            u = canonicalize(t)
            assert alpha_eq(t, t)
            assert alpha_eq(t, u) and alpha_eq(u, t)

    def test_substitute_respects_alpha(self):
        t1 = Lam("a", A, Pair(Var("a", A), Var("x", B)))
        t2 = Lam("b", A, Pair(Var("b", A), Var("x", B)))
        s = Lam("c", C, Var("c", C))
        out1 = substitute(t1, [("x", s)])
        out2 = substitute(t2, [("x", s)])
        assert alpha_eq(out1, out2)


def reference_is_canonical(t) -> bool:
    """is_canonical as two walks: every binder, then the free names."""
    bound = [b for _, sub in subterms(t) for b in binders(sub)]
    return len(set(bound)) == len(bound) and free_names(t).isdisjoint(bound)


def canonicity_population(seed: int, count: int):
    """count termgen terms and a clashing copy of each, with their
    erasures, their star images and a clashing copy of each image: every
    term family, as generated and renamed."""
    rng = random.Random(seed)
    for i in range(count):
        t = (random_large_term(rng, 100) if i % 10 == 0
             else random_typable_term(rng, max_size=30))
        c = clashing_copy(t, rng)
        for u in (t, c):
            yield u
            yield erase(u)
            yield star_translate(u)
            yield clashing_copy(star_translate(u), rng)


class TestCanonicity:
    """is_canonical is one walk; canonicalize returns a canonical term
    itself."""

    X, Y = Var("x", A), Var("y", B)

    @pytest.mark.parametrize("t, expected", [
        (Pair(X, Lam("y", B, Y)), True),
        (Pair(X, Lam("x", A, X)), False),          # free, then bound
        (Pair(Lam("x", A, X), X), False),          # bound, then free
        (Pair(Lam("x", A, X), Lam("x", A, X)), False),  # sibling binders
        (Lam("x", A, Lam("x", A, X)), False),      # nested binders
        (Let("x", A, "y", B, Var("x", Tensor(A, B)), X), False),  # scrutinee
        (Let("x", A, "y", B, Var("z", Tensor(A, B)), Pair(X, Y)), True),
        (Pair(Let("x", A, "y", B, Var("z", Tensor(A, B)), X), Y), False),
        (Break(X, "p", "f", B, Var("f", Arrow(B, A))), True),
        (Break(Var("f", A), "p", "f", B, Var("p", A)), False),
        (ULet("x", "y", UVar("z"), ULam("z", UVar("x"))), False),
        (UBreak(UVar("x"), "p", "f", UApp(UVar("p"), UVar("f"))), True),
        (LPair(LLam("x", A, LVar("x")), LLam("y", A, LVar("y"))), True),
        (LPair(LLam("x", A, LVar("x")), LVar("x")), False),
    ])
    def test_small_cases(self, t, expected):
        assert reference_is_canonical(t) == expected
        assert is_canonical(t) == expected

    def test_agrees_with_the_two_walk_reference(self):
        clashes = 0
        for t in canonicity_population(20261019, 200):
            expected = reference_is_canonical(t)
            assert is_canonical(t) == expected, t
            clashes += not expected
        assert clashes > 400

    def test_clashing_copies_are_alpha_equal(self):
        rng = random.Random(20261020)
        for _ in range(200):
            t = random_typable_term(rng, max_size=30)
            c = clashing_copy(t, rng)
            assert alpha_eq(c, t)
            assert alpha_eq(erase(c), erase(t))

    def test_canonical_term_comes_back_itself(self):
        for t in canonicity_population(20261021, 100):
            u = canonicalize(t)
            assert is_canonical(u) and alpha_eq(u, t)
            assert canonicalize(u) is u
            if is_canonical(t):
                assert u is t


def _type_key(ty) -> str:
    """The type text that alpha keys wrote before they used print_type."""
    if type(ty) is Atom:
        return ty.name
    if type(ty) is Arrow:
        return f"({_type_key(ty.dom)}>{_type_key(ty.cod)})"
    return f"({_type_key(ty.left)}*{_type_key(ty.right)})"


def reference_alpha_key(t, env=None, depth: int = 0) -> str:
    """alpha_key with each annotation written by _type_key."""
    env = {} if env is None else env
    sp = SPECS[type(t)]
    annots = "".join(":" + _type_key(a) for a in sp.annots(t))
    if sp.var is not None:
        n = sp.var(t)
        return (f"{sp.tag}#{env[n]}" if n in env else sp.tag + n) + annots
    parts = []
    for i, c in enumerate(sp.kids(t)):
        if i == sp.scope:
            bound = sp.binders(t)
            inner = env | {b: d for d, b in enumerate(bound, depth)}
            parts.append(reference_alpha_key(c, inner, depth + len(bound)))
        else:
            parts.append(reference_alpha_key(c, env, depth))
    return f"{sp.tag}{annots}(" + ",".join(parts) + ")"


def annotation_changes(t, rng: random.Random, count: int = 3):
    """Copies of t, each with one annotation replaced by another type."""
    spots = [(path, i) for path, sub in subterms(t)
             for i, v in enumerate(sub) if isinstance(v, TypeExpr)]
    for path, i in rng.sample(spots, min(count, len(spots))):
        node = subterm_at(t, path)
        fields = list(node)
        while fields[i] is node[i]:
            fields[i] = random_type(rng)
        yield replace_at(t, path, type(node)(*fields))


class TestAlphaKeyTypeText:
    """Annotations in alpha keys are print_type text: alpha_eq agrees with
    the key that spelled types on its own."""

    AB, BC = Atom("AB"), Atom("BC")
    PAIR = Var("s", Tensor(A, B))

    @pytest.mark.parametrize("t, u", [
        (Var("x", AB), Var("xA", B)),
        (Let("x", A, "y", BC, PAIR, Var("x", A)),
         Let("x", AB, "y", C, PAIR, Var("x", AB))),
        (Lam("x", Arrow(A, B), Var("x", Arrow(A, B))),
         Lam("x", Tensor(A, B), Var("x", Tensor(A, B)))),
    ], ids=["name-or-type", "first-or-second", "arrow-or-pair"])
    def test_where_an_annotation_ends(self, t, u):
        assert reference_alpha_key(t) != reference_alpha_key(u)
        assert not alpha_eq(t, u)

    def test_agrees_with_the_reference_on_every_family(self):
        rng = random.Random(20261022)
        pairs = []
        for t in canonicity_population(20261022, 150):
            pairs += [(t, canonicalize(t)), (t, clashing_copy(t, rng))]
            pairs += [(t, u) for u in annotation_changes(t, rng)]
        equal = 0
        for t, u in pairs:
            expected = reference_alpha_key(t) == reference_alpha_key(u)
            assert alpha_eq(t, u) == expected, (t, u)
            equal += expected
        assert equal > 2000 and len(pairs) - equal > 1500


class TestSizes:
    def test_var(self):
        assert term_size(Var("x", A)) == 1

    def test_lambda(self):
        assert term_size(Lam("x", A, Var("x", A))) == 2

    def test_break_counts_five_nodes(self):
        assert term_size(identity_break_body()) == 5

    def test_type_atom(self):
        assert type_size(Atom("P1")) == 1

    def test_type_arrow(self):
        assert type_size(Arrow(A, B)) == 3

    def test_type_nested(self):
        assert type_size(Arrow(Arrow(A, B), B)) == 5


class TestAffine:
    def test_contraction_rejected(self):
        assert not affine_check(Lam("x", A, Pair(Var("x", A), Var("x", A))))

    def test_weakening_allowed(self):
        assert affine_check(Lam("x", A, Lam("y", B, Var("x", A))))

    def test_divisibility_inhabitant_is_affine(self):
        from breakcalc.catalog import AxiomId, axiom_term

        assert affine_check(axiom_term(AxiomId.B4, A, B))

    def test_preserved_by_canonical_renaming(self):
        rng = random.Random(14)
        for _ in range(100):
            t = random_typable_term(rng, max_size=20)
            assert affine_check(t) == affine_check(canonicalize(t))

    def test_duplicate_under_shared_binder_names(self):
        # two different binders deliberately named alike
        inner = Lam("x", A, Var("x", A))
        outer = Lam("x", A, Pair(Var("x", A), App(inner, Var("y", A))))
        assert affine_check(outer)


class TestAnnotatedType:
    def test_break_has_its_body_type(self):
        assert annotated_type(identity_break_body()) == B

    def test_non_function_in_function_position_prints_surface_type(self):
        t = App(Var("x", Tensor(A, Arrow(B, C))), Var("y", A))
        with pytest.raises(IllFormedTermError) as exc:
            annotated_type(t)
        assert str(exc.value) == "applied term has non-function type A * (B -> C)"


class TestKsTypes:
    def test_identity_instance(self):
        assert ks_types(A, A) == (Arrow(Arrow(A, A), A), Arrow(A, A))

    def test_generic_instance(self):
        assert ks_types(A, B) == (Arrow(Arrow(A, B), B), Arrow(B, A))

    def test_compound_instance(self):
        big_a = Arrow(A, Tensor(B, C))
        big_b = Arrow(A, B)
        k, s = ks_types(big_a, big_b)
        assert k == Arrow(Arrow(big_a, big_b), big_b)
        assert s == Arrow(big_b, big_a)


class TestValueContract:
    @pytest.mark.parametrize("first, second, fields", [
        (Arrow, Tensor, (A, B)),
        (App, Pair, (Var("x", A), Var("y", B))),
        (UApp, UPair, (UVar("x"), UVar("y"))),
        (LApp, LPair, (LVar("x"), LVar("y"))),
        (LProj0, LProj1, (LVar("x"),)),
    ], ids=["types", "terms", "untyped", "lambda-pair", "projections"])
    def test_sibling_constructors_unequal(self, first, second, fields):
        a, b = first(*fields), second(*fields)
        assert a != b and not a == b
        assert a == first(*fields) and hash(a) == hash(first(*fields))
        assert len({a, b}) == 2

    def test_node_unequal_to_plain_tuple(self):
        for node in (Atom("A"), Arrow(A, B), Var("x", A), UVar("x"),
                     LProj0(LVar("x"))):
            assert node != tuple(node) and tuple(node) != node
            assert not node == tuple(node)
            assert tuple(node) not in {node}

    def test_fields_by_name_and_position(self):
        t = Lam("x", A, Var("x", A))
        assert (t.binder, t.binder_type, t.body) == tuple(t)
        assert t[2] is t.body

    def test_assignment_raises(self):
        t = Lam("x", A, Var("x", A))
        with pytest.raises(AttributeError):
            t.body = Var("y", A)
        with pytest.raises(AttributeError):
            A.name = "B"
        with pytest.raises(AttributeError):
            t.note = "unused"

    def test_nodes_not_ordered(self):
        with pytest.raises(TypeError):
            A < B
        with pytest.raises(TypeError):
            Var("x", A) < Var("y", A)

    def test_replace_keeps_binders_distinct(self):
        t = Let("x", A, "y", B, Var("v", Tensor(A, B)), Var("x", A))
        assert t._replace(y="z").y == "z"
        with pytest.raises(IllFormedTermError):
            t._replace(y="x")

    def test_reprs(self):
        ab = Tensor(A, B)
        term = Lam("x", ab, App(Var("f", Arrow(ab, B)), Var("x", ab)))
        assert repr(term) == (
            "Lam(binder='x', binder_type=Tensor(left=Atom(name='A'), "
            "right=Atom(name='B')), body=App(fun=Var(name='f', "
            "type=Arrow(dom=Tensor(left=Atom(name='A'), "
            "right=Atom(name='B')), cod=Atom(name='B'))), arg=Var(name='x', "
            "type=Tensor(left=Atom(name='A'), right=Atom(name='B')))))")
        assert repr(ULam("x", UPair(UVar("x"), UVar("y")))) == (
            "ULam(binder='x', body=UPair(first=UVar(name='x'), "
            "second=UVar(name='y')))")
        assert repr(LProj1(LApp(LLam("x", A, LVar("x")), LVar("y")))) == (
            "LProj1(arg=LApp(fun=LLam(binder='x', binder_type=Atom(name='A'), "
            "body=LVar(name='x')), arg=LVar(name='y')))")
        assert repr(sequent([B, A], A)) == (
            "Sequent(antecedent=(Atom(name='A'), Atom(name='B')), "
            "succedent=Atom(name='A'))")
        assert repr(arr_r(asm([A], A), A)) == (
            "SDerivation(rule=<SRule.ArrR: 'ArrR'>, conclusion=Sequent("
            "antecedent=(), succedent=Arrow(dom=Atom(name='A'), "
            "cod=Atom(name='A'))), premises=(SDerivation(rule=<SRule.ASM: "
            "'ASM'>, conclusion=Sequent(antecedent=(Atom(name='A'),), "
            "succedent=Atom(name='A')), premises=(), data=None),), data=None)")
        assert repr(Redex((0, 1), RuleName.BETA)) == (
            "Redex(position=(0, 1), rule=<RuleName.BETA: 'beta'>)")

    def test_cli_import_leaves_out_dataclasses(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, breakcalc.cli; print('dataclasses' in sys.modules)"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


class TestInterning:
    """Equal types are one object, however they are built."""

    @pytest.mark.parametrize("build, ty", [
        (lambda: Atom("A"), A),
        (lambda: Atom(name="A"), A),
        (lambda: Arrow(Atom("A"), Tensor(Atom("B"), Atom("C"))),
         Arrow(A, Tensor(B, C))),
        (lambda: Arrow(cod=Tensor(B, C), dom=A), Arrow(A, Tensor(B, C))),
        (lambda: Tensor._make([A, B]), Tensor(A, B)),
        (lambda: Tensor(A, C)._replace(right=B), Tensor(A, B)),
        (lambda: Arrow(A, B)._replace(), Arrow(A, B)),
    ], ids=["positional", "keyword", "nested", "keyword-nested", "make",
            "replace", "replace-nothing"])
    def test_every_constructor_path_returns_the_one_object(self, build, ty):
        assert build() is ty

    @pytest.mark.parametrize("ty", [A, Arrow(A, Tensor(B, C)),
                                    Tensor(Arrow(A, B), Arrow(B, A))],
                             ids=["atom", "arrow", "tensor"])
    def test_copies_are_the_one_object(self, ty):
        assert copy.copy(ty) is ty
        assert copy.deepcopy(ty) is ty
        assert copy.deepcopy([ty, (ty,)])[1][0] is ty
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(ty, protocol)) is ty

    def test_pickled_term_carries_interned_types(self):
        t = Lam("x", Arrow(A, B), Var("x", Arrow(A, B)))
        back = pickle.loads(pickle.dumps(t))
        assert back == t and back.binder_type is Arrow(A, B)

    def test_parse_type_returns_the_interned_object(self):
        assert parse_type("A -> B * C") is Arrow(A, Tensor(B, C))
        assert parse_type("(A)  -- comment\n") is A

    def test_equality_and_hash_are_identity(self):
        ab = Arrow(A, B)
        assert ab == Arrow(A, B) and hash(ab) == object.__hash__(ab)
        assert ab != Arrow(B, A) and not ab == Tensor(A, B)

    def test_constructor_arity_still_checked(self):
        with pytest.raises(TypeError):
            Atom()
        with pytest.raises(TypeError):
            Arrow(A, B, C)

    def test_print_type_equals_the_unmemoised_printer(self):
        rng = random.Random(20261018)
        for _ in range(10_000):
            ty = random_type(rng, rng.randint(0, 6))
            assert print_type(ty) == _ptype(ty, _TOP)
