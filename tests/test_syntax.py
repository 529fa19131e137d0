"""Core syntax operations: free variables, substitution, sizes, affinity,
and the value contract of syntax nodes and records."""

import copy
import functools
import pickle
import random
import subprocess
import sys

import pytest

from breakcalc.lambda_pair import (
    LApp, LLam, LPair, LProj0, LProj1, LVar, star_translate,
)
from breakcalc.parser import parse_type
from breakcalc.printer import print_term
from breakcalc.reduction import Redex, RuleName, reducts_one_step
from breakcalc.sequent import arr_r, asm, sequent
from breakcalc.syntax import (
    SPECS, App, Arrow, Atom, Break, FreeNames, IllFormedTermError, Lam, Let,
    Pair, Tensor, TypeExpr, Var, affine_check, all_names, alpha_eq,
    annotated_type, avoid_capture, binders, canonicalize, free_names,
    free_vars, fresh_name, is_canonical, ks_types, print_type, replace_at,
    substitute, subterm_at, subterms, term_size, type_size,
)
from breakcalc.syntax import (
    _IDENT, _PARSED, KEYWORDS, _canonical_names, _freshen,
    _rebuild, _scan, _subst,
)
from breakcalc.typecheck import UApp, UBreak, ULam, ULet, UPair, UVar, erase
from reference_parser import raw_parse
from termgen import (
    clashing_copy, random_large_term, random_type, random_typable_term,
)
from test_golden_outputs import golden_items
from test_reduction import (
    break_chain, capturing_permutations, identity_chain, permuting_chain,
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


def reference_avoid_capture(t, moving):
    """avoid_capture as it primed every root binder once one of them was in
    moving, avoiding moving, the scope's free names and the old binders."""
    sp = SPECS[type(t)]
    old = sp.binders(t)
    if moving.isdisjoint(old):
        return t
    fn = FreeNames()
    kids = list(sp.kids(t))
    taken = set(moving).union(fn(kids[sp.scope]), old)
    new = []
    for b in old:
        new.append(fresh_name(b, taken))
        taken.add(new[-1])
    kids[sp.scope] = _subst(kids[sp.scope], dict(zip(old, new)), fn)
    return _rebuild(t, kids, new)


def reference_canonicalize(t):
    """canonicalize as it named each binder, in the same walk, by the first
    primed variant of its name not yet used, ignoring its sibling."""
    if is_canonical(t):
        return t
    used = set(free_names(t))

    def pick(n: str) -> str:
        n2 = fresh_name(n, used)
        used.add(n2)
        return n2

    def go(t, ren: dict[str, str]):
        sp = SPECS[type(t)]
        if sp.var is not None:
            n = sp.var(t)
            return _rebuild(t, (), (ren.get(n, n),))
        kids, bound, names = sp.kids(t), sp.binders(t), None
        new = []
        for i, c in enumerate(kids):
            if i == sp.scope:
                names = tuple(map(pick, bound))
                c = go(c, ren | {b: n for b, n in zip(bound, names) if b != n})
            else:
                c = go(c, ren)
            new.append(c)
        return _rebuild(t, new, names)

    return go(t, {})


def renamed_binders(t, u) -> set[tuple[tuple[int, ...], int]]:
    """(position, index) of each binder of t that u, of the same shape,
    names differently."""
    out = set()
    for (path, a), (_, b) in zip(subterms(t), subterms(u)):
        out.update((path, i) for i, (x, y)
                   in enumerate(zip(binders(a), binders(b))) if x != y)
    return out


@functools.cache
def renaming_population() -> tuple:
    """The golden items, the capturing permutations, and 3,000 seeded terms
    with a clashing copy of each."""
    rng = random.Random(20261023)
    terms = [t for _, t in golden_items()] + capturing_permutations()
    for _ in range(3000):
        t = random_typable_term(rng)
        terms += [t, clashing_copy(t, rng)]
    return tuple(terms)


class TestOneRenamingPolicy:
    """Every binder rename goes through _freshen: the new names are alpha
    equal to those of the earlier policies, and rename no binder that those
    kept."""

    @pytest.mark.parametrize("names, avoid, expected", [
        (("x",), set(), (("x",), {})),
        (("x", "y"), {"x"}, (("x'", "y"), {"x": "x'"})),
        (("x", "x'"), {"x"}, (("x''", "x'"), {"x": "x''"})),
        (("x", "y"), {"x", "y", "x'"}, (("x''", "y'"), {"x": "x''",
                                                        "y": "y'"})),
        (("y'", "y"), {"y", "y'"}, (("y''", "y'''"), {"y'": "y''",
                                                      "y": "y'''"})),
    ])
    def test_freshen_renames_only_a_clash_past_its_siblings(
            self, names, avoid, expected):
        assert _freshen(names, avoid) == expected

    def test_avoid_capture_against_priming_every_binder(self):
        rng = random.Random(20261022)
        calls = renames = 0
        for t in renaming_population():
            names = sorted(all_names(t))
            nodes = [s for _, s in subterms(t) if binders(s)]
            for s in rng.sample(nodes, min(2, len(nodes))):
                bound = binders(s)
                moving = frozenset(rng.sample(names, min(3, len(names))))
                moving |= {rng.choice(bound)}
                new = avoid_capture(s, moving)
                ref = reference_avoid_capture(s, moving)
                assert alpha_eq(new, ref), s
                assert free_names(new) == free_names(ref)
                assert moving.isdisjoint(binders(new))
                changed = renamed_binders(s, new)
                assert changed <= renamed_binders(s, ref), (s, moving)
                calls += 1
                renames += len(changed)
        assert calls > 10000 and renames > 10000

    def test_avoid_capture_renames_exactly_the_moving_binders(self):
        rng = random.Random(20261024)
        calls = 0
        for t in renaming_population():
            names = sorted(all_names(t))
            nodes = [s for _, s in subterms(t) if binders(s)]
            for s in rng.sample(nodes, min(2, len(nodes))):
                bound = binders(s)
                moving = frozenset(rng.sample(names, min(3, len(names))))
                moving |= {rng.choice(bound)}
                new = avoid_capture(s, moving)
                root = {i for path, i in renamed_binders(s, new) if not path}
                assert root == {i for i, b in enumerate(bound)
                                if b in moving}, (s, moving)
                calls += 1
        assert calls > 10000

    def test_a_binder_that_clashes_with_nothing_keeps_its_name(self):
        # x := (a : A -> B -> C) into let <a:A, b:B> = s in x a b, and the
        # let with a moving into its scope: only a clashes, so only a moves
        abc, s = Arrow(A, Arrow(B, C)), Var("s", Tensor(A, B))

        def let(x, a):
            return Let(a, A, "b", B, s, App(App(Var(x, abc), Var(a, A)),
                                            Var("b", B)))

        assert substitute(let("x", "a"), {"x": Var("a", abc)}) == let("a", "a'")
        assert avoid_capture(let("x", "a"), frozenset({"a"})) == let("x", "a'")

    def test_avoid_capture_keeps_a_term_that_captures_nothing(self):
        t = Let("x", A, "y", B, Var("p", Tensor(A, B)), Var("x", A))
        assert avoid_capture(t, frozenset({"p", "z"})) is t

    def test_canonicalize_against_the_pick_policy(self):
        nontrivial = 0
        for t in renaming_population():
            new, ref = canonicalize(t), reference_canonicalize(t)
            assert is_canonical(new) and alpha_eq(new, ref), t
            assert free_names(new) == free_names(ref)
            changed = renamed_binders(t, new)
            assert changed <= renamed_binders(t, ref), t
            nontrivial += bool(changed)
        assert nontrivial > 1000


def quadratic_fresh_name(base: str, avoid: set[str]) -> str:
    """fresh_name: the first primed variant of base not in avoid."""
    name = base
    while name in avoid:
        name += "'"
    return name


def quadratic_freshen(names: tuple[str, ...], avoid: set[str]):
    """_freshen as it was before its cursor: a copy of avoid, and a prime
    search from the base name at every binder."""
    if avoid.isdisjoint(names):
        return names, {}
    taken = {*avoid, *names}
    ren: dict[str, str] = {}
    for n in names:
        if n in avoid:
            ren[n] = fresh = quadratic_fresh_name(n, taken)
            taken.add(fresh)
    return tuple(ren.get(n, n) for n in names), ren


def quadratic_canonical_names(t):
    """_canonical_names as it was before its cursor: the renaming walk
    through quadratic_freshen, then a _scan of the result for its names."""
    canonical, names = _scan(t)
    if canonical:
        return t, names
    used = set(free_names(t))

    def go(t, ren: dict[str, str]):
        sp = SPECS[type(t)]
        if sp.var is not None:
            n = sp.var(t)
            return _rebuild(t, (), (ren[n],)) if n in ren else t
        kids, bound = sp.kids(t), sp.binders(t)
        new, names = [], bound
        for i, c in enumerate(kids):
            if i == sp.scope:
                names, fresh = quadratic_freshen(bound, used)
                used.update(names)
                c = go(c, ren | fresh)
            else:
                c = go(c, ren)
            new.append(c)
        return _rebuild(t, new, names)

    t = go(t, {})
    return t, _scan(t)[1]


class TestFreeNamesWalk:
    """free_names, one walk that counts the binders of each name in scope
    and builds no set per node, equals FreeNames, which builds a set per
    node and memoises it."""

    def test_renaming_population_and_erasures(self):
        for t in renaming_population():
            for u in (t, erase(t)):
                assert free_names(u) == FreeNames()(u), u

    @pytest.mark.parametrize("chain", [identity_chain, break_chain,
                                       permuting_chain])
    def test_chains_and_their_clashing_copies(self, chain):
        rng = random.Random(20261101)
        for n in (1, 2, 5, 20, 80, 320):
            t = chain(n)
            for u in (t, clashing_copy(t, rng), clashing_copy(t, rng)):
                for v in (u, erase(u), star_translate(u)):
                    assert free_names(v) == FreeNames()(v)

    def test_shadowing_binders_of_a_name_that_is_also_free(self):
        # the walk meets the free x before and after the nested binders
        x = Var("x", A)
        nest = Lam("x", A, Lam("x", A, x))
        let = Let("x", A, "y", A, Var("s", Tensor(A, A)),
                  Pair(nest, Pair(x, Var("y", A))))
        for t, free in [(nest, set()), (let, {"s"}), (Pair(x, nest), {"x"}),
                        (Pair(nest, x), {"x"}),
                        (Pair(x, Pair(let, x)), {"x", "s"})]:
            assert free_names(t) == FreeNames()(t) == free, t
        # the scrutinee lies outside the let's binders
        u = Let("x", A, "y", A, Var("x", Tensor(A, A)), Var("y", A))
        assert free_names(u) == FreeNames()(u) == {"x"}


def nested_renamed_binders(n: int):
    """n nested lambdas binding x0 .. x(n-1) over a body that uses them
    all, beside a pair tree of the same names free: every binder is
    renamed, and all n renamings are in scope at the body."""
    def tree(leaves):
        while len(leaves) > 1:
            leaves = [Pair(*leaves[i:i + 2]) if i + 1 < len(leaves)
                      else leaves[i] for i in range(0, len(leaves), 2)]
        return leaves[0]

    names = [f"x{i}" for i in range(n)]
    body = tree([Var(x, A) for x in names])
    for x in reversed(names):
        body = Lam(x, A, body)
    return Pair(tree([Var(x, A) for x in names]), body)


class TestRenamingCursor:
    """_canonical_names gives exactly the names of the renaming that
    searched every binder's primes from its base name, and lists the names
    that a _scan of its result reads."""

    def assert_same_names(self, t):
        got, names = _canonical_names(t)
        ref, ref_names = quadratic_canonical_names(t)
        assert got == ref, t
        assert names == ref_names == _scan(got)[1], t
        return got

    @pytest.mark.parametrize("chain", [identity_chain, break_chain,
                                       permuting_chain])
    @pytest.mark.parametrize("n", [1, 2, 5, 20, 80, 160, 320])
    def test_chain_texts(self, chain, n):
        # the raw parse is the chain as built; at n = 320 the parser's
        # recursion runs out under pytest, so the built chain stands for it
        t = chain(n)
        if n <= 160:
            assert raw_parse(print_term(t)) == t
        got = self.assert_same_names(t)
        assert is_canonical(got)
        assert (got is not t) == (chain is break_chain and n > 1)

    def test_renaming_population(self):
        renamed = 0
        for t in renaming_population():
            renamed += self.assert_same_names(t) is not t
        assert renamed > 1000

    def test_clashing_copies_of_the_chains_and_their_erasures(self):
        rng = random.Random(20261028)
        renamed = 0
        for chain in (identity_chain, break_chain, permuting_chain):
            for n in (3, 20, 80):
                for _ in range(5):
                    u = clashing_copy(chain(n), rng)
                    for v in (u, erase(u)):
                        renamed += self.assert_same_names(v) is not v
        assert renamed > 60

    def test_nested_renamed_binders(self):
        # the renaming in scope is one dict, changed at each of the 200
        # scopes and restored on leaving it; the reference copies it at each
        t = nested_renamed_binders(200)
        got = self.assert_same_names(t)
        assert binders(got.second) == ("x0'",)
        assert free_names(got) == free_names(t)

    def test_a_primed_base_name_next_to_its_base(self):
        # x and x' are free, and two lets bind x and x' again: the cursors
        # of x and of x' are kept apart
        s = Var("s", Tensor(A, A))

        def let(x, y):
            return Let(x, A, y, A, s, Pair(Var(x, A), Var(y, A)))

        free = Pair(Var("x", A), Var("x'", A))
        t = Pair(free, Pair(let("x", "x'"), let("x", "x'")))
        got = self.assert_same_names(t)
        assert got == Pair(free, Pair(let("x''", "x'''"),
                                      let("x''''", "x'''''")))

    def test_a_sibling_binder_takes_the_next_variant(self):
        # x is free, so the let's x is renamed past its kept sibling x',
        # and the lambda's x resumes past both
        s = Var("s", Tensor(A, A))
        t = Pair(Var("x", A),
                 Pair(Let("x", A, "x'", A, s, Var("x", A)),
                      Lam("x", A, Var("x", A))))
        got = self.assert_same_names(t)
        assert got == Pair(Var("x", A),
                           Pair(Let("x''", A, "x'", A, s, Var("x''", A)),
                                Lam("x'''", A, Var("x'''", A))))

    def test_freshen_resumes_from_the_cursor(self):
        cursor = {"x": "x'"}
        avoid = {"x", "x'", "y"}
        assert _freshen(("x", "y"), avoid, cursor) == (
            ("x''", "y'"), {"x": "x''", "y": "y'"})
        assert cursor == {"x": "x''", "y": "y'"}
        assert _freshen(("z",), avoid, cursor) == (("z",), {})
        assert cursor == {"x": "x''", "y": "y'"}

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
    """alpha_eq agrees with the key that spelled types on its own, and
    tells apart two types that print alike."""

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

    @pytest.mark.parametrize("atom, compound", [
        (Atom("A -> B"), Arrow(A, B)),
        (Atom("A * B"), Tensor(A, B)),
        (Atom("(A -> B) -> C"), Arrow(Arrow(A, B), C)),
    ], ids=["arrow", "tensor", "nested"])
    def test_an_atom_that_prints_as_a_compound(self, atom, compound):
        assert print_type(atom) == print_type(compound)
        assert not alpha_eq(Var("x", atom), Var("x", compound))
        assert not alpha_eq(Lam("y", atom, Var("y", atom)),
                            Lam("y", compound, Var("y", compound)))

    def test_reducts_that_differ_only_by_such_a_type_are_both_kept(self):
        # the outer and the inner beta give (\y:T. y) (w : T) and
        # (\x:U. x) (w : T), with U an atom that prints as T
        t_ty, u_ty = Arrow(A, B), Atom("A -> B")
        inner = App(Lam("y", t_ty, Var("y", t_ty)), Var("w", t_ty))
        t = App(Lam("x", u_ty, Var("x", u_ty)), inner)
        assert reducts_one_step(t) == [
            inner, App(Lam("x", u_ty, Var("x", u_ty)), Var("w", t_ty))]

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


IDENTITIES = {Pair: lambda x: Lam(x, A, Var(x, A)),
              UPair: lambda x: ULam(x, UVar(x)),
              LPair: lambda x: LLam(x, A, LVar(x))}


def nested(n: int, leaf, pair=Pair):
    """n pairs nested to the right over leaf, each holding an identity,
    built afresh, so that two calls share no node but the leaf."""
    t = leaf
    for i in range(n):
        t = pair(IDENTITIES[pair](f"u{i}"), t)
    return t


class TestDeepEquality:
    """== and != walk an explicit stack, so terms far deeper than the
    recursion limit compare; types in fields compare by identity."""

    depth = 3000

    @pytest.mark.parametrize("pair, leaf, other_leaves", [
        (Pair, Var("w", A), (Var("v", A), Var("w", B), Lam("w", A,
                                                              Var("w", A)))),
        (UPair, UVar("w"), (UVar("v"), ULam("w", UVar("w")))),
        (LPair, LVar("w"), (LVar("v"), LProj0(LVar("w")))),
    ], ids=["terms", "untyped", "lambda-pair"])
    def test_equal_and_differing_at_the_innermost_leaf(self, pair, leaf,
                                                       other_leaves):
        a, b = nested(self.depth, leaf, pair), nested(self.depth, leaf, pair)
        assert a is not b and a[0] is not b[0]
        assert a == b and b == a and not a != b
        for other in other_leaves:
            c = nested(self.depth, other, pair)
            assert a != c and c != a and not a == c

    def test_sibling_constructors_at_depth(self):
        f, x = Var("f", Arrow(A, B)), Var("x", A)
        assert nested(self.depth, App(f, x)) != nested(self.depth, Pair(f, x))
        assert nested(self.depth, App(f, x)) == nested(self.depth, App(f, x))
        assert nested(self.depth, f) != nested(self.depth, f, UPair)

    def test_a_deep_type_in_a_field(self):
        deep = A
        for _ in range(self.depth):
            deep = Arrow(deep, B)
        assert Var("w", deep) == Var("w", deep)
        assert nested(self.depth, Var("w", deep)) != nested(
            self.depth, Var("w", Arrow(A, deep)))

    def test_no_node_equals_a_plain_tuple(self):
        t = nested(self.depth, Var("w", A))
        assert t != tuple(t) and tuple(t) != t and not t == tuple(t)
        assert t.second != tuple(t.second)


# precedence contexts of _ptype: no parentheses, function position (left of
# an infix) and argument position
_TOP, _ARG_L, _ARG_R = 0, 1, 2


def _ptype(ty, ctx):
    """print_type as it was, recursive: the reference of the type printer,
    which prints on an explicit stack."""
    match ty:
        case Atom(name):
            return name
        case Arrow(dom, cod):
            s = f"{_ptype(dom, _ARG_L)} -> {_ptype(cod, _TOP)}"
            return f"({s})" if ctx >= _ARG_L else s
        case Tensor(left, right):
            s = f"{_ptype(left, _ARG_L)} * {_ptype(right, _ARG_R)}"
            return f"({s})" if ctx >= _ARG_R else s
    raise TypeError(f"not a type: {ty!r}")


def reference_reads_back(ty):
    """_reads_back as it was, recursive."""
    if type(ty) is Atom:
        return ty.name not in KEYWORDS and _IDENT.fullmatch(ty.name) is not None
    return all(map(reference_reads_back, ty))


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


def unprinted_types(rng, count, prefix):
    """count random types over atoms that no other test names, so print_type
    has printed none of them or of their parts; some atoms do not read back
    (a keyword, an inference variable, a space)."""
    names = [f"{prefix}{i}" for i in range(4)] + ["let", "?1", "a b"]
    pool = [Atom(n) for n in names]

    def draw(d):
        if d == 0 or rng.random() < 0.2:
            return rng.choice(pool)
        return rng.choice((Arrow, Tensor))(draw(d - 1), draw(d - 1))

    return [draw(rng.randint(1, 6)) for _ in range(count)]


class TestTypePrinter:
    """print_type prints on an explicit stack, bottom up over the parts that
    have no text yet, and agrees with the recursive printer."""

    def test_equals_the_recursive_printer_on_unprinted_types(self):
        types = unprinted_types(random.Random(20261019), 3000, "Pq")
        compound = [ty for ty in dict.fromkeys(types) if type(ty) is not Atom]
        assert len(compound) > 2000
        for ty in types:
            assert print_type(ty) == _ptype(ty, _TOP)

    def test_reads_back_as_the_recursive_test(self):
        types = unprinted_types(random.Random(20261020), 3000, "Rs")
        verdicts = set()
        for ty in types:
            text = print_type(ty)
            expected = reference_reads_back(ty)
            verdicts.add(expected)
            assert (_PARSED.get(text) is ty) == expected, text
            if expected:
                assert parse_type(text) is ty
        assert verdicts == {True, False}

    def test_deep_types_print_without_recursion(self):
        # in a subprocess, so that no later test meets these types in the
        # print memo: parse_type still recurses once per level
        depth = 2000
        script = (
            "from breakcalc.syntax import Arrow, Atom, Tensor, _PARSED, "
            "print_type\n"
            "A = left = right = tensor = Atom('A')\n"
            f"for _ in range({depth}):\n"
            "    left, right = Arrow(left, A), Arrow(A, right)\n"
            "    tensor = Tensor(A, tensor)\n"
            "print(print_type(left))\n"
            "print(print_type(right))\n"
            "print(print_type(tensor))\n"
            "print(_PARSED.get(print_type(tensor)) is tensor)\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        n = depth - 1
        assert proc.stdout.splitlines() == [
            "(" * n + "A -> A" + ") -> A" * n,
            " -> ".join(["A"] * (depth + 1)),
            "A * (" * n + "A * A" + ")" * n,
            "True"]
        deep = A
        for _ in range(depth):
            deep = Arrow(deep, A)
        with pytest.raises(RecursionError):
            _ptype(deep, _TOP)
