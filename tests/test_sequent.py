"""Sequent calculus: checking, the two translations, cut elimination, the
break-from-cut constructions, bounded search, and serialization."""

import itertools
import json
import random
import re
import types
from collections import Counter
from pathlib import Path

import pytest

import breakcalc.sequent as sequent_module
from breakcalc.catalog import divisibility_terms, identity_break
from breakcalc.parser import (
    ParseError, TokenStream, parse_term, parse_type, parse_type_stream,
)
from breakcalc.printer import print_term
from breakcalc.reduction import RuleName, find_redexes, normalize
from breakcalc.sequent import (
    BudgetExceeded, InvalidRule, PreconditionViolation, SDerivation, Sequent,
    SRule, arr_l, arr_r, asm, brk, brk_via_cut_empty, brk_via_cut_superfluous,
    check_derivation, cut, eliminate_cuts, nd_to_sequent, parse_derivation,
    print_derivation, prove_bounded, sequent, sequent_to_term, tens_l, tens_r,
    weaken,
)
from breakcalc.syntax import (
    App, Arrow, Atom, Break, FreeNames, Lam, Let, Pair, Tensor, Var, alpha_eq,
    canonicalize, free_names, free_vars, ks_types, print_type, substitute,
    subterm_at,
)
from breakcalc.syntax import _PARSED, _PRINTED
from breakcalc.typecheck import check
from termgen import clashing_copy, random_typable_term
from test_golden_outputs import golden_items
from test_parse_errors import (
    SAMPLES, SEED as PARSE_ERRORS_SEED, catalog_terms,
    inputs as parse_error_inputs, mutations as parse_error_mutations,
)
from test_syntax import _TOP, _ptype

A, B, C, P = Atom("A"), Atom("B"), Atom("C"), Atom("P")
BUDGETS = Path(__file__).resolve().parent / "cut_budgets.json"


def translated_population(seed: int, count: int, max_size: int = 22):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        t = random_typable_term(rng, max_size=max_size)
        out.append((t, nd_to_sequent(t)))
    return out


def test_import_as_gives_the_module():
    import breakcalc.sequent as m
    assert isinstance(m, types.ModuleType)
    assert m.sequent is sequent


class TestCheckDerivation:
    def test_axiom(self):
        d = asm([A], A)
        assert check_derivation(d) == sequent([A], A)

    def test_axiom_with_weakening_context(self):
        assert check_derivation(asm([A, B, C], B)) == sequent([A, B, C], B)

    def test_axiom_without_its_formula_rejected(self):
        d = SDerivation(SRule.ASM, sequent([A], B))
        with pytest.raises(InvalidRule):
            check_derivation(d)

    def test_mismatched_cut_rejected(self):
        p1 = asm([A], A)
        p2 = asm([B, C], C)
        bad = SDerivation(SRule.CUT, sequent([A, B], C), (p1, p2))
        with pytest.raises(InvalidRule) as err:
            check_derivation(bad)
        assert "cut" in str(err.value)

    def test_invalid_node_path_reported(self):
        bad_leaf = SDerivation(SRule.ASM, sequent([A], B))
        outer = SDerivation(SRule.CUT,
                            sequent([A, B], C),
                            (asm([A], A), SDerivation(
                                SRule.CUT, sequent([A, B], C),
                                (bad_leaf, asm([B, C], C)))))
        with pytest.raises(InvalidRule) as err:
            check_derivation(outer)
        assert err.value.path == (1, 0)

    def test_arrow_left_premise_must_prove_the_domain(self):
        bad = SDerivation(SRule.ArrL, sequent([B, Arrow(A, B)], C),
                          (asm([B], B), asm([B, C], C)), Arrow(A, B))
        with pytest.raises(InvalidRule) as err:
            check_derivation(bad)
        assert str(err.value) == (
            "invalid rule at []: first premise must prove the domain")

    def test_brk_node(self):
        k, s = ks_types(A, B)
        d = brk(asm([A], A), asm([k, s, C], C), B)
        assert check_derivation(d) == sequent([A, C], C)

    @pytest.mark.parametrize("text, path", [
        ("(ASM {B} [A |- A])", ()),
        ("(CUT {C} [A |- A] (ASM [A |- A]) (ASM [A |- A]))", ()),
        ("(ArrR {C} [|- A -> A] (ASM [A |- A]))", ()),
        ("(ArrR [|- A -> A] (CUT {C} [A |- A] (ASM [A |- A])"
         " (ASM [A |- A])))", (0,)),
        ("(TensR [A, B |- A * B] (ASM [A |- A]) (ASM {A} [B |- B]))", (1,)),
    ], ids=["ASM", "CUT", "ArrR", "CUT-under-ArrR", "ASM-under-TensR"])
    def test_stray_datum_rejected(self, text, path):
        with pytest.raises(InvalidRule) as err:
            check_derivation(parse_derivation(text))
        assert err.value.path == path

    @pytest.mark.parametrize("rule, data", [
        (SRule.BRK, None), (SRule.BRK, "B"), (SRule.ArrL, Tensor(A, B)),
        (SRule.ArrL, None), (SRule.TensL, Arrow(A, B)), (SRule.TensL, None),
    ])
    def test_datum_of_the_wrong_class_rejected(self, rule, data):
        premises = (asm([A], A),) * (1 if rule == SRule.TensL else 2)
        bad = SDerivation(rule, sequent([A], A), premises, data)
        with pytest.raises(InvalidRule) as err:
            check_derivation(bad)
        assert err.value.path == ()

    def test_every_rule_rejects_a_wrong_premise_count(self):
        wants = {SRule.ASM: 0, SRule.CUT: 2, SRule.BRK: 2, SRule.ArrR: 1,
                 SRule.ArrL: 2, SRule.TensR: 2, SRule.TensL: 1}
        leaf = asm([A], A)
        for rule, n in wants.items():
            data = {SRule.BRK: B, SRule.ArrL: Arrow(A, A),
                    SRule.TensL: Tensor(A, A)}.get(rule)
            for count in {n - 1, n + 1} - {-1}:
                bad = SDerivation(rule, sequent([A], A), (leaf,) * count, data)
                with pytest.raises(InvalidRule) as err:
                    check_derivation(bad)
                assert err.value.path == ()
                assert "premises" in err.value.reason

    def test_every_rule_rejects_a_wrong_conclusion_at_its_path(self):
        def at(d, path, node):
            if not path:
                return node
            ps = list(d.premises)
            ps[path[0]] = at(ps[path[0]], path[1:], node)
            return SDerivation(d.rule, d.conclusion, tuple(ps), d.data)

        seen = set()
        for _, d in translated_population(76, 60):
            for root in (d, eliminate_cuts(d)):
                for path, n in _nodes(root):
                    if n.rule == SRule.ASM:
                        continue
                    seen.add(n.rule)
                    ant, suc = n.conclusion.antecedent, n.conclusion.succedent
                    changed = [sequent(ant + (Atom("Z"),), suc),
                               Sequent(ant, Atom("Z"))]
                    if ant:
                        changed.append(Sequent(ant[1:], suc))
                    for concl in changed:
                        bad = SDerivation(n.rule, concl, n.premises, n.data)
                        with pytest.raises(InvalidRule) as err:
                            check_derivation(at(root, path, bad))
                        assert err.value.path == path, (n.rule, concl)
        assert seen == set(SRule) - {SRule.ASM}


class TestRepeatedCheck:
    """check_derivation answers a repeated call on the same object from its
    last result, and sequent_to_term validates through it; a failing call
    stores nothing."""

    def pair(self):
        """A valid derivation, and one whose end sequent its root does not
        conclude."""
        good = nd_to_sequent(parse_term(r"\x:A. \y:B. <y, x>"))
        bad = good._replace(
            conclusion=sequent([C], good.conclusion.succedent))
        return good, bad

    def test_an_invalid_derivation_after_a_valid_one_still_raises(self):
        good, bad = self.pair()
        for f in (check_derivation, sequent_to_term):
            check_derivation(good)
            with pytest.raises(InvalidRule) as err:
                f(bad)
            assert err.value.path == ()

    def test_a_failing_check_raises_again(self):
        _, bad = self.pair()
        for f in (check_derivation, check_derivation, sequent_to_term,
                  check_derivation):
            with pytest.raises(InvalidRule) as err:
                f(bad)
            assert err.value.path == ()

    def test_an_equal_distinct_object_gets_the_same_answer(self):
        good, bad = self.pair()
        copy = SDerivation(*good)
        assert copy == good and copy is not good
        assert check_derivation(good) == check_derivation(copy) \
            == good.conclusion
        for d in (bad, SDerivation(*bad)):
            with pytest.raises(InvalidRule):
                check_derivation(d)

    def test_sequent_to_term_after_check_derivation_runs_no_check_node(
            self, monkeypatch):
        visits = []
        real = sequent_module._check_node

        def counted(d, path):
            visits.append(path)
            real(d, path)

        monkeypatch.setattr(sequent_module, "_check_node", counted)
        d, _ = self.pair()
        n = d.node_count()
        check_derivation(d)
        assert len(visits) == n
        t = sequent_to_term(d)
        assert len(visits) == n
        assert sequent_to_term(SDerivation(*d)) == t
        assert len(visits) == 2 * n


def _nodes(d, path=()):
    yield path, d
    for i, p in enumerate(d.premises):
        yield from _nodes(p, path + (i,))


class TestNdToSequent:
    def test_variable_is_one_axiom(self):
        d = nd_to_sequent(Var("x", A))
        assert d.rule == SRule.ASM and d.premises == ()
        assert check_derivation(d) == sequent([A], A)

    def test_identity_break_ends_in_arrow_right_over_break(self):
        d = nd_to_sequent(identity_break(A))
        assert d.rule == SRule.ArrR
        assert d.premises[0].rule == SRule.BRK
        assert check_derivation(d) == sequent([], Arrow(A, A))

    def test_end_sequent_matches_typing_on_random_terms(self):
        for t, d in translated_population(71, 500):
            got = check_derivation(d)
            fv = free_vars(t)
            assert got == sequent(fv.values(), check(t))


def reference_nd_to_sequent(t):
    """nd_to_sequent as it was with a weaken call at each binder: the
    reference that placing each weakening once must agree with."""
    t = canonicalize(t)
    check(t)
    return _reference_translate(t)


def _reference_translate(t):
    match t:
        case Var(_, ty):
            return asm([ty], ty)
        case Lam(b, bt, body):
            return arr_r(_reference_bind(_reference_translate(body), body,
                                         [(b, bt)]), bt)
        case App(fun, arg):
            df = _reference_translate(fun)
            fty = df.conclusion.succedent
            hook = asm([fty.cod], fty.cod)
            return cut(df, arr_l(_reference_translate(arg), hook, fty))
        case Pair(a, b):
            return tens_r(_reference_translate(a), _reference_translate(b))
        case Let(x, xt, y, yt, scrut, body):
            db = _reference_bind(_reference_translate(body), body,
                                 [(x, xt), (y, yt)])
            return cut(_reference_translate(scrut), tens_l(db, Tensor(xt, yt)))
        case Break(scrut, phi, f, residue, body):
            ds = _reference_translate(scrut)
            k, s = ks_types(ds.conclusion.succedent, residue)
            db = _reference_bind(_reference_translate(body), body,
                                 [(phi, k), (f, s)])
            return brk(ds, db, residue)
    raise TypeError(f"not a term: {t!r}")


def _reference_bind(d, body, binders):
    fns = free_names(body)
    return weaken(d, [ty for name, ty in binders if name not in fns])


def lambda_nest(n: int):
    """\\xn:A. ... \\x1:A. (x0 : A): n binders, none of them used."""
    return parse_term("".join(f"\\x{i}:A. " for i in range(n, 0, -1))
                      + "(x0 : A)")


class TestPendingWeakening:
    """nd_to_sequent places each weakened formula once, on the way down."""

    def test_equals_the_weakening_reference(self):
        terms = [parse_term(path.read_text(encoding="utf-8"))
                 for path in sorted(SAMPLES.glob("*.bterm"))]
        terms += [t for _, t in catalog_terms()]
        assert len(terms) == 4 + 12
        rng = random.Random(20261018)
        terms += [random_typable_term(rng) for _ in range(2000)]
        for t in terms:
            assert nd_to_sequent(t) == reference_nd_to_sequent(t), t

    @pytest.mark.parametrize("n", [50, 100, 200])
    def test_builds_each_sequent_once_on_a_lambda_nest(self, n, monkeypatch):
        calls = [0]

        def counted(antecedent, succedent):
            calls[0] += 1
            return sequent(antecedent, succedent)

        t = lambda_nest(n)
        monkeypatch.setattr(sequent_module, "sequent", counted)
        d = nd_to_sequent(t)
        assert calls[0] == d.node_count() == n + 1
        monkeypatch.undo()
        assert d == reference_nd_to_sequent(t)


def free_names_nd_to_sequent(t):
    """nd_to_sequent as it was with a FreeNames memo: a binder is unused
    when its name is not free in its body.  The reference that reading
    weakening off the names of the whole term must agree with."""
    t = canonicalize(t)
    check(t)
    return _free_names_translate(t, (), FreeNames())


def _free_names_translate(t, pending, free):
    def unused(body, binders):
        fns = free(body)
        return tuple(ty for name, ty in binders if name not in fns)

    match t:
        case Var(_, ty):
            return asm((ty, *pending), ty)
        case Lam(b, bt, body):
            extra = unused(body, ((b, bt),))
            return arr_r(_free_names_translate(body, pending + extra, free), bt)
        case App(fun, arg):
            df = _free_names_translate(fun, (), free)
            fty = df.conclusion.succedent
            hook = asm((fty.cod, *pending), fty.cod)
            return cut(df, arr_l(_free_names_translate(arg, (), free), hook,
                                 fty))
        case Pair(a, b):
            return tens_r(_free_names_translate(a, (), free),
                          _free_names_translate(b, pending, free))
        case Let(x, xt, y, yt, scrut, body):
            extra = unused(body, ((x, xt), (y, yt)))
            db = _free_names_translate(body, pending + extra, free)
            return cut(_free_names_translate(scrut, (), free),
                       tens_l(db, Tensor(xt, yt)))
        case Break(scrut, phi, f, residue, body):
            ds = _free_names_translate(scrut, (), free)
            k, s = ks_types(ds.conclusion.succedent, residue)
            extra = unused(body, ((phi, k), (f, s)))
            return brk(ds, _free_names_translate(body, pending + extra, free),
                       residue)
    raise TypeError(f"not a term: {t!r}")


class TestWeakeningByOccurrence:
    """A canonical term's binder is unused exactly when no variable of the
    whole term has its name."""

    def test_golden_items_equal_the_free_names_reference(self):
        for name, t in golden_items():
            assert nd_to_sequent(t) == free_names_nd_to_sequent(t), name

    def test_clashing_copies_equal_the_free_names_reference(self):
        rng = random.Random(20261021)
        weakened = 0
        for _ in range(2000):
            t = random_typable_term(rng)
            for u in (t, clashing_copy(t, rng)):
                d = nd_to_sequent(u)
                assert d == free_names_nd_to_sequent(u), u
            # an axiom holds more than its formula only below an unused binder
            weakened += any(len(e.conclusion.antecedent) > 1
                            for _, e in _nodes(d) if e.rule == SRule.ASM)
        assert weakened > 200, weakened


class TestDerivationWalks:
    def test_count_and_search_nesting_deeper_than_the_recursion_limit(self):
        depth = 3000
        d = parse_derivation("(CUT [A |- A] (ASM [A |- A]) " * depth
                             + "(ASM [A |- A])" + ")" * depth)
        assert d.node_count() == 2 * depth + 1
        assert d.uses_rule(SRule.CUT) and d.uses_rule(SRule.ASM)
        assert not d.uses_rule(SRule.BRK)

    def test_count_and_search_every_node(self):
        for _, d in translated_population(96, 100):
            nodes = [e for _, e in _nodes(d)]
            assert d.node_count() == len(nodes)
            for rule in SRule:
                assert d.uses_rule(rule) == any(e.rule == rule for e in nodes)


class TestSequentToTerm:
    def test_axiom_becomes_variable(self):
        t = sequent_to_term(asm([A], A))
        assert isinstance(t, Var) and t.type == A

    def test_pair_of_axioms_becomes_pair(self):
        d = tens_r(asm([A], A), asm([B], B))
        t = sequent_to_term(d)
        assert isinstance(t, Pair)
        assert check(t) == Tensor(A, B)

    def test_round_trip_preserves_type(self):
        for t, d in translated_population(72, 200):
            back = sequent_to_term(d)
            assert check(back) == check(t)
            # free variables of the extracted term sit inside the antecedent;
            # weakened assumptions may be dropped
            have = Counter(free_vars(back).values())
            allowed = Counter(d.conclusion.antecedent)
            assert not have - allowed


def unsorted(d: SDerivation) -> SDerivation:
    """d with every stated antecedent in reverse sorted order."""
    c = d.conclusion
    return SDerivation(d.rule, Sequent(c.antecedent[::-1], c.succedent),
                       tuple(map(unsorted, d.premises)), d.data)


def counter_split(ctx, needed):
    """sequent_to_term's context split as written with a Counter: the
    entries of ctx matching the multiset needed, in ctx order, and the
    rest."""
    need = Counter(needed)
    taken, rest = [], []
    for name, ty in ctx:
        if need[ty] > 0:
            need[ty] -= 1
            taken.append((name, ty))
        else:
            rest.append((name, ty))
    if +need:
        raise InvalidRule((), "context split failed")
    return taken, rest


def reference_sequent_to_term(d: SDerivation):
    """sequent_to_term as it extracted through placeholders: a context of
    (name, type) entries, where a cut and an ArrL extract their second
    premise with a fresh name for the cut formula or the codomain, and
    substitute the first premise's term (applied to the arrow, for ArrL)
    for it."""
    check_derivation(d)
    counter = itertools.count()

    def fresh(base: str) -> str:
        return f"{base}{next(counter)}"

    def pick(ctx, ty):
        (entry,), rest = counter_split(ctx, [ty])
        return entry, rest

    def go(d: SDerivation, ctx):
        p = d.premises
        match d.rule:
            case SRule.ASM:
                return Var(*pick(ctx, d.conclusion.succedent)[0])
            case SRule.CUT:
                ctx1, rest = counter_split(ctx, p[0].conclusion.antecedent)
                x = fresh("cutv")
                t2 = go(p[1], rest + [(x, p[0].conclusion.succedent)])
                return substitute(t2, [(x, go(p[0], ctx1))])
            case SRule.BRK:
                k, s = ks_types(p[0].conclusion.succedent, d.data)
                ctx1, rest = counter_split(ctx, p[0].conclusion.antecedent)
                phi, f = fresh("phi"), fresh("sec")
                t2 = go(p[1], rest + [(phi, k), (f, s)])
                return Break(go(p[0], ctx1), phi, f, d.data, t2)
            case SRule.ArrR:
                dom = d.conclusion.succedent.dom
                x = fresh("x")
                return Lam(x, dom, go(p[0], ctx + [(x, dom)]))
            case SRule.ArrL:
                (g, _), rest = pick(ctx, d.data)
                ctx1, rest = counter_split(rest, p[0].conclusion.antecedent)
                x = fresh("r")
                t2 = go(p[1], rest + [(x, d.data.cod)])
                return substitute(
                    t2, [(x, App(Var(g, d.data), go(p[0], ctx1)))])
            case SRule.TensR:
                ctx1, ctx2 = counter_split(ctx, p[0].conclusion.antecedent)
                return Pair(go(p[0], ctx1), go(p[1], ctx2))
            case SRule.TensL:
                (v, _), rest = pick(ctx, d.data)
                x, y = fresh("a"), fresh("b")
                left, right = d.data
                body = go(p[0], rest + [(x, left), (y, right)])
                return Let(x, left, y, right, Var(v, d.data), body)
        raise AssertionError(d.rule)

    return go(d, [(fresh("h"), ty) for ty in d.conclusion.antecedent])


class TestExtractionThroughTheContext:
    """sequent_to_term places each term through its context, and extracts
    what the placeholder substitution did, up to the names of binders."""

    def test_alpha_equal_to_placeholder_substitution(self):
        terms = [t for _, t in golden_items()]
        terms += [t for t, _ in translated_population(93, 300)]
        derivations = [nd_to_sequent(t) for t in terms]
        derivations += [eliminate_cuts(d) for d in derivations]
        cuts = sum(d.uses_rule(SRule.CUT) for d in derivations)
        assert cuts > 250 and len(derivations) - cuts > 300
        for d in derivations:
            got = sequent_to_term(d)
            assert alpha_eq(got, reference_sequent_to_term(d)), d
            assert check(got) == d.conclusion.succedent

    def test_cut_term_goes_where_the_second_premise_uses_it(self):
        # CUT of |- A -> A against an ArrL that applies it to a hypothesis
        ident = arr_r(asm([A], A), A)
        use = arr_l(asm([A], A), asm([A], A), Arrow(A, A))
        t = sequent_to_term(cut(ident, use))
        assert print_term(t) == r"(\x1:A. x1) (h0 : A)"


class TestAntecedentMultisets:
    """Antecedents are compared and split as multisets, whatever the order
    a hand-built Sequent states them in."""

    def test_unsorted_stated_antecedent_accepted(self):
        d = tens_r(asm([A], A), asm([B], B))
        u = SDerivation(SRule.TensR, Sequent((B, A), Tensor(A, B)),
                        d.premises)
        assert d.conclusion.antecedent == (A, B)
        assert check_derivation(u) == Sequent((B, A), Tensor(A, B))
        assert check(sequent_to_term(u)) == Tensor(A, B)

    def test_unsorted_population_checks_and_extracts(self):
        changed = 0
        for _, d in translated_population(91, 200):
            for e in (d, eliminate_cuts(d)):
                u = unsorted(e)
                changed += u != e
                assert check_derivation(u) == u.conclusion
                assert check(sequent_to_term(u)) == e.conclusion.succedent
        assert changed > 100

    def test_extraction_matches_the_counter_split(self, monkeypatch):
        terms = [t for _, t in golden_items()]
        terms += [t for t, _ in translated_population(92, 500)]
        derivations = [nd_to_sequent(t) for t in terms]
        derivations += [eliminate_cuts(d) for d in derivations]
        got = [print_term(sequent_to_term(d)) for d in derivations]
        monkeypatch.setattr(sequent_module, "_split", counter_split)
        assert [print_term(sequent_to_term(d)) for d in derivations] == got

    def test_split_takes_what_repeated_picks_take(self):
        # needed in its own order, each type's entries in context order,
        # the rest in context order; and the first type needed once too
        # often is the one the error names
        rng = random.Random(20261028)
        types = [A, B, C, Arrow(A, B), Tensor(A, A)]

        def picks(ctx, needed):
            taken = []
            for ty in needed:
                entry, ctx = sequent_module._pick(ctx, ty)
                taken.append(entry)
            return taken, ctx

        missing = 0
        for _ in range(2000):
            ctx = [(Var(f"h{i}", ty), ty) for i, ty in
                   enumerate(rng.choices(types, k=rng.randint(0, 12)))]
            needed = rng.choices(types, k=rng.randint(0, 6))
            try:
                expected = picks(ctx, needed)
            except InvalidRule as e:
                missing += 1
                with pytest.raises(InvalidRule, match=re.escape(str(e))):
                    sequent_module._split(ctx, needed)
            else:
                assert sequent_module._split(ctx, needed) == expected
        assert 500 < missing < 1500


class TestWeaken:
    def test_adds_context_through_rules(self):
        d = nd_to_sequent(identity_break(A))
        w = weaken(d, [B, C])
        assert check_derivation(w) == sequent([B, C], Arrow(A, A))

    def test_weakens_every_subderivation(self):
        seen = set()
        for _, d in translated_population(77, 100):
            for root in (d, eliminate_cuts(d)):
                for _, n in _nodes(root):
                    seen.add(n.rule)
                    end = n.conclusion
                    assert check_derivation(weaken(n, [A, B])) == sequent(
                        end.antecedent + (A, B), end.succedent)
        assert seen == set(SRule)


class TestEliminateCuts:
    def test_cut_of_axiom_vanishes(self):
        d = cut(asm([A], A), asm([A, B], B))
        out = eliminate_cuts(d)
        assert not out.uses_rule(SRule.CUT)
        assert check_derivation(out) == d.conclusion

    @pytest.mark.parametrize("rule", [SRule.TensR, SRule.BRK, SRule.ArrL])
    def test_cut_rides_into_the_first_premise_holding_its_formula(self, rule):
        # the cut formula A -> A sits in the first premise of the right side
        a = Arrow(A, A)
        left = asm([a], a)
        k, s = ks_types(a, B)
        right = {SRule.TensR: tens_r(left, asm([B], B)),
                 SRule.BRK: brk(left, asm([k, s, C], C), B),
                 SRule.ArrL: arr_l(left, asm([C], C), Arrow(a, C))}[rule]
        d = cut(arr_r(asm([A], A), A), right)
        out = eliminate_cuts(d)
        assert not out.uses_rule(SRule.CUT) and out.rule == rule
        assert check_derivation(out) == d.conclusion

    @pytest.mark.parametrize("p1", [arr_r(asm([A], A), A),
                                    tens_r(asm([A], A), asm([A], A))],
                             ids=["ArrR", "TensR"])
    def test_break_whose_residue_is_the_cut_formula_is_not_principal(
            self, p1):
        # only a left rule on the cut formula makes a principal pair: here
        # the datum of the BRK equals the cut formula, and the cut rides up
        a = p1.conclusion.succedent
        k, s = ks_types(B, a)
        d = cut(p1, brk(asm([B], B), asm([k, s, a], a), a))
        out = eliminate_cuts(d)
        assert not out.uses_rule(SRule.CUT) and out.rule == SRule.BRK
        assert check_derivation(out) == d.conclusion

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            eliminate_cuts(asm([A], A), node_budget=-1)

    def test_cut_free_input_unchanged(self):
        d = nd_to_sequent(Var("x", A))
        assert eliminate_cuts(d) == d

    def test_cut_free_derivations_come_back_themselves(self):
        for _, d in translated_population(74, 100):
            out = eliminate_cuts(d)
            assert eliminate_cuts(out) is out

    def test_smallest_budgets_are_the_recorded_counts(self):
        """cut_budgets.json holds, per golden item, the smallest node_budget
        that eliminate_cuts accepts on its nd_to_sequent derivation.  Each
        visited node counts once, whether it is rebuilt or comes back as
        itself."""
        budgets = json.loads(BUDGETS.read_text(encoding="utf-8"))
        items = dict(golden_items())
        assert list(budgets) == list(items)
        for name, t in items.items():
            d = nd_to_sequent(t)
            eliminate_cuts(d, node_budget=budgets[name])
            with pytest.raises(BudgetExceeded):
                eliminate_cuts(d, node_budget=budgets[name] - 1)

    def test_divisibility_wrapper_goes_cut_free(self):
        _, u = divisibility_terms(A, B)
        d = nd_to_sequent(u)
        assert d.uses_rule(SRule.CUT)
        out = eliminate_cuts(d)
        assert not out.uses_rule(SRule.CUT)
        assert check_derivation(out) == sequent(
            [], Arrow(A, Arrow(Arrow(A, B), B)))

    def test_break_nodes_survive(self):
        t, _ = divisibility_terms(A, B)
        d = nd_to_sequent(t)
        out = eliminate_cuts(d)
        assert out.uses_rule(SRule.BRK)
        assert not out.uses_rule(SRule.CUT)

    def test_break_node_dropped_with_a_discarded_argument(self):
        # the argument's derivation holds the only BRK node; the bound
        # variable is unused, so its formula is weakened in and the cut
        # against it discards that premise whole, as beta discards the
        # argument
        t = parse_term(r"(\x:A. (z : B)) "
                       r"(break (w : A) as <phi, f> @ A in phi f)")
        d = nd_to_sequent(t)
        assert d.uses_rule(SRule.BRK)
        out = eliminate_cuts(d)
        assert print_derivation(out) == "(ASM [A, B |- B])"
        assert print_term(normalize(t)[0]) == "(z : B)"

    def test_random_population(self):
        for _, d in translated_population(73, 300):
            out = eliminate_cuts(d)
            assert not out.uses_rule(SRule.CUT)
            assert check_derivation(out) == d.conclusion


class TestBrkViaCut:
    def _d_a(self):
        # |- P -> P
        return nd_to_sequent(parse_term(r"\x:P. x"))

    def test_empty_context_construction(self):
        a = Arrow(P, P)
        k, s = ks_types(a, B)
        d_c = asm([k, s, C], C)
        out = brk_via_cut_empty(self._d_a(), d_c)
        assert check_derivation(out) == sequent([C], C)
        assert not out.uses_rule(SRule.BRK)

    def test_empty_context_node_count_bound(self):
        a = Arrow(P, P)
        k, s = ks_types(a, B)
        d_a = self._d_a()
        d_c = asm([k, s, C], C)
        out = brk_via_cut_empty(d_a, d_c)
        assert out.node_count() <= 2 * d_a.node_count() + d_c.node_count() + 8

    def test_empty_context_requires_closed_first_premise(self):
        with pytest.raises(PreconditionViolation):
            brk_via_cut_empty(asm([A], A), asm([B], B))

    def test_k_side_superfluous(self):
        a = Arrow(P, P)
        _, s = ks_types(a, B)
        d_c = asm([s, C], C)
        out = brk_via_cut_superfluous(self._d_a(), d_c, "K-side")
        assert check_derivation(out) == sequent([C], C)
        assert not out.uses_rule(SRule.BRK)

    def test_s_side_superfluous(self):
        a = Arrow(P, P)
        k, _ = ks_types(a, B)
        d_c = asm([k, C], C)
        out = brk_via_cut_superfluous(self._d_a(), d_c, "S-side")
        assert check_derivation(out) == sequent([C], C)

    def test_both_assumptions_present_rejected(self):
        a = Arrow(P, P)
        k, s = ks_types(a, B)
        d_c = asm([k, s, C], C)
        with pytest.raises(PreconditionViolation):
            brk_via_cut_superfluous(self._d_a(), d_c, "K-side")
        with pytest.raises(PreconditionViolation):
            brk_via_cut_superfluous(self._d_a(), d_c, "S-side")

    def test_unknown_side_rejected(self):
        with pytest.raises(ValueError) as err:
            brk_via_cut_superfluous(self._d_a(), asm([C], C), "X-side")
        assert str(err.value) == (
            "which must be 'K-side' or 'S-side', got 'X-side'")

    @pytest.mark.parametrize("which, residue, message", [
        ("K-side", B, "assumption B -> P -> P not in the second derivation"),
        ("S-side", B,
         "assumption ((P -> P) -> B) -> B not in the second derivation"),
        ("K-side", None, "no section assumption found"),
        ("S-side", None, "no higher-order assumption found"),
    ])
    def test_superfluous_missing_assumption(self, which, residue, message):
        with pytest.raises(PreconditionViolation) as err:
            brk_via_cut_superfluous(self._d_a(), asm([C], C), which, residue)
        assert str(err.value) == message

    @pytest.mark.parametrize("residue, message", [
        (None, "second derivation carries no matching assumption pair"),
        (B, "second derivation lacks the break assumption pair"),
    ])
    def test_empty_context_missing_pair(self, residue, message):
        _, s = ks_types(Arrow(P, P), B)
        with pytest.raises(PreconditionViolation) as err:
            brk_via_cut_empty(self._d_a(), asm([s, C], C), residue)
        assert str(err.value) == message

    def test_side_conditions_match_the_constructions(self):
        # wherever the standard break contraction fires, one of the two
        # cut simulations applies to the translated premises
        rng = random.Random(74)
        exercised = 0
        for _ in range(200):
            t = random_typable_term(rng, max_size=25)
            for r in find_redexes(t):
                if r.rule != RuleName.B_CONV:
                    continue
                node = subterm_at(t, r.position)
                assert isinstance(node, Break)
                exercised += 1
                d_a = nd_to_sequent(node.scrutinee)
                a_ty = d_a.conclusion.succedent
                k, s = ks_types(a_ty, node.residue)
                body_fns = free_names(node.body)
                d_body = nd_to_sequent(node.body)
                if not free_names(node.scrutinee):
                    extras = [ty for name, ty in
                              ((node.phi, k), (node.f, s))
                              if name not in body_fns]
                    out = brk_via_cut_empty(d_a, weaken(d_body, extras),
                                            residue=node.residue)
                elif node.phi not in body_fns:
                    extras = [s] if node.f not in body_fns else []
                    out = brk_via_cut_superfluous(
                        d_a, weaken(d_body, extras), "K-side",
                        residue=node.residue)
                else:
                    assert node.f not in body_fns
                    out = brk_via_cut_superfluous(d_a, d_body, "S-side",
                                                  residue=node.residue)
                end = check_derivation(out)
                assert end.succedent == d_body.conclusion.succedent
        assert exercised > 100


class TestProofSearch:
    def test_finds_simple_arrow_proof(self):
        d = prove_bounded(sequent([], Arrow(P, P)), depth=3)
        assert d is not None
        assert check_derivation(d) == sequent([], Arrow(P, P))

    def test_finds_pair_rearrangement(self):
        goal = sequent([], Arrow(Tensor(A, B), Tensor(B, A)))
        d = prove_bounded(goal, depth=6)
        assert d is not None and check_derivation(d) == goal

    def test_depth_zero_finds_only_axioms(self):
        goal = sequent([], Arrow(P, P))
        assert prove_bounded(goal, depth=0) is None
        assert check_derivation(prove_bounded(goal, depth=1)) == goal
        assert prove_bounded(sequent([P], P), depth=0) == asm([P], P)

    def test_split_of_a_repeated_assumption(self):
        # the split that gives the left premise the first A fails, the one
        # that gives it the second is the same split and is skipped, and a
        # later one succeeds
        goal = sequent([A, A, B], Tensor(Tensor(A, B), A))
        d = prove_bounded(goal, depth=3)
        assert d is not None and check_derivation(d) == goal

    def test_divisibility_needs_break(self):
        # derivable with the break rule ...
        t, _ = divisibility_terms(A, B)
        d = eliminate_cuts(nd_to_sequent(t))
        goal = sequent([], Arrow(A, Arrow(Arrow(A, B),
                                          Tensor(B, Arrow(B, A)))))
        assert check_derivation(d) == goal
        assert d.uses_rule(SRule.BRK) and not d.uses_rule(SRule.CUT)
        # ... but not in the cut-free break-free fragment up to depth 8
        assert prove_bounded(goal, depth=8) is None


def fresh_types(rng: random.Random, count: int):
    """count types, most never built before: random shapes over atoms
    that no other test names."""
    atoms = [Atom(f"Order{i}") for i in range(4)]

    def draw(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(atoms)
        return rng.choice((Arrow, Tensor))(draw(depth - 1), draw(depth - 1))

    return [draw(rng.randint(0, 5)) for _ in range(count)]


class TestFormulaOrder:
    """sequent() and the sequent printer read formula text through the
    print_type memo's C-level lookup, which orders and prints formulas as
    print_type does."""

    def test_key_first_prints_as_print_type(self):
        key = sequent_module.print_type
        types = fresh_types(random.Random(20261024), 2000)
        unprinted = [ty for ty in dict.fromkeys(types)
                     if ty not in _PRINTED]
        assert len(unprinted) > 500
        for ty in unprinted:  # printed through the key first
            assert key(ty) == _ptype(ty, _TOP) == print_type(ty)

    def test_sequents_sort_as_print_type_does(self):
        rng = random.Random(20261025)
        for _ in range(300):
            types = fresh_types(rng, rng.randint(0, 8))
            s = sequent(types, A)
            assert s.antecedent == tuple(sorted(types, key=print_type))
            assert s.antecedent == tuple(
                sorted(types, key=lambda ty: _ptype(ty, _TOP)))
            ant = ", ".join(map(print_type, s.antecedent))
            assert str(s) == (f"{ant} |- A" if ant else "|- A")


class TestSerialization:
    def test_round_trip(self):
        for _, d in translated_population(75, 60, max_size=15):
            text = print_derivation(d)
            back = parse_derivation(text)
            assert back == d
            assert check_derivation(back) == d.conclusion

    def test_parse_error_on_unknown_rule(self):
        with pytest.raises(ParseError):
            parse_derivation("(WAT [A |- A])")


def unmemoised_parse_derivation(text: str) -> SDerivation:
    """The token parser without a formula memo or a layout reader: the
    reference parse_derivation must agree with, result and ParseError
    alike."""
    def derivation(ts: TokenStream) -> SDerivation:
        ts.expect("LPAREN", "'('")
        tok = ts.expect("IDENT", "rule name")
        try:
            rule = SRule(tok[1])
        except ValueError:
            raise ts.error(tok, f"unknown rule {tok[1]!r}",
                           [r.value for r in SRule]) from None
        data = None
        if ts.accept("LBRACE"):
            data = parse_type_stream(ts)
            ts.expect("RBRACE", "'}'")
        ts.expect("LBRACK", "'['")
        ant = []
        if ts.peek()[0] != "TURNSTILE":
            ant.append(parse_type_stream(ts))
            while ts.accept("COMMA"):
                ant.append(parse_type_stream(ts))
        ts.expect("TURNSTILE", "'|-'")
        suc = parse_type_stream(ts)
        ts.expect("RBRACK", "']'")
        premises = []
        while ts.peek()[0] == "LPAREN":
            premises.append(derivation(ts))
        ts.expect("RPAREN", "')'")
        return SDerivation(rule, sequent(ant, suc), tuple(premises), data)

    return TokenStream(text).parse(derivation)


def parse_outcome(parse, text: str):
    """The parsed derivation, or the ParseError's message, span and
    expected list."""
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.span, exc.expected


#: every formula but C repeats; ``A -> B`` appears before ``,``, `` |-``,
#: ``]`` and ``}``
REPEATING = """(ArrR [(A -> B) -> C |- (A -> B) -> A -> C]
  (ArrR [(A -> B) -> C, A -> B |- A -> C]
    (CUT [(A -> B) -> C, A, A -> B |- C]
      (ASM [(A -> B) -> C |- (A -> B) -> C])
      (ArrL {(A -> B) -> C} [(A -> B) -> C, A, A -> B |- C]
        (ASM [A -> B |- A -> B])
        (ASM [A, C |- C])))))"""


class TestFormulaMemo:
    """parse_derivation reads each formula text once per call."""

    def test_respaced_and_commented_formulas_parse_equal(self):
        spellings = iter(["A->B", "(A -> B)", "A -- a comment, ] |- }\n -> B",
                          "A\t->  B", "((A)) -> (B)"] * 4)
        parts = REPEATING.split("A -> B")
        respaced = parts[0] + "".join(next(spellings) + part
                                      for part in parts[1:])
        assert respaced != REPEATING
        d = parse_derivation(REPEATING)
        assert parse_derivation(respaced) == d
        assert check_derivation(d) == d.conclusion

    @pytest.mark.parametrize("text", [
        "(ASM [A -> B, A -> B C , A |- A])",
        "(ASM [A -> B, A -> B C, A |- A])",
        "(ArrL {A -> B} [A -> B, A -> B C |- B] (ASM [A |- A]))",
        "(ASM [A -> B |- A -> B C])",
        "(ASM [A -> B, C |- A -> B ) ])",
    ], ids=["before-comma", "tight-comma", "antecedent", "succedent",
            "rparen"])
    def test_stray_tokens_after_a_known_formula(self, text):
        error = parse_outcome(parse_derivation, text)
        assert isinstance(error, tuple)
        assert error == parse_outcome(unmemoised_parse_derivation, text)

    @pytest.mark.parametrize("text", [
        "(ASM [A -> B, C |- A -> B",
        "(ASM [A -> B, C |- A -> B ",
        "(ASM [A -> B, C |- A ->",
        "(ArrL {A -> B",
    ], ids=["hit", "hit-space", "inside", "datum"])
    def test_formula_at_end_of_truncated_text(self, text):
        error = parse_outcome(parse_derivation, text)
        assert isinstance(error, tuple)
        assert error == parse_outcome(unmemoised_parse_derivation, text)

    def test_agrees_with_the_unmemoised_parser_on_mutations(self):
        texts = [REPEATING[:i] for i in range(len(REPEATING) + 1)]
        texts += [REPEATING[:i] + REPEATING[i + 1:]
                  for i in range(len(REPEATING))]
        texts += [REPEATING[:i] + c + REPEATING[i:]
                  for i in range(0, len(REPEATING), 3) for c in "C,)]"]
        for text in texts:
            assert (parse_outcome(parse_derivation, text)
                    == parse_outcome(unmemoised_parse_derivation, text)), text


class TestPrintedFormulaLookup:
    """_read_layout looks up a formula that print_type wrote in _PARSED, the
    inverse of the print_type memo, and parses any other text."""

    def test_parsed_is_the_inverse_of_printed(self):
        for _, d in translated_population(93, 50):
            print_derivation(eliminate_cuts(d))
        assert len(_PARSED) > 100
        for text, ty in _PARSED.items():
            assert _PRINTED[ty] is text
            assert parse_type(text) is ty
        for ty, text in list(_PRINTED.items()):
            reads_back = parse_outcome(parse_type, text) is ty
            assert (_PARSED.get(text) is ty) == reads_back, text

    def test_printed_formulas_are_not_parsed(self, monkeypatch):
        texts = [print_derivation(d)
                 for _, d in translated_population(94, 100)]

        def parse(text):
            raise AssertionError(f"parsed the printed formula {text!r}")

        monkeypatch.setattr(sequent_module, "parse_type", parse)
        for text in texts:
            assert parse_derivation(text) == unmemoised_parse_derivation(text)

    def test_respelled_formulas_read_as_the_token_parser_reads_them(self):
        spellings = [("A -> B", "((A) -> (B))"), ("A -> B", "A->B"),
                     ("A -> B", "A --  a comment\n  ->\tB"),
                     ("(A -> B) -> C", "(A->B)->((C))")]
        for old, new in spellings:
            text = REPEATING.replace(old, new)
            assert text != REPEATING
            assert parse_derivation(text) == \
                TokenStream(text).parse(sequent_module._derivation) == \
                parse_derivation(REPEATING)
        for printed in printed_population(95, 50):
            for text in [printed.replace(" -> ", "->"),
                         re.sub(r"\|- ([^\]]*)", r"|-  ((\1)) ", printed),
                         re.sub(r"\{([^}]*)\}", r"{ (\1)}", printed),
                         *commented(printed)]:
                assert parse_derivation(text) == \
                    TokenStream(text).parse(sequent_module._derivation), text

    @pytest.mark.parametrize("atom", ["?1", "let", "A -> B", "1A", ""])
    def test_a_type_printed_from_no_identifier_is_not_read_back(self, atom):
        text = f"(ASM [{atom} |- {atom}])"
        expected = parse_outcome(unmemoised_parse_derivation, text)
        print_type(Atom(atom))
        print_type(Arrow(Atom(atom), A))
        assert parse_outcome(parse_derivation, text) == expected


def derivation_error_inputs():
    """The derivation texts of parse_errors.json: each printed derivation,
    and its mutations in the fixture's order."""
    rng = random.Random(PARSE_ERRORS_SEED + 1)
    for _, kind, text in parse_error_inputs():
        # every input draws its mutations, so rng runs as in the fixture
        mutated = [m for _, m in parse_error_mutations(text, rng)]
        if kind == "derivation":
            yield text
            yield from mutated


def respellings(text: str):
    """text as printed, then with other spacing and with a comment added;
    commented() adds more."""
    yield text
    yield text.replace(" ", "\t")
    yield text.replace("\n", "\r\n")
    yield text.replace(" ", "\u00a0")
    yield "".join(text.split())  # no token needs a space after it
    # an ASM leaf has an antecedent, so every printed derivation has a
    # " |-"; the comment before it would add A if read as a formula
    yield text.replace(" |-", " -- a comment, A\n|-", 1)


def commented(text: str):
    """text with a comment at the end of every line, a comment line before
    each, and one ending the text without a line break.  The comments hold
    delimiters, ``|-``, ``-->``, a ``(`` and more ``--``."""
    lines = text.split("\n")
    yield "\n".join(f"{line} -- ) ] |- A, --> (" for line in lines)
    yield "".join(f"-- node {i}: (ASM [A |- B])\n{line}\n"
                  for i, line in enumerate(lines))
    yield text + "\n--- no line break after this ]"
    yield text.replace("[", "[--\n", 1).replace(" |-", "---)\r\n|-", 1)


def printed_population(seed: int, count: int):
    """Printed nd_to_sequent and eliminate_cuts derivations of count seeded
    terms."""
    for _, d in translated_population(seed, count):
        yield print_derivation(d)
        yield print_derivation(eliminate_cuts(d))


class TestLayoutReader:
    """parse_derivation reads printed layout without the token parser, and
    agrees with it on every text, read or rejected."""

    def test_agrees_with_the_token_parser_on_parse_error_inputs(self):
        texts = list(derivation_error_inputs())
        assert len(texts) == 10 * 31
        for text in texts:
            assert (parse_outcome(parse_derivation, text)
                    == parse_outcome(unmemoised_parse_derivation, text)), text

    def test_agrees_with_the_token_parser_on_respelled_derivations(self):
        for printed in printed_population(83, 300):
            for text in respellings(printed):
                d = parse_derivation(text)
                assert d == unmemoised_parse_derivation(text), text

    def test_printed_derivations_never_reach_the_token_parser(
            self, monkeypatch):
        texts = list(printed_population(89, 100))
        texts += [REPEATING, REPEATING.replace("A -> B", "A->B")]

        def token_parser(ts):
            raise AssertionError("the token parser read printed layout")

        monkeypatch.setattr(sequent_module, "_derivation", token_parser)
        for printed in texts:
            for text in [*respellings(printed), *commented(printed)]:
                assert parse_derivation(text) == \
                    unmemoised_parse_derivation(text), text

    @pytest.mark.parametrize("text", [
        "(ASM [A |---\n A])",
        "(ASM [A |--- a comment\nA]) -- and another",
        "(ASM [A |-- A])",
        "(ASM [A -- x\n|--\nA])",
    ], ids=["dashes", "comments", "error", "after-comment"])
    def test_a_dash_after_a_turnstile_goes_to_the_token_parser(
            self, text, monkeypatch):
        expected = parse_outcome(unmemoised_parse_derivation, text)
        assert parse_outcome(parse_derivation, text) == expected

        class FellBack(Exception):
            pass

        def token_stream(text):
            raise FellBack

        monkeypatch.setattr(sequent_module, "TokenStream", token_stream)
        with pytest.raises(FellBack):
            parse_derivation(text)

    def test_prints_nesting_deeper_than_the_recursion_limit(self):
        depth = 3000
        d = parse_derivation("(CUT [A |- A] (ASM [A |- A]) " * depth
                             + "(ASM [A |- A])" + ")" * depth)
        lines = []
        for i in range(depth):
            lines += ["  " * i + "(CUT [A |- A]",
                      "  " * (i + 1) + "(ASM [A |- A])"]
        lines.append("  " * depth + "(ASM [A |- A])" + ")" * depth)
        text = print_derivation(d)
        assert text == "\n".join(lines)
        # texts, not derivations: == on derivations this deep recurses
        assert print_derivation(parse_derivation(text)) == text

    def test_reads_nesting_deeper_than_the_recursion_limit(self):
        depth = 1500
        text = ("(CUT [A |- A] (ASM [A |- A]) " * depth + "(ASM [A |- A])"
                + ")" * depth)
        d = parse_derivation(text)
        for _ in range(depth):
            assert d.rule == SRule.CUT and d.conclusion == sequent([A], A)
            d = d.premises[1]
        assert d == asm([A], A)
