"""The term catalog: exact types, normality, and reduction behavior."""

import random

import pytest

from breakcalc.catalog import (
    AxiomId, axiom_L_term, axiom_term, break_free_split, divisibility_terms,
    homomorphism_term, identity_break,
)
from breakcalc.reduction import find_redexes, normalize
from breakcalc.syntax import (
    App, Arrow, Atom, Break, Lam, Let, Pair, Tensor, Term, TypeExpr, Var,
    alpha_eq, affine_check, children, free_vars, ks_types, subterm_at,
)
from breakcalc.typecheck import check
from termgen import random_type

A, B, C = Atom("A"), Atom("B"), Atom("C")


def contains_break(t: Term) -> bool:
    return isinstance(t, Break) or any(contains_break(c) for c in children(t))


class TestAxiomTerms:
    def test_b1_shape(self):
        t = axiom_term(AxiomId.B1, A, B, C)
        assert isinstance(t, Lam) and isinstance(t.body, Lam)
        assert check(t) == Arrow(Arrow(A, B), Arrow(Arrow(B, C), Arrow(A, C)))

    def test_b4_divisibility(self):
        t = axiom_term(AxiomId.B4, A, B)
        assert check(t) == Arrow(Tensor(A, Arrow(A, B)),
                                 Tensor(B, Arrow(B, A)))
        assert contains_break(t)

    def test_b5b_uncurry(self):
        t = axiom_term(AxiomId.B5b, A, B, C)
        assert check(t) == Arrow(Arrow(A, Arrow(B, C)),
                                 Arrow(Tensor(A, B), C))

    def test_missing_third_argument_rejected(self):
        with pytest.raises(ValueError):
            axiom_term(AxiomId.B1, A, B)

    def test_all_closed_affine_on_random_instances(self):
        rng = random.Random(61)
        for _ in range(40):
            a, b, c = (random_type(rng, 2) for _ in range(3))
            for axiom in AxiomId:
                t = axiom_term(axiom, a, b, c)
                check(t)
                assert free_vars(t) == {}
                assert affine_check(t)


class TestCatalogParametricity:
    def test_every_constructor_checks_at_its_parametric_type(self):
        rng = random.Random(62)
        for _ in range(25):
            a, b, c = (random_type(rng, 2) for _ in range(3))
            assert check(identity_break(a)) == Arrow(a, a)
            t, u = divisibility_terms(a, b)
            assert check(t) == Arrow(a, Arrow(Arrow(a, b),
                                              Tensor(b, Arrow(b, a))))
            assert check(u) == Arrow(a, Arrow(Arrow(a, b), b))
            assert check(axiom_L_term(a, b)) == Arrow(
                Arrow(Arrow(b, a), Arrow(a, b)), Arrow(a, b))
            assert check(homomorphism_term(a, b, c)) == Arrow(
                Arrow(a, Tensor(a, a)),
                Arrow(Arrow(a, Tensor(b, c)),
                      Tensor(Arrow(a, b), Arrow(a, c))))
            k, _ = ks_types(a, b)
            hyp = Arrow(Tensor(a, Arrow(a, k)), Tensor(k, Arrow(k, a)))
            assert check(break_free_split(a, b)) == Arrow(
                hyp, Arrow(a, Tensor(k, Arrow(b, a))))
            for term in (identity_break(a), t, u, axiom_L_term(a, b),
                         homomorphism_term(a, b, c), break_free_split(a, b)):
                assert affine_check(term)
                assert free_vars(term) == {}


class TestIdentityBreak:
    def test_type(self):
        assert check(identity_break(A)) == Arrow(A, A)

    def test_normal_form(self):
        assert find_redexes(identity_break(A)) == []

    def test_acts_as_identity(self):
        s = Lam("w", A, Var("w", A))
        nf, _ = normalize(App(identity_break(Arrow(A, A)), s))
        assert alpha_eq(nf, s)


class TestDivisibility:
    def test_types(self):
        t, u = divisibility_terms(A, B)
        assert check(t) == Arrow(A, Arrow(Arrow(A, B),
                                          Tensor(B, Arrow(B, A))))
        assert check(u) == Arrow(A, Arrow(Arrow(A, B), B))

    def test_t_is_normal(self):
        t, _ = divisibility_terms(A, B)
        assert find_redexes(t) == []

    def test_u_normalizes_break_free(self):
        from breakcalc.parser import parse_term

        _, u = divisibility_terms(A, B)
        nf, _ = normalize(u)
        assert alpha_eq(nf, parse_term(r"\x':A. \g':A -> B. g' x'"))
        assert not contains_break(nf)


class TestAxiomL:
    def test_type(self):
        t = axiom_L_term(A, B)
        assert check(t) == Arrow(Arrow(Arrow(B, A), Arrow(A, B)),
                                 Arrow(A, B))
        assert affine_check(t)

    def test_identity_instance_reduces_to_identity_break(self):
        t = axiom_L_term(A, A)
        applied = App(t, Lam("g", Arrow(A, A), Var("g", Arrow(A, A))))
        nf, _ = normalize(applied)
        assert alpha_eq(nf, identity_break(A))


class TestHomomorphism:
    def test_type(self):
        t = homomorphism_term(A, B, C)
        assert check(t) == Arrow(Arrow(A, Tensor(A, A)),
                                 Arrow(Arrow(A, Tensor(B, C)),
                                       Tensor(Arrow(A, B), Arrow(A, C))))

    def test_affine_and_closed(self):
        t = homomorphism_term(A, B, C)
        assert affine_check(t)
        assert free_vars(t) == {}

    def test_intermediate_pair_builder_type(self):
        # the subterm \q. q t1 sits at the scrutinee of the inner break and
        # checks at y -> (a->b) * (a->c) where y = (a->b) -> (a->b) * (a->c)
        t = homomorphism_term(A, B, C)
        inner_break = subterm_at(t, (0, 0, 1))
        assert isinstance(inner_break, Break)
        goal = Tensor(Arrow(A, B), Arrow(A, C))
        y_ty = Arrow(Arrow(A, B), goal)
        assert check(inner_break.scrutinee) == Arrow(y_ty, goal)

    def test_normalizes_with_type_preserved(self):
        t = homomorphism_term(A, B, C)
        ty = check(t)
        nf, steps = normalize(t)
        assert check(nf) == ty
        assert find_redexes(nf) == []


class TestBreakFreeSplit:
    def test_type(self):
        t = break_free_split(A, B)
        k, _ = ks_types(A, B)
        hyp = Arrow(Tensor(A, Arrow(A, k)), Tensor(k, Arrow(k, A)))
        assert check(t) == Arrow(hyp, Arrow(A, Tensor(k, Arrow(B, A))))

    def test_contains_no_break_node(self):
        assert not contains_break(break_free_split(A, B))

    def test_substituting_the_divisibility_axiom_inhabits_the_split(self):
        k, _ = ks_types(A, B)
        witness = App(break_free_split(A, B), axiom_term(AxiomId.B4, A, k))
        ty = check(witness)
        nf, _ = normalize(witness)
        assert check(nf) == ty == Arrow(A, Tensor(k, Arrow(B, A)))
        assert free_vars(nf) == {}


# ---------------------------------------------------------------------------
# Differential test: the templates against the builders written as
# constructor calls, each variable and break typed by hand
# ---------------------------------------------------------------------------

def reference_axiom_term(axiom: AxiomId, a: TypeExpr, b: TypeExpr,
                         c: TypeExpr | None = None) -> Term:
    """Closed inhabitant of the given axiom; B1, B5a and B5b require c."""
    axiom = AxiomId(axiom)
    if axiom in (AxiomId.B1, AxiomId.B5a, AxiomId.B5b) and c is None:
        raise ValueError(f"{axiom.value} needs a third type argument")
    match axiom:
        case AxiomId.B1:
            # \f.\g.\x. g (f x) : (a -> b) -> (b -> c) -> a -> c
            ab, bc = Arrow(a, b), Arrow(b, c)
            return Lam("f", ab, Lam("g", bc, Lam("x", a,
                       App(Var("g", bc), App(Var("f", ab), Var("x", a))))))
        case AxiomId.B2:
            # \v. let <x, y> = v in x : a * b -> a
            return Lam("v", Tensor(a, b),
                       Let("x", a, "y", b, Var("v", Tensor(a, b)), Var("x", a)))
        case AxiomId.B3:
            # \v. let <x, y> = v in <y, x> : a * b -> b * a
            return Lam("v", Tensor(a, b),
                       Let("x", a, "y", b, Var("v", Tensor(a, b)),
                           Pair(Var("y", b), Var("x", a))))
        case AxiomId.B4:
            # \v. let <x, f> = v in break x as <phi, g> @ b in <phi f, g>
            #   : a * (a -> b) -> b * (b -> a)
            ab = Arrow(a, b)
            k, s = ks_types(a, b)
            return Lam("v", Tensor(a, ab),
                       Let("x", a, "f", ab, Var("v", Tensor(a, ab)),
                           Break(Var("x", a), "phi", "g", b,
                                 Pair(App(Var("phi", k), Var("f", ab)),
                                      Var("g", s)))))
        case AxiomId.B5a:
            # \f.\x.\y. f <x, y> : (a * b -> c) -> a -> b -> c
            fro = Arrow(Tensor(a, b), c)
            return Lam("f", fro, Lam("x", a, Lam("y", b,
                       App(Var("f", fro), Pair(Var("x", a), Var("y", b))))))
        case AxiomId.B5b:
            # \g.\a. let <x, y> = a in g x y : (a -> b -> c) -> a * b -> c
            gty = Arrow(a, Arrow(b, c))
            return Lam("g", gty, Lam("a", Tensor(a, b),
                       Let("x", a, "y", b, Var("a", Tensor(a, b)),
                           App(App(Var("g", gty), Var("x", a)), Var("y", b)))))
    raise ValueError(f"unknown axiom {axiom!r}")


def reference_identity_break(a: TypeExpr) -> Term:
    """Normal-form identity that routes through a break: \\x. break x as <phi, f> @ a in phi f."""
    k, s = ks_types(a, a)
    return Lam("x", a, Break(Var("x", a), "phi", "f", a,
                             App(Var("phi", k), Var("f", s))))


def reference_divisibility_terms(a: TypeExpr, b: TypeExpr) -> tuple[Term, Term]:
    """The divisibility inhabitant t and the first-projection wrapper u.

    t : a -> (a -> b) -> b * (b -> a) is normal; u : a -> (a -> b) -> b
    normalizes to \\x'. \\g'. g' x'.
    """
    ab = Arrow(a, b)
    k, s = ks_types(a, b)
    t = Lam("x", a, Break(Var("x", a), "phi", "f", b,
                          Lam("g", ab, Pair(App(Var("phi", k), Var("g", ab)),
                                            Var("f", s)))))
    u = Lam("x'", a, Lam("g'", ab,
            Let("m", b, "n", s, App(App(t, Var("x'", a)), Var("g'", ab)),
                Var("m", b))))
    return t, u


def reference_axiom_L_term(a: TypeExpr, b: TypeExpr) -> Term:
    """\\D.\\x. break x as <phi, f> @ b in phi (D f) : ((b->a)->(a->b)) -> a -> b."""
    k, s = ks_types(a, b)
    dty = Arrow(s, Arrow(a, b))
    return Lam("D", dty, Lam("x", a,
               Break(Var("x", a), "phi", "f", b,
                     App(Var("phi", k), App(Var("D", dty), Var("f", s))))))


def reference_homomorphism_term(a: TypeExpr, b: TypeExpr, c: TypeExpr) -> Term:
    """Witness that mapping out of an idempotent element splits pairs:

    (a -> a * a) -> (a -> b * c) -> (a -> b) * (a -> c)

    Assembled from two nested breaks and a third break inside the repackaging
    function, with pair projections spelled out as lets.
    """
    ab, ac = Arrow(a, b), Arrow(a, c)
    abc = Arrow(a, Tensor(b, c))
    goal = Tensor(ab, ac)
    y_ty = Arrow(ab, goal)           # (a->b) -> (a->b) * (a->c)
    z_ty = Arrow(y_ty, goal)         # y -> (a->b) * (a->c)
    yac = Arrow(y_ty, ac)            # y -> (a->c)
    k_phi, s_f = ks_types(abc, ab)   # breaking h at residue a->b
    k_psi, s_g = ks_types(z_ty, yac)  # breaking t5 at residue y -> (a->c)

    # pi0 : b * c -> b, inlined where needed
    pi0 = Lam("v0", Tensor(b, c),
              Let("b0", b, "c0", c, Var("v0", Tensor(b, c)), Var("b0", b)))
    # pi1 : (a->b) * (a->c) -> a -> c
    pi1 = Lam("v1", goal,
              Let("i0", ab, "j0", ac, Var("v1", goal), Var("j0", ac)))

    # t1 = phi (\m. \x0. pi0 (m x0)) : a -> b
    t1 = App(Var("phi", k_phi),
             Lam("m", abc, Lam("x0", a,
                               App(pi0, App(Var("m", abc), Var("x0", a))))))

    # t2(x) = \j. let <x1, y1> = f j x in <\zb. x1, \zc. y1> : y
    def t2(xname: str) -> Term:
        return Lam("j", ab,
                   Let("x1", b, "y1", c,
                       App(App(Var("f", s_f), Var("j", ab)), Var(xname, a)),
                       Pair(Lam("zb", a, Var("x1", b)),
                            Lam("zc", a, Var("y1", c)))))

    # t4 = \p. \y0. let <y2, y3> = alpha y0 in p (t2[y2]) y3 : (y -> (a->c)) -> a -> c
    aa = Tensor(a, a)
    t4 = Lam("p", yac, Lam("y0", a,
             Let("y2", a, "y3", a,
                 App(Var("alpha", Arrow(a, aa)), Var("y0", a)),
                 App(App(Var("p", yac), t2("y2")), Var("y3", a)))))

    # t5 = \q. q t1 : z
    t5 = Lam("q", y_ty, App(Var("q", y_ty), t1))

    # t6 = \u0. \v2. pi1 (u0 v2) : z -> y -> (a->c)
    t6 = Lam("u0", z_ty, Lam("v2", y_ty,
             App(pi1, App(Var("u0", z_ty), Var("v2", y_ty)))))

    # t7 = \vc. \ub. <ub, vc> : (a->c) -> y
    t7 = Lam("vc", ac, Lam("ub", ab, Pair(Var("ub", ab), Var("vc", ac))))

    # t8 = \i. break i as <eta, k> @ y in (g k) (eta t7) : (a->c) -> goal
    k_eta, s_k = ks_types(ac, y_ty)
    t8 = Lam("i", ac,
             Break(Var("i", ac), "eta", "k", y_ty,
                   App(App(Var("g", s_g), Var("k", s_k)),
                       App(Var("eta", k_eta), t7))))

    # t9 = break h as <phi, f> @ (a->b) in
    #        break t5 as <psi, g> @ (y -> (a->c)) in t8 (t4 (psi t6))
    t9 = Break(Var("h", abc), "phi", "f", ab,
               Break(t5, "psi", "g", yac,
                     App(t8, App(t4, App(Var("psi", k_psi), t6)))))

    return Lam("alpha", Arrow(a, aa), Lam("h", abc, t9))


def reference_break_free_split(a: TypeExpr, b: TypeExpr) -> Term:
    """Split a into its two break components without a break node, given the
    divisibility axiom for the residue instance as a hypothesis.

    Type: (a * (a -> K) -> K * (K -> a)) -> a -> K * (b -> a), K = (a -> b) -> b.
    """
    k, _ = ks_types(a, b)
    ab = Arrow(a, b)
    hyp = Arrow(Tensor(a, Arrow(a, k)), Tensor(k, Arrow(k, a)))
    ka = Arrow(k, a)
    # \b4. \x. let <phi, h> = b4 <x, \a0. \p. p a0> in <phi, \b0. h (\g0. b0)>
    return Lam("b4", hyp, Lam("x", a,
               Let("phi", k, "h", ka,
                   App(Var("b4", hyp),
                       Pair(Var("x", a),
                            Lam("a0", a, Lam("p", ab,
                                App(Var("p", ab), Var("a0", a)))))),
                   Pair(Var("phi", k),
                        Lam("b0", b,
                            App(Var("h", ka),
                                Lam("g0", ab, Var("b0", b))))))))


def catalog_terms(a: TypeExpr, b: TypeExpr, c: TypeExpr) -> list[Term]:
    return [axiom_term(x, a, b, c) for x in AxiomId] + [
        identity_break(a), *divisibility_terms(a, b), axiom_L_term(a, b),
        homomorphism_term(a, b, c), break_free_split(a, b)]


def reference_catalog_terms(a: TypeExpr, b: TypeExpr,
                            c: TypeExpr) -> list[Term]:
    return [reference_axiom_term(x, a, b, c) for x in AxiomId] + [
        reference_identity_break(a), *reference_divisibility_terms(a, b),
        reference_axiom_L_term(a, b), reference_homomorphism_term(a, b, c),
        reference_break_free_split(a, b)]


# atoms that print_type cannot read back, and compound types over the
# template's own atoms, so that substituting type text, or one atom at a
# time, gives a different term
SPECIAL_TYPES = (A, B, C, Atom("?1"), Atom("let"), Arrow(A, C),
                 Tensor(C, Arrow(B, A)), Arrow(Tensor(A, A), C))


def type_triples():
    yield from ((A, B, C), (B, A, C), (C, A, B), (A, A, A),
                (Atom("?1"), Atom("let"), C), (Arrow(A, C), A, Tensor(C, B)))
    rng = random.Random(64)
    for _ in range(320):
        yield tuple(rng.choice(SPECIAL_TYPES) if rng.random() < 0.4
                    else random_type(rng, 3) for _ in range(3))


class TestAgainstReference:
    def test_equal_to_the_reference_builders(self):
        n = 0
        for a, b, c in type_triples():
            assert catalog_terms(a, b, c) == reference_catalog_terms(a, b, c)
            n += 1
        assert n >= 300

    @pytest.mark.parametrize("axiom", [AxiomId.B1, AxiomId.B5a, AxiomId.B5b])
    def test_missing_third_type_message(self, axiom):
        with pytest.raises(ValueError) as new:
            axiom_term(axiom, A, B)
        with pytest.raises(ValueError) as ref:
            reference_axiom_term(axiom, A, B)
        assert str(new.value) == str(ref.value) == \
            f"{axiom.value} needs a third type argument"
