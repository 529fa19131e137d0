"""Catalog of notable proof terms, parameterized by type arguments.

Each constructor returns a closed, affine, well-typed term: the six axiom
inhabitants of minimal Lukasiewicz logic, the break-based identity, the
divisibility pair, axiom L of the hoop literature, the idempotent-element
homomorphism witness, and the break-free splitting term.  Each term is
written once, as a template in concrete syntax over the atoms A, B and C,
and instantiated at the caller's types.
"""

from __future__ import annotations

import enum

from .parser import parse_term
from .syntax import App, Atom, Break, Lam, Let, Pair, Term, TypeExpr, Var


class AxiomId(str, enum.Enum):
    B1 = "B1"
    B2 = "B2"
    B3 = "B3"
    B4 = "B4"
    B5a = "B5a"
    B5b = "B5b"


def _instance(text: str, *types: TypeExpr) -> Term:
    """The template text, parsed, with types in place of the atoms A, B, C,
    in that order, all at once and in every annotation."""
    sub = dict(zip("ABC", types))

    def ty(t: TypeExpr) -> TypeExpr:
        if isinstance(t, Atom):
            return sub.get(t.name, t)
        return type(t)(*map(ty, t))

    def term(t: Term) -> Term:
        match t:
            case Var(name, a):
                return Var(name, ty(a))
            case Lam(x, a, body):
                return Lam(x, ty(a), term(body))
            case App(fun, arg):
                return App(term(fun), term(arg))
            case Pair(first, second):
                return Pair(term(first), term(second))
            case Let(x, a, y, b, scrut, body):
                return Let(x, ty(a), y, ty(b), term(scrut), term(body))
            case Break(scrut, phi, f, residue, body):
                return Break(term(scrut), phi, f, ty(residue), term(body))
        raise TypeError(f"not a term: {t!r}")

    return term(parse_term(text))


_AXIOMS = {
    # (A -> B) -> (B -> C) -> A -> C
    AxiomId.B1: r"\f:A -> B. \g:B -> C. \x:A. g (f x)",
    # A * B -> A
    AxiomId.B2: r"\v:A * B. let <x:A, y:B> = v in x",
    # A * B -> B * A
    AxiomId.B3: r"\v:A * B. let <x:A, y:B> = v in <y, x>",
    # A * (A -> B) -> B * (B -> A)
    AxiomId.B4: r"""\v:A * (A -> B). let <x:A, f:A -> B> = v in
                    break x as <phi, g> @ B in <phi f, g>""",
    # (A * B -> C) -> A -> B -> C
    AxiomId.B5a: r"\f:A * B -> C. \x:A. \y:B. f <x, y>",
    # (A -> B -> C) -> A * B -> C
    AxiomId.B5b: r"\g:A -> B -> C. \a:A * B. let <x:A, y:B> = a in g x y",
}


def axiom_term(axiom: AxiomId, a: TypeExpr, b: TypeExpr,
               c: TypeExpr | None = None) -> Term:
    """Closed inhabitant of the given axiom; B1, B5a and B5b require c."""
    axiom = AxiomId(axiom)
    if axiom in (AxiomId.B1, AxiomId.B5a, AxiomId.B5b) and c is None:
        raise ValueError(f"{axiom.value} needs a third type argument")
    return _instance(_AXIOMS[axiom], a, b, c)


def identity_break(a: TypeExpr) -> Term:
    """Normal-form identity that routes through a break: a -> a."""
    return _instance(r"\x:A. break x as <phi, f> @ A in phi f", a)


_DIVISIBILITY_T = r"\x:A. break x as <phi, f> @ B in \g:A -> B. <phi g, f>"


def divisibility_terms(a: TypeExpr, b: TypeExpr) -> tuple[Term, Term]:
    """The divisibility inhabitant t and the first-projection wrapper u.

    t : a -> (a -> b) -> b * (b -> a) is normal; u : a -> (a -> b) -> b
    applies t and normalizes to \\x'. \\g'. g' x'.
    """
    u = rf"""\x':A. \g':A -> B.
             let <m:B, n:B -> A> = ({_DIVISIBILITY_T}) x' g' in m"""
    return _instance(_DIVISIBILITY_T, a, b), _instance(u, a, b)


def axiom_L_term(a: TypeExpr, b: TypeExpr) -> Term:
    """Axiom L: ((b -> a) -> a -> b) -> a -> b."""
    return _instance(
        r"\D:(B -> A) -> A -> B. \x:A. break x as <phi, f> @ B in phi (D f)",
        a, b)


def homomorphism_term(a: TypeExpr, b: TypeExpr, c: TypeExpr) -> Term:
    """Witness that mapping out of an idempotent element splits pairs:

    (a -> a * a) -> (a -> b * c) -> (a -> b) * (a -> c)

    Assembled from two nested breaks and a third break inside the repackaging
    function, with pair projections spelled out as lets.
    """
    return _instance(r"""
        \alpha:A -> A * A. \h:A -> B * C.
        break h as <phi, f> @ A -> B in
        break (\q:(A -> B) -> (A -> B) * (A -> C).
                 q (phi (\m:A -> B * C. \x0:A.
                           (\v0:B * C. let <b0:B, c0:C> = v0 in b0) (m x0))))
          as <psi, g> @ ((A -> B) -> (A -> B) * (A -> C)) -> A -> C in
        (\i:A -> C. break i as <eta, k> @ (A -> B) -> (A -> B) * (A -> C) in
           g k (eta (\vc:A -> C. \ub:A -> B. <ub, vc>)))
        ((\p:((A -> B) -> (A -> B) * (A -> C)) -> A -> C. \y0:A.
            let <y2:A, y3:A> = alpha y0 in
            p (\j:A -> B. let <x1:B, y1:C> = f j y2 in
                 <\zb:A. x1, \zc:A. y1>) y3)
         (psi (\u0:((A -> B) -> (A -> B) * (A -> C)) -> (A -> B) * (A -> C).
               \v2:(A -> B) -> (A -> B) * (A -> C).
               (\v1:(A -> B) * (A -> C).
                  let <i0:A -> B, j0:A -> C> = v1 in j0) (u0 v2))))""",
        a, b, c)


def break_free_split(a: TypeExpr, b: TypeExpr) -> Term:
    """Split a into its two break components without a break node, given the
    divisibility axiom for the residue instance as a hypothesis.

    Type: (a * (a -> K) -> K * (K -> a)) -> a -> K * (b -> a), K = (a -> b) -> b.
    """
    return _instance(r"""
        \b4:A * (A -> (A -> B) -> B)
              -> ((A -> B) -> B) * (((A -> B) -> B) -> A).
        \x:A. let <phi:(A -> B) -> B, h:((A -> B) -> B) -> A> =
                     b4 <x, \a0:A. \p:A -> B. p a0>
              in <phi, \b0:B. h (\g0:A -> B. b0)>""", a, b)
