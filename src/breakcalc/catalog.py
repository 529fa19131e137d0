"""Catalog of notable proof terms, parameterized by type arguments.

Each term is closed, affine and well typed: the six axiom inhabitants of
minimal Lukasiewicz logic, the break-based identity, the divisibility pair,
axiom L of the hoop literature, the idempotent-element homomorphism witness,
and the break-free splitting term.  Each is written once, as a template in
concrete syntax, in one of two tables: AXIOMS, by AxiomId, and NAMED, by the
name the CLI's catalog subcommand takes.  An entry is the atoms its template
takes, in order ("ABC" for B1, "A" for the identity), and the template;
`instance` puts the caller's types in place of those atoms.  The builders
and both CLI subcommands read these tables.
"""

from __future__ import annotations

import enum

from .parser import parse_term
from .syntax import SPECS, Atom, Term, TypeExpr


class AxiomId(str, enum.Enum):
    B1 = "B1"
    B2 = "B2"
    B3 = "B3"
    B4 = "B4"
    B5a = "B5a"
    B5b = "B5b"


def instance(entry: tuple[str, str], *types: TypeExpr) -> Term:
    """The entry's template, parsed, with types in place of its atoms, in
    order, all at once and in every annotation; extra types are ignored."""
    atoms, text = entry
    sub = dict(zip(atoms, types))

    def ty(t: TypeExpr) -> TypeExpr:
        if type(t) is Atom:
            return sub.get(t.name, t)
        return type(t)(*map(ty, t))

    def term(t: Term) -> Term:
        sp = SPECS[type(t)]
        fields = list(t)
        for i in sp.kid_slots:
            fields[i] = term(fields[i])
        for i in sp.annot_slots:
            fields[i] = ty(fields[i])
        return sp.cls(*fields)

    return term(parse_term(text))


AXIOMS: dict[AxiomId, tuple[str, str]] = {
    # (A -> B) -> (B -> C) -> A -> C
    AxiomId.B1: ("ABC", r"\f:A -> B. \g:B -> C. \x:A. g (f x)"),
    # A * B -> A
    AxiomId.B2: ("AB", r"\v:A * B. let <x:A, y:B> = v in x"),
    # A * B -> B * A
    AxiomId.B3: ("AB", r"\v:A * B. let <x:A, y:B> = v in <y, x>"),
    # A * (A -> B) -> B * (B -> A)
    AxiomId.B4: ("AB", r"""\v:A * (A -> B). let <x:A, f:A -> B> = v in
                           break x as <phi, g> @ B in <phi f, g>"""),
    # (A * B -> C) -> A -> B -> C
    AxiomId.B5a: ("ABC", r"\f:A * B -> C. \x:A. \y:B. f <x, y>"),
    # (A -> B -> C) -> A * B -> C
    AxiomId.B5b: ("ABC",
                  r"\g:A -> B -> C. \a:A * B. let <x:A, y:B> = a in g x y"),
}

_DIVISIBILITY_T = r"\x:A. break x as <phi, f> @ B in \g:A -> B. <phi g, f>"

NAMED: dict[str, tuple[str, str]] = {
    # A -> A, normal, through a break
    "identity": ("A", r"\x:A. break x as <phi, f> @ A in phi f"),
    # A -> (A -> B) -> B * (B -> A), normal
    "divisibility-t": ("AB", _DIVISIBILITY_T),
    # A -> (A -> B) -> B: applies t and normalizes to \x'. \g'. g' x'
    "divisibility-u": ("AB", rf"""\x':A. \g':A -> B.
        let <m:B, n:B -> A> = ({_DIVISIBILITY_T}) x' g' in m"""),
    # axiom L: ((B -> A) -> A -> B) -> A -> B
    "axiom-l": ("AB", r"""\D:(B -> A) -> A -> B. \x:A.
        break x as <phi, f> @ B in phi (D f)"""),
    # (A -> A * A) -> (A -> B * C) -> (A -> B) * (A -> C): mapping out of
    # an idempotent element splits pairs.  Two nested breaks and a third
    # inside the repackaging function, with pair projections spelled out
    # as lets
    "homomorphism": ("ABC", r"""
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
                  let <i0:A -> B, j0:A -> C> = v1 in j0) (u0 v2))))"""),
    # (A * (A -> K) -> K * (K -> A)) -> A -> K * (B -> A), K = (A -> B) -> B:
    # A split into its two break components without a break node, given
    # the divisibility axiom for the residue instance as a hypothesis
    "break-free-split": ("AB", r"""
        \b4:A * (A -> (A -> B) -> B)
              -> ((A -> B) -> B) * (((A -> B) -> B) -> A).
        \x:A. let <phi:(A -> B) -> B, h:((A -> B) -> B) -> A> =
                     b4 <x, \a0:A. \p:A -> B. p a0>
              in <phi, \b0:B. h (\g0:A -> B. b0)>"""),
}


def axiom_term(axiom: AxiomId, a: TypeExpr, b: TypeExpr,
               c: TypeExpr | None = None) -> Term:
    """Closed inhabitant of the given axiom; one whose template takes C
    (B1, B5a and B5b) requires c."""
    axiom = AxiomId(axiom)
    entry = AXIOMS[axiom]
    if c is None and "C" in entry[0]:
        raise ValueError(f"{axiom.value} needs a third type argument")
    return instance(entry, a, b, c)


def identity_break(a: TypeExpr) -> Term:
    """Normal-form identity that routes through a break: a -> a."""
    return instance(NAMED["identity"], a)


def divisibility_terms(a: TypeExpr, b: TypeExpr) -> tuple[Term, Term]:
    """The divisibility inhabitant t and the first-projection wrapper u."""
    return (instance(NAMED["divisibility-t"], a, b),
            instance(NAMED["divisibility-u"], a, b))


def axiom_L_term(a: TypeExpr, b: TypeExpr) -> Term:
    """Axiom L: ((b -> a) -> a -> b) -> a -> b."""
    return instance(NAMED["axiom-l"], a, b)


def homomorphism_term(a: TypeExpr, b: TypeExpr, c: TypeExpr) -> Term:
    """(a -> a * a) -> (a -> b * c) -> (a -> b) * (a -> c)."""
    return instance(NAMED["homomorphism"], a, b, c)


def break_free_split(a: TypeExpr, b: TypeExpr) -> Term:
    """The break-free split of a, K = (a -> b) -> b:
    (a * (a -> K) -> K * (K -> a)) -> a -> K * (b -> a)."""
    return instance(NAMED["break-free-split"], a, b)
