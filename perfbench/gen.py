"""Inputs for the benchmark: a seeded generator of typable affine terms and the
three scaling families of the `chains` workload.

The generator is the benchmark's own (the test suite's generator rarely passes
200 nodes).  A term is a balanced pair-tree of random *parts* of 75-90 nodes
plus one fixed-shape gadget; all of them share one name counter, so every
binder and free name is distinct and the whole stays affine.  Parts are drawn
until their size, reduction length and translation size fall in a narrow
band, so that two seeds give inputs of nearly equal cost.
"""

from __future__ import annotations

import random

from breakcalc.catalog import identity_break
from breakcalc.lambda_pair import l_children, star_translate
from breakcalc.reduction import RuleName, StepBudgetExceeded, normalize
from breakcalc.syntax import (
    App, Arrow, Atom, Break, Lam, Let, Pair, Tensor, Term, TypeExpr, Var,
    ks_types, term_size,
)
from breakcalc.typecheck import check

ATOMS = (Atom("P1"), Atom("P2"), Atom("P3"))
A = Atom("A")

#: Every standard and permuting rule; the experimental b-l-conv is left out.
RULES = tuple(r for r in RuleName if r is not RuleName.B_L_CONV)

# Acceptance band for one random part: a small term is one part and the
# gadget, a large one twelve parts and the gadget.
PART_NODES = (75, 90)
PART_STEPS = (7, 12)
PART_IMAGE_NODES = 400
PARTS_PER_LARGE = 12
PART_BUDGET = 95
# Chance that a node uses a bound variable when one fits.
USE_BOUND = 0.3


def random_type(rng: random.Random, depth: int = 1) -> TypeExpr:
    if depth <= 0 or rng.random() < 0.5:
        return rng.choice(ATOMS)
    if rng.random() < 0.6:
        return Arrow(random_type(rng, depth - 1), random_type(rng, depth - 1))
    return Tensor(random_type(rng, depth - 1), random_type(rng, depth - 1))


class TermGen:
    """Type-directed, budget-driven generation of affine terms.

    A context entry goes to at most one child of every two-child node, so the
    result never contracts; a leaf with no matching context entry becomes a
    fresh free variable, so generation never fails.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.counter = 0

    def fresh(self, base: str) -> str:
        self.counter += 1
        return f"{base}{self.counter}"

    def _split(self, ctx: list) -> tuple[list, list]:
        left, right = [], []
        for entry in ctx:
            (left if self.rng.random() < 0.5 else right).append(entry)
        return left, right

    def _leaf(self, ty: TypeExpr, ctx: list) -> Term:
        for i, (name, t2) in enumerate(ctx):
            if t2 == ty:
                del ctx[i]
                return Var(name, ty)
        return Var(self.fresh("u"), ty)

    def _use(self, ty: TypeExpr, ctx: list, budget: int) -> Term | None:
        """Apply a context function whose codomain is ty, if there is one."""
        for i, (name, t2) in enumerate(ctx):
            if isinstance(t2, Arrow) and t2.cod == ty:
                del ctx[i]
                return App(Var(name, t2), self.term(t2.dom, ctx, budget - 2))
        return None

    def term(self, ty: TypeExpr, ctx: list, budget: int) -> Term:
        rng = self.rng
        if budget <= 2:
            return self._leaf(ty, ctx)
        if rng.random() < USE_BOUND:
            used = self._use(ty, ctx, budget)
            if used is not None:
                return used
            if any(t2 == ty for _, t2 in ctx):
                return self._leaf(ty, ctx)
        options = ["app", "let", "break"]
        if isinstance(ty, Arrow):
            options += ["lam"] * 3
        if isinstance(ty, Tensor):
            options += ["pair"] * 3
        opt = rng.choice(options)
        rest = budget - 1
        if opt == "lam":
            x = self.fresh("x")
            return Lam(x, ty.dom, self.term(ty.cod, ctx + [(x, ty.dom)], rest))
        if opt == "pair":
            c1, c2 = self._split(ctx)
            k = rng.randint(1, rest - 1)
            return Pair(self.term(ty.left, c1, k), self.term(ty.right, c2, rest - k))
        c1, c2 = self._split(ctx)
        k = rng.randint(1, max(1, rest // 2))
        if opt == "app":
            a = random_type(rng)
            return App(self.term(Arrow(a, ty), c1, rest - k), self.term(a, c2, k))
        if opt == "let":
            xt, yt = random_type(rng), random_type(rng)
            scrut = self.term(Tensor(xt, yt), c1, k)
            x, y = self.fresh("x"), self.fresh("y")
            body = self.term(ty, c2 + [(x, xt), (y, yt)], rest - k)
            return Let(x, xt, y, yt, scrut, body)
        sct, res = random_type(rng), random_type(rng)
        scrut = self.term(sct, c1, k)
        k_ty, s_ty = ks_types(sct, res)
        phi, f = self.fresh("q"), self.fresh("s")
        body = self.term(ty, c2 + [(phi, k_ty), (f, s_ty)], rest - k)
        return Break(scrut, phi, f, res, body)


def l_size(e) -> int:
    """Number of nodes of a lambda-pair term."""
    return 1 + sum(l_size(c) for c in l_children(e))


def _part(gen: TermGen) -> Term:
    """One typable affine term inside the part band."""
    while True:
        ty = Arrow(random_type(gen.rng), random_type(gen.rng))
        t = gen.term(ty, [], PART_BUDGET)
        if not PART_NODES[0] <= term_size(t) <= PART_NODES[1]:
            continue
        check(t)
        try:
            _, steps = normalize(t, max_steps=PART_STEPS[1])
        except StepBudgetExceeded:
            continue
        if len(steps) >= PART_STEPS[0] \
                and l_size(star_translate(t)) <= PART_IMAGE_NODES:
            return t


def _gadget(gen: TermGen) -> Term:
    """21 nodes with a redex of every standard and permuting rule:

        <(let <x, y> = (let <u, v> = p in q) in
          break c as <phi, f> @ A in \\z:A. z) d,
         let <x', y'> = (break e as <phi', f'> @ A in <a, b>) in <x', y'>>

    The first half fires ap-l-conv, l-l-conv, ap-b-conv, b-conv and beta;
    the second l-b-conv, b-conv and l-conv.  Every name is fresh.
    """
    f = gen.fresh
    t2 = Tensor(A, A)
    z = f("z")
    head = Let(f("x"), A, f("y"), A,
               Let(f("x"), A, f("y"), A, Var(f("u"), t2), Var(f("u"), t2)),
               Break(Var(f("u"), A), f("q"), f("s"), A, Lam(z, A, Var(z, A))))
    x, y = f("x"), f("y")
    split = Let(x, A, y, A,
                Break(Var(f("u"), A), f("q"), f("s"), A,
                      Pair(Var(f("u"), A), Var(f("u"), A))),
                Pair(Var(x, A), Var(y, A)))
    return Pair(App(head, Var(f("u"), A)), split)


def _pair_tree(parts: list[Term]) -> Term:
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    return Pair(_pair_tree(parts[:mid]), _pair_tree(parts[mid:]))


def random_terms(seed: int, small: int, large: int) -> tuple[list[Term], list[Term]]:
    """`small` terms of about 100 nodes and `large` of about 1,000 nodes.

    A term is a pair-tree of random parts and one gadget, so it uses all six
    constructors and has a redex of every standard and permuting rule.  The
    same seed gives the same terms.
    """
    gen = TermGen(random.Random(seed))

    def draw(n_parts: int) -> Term:
        return _pair_tree([_part(gen) for _ in range(n_parts)] + [_gadget(gen)])

    return ([draw(1) for _ in range(small)],
            [draw(PARTS_PER_LARGE) for _ in range(large)])


# ---------------------------------------------------------------------------
# Scaling families of the `chains` workload (no randomness)
# ---------------------------------------------------------------------------

def identity_chain(n: int) -> Term:
    """(\\x0:A. x0) ((\\x1:A. x1) (... (w : A))): n beta steps to (w : A)."""
    t: Term = Var("w", A)
    for i in reversed(range(n)):
        t = App(Lam(f"x{i}", A, Var(f"x{i}", A)), t)
    return t


def break_chain(n: int) -> Term:
    """I (I (... (\\w:A. w))) with I the break identity at A -> A: 4n steps."""
    ident = identity_break(Arrow(A, A))
    t: Term = Lam("w", A, Var("w", A))
    for _ in range(n):
        t = App(ident, t)
    return t


def permuting_chain(n: int) -> Term:
    """A balanced pair-tree of n blocks, block k being

        (let <x, y> = (let <u, v> = (p : A * A) in (q : A * A)) in
         break (c : A) as <phi, f> @ A in (g : A -> A)) (d : A)

    Each block fires ap-l-conv, l-l-conv, ap-b-conv and b-conv once, 4n steps
    in all, and ends as let <u, v> = p in let <x, y> = q in g d.  The tree
    keeps the nesting depth at log n, so every step walks a term of the same
    order of size without deep recursion.
    """
    t2 = Tensor(A, A)
    blocks = []
    for k in range(n):
        head = Let(f"x{k}", A, f"y{k}", A,
                   Let(f"u{k}", A, f"v{k}", A, Var(f"p{k}", t2), Var(f"q{k}", t2)),
                   Break(Var(f"c{k}", A), f"phi{k}", f"f{k}", A,
                         Var(f"g{k}", Arrow(A, A))))
        blocks.append(App(head, Var(f"d{k}", A)))
    return _pair_tree(blocks)
