"""Random well-typed term generation for the property suites.

Generation is type directed and affine by construction: a context entry is
handed to exactly one branch of every two-premise construct.  Open-term
generation may invent fresh free variables, so it never fails; closed-term
generation retries with a different target type when a branch dies out.
"""

from __future__ import annotations

import random

from breakcalc.syntax import (
    SPECS, App, Arrow, Atom, Break, Lam, Let, Pair, Term, Tensor, TypeExpr,
    Var, all_names, annotated_type, free_names, fresh_name, ks_types,
    term_size,
)
from breakcalc.reduction import normalize

ATOMS = (Atom("P1"), Atom("P2"), Atom("P3"))

Ctx = list  # list of (name, TypeExpr), each usable at most once


def random_type(rng: random.Random, depth: int = 2) -> TypeExpr:
    if depth <= 0 or rng.random() < 0.42:
        return rng.choice(ATOMS)
    if rng.random() < 0.62:
        return Arrow(random_type(rng, depth - 1), random_type(rng, depth - 1))
    return Tensor(random_type(rng, depth - 1), random_type(rng, depth - 1))


class TermGen:
    def __init__(self, rng: random.Random, allow_free: bool = True):
        self.rng = rng
        self.allow_free = allow_free
        self.counter = 0

    def fresh(self, base: str) -> str:
        self.counter += 1
        return f"{base}{self.counter}"

    def _split(self, ctx: Ctx) -> tuple[Ctx, Ctx]:
        left, right = [], []
        for entry in ctx:
            (left if self.rng.random() < 0.5 else right).append(entry)
        return left, right

    def gen(self, target: TypeExpr, ctx: Ctx, fuel: int) -> Term | None:
        rng = self.rng
        options = ["var"]
        if self.allow_free:
            options.append("free")
        if isinstance(target, Arrow):
            options += ["lam", "lam"]
        if isinstance(target, Tensor):
            options += ["pair", "pair"]
        if fuel > 0:
            options += ["app", "let", "break"]
        rng.shuffle(options)
        for opt in options:
            t = self._try(opt, target, ctx, fuel)
            if t is not None:
                return t
        return None

    def _try(self, opt: str, target: TypeExpr, ctx: Ctx,
             fuel: int) -> Term | None:
        rng = self.rng
        if opt == "var":
            matches = [(n, ty) for n, ty in ctx if ty == target]
            if not matches:
                return None
            name, ty = rng.choice(matches)
            return Var(name, ty)
        if opt == "free":
            return Var(self.fresh("fv"), target)
        if opt == "lam":
            assert isinstance(target, Arrow)
            x = self.fresh("v")
            body = self.gen(target.cod, ctx + [(x, target.dom)], fuel - 1)
            return None if body is None else Lam(x, target.dom, body)
        if opt == "pair":
            assert isinstance(target, Tensor)
            c1, c2 = self._split(ctx)
            a = self.gen(target.left, c1, fuel - 1)
            if a is None:
                return None
            b = self.gen(target.right, c2, fuel - 1)
            return None if b is None else Pair(a, b)
        if opt == "app":
            arg_ty = (rng.choice(ctx)[1] if ctx and rng.random() < 0.5
                      else random_type(rng, 1))
            c1, c2 = self._split(ctx)
            fun = self.gen(Arrow(arg_ty, target), c1, fuel // 2)
            if fun is None:
                return None
            arg = self.gen(arg_ty, c2, fuel // 2)
            return None if arg is None else App(fun, arg)
        if opt == "let":
            xt, yt = random_type(rng, 1), random_type(rng, 1)
            c1, c2 = self._split(ctx)
            scrut = self.gen(Tensor(xt, yt), c1, fuel // 2)
            if scrut is None:
                return None
            x, y = self.fresh("v"), self.fresh("v")
            body = self.gen(target, c2 + [(x, xt), (y, yt)], fuel - 1)
            return None if body is None else Let(x, xt, y, yt, scrut, body)
        if opt == "break":
            sct, res = random_type(rng, 1), random_type(rng, 1)
            c1, c2 = self._split(ctx)
            scrut = self.gen(sct, c1, fuel // 2)
            if scrut is None:
                return None
            k, s = ks_types(sct, res)
            phi, f = self.fresh("q"), self.fresh("s")
            body = self.gen(target, c2 + [(phi, k), (f, s)], fuel - 1)
            return None if body is None else Break(scrut, phi, f, res, body)
        raise AssertionError(opt)

    def wrap_redexes(self, t: Term, target: TypeExpr, rounds: int) -> Term:
        """Stack constructs around t that keep its type but add redexes."""
        rng = self.rng
        for _ in range(rounds):
            kind = rng.choice(["beta", "let", "break"])
            if kind == "beta":
                arg_ty = random_type(rng, 1)
                arg = self.gen(arg_ty, [], 2)
                if arg is None:
                    continue
                z = self.fresh("w")
                t = App(Lam(z, arg_ty, t), arg)
            elif kind == "let":
                xt, yt = random_type(rng, 1), random_type(rng, 1)
                scrut = (Pair(self.gen(xt, [], 2) or Var(self.fresh("fv"), xt),
                              self.gen(yt, [], 2) or Var(self.fresh("fv"), yt))
                         if rng.random() < 0.7 or not self.allow_free
                         else Var(self.fresh("fv"), Tensor(xt, yt)))
                x, y = self.fresh("w"), self.fresh("w")
                t = Let(x, xt, y, yt, scrut, t)
            else:
                sct = random_type(rng, 1)
                scrut = self.gen(sct, [], 2)
                if scrut is None:
                    continue
                phi, f = self.fresh("q"), self.fresh("s")
                t = Break(scrut, phi, f, random_type(rng, 1), t)
        return t


def random_typable_term(rng: random.Random, max_size: int = 40) -> Term:
    """An open, affine, well-typed term with a sprinkling of redexes."""
    while True:
        t = _draw(TermGen(rng, allow_free=True), max_size)
        if t is not None:
            return t


def _draw(gen: TermGen, max_size: int) -> Term | None:
    rng = gen.rng
    target = random_type(rng, 2)
    t = gen.gen(target, [], rng.randint(2, 6))
    if t is None:
        return None
    t = gen.wrap_redexes(t, target, rng.randint(0, 3))
    return t if term_size(t) <= max_size else None


def random_large_term(rng: random.Random, min_size: int) -> Term:
    """An open, affine, well-typed term of at least min_size nodes.

    It is a balanced pair-tree of random_typable_term draws with redexes
    stacked around the whole.  All parts share one name counter, so no two
    of them share a binder or a free name and the whole stays affine.
    """
    gen = TermGen(rng, allow_free=True)
    parts: list[Term] = []
    size = 0
    while size < min_size:
        t = _draw(gen, 40)
        if t is not None:
            parts.append(t)
            size += term_size(t)
    while len(parts) > 1:
        parts = [Pair(*parts[i:i + 2]) if i + 1 < len(parts) else parts[i]
                 for i in range(0, len(parts), 2)]
    return gen.wrap_redexes(parts[0], annotated_type(parts[0]), 3)


def random_closed_term(rng: random.Random, max_size: int = 20,
                       attempts: int = 200) -> Term:
    """A closed, affine, well-typed term; the target type is chosen inhabited."""
    for _ in range(attempts):
        gen = TermGen(rng, allow_free=False)
        # arrow-shaped targets are the reliably inhabited ones
        target = Arrow(random_type(rng, 1), random_type(rng, 1))
        t = gen.gen(target, [], rng.randint(2, 5))
        if t is not None and term_size(t) <= max_size:
            return t
    raise RuntimeError("closed-term generation starved")


def random_closed_normal_term(rng: random.Random, max_size: int = 20) -> Term:
    t = random_closed_term(rng, max_size)
    nf, _ = normalize(t)
    return nf


def clashing_copy(t, rng: random.Random, keep: frozenset[str] = frozenset()):
    """An alpha-equivalent copy of t whose binders reuse t's names.

    Each binder is renamed, with probability 0.7, to a name drawn from every
    name in t: an outer or sibling binder's name, or a free name used
    elsewhere.  A name that would capture a free name of the binder's scope
    is never drawn, the two binders of one node stay distinct (the let and
    break constructors require it), and a binder that cannot keep its name
    gets a primed one.  Binders named in keep keep their names, and no other
    binder takes one.  Serves every term family.
    """
    pool = sorted(all_names(t) - keep)
    avoid = all_names(t)

    def go(t, ren: dict[str, str]):
        sp = SPECS[type(t)]
        vals = list(t)
        if sp.var is not None:
            (i,) = sp.name_slots
            vals[i] = ren.get(vals[i], vals[i])
            return type(t)(*vals)
        bound = sp.binders(t)
        for k, (slot, c) in enumerate(zip(sp.kid_slots, sp.kids(t))):
            if k != sp.scope:
                vals[slot] = go(c, ren)
                continue
            # what the scope's free names become: a binder named so captures
            taken = {ren.get(n, n) for n in free_names(c).difference(bound)}
            names: list[str] = []
            for b in bound:
                n = b
                if b not in keep and rng.random() < 0.7:
                    n = rng.choice(pool)
                if n in taken or n in names:
                    n = fresh_name(b, avoid | taken | set(names))
                names.append(n)
            for slot_b, n in zip(sp.name_slots, names):
                vals[slot_b] = n
            vals[slot] = go(c, ren | dict(zip(bound, names)))
        return type(t)(*vals)

    return go(t, {})
