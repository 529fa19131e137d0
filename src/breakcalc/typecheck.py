"""Church-style type checking, type erasure, and principal type inference.

The checking context is implicit: the free variables of a term, with their
annotations, form its context.  Two-premise rules demand disjoint used-variable
sets, which is what makes every typable term affine.  check and
infer_principal test this first: the canonicity walk in syntax finds
contraction, and only a term that contracts is walked again to name it.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

from .syntax import (
    App, Arrow, Atom, Break, DistinctBinders, IllFormedTermError, Lam, Let,
    Node, Pair, Tensor, Term, TypeExpr, Var, _canonical_names, _remember_last,
    constructor, canonical_contraction, first_contraction, ks_types, print_type,
)


class TypeCheckError(Exception):
    pass


class TypeMismatch(TypeCheckError):
    """`expected` is a type, or a description of the types expected."""

    def __init__(self, expected: TypeExpr | str, found: TypeExpr,
                 path: tuple[int, ...]):
        self.expected = expected
        self.found = found
        self.path = path
        if not isinstance(expected, str):
            expected = print_type(expected)
        super().__init__(f"type mismatch at {list(path)}: expected "
                         f"{expected}, found {print_type(found)}")


class AffinityViolation(TypeCheckError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"variable {name!r} used more than once")


class UnificationFailure(TypeCheckError):
    def __init__(self, left: TypeExpr, right: TypeExpr, path: tuple[int, ...]):
        self.left = left
        self.right = right
        self.path = path
        super().__init__(
            f"cannot unify {print_type(left)} with {print_type(right)} at "
            f"{list(path)}")


class OccursCheck(TypeCheckError):
    def __init__(self, var: str, ty: TypeExpr, path: tuple[int, ...]):
        self.var = var
        self.ty = ty
        self.path = path
        super().__init__(
            f"occurs check: {var} in {print_type(ty)} at {list(path)}")


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------

@_remember_last
def check(t: Term) -> TypeExpr:
    """Unique type of t, or raise.

    Rejects contraction (a name used in both premises of a two-premise rule)
    before anything else, then validates annotations against binders and
    rejects a free name occurring at two types.  A repeated call on the
    same object (`is`) as one of the last two reuses its result, as
    nd_to_sequent does; a failing one raises again.
    """
    t, names = _canonical_names(t)
    if names is None:
        raise AffinityViolation(canonical_contraction(t))
    return _check(t, {}, (), {})


def _check(t: Term, env: dict[str, TypeExpr], path: tuple[int, ...],
           free_seen: dict[str, TypeExpr]) -> TypeExpr:
    """The type of a canonical t, where env types each binder met so far:
    none shadows another, so env only grows."""
    match t:
        case Var(name, ty):
            if name in env:
                if env[name] != ty:
                    raise TypeMismatch(env[name], ty, path)
            else:
                seen = free_seen.get(name)
                if seen is not None and seen != ty:
                    raise IllFormedTermError(
                        f"variable {name!r} used at two types")
                free_seen[name] = ty
            return ty
        case Lam(b, bt, body):
            env[b] = bt
            return Arrow(bt, _check(body, env, path + (0,), free_seen))
        case App(fun, arg):
            fty = _check(fun, env, path + (0,), free_seen)
            aty = _check(arg, env, path + (1,), free_seen)
            if not isinstance(fty, Arrow):
                raise TypeMismatch("a function type", fty, path + (0,))
            if fty.dom != aty:
                raise TypeMismatch(fty.dom, aty, path + (1,))
            return fty.cod
        case Pair(a, b):
            return Tensor(_check(a, env, path + (0,), free_seen),
                          _check(b, env, path + (1,), free_seen))
        case Let(x, xt, y, yt, scrut, body):
            sty = _check(scrut, env, path + (0,), free_seen)
            if sty != Tensor(xt, yt):
                raise TypeMismatch(Tensor(xt, yt), sty, path + (0,))
            env[x], env[y] = xt, yt
            return _check(body, env, path + (1,), free_seen)
        case Break(scrut, phi, f, residue, body):
            sty = _check(scrut, env, path + (0,), free_seen)
            env[phi], env[f] = ks_types(sty, residue)
            return _check(body, env, path + (1,), free_seen)
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Untyped terms and erasure
# ---------------------------------------------------------------------------

class UntypedTerm(Node):
    __slots__ = ()


@constructor("v", var="name")
class UVar(UntypedTerm, namedtuple("UVar", "name")):
    __slots__ = ()


@constructor("l", kids=("body",), binders=("binder",), over="body")
class ULam(UntypedTerm, namedtuple("ULam", "binder body")):
    __slots__ = ()


@constructor("a", kids=("fun", "arg"))
class UApp(UntypedTerm, namedtuple("UApp", "fun arg")):
    __slots__ = ()


@constructor("p", kids=("first", "second"))
class UPair(UntypedTerm, namedtuple("UPair", "first second")):
    __slots__ = ()


@constructor("L", kids=("scrutinee", "body"), binders=("x", "y"),
             over="body")
class ULet(UntypedTerm, DistinctBinders,
           namedtuple("ULet", "x y scrutinee body")):
    __slots__ = ()


@constructor("B", kids=("scrutinee", "body"), binders=("phi", "f"),
             over="body")
class UBreak(UntypedTerm, DistinctBinders,
             namedtuple("UBreak", "scrutinee phi f body")):
    __slots__ = ()


def erase(t: Term) -> UntypedTerm:
    """Drop every annotation, keeping the term shape."""
    match t:
        case Var(name, _):
            return UVar(name)
        case Lam(b, _, body):
            return ULam(b, erase(body))
        case App(fun, arg):
            return UApp(erase(fun), erase(arg))
        case Pair(a, b):
            return UPair(erase(a), erase(b))
        case Let(x, _, y, _, scrut, body):
            return ULet(x, y, erase(scrut), erase(body))
        case Break(scrut, phi, f, _, body):
            return UBreak(erase(scrut), phi, f, erase(body))
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Principal type inference
# ---------------------------------------------------------------------------

class TypeScheme(NamedTuple):
    """A most general type: body plus the atoms standing for unification variables."""

    body: TypeExpr
    variables: frozenset[str] = frozenset()


_SCHEME_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class _Inferencer:
    def __init__(self) -> None:
        self.counter = 0
        self.sub: dict[str, TypeExpr] = {}

    def fresh(self) -> Atom:
        self.counter += 1
        return Atom(f"?{self.counter}")

    def resolve(self, ty: TypeExpr) -> TypeExpr:
        while isinstance(ty, Atom) and ty.name in self.sub:
            ty = self.sub[ty.name]
        return ty

    def occurs(self, name: str, ty: TypeExpr) -> bool:
        ty = self.resolve(ty)
        if type(ty) is Atom:
            return ty.name == name
        return any(self.occurs(name, part) for part in ty)

    def unify(self, a: TypeExpr, b: TypeExpr, path: tuple[int, ...]) -> None:
        a, b = self.resolve(a), self.resolve(b)
        if a is b:
            return
        for var, ty in ((a, b), (b, a)):
            if type(var) is Atom and var.name.startswith("?"):
                if self.occurs(var.name, ty):
                    raise OccursCheck(var.name, ty, path)
                self.sub[var.name] = ty
                return
        if type(a) is not type(b) or type(a) is Atom:
            raise UnificationFailure(a, b, path)
        for x, y in zip(a, b):
            self.unify(x, y, path)

    def walk(self, u: UntypedTerm, env: dict[str, TypeExpr],
             free: dict[str, TypeExpr], path: tuple[int, ...]) -> TypeExpr:
        match u:
            case UVar(name):
                if name in env:
                    return env[name]
                return free.setdefault(name, self.fresh())
            case ULam(b, body):
                a = self.fresh()
                r = self.walk(body, env | {b: a}, free, path + (0,))
                return Arrow(a, r)
            case UApp(fun, arg):
                ft = self.walk(fun, env, free, path + (0,))
                at = self.walk(arg, env, free, path + (1,))
                res = self.fresh()
                self.unify(ft, Arrow(at, res), path)
                return res
            case UPair(a, b):
                return Tensor(self.walk(a, env, free, path + (0,)),
                              self.walk(b, env, free, path + (1,)))
            case ULet(x, y, scrut, body):
                st = self.walk(scrut, env, free, path + (0,))
                xa, yb = self.fresh(), self.fresh()
                self.unify(st, Tensor(xa, yb), path + (0,))
                return self.walk(body, env | {x: xa, y: yb}, free, path + (1,))
            case UBreak(scrut, phi, f, body):
                alpha = self.walk(scrut, env, free, path + (0,))
                kty, sty = ks_types(alpha, self.fresh())
                return self.walk(body, env | {phi: kty, f: sty}, free,
                                 path + (1,))
        raise TypeError(f"not an untyped term: {u!r}")


def infer_principal(u: UntypedTerm) -> TypeScheme:
    """Most general type of an affine untyped term via first-order unification.

    A break introduces fresh scrutinee and residue variables a, b with
    phi : (a -> b) -> b and f : b -> a.
    """
    name = first_contraction(u)
    if name is not None:
        raise AffinityViolation(name)
    inf = _Inferencer()
    return _canonical_scheme(inf.walk(u, {}, {}, ()), inf.resolve)


def _canonical_scheme(ty: TypeExpr, resolve) -> TypeScheme:
    """ty resolved node by node (resolve), with the unification variables
    left over renamed to a, b, c, ... in occurrence order."""
    mapping: dict[str, Atom] = {}

    def name_for(i: int) -> str:
        if i < len(_SCHEME_LETTERS):
            return _SCHEME_LETTERS[i]
        return f"{_SCHEME_LETTERS[i % 26]}{i // 26}"

    def go(ty: TypeExpr) -> TypeExpr:
        ty = resolve(ty)
        if type(ty) is not Atom:
            return type(ty)(*map(go, ty))
        n = ty.name
        if n.startswith("?"):
            if n not in mapping:
                mapping[n] = Atom(name_for(len(mapping)))
            return mapping[n]
        return ty

    body = go(ty)
    return TypeScheme(body, frozenset(a.name for a in mapping.values()))


def scheme_admits(scheme: TypeScheme, ty: TypeExpr) -> bool:
    """True if ty is a substitution instance of the scheme."""
    binding: dict[str, TypeExpr] = {}

    def match(pat: TypeExpr, ty: TypeExpr) -> bool:
        if type(pat) is not Atom:
            return type(pat) is type(ty) and all(map(match, pat, ty))
        n = pat.name
        if n not in scheme.variables:
            return pat is ty
        return binding.setdefault(n, ty) is ty

    return match(scheme.body, ty)
