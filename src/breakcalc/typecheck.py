"""Church-style type checking, type erasure, and principal type inference.

Checking and inference are one walk, _Checker.type_of, with one case per
constructor tag that Term and UntypedTerm share.  Inference is checking in
which each annotation is a fresh unification variable and types that meet
are unified.  The free variables of a term, with their annotations, form its
context.  Two-premise rules demand disjoint used-variable sets, so every
typable term is affine; both modes test this first, on the canonical names
(see syntax._canonical_names), and then type the canonical term, in which no
binder shadows another or a free name, so one environment only grows.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

from .syntax import (
    SPECS, Arrow, Atom, DistinctBinders, Node, Tensor, Term, TypeExpr,
    _canonical_names, _remember_last, constructor, canonical_contraction,
    ks_types, print_type,
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


#: For each Term class, the UntypedTerm class with its tag, and for each field
#: of that class, the slot of the Term field of that name and if it is a child.
_ERASURES = {
    t: (u, tuple((i, i in st.kid_slots)
                 for i in map(t._fields.index, u._fields)))
    for t, st in SPECS.items() if issubclass(t, Term)
    for u, su in SPECS.items()
    if issubclass(u, UntypedTerm) and su.tag == st.tag}


def erase(t: Term) -> UntypedTerm:
    """Drop every annotation, keeping the term shape."""
    if type(t) not in _ERASURES:
        raise TypeError(f"not a term: {t!r}")
    cls, fields = _ERASURES[type(t)]
    return cls(*[erase(t[i]) if kid else t[i] for i, kid in fields])


# ---------------------------------------------------------------------------
# Checking and inference
# ---------------------------------------------------------------------------

class _Checker:
    """The typing rules, one case per constructor tag (type_of), with
    checking's answers where inference differs: annots(t, n), the types of
    t's n annotations; apply(fun_type, arg_type, path), an application's
    type; and meet(found, expected, path), where two types must be one.
    env types each bound variable met so far."""

    family, noun = Term, "a term"

    def __init__(self) -> None:
        self.env: dict[str, TypeExpr] = {}

    def typed(self, t) -> TypeExpr:
        """The type of t, after rejecting contraction."""
        if not isinstance(t, self.family):
            raise TypeError(f"not {self.noun}: {t!r}")
        t, names = _canonical_names(t)
        if names is None:
            raise AffinityViolation(canonical_contraction(t))
        return self.type_of(t, ())

    def type_of(self, t, path: tuple[int, ...]) -> TypeExpr:
        sp = SPECS[type(t)]
        tag = sp.tag
        if tag == "v":  # a free variable is met once: the term is affine
            ty = self.env.get(t.name)
            if ty is None:
                (ty,) = self.annots(t, 1)
            for own in sp.annots(t):  # a Term's variable is annotated
                self.meet(own, ty, path)
            return ty
        if tag == "l":
            (a,) = self.annots(t, 1)
            self.env[t.binder] = a
            return Arrow(a, self.type_of(t.body, path + (0,)))
        first, second = sp.kids(t)
        ty = self.type_of(first, path + (0,))
        if tag == "a":
            return self.apply(ty, self.type_of(second, path + (1,)), path)
        if tag == "p":
            return Tensor(ty, self.type_of(second, path + (1,)))
        if tag == "L":
            xt, yt = self.annots(t, 2)
            self.meet(ty, Tensor(xt, yt), path + (0,))
            self.env[t.x], self.env[t.y] = xt, yt
        else:  # a break: the residue is its one annotation
            self.env[t.phi], self.env[t.f] = ks_types(ty, *self.annots(t, 1))
        return self.type_of(second, path + (1,))

    def annots(self, t, n: int) -> tuple[TypeExpr, ...]:
        return SPECS[type(t)].annots(t)

    def apply(self, fty: TypeExpr, aty: TypeExpr, path) -> TypeExpr:
        if type(fty) is not Arrow:
            raise TypeMismatch("a function type", fty, path + (0,))
        self.meet(aty, fty.dom, path + (1,))
        return fty.cod

    def meet(self, found: TypeExpr, expected: TypeExpr, path) -> None:
        if found is not expected:
            raise TypeMismatch(expected, found, path)


@_remember_last
def check(t: Term) -> TypeExpr:
    """Unique type of t, or raise.

    Rejects contraction (a name used in both premises of a two-premise rule)
    before anything else, then validates annotations against binders.  A
    repeated call on the same object (`is`) as one of the last two reuses
    its result, as nd_to_sequent does; a failing one raises again.
    """
    return _Checker().typed(t)


class TypeScheme(NamedTuple):
    """A most general type: body plus the atoms standing for unification variables."""

    body: TypeExpr
    variables: frozenset[str] = frozenset()


_SCHEME_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class _Inferencer(_Checker):
    """Checking in which every annotation and free variable is a fresh
    unification variable ?1, ?2, ..., drawn in the order the walk meets
    them, and two types that meet are unified (meet is unify)."""

    family, noun = UntypedTerm, "an untyped term"

    def __init__(self) -> None:
        super().__init__()
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

    meet = unify

    def annots(self, t, n: int) -> tuple[TypeExpr, ...]:
        return tuple([self.fresh() for _ in range(n)])

    def apply(self, fty: TypeExpr, aty: TypeExpr, path) -> TypeExpr:
        res = self.fresh()
        self.unify(fty, Arrow(aty, res), path)
        return res


def infer_principal(u: UntypedTerm) -> TypeScheme:
    """Most general type of an affine untyped term via first-order unification.

    A break introduces fresh scrutinee and residue variables a, b with
    phi : (a -> b) -> b and f : b -> a.
    """
    inf = _Inferencer()
    return _canonical_scheme(inf.typed(u), inf.resolve)


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
        if ty.name not in mapping:  # every atom is a fresh ?n
            mapping[ty.name] = Atom(name_for(len(mapping)))
        return mapping[ty.name]

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
