"""Abstract syntax for the break calculus: types, terms, and basic term operations.

Terms are Church style: every variable occurrence carries its type, binders are
annotated, and a break node stores its residue type.  Every type and term is
an immutable named tuple of its fields (see Node).  Types are hash-consed
(see TypeExpr): equal types are one object, so type equality and hashing go
by identity and print_type is a dictionary lookup after the first call.

The binder-aware operations (navigation, free names, substitution, alpha
equivalence, canonical renaming, affinity) are written once, over the Spec
that each constructor declares with @constructor.  They serve Term, the
untyped terms of typecheck and the lambda-pair terms of lambda_pair alike:
lambda binds one name over its body, let and break bind two names over their
body only.

alpha_key writes a term's alpha-equivalence class as one string: a bound
name as the level of its binder, a free name as itself, and an annotation as
its print_type text, so the type printer is the only code that spells types.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from collections.abc import Iterator
from itertools import accumulate
from operator import itemgetter


class IllFormedTermError(Exception):
    """Raised when a term is structurally broken (e.g. one name used at two types)."""


class Node(tuple):
    """Base of every type and term constructor.

    A constructor is a named tuple of its fields, e.g.
    ``class Lam(Term, namedtuple("Lam", "binder binder_type body"))`` with
    empty ``__slots__``: fields are read by name or position, and assigning
    one raises AttributeError.  A node equals only a node of the same
    constructor with equal fields, so ``Arrow(A, B) != Tensor(A, B)`` and no
    node equals a plain tuple.  Types compare and hash by identity (see
    TypeExpr); every other node compares and hashes as the tuple of its
    fields.  Nodes are not ordered.
    """

    __slots__ = ()

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return type(self) is not type(other) or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

    def __lt__(self, other):
        return NotImplemented

    __le__ = __gt__ = __ge__ = __lt__

    @classmethod
    def _make(cls, iterable):  # namedtuple's _make and _replace skip __new__
        return cls(*iterable)


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

#: Every type built so far, keyed by (constructor, *fields).  Entries are
#: never dropped: a type still in use must stay the one object for its
#: fields, and a tuple subclass cannot be weakly referenced, so the table
#: cannot tell which types are still in use.
_TYPES: dict[tuple, TypeExpr] = {}


class TypeExpr(Node):
    """Base class for type expressions, which are hash-consed.

    Constructing a type returns the one object for its constructor and
    fields, whichever way it is built (positional or keyword arguments,
    ``_make``, ``_replace``, ``copy``, ``deepcopy``, ``pickle``).  So two
    types are equal exactly when they are the same object, and equality and
    hashing are identity tests.  The table only grows, by the distinct types
    seen; ``dict.setdefault`` under the GIL keeps one object per type when
    threads build the same type at once.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        if not kwargs:  # fast path: the key without building a type first
            ty = _TYPES.get((cls,) + args)  # faster than (cls, *args)
            if ty is not None:
                return ty
        ty = super().__new__(cls, *args, **kwargs)
        return _TYPES.setdefault((cls,) + ty, ty)

    def __reduce__(self):  # copy, deepcopy and pickle rebuild through __new__
        return type(self), tuple(self)

    def __eq__(self, other):
        return self is other

    def __ne__(self, other):
        return self is not other

    __hash__ = object.__hash__


class Atom(TypeExpr, namedtuple("Atom", "name")):
    """A type variable."""

    __slots__ = ()


class Arrow(TypeExpr, namedtuple("Arrow", "dom cod")):
    """Function type ``dom -> cod``."""

    __slots__ = ()


class Tensor(TypeExpr, namedtuple("Tensor", "left right")):
    """Pair type ``left * right``."""

    __slots__ = ()


def ks_types(scrutinee: TypeExpr, residue: TypeExpr) -> tuple[TypeExpr, TypeExpr]:
    """Types of the two functions a break binds over a value of type `scrutinee`.

    For scrutinee type A and residue B, returns ((A -> B) -> B, B -> A): a
    continuation-like higher-order function and a section back into A.
    """
    k = Arrow(Arrow(scrutinee, residue), residue)
    s = Arrow(residue, scrutinee)
    return k, s


# precedence contexts of the surface syntax
_TOP = 0      # no parens needed
_ARG_L = 1    # left of an infix / function position
_ARG_R = 2    # argument position (tightest)


class _Printed(dict):
    """print_type's results by type; a miss prints the type and stores it.

    ``_PRINTED.__getitem__`` is print_type as a C-level function, so a sort
    keyed by it calls no Python code for a type already printed.  The memo
    keeps alive no type that _TYPES does not.
    """

    __slots__ = ()

    def __missing__(self, ty: TypeExpr) -> str:
        text = self[ty] = _ptype(ty, _TOP)
        return text


_PRINTED = _Printed()


def print_type(ty: TypeExpr) -> str:
    """A type in the surface syntax, with minimal parentheses."""
    return _PRINTED[ty]


def _ptype(ty: TypeExpr, ctx: int) -> str:
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


def type_size(ty: TypeExpr) -> int:
    """Number of nodes in a type tree."""
    match ty:
        case Atom():
            return 1
        case Arrow(dom, cod):
            return 1 + type_size(dom) + type_size(cod)
        case Tensor(left, right):
            return 1 + type_size(left) + type_size(right)
    raise TypeError(f"not a type: {ty!r}")


# ---------------------------------------------------------------------------
# Constructor specs
# ---------------------------------------------------------------------------

def _tuple_getter(slots: tuple[int, ...]):
    """Getter returning the fields at slots as a tuple (itemgetter unwraps
    one)."""
    if not slots:
        return lambda t: ()
    if len(slots) == 1:
        i = slots[0]
        return lambda t: (t[i],)
    return itemgetter(*slots)


class Spec:
    """What the shared term operations read off one constructor.

    `kids` are the child fields in source order.  The `binders` fields name
    the variables bound over the child field `over` (and over no other child).
    `annots` are the type annotations, which alpha_key (and so alpha_eq)
    takes into account.  `var` is the name field of a variable.  `tag` names the
    constructor in alpha_key.  The getters are precomputed per class because
    free_names, alpha_key and the redex walk call them at every node.
    """

    __slots__ = ("cls", "tag", "kids", "binders", "annots", "var", "scope",
                 "kid_slots", "name_slots", "only_kids")

    def __init__(self, cls: type, tag: str, kids: tuple[str, ...] = (),
                 binders: tuple[str, ...] = (), over: str | None = None,
                 annots: tuple[str, ...] = (), var: str | None = None):
        slots = cls._fields.index
        self.cls = cls
        self.tag = tag
        self.kid_slots = tuple(map(slots, kids))
        self.name_slots = tuple(map(slots, (var,) if var else binders))
        self.kids = _tuple_getter(self.kid_slots)
        self.binders = _tuple_getter(tuple(map(slots, binders)))
        self.annots = _tuple_getter(tuple(map(slots, annots)))
        self.var = itemgetter(slots(var)) if var else None
        self.scope = kids.index(over) if binders else -1
        self.only_kids = cls._fields == kids


#: The spec of every constructor of Term, UntypedTerm and LTerm, by class.
#: Looking up anything else raises KeyError.
SPECS: dict[type, Spec] = {}


def constructor(tag: str, **shape):
    """Class decorator registering a Node class as a term constructor."""
    def register(cls):
        SPECS[cls] = Spec(cls, tag, **shape)
        return cls
    return register


def _rebuild(t, kids, names=None):
    """t with its children, and optionally its binder or variable names, replaced."""
    sp = SPECS[type(t)]
    if sp.only_kids:
        return sp.cls(*kids)
    vals = list(t)
    for i, v in zip(sp.kid_slots, kids):
        vals[i] = v
    if names is not None:
        for i, v in zip(sp.name_slots, names):
            vals[i] = v
    return sp.cls(*vals)


class DistinctBinders:
    """Base of the let and break constructors: their two binders must differ."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        first, second = SPECS[cls].binders(self)
        if first == second:
            raise IllFormedTermError(f"{cls.__name__} binds {first!r} twice")
        return self


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

class Term(Node):
    """Base class for terms."""

    __slots__ = ()


@constructor("v", var="name", annots=("type",))
class Var(Term, namedtuple("Var", "name type")):
    __slots__ = ()


@constructor("l", kids=("body",), binders=("binder",), over="body",
             annots=("binder_type",))
class Lam(Term, namedtuple("Lam", "binder binder_type body")):
    __slots__ = ()


@constructor("a", kids=("fun", "arg"))
class App(Term, namedtuple("App", "fun arg")):
    __slots__ = ()


@constructor("p", kids=("first", "second"))
class Pair(Term, namedtuple("Pair", "first second")):
    __slots__ = ()


@constructor("L", kids=("scrutinee", "body"), binders=("x", "y"),
             over="body", annots=("x_type", "y_type"))
class Let(Term, DistinctBinders,
          namedtuple("Let", "x x_type y y_type scrutinee body")):
    """``let <x, y> = scrutinee in body`` destructuring a pair."""

    __slots__ = ()


@constructor("B", kids=("scrutinee", "body"), binders=("phi", "f"),
             over="body", annots=("residue",))
class Break(Term, DistinctBinders,
            namedtuple("Break", "scrutinee phi f residue body")):
    """``break scrutinee as <phi, f> @ residue in body``.

    Only the residue type is stored; the types of phi and f are derived from it
    and the scrutinee's type via ks_types.
    """

    __slots__ = ()


# ---------------------------------------------------------------------------
# Tree navigation (every operation from here on serves all three families)
# ---------------------------------------------------------------------------

def children(t) -> tuple:
    """Subterm children in left-to-right source order."""
    return SPECS[type(t)].kids(t)


def binders(t) -> tuple[str, ...]:
    """Names bound at the root of t, in source order."""
    return SPECS[type(t)].binders(t)


def spine_at(t, path: tuple[int, ...]) -> list:
    """The nodes from t down to the subterm at path, t first."""
    spine = [t]
    for i in path:
        kids = children(t)
        if i >= len(kids):
            raise IndexError(f"no child {i} at {t!r}")
        t = kids[i]
        spine.append(t)
    return spine


def rebuild_spine(spine: list, path: tuple[int, ...], new) -> list:
    """The spine, root first, of spine[0] with the node at path replaced by new.

    `spine` is spine_at(root, path); the nodes off the path are shared.
    """
    out = [new]
    for d in range(len(path) - 1, -1, -1):
        kids = list(children(spine[d]))
        kids[path[d]] = new
        new = _rebuild(spine[d], kids)
        out.append(new)
    out.reverse()
    return out


def subterm_at(t, path: tuple[int, ...]):
    return spine_at(t, path)[-1]


def replace_at(t, path: tuple[int, ...], new):
    return rebuild_spine(spine_at(t, path), path, new)[0]


def subterms(t) -> Iterator[tuple[tuple[int, ...], object]]:
    """(position, subterm) for every node of t, in preorder."""
    stack = [((), t)]
    while stack:
        path, t = stack.pop()
        yield path, t
        kids = children(t)
        for i in range(len(kids) - 1, -1, -1):
            stack.append((path + (i,), kids[i]))


def term_size(t) -> int:
    """Number of term nodes."""
    return 1 + sum(term_size(c) for c in children(t))


# ---------------------------------------------------------------------------
# Names
# ---------------------------------------------------------------------------

_NO_NAMES: frozenset[str] = frozenset()


def free_names(t) -> frozenset[str]:
    """Names occurring free in t (no type information)."""
    return _free(t, None)


class FreeNames:
    """free_names memoised by node identity, for many queries on shared terms.

    An entry holds its node, so an id is not reused while it is cached.
    `forget` drops entries of nodes that have left the term being worked
    on; a forgotten node that is still in use is recomputed from its
    children's entries.
    """

    __slots__ = ("memo",)

    def __init__(self) -> None:
        self.memo: dict[int, tuple[object, frozenset[str]]] = {}

    def __call__(self, t) -> frozenset[str]:
        return _free(t, self.memo)

    def forget(self, nodes) -> None:
        pop = self.memo.pop
        for t in nodes:
            pop(id(t), None)


def _free(t, memo: dict | None) -> frozenset[str]:
    sp = SPECS[type(t)]
    if sp.var is not None:  # cheaper to build than to memoise
        return frozenset((sp.var(t),))
    if memo is not None:
        hit = memo.get(id(t))
        if hit is not None:
            return hit[1]
    out = _NO_NAMES
    for i, c in enumerate(sp.kids(t)):
        names = _free(c, memo)
        if i == sp.scope:
            names = names.difference(sp.binders(t))
        out = out | names if out else names
    if memo is not None:
        memo[id(t)] = (t, out)
    return out


def free_positions(t, name: str) -> list[tuple[int, ...]]:
    """Positions of the free occurrences of name, in preorder."""
    out: list[tuple[int, ...]] = []

    def walk(t, path: tuple[int, ...]) -> None:
        sp = SPECS[type(t)]
        if sp.var is not None and sp.var(t) == name:
            out.append(path)
        for i, c in enumerate(sp.kids(t)):
            if i != sp.scope or name not in sp.binders(t):
                walk(c, path + (i,))

    walk(t, ())
    return out


def free_vars(t: Term) -> dict[str, TypeExpr]:
    """Free variables of t with their types.

    Raises IllFormedTermError if one name occurs free at two different types.
    """
    out: dict[str, TypeExpr] = {}

    def walk(t: Term, bound: frozenset[str]) -> None:
        sp = SPECS[type(t)]
        if sp.var is not None:
            if t.name not in bound and out.setdefault(t.name, t.type) != t.type:
                raise IllFormedTermError(
                    f"variable {t.name!r} used at two types")
        for i, c in enumerate(sp.kids(t)):
            walk(c, bound.union(sp.binders(t)) if i == sp.scope else bound)

    walk(t, frozenset())
    return out


def all_names(t) -> set[str]:
    """Every name appearing in t, bound or free."""
    out: set[str] = set()
    for _, sub in subterms(t):
        sp = SPECS[type(sub)]
        out.update(sp.binders(sub) if sp.var is None else (sp.var(sub),))
    return out


def fresh_name(base: str, avoid: set[str]) -> str:
    """Smallest prime-decorated variant of base not in avoid."""
    name = base
    while name in avoid:
        name += "'"
    return name


# ---------------------------------------------------------------------------
# Substitution and grafting
# ---------------------------------------------------------------------------

def substitute(t, bindings, names: FreeNames | None = None):
    """Simultaneous capture-avoiding substitution.

    `bindings` is a list of (name, term) pairs or an equivalent dict; bound
    variables of t are renamed whenever they would capture a free variable of
    a substituted term.  `names` supplies the free names of t's subterms and
    of the substituted terms (a fresh memo by default).
    """
    return _subst(t, dict(bindings), FreeNames() if names is None else names)


def _subst(t, sub: dict, fn: FreeNames):
    """substitute, where a str value renames the variable (keeping its type).

    A subterm in which no key of sub is free comes back untouched.  Every
    node that is rebuilt is forgotten by fn.
    """
    sp = SPECS[type(t)]
    if sp.var is not None:
        v = sub.get(sp.var(t), t)
        return _rebuild(t, (), (v,)) if isinstance(v, str) else v
    if sub.keys().isdisjoint(fn(t)):
        return t
    new = []
    names = None
    for i, c in enumerate(sp.kids(t)):
        if i == sp.scope:
            bound = sp.binders(t)
            fns = fn(c)
            inner = {k: v for k, v in sub.items()
                     if k not in bound and k in fns}
            if inner:
                value_fns = set().union(*(
                    {v} if isinstance(v, str) else fn(v)
                    for v in inner.values()))
                if not value_fns.isdisjoint(bound):
                    names, ren = _freshen(bound, value_fns | fns | set(inner))
                    c = _subst(c, ren, fn)
                c = _subst(c, inner, fn)
            new.append(c)
        else:
            new.append(_subst(c, sub, fn))
    fn.forget((t,))
    return _rebuild(t, new, names)


def _freshen(names: tuple[str, ...], avoid: set[str]):
    """Binder names renamed away from avoid, and the renaming that applies it."""
    taken = set(avoid)
    ren: dict[str, str] = {}
    out = []
    for n in names:
        if n in taken:
            ren[n] = fresh_name(n, taken | set(names))
            n = ren[n]
        out.append(n)
        taken.add(n)
    return tuple(out), ren


def avoid_capture(t, moving: frozenset[str], names: FreeNames | None = None):
    """t, or t with all its root binders renamed if one of them is in moving.

    Used before a term whose free names are `moving` enters the binders'
    scope.  The new names avoid moving, the names free in the scope and the
    old binders.  `names` is as for substitute.
    """
    sp = SPECS[type(t)]
    old = sp.binders(t)
    if moving.isdisjoint(old):
        return t
    fn = FreeNames() if names is None else names
    kids = list(sp.kids(t))
    taken = set(moving).union(fn(kids[sp.scope]), old)
    new = []
    for b in old:
        new.append(fresh_name(b, taken))
        taken.add(new[-1])
    kids[sp.scope] = _subst(kids[sp.scope], dict(zip(old, new)), fn)
    return _rebuild(t, kids, new)


def graft(t, name: str, value):
    """Replace free occurrences of name verbatim, capturing on purpose.

    Used to place a subterm image back into a context image whose binders are
    supposed to bind the image's free variables.
    """
    sp = SPECS[type(t)]
    if sp.var is not None:
        return value if sp.var(t) == name else t
    kids = sp.kids(t)
    new = [c if i == sp.scope and name in sp.binders(t)
           else graft(c, name, value) for i, c in enumerate(kids)]
    return t if all(map(operator.is_, new, kids)) else _rebuild(t, new)


# ---------------------------------------------------------------------------
# Alpha equivalence and canonical names
# ---------------------------------------------------------------------------

def alpha_eq(t, u) -> bool:
    """Equality up to renaming of bound variables; annotations must match."""
    return alpha_key(t) == alpha_key(u)


def alpha_key(t) -> str:
    """Canonical string key identifying t's alpha-equivalence class."""
    parts: list[str] = []
    _key_parts(t, {}, 0, parts, None)
    return "".join(parts)


def _key_parts(t, env: dict[str, int], depth: int, parts: list[str],
               spans: list | None) -> None:
    """Append t's key to parts, where env gives the levels of the names
    bound around t and depth is the next level.

    When spans is a list, each node appends [start, end, env, depth] to it,
    in preorder: its key is parts[start:end], written in that context.
    """
    # module level, not a closure: a self-referencing closure is a cycle that
    # keeps every key fragment alive until the cycle collector runs.
    # An annotation is written as ":" and its print_type text.  The key is
    # injective because each annotation's end can be found in it:
    # print_type round-trips through parse_type, and a printed type has no
    # ":" or ",", balanced parentheses, and no "(" after an identifier or a
    # ")".  So after a variable's annotation comes the end of the key, a ","
    # or an unbalanced ")"; the annotations of one node are separated by
    # ":"; and the "(" that opens a node's children is the first "(" after
    # an identifier or a ")".
    sp = SPECS[type(t)]
    append = parts.append
    if spans is not None:
        span = [len(parts), 0, env, depth]
        spans.append(span)
    if sp.var is not None:
        n = sp.var(t)
        append(f"{sp.tag}#{env[n]}" if n in env else sp.tag + n)
        for a in sp.annots(t):
            append(":" + _PRINTED[a])
    else:
        append(sp.tag)
        for a in sp.annots(t):
            append(":" + _PRINTED[a])
        append("(")
        scope = sp.scope
        for i, c in enumerate(sp.kids(t)):
            if i:
                append(",")
            if i == scope:  # binders get the next levels, in order
                inner, d = env.copy(), depth
                for b in sp.binders(t):
                    inner[b] = d
                    d += 1
                _key_parts(c, inner, d, parts, spans)
            else:
                _key_parts(c, env, depth, parts, spans)
        append(")")
    if spans is not None:
        span[1] = len(parts)


def distinct_reducts(t, redexes, contract) -> list:
    """t with the node at each redex position replaced, deduplicated up to
    alpha equivalence; the first of each class is kept, in redex order.

    `redexes` are (position, rule) pairs and contract(node, rule) is the
    node's replacement.  t's key is written once, with each node's span and
    binding context.  A reduct keeps every node off the path to its
    position, and the ancestors on it keep their binders, so alpha_key of
    the reduct is t's key with that position's span replaced by the new
    node's key written in the same context.  Only a reduct whose key is new
    is built.
    """
    if not redexes:
        return []
    parts: list[str] = []
    spans: list = []
    _key_parts(t, {}, 0, parts, spans)
    offsets = list(accumulate(map(len, parts), initial=0))
    key = "".join(parts)
    span_at = {path: span for (path, _), span in zip(subterms(t), spans)}
    seen: dict[str, object] = {}
    for path, rule in redexes:
        spine = spine_at(t, path)
        new = contract(spine[-1], rule)
        start, end, env, depth = span_at[path]
        mid: list[str] = []
        _key_parts(new, env, depth, mid, None)
        k = key[:offsets[start]] + "".join(mid) + key[offsets[end]:]
        if k not in seen:
            seen[k] = rebuild_spine(spine, path, new)[0]
    return list(seen.values())


def canonicalize(t):
    """Rename binders so all are distinct from each other and from free names.

    Original names are kept when they do not collide, so a canonical t (see
    is_canonical) comes back as itself.
    """
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
            return _rebuild(t, (), (ren[n],)) if n in ren else t
        kids, bound = sp.kids(t), sp.binders(t)
        new, names = [], bound
        for i, c in enumerate(kids):
            if i == sp.scope:
                # a kept name cannot shadow a renamed one: that name is taken
                names = tuple(map(pick, bound))
                c = go(c, ren | {b: n for b, n in zip(bound, names) if b != n})
            else:
                c = go(c, ren)
            new.append(c)
        if names == bound and all(map(operator.is_, new, kids)):
            return t
        return _rebuild(t, new, names)

    return go(t, {})


def is_canonical(t) -> bool:
    """True if all binders are pairwise distinct and distinct from free names.

    One walk, which stops at the first clash.  While binders are distinct,
    a variable is free exactly when its name is not in scope (`live`), so
    a free variable clashes with any binder of its name, seen before or
    after it.  A binder's scope child is walked first, between adding the
    binders to `live` and a marker (their tuple) that removes them.
    """
    seen: set[str] = set()   # every binder so far
    free: set[str] = set()   # every free name so far
    live: set[str] = set()   # the binders in scope
    stack = [t]
    pop, push = stack.pop, stack.append
    while stack:
        t = pop()
        if type(t) is tuple:  # a scope's binders, leaving it
            live.difference_update(t)
            continue
        sp = SPECS[type(t)]
        if sp.var is not None:
            n = sp.var(t)
            if n not in live:
                if n in seen:
                    return False
                free.add(n)
            continue
        kids = sp.kids(t)
        scope = sp.scope
        if scope < 0:
            stack.extend(kids)
            continue
        bound = sp.binders(t)
        for b in bound:
            if b in seen or b in free:
                return False
            seen.add(b)
        for i, c in enumerate(kids):
            if i != scope:
                push(c)
        push(bound)
        push(kids[scope])
        live.update(bound)
    return True


# ---------------------------------------------------------------------------
# Affinity
# ---------------------------------------------------------------------------

def first_contraction(t) -> str | None:
    """The first variable used twice in t, or None when t is affine.

    A variable is used twice when it occurs free in two children of one node,
    counting a binder's child only outside its binders; weakening (an unused
    binder) is allowed.  This runs canonical_contraction on a canonically
    renamed copy of t, as typecheck.check does, so both name the same
    variable.
    """
    return canonical_contraction(canonicalize(t))


def canonical_contraction(t) -> str | None:
    """first_contraction of a canonical t (see is_canonical).

    Nodes are visited in post-order and the least shared name is reported.
    """
    found: list[str] = []

    def used(t) -> set[str]:
        sp = SPECS[type(t)]
        if sp.var is not None:
            return {sp.var(t)}
        out: set[str] = set()
        for i, c in enumerate(sp.kids(t)):
            names = used(c)
            if i == sp.scope:
                names.difference_update(sp.binders(t))
            if not found and not out.isdisjoint(names):
                found.append(min(out & names))
            out |= names
        return out

    used(t)
    return found[0] if found else None


def affine_check(t) -> bool:
    """True iff no variable occurs free more than once in any subterm.

    Weakening (unused binders) is allowed; contraction is not.
    """
    return first_contraction(t) is None


def annotated_type(t: Term) -> TypeExpr:
    """Type of t read off the annotations, without any validation.

    Raises IllFormedTermError if an applied subterm is not annotated at a
    function type.
    """
    match t:
        case Var(_, ty):
            return ty
        case Lam(_, bt, body):
            return Arrow(bt, annotated_type(body))
        case App(fun, _):
            ft = annotated_type(fun)
            if not isinstance(ft, Arrow):
                raise IllFormedTermError(
                    f"applied term has non-function type {print_type(ft)}")
            return ft.cod
        case Pair(a, b):
            return Tensor(annotated_type(a), annotated_type(b))
        case Let(body=body) | Break(body=body):
            return annotated_type(body)
    raise TypeError(f"not a term: {t!r}")
