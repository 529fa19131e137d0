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
its type's serial number, so two different types never write alike.
distinct_reducts deduplicates one-step reducts by a shape hash that leaves
names out, and writes an alpha key only to confirm two equal hashes.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from collections import namedtuple
from collections.abc import Iterator
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
    fields.  Nodes are not ordered.  Equality walks an explicit stack, so
    terms of any depth compare.
    """

    __slots__ = ()

    def __eq__(self, other):
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if type(a) is not type(b):
                return False
            for x, y in zip(a, b):
                if x is y:
                    continue
                if isinstance(x, Node) and not isinstance(x, TypeExpr):
                    stack.append((x, y))
                elif x != y:
                    return False
        return True

    def __ne__(self, other):
        return not self == other

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


class _Printed(dict):
    """print_type's results by type; a miss prints the type and stores it.

    print_type is ``_PRINTED.__getitem__``, a C-level function, so a sort
    keyed by it calls no Python code for a type already printed.  The memo
    keeps alive no type that _TYPES does not.  A miss prints bottom up, on
    an explicit stack of the parts that have no entry yet, so a type of any
    depth prints: a compound's text joins its parts' texts, with an Arrow
    part on the left in parentheses, and a compound right part of a Tensor
    too.
    """

    __slots__ = ()

    def __missing__(self, ty: TypeExpr) -> str:
        stack = [ty]
        while stack:
            top = stack.pop()
            if top in self:  # a part that two compounds pushed
                continue
            if not isinstance(top, TypeExpr):
                raise TypeError(f"not a type: {top!r}")
            if type(top) is Atom:
                text = top.name
            else:
                todo = [part for part in top if part not in self]
                if todo:
                    stack += [top, *todo]
                    continue
                left, right = top
                text = self[left]
                if type(left) is Arrow:
                    text = f"({text})"
                if type(top) is Arrow:
                    text = f"{text} -> {self[right]}"
                elif type(right) is Atom:
                    text = f"{text} * {self[right]}"
                else:
                    text = f"{text} * ({self[right]})"
            self[top] = text
            if _reads_back(top):
                _PARSED[text] = top
        return self[ty]


_PRINTED = _Printed()
_PARSED: dict[str, TypeExpr] = {}  # the inverse of _PRINTED, where it reads back
KEYWORDS = frozenset({"let", "in", "break", "as"})  # not identifiers
_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_']*")


def _reads_back(ty: TypeExpr) -> bool:
    """True if parse_type reads print_type(ty) back as ty: an atom when
    its name is an identifier, a compound when each of its parts, printed
    already, does."""
    if type(ty) is Atom:
        return ty.name not in KEYWORDS and _IDENT.fullmatch(ty.name) is not None
    return all(_PARSED.get(_PRINTED[part]) is part for part in ty)


#: A type in the surface syntax, with minimal parentheses.
print_type = _PRINTED.__getitem__


class _Serials(dict):
    """Each type's alpha-key text, ":" and a serial number given at its
    first use.  Types are interned, so two different types get two numbers,
    where their print_type texts can agree (Atom("A -> B") and Arrow(A, B)).
    The numbers come from one counter, so two threads never share one."""

    __slots__ = ()

    def __missing__(self, ty: TypeExpr) -> str:
        if not isinstance(ty, TypeExpr):
            raise TypeError(f"not a type: {ty!r}")
        return self.setdefault(ty, f":{next(_SERIAL)}")


_SERIAL = itertools.count()
_ANNOT_KEYS = _Serials()


def type_size(ty: TypeExpr) -> int:
    """Number of nodes in a type tree."""
    if type(ty) is Atom:
        return 1
    if isinstance(ty, TypeExpr):  # a compound type's parts are its fields
        return 1 + sum(map(type_size, ty))
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
    takes into account, at `annot_slots`.  `var` is the name field of a
    variable.  `tag` names the constructor in alpha_key.  The getters are
    precomputed per class because free_names, alpha_key and the redex walk
    call them at every node.
    """

    __slots__ = ("cls", "tag", "kids", "binders", "annots", "var", "scope",
                 "kid_slots", "name_slots", "annot_slots", "only_kids")

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
        self.annot_slots = tuple(map(slots, annots))
        self.annots = _tuple_getter(self.annot_slots)
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
    """t with its children, and optionally its binder or variable names,
    replaced.  Only new names go through the constructor: it checks names
    and the field count, which t's kept names and fields pass already."""
    sp = SPECS[type(t)]
    if sp.only_kids:
        return tuple.__new__(sp.cls, kids)
    vals = list(t)
    for i, v in zip(sp.kid_slots, kids):
        vals[i] = v
    if names is None:
        return tuple.__new__(sp.cls, vals)
    for i, v in zip(sp.name_slots, names):
        vals[i] = v
    return sp.cls(*vals)


def replace_child(t, i: int, kid):
    """t with child i replaced by kid (t itself if kid is that child), names
    kept, built as by _rebuild: the one step that rebuilds an ancestor."""
    slot = SPECS[type(t)].kid_slots[i]
    if t[slot] is kid:
        return t
    vals = list(t)
    vals[slot] = kid
    return tuple.__new__(type(t), vals)


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
        if not 0 <= i < len(kids):
            raise IndexError(f"no child {i} at {t!r}")
        t = kids[i]
        spine.append(t)
    return spine


def rebuild_spine(spine: list, path: tuple[int, ...], new):
    """spine[0] with the node at path replaced by new, where `spine` is
    spine_at(spine[0], path); the nodes off the path are shared."""
    for d in range(len(path) - 1, -1, -1):
        new = replace_child(spine[d], path[d], new)
    return new


def subterm_at(t, path: tuple[int, ...]):
    return spine_at(t, path)[-1]


def replace_at(t, path: tuple[int, ...], new):
    return rebuild_spine(spine_at(t, path), path, new)


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
    """Names occurring free in t (no type information), in one walk that
    builds no set per node: `depth` counts, for each name, the binders of
    that name in scope, so a variable is free when its count is 0.  A
    binder's scope child is walked first, between raising its binders'
    counts and a marker (their tuple) that lowers them, as in _scan.
    FreeNames memoises the set of every node, for many queries on one
    term."""
    out: set[str] = set()
    depth: dict[str, int] = {}
    stack = [t]
    pop, push = stack.pop, stack.append
    while stack:
        t = pop()
        if type(t) is tuple:  # a scope's binders, leaving it
            for b in t:
                depth[b] -= 1
            continue
        sp = SPECS[type(t)]
        if sp.var is not None:
            n = sp.var(t)
            if not depth.get(n):
                out.add(n)
            continue
        kids = sp.kids(t)
        scope = sp.scope
        if scope < 0:
            stack.extend(kids)
            continue
        for i, c in enumerate(kids):
            if i != scope:
                push(c)
        bound = sp.binders(t)
        push(bound)
        push(kids[scope])
        for b in bound:
            depth[b] = depth.get(b, 0) + 1
    return frozenset(out)


class NodeMemo(dict):
    """A memo keyed by id(node) whose entries hold their node, so an id is
    not reused while it is kept, and no entry need ever be forgotten for
    correctness.  `forget` drops the entries of nodes that have left the
    terms still to be printed; only the trace printer calls it, since its
    entries hold text."""

    __slots__ = ()

    def forget(self, nodes) -> None:
        pop = self.pop
        for t in nodes:
            pop(id(t), None)


class FreeNames(NodeMemo):
    """free_names memoised by node identity, for many queries on shared
    terms; its entries are (node, free names).  A memo serves one call of
    normalize, substitute or the like; only the trace printer's forgets."""

    __slots__ = ()

    def __call__(self, t) -> frozenset[str]:
        return _free(t, self)


def _free(t, memo: FreeNames) -> frozenset[str]:
    sp = SPECS[type(t)]
    if sp.var is not None:  # cheaper to build than to memoise
        return frozenset((sp.var(t),))
    hit = memo.get(id(t))
    if hit is not None:
        return hit[1]
    out = _NO_NAMES
    for i, c in enumerate(sp.kids(t)):
        names = _free(c, memo)
        if i == sp.scope:
            names = names.difference(sp.binders(t))
        out = out | names if out else names
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

    A subterm in which no key of sub is free comes back untouched.
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
                    names, ren = _freshen(
                        bound, value_fns | fns.difference(bound) | set(inner))
                    c = _subst(c, ren, fn)
                c = _subst(c, inner, fn)
            new.append(c)
        else:
            new.append(_subst(c, sub, fn))
    return _rebuild(t, new, names)


def _freshen(names: tuple[str, ...], avoid: set[str],
             cursor: dict[str, str] | None = None):
    """The one binder-renaming policy: one node's binder names, each one in
    avoid renamed to its first primed variant not in avoid, not among names
    and not given to an earlier one; and the renaming that applies it.

    One node's binders are distinct, so a kept name is never taken by an
    earlier binder, and names itself comes back when none is in avoid.

    cursor maps a base name to the last variant given to it, and the
    search for that base resumes there.  A cursor shared across calls is
    exact when avoid only grows between them and holds every name given so
    far, kept names included: every variant the search skips is then taken
    already, as _canonical_names keeps it.  Without one, each call starts
    from an empty cursor, so each search starts from its base name."""
    if avoid.isdisjoint(names):
        return names, {}
    if cursor is None:
        cursor = {}
    ren: dict[str, str] = {}
    given = ren.values()
    for n in names:
        if n in avoid:
            fresh = cursor.get(n, n)
            while fresh in avoid or fresh in names or fresh in given:
                fresh += "'"
            ren[n] = cursor[n] = fresh
    return tuple(ren.get(n, n) for n in names), ren


def avoid_capture(t, moving: frozenset[str], names: FreeNames | None = None):
    """t with its root binders renamed away from moving, or t itself when
    none of them is in moving.

    Used before a term whose free names are `moving` enters the binders'
    scope.  _freshen renames each binder that is in moving, away from moving
    and from the names the scope has free besides the binders.  `names` is
    as for substitute.
    """
    sp = SPECS[type(t)]
    old = sp.binders(t)
    if moving.isdisjoint(old):
        return t
    fn = FreeNames() if names is None else names
    kids = list(sp.kids(t))
    new, ren = _freshen(old, moving | fn(kids[sp.scope]).difference(old))
    kids[sp.scope] = _subst(kids[sp.scope], ren, fn)
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
    _key_parts(t, {}, 0, parts)
    return "".join(parts)


def _key_parts(t, env: dict[str, int], depth: int, parts: list[str]) -> None:
    """Append t's key to parts, where env gives the levels of the names
    bound around t and depth is the next level."""
    # module level, not a closure: a self-referencing closure is a cycle that
    # keeps every key fragment alive until the cycle collector runs.
    # An annotation is written as ":" and its type's serial number (see
    # _Serials), which ends at the first character that is not a digit, so
    # the key is injective on terms whose names are identifiers.
    sp = SPECS[type(t)]
    append = parts.append
    if sp.var is not None:
        n = sp.var(t)
        append(f"{sp.tag}#{env[n]}" if n in env else sp.tag + n)
        for a in sp.annots(t):
            append(_ANNOT_KEYS[a])
        return
    append(sp.tag)
    for a in sp.annots(t):
        append(_ANNOT_KEYS[a])
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
            _key_parts(c, inner, d, parts)
        else:
            _key_parts(c, env, depth, parts)
    append(")")


# ---------------------------------------------------------------------------
# One-step reducts
# ---------------------------------------------------------------------------

def _shape(t, memo: NodeMemo) -> int:
    """t's shape hash: the hash of its parts, which are its children's
    shape hashes, then its tag and its annotations' types, which are
    interned and hash by identity, so part i is child i's hash.  Names are
    left out, so alpha-equal terms hash equal, and alpha_key confirms a
    match.  memo maps id(node) to (node, hash, parts), so a node already
    there costs one lookup."""
    hit = memo.get(id(t))
    if hit is not None:
        return hit[1]
    sp = SPECS[type(t)]
    parts = (*[_shape(c, memo) for c in sp.kids(t)], sp.tag, *sp.annots(t))
    h = hash(parts)
    memo[id(t)] = (t, h, parts)
    return h


def _redex_walk(t, memo: NodeMemo, rules_at, path: list, spine: list,
                found: list) -> int:
    """_shape(t, memo), which also appends t's redexes to found in preorder
    as (path, spine, rules): the child indices from the root down to the
    redex, the nodes from the root down to it, and rules_at(node).  path and
    spine hold those of t's parent.  A variable is never a redex, so
    rules_at is not asked about one.  The parts are built here from the
    children's returned hashes: calling _shape on t would look each child
    up in memo again, which made reducts_one_step about 15% slower."""
    sp = SPECS[type(t)]
    hs = []
    if sp.var is None:
        spine.append(t)
        rules = rules_at(t)
        if rules:
            found.append((tuple(path), tuple(spine), rules))
        path.append(0)
        for i, c in enumerate(sp.kids(t)):
            path[-1] = i
            hs.append(_redex_walk(c, memo, rules_at, path, spine, found))
        path.pop()
        spine.pop()
    parts = (*hs, sp.tag, *sp.annots(t))
    h = hash(parts)
    memo[id(t)] = (t, h, parts)
    return h


def distinct_reducts(t, rules_at, contract) -> list:
    """The one-step reducts of t, deduplicated up to alpha equivalence; the
    first of each class is kept, in the order of the redexes in preorder.

    rules_at(node) gives the rules that match at node, in order, and
    contract(node, rule) the node's replacement.  One walk hashes every
    node of t by shape (see _shape) and lists the redexes, each with its
    path and spine.  A reduct shares every node off its spine with t, so
    hashing its contractum through the memo costs the nodes the contraction
    created; each ancestor's hash is its old parts with the changed child's
    hash put in, and replace_child builds the ancestor.  No walk starts
    from the root again.  A reduct whose hash is new is kept; on a hash
    match alpha_key decides, and each kept reduct's key is written at most
    once.
    """
    memo = NodeMemo()
    found: list = []
    _redex_walk(t, memo, rules_at, [], [], found)
    out: list = []
    kept: dict[int, list] = {}  # hash -> [reduct, alpha key or None] each
    for path, spine, rules in found:
        for rule in rules:
            new = contract(spine[-1], rule)
            h = _shape(new, memo)
            for d in range(len(path) - 1, -1, -1):
                i = path[d]
                parts = memo[id(spine[d])][2]
                h = hash((*parts[:i], h, *parts[i + 1:]))
                new = replace_child(spine[d], i, new)
            same = kept.get(h)
            if same is None:
                kept[h] = [[new, None]]
                out.append(new)
                continue
            key = alpha_key(new)
            for entry in same:
                if entry[1] is None:
                    entry[1] = alpha_key(entry[0])
                if entry[1] == key:
                    break
            else:
                same.append([new, key])
                out.append(new)
    return out


def _remember_last(fn, also=None):
    """fn, which answers a call whose first argument is the very object (`is`)
    of one of the last two calls that returned with that call's result.
    also(result), when given, is an argument on which fn returns result
    too; when that is another object, the memo holds it, then the call's
    argument, in place of the last two calls.

    Two, so that one call on another object in between does not evict the
    first: star_translate(t) after check(t) and infer_principal(erase(t))
    finds t's canonical names still there.  Only for a function of immutable
    objects (terms, derivations, interned types) that reads no other state.
    The memo is one tuple of two (argument, result) pairs, newest first,
    read once and replaced whole, so a thread never sees one call's argument
    with another's result; it holds the arguments, so their ids are not
    reused.  A call that raises stores nothing and raises again next time.
    """
    last = (object(), None, object(), None)

    @functools.wraps(fn)
    def remembered(x, *rest):
        nonlocal last
        memo = last
        if memo[0] is x:
            return memo[1]
        if memo[2] is x:
            return memo[3]
        result = fn(x, *rest)
        y = also(result) if also else x
        last = (x, result) + memo[:2] if y is x else (y, result, x, result)
        return result

    return remembered


def canonicalize(t):
    """Rename binders so all are distinct from each other and from free names.

    _freshen keeps a binder's name unless it is free in t or already given
    to a binder, so a canonical t (see is_canonical) comes back as itself.
    The k-th renamed binder of one base name costs one prime step, not k
    (see _canonical_names).
    """
    return _canonical_names(t)[0]


@functools.partial(_remember_last, also=itemgetter(0))
def _canonical_names(t):
    """canonicalize(t), and its variables' names, or None when a name occurs
    twice, which is when the canonical term contracts: two occurrences of a
    name lie in two children of their lowest common ancestor, and are free
    there, since that node binds in one child only and a binder below it
    would leave the other occurrence outside its scope, which canonicity
    forbids.  Conversely, contraction is a name free in two children.

    The renaming walk gives binders names in preorder, through _freshen
    with one cursor per walk: `used`, its avoid set, starts as the free
    names and only grows, by every name given, kept ones included, which is
    the cursor's precondition.  So the k-th binder of one base name costs
    one step, not k.  The same walk lists the result's variable names,
    which is the names set that _scan would read off the result.  `ren`,
    the renaming in scope, is one dict, changed on entering a renamed
    binder's scope and restored on leaving it, so the walk is linear.

    A repeated call on the same t returns the same result, names set
    included, so callers only read that set.  The canonical term is its
    own canonical form with the same names, so a call on it, such as
    check(parse_term(text)) when the parser renamed, is answered too."""
    canonical, names = _scan(t)
    if canonical:
        return t, names
    used = set(free_names(t))
    cursor: dict[str, str] = {}
    ren: dict[str, str] = {}
    occurrences: list[str] = []  # the result's variable names, one each
    note = occurrences.append

    def go(t):
        sp = SPECS[type(t)]
        if sp.var is not None:
            n = sp.var(t)
            if n in ren:
                n = ren[n]
                t = _rebuild(t, (), (n,))
            note(n)
            return t
        kids, bound = sp.kids(t), sp.binders(t)
        new, names = [], bound
        for i, c in enumerate(kids):
            if i == sp.scope:
                # a kept name cannot shadow a renamed one: that name is taken
                names, fresh = _freshen(bound, used, cursor)
                used.update(names)
                outer = {k: ren[k] for k in fresh if k in ren}
                ren.update(fresh)
                c = go(c)
                for k in fresh:  # leaving the scope
                    del ren[k]
                ren.update(outer)
            else:
                c = go(c)
            new.append(c)
        if names is not bound:  # _freshen gives bound back when it keeps all
            return _rebuild(t, new, names)
        return t if all(map(operator.is_, new, kids)) else _rebuild(t, new)

    t = go(t)
    names = set(occurrences)
    return t, names if len(names) == len(occurrences) else None


def is_canonical(t) -> bool:
    """True if all binders are pairwise distinct and distinct from free names."""
    return _scan(t)[0]


def _scan(t) -> tuple[bool, set[str] | None]:
    """is_canonical(t), and the names of t's variables, or None if one occurs
    twice or t is not canonical.  One walk, which stops at the first clash.

    While binders are distinct, a variable is free exactly when its name is
    not in scope (`live`), so a free variable clashes with any binder of its
    name, seen before or after it; a variable bound by an earlier binder of
    a new binder's name is a clash too.  A binder's scope child is walked
    first, between adding the binders to `live` and a marker (their tuple)
    that removes them.
    """
    seen: set[str] = set()   # every binder so far
    names: set[str] = set()  # every variable's name so far
    live: set[str] = set()   # the binders in scope
    twice = False
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
            if n not in live and n in seen:
                return False, None
            twice = twice or n in names
            names.add(n)
            continue
        kids = sp.kids(t)
        scope = sp.scope
        if scope < 0:
            stack.extend(kids)
            continue
        bound = sp.binders(t)
        for b in bound:
            if b in seen or b in names:
                return False, None
            seen.add(b)
        for i, c in enumerate(kids):
            if i != scope:
                push(c)
        push(bound)
        push(kids[scope])
        live.update(bound)
    return True, None if twice else names


# ---------------------------------------------------------------------------
# Affinity
# ---------------------------------------------------------------------------

def first_contraction(t) -> str | None:
    """The first variable used twice in t, or None when t is affine.

    A variable is used twice when it occurs free in two children of one node,
    counting a binder's child only outside its binders; weakening (an unused
    binder) is allowed.  This runs canonical_contraction on a canonically
    renamed copy of t, as typecheck.check does, so both name the same
    variable, but only when a name occurs twice (see _canonical_names).
    """
    t, names = _canonical_names(t)
    return None if names is not None else canonical_contraction(t)


def canonical_contraction(t) -> str | None:
    """first_contraction of a canonical t (see is_canonical), which callers
    run only when a name occurs in t twice (see _canonical_names).

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
