"""Abstract syntax for guarded lambda-calculus terms and types.

Terms and types are immutable trees.  Binders are named; capture is
avoided by on-demand freshening (primes appended to the clashing
name), so two runs over the same input produce identical trees.
Equality of trees is object identity; the meaningful comparisons are
``alpha_eq`` and ``type_alpha_eq``.

The three binder-with-substitution forms ``prev``/``box``/``boxp``
carry an explicit substitution: an ordered list of (variable, term)
pairs.  The listed variables are bound in the body and nowhere else;
term substitution lands in the listed terms only and never touches
the body.

``SHAPES`` gives the child structure of every term class; the
structural traversals (``free_vars``, ``subst``, ``erase``) loop over it.
``TYPE_SHAPES`` does the same for the type classes: ``free_type_vars``,
``type_subst``, ``type_alpha_eq`` and the type predicates and metrics
of glam.typecheck loop over it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

# ---------------------------------------------------------------------------
# Types

# mu-types, |> (later) and # (constant/box) modalities on top of the
# simply typed skeleton.  Well-formedness (guardedness of mu, closedness
# under #) lives in glam.typecheck, not here.


class Type:
    __slots__ = ()


@dataclass(frozen=True, eq=False, repr=False)
class TVar(Type):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Nat(Type):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Unit(Type):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Void(Type):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Prod(Type):
    left: Type
    right: Type


@dataclass(frozen=True, eq=False, repr=False)
class Sum(Type):
    left: Type
    right: Type


@dataclass(frozen=True, eq=False, repr=False)
class Arrow(Type):
    dom: Type
    cod: Type


@dataclass(frozen=True, eq=False, repr=False)
class Mu(Type):
    var: str
    body: Type


@dataclass(frozen=True, eq=False, repr=False)
class Later(Type):
    body: Type


@dataclass(frozen=True, eq=False, repr=False)
class Box(Type):
    body: Type


NAT = Nat()
UNIT = Unit()
VOID = Void()


def _type_repr(a: Type) -> str:
    # repr mirrors the surface syntax; the real printer is in glam.frontend
    from . import frontend

    return f"<Type {frontend.pretty_type(a)}>"


Type.__repr__ = _type_repr  # type: ignore[assignment]


# ---------------------------------------------------------------------------
# Terms

Loc = Optional[tuple]  # (line, col)

ExplicitSubst = tuple  # tuple of (name, Term) pairs


class Term:
    __slots__ = ()


@dataclass(frozen=True, eq=False, repr=False)
class Var(Term):
    name: str
    loc: Loc = field(default=None, compare=False)


@dataclass(frozen=True, eq=False, repr=False)
class Zero(Term):
    loc: Loc = field(default=None, compare=False)


@dataclass(frozen=True, eq=False, repr=False)
class Succ(Term):
    body: Term
    loc: Loc = field(default=None, compare=False)


@dataclass(frozen=True, eq=False, repr=False)
class UnitVal(Term):
    loc: Loc = field(default=None, compare=False)


@dataclass(frozen=True, eq=False, repr=False)
class Pair(Term):
    left: Term
    right: Term
    loc: Loc = field(default=None, compare=False)


@dataclass(frozen=True, eq=False, repr=False)
class Proj1(Term):
    body: Term
    loc: Loc = field(default=None, compare=False)


@dataclass(frozen=True, eq=False, repr=False)
class Proj2(Term):
    body: Term
    loc: Loc = field(default=None, compare=False)


@dataclass(frozen=True, eq=False, repr=False)
class Abort(Term):
    annot: Optional[Type]
    body: Term
    loc: Loc = field(default=None, compare=False)


@dataclass(frozen=True, eq=False, repr=False)
class In1(Term):
    annot: Optional[Type]  # the full sum type, when given
    body: Term
    loc: Loc = field(default=None, compare=False)


@dataclass(frozen=True, eq=False, repr=False)
class In2(Term):
    annot: Optional[Type]
    body: Term
    loc: Loc = field(default=None, compare=False)


@dataclass(frozen=True, eq=False, repr=False)
class Case(Term):
    scrut: Term
    var1: str
    arm1: Term
    var2: str
    arm2: Term
    loc: Loc = field(default=None, compare=False)


@dataclass(frozen=True, eq=False, repr=False)
class Lam(Term):
    var: str
    annot: Optional[Type]
    body: Term
    loc: Loc = field(default=None, compare=False)


@dataclass(frozen=True, eq=False, repr=False)
class App(Term):
    fun: Term
    arg: Term
    loc: Loc = field(default=None, compare=False)


@dataclass(frozen=True, eq=False, repr=False)
class Fold(Term):
    annot: Optional[Type]  # a mu-type, when given
    body: Term
    loc: Loc = field(default=None, compare=False)


@dataclass(frozen=True, eq=False, repr=False)
class Unfold(Term):
    body: Term
    loc: Loc = field(default=None, compare=False)


@dataclass(frozen=True, eq=False, repr=False)
class Next(Term):
    body: Term
    loc: Loc = field(default=None, compare=False)


@dataclass(frozen=True, eq=False, repr=False)
class Prev(Term):
    subst: ExplicitSubst
    body: Term
    loc: Loc = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "subst", tuple(tuple(p) for p in self.subst))


@dataclass(frozen=True, eq=False, repr=False)
class LaterApp(Term):  # the applicative action of |>, written t <*> u
    fun: Term
    arg: Term
    loc: Loc = field(default=None, compare=False)


@dataclass(frozen=True, eq=False, repr=False)
class BoxI(Term):  # box sigma. t
    subst: ExplicitSubst
    body: Term
    loc: Loc = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "subst", tuple(tuple(p) for p in self.subst))


@dataclass(frozen=True, eq=False, repr=False)
class Unbox(Term):
    body: Term
    loc: Loc = field(default=None, compare=False)


@dataclass(frozen=True, eq=False, repr=False)
class BoxSum(Term):  # boxp sigma. t
    subst: ExplicitSubst
    body: Term
    loc: Loc = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "subst", tuple(tuple(p) for p in self.subst))


@dataclass(frozen=True, eq=False, repr=False)
class Prim(Term):
    """A saturated application of a built-in function symbol.

    The frontend eta-expands unsaturated occurrences, so the machine
    only ever meets Prim nodes carrying exactly the declared arity.
    """

    name: str
    args: tuple
    loc: Loc = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True, eq=False, repr=False)
class Ascribe(Term):
    body: Term
    annot: Type
    loc: Loc = field(default=None, compare=False)


def _term_repr(t: Term) -> str:
    from . import frontend

    return f"<Term {frontend.pretty(t)}>"


Term.__repr__ = _term_repr  # type: ignore[assignment]


class Primitive(NamedTuple):
    arity: int
    op: Callable  # its meaning on Python ints


# The built-in function symbols, all at Nat.  The machine's delta rule,
# the denotation and the BDE oracle all compute with ``op``.
PRIMITIVES = {"addN": Primitive(2, operator.add), "mulN": Primitive(2, operator.mul)}


# ---------------------------------------------------------------------------
# Child shapes: each term class's fields in dataclass order, loc left
# out, with what each field holds.  The machine plugs contexts with it.

TERM = "term"  # a subterm
BINDER = "binder"  # a variable name bound in the next subterm
SUBST = "subst"  # an explicit substitution: its names alone scope the next subterm
TERMS = "terms"  # a tuple of subterms
TYPE = "type"  # a type annotation (None when absent)
DATA = "data"  # other data: a variable or primitive name

SHAPES = {
    Var: (("name", DATA),),
    Zero: (),
    Succ: (("body", TERM),),
    UnitVal: (),
    Pair: (("left", TERM), ("right", TERM)),
    Proj1: (("body", TERM),),
    Proj2: (("body", TERM),),
    Abort: (("annot", TYPE), ("body", TERM)),
    In1: (("annot", TYPE), ("body", TERM)),
    In2: (("annot", TYPE), ("body", TERM)),
    Case: (("scrut", TERM), ("var1", BINDER), ("arm1", TERM), ("var2", BINDER), ("arm2", TERM)),
    Lam: (("var", BINDER), ("annot", TYPE), ("body", TERM)),
    App: (("fun", TERM), ("arg", TERM)),
    Fold: (("annot", TYPE), ("body", TERM)),
    Unfold: (("body", TERM),),
    Next: (("body", TERM),),
    Prev: (("subst", SUBST), ("body", TERM)),
    LaterApp: (("fun", TERM), ("arg", TERM)),
    BoxI: (("subst", SUBST), ("body", TERM)),
    Unbox: (("body", TERM),),
    BoxSum: (("subst", SUBST), ("body", TERM)),
    Prim: (("name", DATA), ("args", TERMS)),
    Ascribe: (("body", TERM), ("annot", TYPE)),
}


def _shape(t) -> tuple:
    try:
        return SHAPES[t.__class__]
    except KeyError:
        raise TypeError(f"not a term: {t!r}") from None


# ---------------------------------------------------------------------------
# Numerals


_NUMERALS: list = [Zero()]


def numeral(n: int) -> Term:
    """succ^n zero, as one chain shared by every caller.

    numeral(n) is numeral(n + 1).body, so the nodes' cached ``_fv``,
    ``_nv`` and memos are filled in once and seen by every later use,
    the machine's delta rule included.  The cache is process-wide and
    never shrinks: it holds one node per natural up to the largest
    numeral built so far.
    """
    chain = _NUMERALS
    while len(chain) <= n:
        chain.append(Succ(chain[-1]))
    return chain[n]


_NO_NV = object()


def numeral_value(t: Term) -> Optional[int]:
    """The n with t = succ^n zero, or None if t is not a numeral.

    Results are cached on the (immutable) nodes, so repeated checks on
    long succ spines stay cheap.
    """
    spine = []
    cur = t
    while True:
        base = getattr(cur, "_nv", _NO_NV)
        if base is not _NO_NV:
            break
        if isinstance(cur, Zero):
            base = 0
            object.__setattr__(cur, "_nv", 0)
            break
        if not isinstance(cur, Succ):
            base = None
            object.__setattr__(cur, "_nv", None)
            break
        spine.append(cur)
        cur = cur.body
    n = base
    for node in reversed(spine):
        if n is not None:
            n += 1
        object.__setattr__(node, "_nv", n)
    return n


# ---------------------------------------------------------------------------
# Free variables

_HIDDEN = object()  # scope marker: the next subterm sees only an explicit substitution


def free_vars(t: Term) -> frozenset:
    """Free term variables of t.

    The bodies of prev/box/boxp contribute nothing (their variables are
    bound by the explicit substitution list); the listed terms
    contribute normally.
    """
    # cached on the node: terms are immutable and shared heavily
    try:
        return t._fv
    except AttributeError:
        pass
    if t.__class__ is Var:
        fv = frozenset((t.name,))
    else:
        parts = []
        scope = None  # a binder name, or _HIDDEN, for the next subterm
        for name, kind in _shape(t):
            v = getattr(t, name)
            if kind is TERM:
                if scope is None:
                    parts.append(free_vars(v))
                elif scope is not _HIDDEN:
                    parts.append(free_vars(v) - {scope})
                scope = None
            elif kind is BINDER:
                scope = v
            elif kind is SUBST:
                parts.extend(free_vars(u) for _, u in v)
                scope = _HIDDEN
            elif kind is TERMS:
                parts.extend(free_vars(a) for a in v)
        fv = parts[0] if len(parts) == 1 else frozenset().union(*parts)
    object.__setattr__(t, "_fv", fv)
    return fv


def _strip_primes(x: str) -> str:
    return x.rstrip("'")


def fresh_name(base: str, avoid) -> str:
    base = _strip_primes(base) or "x"
    x = base
    while x in avoid:
        x += "'"
    return x


# ---------------------------------------------------------------------------
# Substitution


def subst(t: Term, bindings) -> Term:
    """Simultaneous capture-avoiding substitution.

    ``bindings`` is a mapping or list of (name, term) pairs.  On
    prev/box/boxp the substitution applies to the terms in the
    explicit substitution list only, never to the body.
    """
    m = dict(bindings)
    if not m:
        return t
    return _subst(t, m)


def _applicable(m: dict, t: Term) -> bool:
    try:
        fv = t._fv
    except AttributeError:
        fv = free_vars(t)
    for k in m:
        if k in fv:
            return True
    return False


def _subst(t: Term, m: dict) -> Term:
    if not _applicable(m, t):
        return t
    if t.__class__ is Var:
        return m[t.name]
    out = []
    binder = None  # the index in out of the binder of the next subterm
    hidden = False  # the next subterm sees only an explicit substitution
    for name, kind in _shape(t):
        v = getattr(t, name)
        if kind is TERM:
            if hidden:
                hidden = False
            elif binder is None:
                v = _subst(v, m)
            else:
                out[binder], v = _subst_under(out[binder], v, m)
                binder = None
        elif kind is BINDER:
            binder = len(out)
        elif kind is SUBST:
            v = tuple((x, _subst(u, m)) for x, u in v)
            hidden = True
        elif kind is TERMS:
            v = tuple(_subst(a, m) for a in v)
        out.append(v)
    return t.__class__(*out, loc=t.loc)


def _subst_under(x: str, body: Term, m: dict):
    """Substitute under a binder x, renaming x if it would capture."""
    m2 = m if x not in m else {k: v for k, v in m.items() if k != x}
    if not m2 or not _applicable(m2, body):
        return x, body
    avoid = set()
    bfv = free_vars(body)
    for k, v in m2.items():
        if k in bfv:
            avoid |= free_vars(v)
    if x in avoid:
        xn = fresh_name(x, avoid | bfv | set(m2))
        body = _subst(body, {x: Var(xn)})
        x = xn
    return x, _subst(body, m2)


# ---------------------------------------------------------------------------
# Annotation erasure


def erase(t: Term) -> Term:
    """Strip ascriptions and all type annotations.

    Subtrees that are already bare are returned unchanged, so erasing
    an erased term is the identity (and preserves sharing).  Rebuilt
    nodes carry no source location.
    """
    if t.__class__ is Ascribe:
        return erase(t.body)
    out = []
    changed = False
    for name, kind in _shape(t):
        v = getattr(t, name)
        if kind is TERM:
            v2 = erase(v)
        elif kind is TYPE:
            v2 = None
        elif kind is SUBST:
            v2 = tuple((x, erase(u)) for x, u in v)
        elif kind is TERMS:
            v2 = tuple(erase(a) for a in v)
        else:
            v2 = v
        # terms compare by identity, so equal tuples hold the same nodes
        changed = changed or v2 != v
        out.append(v2)
    return t.__class__(*out) if changed else t


# ---------------------------------------------------------------------------
# Alpha-equivalence


def alpha_eq(t: Term, u: Term) -> bool:
    """Equality up to consistent renaming of bound variables.

    Explicit-substitution binders are renamable; annotations are
    compared with type_alpha_eq, and a missing annotation only equals
    a missing annotation.
    """
    return _aeq(t, u, {}, {}, [0])


def _annot_eq(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return type_alpha_eq(a, b)


def _aeq(t, u, envt, envu, ctr) -> bool:
    # the same node under the same renaming, or a closed node, equals itself
    if t is u and (envt == envu or not free_vars(t)):
        return True
    if t.__class__ is not u.__class__:
        return False
    match t:
        case Var(x):
            return envt.get(x, x) == envu.get(u.name, u.name)
        case Zero() | UnitVal():
            return True
        case Succ(b) | Proj1(b) | Proj2(b) | Unfold(b) | Next(b) | Unbox(b):
            return _aeq(b, u.body, envt, envu, ctr)
        case Abort(a, b) | In1(a, b) | In2(a, b) | Fold(a, b):
            return _annot_eq(a, u.annot) and _aeq(b, u.body, envt, envu, ctr)
        case Ascribe(b, a):
            return _annot_eq(a, u.annot) and _aeq(b, u.body, envt, envu, ctr)
        case Pair(l, r) | App(l, r) | LaterApp(l, r):
            return _aeq(l, _left(u), envt, envu, ctr) and _aeq(r, _right(u), envt, envu, ctr)
        case Lam(x, a, b):
            if not _annot_eq(a, u.annot):
                return False
            return _aeq_under([x], [u.var], b, u.body, envt, envu, ctr)
        case Case(s, x1, a1, x2, a2):
            return (
                _aeq(s, u.scrut, envt, envu, ctr)
                and _aeq_under([x1], [u.var1], a1, u.arm1, envt, envu, ctr)
                and _aeq_under([x2], [u.var2], a2, u.arm2, envt, envu, ctr)
            )
        case Prev(sig, b) | BoxI(sig, b) | BoxSum(sig, b):
            usig = u.subst
            if len(sig) != len(usig):
                return False
            for (_, v1), (_, v2) in zip(sig, usig):
                if not _aeq(v1, v2, envt, envu, ctr):
                    return False
            # the listed variables are the only bindings visible in the body
            return _aeq_under(
                [x for x, _ in sig], [x for x, _ in usig], b, u.body, {}, {}, ctr
            )
        case Prim(name, args):
            if name != u.name or len(args) != len(u.args):
                return False
            return all(_aeq(a, b, envt, envu, ctr) for a, b in zip(args, u.args))
        case _:
            raise TypeError(f"not a term: {t!r}")


def _left(u):
    return u.left if isinstance(u, Pair) else u.fun


def _right(u):
    return u.right if isinstance(u, Pair) else u.arg


def _aeq_under(xs, ys, b1, b2, envt, envu, ctr):
    if len(xs) != len(ys):
        return False
    envt = dict(envt)
    envu = dict(envu)
    for x, y in zip(xs, ys):
        ctr[0] += 1
        envt[x] = ctr[0]
        envu[y] = ctr[0]
    return _aeq(b1, b2, envt, envu, ctr)


# ---------------------------------------------------------------------------
# Types: child shapes, free variables, substitution, alpha-equivalence
#
# Each type class's fields that hold subtypes, in order (Mu.var and
# TVar.name are data).  Facts about a type that hold in every context
# are cached on the node, as free_vars caches _fv on terms.

TYPE_SHAPES = {
    TVar: (),
    Nat: (),
    Unit: (),
    Void: (),
    Prod: ("left", "right"),
    Sum: ("left", "right"),
    Arrow: ("dom", "cod"),
    Mu: ("body",),
    Later: ("body",),
    Box: ("body",),
}


def _type_shape(a) -> tuple:
    try:
        return TYPE_SHAPES[a.__class__]
    except KeyError:
        raise TypeError(f"not a type: {a!r}") from None


def free_type_vars(a: Type) -> frozenset:
    try:
        return a._ftv
    except AttributeError:
        pass
    if a.__class__ is TVar:
        out = frozenset((a.name,))
    else:
        out = frozenset().union(*[free_type_vars(getattr(a, f)) for f in _type_shape(a)])
        if a.__class__ is Mu:
            out -= {a.var}
    object.__setattr__(a, "_ftv", out)
    return out


def type_subst(a: Type, var: str, b: Type) -> Type:
    """a[b/var], capture-avoiding on mu binders."""
    if var not in free_type_vars(a):
        return a
    cls = a.__class__
    if cls is TVar:
        return b
    if cls is Mu:
        x, body = a.var, a.body
        if x in free_type_vars(b):
            xn = fresh_name(x, free_type_vars(b) | free_type_vars(body) | {var})
            body = type_subst(body, x, TVar(xn))
            x = xn
        return Mu(x, type_subst(body, var, b))
    return cls(*[type_subst(getattr(a, f), var, b) for f in TYPE_SHAPES[cls]])


def type_alpha_eq(a: Type, b: Type) -> bool:
    """Structural equality of types modulo renaming of mu-bound variables."""
    return _taeq(a, b, {}, {}, [0])


def _taeq(a, b, enva, envb, ctr):
    if a is b and enva == envb:
        return True
    cls = a.__class__
    if cls is not b.__class__:
        return False
    if cls is TVar:
        return enva.get(a.name, a.name) == envb.get(b.name, b.name)
    if cls is Mu:
        ctr[0] += 1
        enva = {**enva, a.var: ctr[0]}
        envb = {**envb, b.var: ctr[0]}
    for f in _type_shape(a):
        if not _taeq(getattr(a, f), getattr(b, f), enva, envb, ctr):
            return False
    return True


# ---------------------------------------------------------------------------
# Common types

STREAM_G = Mu("a", Prod(NAT, Later(TVar("a"))))  # mu a. Nat * |>a
STREAM = Box(STREAM_G)  # #(mu a. Nat * |>a)
CONAT_G = Mu("a", Sum(UNIT, Later(TVar("a"))))  # mu a. Unit + |>a
CONAT = Box(CONAT_G)
