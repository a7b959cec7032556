"""Abstract syntax for guarded lambda-calculus terms and types.

Terms and types are immutable trees.  Binders are named; capture is
avoided by on-demand freshening (primes appended to the clashing
name), so two runs over the same input produce identical trees.
Equality of trees is object identity; the meaningful comparisons are
``alpha_eq`` and ``type_alpha_eq``.

A natural number is one ``Num`` node holding its value, one node per
value (``numeral``), however large.  A numeral is a ``Num`` and nothing
else: ``Succ`` of a ``Num`` builds the next numeral, so no ``Succ`` node
has a numeral body.

The three binder-with-substitution forms ``prev``/``box``/``boxp``
carry an explicit substitution: an ordered list of (variable, term)
pairs.  The listed variables are bound in the body and nowhere else;
term substitution lands in the listed terms only and never touches
the body.

Each class statement declares its class's fields once, in order, with
what each holds: ``class Lam(Term, var=BINDER, annot=TYPE, body=TERM)``.
A field holds one of six kinds: a subterm, a binder, an explicit
substitution, a type, a variable occurrence, or other data.  From that
line the class gets its constructor, ``__match_args__`` and
``__slots__``, and ``SHAPES`` (term classes) or ``TYPE_SHAPES`` (type
classes) gets its entry.  The structural term traversals (``subst``,
``erase``, ``alpha_eq``) loop over ``SHAPES``; ``free_type_vars``,
``type_subst``, ``type_alpha_eq`` and the type predicates and metrics
of glam.typecheck loop over ``TYPE_SHAPES``.

No node has an instance dict: its other slots, which ``Term`` and
``Type`` declare, hold the facts recorded on it, and a slot that a class
body lists is a mark, False until set.  A term's constructor stores
``loc`` and ``_fv``, its free variables, joined from its subterms' by
the kinds of their fields.  glam.typecheck records a closed term's
``_ty`` and ``_el`` (its type, and its elaborated node or None),
glam.denot its ``_sem`` (its denotation by stage), and glam.frontend
the mark ``_fix`` on ``fix[T]``'s ``App``.  On a type,
``free_type_vars`` records ``_ftv``, and glam.typecheck ``_wf`` and
``_unfold``.  Equal ``_fv`` sets are one frozenset, shared through a
process-wide table that, like the numeral table, never shrinks.
"""

from __future__ import annotations

import operator
from typing import Optional

from .errors import nesting_guard

# ---------------------------------------------------------------------------
# The six field kinds, and the classes they declare

TERM = "term"  # a subterm
BINDER = "binder"  # a variable name bound in the next subterm
SUBST = "subst"  # an explicit substitution: its names alone scope the next subterm
TYPE = "type"  # a term's type annotation (None when absent), or a type's subtype
VAR = "var"  # a variable occurrence: the name is free in the node
DATA = "data"  # other data: a primitive or type variable name

# Each term class's fields in order, loc left out, with what each field
# holds.  The machine plugs contexts with it.
SHAPES: dict = {}

# Each type class's fields that hold subtypes, in order (Mu.var and
# TVar.name are data).
TYPE_SHAPES: dict = {}

# how a constructor stores a field of each kind; a field of any other
# kind is stored as given
_STORE = {SUBST: "tuple(tuple(p) for p in {})"}

_EMPTY = frozenset()
_FVS: dict = {}  # one shared _fv object per free-variable set
# the generated code's locals start with "_", so that no field name hides them
_JOIN = "if _p and _p is not _fv: _fv = _fv | _p if _fv else _p"  # shares a set where it can


def _term_facts(shape: dict) -> list:
    """The lines that a term constructor runs after storing the fields
    in shape: they store ``_fv``, the table's copy of the joined set."""
    lines = ["_fv = _EMPTY"]
    scope = None  # a binder field, or SUBST, scoping the next subterm
    for f, kind in shape.items():
        if kind is TERM:
            if scope is None:
                lines += [f"_p = {f}._fv", _JOIN]
            elif scope is not SUBST:  # a body under a substitution sees only its names
                lines += [f"_p = {f}._fv", f"if {scope} in _p: _p = _p - {{{scope}}}", _JOIN]
            scope = None
        elif kind is BINDER:
            scope = f
        elif kind is SUBST:
            lines += [f"for _, _u in self.{f}:", "    _p = _u._fv", "    " + _JOIN]
            scope = SUBST
        elif kind is VAR:
            lines += [f"_p = frozenset(({f},))", _JOIN]
    lines.append("_set__fv(self, _FVS.setdefault(_fv, _fv))")
    return lines


def _declare(cls, shape: dict, loc: bool, lines=()) -> None:
    """Give cls a constructor over the fields in shape, then loc=None if
    loc, that stores them and then runs lines."""
    fields = tuple(shape)
    params = ", ".join(("self",) + fields + (("loc=None",) if loc else ()))
    # straight-line stores through each slot's descriptor (_set_x stores
    # x): a loop, or object.__setattr__, builds nodes slower
    stores = [f"_set_{f}(self, {_STORE.get(k, '{}').format(f)})" for f, k in shape.items()]
    stores += ["_set_loc(self, loc)"] if loc else []
    stores += [*lines, *(f"_set_{m}(self, False)" for m in cls.__slots__[len(shape):])]  # marks
    ns = {f"_set_{x}": getattr(cls, x).__set__ for x in cls.__slots__ + cls.__base__.__slots__}
    ns.update(_EMPTY=_EMPTY, _FVS=_FVS, __name__=__name__)
    exec(f"def __init__({params}):\n    " + ("\n    ".join(stores) or "pass"), ns)
    ns["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = ns["__init__"]
    cls.__match_args__ = fields


class _Declared(type):
    """A term or type class's slots: its fields, then those its body lists."""
    def __new__(mcs, name, bases, ns, /, **shape):  # a field may be called name
        ns["__slots__"] = (*shape, *ns.get("__slots__", ()))
        return super().__new__(mcs, name, bases, ns, **shape)


def _frozen(self, name, value=None):
    raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")


# ---------------------------------------------------------------------------
# Types

# mu-types, |> (later) and # (constant/box) modalities on top of the
# simply typed skeleton.  Well-formedness (guardedness of mu, closedness
# under #) lives in glam.typecheck, not here.


class Type(metaclass=_Declared):
    __slots__ = ("_ftv", "_wf", "_unfold")

    def __init_subclass__(cls, **shape):
        _declare(cls, shape, loc=False)
        TYPE_SHAPES[cls] = tuple(f for f, kind in shape.items() if kind is TYPE)

    __setattr__ = __delattr__ = _frozen

    def __repr__(self) -> str:
        # repr mirrors the surface syntax; the real printer is in glam.frontend
        from . import frontend

        return f"<Type {frontend.pretty_type(self)}>"


class TVar(Type, name=DATA): ...
class Nat(Type): ...
class Unit(Type): ...
class Void(Type): ...
class Prod(Type, left=TYPE, right=TYPE): ...
class Sum(Type, left=TYPE, right=TYPE): ...
class Arrow(Type, dom=TYPE, cod=TYPE): ...
class Mu(Type, var=DATA, body=TYPE): ...
class Later(Type, body=TYPE): ...
class Box(Type, body=TYPE): ...


NAT = Nat()
UNIT = Unit()
VOID = Void()


# ---------------------------------------------------------------------------
# Terms
#
# A term also carries loc, its (line, col) in the source or None.  loc
# is not in the shape: the traversals never compare it.


class Term(metaclass=_Declared):
    __slots__ = ("loc", "_fv", "_sem", "_ty", "_el")

    def __init_subclass__(cls, **shape):
        _declare(cls, shape, loc=True, lines=_term_facts(shape))
        SHAPES[cls] = tuple(shape.items())

    __setattr__ = __delattr__ = _frozen

    def __repr__(self) -> str:
        from . import frontend

        return f"<Term {frontend.pretty(self)}>"


class Var(Term, name=VAR): ...
class Num(Term, n=DATA): ...  # the numeral n, succ^n zero as one node


class Succ(Term, body=TERM):
    def __new__(cls, body, loc=None):
        # succ of a numeral is the next numeral; a located one is a node of its own
        if body.__class__ is Num:
            return numeral(body.n + 1) if loc is None else Num(body.n + 1, loc=loc)
        return object.__new__(cls)


class UnitVal(Term): ...
class Pair(Term, left=TERM, right=TERM): ...
class Proj1(Term, body=TERM): ...
class Proj2(Term, body=TERM): ...
class Abort(Term, annot=TYPE, body=TERM): ...
class In1(Term, annot=TYPE, body=TERM): ...  # annot is the full sum type, when given
class In2(Term, annot=TYPE, body=TERM): ...
class Case(Term, scrut=TERM, var1=BINDER, arm1=TERM, var2=BINDER, arm2=TERM): ...
class Lam(Term, var=BINDER, annot=TYPE, body=TERM): ...
class App(Term, fun=TERM, arg=TERM): __slots__ = ("_fix",)  # a mark: False unless fix[T]
class Fold(Term, annot=TYPE, body=TERM): ...  # annot is a mu-type, when given
class Unfold(Term, body=TERM): ...
class Next(Term, body=TERM): ...
class Prev(Term, subst=SUBST, body=TERM): ...
class LaterApp(Term, fun=TERM, arg=TERM): ...  # the applicative action of |>, written t <*> u
class BoxI(Term, subst=SUBST, body=TERM): ...  # box sigma. t
class Unbox(Term, body=TERM): ...
class BoxSum(Term, subst=SUBST, body=TERM): ...  # boxp sigma. t


class Prim(Term, name=DATA, left=TERM, right=TERM):
    """A saturated application of a binary built-in function symbol.

    The frontend eta-expands unsaturated occurrences, so every Prim
    node carries both operands.
    """


class Ascribe(Term, body=TERM, annot=TYPE): ...


# The built-in function symbols, all binary at Nat, each with its
# meaning on Python ints.  The machine's delta rule, the denotation and
# the BDE oracle all compute with it.
PRIMITIVES = {"addN": operator.add, "mulN": operator.mul}


def _shape(t) -> tuple:
    try:
        return SHAPES[t.__class__]
    except KeyError:
        raise TypeError(f"not a term: {t!r}") from None


# ---------------------------------------------------------------------------
# Numerals


_NUMERALS: dict = {}


def numeral(n: int) -> Term:
    """succ^n zero, as one ``Num`` node shared by every caller.

    Every call with n returns the same node, so its memos are filled in
    once and seen by every later use, the machine's delta rule
    included.  The table is process-wide and never shrinks: it holds
    one node per value built so far, whatever its size.
    """
    return _NUMERALS.get(n) or _NUMERALS.setdefault(n, Num(n))


def numeral_value(t: Term) -> Optional[int]:
    """The n with t = succ^n zero, or None if t is not a numeral."""
    return t.n if t.__class__ is Num else None


# ---------------------------------------------------------------------------
# Free variables


def free_vars(t: Term) -> frozenset:
    """Free term variables of t, computed when t was built.

    The bodies of prev/box/boxp contribute nothing (their variables are
    bound by the explicit substitution list); the listed terms
    contribute normally.
    """
    return t._fv


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
    fv = t._fv
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
        out.append(v)
    return t.__class__(*out, loc=t.loc)


def _subst_under(x: str, body: Term, m: dict):
    """Substitute under a binder x, renaming x if it would capture."""
    m2 = m if x not in m else {k: v for k, v in m.items() if k != x}
    if not m2 or not _applicable(m2, body):
        return x, body
    avoid = set()
    bfv = body._fv
    for k, v in m2.items():
        if k in bfv:
            avoid |= v._fv
    if x in avoid:
        xn = fresh_name(x, avoid | bfv | set(m2))
        body = _subst(body, {x: Var(xn)})
        x = xn
    return x, _subst(body, m2)


# ---------------------------------------------------------------------------
# Annotation erasure


@nesting_guard
def erase(t: Term) -> Term:
    """Strip ascriptions and all type annotations.

    Subtrees that are already bare are returned unchanged, so erasing
    an erased term is the identity (and preserves sharing).  Rebuilt
    nodes carry no source location.
    """
    return _erase(t)


def _erase(t: Term) -> Term:
    if t.__class__ is Ascribe:
        return _erase(t.body)
    out = []
    changed = False
    for name, kind in _shape(t):
        v = getattr(t, name)
        if kind is TERM:
            v2 = _erase(v)
        elif kind is TYPE:
            v2 = None
        elif kind is SUBST:
            v2 = tuple((x, _erase(u)) for x, u in v)
        else:
            v2 = v
        # terms compare by identity, so equal tuples hold the same nodes
        changed = changed or v2 != v
        out.append(v2)
    return t.__class__(*out) if changed else t


# ---------------------------------------------------------------------------
# Alpha-equivalence


@nesting_guard
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
    if t is u and (envt == envu or not t._fv):
        return True
    if t.__class__ is not u.__class__:
        return False
    if t.__class__ is Var:
        return envt.get(t.name, t.name) == envu.get(u.name, u.name)
    scope = None  # the next subterm's binders in t and in u, and the environments they extend
    for name, kind in _shape(t):
        v = getattr(t, name)
        w = getattr(u, name)
        if kind is TERM:
            ok = _aeq(v, w, envt, envu, ctr) if scope is None else _aeq_under(*scope, v, w, ctr)
            if not ok:
                return False
            scope = None
        elif kind is BINDER:
            scope = ((v,), (w,), envt, envu)
        elif kind is SUBST:
            if len(v) != len(w):
                return False
            for (_, v1), (_, w1) in zip(v, w):
                if not _aeq(v1, w1, envt, envu, ctr):
                    return False
            # the listed variables are the only bindings visible in the body
            scope = ([x for x, _ in v], [y for y, _ in w], {}, {})
        elif kind is TYPE:
            if not _annot_eq(v, w):
                return False
        elif v != w:
            return False
    return True


def _aeq_under(xs, ys, envt, envu, b1, b2, ctr):
    envt = dict(envt)
    envu = dict(envu)
    for x, y in zip(xs, ys):
        ctr[0] += 1
        envt[x] = ctr[0]
        envu[y] = ctr[0]
    return _aeq(b1, b2, envt, envu, ctr)


# ---------------------------------------------------------------------------
# Types: free variables, substitution, alpha-equivalence
#
# Facts about a type that hold in every context are cached on the node
# when first asked for.


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
