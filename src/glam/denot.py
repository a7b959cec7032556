"""Finite-index denotational evaluation in the topos of trees.

A type denotes a family of sets indexed by positive integers with
restriction maps between consecutive stages; a closed term of type A
denotes, at stage i, an element of that family.  This module computes
those elements directly:

  * Nat, Unit and #-types denote constant families, represented by
    stage-independent values (restriction is the identity).
  * |>A at stage 1 is the one-point set (SLaterStar); at stage i+1 it
    is A at stage i (SLater).
  * A -> B at stage i is represented by a callable together with its
    stage ceiling.  Calling at a stage above the ceiling clamps to the
    ceiling; that is exactly the inverse-restriction transport that
    exists for constant function types, and legitimate calls on
    non-constant functions never exceed the ceiling.
  * #A is a memoized family j -> (A at j) (a global element).
  * mu-types are transparent: a recursive type and its unfolding share
    representations, so fold/unfold denote identities.

``next t`` at stage i+1 is computed by evaluating t at stage i under
the restricted environment (equal to restricting the stage-i+1 value,
by naturality).  Stage 1 of any later type is trivial and evaluates
nothing, which is why every guarded fixed point unwinds in finitely
many steps here.

Input terms must be elaborated (every lambda domain-annotated); the
public entry points elaborate internally.
"""

from __future__ import annotations

import sys
from contextvars import ContextVar
from dataclasses import dataclass

from .errors import DepthExceeded, DenotError, IndexZero, TypingError
from .syntax import (
    NAT,
    PRIMITIVES,
    STREAM_G,
    Abort,
    App,
    Arrow,
    Ascribe,
    Box,
    BoxI,
    BoxSum,
    Case,
    Fold,
    In1,
    In2,
    Lam,
    Later,
    LaterApp,
    Mu,
    Nat,
    Next,
    Pair,
    Prev,
    Prim,
    Prod,
    Proj1,
    Proj2,
    Succ,
    Sum,
    TVar,
    Term,
    Type,
    Unbox,
    Unfold,
    Unit,
    UnitVal,
    Var,
    Void,
    Zero,
    free_vars,
)
from . import typecheck

sys.setrecursionlimit(max(sys.getrecursionlimit(), 100_000))

DEFAULT_DEPTH = 10_000


# ---------------------------------------------------------------------------
# Semantic values


class SemVal:
    __slots__ = ()


@dataclass(frozen=True)
class SNat(SemVal):
    n: int


@dataclass(frozen=True)
class SUnit(SemVal):
    pass


SUNIT = SUnit()


@dataclass(frozen=True)
class SPair(SemVal):
    left: SemVal
    right: SemVal


@dataclass(frozen=True)
class SIn(SemVal):
    tag: int  # 1 or 2
    val: SemVal


@dataclass(frozen=True)
class SLaterStar(SemVal):
    """The unique stage-1 inhabitant of a later type."""


SLATERSTAR = SLaterStar()


@dataclass(frozen=True)
class SLater(SemVal):
    val: SemVal  # at one stage lower


class SFun(SemVal):
    """An element of an exponential at some stage (its ceiling).

    ``fn(j, a)`` gives the j-th component applied to a; naturality of
    the represented tuple is the caller's obligation.  Calls above the
    ceiling clamp to it (sound only on constant function types, where
    clamping realizes the inverse restriction; see module docstring).
    """

    __slots__ = ("fn", "ceiling")

    def __init__(self, fn, ceiling: int):
        self.fn = fn
        self.ceiling = ceiling

    def call(self, j: int, a: SemVal) -> SemVal:
        return self.fn(min(j, self.ceiling), a)


class SGlobal(SemVal):
    """A global element of a #-type: a memoized family j -> value at j."""

    __slots__ = ("fn", "_memo")

    def __init__(self, fn):
        self.fn = fn
        self._memo = {}

    def at(self, j: int) -> SemVal:
        v = self._memo.get(j)
        if v is None:
            v = self.fn(j)
            self._memo[j] = v
        return v


# ---------------------------------------------------------------------------
# Restriction maps


def _mu_unfold(a: Mu) -> Type:
    return typecheck._mu_unfold(a)


def restrict(a: Type, i: int, v: SemVal) -> SemVal:
    """The restriction map of [[a]] from stage i+1 down to stage i."""
    if i < 1:
        raise IndexZero(f"restriction to stage {i}")
    match a:
        case Nat() | Unit() | Box(_):
            return v
        case Prod(l, r):
            return SPair(restrict(l, i, v.left), restrict(r, i, v.right))
        case Sum(l, r):
            comp = l if v.tag == 1 else r
            return SIn(v.tag, restrict(comp, i, v.val))
        case Arrow(_, _):
            return SFun(v.fn, min(v.ceiling, i))
        case Later(b):
            if i == 1:
                return SLATERSTAR
            return SLater(restrict(b, i - 1, v.val))
        case Mu(_, _):
            return restrict(_mu_unfold(a), i, v)
        case Void() | TVar(_):
            raise DenotError(f"no elements to restrict at {a!r}")
        case _:
            raise TypeError(f"not a type: {a!r}")


def restrict_to(a: Type, i: int, j: int, v: SemVal) -> SemVal:
    """Compose restrictions from stage i down to stage j <= i."""
    if i == j or typecheck.is_constant(a):
        return v
    for k in range(i - 1, j - 1, -1):
        v = restrict(a, k, v)
    return v


# ---------------------------------------------------------------------------
# Environments


class SemEnv:
    """Variable environment at a fixed stage: name -> (type, value)."""

    __slots__ = ("index", "items")

    def __init__(self, index: int, items=None):
        self.index = index
        self.items = dict(items) if items else {}

    def bind(self, x: str, ty: Type, v: SemVal) -> "SemEnv":
        out = SemEnv(self.index, self.items)
        out.items[x] = (ty, v)
        return out

    def at_index(self, j: int) -> "SemEnv":
        if j == self.index:
            return self
        assert j < self.index, "environments only restrict downward"
        out = SemEnv(j)
        out.items = {
            x: (ty, restrict_to(ty, self.index, j, v))
            for x, (ty, v) in self.items.items()
        }
        return out

    def ctx(self) -> dict:
        return {x: ty for x, (ty, _) in self.items.items()}


class _Sess:
    __slots__ = ("depth", "peak", "limit")

    def __init__(self, limit):
        self.depth = 0
        self.peak = 0  # deepest level reached inside the current memo entry
        self.limit = limit


# The running evaluation's depth counter.  It is looked up when a
# denotation is computed, not captured by the closures of SFun and
# SGlobal values: the memo below hands those values to later
# evaluations, which must count their calls against their own limit.
# Calls made outside den_term (such as SGlobal.at on a returned value)
# share the default counter.
_SESSION: ContextVar[_Sess] = ContextVar("denot_session", default=_Sess(DEFAULT_DEPTH))


# ---------------------------------------------------------------------------
# Term denotation


def den_term(
    ctx,
    t: Term,
    a: Type,
    i: int,
    env: SemEnv | None = None,
    depth_limit: int = DEFAULT_DEPTH,
    elaborated: bool = False,
) -> SemVal:
    """The element of [[a]] at stage i denoted by ctx |- t : a.

    ``env`` must supply a (type, value) pair at stage i for every
    context variable; omitted for closed terms.  ``elaborated`` skips
    the internal elaboration pass for terms already carrying their
    annotations (e.g. reducts of an elaborated term).
    """
    if i < 1:
        raise IndexZero(f"denotation at stage {i}")
    t2 = t if elaborated else typecheck.elaborate(dict(ctx), t, a)[0]
    env = env if env is not None else SemEnv(i)
    token = _SESSION.set(_Sess(depth_limit))
    try:
        return _den(t2, i, env)
    finally:
        _SESSION.reset(token)


def _den(t: Term, i: int, env: SemEnv) -> SemVal:
    """The denotation of t at stage i, counted against the depth limit.

    A closed subterm denotes the same element at a given stage wherever
    it occurs, so its value is memoized on the (immutable, shared) node
    by stage, as ``free_vars`` caches ``_fv``; consecutive reducts of a
    term share almost all of their closed subtrees.  Each entry also
    records how deep below the node its computation recursed, and a
    hit counts that depth against ``depth_limit`` as recomputing the
    entry would.  (Box values keep their own per-stage memo, as before,
    so one shared through this memo can make a warm evaluation
    shallower than a cold one, never deeper.)
    """
    st = _SESSION.get()
    depth = st.depth + 1
    if depth > st.limit:
        raise DepthExceeded(f"denotation recursion deeper than {st.limit}")
    try:
        fv = t._fv
    except AttributeError:
        fv = free_vars(t)
    if fv:
        if depth > st.peak:
            st.peak = depth
        st.depth = depth
        try:
            return _den1(t, i, env)
        finally:
            st.depth = depth - 1
    try:
        memo = t._sem
    except AttributeError:
        memo = {}
        object.__setattr__(t, "_sem", memo)
    hit = memo.get(i)
    if hit is not None:
        v, reach = hit
        if depth + reach > st.limit:
            raise DepthExceeded(f"denotation recursion deeper than {st.limit}")
        if depth + reach > st.peak:
            st.peak = depth + reach
        return v
    outer_peak = st.peak
    st.depth = st.peak = depth
    try:
        v = _den1(t, i, SemEnv(i))
        memo[i] = (v, st.peak - depth)
    finally:
        st.depth = depth - 1
        if outer_peak > st.peak:
            st.peak = outer_peak
    return v


def _den1(t: Term, i: int, env: SemEnv) -> SemVal:
    match t:
        case Var(x):
            return env.items[x][1]
        case Zero():
            return SNat(0)
        case Succ(b):
            return SNat(_den(b, i, env).n + 1)
        case UnitVal():
            return SUNIT
        case Pair(l, r):
            return SPair(_den(l, i, env), _den(r, i, env))
        case Proj1(b):
            return _den(b, i, env).left
        case Proj2(b):
            return _den(b, i, env).right
        case Abort(_, _):
            raise DenotError("abort evaluated: the empty type has no elements")
        case In1(_, b):
            return SIn(1, _den(b, i, env))
        case In2(_, b):
            return SIn(2, _den(b, i, env))
        case Case(s, x1, a1, x2, a2):
            ts = typecheck.infer(env.ctx(), s)
            sv = _den(s, i, env)
            if sv.tag == 1:
                return _den(a1, i, env.bind(x1, ts.left, sv.val))
            return _den(a2, i, env.bind(x2, ts.right, sv.val))
        case Lam(x, dom, b):
            if dom is None:
                raise DenotError("denotation needs elaborated (annotated) lambdas")

            def fn(j, arg, _b=b, _x=x, _dom=dom, _env=env):
                return _den(_b, j, _env.at_index(j).bind(_x, _dom, arg))

            return SFun(fn, i)
        case App(f, a):
            fv = _den(f, i, env)
            return fv.call(i, _den(a, i, env))
        case Fold(_, b):
            return _den(b, i, env)
        case Unfold(b):
            return _den(b, i, env)
        case Next(b):
            if i == 1:
                return SLATERSTAR
            return SLater(_den(b, i - 1, env.at_index(i - 1)))
        case LaterApp(f, a):
            if i == 1:
                return SLATERSTAR
            fv = _den(f, i, env)
            av = _den(a, i, env)
            return SLater(fv.val.call(i - 1, av.val))
        case Prev(sig, b):
            inner = _den(b, i + 1, _subst_env(sig, i, i + 1, env))
            return inner.val  # i+1 >= 2, so never the stage-1 star
        case BoxI(sig, b):
            vals = _subst_env(sig, i, None, env)

            def fam(j, _b=b, _vals=vals):
                return _den(_b, j, SemEnv(j, _vals))

            return SGlobal(fam)
        case Unbox(b):
            return _den(b, i, env).at(i)
        case BoxSum(sig, b):
            vals = _subst_env(sig, i, None, env)
            g = SGlobal(lambda j, _b=b, _vals=vals: _den(_b, j, SemEnv(j, _vals)))
            tag = g.at(1).tag  # the tag is stage-independent by naturality
            return SIn(tag, SGlobal(lambda j, _g=g: _g.at(j).val))
        case Prim(name, args):
            vals = [_den(a, i, env).n for a in args]
            return SNat(PRIMITIVES[name].op(*vals))
        case Ascribe(b, _):
            return _den(b, i, env)
        case _:
            raise TypeError(f"not a term: {t!r}")


def _subst_env(sig, i, new_index, env):
    """Evaluate an explicit substitution at stage i.

    The substituted types are constant, so their stage-i values are
    also valid at any other stage (identity transport).  Returns the
    items dict, or a fresh SemEnv when new_index is given.
    """
    ctx = env.ctx()
    items = {}
    for x, u in sig:
        tu = typecheck.infer(ctx, u)
        items[x] = (tu, _den(u, i, env))
    if new_index is None:
        return items
    return SemEnv(new_index, items)


# ---------------------------------------------------------------------------
# Observations


def den_nat(
    t: Term, i: int, depth_limit: int = DEFAULT_DEPTH, elaborated: bool = False
) -> int:
    """The natural number denoted by a closed t : Nat at stage i
    (stage-independent: Nat is a constant type)."""
    return den_term({}, t, NAT, i, depth_limit=depth_limit, elaborated=elaborated).n


def den_take(t: Term, i: int, depth_limit: int = DEFAULT_DEPTH):
    """The i-element approximation of a closed guarded stream of
    naturals, read from its denotation at stage i.

    A #-ed stream is unboxed first.
    """
    try:
        v = den_term({}, t, STREAM_G, i, depth_limit=depth_limit)
    except TypingError as e:
        try:
            v = den_term({}, Unbox(t), STREAM_G, i, depth_limit=depth_limit)
        except TypingError:
            raise e from None  # t's own error, not the retry's
    out = []
    for j in range(i, 0, -1):
        out.append(v.left.n)
        if j > 1:
            v = v.right.val
        else:
            assert v.right is SLATERSTAR
    return out


# ---------------------------------------------------------------------------
# First-order semantic equality (for tests and cross-checks)


def sem_eq(a: Type, i: int, v: SemVal, w: SemVal) -> bool:
    """Equality of stage-i elements at first-order types.

    Function types are not enumerable and raise ValueError; #-types are
    compared on stages 1..max(i, 2).
    """
    match a:
        case Nat():
            return v.n == w.n
        case Unit():
            return True
        case Prod(l, r):
            return sem_eq(l, i, v.left, w.left) and sem_eq(r, i, v.right, w.right)
        case Sum(l, r):
            if v.tag != w.tag:
                return False
            return sem_eq(l if v.tag == 1 else r, i, v.val, w.val)
        case Later(b):
            if i == 1:
                return v is SLATERSTAR and w is SLATERSTAR
            return sem_eq(b, i - 1, v.val, w.val)
        case Box(b):
            return all(sem_eq(b, j, v.at(j), w.at(j)) for j in range(1, max(i, 2) + 1))
        case Mu(_, _):
            return sem_eq(_mu_unfold(a), i, v, w)
        case Arrow(_, _):
            raise ValueError("semantic equality undefined at function types")
        case Void() | TVar(_):
            raise ValueError(f"no elements at {a!r}")
        case _:
            raise TypeError(f"not a type: {a!r}")
