"""Finite-index denotational evaluation in the topos of trees.

A type denotes a family of sets indexed by positive integers with
restriction maps between consecutive stages; a closed term of type A
denotes, at stage i, an element of that family.  This module computes
those elements directly:

  * Nat, Unit and #-types denote constant families, represented by
    stage-independent values (restriction is the identity).  A natural
    number is a Python int, as on the need-machine.
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
nothing.

``f <*> x`` is demand-driven: at stage i+1 it denotes f and x and
returns a later value whose stage-i part, f's function applied to x's
value, is computed when it is first read (``_force``).  Guarded
recursion always recurses through ``<*>``, so a stream's later cells
are built only as far as an observation reads them, and a fixed point
built up the stages does not rebuild the whole stream at every stage.
The first read of such a part counts as one nested level of
``depth_limit`` below the reader and records how many levels below
the reader it reached; every later read charges that reach, as a memo
hit does.  A read outside ``den_term`` counts against the default
counter (``_SESSION``).

Guarded fixed points are built as the topos of trees builds them: the
fixed point of f : |>T -> T is f applied to the star at stage 1, and f
applied at stage k to its own value at stage k-1 above that.
``fix[T]`` is ``frontend.fix_term``, a guarded Turing combinator whose
App node carries the mark ``_fix``.  The App rule denotes a marked
node at stage i as the function ``_fixpoint``, which iterates f from
stage 1 up to the stage it is called at, so theta's lambdas and
``<*>``s are never denoted.  The node is closed, so the closed-subterm
memo keeps one such value per stage.  A closed application ``fix[T] f``
is memoized by stage as well, so where its stage i-1 is in the memo,
the App rule computes stage i as f applied at stage i to ``next`` of
that value, one call of f in place of i, and charges the entry as a
memo hit at the node: the caller's depth plus the entry's reach.  A
fixed point queried at ascending stages thus costs one call of f per
stage.  An unmarked copy of the term denotes the same elements by the
plain App rule, one unrolling of theta per stage; that path is the
reference the tests compare with.

Values are tagged and mu-types are transparent, so a value's shape
alone determines its restriction map (``restrict``): pairs and
injections restrict their parts, a later value drops a stage, a
function lowers its ceiling, and every other value is the same at
every stage.  Evaluation therefore needs no types; ``den_term``
type-checks its input once on entry.

Restricting a pair or an injection restricts its components, and
only |> shifts the stage ((|>X)(i+1) = X(i)), so a value's depth grows
with the stage only under |>.  ``restrict`` therefore rebuilds pairs
and injections at once and waits only under |>: a later value becomes
a shell that restricts its component when it is first read, so the
work of a restriction is bounded by the value's type, not its stage.
An environment is a plain dict of its variables' values at the stage
being denoted, never changed in place; moving it down a stage
(``_restrict_env``) restricts each entry and thus copies no stream
value, which has i cells at stage i.

Each term class has one hand-written rule in ``_RULES``; ``_den``
looks it up by class, after its depth accounting and closed-subterm
memo.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

from .errors import DepthExceeded, IndexZero, TypingError, nesting_guard
from .syntax import (
    NAT,
    PRIMITIVES,
    STREAM_G,
    Abort,
    App,
    Ascribe,
    BoxI,
    BoxSum,
    Case,
    Fold,
    In1,
    In2,
    Lam,
    LaterApp,
    Next,
    Num,
    Pair,
    Prev,
    Prim,
    Proj1,
    Proj2,
    Succ,
    Term,
    Type,
    Unbox,
    Unfold,
    UnitVal,
    Var,
)
from . import typecheck

DEFAULT_DEPTH = 10_000


# ---------------------------------------------------------------------------
# Semantic values


class SemVal:
    __slots__ = ()


class _Record(SemVal):
    """Pair, injection and later values, equal when their components are."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self.__match_args__
        return [getattr(self, f) for f in fields] == [getattr(other, f) for f in fields]


class SUnit(SemVal):
    __slots__ = ()


SUNIT = SUnit()


class SPair(_Record):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


class SIn(_Record):
    __slots__ = __match_args__ = ("tag", "val")

    def __init__(self, tag, val):
        self.tag = tag  # 1 or 2
        self.val = val


class SLaterStar(SemVal):
    """The unique stage-1 inhabitant of a later type."""

    __slots__ = ()


SLATERSTAR = SLaterStar()


class SLater(_Record):
    """An element of |>A at stage i+1: ``val``, A's element at stage i.

    The one value whose component may wait until it is read, in two
    forms.  A restriction shell holds its source ``_src`` and stage
    ``_cut`` (``restrict``); it caches its ``val`` unless the source is
    a ``<*>`` value, which it reads afresh so that every read is
    charged.  A ``<*>`` value holds a thunk ``_fn`` (``_force``).
    """

    __match_args__ = ("val",)
    _src = _fn = _val = None  # set on the lazy forms only

    def __init__(self, val):
        self.val = val

    def __getattr__(self, name):  # val, on a lazy form
        if name != "val":
            raise AttributeError(name)
        src = self._src
        if src is None:
            return _force(self)
        val = restrict(src.val, self._cut - 1)
        if src._val is None:  # read just above, a <*> source has its entry
            self.val = val
        return val


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
    """A global element of a #-type: a memoized family j -> value at j.

    A hit counts the depth its entry's computation reached against the
    running ``depth_limit``, as ``_den``'s closed-subterm memo does
    (``_recall``).
    """

    __slots__ = ("fn", "_memo")

    def __init__(self, fn):
        self.fn = fn
        self._memo = {}

    def at(self, j: int) -> SemVal:
        st = _SESSION.get()
        return _recall(st, self._memo, j, st.depth, self.fn, j)


def _force(w: SLater) -> SemVal:
    """The ``val`` of a later value w made by ``<*>``.  The first read
    runs w's thunk one level below the reader, stores the memo entry
    and drops the thunk; every later read charges the entry."""
    st = _SESSION.get()
    d = w.__dict__
    val = _recall(st, d, "_val", st.depth + 1, w._fn)
    d.pop("_fn", None)
    return val


# ---------------------------------------------------------------------------
# Restriction maps


def restrict(v: SemVal, j: int) -> SemVal:
    """Restrict v from its own stage down to stage j, by v's shape.

    Only a later value waits: cut to stage 1 it is the star, and cut to
    any other stage it becomes a shell over v with cut j, whose ``val``
    is restricted when first read.  Restricting a shell again cuts its
    source once more, since restricting to j and then to k is
    restricting to min(j, k).  A pair or injection restricts its
    components at once and a function lowers its ceiling to j, so the
    work is bounded by v's type, whatever v's stage or depth.  Every
    other value is the same at every stage.
    """
    if j < 1:
        raise IndexZero(f"restriction to stage {j}")
    cls = v.__class__
    if cls is SPair:
        return SPair(restrict(v.left, j), restrict(v.right, j))
    if cls is SIn:
        return SIn(v.tag, restrict(v.val, j))
    if cls is SLater:
        if j == 1:
            return SLATERSTAR
        if v._src is not None:
            if v._cut <= j:
                return v
            v = v._src
        w = object.__new__(SLater)
        w._src = v
        w._cut = j
        return w
    if cls is SFun:
        return SFun(v.fn, min(v.ceiling, j))
    return v


# ---------------------------------------------------------------------------
# Environments


def _restrict_env(env: dict, i: int, j: int) -> dict:
    """The stage-i environment env restricted to stage j <= i; each
    entry costs work bounded by its type (``restrict``)."""
    if j == i:
        return env
    assert j < i, "environments only restrict downward"
    return {x: restrict(v, j) for x, v in env.items()}


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


@contextmanager
def _session(depth_limit):
    """Run the block with a fresh depth counter of its own."""
    token = _SESSION.set(_Sess(depth_limit))
    try:
        yield
    finally:
        _SESSION.reset(token)


def _recall(st: _Sess, memo: dict, key, level: int, fn, *args):
    """memo[key]'s value.  An entry is (value, reach), how many levels
    below the caller's depth its computation went.  A miss runs
    fn(*args) at nesting level ``level`` and stores the entry; a hit
    counts the reach against the limit, as recomputing it would."""
    hit = memo.get(key)
    if hit is not None:
        level = st.depth + hit[1]
    if level > st.limit:
        raise DepthExceeded(f"denotation recursion deeper than {st.limit}")
    if hit is not None:
        if level > st.peak:
            st.peak = level
        return hit[0]
    base, outer_peak = st.depth, st.peak
    st.depth = st.peak = level
    try:
        val = fn(*args)
        memo[key] = (val, st.peak - base)
    finally:
        st.depth = base
        if outer_peak > st.peak:
            st.peak = outer_peak
    return val


# ---------------------------------------------------------------------------
# Term denotation


@nesting_guard
def den_term(
    ctx,
    t: Term,
    a: Type,
    i: int,
    env: dict | None = None,
    depth_limit: int = DEFAULT_DEPTH,
    elaborated: bool = False,
) -> SemVal:
    """The element of [[a]] at stage i denoted by ctx |- t : a.

    ``env`` is a dict mapping every context variable to its value at
    stage i; omitted for closed terms.  t is type-checked against a
    first, unless ``elaborated`` says it already has been (e.g. a
    reduct of an elaborated term).

    One level of ``depth_limit`` is one nested ``_den`` call: a
    subterm's denotation inside its parent's, or a function body's
    inside the call that applies the function.  A memo hit counts the
    levels its computation reached, as recomputing it would.

    The later parts of the returned value that ``<*>`` made are
    computed when first read (see the module docstring).  Read after
    ``den_term`` returns, they count against the default depth counter
    with its limit ``DEFAULT_DEPTH``, not against ``depth_limit``, and
    at the caller's recursion limit, not under ``nesting_guard``;
    ``den_take`` reads its cells under both.
    """
    if i < 1:
        raise IndexZero(f"denotation at stage {i}")
    t2 = t if elaborated else typecheck.elaborate(dict(ctx), t, a)[0]
    with _session(depth_limit):
        return _den(t2, i, env if env is not None else {})


def _den(t: Term, i: int, env: dict) -> SemVal:
    """The denotation of t at stage i, counted against the depth limit.

    A closed subterm denotes the same element at a given stage wherever
    it occurs, so its value is memoized on the (immutable, shared) node
    by stage; the node's ``_fv``, stored when it was built, tells whether
    it is closed.  Consecutive reducts of a term share almost all of
    their closed subtrees.  Each entry also records how deep below its
    caller its computation recursed, and a hit counts that depth against
    ``depth_limit`` as recomputing the entry would (``_recall``).  Box
    values (``SGlobal``) and ``<*>`` values (``_force``) keep their memos
    through the same helper, so a warm evaluation is exactly as deep as
    a cold one.
    """
    try:
        rule = _RULES[t.__class__]
    except KeyError:
        raise TypeError(f"not a term: {t!r}") from None
    st = _SESSION.get()
    depth = st.depth + 1
    if depth > st.limit:
        raise DepthExceeded(f"denotation recursion deeper than {st.limit}")
    if t._fv:
        if depth > st.peak:
            st.peak = depth
        st.depth = depth
        try:
            return rule(t, i, env)
        finally:
            st.depth = depth - 1
    memo = getattr(t, "_sem", None)
    if memo is None:
        object.__setattr__(t, "_sem", memo := {})
    return _recall(st, memo, i, depth, rule, t, i, {})


# ---------------------------------------------------------------------------
# The denotation rules, one per term class: rule(t, i, env) is the
# denotation of t at stage i.  Subterms go through _den.


def _body(t, i, env):
    # fold, unfold and ascription denote identities.  abort denotes the
    # map out of Void, which denotes the empty set at every stage: its
    # body has no element to denote, so well-typed input never gets here.
    return _den(t.body, i, env)


def _case(t, i, env):
    sv = _den(t.scrut, i, env)
    if sv.tag == 1:
        return _den(t.arm1, i, {**env, t.var1: sv.val})
    return _den(t.arm2, i, {**env, t.var2: sv.val})


def _lam(t, i, env):
    x, b = t.var, t.body

    def fn(j, arg):
        return _den(b, j, {**_restrict_env(env, i, j), x: arg})

    return SFun(fn, i)


def _next(t, i, env):
    if i == 1:
        return SLATERSTAR
    return SLater(_den(t.body, i - 1, _restrict_env(env, i, i - 1)))


def _later_app(t, i, env):
    if i == 1:
        return SLATERSTAR
    fv = _den(t.fun, i, env)
    av = _den(t.arg, i, env)
    w = object.__new__(SLater)
    w._fn = lambda: fv.val.call(i - 1, av.val)
    return w


def _prev(t, i, env):
    inner = _den(t.body, i + 1, _subst_env(t.subst, i, env))
    return inner.val  # i+1 >= 2, so never the stage-1 star


def _box(t, i, env):
    b, vals = t.body, _subst_env(t.subst, i, env)
    return SGlobal(lambda j: _den(b, j, vals))


def _box_sum(t, i, env):
    g = _box(t, i, env)
    tag = g.at(1).tag  # the tag is stage-independent by naturality
    return SIn(tag, SGlobal(lambda j: g.at(j).val))


def _app(t, i, env):
    """Application.  ``fix[T]`` itself denotes ``_fixpoint``, and a
    closed ``fix[T] f`` whose stage i-1 is in its memo denotes f applied
    at stage i to ``next`` of that value (see the module docstring)."""
    if t._fix:
        return SFun(_fixpoint, i)
    if t.fun.__class__ is App and t.fun._fix:
        prev = getattr(t, "_sem", {}).get(i - 1)
        if prev is not None:
            # charged as a memo hit at t would be: the caller is one level up
            st = _SESSION.get()
            level = st.depth - 1 + prev[1]
            if level > st.limit:
                raise DepthExceeded(f"denotation recursion deeper than {st.limit}")
            st.peak = max(st.peak, level)
            return _den(t.arg, i, env).call(i, SLater(prev[0]))
    return _den(t.fun, i, env).call(i, _den(t.arg, i, env))


def _fixpoint(j, f):
    """The fixed point of f : |>T -> T at stage j, built up the stages
    from the star at stage 1; ``_app`` starts from a memoized stage
    instead where it has one."""
    v = f.call(1, SLATERSTAR)
    for k in range(2, j + 1):
        v = f.call(k, SLater(v))
    return v


def _prim(t, i, env):
    return PRIMITIVES[t.name](_den(t.left, i, env), _den(t.right, i, env))


_RULES = {
    Var: lambda t, i, env: env[t.name],
    Num: lambda t, i, env: t.n,
    Succ: lambda t, i, env: _den(t.body, i, env) + 1,
    UnitVal: lambda t, i, env: SUNIT,
    Pair: lambda t, i, env: SPair(_den(t.left, i, env), _den(t.right, i, env)),
    Proj1: lambda t, i, env: _den(t.body, i, env).left,
    Proj2: lambda t, i, env: _den(t.body, i, env).right,
    Abort: _body,
    In1: lambda t, i, env: SIn(1, _den(t.body, i, env)),
    In2: lambda t, i, env: SIn(2, _den(t.body, i, env)),
    Case: _case,
    Lam: _lam,
    App: _app,
    Fold: _body,
    Unfold: _body,
    Next: _next,
    LaterApp: _later_app,
    Prev: _prev,
    BoxI: _box,
    Unbox: lambda t, i, env: _den(t.body, i, env).at(i),
    BoxSum: _box_sum,
    Prim: _prim,
    Ascribe: _body,
}


def _subst_env(sig, i, env):
    """Evaluate an explicit substitution at stage i.

    The substituted types are constant, so their stage-i values are
    also valid at any other stage (identity transport).
    """
    return {x: _den(u, i, env) for x, u in sig}


# ---------------------------------------------------------------------------
# Observations


def den_nat(
    t: Term, i: int, depth_limit: int = DEFAULT_DEPTH, elaborated: bool = False
) -> int:
    """The natural number denoted by a closed t : Nat at stage i
    (stage-independent: Nat is a constant type)."""
    return den_term({}, t, NAT, i, depth_limit=depth_limit, elaborated=elaborated)


@nesting_guard
def den_take(t: Term, i: int, depth_limit: int = DEFAULT_DEPTH):
    """The i-element approximation of a closed guarded stream of
    naturals, read from its denotation at stage i.

    A #-ed stream is unboxed first.  The cells are read under a depth
    counter with the same ``depth_limit``, so computing the later ones
    counts against it too.
    """
    try:
        v = den_term({}, t, STREAM_G, i, depth_limit=depth_limit)
    except TypingError as e:
        try:
            v = den_term({}, Unbox(t), STREAM_G, i, depth_limit=depth_limit)
        except TypingError:
            raise e from None  # t's own error, not the retry's
    out = []
    with _session(depth_limit):
        for j in range(i, 0, -1):
            out.append(v.left)
            if j > 1:
                v = v.right.val
            else:
                assert v.right is SLATERSTAR
    return out
