"""Deterministic call-by-name small-step evaluator and observations.

One iterative context search, ``_walk``, decomposes a closed term
into an evaluation context around the unique redex and, after each
contraction, goes on from the reduct with the same context stack
rather than from the root (refocusing).  ``step`` is its first move,
``trace`` plugs each of its contractions into the whole term, and
``eval_term`` counts them against the fuel.  ``step_rd`` is an
independent recursive-descent implementation used to cross-check
determinism.  Reduction ignores type annotations entirely;
``syntax.erase`` (importable from here too) strips annotations and
ascriptions so the reduction rules apply to the bare grammar.

Two evaluators share these reduction rules:

* the step-exact call-by-name reference: ``step``, ``step_rd``,
  ``trace``, ``eval_term``, ``observe_nat`` and ``observe_conat``.
  Each step is one contraction, so ``EvalOutcome.steps`` and the fuel
  count contractions of substitution-based call-by-name reduction,
  and duplicated arguments are re-evaluated at every use;
* a call-by-need evaluator with environments and updatable thunks,
  which serves ``take_stream`` (and through it ``glam take``,
  ``glam bde-run`` and the REPL ``:take``).  It shares work: an
  argument is evaluated at most once, and within one ``take_stream``
  a term met again with the same thunks for its free variables is
  evaluated once (a lazy memo function).  Its fuel counts the same
  rule firings, and a reused reduct fires none, so an observation
  needs no more fuel than on the reference.  The paper's adequacy
  result makes the two agree on every observation; tests/test_need.py
  checks both claims on the stream corpus and the BDE suite.

Redexes: projections of pairs, case-of-in, beta, unfold-of-fold,
prev with a non-empty substitution, prev-of-next, next<*>next,
unbox-of-box, boxp with a non-empty substitution, boxp-of-in, and the
delta rules for saturated primitives on numerals.

Evaluation contexts, one ``step_rd`` case per production (the hole is
its contraction at the root): hole | succ E, fst E, snd E, unfold E,
unbox E | prev E, boxp E (empty substitution) | case E | E t | E <*> t,
v <*> E | prim E t, prim v E.
"""

from __future__ import annotations

from .errors import FuelExhaustedError, StuckError, nesting_guard
from .frontend import pretty
from .syntax import (
    PRIMITIVES,
    SHAPES,
    Abort,
    App,
    Ascribe,
    Box,
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
    Sum,
    Term,
    Unbox,
    Unfold,
    UnitVal,
    Var,
    erase,
    numeral,
    numeral_value,
    subst,
)

DEFAULT_FUEL = 10**6


# ---------------------------------------------------------------------------
# Values and outcomes


_VALUE_CLASSES = frozenset(
    (Num, UnitVal, Pair, In1, In2, Lam, Fold, Next, BoxI)
)


def is_value(t: Term) -> bool:
    return t.__class__ in _VALUE_CLASSES or t._nv is not None  # succ 2 is a numeral


class EvalOutcome:
    __slots__ = ("term", "steps")

    def __init__(self, term: Term, steps: int):
        self.term = term
        self.steps = steps


class Value(EvalOutcome):
    pass


class FuelExhausted(EvalOutcome):
    pass


class Stuck(EvalOutcome):
    """Irreducible non-value; unreachable for well-typed closed input."""


# ---------------------------------------------------------------------------
# Root reduction rules


def _c_proj(t):
    b = t.body
    if b.__class__ is not Pair:
        return None
    return b.left if t.__class__ is Proj1 else b.right


def _c_case(t):
    s = t.scrut
    if s.__class__ is In1:
        return subst(t.arm1, {t.var1: s.body})
    if s.__class__ is In2:
        return subst(t.arm2, {t.var2: s.body})
    return None


def _c_app(t):
    f = t.fun
    if f.__class__ is Lam:
        return subst(f.body, {f.var: t.arg})
    return None


def _c_unfold(t):
    b = t.body
    return b.body if b.__class__ is Fold else None


def _c_prev(t):
    if t.subst:
        return Prev((), subst(t.body, dict(t.subst)))
    b = t.body
    return b.body if b.__class__ is Next else None


def _c_laterapp(t):
    if t.fun.__class__ is Next and t.arg.__class__ is Next:
        return Next(App(t.fun.body, t.arg.body))
    return None


def _c_unbox(t):
    b = t.body
    return subst(b.body, dict(b.subst)) if b.__class__ is BoxI else None


def _c_boxsum(t):
    if t.subst:
        return BoxSum((), subst(t.body, dict(t.subst)))
    b = t.body
    if b.__class__ is In1 or b.__class__ is In2:
        return b.__class__(_box_sum_ann(b.annot), BoxI((), b.body))
    return None


def _c_prim(t):
    m, n = t.left._nv, t.right._nv
    if m is None or n is None:
        return None
    return numeral(PRIMITIVES[t.name](m, n))


_CONTRACT = {
    Proj1: _c_proj,
    Proj2: _c_proj,
    Case: _c_case,
    App: _c_app,
    Unfold: _c_unfold,
    Prev: _c_prev,
    LaterApp: _c_laterapp,
    Unbox: _c_unbox,
    BoxSum: _c_boxsum,
    Prim: _c_prim,
}


def _contract(t: Term):
    """Apply a reduction rule at the root, or return None."""
    h = _CONTRACT.get(t.__class__)
    return h(t) if h is not None else None


def _box_sum_ann(ann):
    if isinstance(ann, Sum):
        return Sum(Box(ann.left), Box(ann.right))
    return None


# ---------------------------------------------------------------------------
# Context search (primary step implementation)

# The evaluation contexts: the fields each context class evaluates, in
# order.  The hole is in the first of them that is not a value.
_HOLES = {
    Succ: ("body",),
    Proj1: ("body",),
    Proj2: ("body",),
    Unfold: ("body",),
    Unbox: ("body",),
    Prev: ("body",),
    BoxSum: ("body",),
    Case: ("scrut",),
    App: ("fun",),
    LaterApp: ("fun", "arg"),
    Prim: ("left", "right"),
}


def _hole(t: Term):
    """The field of t holding the evaluation context's hole, or None."""
    for fld in _HOLES.get(t.__class__, ()):
        if not is_value(getattr(t, fld)):
            return fld
    return None


def _walk(t: Term):
    """The call-by-name reduction of t as one context search.

    The context stack is kept across contractions: the search goes on
    from the reduct, and climbs back out once the hole holds a value
    (refocusing).  Yields (frames, redex, reduct) for each contraction
    and, last, (frames, u, None) for the normal or stuck subterm u.  A
    frame is (parent node, field) as ``_set_child`` takes it; the
    frames are valid until the walk resumes.
    """
    frames = []
    cur = t
    while True:
        red = _contract(cur)
        if red is not None:
            yield frames, cur, red
            cur = red
            continue
        fld = _hole(cur)
        if fld is not None:
            frames.append((cur, fld))
            cur = getattr(cur, fld)
        elif frames and is_value(cur):
            parent, fld = frames.pop()
            cur = _set_child(parent, fld, cur)
        else:
            yield frames, cur, None
            return


def step(t: Term):
    """One call-by-name step, or None if no decomposition exists.

    None on a value means normal form; None on a non-value means the
    term is stuck (ill-typed or open).
    """
    frames, _, red = next(_walk(t))
    return None if red is None else _plug(frames, red)


def _set_child(parent: Term, fld, child: Term) -> Term:
    """A copy of the context node parent, with no location, holding
    child at the field fld."""
    out = []
    for name, _ in SHAPES[parent.__class__]:
        out.append(child if name == fld else getattr(parent, name))
    return parent.__class__(*out)


def _plug(frames, t: Term) -> Term:
    for parent, fld in reversed(frames):
        t = _set_child(parent, fld, t)
    return t


# ---------------------------------------------------------------------------
# Recursive descent (independent cross-check implementation)


def step_rd(t: Term):
    """One step by structural recursion on the evaluation-context grammar."""
    red = _contract(t)
    if red is not None:
        return red
    match t:
        case Succ() if numeral_value(t) is not None:  # a numeral is a value
            return None
        case Succ(b) | Proj1(b) | Proj2(b) | Unfold(b) | Unbox(b):
            r = step_rd(b)
            return None if r is None else t.__class__(r)
        case Prev((), b) | BoxSum((), b):
            r = step_rd(b)
            return None if r is None else t.__class__((), r)
        case Case(s, x1, a1, x2, a2):
            r = step_rd(s)
            return None if r is None else Case(r, x1, a1, x2, a2)
        case App(f, a):
            r = step_rd(f)
            return None if r is None else App(r, a)
        case LaterApp(f, a):
            if not is_value(f):
                r = step_rd(f)
                return None if r is None else LaterApp(r, a)
            if not is_value(a):
                r = step_rd(a)
                return None if r is None else LaterApp(f, r)
            return None
        case Prim(name, a, b):
            if not is_value(a):
                r = step_rd(a)
                return None if r is None else Prim(name, r, b)
            if not is_value(b):
                r = step_rd(b)
                return None if r is None else Prim(name, a, r)
            return None
        case _:
            return None


# ---------------------------------------------------------------------------
# Call-by-need evaluation (shared, updatable thunks)
#
# A lazy abstract machine in the style of Sestoft (JFP 1997): a term is
# evaluated in an environment mapping variables to thunks.  Arguments,
# case payloads and explicit-substitution entries become thunks, and a
# thunk is overwritten with its value the first time it is forced, so
# every later use shares that value.  Nothing is substituted and
# nothing is renamed.  The bodies of prev/box/boxp see only the
# variables of their explicit substitution, just as the reference
# machine's substitution never enters them.
#
# Lazy memo functions (Hughes, FPCA 1985): the thunks of arguments,
# explicit-substitution entries, box bodies, next f <*> next a results
# and beta reducts are hash-consed, one table per term node, keyed by
# the thunks of the node's free variables: the thunk itself for a node
# with one, their tuple for a node with several, () for a closed node
# (see _shared).  The calculus is pure, so equal keys mean equal
# values.  The unrolling of fix then ties into one shared closure, and
# a BDE call such as times(tail^a x, tail^b y) is evaluated once, not
# once per path of calls that reaches it.  The components of pair,
# fold, next and in values stay plain thunks: keying them too would
# keep every stream cell alive until take_stream returns.
#
# Values are Python ints for numerals and _Con cells for the other
# value forms: a Pair holds two thunks, In1/In2/Fold/Next/BoxI one,
# a Lam its term and environment, and () nothing.
#
# One fuel step is one firing of a reference reduction rule (beta,
# case, projection, unfold, prev, <*>, unbox, boxp, delta); reading a
# variable or a thunk that already holds its value costs nothing.


class _Thunk:
    __slots__ = ("term", "env", "value")

    def __init__(self, term=None, env=None, value=None):
        self.term = term
        self.env = env
        self.value = value  # None until forced


class _Con:
    __slots__ = ("kind", "a", "b")

    def __init__(self, kind, a, b=None):
        self.kind = kind  # the term class of the value form
        self.a = a
        self.b = b


_UNIT = _Con(UnitVal, None)

# Frame kinds besides the eliminators' term classes.
_UPDATE = object()  # (_UPDATE, thunk, None): store the value
_LATER_ARG = object()  # (_LATER_ARG, fun value, None): after t in f <*> t
_PRIM_ARG = object()  # (_PRIM_ARG, left value, name): after u in prim t u

# The value forms each eliminator frame takes apart.
_EXPECT = {
    App: (Lam,),
    Proj1: (Pair,),
    Proj2: (Pair,),
    Unfold: (Fold,),
    Prev: (Next,),
    Unbox: (BoxI,),
    Case: (In1, In2),
    BoxSum: (In1, In2),
}

# Observations of a stream value bound to s.
_UNBOX_S = Unbox(Var("s"))
_HEAD_S = Proj1(Unfold(Var("s")))
_TAIL_S = Proj2(Unfold(Var("s")))  # run under a prev frame
# The body of next f <*> next a, with f and a bound to the two thunks.
_APPLY_FA = App(Var("f"), Var("a"))


def _delay(t: Term, env: dict) -> _Thunk:
    if t.__class__ is Var:
        th = env.get(t.name)
        if th is not None:
            return th  # share the variable's thunk rather than wrap it
    return _Thunk(t, env)


def _shared(t: Term, env: dict, memo: dict) -> _Thunk:
    """The thunk of t in env, one per t and thunks of t's free variables.

    The value of t in env depends on nothing else, so a second such
    thunk would compute the same value: it is the first one.  ``memo``
    maps t to its own table, keyed by the thunk of t's free variable
    when it has one and by the tuple of their thunks otherwise (``()``
    when t is closed), so the common one-variable key is no tuple.
    """
    if t.__class__ is Var:
        th = env.get(t.name)
        if th is not None:
            return th
    table = memo.get(t)
    if table is None:
        table = memo[t] = {}
    fv = t._fv
    key = env.get(*fv) if len(fv) == 1 else tuple(map(env.get, fv))
    th = table.get(key)
    if th is None:
        th = table[key] = _Thunk(t, env)
    return th


def _sig_env(sig, env: dict, memo: dict) -> dict:
    return {x: _shared(u, env, memo) for x, u in sig}


def _is_next(v) -> bool:
    return v.__class__ is _Con and v.kind is Next


def _stuck(what: str):
    raise StuckError(f"stuck term: {what}")


def _form(v) -> str:
    return "numeral" if v.__class__ is int else v.kind.__name__


def _need(t: Term, env: dict, fuel: int, memo: dict, stack=None):
    """Evaluate t in env to a value, firing at most ``fuel`` rules.

    ``memo`` holds the shared thunks (see ``_shared``).  ``stack``
    may hold initial frames to apply to the value.  A frame is a triple
    (kind, x, y) whose kind is an eliminator's term class or one of
    _UPDATE, _LATER_ARG and _PRIM_ARG.
    """
    stack = stack if stack is not None else []
    steps = 0
    while True:
        # Evaluate t in env: either push a frame and go on with a
        # subterm, or reach a value v.
        c = t.__class__
        if c is Var:
            th = env.get(t.name)
            if th is None:
                _stuck(f"free variable {t.name}")
            v = th.value
            if v is None:
                stack.append((_UPDATE, th, None))
                t, env = th.term, th.env
                continue
        elif c is App:
            stack.append((App, _shared(t.arg, env, memo), None))
            t = t.fun
            continue
        elif c is Lam:
            v = _Con(Lam, t, env)
        elif c is Pair:
            v = _Con(Pair, _delay(t.left, env), _delay(t.right, env))
        elif c is Fold or c is Next or c is In1 or c is In2:
            v = _Con(c, _delay(t.body, env))
        elif c is Num:
            v = t.n
        elif c is UnitVal:
            v = _UNIT
        elif c is BoxI:
            v = _Con(BoxI, _shared(t.body, _sig_env(t.subst, env, memo), memo))
        elif c is Succ or c is Proj1 or c is Proj2 or c is Unfold or c is Unbox:
            stack.append((c, None, None))
            t = t.body
            continue
        elif c is Case:
            stack.append((Case, t, env))
            t = t.scrut
            continue
        elif c is Prev or c is BoxSum:
            if t.subst:  # applying the substitution is a step
                if steps >= fuel:
                    raise FuelExhaustedError(f"no value after {steps} steps")
                steps += 1
            stack.append((c, None, None))
            env = _sig_env(t.subst, env, memo)
            t = t.body
            continue
        elif c is LaterApp:
            stack.append((LaterApp, t.arg, env))
            t = t.fun
            continue
        elif c is Prim:
            stack.append((Prim, t, env))
            t = t.left
            continue
        elif c is Ascribe:
            t = t.body
            continue
        elif c is Abort:
            _stuck("abort")
        else:
            raise TypeError(f"not a term: {t!r}")

        # Return v to the frames until one has a term to evaluate.
        while True:
            if not stack:
                return v
            k, x, y = stack.pop()
            if k is _UPDATE:
                x.value, x.term, x.env = v, None, None
                continue
            if k is Succ:
                if v.__class__ is not int:
                    _stuck("succ of a non-numeral")
                v += 1
                continue
            if k is LaterApp:  # the function is a value; evaluate the argument
                stack.append((_LATER_ARG, v, None))
                t, env = x, y
                break
            if k is Prim:  # the left operand is a value; evaluate the right
                stack.append((_PRIM_ARG, v, x.name))
                t, env = x.right, y
                break
            if k is _PRIM_ARG:
                if x.__class__ is not int or v.__class__ is not int:
                    _stuck(f"{y} of a non-numeral")
            elif k is _LATER_ARG:
                if not (_is_next(x) and _is_next(v)):
                    _stuck("<*> of a non-next value")
            elif v.__class__ is not _Con or v.kind not in _EXPECT[k]:
                _stuck(f"{k.__name__} of a {_form(v)}")

            # A reduction rule fires.
            if steps >= fuel:
                raise FuelExhaustedError(f"no value after {steps} steps")
            steps += 1
            if k is _PRIM_ARG:
                v = PRIMITIVES[y](x, v)
                continue
            if k is _LATER_ARG:
                v = _Con(Next, _shared(_APPLY_FA, {"f": x.a, "a": v.a}, memo))
                continue
            if k is Case:
                if v.kind is In1:
                    env = {**y, x.var1: v.a}
                    t = x.arm1
                else:
                    env = {**y, x.var2: v.a}
                    t = x.arm2
                break
            if k is BoxSum:
                v = _Con(v.kind, _Thunk(value=_Con(BoxI, v.a)))
                continue
            if k is App:
                lam = v.a
                env = v.b.copy()
                env[lam.var] = x
                t = lam.body
                if t.__class__ in _VALUE_CLASSES:
                    break  # a value form costs no step: nothing to share
                th = _shared(t, env, memo)  # perhaps already forced
            else:  # Proj1, Proj2, Unfold, Prev, Unbox: force the component
                th = v.b if k is Proj2 else v.a
            v = th.value
            if v is None:
                stack.append((_UPDATE, th, None))
                t, env = th.term, th.env
                break


# ---------------------------------------------------------------------------
# Drivers


@nesting_guard
def eval_term(t: Term, fuel: int = DEFAULT_FUEL, pre_erase: bool = True) -> EvalOutcome:
    """Iterate step until a value or the fuel runs out."""
    if pre_erase:
        t = erase(t)
    steps = 0
    for frames, cur, red in _walk(t):
        if red is None:
            return (Value if is_value(cur) else Stuck)(_plug(frames, cur), steps)
        if steps >= fuel:
            return FuelExhausted(_plug(frames, cur), steps)
        steps += 1


def trace(t: Term, max_steps: int = DEFAULT_FUEL, pre_erase: bool = True):
    """The deterministic reduction sequence prefix, starting at t."""
    if pre_erase:
        t = erase(t)
    out = [t]
    walk = _walk(t)
    while len(out) <= max_steps:
        frames, _, red = next(walk)
        if red is None:
            break
        out.append(_plug(frames, red))
    return out


def _force_value(t: Term, fuel: int, pre_erase: bool = True) -> Term:
    out = eval_term(t, fuel, pre_erase)
    if isinstance(out, Stuck):
        raise StuckError(f"stuck term: {pretty(out.term)}")
    if isinstance(out, FuelExhausted):
        raise FuelExhaustedError(f"no value after {out.steps} steps")
    return out.term


@nesting_guard
def observe_nat(t: Term, fuel: int = DEFAULT_FUEL) -> int:
    """Erase a closed term of type Nat, evaluate it and decode the numeral."""
    v = _force_value(t, fuel)
    n = numeral_value(v)
    if n is None:
        raise StuckError(f"value is not a numeral: {pretty(v)}")
    return n


def take_stream(t: Term, n: int, fuel: int = DEFAULT_FUEL):
    """First n elements of a closed guarded stream of naturals.

    A #-ed (coinductive) stream is unboxed automatically.  Each head is
    read as fst (unfold s) and each tail as prev (snd (unfold s)), the
    observations the reference machine would reduce, but they run on
    the call-by-need evaluator: each argument, explicit-substitution
    entry and stream cell is evaluated at most once and then shared.
    Adequacy makes the elements those of call-by-name evaluation.

    One memo serves all observations of this call and is dropped when
    it returns.  It maps each term node to a table of its own, from the
    thunks of the node's free variables to the one thunk for that term
    there (see ``_shared``), so a reduct met again, say the same BDE
    call on the same stream tails, is not evaluated again.

    ``fuel`` bounds the rule firings of each observation (the initial
    force, the unboxing, each head, each tail), as it bounds each
    ``eval_term`` call; work an earlier observation did is not counted
    again.  Raises FuelExhaustedError or StuckError.
    """
    memo = {}
    cur = _need(t, {}, fuel, memo)
    if cur.__class__ is _Con and cur.kind is BoxI:
        cur = _need(_UNBOX_S, {"s": _Thunk(value=cur)}, fuel, memo)
    out = []
    for _ in range(n):
        env = {"s": _Thunk(value=cur)}
        head = _need(_HEAD_S, env, fuel, memo)
        if head.__class__ is not int:
            raise StuckError("stream head is not a numeral")
        out.append(head)
        cur = _need(_TAIL_S, env, fuel, memo, [(Prev, None, None)])
    return out


def observe_conat(t: Term, limit: int, fuel: int = DEFAULT_FUEL):
    """Decode a closed guarded conatural: (n, finished).

    finished is False when the budget ran out with the conatural still
    unfolding (e.g. infinity).
    """
    cur = _force_value(t, fuel)
    if isinstance(cur, BoxI):
        cur = Unbox(cur)
    n = 0
    while n < limit:
        v = _force_value(Unfold(cur), fuel, pre_erase=False)
        if isinstance(v, In1):
            return n, True
        if not isinstance(v, In2):
            raise StuckError("conatural unfolding is not an injection")
        cur = Prev((), v.body)
        n += 1
    return n, False
