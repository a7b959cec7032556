"""Deterministic call-by-name small-step evaluator and observations.

``step`` decomposes a closed term into an evaluation context around
the unique redex by an iterative context search; ``step_rd`` is an
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
  argument is evaluated at most once.  Its fuel counts the same rule
  firings, so an observation needs no more fuel than on the
  reference.  The paper's adequacy result makes the two agree on
  every observation; tests/test_need.py checks both claims on the
  stream corpus and the BDE suite.

Redexes: projections of pairs, case-of-in, beta, unfold-of-fold,
prev with a non-empty substitution, prev-of-next, next<*>next,
unbox-of-box, boxp with a non-empty substitution, boxp-of-in, and the
delta rules for saturated primitives on numerals.

Evaluation contexts: hole, succ E, fst E, snd E, case E, E t,
unfold E, prev E, E <*> t, v <*> E, unbox E, boxp E, and primitive
arguments left to right.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .errors import FuelExhaustedError, StuckError
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
    Zero,
    erase,
    numeral,
    numeral_value,
    subst,
)

# Substitution and term traversals recurse over deep spines (numerals,
# long reduction results); the default CPython limit is far too small.
sys.setrecursionlimit(max(sys.getrecursionlimit(), 100_000))

DEFAULT_FUEL = 10**6


# ---------------------------------------------------------------------------
# Values and outcomes


_VALUE_CLASSES = frozenset(
    (Zero, UnitVal, Pair, In1, In2, Lam, Fold, Next, BoxI)
)


def is_value(t: Term) -> bool:
    c = t.__class__
    if c in _VALUE_CLASSES:
        return True
    if c is Succ:
        return numeral_value(t) is not None
    return False


@dataclass(frozen=True)
class EvalOutcome:
    term: Term
    steps: int


class Value(EvalOutcome):
    pass


class FuelExhausted(EvalOutcome):
    pass


class Stuck(EvalOutcome):
    """Irreducible non-value; unreachable for well-typed closed input."""


# ---------------------------------------------------------------------------
# Root reduction rules


def _c_proj1(t):
    b = t.body
    return b.left if b.__class__ is Pair else None


def _c_proj2(t):
    b = t.body
    return b.right if b.__class__ is Pair else None


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
    if b.__class__ is In1:
        return In1(_box_sum_ann(b.annot), BoxI((), b.body))
    if b.__class__ is In2:
        return In2(_box_sum_ann(b.annot), BoxI((), b.body))
    return None


def _c_prim(t):
    vals = []
    for a in t.args:
        n = numeral_value(a)
        if n is None:
            return None
        vals.append(n)
    return numeral(PRIMITIVES[t.name].op(*vals))


_CONTRACT = {
    Proj1: _c_proj1,
    Proj2: _c_proj2,
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


def step(t: Term):
    """One call-by-name step, or None if no decomposition exists.

    None on a value means normal form; None on a non-value means the
    term is stuck (ill-typed or open).
    """
    frames = []  # (parent node, field name) or (parent, ("args", i))
    cur = t
    while True:
        red = _contract(cur)
        if red is not None:
            return _plug(frames, red)
        desc = _descend(cur)
        if desc is None:
            return None
        frames.append((cur, desc))
        cur = cur.args[desc[1]] if isinstance(desc, tuple) else getattr(cur, desc)


def _d_body(t):
    return None if is_value(t.body) else "body"


def _d_case(t):
    return None if is_value(t.scrut) else "scrut"


def _d_app(t):
    return None if is_value(t.fun) else "fun"


def _d_binder(t):
    if t.subst:
        return None  # non-empty substitution is a redex, not a context
    return None if is_value(t.body) else "body"


def _d_laterapp(t):
    if not is_value(t.fun):
        return "fun"
    if not is_value(t.arg):
        return "arg"
    return None


def _d_prim(t):
    for i, a in enumerate(t.args):
        if not is_value(a):
            return ("args", i)
    return None


_DESCEND = {
    Succ: _d_body,
    Proj1: _d_body,
    Proj2: _d_body,
    Unfold: _d_body,
    Unbox: _d_body,
    Case: _d_case,
    App: _d_app,
    Prev: _d_binder,
    BoxSum: _d_binder,
    LaterApp: _d_laterapp,
    Prim: _d_prim,
}


def _descend(t: Term):
    """The evaluation-context position at the root of t: the unique
    non-value child the strategy evaluates next, if any."""
    h = _DESCEND.get(t.__class__)
    return h(t) if h is not None else None


def _set_child(parent: Term, fld, child: Term) -> Term:
    """A copy of the context node parent, with no location, holding
    child at fld: a field name, or ("args", i) for a primitive argument."""
    if fld.__class__ is tuple:
        fld, i = fld
        child = parent.args[:i] + (child,) + parent.args[i + 1 :]
    out = []
    for name, _ in SHAPES[parent.__class__]:
        out.append(child if name == fld else getattr(parent, name))
    return parent.__class__(*out)


def _plug(frames, t: Term) -> Term:
    for parent, fld in reversed(frames):
        t = _set_child(parent, fld, t)
    return t


def _run(t: Term, fuel: int):
    """Drive the step relation to a normal form without re-searching
    from the root after every contraction.

    Performs exactly the call-by-name reduction sequence of ``step``
    (the context stack is kept across contractions) and returns
    (final term, steps, outcome class).
    """
    frames = []
    steps = 0
    cur = t
    contract = _CONTRACT.get
    descend = _DESCEND.get
    while True:
        h = contract(cur.__class__)
        red = h(cur) if h is not None else None
        if red is not None:
            if steps >= fuel:
                return _plug(frames, cur), steps, FuelExhausted
            steps += 1
            cur = red
            continue
        h = descend(cur.__class__)
        desc = h(cur) if h is not None else None
        if desc is not None:
            frames.append((cur, desc))
            cur = cur.args[desc[1]] if isinstance(desc, tuple) else getattr(cur, desc)
            continue
        if not is_value(cur):
            return _plug(frames, cur), steps, Stuck
        if not frames:
            return cur, steps, Value
        parent, fld = frames.pop()
        cur = _set_child(parent, fld, cur)


# ---------------------------------------------------------------------------
# Recursive descent (independent cross-check implementation)


def step_rd(t: Term):
    """One step by structural recursion on the evaluation-context grammar."""
    red = _contract(t)
    if red is not None:
        return red
    match t:
        case Succ(b):
            if numeral_value(t) is not None:
                return None
            r = step_rd(b)
            return None if r is None else Succ(r)
        case Proj1(b):
            r = step_rd(b)
            return None if r is None else Proj1(r)
        case Proj2(b):
            r = step_rd(b)
            return None if r is None else Proj2(r)
        case Case(s, x1, a1, x2, a2):
            r = step_rd(s)
            return None if r is None else Case(r, x1, a1, x2, a2)
        case App(f, a):
            r = step_rd(f)
            return None if r is None else App(r, a)
        case Unfold(b):
            r = step_rd(b)
            return None if r is None else Unfold(r)
        case Prev((), b):
            r = step_rd(b)
            return None if r is None else Prev((), r)
        case LaterApp(f, a):
            if not is_value(f):
                r = step_rd(f)
                return None if r is None else LaterApp(r, a)
            if not is_value(a):
                r = step_rd(a)
                return None if r is None else LaterApp(f, r)
            return None
        case Unbox(b):
            r = step_rd(b)
            return None if r is None else Unbox(r)
        case BoxSum((), b):
            r = step_rd(b)
            return None if r is None else BoxSum((), r)
        case Prim(name, args):
            for i, a in enumerate(args):
                if not is_value(a):
                    r = step_rd(a)
                    if r is None:
                        return None
                    out = list(args)
                    out[i] = r
                    return Prim(name, tuple(out))
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
# every later use shares that value.  Nothing is substituted, no free
# variables are computed and nothing is renamed.  The bodies of
# prev/box/boxp see only the variables of their explicit substitution,
# just as the reference machine's substitution never enters them.
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
_PRIM_ARG = object()  # (_PRIM_ARG, prim term, (env, values so far))

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


def _sig_env(sig, env: dict) -> dict:
    return {x: _delay(u, env) for x, u in sig}


def _is_next(v) -> bool:
    return v.__class__ is _Con and v.kind is Next


def _stuck(what: str):
    raise StuckError(f"stuck term: {what}")


def _form(v) -> str:
    return "numeral" if v.__class__ is int else v.kind.__name__


def _need(t: Term, env: dict, fuel: int, stack=None):
    """Evaluate t in env to a value, firing at most ``fuel`` rules.

    ``stack`` may hold initial frames to apply to the value.  A frame
    is a triple (kind, x, y) whose kind is an eliminator's term class
    or one of _UPDATE, _LATER_ARG and _PRIM_ARG.
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
            stack.append((App, _delay(t.arg, env), None))
            t = t.fun
            continue
        elif c is Lam:
            v = _Con(Lam, t, env)
        elif c is Pair:
            v = _Con(Pair, _delay(t.left, env), _delay(t.right, env))
        elif c is Fold or c is Next or c is In1 or c is In2:
            v = _Con(c, _delay(t.body, env))
        elif c is Zero:
            v = 0
        elif c is UnitVal:
            v = _UNIT
        elif c is BoxI:
            v = _Con(BoxI, _Thunk(t.body, _sig_env(t.subst, env)))
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
            env = _sig_env(t.subst, env)
            t = t.body
            continue
        elif c is LaterApp:
            stack.append((LaterApp, t.arg, env))
            t = t.fun
            continue
        elif c is Prim:
            stack.append((_PRIM_ARG, t, (env, [])))
            t = t.args[0]
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
            if k is _PRIM_ARG:
                penv, vals = y
                vals.append(v)
                if len(vals) < len(x.args):
                    stack.append((k, x, y))
                    t, env = x.args[len(vals)], penv
                    break
                if any(a.__class__ is not int for a in vals):
                    _stuck(f"{x.name} of a non-numeral")
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
                v = PRIMITIVES[x.name].op(*vals)
                continue
            if k is _LATER_ARG:
                v = _Con(Next, _Thunk(_APPLY_FA, {"f": x.a, "a": v.a}))
                continue
            if k is App:
                lam = v.a
                env = v.b.copy()
                env[lam.var] = x
                t = lam.body
                break
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
            # Proj1, Proj2, Unfold, Prev, Unbox: force the component.
            th = v.b if k is Proj2 else v.a
            v = th.value
            if v is None:
                stack.append((_UPDATE, th, None))
                t, env = th.term, th.env
                break


# ---------------------------------------------------------------------------
# Drivers


def eval_term(t: Term, fuel: int = DEFAULT_FUEL, pre_erase: bool = True) -> EvalOutcome:
    """Iterate step until a value or the fuel runs out."""
    if pre_erase:
        t = erase(t)
    out, steps, cls = _run(t, fuel)
    return cls(out, steps)


def trace(t: Term, max_steps: int = DEFAULT_FUEL, pre_erase: bool = True):
    """The deterministic reduction sequence prefix, starting at t."""
    if pre_erase:
        t = erase(t)
    out = [t]
    while len(out) <= max_steps:
        nxt = step(t)
        if nxt is None:
            break
        t = nxt
        out.append(t)
    return out


def _force_value(t: Term, fuel: int, pre_erase: bool = True) -> Term:
    out = eval_term(t, fuel, pre_erase)
    if isinstance(out, Stuck):
        from .frontend import pretty

        raise StuckError(f"stuck term: {pretty(out.term)}")
    if isinstance(out, FuelExhausted):
        raise FuelExhaustedError(f"no value after {out.steps} steps")
    return out.term


def observe_nat(t: Term, fuel: int = DEFAULT_FUEL, pre_erase: bool = True) -> int:
    """Evaluate a closed term of type Nat and decode the numeral."""
    v = _force_value(t, fuel, pre_erase)
    n = numeral_value(v)
    if n is None:
        from .frontend import pretty

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

    ``fuel`` bounds the rule firings of each observation (the initial
    force, the unboxing, each head, each tail), as it bounds each
    ``eval_term`` call.  Raises FuelExhaustedError or StuckError.
    """
    cur = _need(t, {}, fuel)
    if cur.__class__ is _Con and cur.kind is BoxI:
        cur = _need(_UNBOX_S, {"s": _Thunk(value=cur)}, fuel)
    out = []
    for _ in range(n):
        env = {"s": _Thunk(value=cur)}
        head = _need(_HEAD_S, env, fuel)
        if head.__class__ is not int:
            raise StuckError("stream head is not a numeral")
        out.append(head)
        cur = _need(_TAIL_S, env, fuel, [(Prev, None, None)])
    return out


def observe_conat(t: Term, limit: int, fuel: int = DEFAULT_FUEL):
    """Decode a closed guarded conatural: (n, finished).

    finished is False when the budget ran out with the conatural still
    unfolding (e.g. infinity).
    """
    cur = erase(t)
    if isinstance(_force_value(cur, fuel, pre_erase=False), BoxI):
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
