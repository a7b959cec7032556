"""Generated closed programs of type Nat through every runner.

A type-directed generator builds closed terms of type Nat over Nat,
products, sums and functions: numerals up to 10^30, ``succ``, ``addN``
and ``mulN``, pairs and projections, ``inl``/``inr`` and ``case``,
annotated lambdas and application.  It computes each program's value
in Python as it builds the term.  For every program the type checker,
both reduction machines, the call-by-need machine and the denotation
must agree with that value
(Pałka, Claessen, Russo and Hughes, "Testing an optimising compiler by
generating random lambda terms", AST 2011).
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from glam.denot import den_nat
from glam.machine import is_value, observe_nat, step, step_rd, take_stream, trace
from glam.prelude import load_prelude
from glam.syntax import (
    NAT,
    App,
    Arrow,
    Case,
    Fold,
    In1,
    In2,
    Lam,
    Next,
    Pair,
    Prim,
    Prod,
    Proj1,
    Proj2,
    Succ,
    Sum,
    Var,
    alpha_eq,
    numeral,
    numeral_value,
    type_alpha_eq,
)
from glam.typecheck import elaborate, infer

# binder names are few, so that binders shadow each other
_NAMES = ("x", "y", "z")
_NUMBERS = st.one_of(st.integers(0, 4), st.integers(0, 10**30))
_ZEROS = load_prelude().lookup("zeros").resolved()


def _type(draw, depth):
    """Nat, or a product, sum or function type of at most depth formers."""
    if depth == 0 or draw(st.booleans()):
        return NAT
    former = draw(st.sampled_from([Prod, Sum, Arrow]))
    return former(_type(draw, depth - 1), _type(draw, depth - 1))


def _term(draw, ty, ctx, size):
    """A term of type ty under ctx (variable -> type), and its meaning:
    a function from an environment (variable -> value) to its value.  A
    value is an int, a pair, ("inl", v) or ("inr", v), or a function.
    Eliminations are drawn while size lasts; introductions end every
    branch, as the type's structure bounds them."""
    forms = ["intro"] + [x for x, a in ctx.items() if type_alpha_eq(a, ty)]
    if size > 0:
        forms += ["app", "fst", "snd", "case"] + (["succ", "addN", "mulN"] if ty is NAT else [])
    form = draw(st.sampled_from(forms))
    sub = size - 1
    if form in ctx:
        return Var(form), lambda env: env[form]
    if form == "intro":
        if ty is NAT:
            n = draw(_NUMBERS)
            return numeral(n), lambda env: n
        if isinstance(ty, Prod):
            (a, fa), (b, fb) = _term(draw, ty.left, ctx, sub), _term(draw, ty.right, ctx, sub)
            return Pair(a, b), lambda env: (fa(env), fb(env))
        if isinstance(ty, Sum):
            if draw(st.booleans()):
                a, fa = _term(draw, ty.left, ctx, sub)
                return In1(ty, a), lambda env: ("inl", fa(env))
            b, fb = _term(draw, ty.right, ctx, sub)
            return In2(ty, b), lambda env: ("inr", fb(env))
        x = draw(st.sampled_from(_NAMES))
        body, fbody = _term(draw, ty.cod, {**ctx, x: ty.dom}, sub)
        return Lam(x, ty.dom, body), lambda env: lambda v: fbody({**env, x: v})
    if form == "succ":
        a, fa = _term(draw, NAT, ctx, sub)
        return Succ(a), lambda env: fa(env) + 1
    if form in ("addN", "mulN"):
        (a, fa), (b, fb) = _term(draw, NAT, ctx, sub), _term(draw, NAT, ctx, sub)
        op = int.__add__ if form == "addN" else int.__mul__
        return Prim(form, a, b), lambda env: op(fa(env), fb(env))
    other = _type(draw, 1)
    if form == "app":
        (f, ff), (a, fa) = _term(draw, Arrow(other, ty), ctx, sub), _term(draw, other, ctx, sub)
        return App(f, a), lambda env: ff(env)(fa(env))
    if form in ("fst", "snd"):
        first = form == "fst"
        p, fp = _term(draw, Prod(ty, other) if first else Prod(other, ty), ctx, sub)
        return (Proj1 if first else Proj2)(p), lambda env: fp(env)[0 if first else 1]
    right = _type(draw, 1)
    s, fs = _term(draw, Sum(other, right), ctx, sub)
    x, y = draw(st.sampled_from(_NAMES)), draw(st.sampled_from(_NAMES))
    (a, fa), (b, fb) = _term(draw, ty, {**ctx, x: other}, sub), _term(draw, ty, {**ctx, y: right}, sub)

    def case(env):
        tag, v = fs(env)
        return fa({**env, x: v}) if tag == "inl" else fb({**env, y: v})
    return Case(s, x, a, y, b), case


@st.composite
def _programs(draw):
    """A closed term of type Nat and its value."""
    t, value = _term(draw, NAT, {}, draw(st.integers(0, 6)))
    return t, value({})


def _runs_everywhere(t, value):
    t2, ty = elaborate({}, t, NAT)
    assert ty is NAT and type_alpha_eq(infer({}, t), NAT)
    tr = trace(t)
    for u in tr:
        a, b = step(u), step_rd(u)
        assert (a is None) == (b is None) and (a is None or alpha_eq(a, b)), u
    assert is_value(tr[-1]) and numeral_value(tr[-1]) == value
    assert observe_nat(t) == den_nat(t, 1) == den_nat(t2, 2, elaborated=True) == value
    # the call-by-need machine reads it as the head of a stream
    assert take_stream(Fold(None, Pair(t, Next(_ZEROS))), 1) == [value]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_programs())
def test_generated_nat_programs_agree_on_every_runner(program):
    _runs_everywhere(*program)

