"""Generated closed programs of type Nat through every runner.

A type-directed generator builds closed terms of type Nat over Nat,
products, sums and functions: numerals up to 10^30, ``succ``, ``addN``
and ``mulN``, pairs and projections, ``inl``/``inr`` and ``case``,
annotated lambdas and application.  Every such type is constant, so
the modal forms are drawn at any type too: ``prev{x <- u}. next t``,
``unbox (box{x <- u}. t)``, ``prev{f <- u, a <- v}. (next f <*> next
a)``, and ``case`` of ``boxp{x <- u}. s``, whose arms see their
variables at a # type and read them with ``unbox``.  A body under a
substitution sees only the substitution's variables.  A Nat may also
be an element of a prelude stream, ``fst (unfold (prev (snd (unfold
…))))`` at depth up to 3: of ``zeros``, ``toggle``, ``paperfolds``,
``iterate' f n`` or ``mapg f s``, with f a generated ``Nat -> Nat``
lambda.  The stream is closed, as a substitution cannot bind its
non-constant type; these programs run ``fix`` and the records on shared
prelude nodes.  The generator computes each program's value in Python
as it builds the term, a stream's elements from their closed forms.  For
every program the type checker, both reduction machines, the
call-by-need machine and the denotation must agree with that value
(Pałka, Claessen, Russo and Hughes, "Testing an optimising compiler by
generating random lambda terms", AST 2011).
"""

import hypothesis.strategies as st
from hypothesis import given, settings

import corpus
from glam.denot import den_nat
from glam.machine import is_value, observe_nat, step, step_rd, take_stream, trace
from glam.prelude import load_prelude
from glam.syntax import (
    NAT,
    App,
    Arrow,
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
    Prod,
    Proj1,
    Proj2,
    Succ,
    Sum,
    Unbox,
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
_PRELUDE = {name: load_prelude().lookup(name).resolved()
            for name in ("zeros", "toggle", "paperfolds", "iterate'", "mapg")}
# the closed streams' elements, as functions of the index
_ELEMENTS = {"zeros": lambda k: 0, "toggle": corpus._toggle, "paperfolds": corpus._pf}


def _type(draw, depth):
    """Nat, or a product, sum or function type of at most depth formers."""
    if depth == 0 or draw(st.booleans()):
        return NAT
    former = draw(st.sampled_from((Prod, Sum, Arrow)))
    return former(_type(draw, depth - 1), _type(draw, depth - 1))


def _term(draw, ty, ctx, size):
    """A term of type ty under ctx (variable -> type), and its meaning:
    a function from an environment (variable -> value) to its value.  A
    value is an int, a pair, ("inl", v) or ("inr", v), or a function; a
    value of a # type is the value under it.  Eliminations and modal
    forms are drawn while size lasts; introductions end every branch,
    as the type's structure bounds them."""
    forms = ["intro"] + [x for x, a in ctx.items() if type_alpha_eq(a, ty)]
    forms += [(x,) for x, a in ctx.items() if isinstance(a, Box) and type_alpha_eq(a.body, ty)]
    if size > 0:
        forms += ["app", "fst", "snd", "case", "modal"]
        forms += ["succ", "addN", "mulN", "probe"] if ty is NAT else []
    form = draw(st.sampled_from(tuple(forms)))  # a tuple: hypothesis caches the strategy
    if form == "modal":  # the four modal forms weigh as one elimination, which bounds the size
        form = draw(st.sampled_from(("prev", "box", "prev <*>", "boxp")))
    sub = size - 1
    if form in ctx:
        return Var(form), lambda env: env[form]
    if isinstance(form, tuple):  # unbox x, for x of type #ty
        x = form[0]
        return Unbox(Var(x)), lambda env: env[x]
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
    if form == "probe":  # the k-th element of a closed stream
        k = draw(st.integers(0, 3))
        t, elements = _stream(draw, size)
        return corpus.element_probe(t, k), lambda env: elements(k)
    if form == "succ":
        a, fa = _term(draw, NAT, ctx, sub)
        return Succ(a), lambda env: fa(env) + 1
    if form in ("addN", "mulN"):
        (a, fa), (b, fb) = _term(draw, NAT, ctx, sub), _term(draw, NAT, ctx, sub)
        op = int.__add__ if form == "addN" else int.__mul__
        return Prim(form, a, b), lambda env: op(fa(env), fb(env))
    other = _type(draw, 1)
    if form in ("prev", "box"):
        x = draw(st.sampled_from(_NAMES))
        (u, fu), (b, fb) = _term(draw, other, ctx, sub), _term(draw, ty, {x: other}, sub)
        sigma = ((x, u),)
        t = Prev(sigma, Next(b)) if form == "prev" else Unbox(BoxI(sigma, b))
        return t, lambda env: fb({x: fu(env)})
    if form == "prev <*>":
        f, a = draw(st.permutations(_NAMES))[:2]
        (u, fu), (v, fv) = _term(draw, Arrow(other, ty), ctx, sub), _term(draw, other, ctx, sub)
        t = Prev(((f, u), (a, v)), LaterApp(Next(Var(f)), Next(Var(a))))
        return t, lambda env: fu(env)(fv(env))
    if form == "app":
        (f, ff), (a, fa) = _term(draw, Arrow(other, ty), ctx, sub), _term(draw, other, ctx, sub)
        return App(f, a), lambda env: ff(env)(fa(env))
    if form in ("fst", "snd"):
        first = form == "fst"
        p, fp = _term(draw, Prod(ty, other) if first else Prod(other, ty), ctx, sub)
        return (Proj1 if first else Proj2)(p), lambda env: fp(env)[0 if first else 1]
    right = _type(draw, 1)
    if form == "case":
        s, fs = _term(draw, Sum(other, right), ctx, sub)
    else:  # case boxp{w <- u}. body: the arms see the sum's sides at # types
        w, wty = draw(st.sampled_from(_NAMES)), _type(draw, 1)
        (u, fu), (body, fbody) = _term(draw, wty, ctx, sub), _term(draw, Sum(other, right), {w: wty}, sub)
        s, fs = BoxSum(((w, u),), body), lambda env: fbody({w: fu(env)})
        other, right = Box(other), Box(right)
    x, y = draw(st.sampled_from(_NAMES)), draw(st.sampled_from(_NAMES))
    (a, fa), (b, fb) = _term(draw, ty, {**ctx, x: other}, sub), _term(draw, ty, {**ctx, y: right}, sub)

    def case(env):
        tag, v = fs(env)
        return fa({**env, x: v}) if tag == "inl" else fb({**env, y: v})
    return Case(s, x, a, y, b), case


def _stream(draw, size):
    """A closed prelude stream and its elements, as a function of the
    index: ``zeros``, ``toggle`` or ``paperfolds``, or while size lasts
    ``mapg f s`` or ``iterate' f n``, with f a generated lambda."""
    form = draw(st.sampled_from((("mapg", "iterate'") if size > 0 else ()) + tuple(_ELEMENTS)))
    if form in _ELEMENTS:
        return _PRELUDE[form], _ELEMENTS[form]
    x = draw(st.sampled_from(_NAMES))
    body, fbody = _term(draw, NAT, {x: NAT}, size - 1)
    f = App(_PRELUDE[form], Lam(x, NAT, body))

    def apply(v):
        return fbody({x: v})

    if form == "mapg":
        s, fs = _stream(draw, size - 1)
        return App(f, s), lambda k: apply(fs(k))
    n, fn = _term(draw, NAT, {}, size - 1)

    def iterate(k):
        v = fn({})
        for _ in range(k):
            v = apply(v)
        return v
    return App(f, n), iterate


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
    assert take_stream(Fold(None, Pair(t, Next(_PRELUDE["zeros"]))), 1) == [value]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_programs())
def test_generated_nat_programs_agree_on_every_runner(program):
    _runs_everywhere(*program)

