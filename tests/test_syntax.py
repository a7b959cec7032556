import dataclasses

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from glam.syntax import (
    NAT,
    SHAPES,
    STREAM_G,
    UNIT,
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
    Next,
    Pair,
    Prev,
    Prim,
    Prod,
    Proj1,
    Proj2,
    Succ,
    Sum,
    Term,
    TVar,
    Type,
    Unbox,
    Unfold,
    UnitVal,
    Var,
    Zero,
    alpha_eq,
    erase,
    free_vars,
    numeral,
    numeral_value,
    subst,
    type_alpha_eq,
    type_subst,
)

# ---------------------------------------------------------------------------
# Substitution examples


def test_subst_variable():
    u = Pair(Zero(), UnitVal())
    assert subst(Var("x"), [("x", u)]) is u


def test_subst_shadowed_by_lambda():
    t = Lam("x", None, Var("x"))
    assert alpha_eq(subst(t, [("y", Zero())]), t)


def test_subst_lands_in_explicit_substitution_only():
    # prev{y<-x}. next y  with x := u  becomes  prev{y<-u}. next y
    t = Prev((("y", Var("x")),), Next(Var("y")))
    u = Succ(Zero())
    out = subst(t, [("x", u)])
    assert alpha_eq(out, Prev((("y", u),), Next(Var("y"))))
    # the body is untouched
    assert out.body is t.body


def test_subst_capture_avoidance():
    # (\y. x) with x := y must rename the binder
    t = Lam("y", None, Var("x"))
    out = subst(t, [("x", Var("y"))])
    assert out.var != "y"
    assert alpha_eq(out, Lam("z", None, Var("y")))


# ---------------------------------------------------------------------------
# Free variables


def test_free_vars_prev_body_bound_by_list():
    t = Prev((("y", Var("x")),), Var("y"))
    assert free_vars(t) == {"x"}


def test_free_vars_lambda():
    t = Lam("x", None, App(Var("x"), Var("y")))
    assert free_vars(t) == {"y"}


def test_free_vars_next():
    assert free_vars(Next(Var("x"))) == {"x"}


def test_free_vars_case_binders():
    t = Case(Var("s"), "a", Var("a"), "b", Var("c"))
    assert free_vars(t) == {"s", "c"}


# ---------------------------------------------------------------------------
# Alpha-equivalence examples


def test_alpha_eq_lambda():
    assert alpha_eq(Lam("x", None, Var("x")), Lam("y", None, Var("y")))


def test_alpha_eq_explicit_subst_binders():
    a = Prev((("x", Var("z")),), Next(Var("x")))
    b = Prev((("y", Var("z")),), Next(Var("y")))
    assert alpha_eq(a, b)


def test_alpha_neq_different_free():
    assert not alpha_eq(Lam("x", None, Var("y")), Lam("x", None, Var("z")))


def test_alpha_eq_annotations_matter():
    assert not alpha_eq(Lam("x", NAT, Var("x")), Lam("x", None, Var("x")))
    assert alpha_eq(Lam("x", NAT, Var("x")), Lam("y", NAT, Var("y")))


def test_type_alpha_eq_mu():
    a = Mu("a", Prod(NAT, Later(TVar("a"))))
    b = Mu("b", Prod(NAT, Later(TVar("b"))))
    assert type_alpha_eq(a, b)


def test_type_alpha_neq():
    assert not type_alpha_eq(Later(NAT), NAT)


def test_type_alpha_eq_box_of_mu():
    a = Box(Mu("a", Prod(NAT, Later(TVar("a")))))
    b = Box(Mu("a", Prod(NAT, Later(TVar("a")))))
    assert type_alpha_eq(a, b)


def test_numerals():
    assert numeral_value(numeral(7)) == 7
    assert numeral_value(Succ(Var("x"))) is None
    assert numeral_value(UnitVal()) is None


# ---------------------------------------------------------------------------
# The child-shape table


def test_every_term_class_has_a_shape():
    # A new term former without an entry would be skipped silently by
    # the generic traversals.
    classes = Term.__subclasses__()
    assert set(SHAPES) == set(classes)
    for c in classes:
        fields = [f.name for f in dataclasses.fields(c) if f.name != "loc"]
        assert [name for name, _ in SHAPES[c]] == fields, c.__name__


# ---------------------------------------------------------------------------
# Generators


_names = st.sampled_from(["x", "y", "z", "u", "v", "w"])

_type_base = st.sampled_from([NAT, UNIT, TVar("a")])
_types = st.recursive(
    _type_base,
    lambda s: st.one_of(
        st.builds(Prod, s, s),
        st.builds(Sum, s, s),
        st.builds(Arrow, s, s),
        st.builds(Later, s),
        st.builds(lambda b: Mu("a", b), s),
    ),
    max_leaves=6,
)


def _sig(s):
    return st.lists(st.tuples(_names, s), max_size=2).map(
        lambda ps: tuple(dict(ps).items())
    )


_term_base = st.one_of(st.builds(Var, _names), st.just(Zero()), st.just(UnitVal()))


def _extend(s):
    sig = _sig(s)
    return st.one_of(
        st.builds(Succ, s),
        st.builds(Pair, s, s),
        st.builds(Proj1, s),
        st.builds(Proj2, s),
        st.builds(lambda x, b: Lam(x, None, b), _names, s),
        st.builds(lambda x, b: Lam(x, NAT, b), _names, s),
        st.builds(App, s, s),
        st.builds(LaterApp, s, s),
        st.builds(Next, s),
        st.builds(lambda b: Fold(None, b), s),
        st.builds(Unfold, s),
        st.builds(lambda b: In1(Sum(NAT, UNIT), b), s),
        st.builds(lambda b: In2(None, b), s),
        st.builds(lambda b: Abort(NAT, b), s),
        st.builds(
            lambda sc, x1, a1, x2, a2: Case(sc, x1, a1, x2, a2), s, _names, s, _names, s
        ),
        st.builds(lambda sg, b: Prev(sg, b), sig, s),
        st.builds(lambda sg, b: BoxI(sg, b), sig, s),
        st.builds(Unbox, s),
        st.builds(lambda sg, b: BoxSum(sg, b), sig, s),
        st.builds(lambda a, b: Prim("addN", (a, b)), s, s),
        st.builds(lambda b: Ascribe(b, NAT), s),
    )


_terms = st.recursive(_term_base, _extend, max_leaves=14)


def _freshen(t, n=0):
    """An alpha-variant with every binder renamed."""
    match t:
        case Lam(x, a, b):
            xn = f"r{n}"
            return Lam(xn, a, _freshen(subst(b, {x: Var(xn)}), n + 1))
        case Case(s, x1, a1, x2, a2):
            n1, n2 = f"r{n}", f"r{n + 1}"
            return Case(
                _freshen(s, n + 2),
                n1,
                _freshen(subst(a1, {x1: Var(n1)}), n + 2),
                n2,
                _freshen(subst(a2, {x2: Var(n2)}), n + 2),
            )
        case Prev(sig, b) | BoxI(sig, b) | BoxSum(sig, b):
            ren = {x: Var(f"r{n + i}") for i, (x, _) in enumerate(sig)}
            sig2 = tuple(
                (f"r{n + i}", _freshen(u, n + len(sig)))
                for i, (x, u) in enumerate(sig)
            )
            return type(t)(sig2, subst(b, ren))
        case Succ(b) | Proj1(b) | Proj2(b) | Unfold(b) | Next(b) | Unbox(b):
            return type(t)(_freshen(b, n))
        case Abort(a, b) | In1(a, b) | In2(a, b) | Fold(a, b):
            return type(t)(a, _freshen(b, n))
        case Ascribe(b, a):
            return Ascribe(_freshen(b, n), a)
        case Pair(l, r):
            return Pair(_freshen(l, n), _freshen(r, n + 7))
        case App(f, a) | LaterApp(f, a):
            return type(t)(_freshen(f, n), _freshen(a, n + 7))
        case Prim(name, args):
            return Prim(name, tuple(_freshen(a, n) for a in args))
        case _:
            return t



# ---------------------------------------------------------------------------
# Invariants


@given(_terms)
@settings(max_examples=150)
def test_empty_subst_is_identity(t):
    assert alpha_eq(subst(t, []), t)


@given(_terms, _terms, _terms)
@settings(max_examples=150)
def test_subst_composition(t, u, v):
    # t[u/x][v/y] == t[u[v/y]/x, v/y]  when x not free in v and x != y
    x, y = "x", "y"
    if x in free_vars(v):
        v = Lam(x, None, v)  # cheap way to drop x from v's support
    lhs = subst(subst(t, [(x, u)]), [(y, v)])
    rhs = subst(t, [(x, subst(u, [(y, v)])), (y, v)])
    assert alpha_eq(lhs, rhs)


@given(_terms, _terms)
@settings(max_examples=150)
def test_subst_free_vars_bound(t, u):
    x = "x"
    fv = free_vars(t)
    got = free_vars(subst(t, [(x, u)]))
    assert got == (fv - {x}) | (free_vars(u) if x in fv else frozenset())


@given(_terms, _terms)
@settings(max_examples=150)
def test_subst_of_non_free_variable_shares(t, u):
    assume("x" not in free_vars(t))
    assert subst(t, {"x": u}) is t


def _annotated(x):
    """Whether an Ascribe or a type annotation occurs anywhere in x."""
    if isinstance(x, (Ascribe, Type)):
        return True
    if isinstance(x, Term):
        return any(_annotated(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, tuple):
        return any(_annotated(y) for y in x)
    return False


@given(_terms)
@settings(max_examples=150)
def test_erase_properties(t):
    e = erase(t)
    assert erase(e) is e
    assert not _annotated(e)
    assert free_vars(e) == free_vars(t)


@given(_terms)
@settings(max_examples=150)
def test_alpha_eq_equivalence(t):
    a, b, c = t, _freshen(t), _freshen(_freshen(t), 100)
    assert alpha_eq(a, a)
    assert alpha_eq(a, b) and alpha_eq(b, a)
    assert alpha_eq(b, c)
    assert alpha_eq(a, c)


@given(_types, _types)
@settings(max_examples=150)
def test_type_subst_alpha_stable(a, b):
    # substituting into alpha-variants gives alpha-equal results
    out1 = type_subst(a, "a", b)
    assert type_alpha_eq(out1, type_subst(a, "a", b))
    assert type_alpha_eq(a, a)


def test_stream_type_shape():
    assert type_alpha_eq(STREAM_G, Mu("s", Prod(NAT, Later(TVar("s")))))
