import inspect
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

import corpus
from glam import denot, typecheck
from glam import machine as M
from glam.frontend import pretty, pretty_type
from glam.syntax import (
    BINDER,
    DATA,
    NAT,
    SHAPES,
    STREAM_G,
    SUBST,
    TERM,
    TYPE,
    TYPE_SHAPES,
    UNIT,
    VAR,
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
    Num,
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
    alpha_eq,
    erase,
    free_type_vars,
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
    u = Pair(numeral(0), UnitVal())
    assert subst(Var("x"), [("x", u)]) is u


def test_subst_shadowed_by_lambda():
    t = Lam("x", None, Var("x"))
    assert alpha_eq(subst(t, [("y", numeral(0))]), t)


def test_subst_lands_in_explicit_substitution_only():
    # prev{y<-x}. next y  with x := u  becomes  prev{y<-u}. next y
    t = Prev((("y", Var("x")),), Next(Var("y")))
    u = Succ(numeral(0))
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


# _reference_free_vars recomputes free variables by a recursive walk over
# SHAPES, and _reference_numeral_value decodes a numeral by walking its
# spine of succ down to a numeral node.  Neither reads or writes
# anything on the nodes, so together they check the _fv and _nv that the
# constructors store.


def _reference_free_vars(t, memo) -> frozenset:
    """Free variables of t; memo maps id(node) to those already found."""
    fv = memo.get(id(t))
    if fv is not None:
        return fv
    if t.__class__ is Var:
        fv = frozenset((t.name,))
    else:
        parts = []
        scope = None  # a binder name, or SUBST, for the next subterm
        for name, kind in SHAPES[t.__class__]:
            v = getattr(t, name)
            if kind is TERM:
                if scope is None:
                    parts.append(_reference_free_vars(v, memo))
                elif scope is not SUBST:
                    parts.append(_reference_free_vars(v, memo) - {scope})
                scope = None
            elif kind is BINDER:
                scope = v
            elif kind is SUBST:
                parts.extend(_reference_free_vars(u, memo) for _, u in v)
                scope = SUBST
        fv = frozenset().union(*parts)
    memo[id(t)] = fv
    return fv


def _reference_numeral_value(t):
    n = 0
    while isinstance(t, Succ):
        t, n = t.body, n + 1
    return n + t.n if isinstance(t, Num) else None


def _check_facts(terms, seen=None, memo=None) -> int:
    """Check _fv and numeral_value against the references on every node
    of terms not in seen, which maps id(node) to node (so that no id in
    it or in memo, the reference walk's, is reused while they are kept);
    returns the number of nodes checked."""
    seen = {} if seen is None else seen
    memo = {} if memo is None else memo
    todo, n = list(terms), 0
    while todo:
        u = todo.pop()
        if id(u) in seen:
            continue
        seen[id(u)] = u
        n += 1
        assert u._fv == _reference_free_vars(u, memo), u
        assert numeral_value(u) == _reference_numeral_value(u), u
        for name, kind in SHAPES[u.__class__]:
            v = getattr(u, name)
            if kind is TERM:
                todo.append(v)
            elif kind is SUBST:
                todo.extend(w for _, w in v)
    return n


def test_construction_facts_match_reference_on_programs_and_reducts():
    from glam.frontend import parse_program
    from glam.prelude import EXTRAS_PATH, PRELUDE_PATH
    from glam.typecheck import elaborate

    prelude = parse_program(PRELUDE_PATH.read_text())
    demo = Path(__file__).parent.parent / "programs" / "demo.gl"
    programs = [prelude] + [parse_program(p.read_text(), base=prelude) for p in (EXTRAS_PATH, demo)]
    assert _check_facts(d.body for p in programs for d in p) > 500
    # every step and step_rd reduct of each elaborated corpus probe, and
    # their elaborations (test_alpha_eq_matches_reference_on_step_reducts
    # checks the reducts of the erased probes)
    reducts = 0
    for _, t, _ in corpus.nat_corpus():
        t, seen, memo = elaborate({}, t, NAT)[0], {}, {}
        while True:
            a, b = M.step(t), M.step_rd(t)
            if a is None or b is None:
                break
            _check_facts([a, b, elaborate({}, a, NAT)[0], elaborate({}, b, NAT)[0]], seen, memo)
            reducts += 1
            t = a
    assert reducts > 5000


# ---------------------------------------------------------------------------
# Alpha-equivalence examples


def test_alpha_eq_lambda():
    assert alpha_eq(Lam("x", None, Var("x")), Lam("y", None, Var("y")))


def test_alpha_eq_explicit_subst_binders():
    a = Prev((("x", Var("z")),), Next(Var("x")))
    b = Prev((("y", Var("z")),), Next(Var("y")))
    assert alpha_eq(a, b)


def test_alpha_eq_shared_node_under_different_binders():
    # one Var node shared by \x.\y.x and \y.\x.x: identity is not enough
    x = Var("x")
    a = Lam("x", None, Lam("y", None, x))
    b = Lam("y", None, Lam("x", None, x))
    assert not alpha_eq(a, b)
    assert alpha_eq(a, Lam("y", None, Lam("x", None, Var("y"))))


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
    assert numeral(7) is numeral(7)
    # one node per value, with no subterm
    assert numeral(10**30) is numeral(10**30)
    assert numeral(7).n == 7
    assert all(kind is not TERM for _, kind in SHAPES[numeral(7).__class__])
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
        assert [name for name, _ in SHAPES[c]] == list(c.__match_args__), c.__name__


def test_every_type_class_has_a_shape():
    # The table lists exactly the fields that hold subtypes; Mu.var and
    # TVar.name are data.  A class outside it is not a type.
    classes = Type.__subclasses__()
    assert set(TYPE_SHAPES) == set(classes)
    data = {TVar: ("name",), Mu: ("var",)}
    for c in classes:
        fields = [f for f in c.__match_args__ if f not in data.get(c, ())]
        assert list(TYPE_SHAPES[c]) == fields, c.__name__
    with pytest.raises(TypeError, match="not a type: 5"):
        free_type_vars(Arrow(NAT, 5))


def _sample(c):
    """The arguments of an instance of c, each made for its field's kind,
    with an explicit substitution given as lists."""
    if c in TYPE_SHAPES:
        return [NAT if f in TYPE_SHAPES[c] else "a" for f in c.__match_args__]
    made = {
        TERM: Var("y"), BINDER: "x", SUBST: [["x", Var("z")]], TYPE: NAT,
        VAR: "v", DATA: 5 if c is Num else "addN",
    }
    return [made[kind] for _, kind in SHAPES[c]]


@pytest.mark.parametrize("c", [*SHAPES, *TYPE_SHAPES], ids=lambda c: c.__name__)
def test_syntax_class_contract(c):
    # what the other modules rely on in every term and type class
    term = c in SHAPES
    args = _sample(c)
    x = c(*args)
    fields = [name for name, _ in SHAPES[c]] if term else list(c.__match_args__)
    assert c.__match_args__ == tuple(fields)
    assert list(inspect.signature(c).parameters) == fields + ["loc"] * term
    for f, v in zip(fields, args):
        got = getattr(x, f)
        if isinstance(v, list):  # a list subst or args comes back as tuples
            want = tuple(map(tuple, v)) if f == "subst" else tuple(v)
            assert type(got) is tuple and got == want
        else:
            assert got is v
    for f in fields + ["loc"] * term:
        with pytest.raises(AttributeError):
            setattr(x, f, getattr(x, f))
        with pytest.raises(AttributeError):
            delattr(x, f)
    if term:
        assert x._fv == _reference_free_vars(x, {})
    with pytest.raises(AttributeError):
        x._fv = frozenset()
    object.__setattr__(x, "_fv", frozenset("q"))
    assert x._fv == frozenset("q")
    y = c(*args)
    assert x == x and x != y
    assert hash(x) == object.__hash__(x) and hash(y) == object.__hash__(y)
    with pytest.raises(TypeError):
        c(*args, None, None)
    if args:
        with pytest.raises(TypeError):
            c(*args[:-1])
    if term:
        assert x.loc is None and "loc" not in c.__match_args__
        assert c(*args, loc=(3, 4)).loc == (3, 4) and c(*args, (3, 4)).loc == (3, 4)
    else:
        with pytest.raises(TypeError):
            c(*args, loc=None)
    assert repr(x).startswith("<Term " if term else "<Type ") and repr(x).endswith(">")


def test_every_term_class_has_a_denotation_rule():
    assert set(denot._RULES) == set(Term.__subclasses__())
    with pytest.raises(TypeError, match="not a term: 5"):
        denot.den_term({}, 5, NAT, 1, elaborated=True)


def test_a_non_term_or_non_type_is_named_in_the_error():
    # the dispatch on the class ends in this guard in alpha_eq, the
    # need-machine and the type printer
    with pytest.raises(TypeError, match="not a term: 5"):
        alpha_eq(5, 6)
    with pytest.raises(TypeError, match="not a term: 5"):
        M.take_stream(5, 1)
    with pytest.raises(TypeError, match="not a type: 5"):
        pretty_type(5)


@pytest.mark.parametrize(
    "call",
    [lambda x: typecheck.elaborate({}, x), lambda x: typecheck.infer({}, x), pretty],
    ids=["elaborate", "infer", "pretty"],
)
def test_checker_and_printer_refuse_a_non_term_by_its_class(call):
    # the rule is looked up before any node fact (_fv, _nv) is read
    with pytest.raises(TypeError, match="^not a term: 5$"):
        call(5)


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


_term_base = st.one_of(st.builds(Var, _names), st.just(numeral(0)), st.just(UnitVal()))


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
        st.builds(lambda a, b: Prim("addN", a, b), s, s),
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
        case Prim(name, a, b):
            return Prim(name, _freshen(a, n), _freshen(b, n))
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
        return any(_annotated(getattr(x, f)) for f in x.__match_args__)
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
@settings(max_examples=300, derandomize=True)
def test_construction_facts_match_reference_on_generated_terms(t):
    _check_facts([t, erase(t), subst(t, {"x": Succ(Var("y"))})])


@given(_terms)
@settings(max_examples=150)
def test_alpha_eq_equivalence(t):
    a, b, c = t, _freshen(t), _freshen(_freshen(t), 100)
    assert alpha_eq(a, a)
    assert alpha_eq(a, b) and alpha_eq(b, a)
    assert alpha_eq(b, c)
    assert alpha_eq(a, c)


# ---------------------------------------------------------------------------
# alpha_eq against the match-based reference
#
# _reference_alpha_eq is the one-match-over-the-term-classes version that
# the SHAPES-walking alpha_eq replaced.


def _reference_alpha_eq(t, u):
    return _ref_aeq(t, u, {}, {}, [0])


def _ref_annot_eq(a, b):
    if a is None or b is None:
        return a is None and b is None
    return type_alpha_eq(a, b)


def _ref_aeq(t, u, envt, envu, ctr):
    if t is u and (envt == envu or not free_vars(t)):
        return True
    if _reference_numeral_value(t) is not None:
        return _reference_numeral_value(t) == _reference_numeral_value(u)
    if t.__class__ is not u.__class__:
        return False
    match t:
        case Var(x):
            return envt.get(x, x) == envu.get(u.name, u.name)
        case UnitVal():
            return True
        case Succ(b) | Proj1(b) | Proj2(b) | Unfold(b) | Next(b) | Unbox(b):
            return _ref_aeq(b, u.body, envt, envu, ctr)
        case Abort(a, b) | In1(a, b) | In2(a, b) | Fold(a, b):
            return _ref_annot_eq(a, u.annot) and _ref_aeq(b, u.body, envt, envu, ctr)
        case Ascribe(b, a):
            return _ref_annot_eq(a, u.annot) and _ref_aeq(b, u.body, envt, envu, ctr)
        case Pair(l, r) | App(l, r) | LaterApp(l, r):
            return _ref_aeq(l, _left(u), envt, envu, ctr) and _ref_aeq(
                r, _right(u), envt, envu, ctr
            )
        case Lam(x, a, b):
            if not _ref_annot_eq(a, u.annot):
                return False
            return _ref_aeq_under([x], [u.var], b, u.body, envt, envu, ctr)
        case Case(s, x1, a1, x2, a2):
            return (
                _ref_aeq(s, u.scrut, envt, envu, ctr)
                and _ref_aeq_under([x1], [u.var1], a1, u.arm1, envt, envu, ctr)
                and _ref_aeq_under([x2], [u.var2], a2, u.arm2, envt, envu, ctr)
            )
        case Prev(sig, b) | BoxI(sig, b) | BoxSum(sig, b):
            usig = u.subst
            if len(sig) != len(usig):
                return False
            for (_, v1), (_, v2) in zip(sig, usig):
                if not _ref_aeq(v1, v2, envt, envu, ctr):
                    return False
            return _ref_aeq_under(
                [x for x, _ in sig], [x for x, _ in usig], b, u.body, {}, {}, ctr
            )
        case Prim(name, a, b):
            return (
                name == u.name
                and _ref_aeq(a, u.left, envt, envu, ctr)
                and _ref_aeq(b, u.right, envt, envu, ctr)
            )
        case _:
            raise TypeError(f"not a term: {t!r}")


def _left(u):
    return u.left if isinstance(u, Pair) else u.fun


def _right(u):
    return u.right if isinstance(u, Pair) else u.arg


def _ref_aeq_under(xs, ys, b1, b2, envt, envu, ctr):
    if len(xs) != len(ys):
        return False
    envt = dict(envt)
    envu = dict(envu)
    for x, y in zip(xs, ys):
        ctr[0] += 1
        envt[x] = ctr[0]
        envu[y] = ctr[0]
    return _ref_aeq(b1, b2, envt, envu, ctr)


@given(_terms, _terms)
@settings(max_examples=200)
def test_alpha_eq_matches_reference(t, u):
    # equal pairs through _freshen, unrelated pairs, and near misses that
    # differ from an alpha-variant only where x is free, in annotations,
    # in a primitive's name or in the order of its operands
    f = _freshen(t)
    pairs = [(t, f), (f, t), (t, u), (u, t), (t, subst(f, {"x": u})), (t, erase(f))]
    pairs += [(Lam("x", None, t), Lam("y", None, subst(f, {"x": Var("y")})))]
    prims = [("addN", (f, u)), ("mulN", (f, u)), ("addN", (u, f))]
    pairs += [(Prim("addN", t, u), Prim(p, *a)) for p, a in prims]
    for a, b in pairs:
        assert alpha_eq(a, b) == _reference_alpha_eq(a, b)
    assert alpha_eq(t, f)


def test_alpha_eq_matches_reference_on_step_reducts():
    # each call-by-name step against the structural-recursion step, and
    # the construction facts of both reducts
    for _, t, _ in corpus.nat_corpus():
        t, seen, memo = erase(t), {}, {}
        while True:
            a, b = M.step(t), M.step_rd(t)
            if a is None or b is None:
                break
            assert alpha_eq(a, b) == _reference_alpha_eq(a, b) is True
            assert alpha_eq(a, t) == _reference_alpha_eq(a, t)
            _check_facts([a, b], seen, memo)
            t = a


@given(_types, _types)
@settings(max_examples=150)
def test_type_subst_alpha_stable(a, b):
    # substituting into alpha-variants gives alpha-equal results
    out1 = type_subst(a, "a", b)
    assert type_alpha_eq(out1, type_subst(a, "a", b))
    assert type_alpha_eq(a, a)


def test_stream_type_shape():
    assert type_alpha_eq(STREAM_G, Mu("s", Prod(NAT, Later(TVar("s")))))
