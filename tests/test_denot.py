import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import corpus
from glam import denot
from glam.denot import (
    DEFAULT_DEPTH,
    SLATERSTAR,
    SFun,
    SGlobal,
    SIn,
    SLater,
    SPair,
    SUNIT,
    den_nat,
    den_take,
    den_term,
    restrict,
)
from glam.bde import compile_bde, parse_bde
from glam.errors import DepthExceeded, IndexZero, TypingError
from glam.machine import observe_nat, take_stream, trace
from glam import frontend, typecheck
from glam.frontend import fix_term, parse_program, pretty
from glam.prelude import PRELUDE_PATH
from glam.syntax import (
    NAT,
    SHAPES,
    STREAM_G,
    SUBST,
    TERM,
    App,
    Arrow,
    Box,
    Later,
    LaterApp,
    Mu,
    Nat,
    Pair,
    Prod,
    Unbox,
    Var,
    alpha_eq,
    free_vars,
    numeral,
    subst,
    type_subst,
)
from glam.typecheck import elaborate


def _t(src):
    return corpus.term(src)


def _elab_stream(t):
    """t elaborated, and unboxed if it is a #-ed stream."""
    t, ty = elaborate({}, t)
    return Unbox(t) if isinstance(ty, Box) else t


def sem_eq(a, i, v, w):
    """Equality of stage-i elements at the types these tests compare:
    Nat, products, later types and mu-types."""
    match a:
        case Nat():
            return v == w
        case Prod(l, r):
            return sem_eq(l, i, v.left, w.left) and sem_eq(r, i, v.right, w.right)
        case Later(b):
            if i == 1:
                return v is SLATERSTAR and w is SLATERSTAR
            return sem_eq(b, i - 1, v.val, w.val)
        case Mu():
            return sem_eq(type_subst(a.body, a.var, a), i, v, w)
    raise ValueError(f"no semantic equality at {a!r}")


def _stream_val(*heads):
    """Nested-pair stream approximation ending in the stage-1 star."""
    v = SLATERSTAR
    for h in reversed(heads):
        v = SPair(h, v) if v is SLATERSTAR else SPair(h, SLater(v))
    return v


# ---------------------------------------------------------------------------
# Restriction


def _eager_restrict(v, j):
    """The reference restriction: copies v's whole shape down to stage j."""
    if j < 1:
        raise IndexZero(f"restriction to stage {j}")
    match v:
        case SPair(l, r):
            return SPair(_eager_restrict(l, j), _eager_restrict(r, j))
        case SIn(tag, b):
            return SIn(tag, _eager_restrict(b, j))
        case SLater(b):
            return SLATERSTAR if j == 1 else SLater(_eager_restrict(b, j - 1))
        case SFun():
            return SFun(v.fn, min(v.ceiling, j))
        case _:
            return v


def test_restrict_matches_eager_reference():
    for name, src, _ in corpus.STREAMS:
        t = _elab_stream(_t(src))
        for i in range(1, 25):
            v = den_term({}, t, STREAM_G, i, elaborated=True)
            for j in range(1, i + 1):
                assert restrict(v, j) == _eager_restrict(v, j), (name, i, j)
            # chains of two and three restrictions, in any order
            some = sorted({1, 2, i // 2 or 1, i - 1 or 1, i})
            for j in some:
                w = restrict(v, j)
                for k in some:
                    want = _eager_restrict(_eager_restrict(v, j), k)
                    assert restrict(restrict(v, j), k) == want, (name, i, j, k)
                    # w is unread at the first k, and a plain value after it
                    assert restrict(w, k) == want, (name, i, j, k)
                    if i % 6 == 0:
                        for m in some:
                            want3 = _eager_restrict(want, m)
                            got3 = restrict(restrict(restrict(v, j), k), m)
                            assert got3 == want3, (name, i, j, k, m)


def test_restrict_function_entry_under_next(monkeypatch):
    # next restricts the environment, here a function-typed entry
    from glam.frontend import parse_term

    src = "consg (x 0) (next (mapg x zeros))"
    t = elaborate({"x": Arrow(NAT, NAT)}, parse_term(src, env=corpus.ENV), STREAM_G)[0]
    u = _t("\\n: Nat. addN n 2")
    for i in range(1, 9):
        env = {"x": den_term({}, u, Arrow(NAT, NAT), i)}
        for j in range(1, i + 1):
            got, want = restrict(env["x"], j), _eager_restrict(env["x"], j)
            assert (got.fn, got.ceiling) == (want.fn, want.ceiling)
        lazy = den_term({"x": Arrow(NAT, NAT)}, t, STREAM_G, i, env=env, elaborated=True)
        with monkeypatch.context() as m:
            m.setattr(denot, "restrict", _eager_restrict)
            eager = den_term({"x": Arrow(NAT, NAT)}, t, STREAM_G, i, env=env, elaborated=True)
        assert lazy == eager == _stream_val(*[2] * i), i


def test_restrict_deep_value():
    # restriction and reading never recurse on the value's depth
    v = _stream_val(*range(200_000))
    heads = []
    try:
        w = restrict(v, 199_999)
        for _ in range(3):
            heads.append(w.left)
            w = w.right.val
    except RecursionError:
        pass  # failed below: reporting a traceback 10^5 frames deep takes minutes
    assert heads == [0, 1, 2], "restriction recursed on the depth of the value"


def test_restrict_nat_identity():
    assert restrict(7, 3) == 7


def test_restrict_stream_drops_last_stage():
    v2 = _stream_val(0, 0)  # stage 2 approximation (0, (0, *))
    v1 = restrict(v2, 1)
    assert v1 == SPair(0, SLATERSTAR)


def test_restrict_later_to_stage_one():
    assert restrict(SLater(5), 1) is SLATERSTAR


def test_values_of_different_forms_are_unequal():
    assert SPair(1, 2) != SIn(1, 2)
    assert SLater(0) != SPair(0, SLATERSTAR)


def test_a_later_value_made_by_later_app_has_no_other_fields():
    w = _app_value(3, 5)
    assert not hasattr(w, "left")
    assert w.val == 5


def test_restrict_stage_zero_rejected():
    with pytest.raises(IndexZero):
        restrict(1, 0)
    with pytest.raises(IndexZero):
        den_nat(numeral(1), 0)


def _ident(j, a):
    return a


def _app_value(i, val):
    """A stage-i later value made by the <*> rule, whose val is val."""
    env = {"f": SLater(SFun(_ident, i - 1)), "x": SLater(val)}
    return denot._later_app(LaterApp(Var("f"), Var("x")), i, env)


@st.composite
def _sem_values(draw, i, size=3, later=False):
    """A value of a first-order type, or a function, at stage i: ints,
    the unit, pairs, injections, functions and later values, these
    plain, made by <*>, or restriction shells (of shells) from higher
    stages."""
    kinds = ["nat", "unit", "fun"] + (["pair", "in", "later"] if size > 0 else [])
    kind = "later" if later else draw(st.sampled_from(kinds))
    if kind == "nat":
        return draw(st.integers(0, 9))
    if kind == "unit":
        return SUNIT
    if kind == "fun":
        return SFun(_ident, draw(st.integers(1, i)))
    if kind == "pair":
        return SPair(draw(_sem_values(i, size - 1)), draw(_sem_values(i, size - 1)))
    if kind == "in":
        return SIn(draw(st.sampled_from((1, 2))), draw(_sem_values(i, size - 1)))
    if i == 1:
        return SLATERSTAR
    form = draw(st.sampled_from(["plain", "<*>"] + (["shell"] if size > 0 else [])))
    if form == "shell":
        above = draw(st.integers(i + 1, i + 3))
        return restrict(draw(_sem_values(above, size - 1, later=True)), i)
    val = draw(_sem_values(i - 1, size - 1))
    return SLater(val) if form == "plain" else _app_value(i, val)


def _dump(v):
    """A first-order semantic value or a function read in full, as
    nested tuples; a function as its callable and ceiling, since SFun
    has no value equality."""
    if isinstance(v, SFun):
        return ("fun", v.fn, v.ceiling)
    if isinstance(v, (SPair, SIn, SLater)):
        return (v.__class__.__name__, *[_dump(getattr(v, f)) for f in v.__match_args__])
    if isinstance(v, int) or v is SLATERSTAR or v is SUNIT:
        return v
    raise TypeError(f"not a first-order value: {v!r}")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_restrict_matches_eager_reference_on_generated_values(data):
    i = data.draw(st.integers(1, 6))
    v = data.draw(_sem_values(i))
    j, k = data.draw(st.integers(1, i)), data.draw(st.integers(1, i))
    assert _dump(restrict(v, j)) == _dump(_eager_restrict(v, j))
    assert _dump(restrict(restrict(v, j), k)) == _dump(restrict(v, min(j, k)))


# ---------------------------------------------------------------------------
# Term denotations


def test_den_succ_zero_all_stages():
    for i in (1, 2, 5):
        assert den_term({}, numeral(1), NAT, i) == 1


def test_den_next_zero_stage_one_trivial():
    v = den_term({}, _t("next 0"), Later(NAT), 1)
    assert v is SLATERSTAR


def test_den_zeros_nested_pairs():
    v = den_term({}, _t("zeros"), STREAM_G, 3)
    assert v == _stream_val(0, 0, 0)


def test_den_take_examples():
    assert den_take(_t("zeros"), 3) == [0, 0, 0]
    assert den_take(_t("toggle"), 4) == [1, 0, 1, 0]
    assert den_take(_t("paperfolds"), 8) == [1, 1, 0, 1, 1, 0, 0, 1]


def test_den_take_unboxes():
    assert den_take(_t("box toggle"), 3) == [1, 0, 1]


@pytest.mark.parametrize("t", [numeral(3), _t("hdg zeros")], ids=["numeral", "hdg"])
def test_den_take_reports_the_terms_own_error(t):
    # the error is the one for t itself, not the retry's "unbox applied to ..."
    with pytest.raises(TypingError, match="has type Nat but mu a. Nat"):
        den_take(t, 3)


def test_den_nat_examples():
    assert den_nat(_t("addN 2 2"), 1) == 4
    assert den_nat(_t("hdg toggle"), 5) == 1


def test_den_nat_stage_invariance(nat_corpus):
    for name, t, want in nat_corpus[::11]:
        assert den_nat(t, 1) == den_nat(t, 7) == want, name


def test_boxsum_denotation():
    from glam.denot import SIn
    from glam.syntax import Sum, UNIT

    ty = Sum(Box(NAT), Box(UNIT))
    v = den_term({}, _t("boxp (inl[Nat + Unit] 5)"), ty, 2)
    assert isinstance(v, SIn) and v.tag == 1
    assert v.val.at(1) == 5 and v.val.at(4) == 5


def test_sglobal_memoization_invisible():
    t, ty = elaborate({}, _t("box (iterate' (\\x. succ x) 0)"))
    v = den_term({}, t, ty, 2, elaborated=True)
    assert isinstance(v, SGlobal)
    first = v.at(3)
    assert v.at(3) is first  # memoized
    assert sem_eq(STREAM_G, 3, first, v.at(3))


def test_depth_guard():
    with pytest.raises(DepthExceeded):
        den_nat(_t("hdg paperfolds"), 3, depth_limit=10)


def test_depth_guard_counts_memoized_subterms():
    t, _ = elaborate({}, _t("hdg paperfolds"))
    assert den_nat(t, 3, elaborated=True) == 1  # fills the closed-subterm memo
    with pytest.raises(DepthExceeded):
        den_nat(t, 3, depth_limit=10, elaborated=True)


def test_depth_guard_counts_memoized_box_values():
    # rows is a box whose per-stage memo is shared through the prelude's
    # nodes; a query after a deep one must be as deep as a cold one
    assert den_take(_t("diag rows"), 2) == [0, 2]
    with pytest.raises(DepthExceeded):
        den_take(_t("diag rows"), 2, depth_limit=20)


# ---------------------------------------------------------------------------
# Agreement with the machine


def test_soundness_along_steps_stages_one_to_five():
    for src in ("hdg (mapg (\\x. mulN x x) toggle)", "second (box paperfolds)"):
        t2, _ = elaborate({}, _t(src))
        tr = trace(t2, 10**4, pre_erase=False)
        want = observe_nat(_t(src))
        for i in range(1, 6):
            assert {den_nat(u, i, elaborated=True) for u in tr} == {want}


def test_adequacy_spot(nat_corpus):
    for name, t, want in nat_corpus[::13]:
        assert den_nat(t, 1) == observe_nat(t) == want, name


def test_stream_agreement_spot():
    for name, src, oracle in corpus.STREAMS[:4]:
        t = _t(src)
        for i in (1, 4):
            assert den_take(t, i) == take_stream(t, i) == [oracle(k) for k in range(i)]


# ---------------------------------------------------------------------------
# Naturality and the substitution lemma


def test_restriction_naturality():
    # restricting the stage-i denotation to any j <= i gives the stage-j one
    for name, src, _ in corpus.STREAMS:
        t = _elab_stream(_t(src))
        den = {i: den_term({}, t, STREAM_G, i, elaborated=True) for i in range(1, 7)}
        for i in range(1, 7):
            for j in range(1, i + 1):
                assert sem_eq(STREAM_G, j, restrict(den[i], j), den[j]), (name, i, j)


def test_restrict_to_composes():
    # restricting 4 -> 1 in one pass, or through 3 and 2, gives the stage-1 denotation
    t = _t("paperfolds")
    v = den_term({}, t, STREAM_G, 4)
    direct = restrict(v, 1)
    stepped = restrict(restrict(restrict(v, 3), 2), 1)
    assert sem_eq(STREAM_G, 1, direct, den_term({}, t, STREAM_G, 1))
    assert sem_eq(STREAM_G, 1, stepped, direct)


def test_den_substitution_lemma():
    from glam.frontend import parse_term
    from glam.syntax import subst

    cases = [
        ("consg x (next zeros)", NAT, "hdg toggle", STREAM_G),
        ("addN x 3", NAT, "mulN 2 2", NAT),
        ("(x, x)", NAT, "7", Prod(NAT, NAT)),
        ("consg 1 (next (consg x (next zeros)))", NAT, "hdg paperfolds", STREAM_G),
        # a function-typed entry, restricted under next
        ("consg (x 0) (next (mapg x zeros))", Arrow(NAT, NAT), "\\n: Nat. addN n 2", STREAM_G),
    ]
    for src, bty, usrc, aty in cases:
        t = parse_term(src, env=corpus.ENV)
        u = _t(usrc)
        for i in (1, 2, 3, 4):
            uval = den_term({}, u, bty, i)
            env = {"x": uval}
            via_env = den_term({"x": bty}, t, aty, i, env=env)
            direct = den_term({}, subst(t, {"x": u}), aty, i)
            assert sem_eq(aty, i, via_env, direct), (src, i)


# ---------------------------------------------------------------------------
# Denotation needs no types


def _heads(v, i):
    out = []
    for j in range(i, 0, -1):
        out.append(v.left)
        v = v.right.val if j > 1 else v.right
    return out


def _fresh_env():
    """The prelude and the test helpers parsed afresh, so that no
    closed-subterm memo filled elsewhere answers for their nodes."""
    return parse_program(corpus._HELPERS_SRC, base=parse_program(PRELUDE_PATH.read_text())).env()


def test_denotation_infers_no_types(monkeypatch):
    # Fresh prelude nodes, so that no closed-subterm memo filled by an
    # earlier test answers for them.
    monkeypatch.setattr(corpus, "ENV", _fresh_env())
    streams = [(name, _elab_stream(corpus.term(src)), oracle) for name, src, oracle in corpus.STREAMS]
    nats = [(name, elaborate({}, t, NAT)[0], want) for name, t, want in corpus.nat_corpus()]

    def no_types(*args, **kwargs):
        raise AssertionError("type checker called during denotation")

    monkeypatch.setattr(typecheck, "infer", no_types)
    monkeypatch.setattr(typecheck, "elaborate", no_types)
    for name, t, oracle in streams:
        for i in (1, 4):
            v = den_term({}, t, STREAM_G, i, elaborated=True)
            assert _heads(v, i) == [oracle(k) for k in range(i)], (name, i)
    for name, t, want in nats:
        for i in (1, 3):
            assert den_term({}, t, NAT, i, elaborated=True) == want, (name, i)


# ---------------------------------------------------------------------------
# fix[T]: the marked node and its fixed-point rule


def _gate_queries(diag_stages=24):
    """Every gate query, on the nodes of corpus.ENV: (query, value or
    error code)."""
    out = []

    def ask(key, fn):
        try:
            out.append((key, fn()))
        except DepthExceeded as e:
            out.append((key, e.code))

    for name, src, _ in corpus.STREAMS:
        t = corpus.term(src)
        for i in range(1, (diag_stages if name == "diag-rows" else 24) + 1):
            ask(("take", name, i), lambda: den_take(t, i))
    for name, t, _ in corpus.nat_corpus():
        for i in (1, 3):
            ask(("nat", name, i), lambda: den_nat(t, i))
    for name, *_ in corpus.FIX_LAW:
        lhs, rhs, _ = corpus.fix_law_sides(name)
        lhs, ty = elaborate({}, lhs)
        for side, t in (("lhs", lhs), ("rhs", elaborate({}, rhs, ty)[0])):
            for i in range(1, 9):
                ask(("law", name, side, i), lambda: _dump(den_term({}, t, ty, i, elaborated=True)))
    return out


def _count_fixpoints(monkeypatch):
    """A list that grows by one at each call of the fixed-point rule."""
    calls = []
    fixpoint = denot._fixpoint
    monkeypatch.setattr(denot, "_fixpoint", lambda j, f: calls.append(j) or fixpoint(j, f))
    return calls


def test_fixpoint_rule_matches_y_combinator(monkeypatch):
    calls = _count_fixpoints(monkeypatch)
    monkeypatch.setattr(corpus, "ENV", _fresh_env())
    fast = _gate_queries(diag_stages=16)
    assert calls, "the fixed-point rule was never used"

    def plain_app(t, i, env):  # the App rule without the fix[T] case
        return denot._den(t.fun, i, env).call(i, denot._den(t.arg, i, env))

    monkeypatch.setitem(denot._RULES, App, plain_app)
    monkeypatch.setattr(corpus, "ENV", _fresh_env())
    calls.clear()
    reference = _gate_queries(diag_stages=16)
    assert not calls
    assert len(fast) == len(reference)
    for got, want in zip(fast, reference):
        assert got == want


def test_fixpoint_calls_f_at_each_stage_from_one_up():
    stages = []

    def f(k, later):
        stages.append(k)
        return k

    assert denot._fixpoint(5, SFun(f, 5)) == 5
    assert stages == [1, 2, 3, 4, 5]


def test_later_app_calls_the_function_one_stage_down():
    stages = []

    def log(k, a):
        stages.append(k)
        return a

    # the ceiling is above the stage, so no clamping hides the call's stage
    env = {"f": SLater(SFun(log, 10)), "a": SLater(7)}
    v = den_term({}, LaterApp(Var("f"), Var("a")), Later(NAT), 4, env=env, elaborated=True)
    assert v.val == 7
    assert stages == [3]


def _marked_nodes(t):
    """The distinct nodes of t that carry fix_term's mark."""
    out, seen, todo = [], set(), [t]
    while todo:
        u = todo.pop()
        if id(u) in seen:
            continue
        seen.add(id(u))
        if u.__class__ is App and u._fix:
            out.append(u)
        for name, kind in SHAPES[u.__class__]:
            v = getattr(u, name)
            if kind == TERM:
                todo.append(v)
            elif kind == SUBST:
                todo.extend(w for _, w in v)
    return out


def test_fix_mark_survives_elaborate_subst_and_reduction(monkeypatch):
    fx, phi = fix_term(STREAM_G), _t("\\s. consg 0 s")
    assert _marked_nodes(fx) == [fx]
    t, _ = elaborate({}, App(fx, phi))
    m = t.fun
    # fix[T] is closed and fully annotated: elaborate keeps the very node
    assert _marked_nodes(t) == [m] and m is fx
    # a second elaboration of fx is answered by its closed-node memo
    assert elaborate({}, Pair(App(fx, phi), numeral(0)))[0].left.fun is m
    # subst shares closed nodes, the marked one included
    assert subst(Pair(m, Var("x")), {"x": numeral(1)}).left is m
    # the reducts keep the very node until it is beta-reduced
    tr = trace(elaborate({}, App(_t("hdg"), App(fx, phi)))[0], pre_erase=False)
    marks = [_marked_nodes(u) for u in tr]
    k = marks.index([])
    assert k >= 2 and marks[:k] == [[m]] * k and not any(marks[k:])
    assert {den_nat(u, 3, elaborated=True) for u in tr} == {0}
    # the BDE compiler's fix node gets the fixed-point rule too
    calls = _count_fixpoints(monkeypatch)
    plus = compile_bde(parse_bde("bde plus(2) { head = x1 + x2; tail = plus(z1, z2); }"), "plus")
    assert _marked_nodes(plus.guarded) == [plus.guarded.fun]
    t = App(App(plus.guarded, _t("toggle")), _t("iterate' (\\x. succ x) 0"))
    assert den_take(t, 6) == take_stream(t, 6) == [1, 1, 3, 3, 5, 5]
    assert calls


def test_fix_mark_is_invisible(monkeypatch):
    fx = fix_term(STREAM_G)
    plain = App(fx.fun, fx.arg)
    assert not _marked_nodes(plain)
    assert pretty(fx) == pretty(plain) and alpha_eq(fx, plain)
    assert free_vars(fx) == free_vars(plain) == frozenset()
    # the machine never reads the mark: same step counts and values
    # on every corpus term, with and without it
    def traces():
        out = []
        for name, t, ty in corpus.sr_corpus():
            tr = trace(elaborate({}, t, ty)[0], pre_erase=False)
            out.append((name, len(tr), pretty(tr[-1])))
        return out

    marked = traces()
    assert _marked_nodes(corpus.term("zeros"))

    def unmarked_fix_term(ty):
        t = fix_term(ty)
        return App(t.fun, t.arg)

    monkeypatch.setattr(frontend, "fix_term", unmarked_fix_term)
    prelude = parse_program(PRELUDE_PATH.read_text())
    monkeypatch.setattr(corpus, "PRELUDE", prelude)
    monkeypatch.setattr(corpus, "ENV", parse_program(corpus._HELPERS_SRC, base=prelude).env())
    assert not _marked_nodes(corpus.term("zeros"))
    assert traces() == marked


# ---------------------------------------------------------------------------
# <*>: a later value computed when it is first read


def _eager_later_app(t, i, env):  # the <*> rule that computes its value at once
    if i == 1:
        return SLATERSTAR
    fv = denot._den(t.fun, i, env)
    av = denot._den(t.arg, i, env)
    return SLater(fv.val.call(i - 1, av.val))


def test_demand_driven_later_app_matches_eager_rule(monkeypatch):
    reads = []
    force = denot._force
    monkeypatch.setattr(denot, "_force", lambda d: reads.append(None) or force(d))
    monkeypatch.setattr(corpus, "ENV", _fresh_env())
    lazy = _gate_queries()
    assert reads, "no <*> value was computed on demand"

    monkeypatch.setitem(denot._RULES, LaterApp, _eager_later_app)
    monkeypatch.setattr(corpus, "ENV", _fresh_env())
    reads.clear()
    eager = _gate_queries()
    assert not reads
    assert len(lazy) == len(eager)
    for got, want in zip(lazy, eager):
        assert got == want


def _cold_depth(monkeypatch, query):
    """The least depth_limit under which query(depth_limit) returns,
    each try on fresh nodes."""
    lo, hi = 1, 1000
    while lo < hi:
        mid = (lo + hi) // 2
        monkeypatch.setattr(corpus, "ENV", _fresh_env())
        try:
            query(mid)
            hi = mid
        except DepthExceeded:
            lo = mid + 1
    return lo


def test_warm_den_take_is_as_deep_as_cold(monkeypatch):
    # rereading a later value charges the depth its first read reached
    def take(limit):
        return den_take(corpus.term("paperfolds"), 8, depth_limit=limit)

    depth = _cold_depth(monkeypatch, take)
    monkeypatch.setattr(corpus, "ENV", _fresh_env())
    want = take(DEFAULT_DEPTH)
    with pytest.raises(DepthExceeded):
        take(depth - 1)
    assert take(depth) == want


def test_den_take_reading_counts_against_depth_limit(monkeypatch):
    # paperfolds' later cells are computed while den_take reads them
    def term(limit):
        return den_term({}, corpus.term("paperfolds"), STREAM_G, 8, depth_limit=limit)

    def take(limit):
        return den_take(corpus.term("paperfolds"), 8, depth_limit=limit)

    assert _cold_depth(monkeypatch, take) > _cold_depth(monkeypatch, term)


def test_every_read_of_a_later_app_value_is_charged():
    # a shell over a <*> value reads through to it at every read, so a
    # reread through the shell is charged as a reread of the value is
    t = elaborate({}, _t("next (\\x : Nat. succ x) <*> next 4"))[0]
    v = den_term({}, t, Later(NAT), 3, elaborated=True)
    w = restrict(v, 2)
    assert w.val == v.val == 5
    for u in (v, w, restrict(v, 2)):
        with denot._session(2), pytest.raises(DepthExceeded):
            u.val
    with denot._session(3):
        assert w.val == 5


def _den_calls(monkeypatch, src, oracle, stages):
    """stage -> how many _den calls a cold den_take of src makes there,
    each checked against the oracle."""
    calls = [0]
    den = denot._den

    def counted(t, i, env):
        calls[0] += 1
        return den(t, i, env)

    monkeypatch.setattr(denot, "_den", counted)
    counts = {}
    for i in stages:
        monkeypatch.setattr(corpus, "ENV", _fresh_env())
        calls[0] = 0
        assert den_take(corpus.term(src), i) == [oracle(k) for k in range(i)], (src, i)
        counts[i] = calls[0]
    return counts


def test_diag_rows_den_calls_grow_at_most_like_stage_squared(monkeypatch):
    counts = _den_calls(monkeypatch, "diag rows", lambda k: 2 * k, (16, 32))
    assert counts[32] <= 2**2.2 * counts[16], counts


# ---------------------------------------------------------------------------
# fix[T] f: stage i is f applied to next of the memoized stage i - 1


def _rebuilding_app(t, i, env):  # the App rule that builds every fixed point from stage 1
    if t._fix:
        return SFun(denot._fixpoint, i)
    return denot._den(t.fun, i, env).call(i, denot._den(t.arg, i, env))


def test_fixpoint_reuse_matches_rebuilding_rule(monkeypatch):
    calls = _count_fixpoints(monkeypatch)
    monkeypatch.setattr(corpus, "ENV", _fresh_env())
    reuse = _gate_queries(diag_stages=16)
    reused = len(calls)

    monkeypatch.setitem(denot._RULES, App, _rebuilding_app)
    monkeypatch.setattr(corpus, "ENV", _fresh_env())
    calls.clear()
    rebuilt = _gate_queries(diag_stages=16)
    # each reuse of a memoized stage stands in for one _fixpoint call
    assert reused < len(calls), "no memoized stage of a fixed point was reused"
    assert len(reuse) == len(rebuilt)
    for got, want in zip(reuse, rebuilt):
        assert got == want


def _least_depth(monkeypatch, query):
    """The least depth_limit under which query(depth_limit) returns on
    fresh nodes: the deepest level its depth counters reach."""
    sessions = []

    class Recorded(denot._Sess):
        __slots__ = ()

        def __init__(self, limit):
            super().__init__(limit)
            sessions.append(self)

    with monkeypatch.context() as m:
        m.setattr(denot, "_Sess", Recorded)
        m.setattr(corpus, "ENV", _fresh_env())
        query(DEFAULT_DEPTH)
    return max(st.peak for st in sessions)


def test_fixpoint_reuse_is_as_deep_as_rebuilding(monkeypatch):
    def depths():
        out = []
        for name, src, _ in corpus.STREAMS:
            for i in (4, 8):
                def term(limit):
                    t = _elab_stream(corpus.term(src))
                    return den_term({}, t, STREAM_G, i, depth_limit=limit, elaborated=True)

                def take(limit):
                    return den_take(corpus.term(src), i, depth_limit=limit)

                out.append((name, i, _least_depth(monkeypatch, term), _least_depth(monkeypatch, take)))
        return out

    reuse = depths()
    with monkeypatch.context() as m:
        m.setitem(denot._RULES, App, _rebuilding_app)
        assert depths() == reuse

    # the deepest level reached is the least limit that works
    def take(limit):
        return den_take(corpus.term("paperfolds"), 8, depth_limit=limit)

    assert _least_depth(monkeypatch, take) == _cold_depth(monkeypatch, take)


def test_reused_stage_is_charged_as_a_memo_hit(monkeypatch):
    # stage i of fix[T] f charges its memoized stage i - 1 as a hit at
    # the node would be: the caller's depth plus the entry's reach
    monkeypatch.setattr(corpus, "ENV", _fresh_env())
    t = elaborate({}, corpus.term("paperfolds"))[0]
    assert t.fun._fix
    v = den_term({}, t, STREAM_G, 3, elaborated=True)
    t._sem[3] = (v, 40)  # as if stage 3 had reached 40 levels down
    for i in (3, 4):
        with pytest.raises(DepthExceeded):
            den_term({}, t, STREAM_G, i, depth_limit=39, elaborated=True)
        assert den_term({}, t, STREAM_G, i, depth_limit=40, elaborated=True).left == 1


def test_paperfolds_den_calls_grow_about_linearly(monkeypatch):
    counts = _den_calls(monkeypatch, "paperfolds", corpus._pf, (32, 64))
    assert counts[64] <= 2**1.2 * counts[32], counts


def test_den_take_paperfolds_512_matches_closed_form():
    assert den_take(corpus.term("paperfolds"), 512) == [corpus._pf(k) for k in range(512)]
