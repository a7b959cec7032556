import itertools
import re
from functools import lru_cache
from math import comb
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import corpus
from glam.bde import (
    BdeDef,
    HostStream,
    _eval_head,
    compile_bde,
    host_nats,
    host_toggle,
    host_zeros,
    oracle_eval,
    parse_bde,
    validate_bde,
)
from glam.errors import (
    BadVariable,
    BdeError,
    ForwardReference,
    GlamError,
    ParseError,
    UnknownSymbol,
)
from glam.denot import den_take
from glam.machine import erase, take_stream
from glam.syntax import App, LaterApp, Next, Prim, Var, alpha_eq, numeral
from glam.typecheck import check
from test_need import reference_take

SRC = """
bde zeros(0) { head = 0; tail = zeros; }
bde five(0)  { head = 5; tail = zeros; }
bde plus(2)  { head = x1 + x2; tail = plus(z1, z2); }
bde times(2) { head = x1 * x2; tail = plus(times(z1, y2), times(x1, z2)); }
"""

DEFS = parse_bde(SRC)


def _compiled(name):
    return compile_bde(DEFS, name)


def _toggle():
    return corpus.term("toggle")


def _call(name, *args):
    """The tail term of the call name(args): (name <*> a) <*> b."""
    t = Var(name)
    for a in args:
        t = LaterApp(t, a)
    return t


Z1, Z2, Y1, Y2, X1 = (Var(v) for v in ("z1", "z2", "y1", "y2", "x1"))


# ---------------------------------------------------------------------------
# Parsing


def test_parse_zeros_block():
    d = DEFS[0]
    assert d.name == "zeros" and d.arity == 0
    assert d.head._nv == 0
    assert alpha_eq(d.tail, Var("zeros"))


def test_parse_plus_block():
    d = next(x for x in DEFS if x.name == "plus")
    assert d.arity == 2
    assert alpha_eq(d.head, Prim("addN", Var("x1"), Var("x2")))
    assert alpha_eq(d.tail, _call("plus", Z1, Z2))


def test_parse_times_block():
    d = next(x for x in DEFS if x.name == "times")
    assert alpha_eq(d.head, Prim("mulN", Var("x1"), Var("x2")))
    assert alpha_eq(d.tail, _call("plus", _call("times", Z1, Y2), _call("times", X1, Z2)))


def _compiled_head(head):
    src = f"bde f(2) {{ head = {head}; tail = z1; }}"
    return compile_bde(parse_bde(src), "f").guarded


def _tail(tail):
    return parse_bde(f"bde f(2) {{ head = 0; tail = {tail}; }}")[0].tail


@pytest.mark.parametrize(
    "src, same, other",
    [
        ("x1 + x2 * 3", "x1 + (x2 * 3)", "(x1 + x2) * 3"),
        ("x1 * x2 + 3", "(x1 * x2) + 3", "x1 * (x2 + 3)"),
        ("x1 + x2 + 3", "(x1 + x2) + 3", "x1 + (x2 + 3)"),
        ("x1 * x2 * 3", "(x1 * x2) * 3", "x1 * (x2 * 3)"),
    ],
)
def test_operator_precedence_and_associativity(src, same, other):
    # * binds tighter than +, and both group to the left, in heads and tails
    assert alpha_eq(_compiled_head(src), _compiled_head(same))
    assert not alpha_eq(_compiled_head(src), _compiled_head(other))
    tail = src.replace("3", "y1")
    assert alpha_eq(_tail(tail), _tail(same.replace("3", "y1")))
    assert not alpha_eq(_tail(tail), _tail(other.replace("3", "y1")))


def test_operators_stand_for_plus_and_times_in_tails():
    assert alpha_eq(_tail("z1 + z2 * y1"), _call("plus", Z1, _call("times", Z2, Y1)))
    assert alpha_eq(_tail("z1 + z2 + y1"), _call("plus", _call("plus", Z1, Z2), Y1))
    assert alpha_eq(_tail("zeros()"), Var("zeros"))


def test_parse_syntax_error():
    with pytest.raises(ParseError):
        parse_bde("bde broken(1) { head = ; }")


def test_non_ascii_digit_arity_is_a_parse_error():
    with pytest.raises(ParseError) as e:
        parse_bde("bde f(²) { head = 0; tail = f; }")
    assert e.value.message == "unexpected character '²'"
    assert e.value.loc == (1, 7)


# ---------------------------------------------------------------------------
# Validation


def test_validate_ok():
    validate_bde(DEFS)


def test_validate_bad_variable():
    defs = parse_bde("bde f(2) { head = x1; tail = w3; }")
    with pytest.raises(BadVariable):
        validate_bde(defs)
    defs = parse_bde("bde f(2) { head = x1; tail = z3; }")
    with pytest.raises(BadVariable):
        validate_bde(defs)


def test_validate_head_variable_discipline():
    defs = parse_bde("bde f(1) { head = y1; tail = z1; }")
    with pytest.raises(BadVariable):
        validate_bde(defs)


def test_validate_forward_reference():
    defs = parse_bde(
        "bde f(1) { head = x1; tail = g(z1); }\n"
        "bde g(1) { head = x1; tail = z1; }"
    )
    with pytest.raises(ForwardReference):
        validate_bde(defs)


def test_validate_arity_mismatch():
    defs = parse_bde("bde zeros(0) { head = 0; tail = zeros; }\n"
                     "bde f(1) { head = x1; tail = zeros(z1); }")
    with pytest.raises(BdeError):
        validate_bde(defs)


_PLUS = "bde plus(2) { head = x1 + x2; tail = plus(z1, z2); }\n"


# Each malformed input, its error's class, message and location, as
# compile_bde(parse_bde(src), "f") reports it.  The whole file is parsed
# before anything is validated, except that the parser refuses an x/y/z
# variable applied to no arguments itself: y1() and y1 are the same term.
BDE_ERRORS = [
    ("bde f(1) { head = y1; tail = z1; }",
     BadVariable, "head may only use x1..x1, found 'y1'", None),
    ("bde f(2) { head = x1 + x9; tail = z1; }",
     BadVariable, "head may only use x1..x2, found 'x9'", None),
    ("bde f(2) { head = x1; tail = w3; }",
     BadVariable, "tail of 'f' uses 'w3'; only x/y/z variables exist", None),
    ("bde f(2) { head = x1; tail = z3; }",
     BadVariable, "tail of 'f' uses z3 but arity is 2", None),
    ("bde f(1) { head = x1; tail = y1(z1); }",
     BadVariable, "variable 'y1' cannot be applied", None),
    ("bde f(1) { head = x1; tail = y1(); }",
     BadVariable, "variable 'y1' cannot be applied", None),
    ("bde f(1) { head = x1; tail = g(z1); }\nbde g(1) { head = x1; tail = z1; }",
     ForwardReference,
     "tail of 'f' uses 'g', defined later (mutual recursion is not supported)", None),
    ("bde f(1) { head = x1; tail = g(z1); }",
     UnknownSymbol, "tail of 'f' uses undefined 'g'", None),
    (_PLUS + "bde f(1) { head = x1; tail = plus(z1); }",
     BdeError, "'plus' has arity 2, applied to 1 arguments in 'f'", None),
    # the arguments of a call are checked too
    (_PLUS + "bde f(2) { head = x1; tail = plus(z1, plus(y2, z3)); }",
     BadVariable, "tail of 'f' uses z3 but arity is 2", None),
    (_PLUS + _PLUS + "bde f(0) { head = 0; tail = f; }",
     BdeError, "duplicate equation name", None),
    ("bde x1(0) { head = 0; tail = x1; }",
     BadVariable, "equation name 'x1' is a reserved variable", None),
    ("bde g(0) { head = 0; tail = g; }",
     BdeError, "no equation named 'f'", None),
    ("bde f(1) { head = ; tail = z1; }",
     ParseError, "expected a head term, found ';'", (1, 19)),
    ("bde f(1) { head = (x1; tail = z1; }",
     ParseError, "expected ')', found ';'", (1, 22)),
    ("bde f(1) { head = x1 +; tail = z1; }",
     ParseError, "expected a head term, found ';'", (1, 23)),
    ("bde f(1) { head = x1; tail = z1 * ; }",
     ParseError, "expected a tail term, found ';'", (1, 35)),
    # a head makes no call, and a tail has no numeral
    ("bde f(1) { head = f(x1); tail = z1; }",
     ParseError, "expected ';', found '('", (1, 20)),
    ("bde f(1) { head = x1; tail = 3; }",
     ParseError, "expected a tail term, found '3'", (1, 30)),
    # a parse error late in the file wins over a bad head early on
    ("bde f(1) { head = y1; tail = z1; }\nbde g(0) { head = 0 tail = g; }",
     ParseError, "expected ';', found 'tail'", (2, 21)),
    # and so does a variable applied to no arguments, refused while parsing
    ("bde f(1) { head = y1; tail = z1; }\nbde g(0) { head = 0; tail = x1(); }",
     BadVariable, "variable 'x1' cannot be applied", None),
]


@pytest.mark.parametrize("src, cls, message, loc", BDE_ERRORS)
def test_bde_error_class_message_and_location(src, cls, message, loc):
    with pytest.raises(GlamError) as e:
        compile_bde(parse_bde(src), "f")
    assert (type(e.value), e.value.message, e.value.loc) == (cls, message, loc)


def test_negative_arity_is_refused():
    # a parsed file cannot reach this check: its arity is a digit string
    defs = [BdeDef("f", -1, numeral(0), Var("f"))]
    with pytest.raises(BdeError) as e:
        validate_bde(defs)
    assert e.value.message == "negative arity in 'f'"


def test_call_arguments_keep_their_order():
    # first(s, t) is s, so a call that swapped its arguments would read t
    defs = parse_bde("bde first(2) { head = x1; tail = first(z1, z2); }")
    want = list(range(6))
    assert oracle_eval(defs, "first", _hosts(("nats", "toggle")), 6) == want
    assert take_stream(_applied(defs, "first", ("nats", "toggle")), 6) == want


def test_hand_built_applied_variable_is_refused():
    defs = [BdeDef("f", 1, Var("x1"), LaterApp(Var("y1"), Var("z1")))]
    with pytest.raises(BadVariable) as e:
        validate_bde(defs)
    assert e.value.message == "variable 'y1' cannot be applied"


def test_validate_plus_requires_earlier_definition():
    defs = parse_bde("bde f(2) { head = x1; tail = z1 + z2; }")
    with pytest.raises(UnknownSymbol):
        validate_bde(defs)


# ---------------------------------------------------------------------------
# Compilation


def test_compiled_zeros_alpha_eq_prelude_zeros():
    got = erase(_compiled("zeros").guarded)
    want = erase(corpus.PRELUDE.lookup("zeros").resolved())
    assert alpha_eq(got, want)


def test_compiled_types():
    for name, k in (("zeros", 0), ("five", 0), ("plus", 2), ("times", 2)):
        out = _compiled(name)
        check({}, out.guarded, out.guarded_type)
        check({}, out.lifted, out.lifted_type)
        assert corpus.glam_arity(out.guarded_type) == k


def test_compiled_plus_values():
    t = App(App(_compiled("plus").guarded, _toggle()), _toggle())
    assert take_stream(t, 6) == [2, 0, 2, 0, 2, 0]


def test_compiled_times_values():
    t = App(App(_compiled("times").guarded, _toggle()), _toggle())
    assert take_stream(t, 6) == [1, 0, 2, 0, 3, 0]


def test_compiled_constant_stream():
    assert take_stream(_compiled("five").guarded, 4) == [5, 0, 0, 0]


def test_lifted_term_runs_on_boxed_streams():
    out = _compiled("plus")
    t = App(App(out.lifted, corpus.term("box toggle")), corpus.term("box toggle"))
    assert take_stream(t, 4) == [2, 0, 2, 0]


# ---------------------------------------------------------------------------
# Oracle


def test_oracle_zeros():
    assert oracle_eval(DEFS, "zeros", [], 3) == [0, 0, 0]


def test_oracle_plus():
    assert oracle_eval(DEFS, "plus", [host_toggle(), host_toggle()], 4) == [2, 0, 2, 0]


def host_const(n):
    return HostStream(lambda i: n)


def test_oracle_times_convolution():
    assert oracle_eval(DEFS, "times", [host_toggle(), host_toggle()], 5) == [1, 0, 2, 0, 3]
    # convolution of nats with ones: partial sums 0,1,3,6,...
    ones = host_const(1)
    assert oracle_eval(DEFS, "times", [host_nats(), ones], 5) == [0, 1, 3, 6, 10]


def test_oracle_arity_check():
    with pytest.raises(BdeError):
        oracle_eval(DEFS, "plus", [host_zeros()], 3)


# ---------------------------------------------------------------------------
# Compiled-vs-oracle and the unfolding law


def test_compiled_agrees_with_oracle_sampled():
    hosts = {"zeros": host_zeros, "toggle": host_toggle, "nats": host_nats}
    terms = {
        "zeros": corpus.term("zeros"),
        "toggle": corpus.term("toggle"),
        "nats": corpus.term("iterate' (\\x. succ x) 0"),
    }
    for name, tup in (("zeros", ()), ("plus", ("toggle", "nats")), ("times", ("nats", "toggle"))):
        out = _compiled(name)
        t = out.guarded
        for a in tup:
            t = App(t, terms[a])
        assert take_stream(t, 8) == oracle_eval(DEFS, name, [hosts[a]() for a in tup], 8)


def test_unfolding_law_observable():
    # compiled f^g and Phi^g(next f^g) agree on applied observations
    for name, args in (("zeros", ()), ("plus", ("toggle", "toggle")), ("times", ("toggle", "nats"))):
        out = _compiled(name)
        phi = out.guarded.arg  # guarded = fix_term(T) applied to Phi
        lhs = out.guarded
        rhs = App(phi, Next(out.guarded))
        for a in args:
            src = "iterate' (\\x. succ x) 0" if a == "nats" else a
            lhs = App(lhs, corpus.term(src))
            rhs = App(rhs, corpus.term(src))
        assert take_stream(lhs, 5) == take_stream(rhs, 5), name


def test_modularity_uses_earlier_equation():
    defs = parse_bde(
        "bde zeros(0) { head = 0; tail = zeros; }\n"
        "bde one(0)   { head = 1; tail = zeros; }\n"
        "bde nats(0)  { head = 0; tail = nats + one; }\n"
        "bde plus(2)  { head = x1 + x2; tail = plus(z1, z2); }\n"
    )
    # 'nats + one' needs plus, which is defined later: rejected
    with pytest.raises(ForwardReference):
        validate_bde(defs)


# ---------------------------------------------------------------------------
# The memoized oracle against the plain one, and both runners at large n

PROGRAMS = Path(__file__).parent.parent / "programs"
STREAMS_BDE = parse_bde((PROGRAMS / "streams.bde").read_text())
RUTTEN_BDE = parse_bde((PROGRAMS / "rutten.bde").read_text())

# The argument streams: a glam term, a host stream and a Python function.
ARGS = {
    "zeros": ("zeros", host_zeros, lambda i: 0),
    "toggle": ("toggle", host_toggle, lambda i: 1 - i % 2),
    "nats": ("iterate' (\\x. succ x) 0", host_nats, lambda i: i),
}


def _plain_oracle(defs, name, args, n):
    """oracle_eval without its memo: every call of an equation builds a
    new lazy stream, so times unfolds into a binary tree of calls and
    costs about 2x per element.  The independent reference at small n."""
    byname = {d.name: d for d in defs}

    def tail(s):
        return HostStream(lambda i: s(i + 1))

    def cons(h, s):
        return HostStream(lambda i: h if i == 0 else s(i - 1))

    def stream(d, args):
        heads = [s(0) for s in args]
        cell = []

        def tail_stream():
            if not cell:
                env = {}
                for i in range(d.arity):
                    env[f"x{i + 1}"] = cons(heads[i], host_zeros())
                    env[f"y{i + 1}"] = args[i]
                    env[f"z{i + 1}"] = tail(args[i])
                cell.append(expr(d.tail, env))
            return cell[0]

        def elem(i):
            if i == 0:
                return _eval_head(d.head, heads)
            return tail_stream()(i - 1)

        return HostStream(elem)

    def expr(t, env, args=()):
        # a call e(a, b) is (e <*> a) <*> b: collect its arguments
        if isinstance(t, LaterApp):
            return expr(t.fun, env, (expr(t.arg, env),) + args)
        if t.name in byname:
            return stream(byname[t.name], list(args))
        return env[t.name]

    s = stream(byname[name], list(args))
    return [s(i) for i in range(n)]


def _applied(defs, name, args):
    t = compile_bde(defs, name).guarded
    for a in args:
        t = App(t, corpus.term(ARGS[a][0]))
    return t


def _hosts(args):
    return [ARGS[a][1]() for a in args]


def _convolution(s, t, n):
    return [sum(s(k) * t(i - k) for k in range(i + 1)) for i in range(n)]


def test_memoized_oracle_matches_plain_oracle():
    for d in STREAMS_BDE:
        for args in itertools.product(ARGS, repeat=d.arity):
            want = _plain_oracle(STREAMS_BDE, d.name, _hosts(args), 10)
            for n in range(1, 11):
                got = oracle_eval(STREAMS_BDE, d.name, _hosts(args), n)
                assert got == want[:n], (d.name, args, n)


# Tails that are a bare variable, not a call: the oracle's chain of
# calls ends there and goes on in the argument stream.
BARE_TAILS = parse_bde("bde same(1) { head = x1; tail = z1; }\n"
                       "bde again(1) { head = x1; tail = y1; }")


@pytest.mark.parametrize("name", ["same", "again"])
@pytest.mark.parametrize("arg", list(ARGS))
def test_bare_tail_runners_agree(name, arg):
    s = ARGS[arg][2]
    want = [s(i) for i in range(6)] if name == "same" else [s(0)] + [s(i) for i in range(5)]
    t = _applied(BARE_TAILS, name, (arg,))
    assert oracle_eval(BARE_TAILS, name, _hosts((arg,)), 6) == want
    assert take_stream(t, 6) == want
    assert den_take(t, 6) == want


# A per-observation fuel between what sharing needs and what a tree of
# calls needs.  With the memo tables, the costliest pair (nats, nats)
# needs 4 792 rule firings for one observation at n = 20.  Unfolding
# times into a binary tree of calls needs 4 011 for the eighth element
# and 16 107 for the tenth, so such an evaluator runs out of fuel by the
# tenth element, in well under a second, and does not hang the test.
POLY_FUEL = 10_000


@pytest.mark.parametrize("args", list(itertools.product(ARGS, repeat=2)))
def test_times_is_polynomial(args):
    want = _convolution(ARGS[args[0]][2], ARGS[args[1]][2], 20)
    assert take_stream(_applied(STREAMS_BDE, "times", args), 20, fuel=POLY_FUEL) == want
    assert oracle_eval(STREAMS_BDE, "times", _hosts(args), 20) == want


def test_times_at_large_n():
    # both runners walk stream tails on lists, not the Python stack
    want = _convolution(ARGS["toggle"][2], ARGS["toggle"][2], 200)
    assert oracle_eval(STREAMS_BDE, "times", _hosts(("toggle", "toggle")), 200) == want
    assert take_stream(_applied(STREAMS_BDE, "times", ("toggle", "toggle")), 200) == want


# ---------------------------------------------------------------------------
# Rutten's products and nats, against closed forms


def _rutten_agrees(name, args, n, want):
    assert take_stream(_applied(RUTTEN_BDE, name, args), n) == want, (name, args)
    assert oracle_eval(RUTTEN_BDE, name, _hosts(args), n) == want, (name, args)


@pytest.mark.parametrize("args", list(itertools.product(ARGS, repeat=2)))
def test_rutten_shuffle_product(args):
    s, t = ARGS[args[0]][2], ARGS[args[1]][2]
    n = 10
    want = [sum(comb(i, k) * s(k) * t(i - k) for k in range(i + 1)) for i in range(n)]
    _rutten_agrees("shuffle", args, n, want)


@pytest.mark.parametrize("args", list(itertools.product(ARGS, repeat=2)))
def test_rutten_hadamard_product(args):
    s, t = ARGS[args[0]][2], ARGS[args[1]][2]
    _rutten_agrees("hadamard", args, 12, [s(i) * t(i) for i in range(12)])


def test_rutten_nats_over_ones():
    _rutten_agrees("ones", (), 12, [1] * 12)
    _rutten_agrees("nats", (), 12, list(range(12)))


# ---------------------------------------------------------------------------
# Generated systems through the compiler, the checker, the need-machine
# and the oracle


@lru_cache(maxsize=None)
def _heads(k):
    """Head expressions over numerals, x1..xk, + and *."""
    leaves = st.sampled_from(["0", "1", "2", "3"] + [f"x{i}" for i in range(1, k + 1)])
    return st.recursive(
        leaves,
        lambda h: st.tuples(h, st.sampled_from(["+", "*"]), h, st.booleans()).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})" if t[3] else f"{t[0]} {t[1]} {t[2]}"),
        max_leaves=4,
    )


@lru_cache(maxsize=None)
def _tails(name, k, earlier, self_calls=True):
    """Tail expressions of the k-ary equation name, given the (name,
    arity) of the equations before it: the x, y and z variables, calls
    of name and of earlier equations, and + or * once plus or times is
    defined.  A call of name takes no call of name in its arguments:
    f(f(z1)) makes element n a nest of 2^n calls, and with * in the
    head a number of 2^2^n digits.  earlier is a tuple, so that each
    strategy is built once."""
    calls = list(earlier) + ([(name, k)] if self_calls or k == 0 else [])
    leaves = st.sampled_from([f"{v}{i}" for v in "xyz" for i in range(1, k + 1)]
                             + [f for f, a in calls if a == 0])
    ops = [op for op, f in (("+", "plus"), ("*", "times")) if (f, 2) in earlier]

    def extend(t):
        options = [st.lists(_tails(name, k, earlier, False) if f == name else t,
                            min_size=a, max_size=a).map(lambda xs, f=f: f"{f}({', '.join(xs)})")
                   for f, a in calls if a > 0]
        options += [st.tuples(t, st.sampled_from(ops), t).map(" ".join)] if ops else []
        return st.one_of(options) if options else t

    return st.recursive(leaves, extend, max_leaves=3)


@st.composite
def _systems(draw):
    """A .bde file of 1-4 equations of arity 0-2, and the (name, arity)
    of each equation."""
    eqs, lines = [], []
    for p in range(draw(st.integers(1, 4))):
        k = draw(st.integers(0, 2))
        fresh = [f for f in ("plus", "times") if k == 2 and (f, 2) not in eqs]
        name = draw(st.sampled_from(fresh + [f"e{p}"]))
        head, tail = draw(_heads(k)), draw(_tails(name, k, tuple(eqs)))
        lines.append(f"bde {name}({k}) {{ head = {head}; tail = {tail}; }}")
        eqs.append((name, k))
    return "\n".join(lines) + "\n", eqs


def _run_system(text, every_tuple=True):
    """Compile, check and run every equation of the file, on each tuple
    of argument streams (or on toggles only): the need-machine, the
    plain oracle and the denotation at stage 6 against the oracle, and
    the reference machine on the first four elements of the last
    equation on toggles."""
    defs = parse_bde(text)
    for d in defs:
        out = compile_bde(defs, d.name)
        check({}, out.guarded, out.guarded_type)
        check({}, out.lifted, out.lifted_type)
        tuples = itertools.product(ARGS, repeat=d.arity) if every_tuple else [("toggle",) * d.arity]
        for args in tuples:
            want = oracle_eval(defs, d.name, _hosts(args), 8)
            t = _applied(defs, d.name, args)
            assert take_stream(t, 8) == want, (text, d.name, args)
            assert _plain_oracle(defs, d.name, _hosts(args), 8) == want, (text, d.name, args)
            assert den_take(t, 6) == want[:6], (text, d.name, args)
    last = defs[-1]
    toggles = ("toggle",) * last.arity
    want = oracle_eval(defs, last.name, _hosts(toggles), 4)
    assert reference_take(_applied(defs, last.name, toggles), 4)[0] == want, text


def _broken(draw, text, eqs):
    """text with one token dropped, one variable renamed or one arity
    changed."""
    toks = re.findall(r"\w+|\S", text)
    how = draw(st.sampled_from(["drop", "rename", "arity"]))
    if how == "drop":
        del toks[draw(st.integers(0, len(toks) - 1))]
    else:
        if how == "rename":
            spots = [i for i, t in enumerate(toks) if re.fullmatch(r"[xyz]\d", t)]
            new = st.sampled_from(["x1", "x3", "y2", "z3", "w1", "x0"] + [f for f, _ in eqs])
        else:
            spots = [i + 3 for i, t in enumerate(toks) if t == "bde"]
            new = st.sampled_from(["0", "1", "2", "3"])
        if spots:
            toks[draw(st.sampled_from(spots))] = draw(new)
    return " ".join(toks)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_systems(), st.data())
def test_generated_systems_agree_and_broken_ones_are_glam_errors(system, data):
    text, eqs = system
    _run_system(text)
    broken = _broken(data.draw, text, eqs)
    try:
        _run_system(broken, every_tuple=False)
    except GlamError:
        pass


def test_bare_tail_of_a_call_agrees():
    # e0's bare tail z1 is the call e0(e1) less its head, so the oracle's
    # chain of calls ends in a key with an offset; the generated
    # examples may miss this system
    _run_system("bde e0(1) { head = x1 + 1; tail = z1; }\nbde e1(0) { head = 0; tail = e0(e1); }\n")
