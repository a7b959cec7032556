import itertools
from math import comb
from pathlib import Path

import pytest

import corpus
from glam.bde import (
    BdeDef,
    HostStream,
    TailCall,
    TailVar,
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
from glam.syntax import App, Next, Prim, Var, alpha_eq, numeral
from glam.typecheck import check

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


# ---------------------------------------------------------------------------
# Parsing


def test_parse_zeros_block():
    d = DEFS[0]
    assert d.name == "zeros" and d.arity == 0
    assert d.head._nv == 0
    assert d.tail == TailCall("zeros", ())


def test_parse_plus_block():
    d = next(x for x in DEFS if x.name == "plus")
    assert d.arity == 2
    assert alpha_eq(d.head, Prim("addN", Var("x1"), Var("x2")))
    assert d.tail == TailCall("plus", (TailVar("z", 1), TailVar("z", 2)))


def test_parse_times_block():
    d = next(x for x in DEFS if x.name == "times")
    assert alpha_eq(d.head, Prim("mulN", Var("x1"), Var("x2")))
    assert d.tail == TailCall(
        "plus",
        (
            TailCall("times", (TailVar("z", 1), TailVar("y", 2))),
            TailCall("times", (TailVar("x", 1), TailVar("z", 2))),
        ),
    )


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
    assert _tail(tail) == _tail(same.replace("3", "y1"))
    assert _tail(tail) != _tail(other.replace("3", "y1"))


def test_operators_stand_for_plus_and_times_in_tails():
    z1, z2, y1 = TailVar("z", 1), TailVar("z", 2), TailVar("y", 1)
    assert _tail("z1 + z2 * y1") == TailCall("plus", (z1, TailCall("times", (z2, y1))))
    assert _tail("z1 + z2 + y1") == TailCall("plus", (TailCall("plus", (z1, z2)), y1))
    assert _tail("zeros()") == TailCall("zeros", ())


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
# compile_bde(parse_bde(src), "f") reports it; the whole file is parsed
# before anything is validated.
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
    ("bde f(1) { head = x1; tail = g(z1); }\nbde g(1) { head = x1; tail = z1; }",
     ForwardReference,
     "tail of 'f' uses 'g', defined later (mutual recursion is not supported)", None),
    ("bde f(1) { head = x1; tail = g(z1); }",
     UnknownSymbol, "tail of 'f' uses undefined 'g'", None),
    (_PLUS + "bde f(1) { head = x1; tail = plus(z1); }",
     BdeError, "'plus' has arity 2, applied to 1 arguments in 'f'", None),
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
    # a parse error late in the file wins over a bad head early on
    ("bde f(1) { head = y1; tail = z1; }\nbde g(0) { head = 0 tail = g; }",
     ParseError, "expected ';', found 'tail'", (2, 21)),
]


@pytest.mark.parametrize("src, cls, message, loc", BDE_ERRORS)
def test_bde_error_class_message_and_location(src, cls, message, loc):
    with pytest.raises(GlamError) as e:
        compile_bde(parse_bde(src), "f")
    assert (type(e.value), e.value.message, e.value.loc) == (cls, message, loc)


def test_negative_arity_is_refused():
    # a parsed file cannot reach this check: its arity is a digit string
    defs = [BdeDef("f", -1, numeral(0), TailCall("f", ()))]
    with pytest.raises(BdeError) as e:
        validate_bde(defs)
    assert e.value.message == "negative arity in 'f'"


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
                    env[("x", i + 1)] = cons(heads[i], host_zeros())
                    env[("y", i + 1)] = args[i]
                    env[("z", i + 1)] = tail(args[i])
                cell.append(expr(d.tail, env, d))
            return cell[0]

        def elem(i):
            if i == 0:
                return _eval_head(d.head, heads)
            return tail_stream()(i - 1)

        return HostStream(elem)

    def expr(t, env, d):
        if isinstance(t, TailVar):
            return env[(t.kind, t.i)]
        target = d if t.name == d.name else byname[t.name]
        return stream(target, [expr(a, env, d) for a in t.args])

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
