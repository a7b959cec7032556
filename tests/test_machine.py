import pytest

import corpus
from glam.errors import FuelExhaustedError, StuckError
from glam.frontend import parse_term, pretty
from glam.machine import (
    FuelExhausted,
    Stuck,
    Value,
    erase,
    eval_term,
    is_value,
    observe_conat,
    observe_nat,
    step,
    step_rd,
    take_stream,
    trace,
)
from glam.syntax import (
    NAT,
    App,
    BoxI,
    BoxSum,
    Box,
    Fold,
    In1,
    Lam,
    LaterApp,
    Next,
    Pair,
    Prev,
    Prim,
    Proj1,
    Sum,
    UnitVal,
    Var,
    Zero,
    alpha_eq,
    numeral,
)


def test_delta_rule_returns_the_shared_numeral():
    assert step(Prim("addN", numeral(3), numeral(4))) is numeral(7)


def _t(src):
    return corpus.term(src)


# ---------------------------------------------------------------------------
# Single steps (the reduction rules)


def test_step_unfold_fold():
    body = Pair(Zero(), UnitVal())
    assert step(erase(_t("unfold (fold[mu a. Nat * |>a] (0, next zeros))"))) is not None
    from glam.syntax import Unfold

    t = Unfold(Fold(None, body))
    assert step(t) is body


def test_step_prev_next():
    t = Prev((), Next(UnitVal()))
    assert step(t) is not None and isinstance(step(t), UnitVal)


def test_step_prev_applies_substitution_first():
    t = Prev((("x", numeral(2)),), Next(Var("x")))
    out = step(t)
    assert alpha_eq(out, Prev((), Next(numeral(2))))


def test_step_later_app():
    t = LaterApp(Next(Lam("x", None, Var("x"))), Next(Zero()))
    out = step(t)
    assert alpha_eq(out, Next(App(Lam("x", None, Var("x")), Zero())))


def test_step_boxsum_in():
    t = BoxSum((), In1(None, Zero()))
    out = step(t)
    assert alpha_eq(out, In1(None, BoxI((), Zero())))


def test_step_boxsum_annotation_mapped():
    t = BoxSum((), In1(Sum(NAT, NAT), Zero()))
    out = step(t)
    assert out.annot is not None and isinstance(out.annot.left, Box)


def test_step_delta():
    t = Prim("addN", numeral(1), numeral(2))
    assert alpha_eq(step(t), numeral(3))


def test_step_none_on_values():
    for v in (numeral(4), UnitVal(), Lam("x", None, Var("x")), Next(Zero())):
        assert step(v) is None and is_value(v)


def test_step_rd_answers_a_numeral_at_once():
    # a numeral is a value as it stands: step_rd must not descend its
    # succ spine, which would overflow the stack on a long one
    assert step_rd(numeral(10**5)) is None


def test_box_with_substitution_is_a_value():
    v = BoxI((("x", numeral(1)),), Var("x"))
    assert is_value(v) and step(v) is None


def test_boxsum_never_a_value():
    t = BoxSum((("x", numeral(1)),), In1(None, Var("x")))
    assert not is_value(t) and step(t) is not None


# ---------------------------------------------------------------------------
# Evaluation


def test_eval_identity_application():
    out = eval_term(App(Lam("x", None, Var("x")), UnitVal()), fuel=10)
    assert isinstance(out, Value) and isinstance(out.term, UnitVal)
    assert out.steps == 1


def test_eval_head_of_zeros():
    assert observe_nat(_t("hdg zeros")) == 0


def test_theta_unfolding_probe():
    """fix f steps to f(X); X evaluates to next Y; Y steps back to fix f."""
    fixf = erase(_t("fix[mu a. Nat * |>a] (\\s. consg 0 s)"))
    s2 = step(step(fixf))
    assert isinstance(s2, App)
    xv = eval_term(s2.arg, pre_erase=False)
    assert isinstance(xv, Value) and isinstance(xv.term, Next)
    y2 = step(step(xv.term.body))
    assert alpha_eq(y2, fixf)


def test_eval_fuel_exhausted():
    out = eval_term(_t("hdg paperfolds"), fuel=3)
    assert isinstance(out, FuelExhausted) and out.steps == 3


def test_eval_stuck_on_ill_typed():
    out = eval_term(Proj1(Lam("x", None, Var("x"))), fuel=10)
    assert isinstance(out, Stuck)
    with pytest.raises(StuckError):
        observe_nat(Proj1(Lam("x", None, Var("x"))))


def test_observe_nat_examples():
    assert observe_nat(numeral(1)) == 1
    assert observe_nat(Prim("addN", numeral(1), numeral(2))) == 3
    assert observe_nat(_t("hdg toggle")) == 1


# A primitive evaluates its operands left to right, and its delta rule
# needs two numerals: (source, reference steps, stuck term).
_BAD_PRIMS = [
    ("addN (\\x:Nat. x) 1", 0, "addN (\\x. x) 1"),
    ("addN 1 (\\x:Nat. x)", 0, "addN 1 (\\x. x)"),
    ("addN (fst ((), 1)) 1", 1, "addN () 1"),
]


@pytest.mark.parametrize("src, steps, stuck", _BAD_PRIMS)
def test_primitive_of_a_non_numeral_is_stuck(src, steps, stuck):
    out = eval_term(parse_term(src))
    assert isinstance(out, Stuck) and out.steps == steps
    assert pretty(out.term) == stuck
    assert step(out.term) is None and step_rd(out.term) is None
    with pytest.raises(StuckError) as e:
        take_stream(parse_term(f"fold ({src}, next 0)"), 1)
    assert e.value.render() == "Stuck: stuck term: addN of a non-numeral"


def test_later_app_of_a_non_next_is_stuck():
    t = erase(parse_term("(\\x:Nat. x) <*> next 0"))
    assert not is_value(t)
    assert step(t) is None and step_rd(t) is None


def test_observe_nat_of_a_value_that_is_not_a_numeral():
    with pytest.raises(StuckError) as e:
        observe_nat(UnitVal())
    assert e.value.render() == "Stuck: value is not a numeral: ()"


def test_observe_conat_of_a_value_that_is_not_an_injection():
    with pytest.raises(StuckError) as e:
        observe_conat(parse_term("fold 0"), 3)
    assert e.value.render() == "Stuck: conatural unfolding is not an injection"


def test_observe_nat_fuel_error():
    with pytest.raises(FuelExhaustedError):
        observe_nat(_t("hdg paperfolds"), fuel=2)


# ---------------------------------------------------------------------------
# Stream observation


def test_take_toggle():
    assert take_stream(_t("toggle"), 4) == [1, 0, 1, 0]


def test_take_paperfolds():
    assert take_stream(_t("paperfolds"), 8) == [1, 1, 0, 1, 1, 0, 0, 1]


def test_take_every2nd():
    t = _t("every2nd (box (iterate' (\\x. succ x) 0))")
    assert take_stream(t, 4) == [0, 2, 4, 6]


def test_take_auto_unboxes():
    assert take_stream(_t("box toggle"), 3) == [1, 0, 1]
    assert take_stream(_t("mapConst (\\x. succ x) (box toggle)"), 3) == [2, 1, 2]


def test_trace_of_value_is_singleton():
    tr = trace(UnitVal(), 5)
    assert len(tr) == 1 and isinstance(tr[0], UnitVal)


def test_trace_of_redex():
    from glam.syntax import Unfold

    tr = trace(Unfold(Fold(None, UnitVal())), 5)
    assert len(tr) == 2 and isinstance(tr[1], UnitVal)


def test_trace_of_take_probe_finite():
    tr = trace(corpus.element_probe(_t("zeros"), 3), 10**5)
    assert 1 < len(tr) < 10**4
    assert is_value(tr[-1])


def test_observe_conat():
    assert observe_conat(_t("cozero"), 5) == (0, True)
    assert observe_conat(_t("cosucc (cosucc cozero)"), 5) == (2, True)
    assert observe_conat(_t("infinity"), 5) == (5, False)
    assert observe_conat(_t("box infinity"), 3) == (3, False)


def test_observe_conat_evaluates_its_start_once():
    # 4 steps to the value; the first unfolding and the next take 1 each
    t = _t("(\\x. x) ((\\x. x) ((\\x. x) (cosucc cozero)))")
    assert eval_term(t).steps == 4
    assert observe_conat(t, 5, fuel=4) == (1, True)
    with pytest.raises(FuelExhaustedError):
        observe_conat(t, 5, fuel=3)


# ---------------------------------------------------------------------------
# Global machine properties (spot checks; the full corpus runs in the
# acceptance suite)


def test_two_step_strategies_agree_spot():
    for src in ("hdg paperfolds", "second (box toggle)", "addN (mulN 2 3) 4"):
        t = erase(_t(src))
        while True:
            a, b = step(t), step_rd(t)
            assert (a is None) == (b is None)
            if a is None:
                break
            assert alpha_eq(a, b)
            t = a


def test_values_are_exactly_normal_forms_spot():
    for src in ("hdg zeros", "prev (next ())", "boxp (inr[Nat + Nat] 1)"):
        for u in trace(_t(src), 10**4):
            assert is_value(u) == (step(u) is None)


def test_driver_matches_stepwise_trace():
    t = _t("hdg (interleave toggle (next paperfolds))")
    tr = trace(t, 10**5)
    out = eval_term(t)
    assert out.steps == len(tr) - 1
    assert alpha_eq(out.term, tr[-1])


def test_driver_stops_on_the_trace_when_fuel_runs_out():
    for src in ("hdg paperfolds", "second (box toggle)", "addN (mulN 2 3) 4"):
        tr = trace(_t(src), 10**5)
        for k in range(len(tr) - 1):
            out = eval_term(_t(src), fuel=k)
            assert isinstance(out, FuelExhausted) and out.steps == k, (src, k)
            assert alpha_eq(out.term, tr[k]), (src, k)


@pytest.mark.parametrize("name", [row[0] for row in corpus.FIX_LAW])
def test_fixed_point_law_observable(name):
    lhs, rhs, kind = corpus.fix_law_sides(name)
    if kind == "stream":
        assert take_stream(lhs, 5) == take_stream(rhs, 5)
    elif kind == "nat":
        assert observe_nat(lhs) == observe_nat(rhs)
    else:
        assert observe_conat(lhs, 5) == observe_conat(rhs, 5)
