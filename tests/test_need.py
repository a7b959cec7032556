"""take_stream (call-by-need) against the call-by-name reference machine.

The reference below is the substitution-based observation loop: each
head is fst (unfold s) and each tail prev (snd (unfold s)), each one
driven to a value by ``eval_term`` under its own fuel.  take_stream
must give the same elements, raise the same error types, and never
need more fuel for an observation than the reference does.
"""

import itertools
from pathlib import Path

import pytest

import corpus
from glam import bde as bdemod
from glam.errors import FuelExhaustedError, StuckError
from glam.machine import DEFAULT_FUEL, FuelExhausted, Stuck, erase, eval_term, take_stream
from glam.syntax import (
    App,
    BoxI,
    Fold,
    Lam,
    Next,
    Pair,
    Prev,
    Proj1,
    Proj2,
    Unbox,
    Unfold,
    UnitVal,
    Var,
    numeral,
    numeral_value,
)

PROGRAMS = Path(__file__).parent.parent / "programs"

_LATER_NEXT = (
    "(\\x : Nat. fold[mu a. Nat * |>a] "
    "(0, next (fold[mu a. Nat * |>a] (x, next zeros)))) 4"
)
# the same, but the second head reads x inside a prev that does not bind it
_LATER_PREV = (
    "(\\x : Nat. fold[mu a. Nat * |>a] "
    "(0, next (fold[mu a. Nat * |>a] (prev (next x), next zeros)))) 4"
)


def reference_take(t, n, fuel=DEFAULT_FUEL):
    """(elements, most steps any one observation took) on the reference."""
    steps = [0]

    def force(u):
        out = eval_term(u, fuel, pre_erase=False)
        steps.append(out.steps)
        if isinstance(out, Stuck):
            raise StuckError("stuck")
        if isinstance(out, FuelExhausted):
            raise FuelExhaustedError("fuel")
        return out.term

    cur = force(erase(t))
    if isinstance(cur, BoxI):
        cur = force(Unbox(cur))
    elems = []
    for _ in range(n):
        head = numeral_value(force(Proj1(Unfold(cur))))
        if head is None:
            raise StuckError("head is not a numeral")
        elems.append(head)
        cur = force(Prev((), Proj2(Unfold(cur))))
    return elems, max(steps)


def _bde_combinations():
    defs = bdemod.parse_bde((PROGRAMS / "streams.bde").read_text())
    args = {
        "zeros": corpus.term("zeros"),
        "toggle": corpus.term("toggle"),
        "nats": corpus.term("iterate' (\\x. succ x) 0"),
    }
    for d in defs:
        guarded = bdemod.compile_bde(defs, d.name).guarded
        for tup in itertools.product(args, repeat=d.arity):
            t = guarded
            for a in tup:
                t = App(t, args[a])
            yield (d.name, tup), t


def _agrees(t, n, label):
    want, most = reference_take(t, n)
    assert take_stream(t, n) == want, label
    # sharing only removes work: the reference's fuel always suffices
    assert take_stream(t, n, fuel=most) == want, label


@pytest.mark.parametrize("name,src", [row[:2] for row in corpus.STREAMS])
def test_take_stream_matches_reference_on_corpus_streams(name, src):
    _agrees(corpus.term(src), 8, name)


def test_take_stream_matches_reference_on_bde_combinations():
    for label, t in _bde_combinations():
        _agrees(t, 6, label)


def test_take_stream_runs_boxp():
    src = ("fold[mu a. Nat * |>a] (case (boxp (inl[Nat + Unit] 5)) of "
           "inl b -> unbox b | inr u -> 0, next zeros)")
    t = corpus.term(src)
    assert take_stream(t, 4) == [5, 0, 0, 0]
    _agrees(t, 4, "boxp")


def test_take_stream_least_fuel():
    # the least per-observation fuel at which take_stream succeeds: a
    # change that lost some sharing would need more
    bde_terms = dict(_bde_combinations())
    for label, t, n, fuel in [
        ("times toggle toggle", bde_terms["times", ("toggle", "toggle")], 6, 280),
        ("times toggle nats", bde_terms["times", ("toggle", "nats")], 6, 327),
        ("paperfolds", corpus.term("paperfolds"), 16, 19),
    ]:
        assert take_stream(t, n, fuel=fuel) == take_stream(t, n), label
        with pytest.raises(FuelExhaustedError):
            take_stream(t, n, fuel=fuel - 1)


def test_take_stream_fuel_bounds_each_observation():
    with pytest.raises(FuelExhaustedError):
        take_stream(corpus.term("paperfolds"), 4, fuel=2)
    with pytest.raises(FuelExhaustedError):
        reference_take(corpus.term("paperfolds"), 4, fuel=2)
    # a head that never reaches a value exhausts the fuel
    w = Lam("x", None, App(Var("x"), Var("x")))
    omega = Fold(None, Pair(App(w, w), Next(Var("s"))))
    with pytest.raises(FuelExhaustedError):
        reference_take(omega, 1, fuel=1000)
    with pytest.raises(FuelExhaustedError):
        take_stream(omega, 1, fuel=1000)
    # nothing is shared, so each applied substitution costs a step on
    # both machines; the head (10 steps) costs more than the tail (8)
    head = "0"
    for _ in range(4):
        head = f"prev{{y <- {head}}}. next y"
    t = corpus.term(f"fold[mu a. Nat * |>a] ({head}, next zeros)")
    want, most = reference_take(t, 1)
    assert take_stream(t, 1, fuel=most) == want == [0]
    with pytest.raises(FuelExhaustedError):
        take_stream(t, 1, fuel=most - 1)


def test_take_stream_charges_a_substitution_as_a_step():
    # the term is a prev with a substitution, so its first step applies it
    t = corpus.term("prev{z <- box zeros}. next (unbox z)")
    assert take_stream(t, 2) == reference_take(t, 2)[0] == [0, 0]
    with pytest.raises(FuelExhaustedError):
        take_stream(t, 2, fuel=0)


@pytest.mark.parametrize(
    "label,t",
    [
        ("numeral", numeral(3)),
        ("unit", UnitVal()),
        ("lambda", Lam("x", None, Var("x"))),
        ("pair", Pair(numeral(0), numeral(0))),
        ("free variable", Var("s")),
        ("open prev body", App(Lam("x", None, Prev((), Next(Var("x")))), corpus.term("zeros"))),
        ("non-numeral head", Fold(None, Pair(UnitVal(), Next(numeral(0))))),
        ("open prev body in a later head", corpus.term(_LATER_PREV)),
    ],
)
def test_take_stream_stuck_on_non_streams(label, t):
    with pytest.raises(StuckError):
        reference_take(t, 2)
    with pytest.raises(StuckError):
        take_stream(t, 2)


def test_take_stream_sees_lambda_variables_under_next():
    # next is no binder: x reaches the second head, unlike in _LATER_PREV
    t = corpus.term(_LATER_NEXT)
    assert take_stream(t, 3) == reference_take(t, 3)[0] == [0, 4, 0]
