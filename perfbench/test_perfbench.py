"""Checks on the benchmark itself.

    python3 -m pytest perfbench
"""

import sys
import types
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import jobs  # noqa: E402
import oracles  # noqa: E402
from worker import run_jobs  # noqa: E402

from glam import bde, denot, frontend, machine, prelude, syntax, typecheck  # noqa: E402

G = types.SimpleNamespace(frontend=frontend, typecheck=typecheck, syntax=syntax,
                          machine=machine, denot=denot, bde=bde, prelude=prelude)


def test_wrong_expected_value_is_a_failed_operation():
    env = prelude.load_prelude().env()
    run = partial(jobs._verify, G, env, "mulN 6 7")
    out = run_jobs([jobs.Job("right", run, 42), jobs.Job("wrong", run, 43)])
    assert (out["attempted"], out["failed"], out["wrong"]) == (2, 1, 1)


def test_glam_error_is_a_failed_operation_but_not_a_wrong_one():
    env = prelude.load_prelude().env()
    run = partial(jobs._verify, G, env, "fst zeros")
    out = run_jobs([jobs.Job("ill-typed", run, 0)])
    assert (out["attempted"], out["failed"], out["wrong"]) == (1, 1, 0)


def test_closed_forms_satisfy_their_defining_recurrences():
    pf, tm = oracles.paperfolds, oracles.thue_morse
    for i in range(300):
        # paperfolds = interleave toggle paperfolds
        assert pf(2 * i) == oracles.toggle(i) and pf(2 * i + 1) == pf(i)
        assert tm(2 * i) == tm(i) and tm(2 * i + 1) == 1 - tm(i)
    fib = oracles.fibonacci_word(300)
    # the Fibonacci word is its own image under 0 -> 01, 1 -> 0
    image = [c for x in fib for c in ((0, 1) if x == 0 else (0,))]
    assert image[:300] == fib and fib[:8] == [0, 1, 0, 0, 1, 0, 1, 0]


def test_bde_rows():
    assert oracles.bde_row("times", ("toggle", "toggle"), 6) == [1, 0, 2, 0, 3, 0]
    assert oracles.bde_row("times", ("nats", "nats"), 5) == [0, 0, 1, 4, 10]
    assert oracles.bde_row("plus", ("toggle", "nats"), 4) == [1, 1, 3, 3]
    assert oracles.bde_row("five", (), 3) == [5, 0, 0]


def test_workloads_are_seeded_and_large_enough():
    loaded = jobs.setup(G)
    for name, build in jobs.WORKLOADS.items():
        first = [(j.label, j.want) for j in build(G, loaded, 7)]
        assert first == [(j.label, j.want) for j in build(G, loaded, 7)], name
        assert len(first) >= 100, name
