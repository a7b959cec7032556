"""Acceptance suite: one test per criterion, each printing a pass line
with its runtime against the stated budget.  All checks are exact
(discrete data), and everything runs against the shipped prelude and
the corpus in corpus.py.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines.
"""

import itertools
import random
import time
from pathlib import Path

import pytest

import corpus
from glam import bde as bdemod
from glam import machine as M
from glam import typecheck as TC
from glam.denot import den_nat, den_take
from glam.errors import TypingError
from glam.frontend import parse_program, parse_term, parse_type
from glam.prelude import PRELUDE_PATH
from glam.syntax import App, STREAM_G, alpha_eq, type_alpha_eq, type_subst
from glam.typecheck import box_depth, guarded_in, unguarded_size, wf_type

from test_prelude import PINNED_TYPES

PROGRAMS = Path(__file__).parent.parent / "programs"


class _Budget:
    def __init__(self, n, label, limit):
        self.n, self.label, self.limit = n, label, limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc, *rest):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if exc is None and elapsed < self.limit else "FAIL"
        print(f"criterion {self.n} ({self.label}): {verdict} "
              f"[{elapsed:.2f}s / limit {self.limit}s]")
        # a failing body reports its own error, not the overrun it caused
        if exc is None:
            assert elapsed < self.limit, f"criterion {self.n} exceeded {self.limit}s"
        return False


def test_criterion_1_prelude_typing():
    with _Budget(1, "prelude typing", 1.0):
        program = parse_program(PRELUDE_PATH.read_text())
        TC.check_program(program)
        names = [d.name for d in program]
        assert names == list(PINNED_TYPES)
        for d in program:
            assert type_alpha_eq(d.ty, parse_type(PINNED_TYPES[d.name])), d.name


def test_criterion_2_rejection_suite():
    with _Budget(2, "rejection suite", 1.0):
        for name, src, code in corpus.ILL_TYPED:
            with pytest.raises(TypingError) as e:
                t = parse_term(src, env=corpus.ENV, strict=True)
                if src.startswith("fix"):
                    TC.check({}, t, STREAM_G)
                else:
                    TC.infer({}, t)
            assert e.value.code == code, name
        for name, src, code in corpus.ILL_FORMED_TYPES:
            with pytest.raises(TypingError) as e:
                wf_type((), parse_type(src))
            assert e.value.code == code, name


def test_criterion_3_subject_reduction():
    with _Budget(3, "subject reduction", 30.0):
        total = 0
        for name, t, ty in corpus.sr_corpus():
            t2, _ = TC.elaborate({}, t, ty)
            tr = M.trace(t2, 10**6, pre_erase=False)
            total += len(tr) - 1
            for u in tr:
                assert type_alpha_eq(TC.infer({}, u), ty), name
        assert total >= 10**4, f"only {total} reduction steps exercised"


def test_criterion_4_determinism_and_normal_forms():
    with _Budget(4, "determinism & normal forms", 30.0):
        for name, t, _ in corpus.sr_corpus():
            tr = M.trace(t, 10**6)
            for k, u in enumerate(tr):
                a, b = M.step(u), M.step_rd(u)
                assert (a is None) == (b is None), name
                if a is not None:
                    assert alpha_eq(a, b), name
                    assert alpha_eq(tr[k + 1], a), name
                assert M.is_value(u) == (a is None), name
            assert M.is_value(tr[-1]), f"{name} did not reach a value"
            assert len(tr) - 1 < 10**6


def test_criterion_5_adequacy_at_nat(nat_corpus):
    with _Budget(5, "adequacy at Nat", 10.0):
        assert len(nat_corpus) >= 100
        for name, t, want in nat_corpus:
            assert den_nat(t, 1) == M.observe_nat(t) == want, name


def test_criterion_6_soundness_per_step(nat_corpus):
    with _Budget(6, "soundness per step", 10.0):
        for name, t, want in nat_corpus:
            t2, _ = TC.elaborate({}, t)
            tr = M.trace(t2, 10**6, pre_erase=False)
            vals = {den_nat(u, 1, elaborated=True) for u in tr}
            assert vals == {want}, (name, vals)


def test_criterion_7_stream_agreement():
    with _Budget(7, "stream approximation agreement", 10.0):
        for name, src, oracle in corpus.STREAMS:
            t = corpus.term(src)
            for i in range(1, 9):
                want = [oracle(k) for k in range(i)]
                assert den_take(t, i) == want, (name, i)
                assert M.take_stream(t, i) == want, (name, i)


def test_criterion_8_bde_suite():
    with _Budget(8, "behavioural differential equations", 10.0):
        defs = bdemod.parse_bde((PROGRAMS / "streams.bde").read_text())
        hosts = {
            "zeros": bdemod.host_zeros,
            "toggle": bdemod.host_toggle,
            "nats": bdemod.host_nats,
        }
        terms = {
            "zeros": corpus.term("zeros"),
            "toggle": corpus.term("toggle"),
            "nats": corpus.term("iterate' (\\x. succ x) 0"),
        }
        for d in defs:
            out = bdemod.compile_bde(defs, d.name)
            TC.check({}, out.guarded, out.guarded_type)
            TC.check({}, out.lifted, out.lifted_type)
            for tup in itertools.product(hosts, repeat=d.arity):
                t = out.guarded
                for a in tup:
                    t = App(t, terms[a])
                got = M.take_stream(t, 10)
                want = bdemod.oracle_eval(defs, d.name, [hosts[a]() for a in tup], 10)
                assert got == want, (d.name, tup, got, want)
        # pinned convolution row
        t = App(App(bdemod.compile_bde(defs, "times").guarded, terms["toggle"]),
                terms["toggle"])
        assert M.take_stream(t, 6) == [1, 0, 2, 0, 3, 0]


def test_criterion_9_fixed_point_law():
    with _Budget(9, "fixed point law", 10.0):
        for name, *_ in corpus.FIX_LAW:
            lhs, rhs, kind = corpus.fix_law_sides(name)
            if kind == "stream":
                assert M.take_stream(lhs, 5) == M.take_stream(rhs, 5), name
            elif kind == "nat":
                assert M.observe_nat(lhs) == M.observe_nat(rhs), name
            else:
                assert M.observe_conat(lhs, 5) == M.observe_conat(rhs, 5), name


def test_criterion_10_metric_lemmas():
    with _Budget(10, "metric lemmas", 5.0):
        rng = random.Random(2026)
        us_hits = bd_hits = 0
        while us_hits < 1000 or bd_hits < 1000:
            a = corpus.random_type(rng, tyvars=("c",))
            b = corpus.random_type(rng)
            if guarded_in("c", a):
                us_hits += 1
                assert unguarded_size(type_subst(a, "c", b)) <= unguarded_size(a)
            if box_depth(b) <= box_depth(a):
                bd_hits += 1
                assert box_depth(type_subst(a, "c", b)) <= box_depth(a)
