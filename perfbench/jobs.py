"""The benchmark's set-up, its three workloads and the checks on every
output.

``observe`` and ``denote`` jobs each parse their program against a
freshly parsed prelude, as one ``glam take``/``glam bde-run``/``glam
denote`` command does: glam memoizes typing and denotations of closed
subterms on the term nodes, so a job that reused another job's parse
would run warm.  ``verify`` jobs share the prelude loaded at set-up on
purpose, as the cross-check suites do.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import oracles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FUEL = 10**6

# The file a stream's definition lives in, besides the prelude.
_FILE = {"thuemorse": "extras", "fibonacci": "extras", "nats": "demo",
         "squares": "demo", "evens": "demo", "diag-rows": "bench"}


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    want: object
    group: Optional[tuple] = None  # ties traced spans to the input's shape


class CheckFailed(Exception):
    """A verify property does not hold: the job's output is wrong."""


@dataclass
class Loaded:
    texts: dict
    env: dict  # every definition of the prelude, extras, demo and bench
    bde_defs: list


def setup(g) -> Loaded:
    """Parse and type-check every program file the workloads use, and
    compile and type-check every equation of programs/streams.bde."""
    texts = {
        "prelude": g.prelude.PRELUDE_PATH.read_text(),
        "extras": g.prelude.EXTRAS_PATH.read_text(),
        "demo": (ROOT / "programs" / "demo.gl").read_text(),
        "bench": (HERE / "programs" / "bench.gl").read_text(),
        "bde": (ROOT / "programs" / "streams.bde").read_text(),
    }
    prog = g.frontend.parse_program(texts["prelude"])
    g.typecheck.check_program(prog)
    for name in ("extras", "demo", "bench"):
        prog = g.frontend.parse_program(texts[name], base=prog)
        g.typecheck.check_program(prog)
    defs = g.bde.parse_bde(texts["bde"])
    for d in defs:
        out = g.bde.compile_bde(defs, d.name)
        g.typecheck.check({}, out.guarded, out.guarded_type)
        g.typecheck.check({}, out.lifted, out.lifted_type)
    return Loaded(texts, prog.env(), defs)


def _fresh_env(g, texts, file) -> dict:
    prog = g.frontend.parse_program(texts["prelude"])
    if file is not None:
        prog = g.frontend.parse_program(texts[file], base=prog)
    return prog.env()


# ---------------------------------------------------------------------------
# observe: cold stream observations on the call-by-need evaluator


OBSERVE_LENGTHS = (25, 50, 100, 200, 400, 800)
BDE_LENGTHS = (10, 11)


def _take(g, texts, name, n):
    src, _ = oracles.STREAMS[name]
    t = g.frontend.parse_term(src, env=_fresh_env(g, texts, _FILE.get(name)), strict=True)
    return g.machine.take_stream(t, n, fuel=FUEL)


def _bde_arg(g, prelude, name):
    if name == "nats":
        t = g.frontend.parse_term("iterate' (\\x. succ x) 0", env=prelude.env(), strict=True)
        return t, g.bde.host_nats()
    host = {"zeros": g.bde.host_zeros, "toggle": g.bde.host_toggle}[name]
    return prelude.lookup(name).resolved(), host()


def _bde_run(g, text, name, args, n):
    """``glam bde-run``: the compiled equation on the need-machine and
    the host oracle, both returned for checking."""
    g.prelude.load_prelude.cache_clear()
    defs = g.bde.parse_bde(text)
    applied = g.bde.compile_bde(defs, name).guarded
    prelude = g.prelude.load_prelude()
    hosts = []
    for a in args:
        term, host = _bde_arg(g, prelude, a)
        applied = g.syntax.App(applied, term)
        hosts.append(host)
    got = g.machine.take_stream(applied, n, fuel=FUEL)
    return got, g.bde.oracle_eval(defs, name, hosts, n)


def observe(g, loaded: Loaded, seed: int) -> list:
    rng = random.Random(seed)
    jobs = []
    for name, (_, prefix) in oracles.STREAMS.items():
        for base in OBSERVE_LENGTHS:
            n = base + rng.randrange(base // 20 + 1)
            jobs.append(Job(f"take {name} {n}", partial(_take, g, loaded.texts, name, n),
                            prefix(n)))
    for d in loaded.bde_defs:
        for args in itertools.product(oracles.BDE_ARGS, repeat=d.arity):
            for n in BDE_LENGTHS:
                row = oracles.bde_row(d.name, args, n)
                jobs.append(Job(f"bde-run {d.name} {' '.join(args)} --n {n}",
                                partial(_bde_run, g, loaded.texts["bde"], d.name, args, n),
                                (row, row), ("bde", d.name, args)))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# Closed Nat programs: element probes, templates, addN ladders


def nat_programs(rng, probe_ks: dict, ladders) -> list:
    """(label, file, source, value) with the value computed apart from glam."""
    out = []
    for name, ks in probe_ks.items():
        src, _ = oracles.STREAMS[name]
        for k in ks:
            out.append((f"{name}[{k}]", _FILE.get(name), oracles.element_probe(src, k),
                        oracles.stream_element(name, k)))
    for label, tmpl, value in oracles.NAT_TEMPLATES:
        a, b, c = (rng.randint(1, 9) for _ in range(3))
        out.append((f"{label}({a},{b},{c})", None, tmpl.format(a=a, b=b, c=c), value(a, b, c)))
    for n in ladders:
        out.append((f"ladder {n}", None, oracles.ladder(n), n))
    return out


# ---------------------------------------------------------------------------
# denote: cold denotation queries


# Stage ladders: up to 48 where one query stays under about a second.
DENOTE_STAGES = {
    "zeros": (8, 16, 24, 32, 40, 48),
    "toggle": (8, 16, 24, 32, 40, 48),
    "paperfolds": (8, 16, 24, 32, 40, 48),
    "map-succ-zeros": (8, 16, 24, 32, 40, 48),
    "interleave": (8, 16, 24, 32),
    "iterate-succ": (8, 16, 24, 32, 40, 48),
    "every2nd": (8, 16, 24, 32),
    "diag-rows": (8, 16, 24),
    "thuemorse": (8, 16, 24, 32),
    "fibonacci": (8, 16, 24, 32),
    "nats": (8, 16, 24, 32, 40, 48),
    "squares": (8, 16, 24, 32, 40, 48),
    "evens": (8, 16, 24, 32),
}
DENOTE_STAGE_INDEX = 3  # glam denote's default stage for Nat definitions


def _den_take(g, texts, name, stage):
    src, _ = oracles.STREAMS[name]
    t = g.frontend.parse_term(src, env=_fresh_env(g, texts, _FILE.get(name)), strict=True)
    return g.denot.den_take(t, stage)


def _den_nat(g, texts, file, src):
    t = g.frontend.parse_term(src, env=_fresh_env(g, texts, file), strict=True)
    return g.denot.den_nat(t, DENOTE_STAGE_INDEX)


def denote(g, loaded: Loaded, seed: int) -> list:
    rng = random.Random(seed)
    jobs = []
    for name, stages in DENOTE_STAGES.items():
        prefix = oracles.STREAMS[name][1]
        for i in stages:
            jobs.append(Job(f"den_take {name} {i}", partial(_den_take, g, loaded.texts, name, i),
                            prefix(i), ("den_take", name)))
    probes = {name: rng.sample(range(6), 2) for name in oracles.STREAMS}
    for label, file, src, want in nat_programs(rng, probes, range(10, 41, 6)):
        jobs.append(Job(f"den_nat {label}", partial(_den_nat, g, loaded.texts, file, src), want))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# verify: the reference machine cross-checked by typing and denotation


# Every element probe up to these depths; the costliest streams stop
# earlier so that no single program dominates a round.
VERIFY_MAX_K = dict.fromkeys(oracles.STREAMS, 5) | {
    "every2nd": 4, "evens": 4, "thuemorse": 3, "fibonacci": 3, "diag-rows": 3}


def _verify(g, env, src):
    """Run one closed Nat program through every cross-check and return
    its observed value."""
    nat = g.syntax.NAT
    t = g.frontend.parse_term(src, env=env, strict=True)
    t2, _ = g.typecheck.elaborate({}, t, nat)
    tr = g.machine.trace(t2, FUEL, pre_erase=False)
    if not g.machine.is_value(tr[-1]):
        raise CheckFailed("the trace does not end in a value")
    for u in tr:
        if not g.syntax.type_alpha_eq(g.typecheck.infer({}, u), nat):
            raise CheckFailed("a reduct does not have type Nat")
        a, b = g.machine.step(u), g.machine.step_rd(u)
        if (a is None) != (b is None) or (a is not None and not g.syntax.alpha_eq(a, b)):
            raise CheckFailed("step and step_rd disagree")
    value = g.machine.observe_nat(t, FUEL)
    if {g.denot.den_nat(u, 1, elaborated=True) for u in tr} != {value}:
        raise CheckFailed("a reduct denotes another number than the machine computes")
    return value


def verify(g, loaded: Loaded, seed: int) -> list:
    rng = random.Random(seed)
    probes = {name: range(k + 1) for name, k in VERIFY_MAX_K.items()}
    jobs = [Job(f"verify {label}", partial(_verify, g, loaded.env, src), want)
            for label, _, src, want in nat_programs(rng, probes, range(10, 56, 4))]
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {"observe": observe, "denote": denote, "verify": verify}
