"""The bytes that syntax nodes, and the facts the runners record on them,
keep alive.

Each count is what ``tracemalloc`` still sees allocated, after
``gc.collect()``, once a step has run on freshly parsed nodes:

- ``parse``: ``parse_program`` of the prelude;
- ``check``: its ``check_program``;
- ``cross_check``: the verify-style cross-check of the fourth element
  probe of ``paperfolds`` against a fresh prelude: ``elaborate``,
  ``trace``, and ``infer`` and ``den_nat`` on every reduct, with the
  trace kept.

The steps run in a fresh interpreter, after one warm-up pass over the
same steps, so that the process-wide tables (numerals, shared
free-variable sets) are filled and no other test's work is counted.
The counts move by at most some tens of bytes with ``PYTHONHASHSEED``.
Each entry is a ratchet: a count may exceed it by at most 5 %, and a
change that lowers a count lowers its entry.
"""

import gc
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import corpus
import glam
from glam.denot import den_nat
from glam.frontend import parse_program, parse_term
from glam.machine import trace
from glam.prelude import PRELUDE_PATH
from glam.syntax import NAT, type_alpha_eq
from glam.typecheck import check_program, elaborate, infer

# Python 3.11's counts, in bytes
ENTRIES = {"parse": 109_882, "check": 91_000, "cross_check": 953_927}


def _retained(step) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = step()  # noqa: F841 (alive until measured)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def _cross_check(env) -> list:
    probe = corpus.element_probe(parse_term("paperfolds", env=env, strict=True), 4)
    t, _ = elaborate({}, probe, NAT)
    tr = trace(t, pre_erase=False)
    for u in tr:
        assert type_alpha_eq(infer({}, u), NAT)
    assert len(tr) == 133 and {den_nat(u, 1, elaborated=True) for u in tr} == {1}
    return tr


def _counts() -> dict:
    text = PRELUDE_PATH.read_text()
    prog = parse_program(text)
    check_program(prog)
    _cross_check(prog.env())  # fills the process-wide tables
    prog, env = parse_program(text), parse_program(text).env()
    return {
        "parse": _retained(lambda: parse_program(text)),
        "check": _retained(lambda: check_program(prog)),
        "cross_check": _retained(lambda: _cross_check(env)),
    }


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="the entries are Python 3.11's counts")
def test_retained_bytes_stay_within_their_entries():
    src = str(Path(glam.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, __file__], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    for name, entry in ENTRIES.items():
        assert counts[name] <= entry * 1.05, (name, counts[name], entry)


if __name__ == "__main__":
    print(json.dumps(_counts()))
