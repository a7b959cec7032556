"""Run one workload of the glam benchmark and print its metrics.

    python3 perfbench/run.py --workload observe --seed 1 --seconds 30 --trace 0

Starts cold rounds of the workload one after another, each in a fresh
interpreter (perfbench/worker.py), until --seconds have passed, and
prints one JSON object as the last line of standard output:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With --trace 0
the metrics are the end-to-end ones, from untraced rounds.  With
--trace 1 they are the per-layer ones, from traced rounds, whose counts
must repeat exactly; an untraced round gives the tracing overhead.
Results and spans go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("observe", "denote", "verify")
DEADLINE_S = 170  # the whole run, rounds included


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


def _round(args, trace: int, spans: Path | None, budget: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, env=_env(), stdout=subprocess.PIPE, timeout=budget)
    if proc.returncode != 0:
        raise RuntimeError(f"a {args.workload} round exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def _end_to_end(plain: list) -> dict:
    lat_ms = [x * 1000 for r in plain for x in r["latencies_s"]]
    deciles = statistics.quantiles(lat_ms, n=10)
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in plain), "s"),
        "job_p50_ms": (statistics.median(lat_ms), "ms"),
        "job_p90_ms": (deciles[8], "ms"),
        "setup_s": (statistics.median(r["setup_s"] for r in plain), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
    }


def _per_layer(plain: list, traced: list) -> tuple:
    """The traced rounds' medians, their counts (which must repeat
    exactly) and the tracing overhead; returns (metrics, counts_repeat)."""
    layers = [r["layers"] for r in traced]
    counts = [k for k, (_, unit) in layers[0].items() if unit == "count"]
    differ = [k for k in counts if any(layer[k] != layers[0][k] for layer in layers)]
    if differ:
        print(f"counts differ between traced rounds: {differ}", file=sys.stderr)
    out = {k: (statistics.median(x[k][0] for x in layers), unit)
           for k, (_, unit) in layers[0].items() if unit != "count"}
    out.update((k, tuple(layers[0][k])) for k in counts)
    overhead = (statistics.median(r["wall_s"] for r in traced)
                - statistics.median(r["wall_s"] for r in plain))
    out["trace.overhead_s"] = (overhead, "s")
    return out, not differ


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    start = perf_counter()

    if not (ROOT / "src" / "glam" / "__init__.py").is_file():
        print(f"error: no glam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Compile glam's bytecode before any round is timed.
    subprocess.run([sys.executable, "-c", "import glam"], env=_env(), check=True, timeout=60)
    RESULTS.mkdir(exist_ok=True)

    plain, traced = [], []
    while True:
        # --trace 1: one untraced round, two traced ones, then alternate.
        trace = bool(args.trace and plain) and len(traced) <= len(plain)
        spans = (RESULTS / f"{args.workload}-seed{args.seed}-round{len(traced)}.spans.tsv"
                 if trace else None)
        budget = DEADLINE_S - (perf_counter() - start)
        (traced if trace else plain).append(_round(args, int(trace), spans, budget))
        enough = len(traced) >= 2 if args.trace else True
        if enough and perf_counter() - start >= args.seconds:
            break

    rounds = plain + traced
    if args.trace:
        metrics, correct = _per_layer(plain, traced)
    else:
        metrics, correct = _end_to_end(plain), True
    result = {
        "correct": correct and all(r["wrong"] == 0 for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
