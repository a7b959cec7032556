"""One cold round of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N [--trace 1 --spans FILE]

Times the import of glam and the set-up, runs the workload's jobs one
after another (a closed loop, one thread), checks every output, and
prints one JSON object as its last line.  With --trace 1 it also wraps
the calls into glam's layers, writes the spans to FILE and adds the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import types
from time import perf_counter

import jobs
from jobs import CheckFailed


def run_jobs(job_list, tracer=None) -> dict:
    """Run the jobs in order.  A job fails when glam raises or when its
    output is not the expected one; only the latter makes the round
    incorrect."""
    lat, failed, wrong = [], 0, 0
    t_start = perf_counter()
    for j, job in enumerate(job_list):
        if tracer is not None:
            tracer.current_job = j
        t0 = perf_counter()
        try:
            got = job.run()
        except CheckFailed as e:
            failed += 1
            wrong += 1
            print(f"wrong: {job.label}: {e}", file=sys.stderr)
        except Exception as e:  # a failed operation; the round goes on
            failed += 1
            print(f"failed: {job.label}: {type(e).__name__}: {e}", file=sys.stderr)
        else:
            if got != job.want:
                failed += 1
                wrong += 1
                print(f"wrong: {job.label}: got {got!r}, want {job.want!r}", file=sys.stderr)
        lat.append(perf_counter() - t0)
    wall = perf_counter() - t_start
    if tracer is not None:
        tracer.current_job = -1
    return {"wall_s": wall, "latencies_s": lat, "attempted": len(job_list),
            "failed": failed, "wrong": wrong}


def main(argv=None) -> int:
    t0 = perf_counter()
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)

    from glam import bde, denot, frontend, machine, prelude, syntax, typecheck

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        g = tracer.install()
    else:
        g = types.SimpleNamespace(frontend=frontend, typecheck=typecheck, syntax=syntax,
                                  machine=machine, denot=denot, bde=bde, prelude=prelude)
    loaded = jobs.setup(g)
    setup_s = perf_counter() - t0

    job_list = jobs.WORKLOADS[args.workload](g, loaded, args.seed)
    out = run_jobs(job_list, tracer)
    out["setup_s"] = setup_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["layers"] = tracer.metrics(job_list)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
