"""Spans around the calls into glam's layers, and the per-layer metrics
derived from them.

``Tracer.install`` wraps every public function of a layer module at the
places that call it from outside the layer: in the handle the benchmark
calls through, and in each glam module that imported it (``machine``'s
``subst``, ``typecheck``'s ``free_vars``, ``denot``'s ``typecheck``
module, ...).  Calls inside a layer are not wrapped, with one
exception: ``frontend.tokenize`` is also wrapped where the parser calls
it, so that every lexed token is counted.  Each wrapped call records a
span (name, start, end, parent span, job); the spans stay in memory
until the round ends.
"""

from __future__ import annotations

import importlib
import math
import statistics
import types
from array import array
from time import perf_counter

LAYERS = ("frontend", "typecheck", "syntax", "machine", "denot", "bde")
# cli and prelude are thin wrappers: their bindings are wrapped, but
# their own functions get no spans and are measured through the layers.
HOSTS = LAYERS + ("prelude",)

# What a call did, stored with its span: tokens lexed, reference steps
# traced, stream elements taken, the stage of a den_take.
_WORK = {
    "frontend.tokenize": lambda args, out: len(out),
    "machine.trace": lambda args, out: len(out) - 1,
    "machine.take_stream": lambda args, out: len(out),
    "denot.den_take": lambda args, out: args[1],
}


class _Proxy:
    """A layer module as seen from a caller: wrapped public functions,
    every other attribute read through to the module."""

    def __init__(self, module, wrapped: dict):
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.names: list = []
        self.name_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.work = array("l")
        self.current_job = -1
        self._stack: list = []
        self._wrappers: dict = {}

    def _wrap(self, fn):
        w = self._wrappers.get(fn)
        if w is not None:
            return w
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        nid = len(self.names)
        self.names.append(name)
        work = _WORK.get(name)
        stack, name_of, start, end = self._stack, self.name_of, self.start, self.end
        parent, job, done = self.parent, self.job, self.work

        def traced(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            job.append(self.current_job)
            end.append(0.0)
            done.append(0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if work is not None:
                done[idx] = work(args, out)
            return out

        traced.__wrapped__ = fn
        self._wrappers[fn] = w = traced
        return w

    def _proxy(self, module):
        wrapped = {
            k: self._wrap(v)
            for k, v in vars(module).items()
            if not k.startswith("_")
            and isinstance(v, types.FunctionType)
            and v.__module__ == module.__name__
        }
        return _Proxy(module, wrapped)

    def install(self) -> types.SimpleNamespace:
        """Wrap the cross-layer bindings and return the handle the
        benchmark calls glam through."""
        mods = {n: importlib.import_module(f"glam.{n}") for n in HOSTS}
        layer_names = {f"glam.{n}" for n in LAYERS}
        proxies = {n: self._proxy(mods[n]) for n in LAYERS}
        for host, mod in mods.items():
            for k, v in list(vars(mod).items()):
                if k.startswith("_"):
                    continue
                if isinstance(v, types.ModuleType) and v.__name__ in layer_names and v is not mod:
                    setattr(mod, k, proxies[v.__name__.rsplit(".", 1)[-1]])
                elif (
                    isinstance(v, types.FunctionType)
                    and v.__module__ in layer_names
                    and v.__module__ != mod.__name__
                ):
                    setattr(mod, k, self._wrap(v))
        mods["frontend"].tokenize = self._wrap(mods["frontend"].tokenize)
        return types.SimpleNamespace(**proxies, prelude=mods["prelude"])

    # ------------------------------------------------------------------
    # Output

    def write_spans(self, path) -> None:
        """One tab-separated line per span: id, name, start, end, parent
        id (-1 at top level), job (-1 during set-up) and work."""
        with open(path, "w") as f:
            f.write("id\tname\tstart\tend\tparent\tjob\twork\n")
            for i in range(len(self.name_of)):
                f.write(f"{i}\t{self.names[self.name_of[i]]}\t{self.start[i]:.9f}\t"
                        f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.job[i]}\t{self.work[i]}\n")

    def metrics(self, jobs) -> dict:
        """Per-layer metrics of one round, as name -> (value, unit).
        ``jobs`` gives each job's ``group``, which ties den_take and BDE
        spans to their inputs."""
        n = len(self.name_of)
        names = self.names
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        layer_self = dict.fromkeys(LAYERS, 0.0)
        total: dict = {}
        calls: dict = {}
        work: dict = {}
        denot_infer = 0
        for i in range(n):
            name = names[self.name_of[i]]
            layer_self[name.split(".", 1)[0]] += dur[i] - child[i]
            total[name] = total.get(name, 0.0) + dur[i]
            calls[name] = calls.get(name, 0) + 1
            work[name] = work.get(name, 0) + self.work[i]
            p = self.parent[i]
            if name == "typecheck.infer" and p >= 0 and names[self.name_of[p]].startswith("denot."):
                denot_infer += 1

        def t(*fs):
            return sum(total.get(f, 0.0) for f in fs)

        def c(*fs):
            return sum(calls.get(f, 0) for f in fs)

        bde_need = bde_oracle = 0.0
        den_points: dict = {}
        times_rows: dict = {}
        for i in range(n):
            j = self.job[i]
            if j < 0 or jobs[j].group is None:
                continue
            name = names[self.name_of[i]]
            group = jobs[j].group
            if group[0] == "den_take" and name == "denot.den_take":
                den_points.setdefault(group[1], []).append((self.work[i], dur[i]))
            elif group[0] == "bde" and name == "machine.take_stream":
                bde_need += dur[i]
                if group[1] == "times":
                    times_rows.setdefault(group[2], {})[self.work[i]] = dur[i]
            elif group[0] == "bde" and name == "bde.oracle_eval":
                bde_oracle += dur[i]

        take_s = t("machine.take_stream")
        elements = work.get("machine.take_stream", 0)
        out = {
            "frontend.parse_s": (t("frontend.parse_program", "frontend.parse_term",
                                   "frontend.parse_type"), "s"),
            "frontend.tokens": (work.get("frontend.tokenize", 0), "count"),
            "typecheck.elaborate_s": (t("typecheck.elaborate", "typecheck.check",
                                        "typecheck.check_program"), "s"),
            "typecheck.infer_s": (t("typecheck.infer"), "s"),
            "typecheck.infer_calls": (denot_infer, "count"),
            "syntax.subst_calls": (c("syntax.subst"), "count"),
            "syntax.free_vars_calls": (c("syntax.free_vars"), "count"),
            "syntax.alpha_eq_s": (t("syntax.alpha_eq"), "s"),
            "syntax.alpha_eq_calls": (c("syntax.alpha_eq"), "count"),
            "syntax.numeral_calls": (c("syntax.numeral"), "count"),
            "machine.steps": (work.get("machine.trace", 0), "count"),
            "machine.step_s": (t("machine.step", "machine.step_rd"), "s"),
            "machine.trace_s": (t("machine.trace"), "s"),
            "machine.observe_nat_s": (t("machine.observe_nat"), "s"),
            "machine.take_s": (take_s, "s"),
            "machine.elements": (elements, "count"),
            "machine.elements_per_s": (elements / take_s if take_s else 0.0, "1/s"),
            "denot.den_s": (t("denot.den_take", "denot.den_nat", "denot.den_term"), "s"),
            "denot.calls": (c("denot.den_take", "denot.den_nat", "denot.den_term"), "count"),
            "denot.stage_exponent": (_pooled_slope(den_points), "1"),
            "bde.compile_s": (t("bde.compile_bde"), "s"),
            "bde.oracle_s": (bde_oracle, "s"),
            "bde.need_s": (bde_need, "s"),
            "bde.need_over_oracle": (bde_need / bde_oracle if bde_oracle else 0.0, "1"),
            "bde.cell_growth": (_growth(times_rows), "1"),
            "trace.spans": (n, "count"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (layer_self[layer], "s")
        return out


def _pooled_slope(points: dict) -> float:
    """Slope of log time against log stage, fitted with one intercept
    per stream (0.0 when no stream was taken at two stages)."""
    sxy = sxx = 0.0
    for pts in points.values():
        if len({s for s, _ in pts}) < 2:
            continue
        xs = [math.log(s) for s, _ in pts]
        ys = [math.log(d) for _, d in pts]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        sxy += sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        sxx += sum((x - mx) ** 2 for x in xs)
    return sxy / sxx if sxx else 0.0


def _growth(rows: dict) -> float:
    """Geometric mean, over the argument pairs, of the need-machine time
    ratio between consecutive lengths n+1 and n (0.0 without pairs)."""
    logs = []
    for by_n in rows.values():
        for k, d in by_n.items():
            if k + 1 in by_n:
                logs.append(math.log(by_n[k + 1] / d))
    return math.exp(statistics.fmean(logs)) if logs else 0.0
