"""Run one `twophase.cli` command with spans around every public function.

    python3 bench/tracer.py TRACE_OUT.json <cli arguments...>

Every function named in a `twophase` module's `__all__` is wrapped at each
module attribute bound to it (the modules import each other's functions by
name, so wrapping `network.backprop` alone would miss `ntk.backprop`), as is
`Params.to_flat` and the `record_sink` callback that the CLI hands to
`run_two_phase`.  Each span records its caller, so self time is the span's
duration minus what its child spans cover.  Calls are always aggregated per
(name, parent); individual spans are kept only for the first SPAN_CAP calls
of each name, so memory stays flat when a name fires a million times.

A few return values are read on the way out: the `TrainLog` of
`run_two_phase`, the `LastLayerOptimum` of `solve_last_layer_optimum` and the
Jacobian shape of `compute_jacobian`.  The trace is written as JSON when the
command ends; the command's exit code is passed through.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
from time import perf_counter

MODULES = ("linalg", "network", "losses", "data", "expressivity", "ntk",
           "trainer", "bounds", "cli")
SPAN_CAP = 10_000


class Tracer:
    def __init__(self):
        self.stack = []       # open frames: [name, span id or -1, child seconds]
        self.agg = {}         # (name, parent name) -> [calls, inclusive s, self s]
        self.calls = {}       # name -> calls so far
        self.spans = []       # [name, parent span id, start s, end s]
        self.observed = {"phase1_step_ms": [], "phase2_step_ms": [],
                         "rejected_steps": 0, "optimum_steps": 0,
                         "jacobian_bytes": 0}
        self.origin = perf_counter()

    def wrap(self, name, fn, observe=None, adapt=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if adapt is not None:
                args, kwargs = adapt(args, kwargs)
            count = self.calls.get(name, 0) + 1
            self.calls[name] = count
            parent = self.stack[-1] if self.stack else None
            sid = -1
            if count <= SPAN_CAP:
                sid = len(self.spans)
                self.spans.append(None)
            frame = [name, sid, 0.0]
            self.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                took = end - start
                key = (name, parent[0] if parent else None)
                entry = self.agg.setdefault(key, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += took
                entry[2] += took - frame[2]
                if parent is not None:
                    parent[2] += took
                if sid >= 0:
                    self.spans[sid] = [name, parent[1] if parent else -1,
                                       start - self.origin, end - self.origin]
            if observe is not None:
                observe(result)
            return result
        return traced

    # -- return-value readers ------------------------------------------------
    def _train_log(self, result):
        log = result[1]
        for phase in (1, 2):
            times = [r.wall_time for r in log.records if r.phase == phase]
            deltas = [1e3 * (b - a) for a, b in zip(times, times[1:])]
            if deltas:
                self.observed[f"phase{phase}_step_ms"].append(statistics.median(deltas))
        self.observed["rejected_steps"] += len(log.rank_events)

    def _optimum(self, result):
        self.observed["optimum_steps"] += int(result.steps)

    def _jacobian(self, result):
        rows, cols = result.shape
        self.observed["jacobian_bytes"] = max(self.observed["jacobian_bytes"],
                                              rows * cols * 8)

    def _wrap_sink(self, args, kwargs):
        sink = kwargs.get("record_sink")
        if sink is not None:
            kwargs = dict(kwargs, record_sink=self.wrap("cli.record_sink", sink))
        return args, kwargs

    def install(self):
        """Replace every binding of every public twophase function."""
        mods = {short: importlib.import_module(f"twophase.{short}") for short in MODULES}
        holders = [importlib.import_module("twophase"), *mods.values()]
        special = {
            "trainer.run_two_phase": dict(observe=self._train_log, adapt=self._wrap_sink),
            "bounds.solve_last_layer_optimum": dict(observe=self._optimum),
            "ntk.compute_jacobian": dict(observe=self._jacobian),
        }
        for short, mod in mods.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                traced = self.wrap(name, fn, **special.get(name, {}))
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, traced)
        params_cls = mods["network"].Params
        params_cls.to_flat = self.wrap("network.Params.to_flat", params_cls.to_flat)
        return mods["cli"]

    def dump(self, path, exit_code):
        with open(path, "w") as fh:
            json.dump({
                "exit_code": exit_code,
                "agg": [[n, p, *v] for (n, p), v in sorted(self.agg.items(), key=str)],
                "observed": self.observed,
                "span_cap": SPAN_CAP,
                "spans": self.spans,
            }, fh, separators=(",", ":"))


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    cli = tracer.install()
    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        tracer.dump(out_path, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
