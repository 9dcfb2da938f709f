"""Benchmark for twophase: time whole CLI runs, check their outputs, and
(traced) break the time down by package module.

    python3 bench/run.py --workload head_gd_ce --seed 1 --seconds 15 --trace 0
    for w in head_gd_ce lazy_sq certify_ce; do
        python3 bench/run.py --workload $w --seed 1 --seconds 15 --trace 0; done

Run from the repository root.  Workloads are defined in bench/workloads.json.
Each is a closed loop with one client: run the workload's
`python -m twophase.cli` commands one after another (PYTHONPATH=src, one
BLAS/OpenMP thread, --seed as the config seed), wait for each to exit, check
the outputs, repeat until --seconds have passed (at least once).

--trace 0 reports the end-to-end metrics, measured from outside the program:
  run_s        median wall time of one pass over the command sequence
  setup_s      median wall time of fresh interpreters (at least SETUP_PROBES,
               one after each pass) that import twophase and build the
               workload's dataset, spec and parameters
  peak_rss_mb  median over passes of the largest child max-RSS (os.wait4)
  pass_rate    passes that exited 0 and passed every output check / passes
--trace 1 alternates untraced passes and passes under bench/tracer.py and
reports the per-layer metrics, each the median over traced passes;
trace.overhead_s is the median traced minus the median untraced pass time.
Every pass, traced or not, counts in `attempted` and must pass the checks.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Lines before it describe the machine and print every
metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS_DIR = ".bench_runs"
SETUP_PROBES = 7
# a run must end within 180 s; children still running at this point are killed
RUN_LIMIT_S = 175.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# phase-2 losses of head GD at step 1/L_H may not rise (descent lemma); the
# slack only absorbs rounding in the loss evaluation itself
DESCENT_SLACK = 1e-12

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_rate": "ratio"}

PER_LAYER = {
    "cli.self_s": "s",
    "cli.record_sink_s": "s",
    "cli.record_sink.calls": "count",
    "trainer.self_s": "s",
    "trainer.phase1_step_ms": "ms",
    "trainer.phase2_step_ms": "ms",
    "trainer.estimate_lipschitz_s": "s",
    "trainer.rejected_steps": "count",
    "network.forward_hidden.calls": "count",
    "network.forward_hidden.self_s": "s",
    "network.backprop.calls": "count",
    "network.backprop.self_s": "s",
    "network.flat.calls": "count",
    "network.flat.self_s": "s",
    "losses.loss_value.calls": "count",
    "losses.loss_value.self_s": "s",
    "losses.loss_grad.calls": "count",
    "losses.loss_grad.self_s": "s",
    "ntk.incl_s": "s",
    "ntk.compute_jacobian.calls": "count",
    "ntk.compute_jacobian.self_s": "s",
    "ntk.compute_ntk.calls": "count",
    "ntk.compute_ntk.self_s": "s",
    "ntk.backprop_per_jacobian": "calls/jacobian",
    "ntk.jacobian_bytes": "bytes-computed",
    "linalg.numerical_rank.calls": "count",
    "linalg.numerical_rank.self_s": "s",
    "linalg.min_norm_solve.calls": "count",
    "linalg.min_norm_solve.self_s": "s",
    "bounds.solve_last_layer_optimum.incl_s": "s",
    "bounds.solve_last_layer_optimum.self_s": "s",
    "bounds.optimum_steps": "count",
    "bounds.estimate_R_bar.self_s": "s",
    "bounds.check_bounds.self_s": "s",
    "expressivity.incl_s": "s",
    "data.incl_s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}


def deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            out[key] = deep_merge(base[key], value)
        else:
            out[key] = value
    return out


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(argv, env, log_path, deadline):
    """Run one child to completion, killing it at `deadline` (perf_counter
    seconds); returns (exit code, wall s, max RSS KiB)."""
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


class Workload:
    """One workload at one seed: its config, output directory and checks."""

    def __init__(self, name, spec, seed, tiny, root):
        self.commands = spec["commands"]
        self.checks = spec["checks"]
        self.config = deep_merge(spec["config"], spec["tiny"] if tiny else {})
        self.config["seed"] = seed
        self.env = child_env(root)
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.dir = os.path.join(root, RUNS_DIR, name)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.config_path = os.path.join(self.dir, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(self.config, fh, indent=1)
        self.log_digest = None
        self.reference = None
        if self.checks["pinned_final_loss"] and not tiny:
            with open(os.path.join(HERE, "reference.json")) as fh:
                ref = json.load(fh)
            self.rtol = ref["rtol"]
            self.reference = ref["final_loss"][name].get(str(seed))
            if self.reference is None:
                print(f"note: no reference final loss for seed {seed}; "
                      "that check is skipped", file=sys.stderr)

    def probe(self, describe=False):
        argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), self.config_path]
        log_path = os.path.join(self.dir, "setup_probe.log")
        code, wall, _ = run_child(argv + (["--describe"] if describe else []),
                                  self.env, log_path, self.deadline)
        if code != 0:
            with open(log_path) as fh:
                raise RuntimeError(f"set-up probe exited {code}:\n{fh.read()}")
        if describe:
            with open(log_path) as fh:
                return json.loads(fh.read().strip().splitlines()[-1])
        return wall

    def run_pass(self, traced: bool) -> dict:
        """One pass over the command sequence, then the output checks."""
        result = {"wall": 0.0, "rss_mb": 0.0, "problems": [], "layers": None}
        traces = []
        for cmd in self.commands:
            out = os.path.join(self.dir, cmd)
            shutil.rmtree(out, ignore_errors=True)
            cli_args = [cmd, "--config", self.config_path, "--out", out]
            if traced:
                trace_path = os.path.join(self.dir, f"{cmd}.trace.json")
                if os.path.exists(trace_path):
                    os.remove(trace_path)
                argv = [sys.executable, os.path.join(HERE, "tracer.py"), trace_path, *cli_args]
                traces.append(trace_path)
            else:
                argv = [sys.executable, "-m", "twophase.cli", *cli_args]
            code, wall, rss_kib = run_child(argv, self.env, out + ".log", self.deadline)
            result["wall"] += wall
            result["rss_mb"] = max(result["rss_mb"], rss_kib / 1024.0)
            if code != 0:
                result["problems"].append(f"{cmd} exited {code} (see {out}.log)")
                return result
        try:
            result["problems"] += self.check_outputs()
        except (OSError, ValueError, KeyError, TypeError) as exc:
            result["problems"].append(f"outputs unreadable: {type(exc).__name__}: {exc}")
        if traced and not result["problems"]:
            result["layers"] = layer_metrics(traces, result["wall"])
        return result

    def check_outputs(self) -> list:
        problems = []
        train_dir = os.path.join(self.dir, "train")
        log_path = os.path.join(train_dir, "run.log.jsonl")
        with open(log_path, "rb") as fh:
            raw = fh.read()
        records = [json.loads(line) for line in raw.decode().splitlines()]
        total = self.config["two_phase"]["total_steps"]
        if [r["t"] for r in records] != list(range(1, total + 1)):
            problems.append(f"run.log.jsonl does not hold records t = 1..{total} in order")
        if not all(isinstance(r["loss"], float) and math.isfinite(r["loss"])
                   for r in records):
            problems.append("run.log.jsonl holds a non-finite loss")
        digest = hashlib.sha256(raw).hexdigest()
        if self.log_digest is None:
            self.log_digest = digest
        elif digest != self.log_digest:
            problems.append("run.log.jsonl differs from this run's first pass")
        with open(os.path.join(train_dir, "summary.json")) as fh:
            summary = json.load(fh)
        if self.checks["phase2_nonincreasing"]:
            prev = summary["loss_at_tau"]
            for r in records:
                if r["phase"] == 2:
                    if r["loss"] > prev + DESCENT_SLACK * abs(prev):
                        problems.append(f"phase-2 loss rose at t = {r['t']}")
                        break
                    prev = r["loss"]
        if self.checks["verify_passed"]:
            with open(os.path.join(self.dir, "verify", "verify.json")) as fh:
                if json.load(fh).get("passed") is not True:
                    problems.append("verify did not pass")
        if self.reference is not None:
            got = summary["final_loss"]
            if not math.isclose(got, self.reference, rel_tol=self.rtol, abs_tol=0.0):
                problems.append(f"final loss {got!r} != reference {self.reference!r}")
        return problems


def layer_metrics(trace_paths, wall: float) -> dict:
    agg, observed = [], defaultdict(list)
    for path in trace_paths:
        with open(path) as fh:
            trace = json.load(fh)
        agg += trace["agg"]
        for key, value in trace["observed"].items():
            observed[key].append(value)

    def module(name):
        return name.split(".")[0] if name else None

    calls, self_s, incl = defaultdict(int), defaultdict(float), defaultdict(float)
    mod_self, mod_incl = defaultdict(float), defaultdict(float)
    jac_backprops = 0
    for name, parent, n, inclusive, own in agg:
        calls[name] += n
        self_s[name] += own
        mod_self[module(name)] += own
        if parent != name:
            incl[name] += inclusive
        if module(parent) != module(name):
            mod_incl[module(name)] += inclusive
        if name == "network.backprop" and parent == "ntk.compute_jacobian":
            jac_backprops += n

    step_ms = {key: [v for values in observed[key] for v in values] or [0.0]
               for key in ("phase1_step_ms", "phase2_step_ms")}
    flat = ("network.params_from_flat", "network.Params.to_flat")
    m = {
        "cli.self_s": mod_self["cli"] - self_s["cli.record_sink"],
        "cli.record_sink_s": incl["cli.record_sink"],
        "cli.record_sink.calls": calls["cli.record_sink"],
        "trainer.self_s": mod_self["trainer"],
        "trainer.phase1_step_ms": statistics.median(step_ms["phase1_step_ms"]),
        "trainer.phase2_step_ms": statistics.median(step_ms["phase2_step_ms"]),
        "trainer.estimate_lipschitz_s": incl["trainer.estimate_lipschitz"],
        "trainer.rejected_steps": sum(observed["rejected_steps"]),
        "network.flat.calls": sum(calls[f] for f in flat),
        "network.flat.self_s": sum(self_s[f] for f in flat),
        "ntk.incl_s": mod_incl["ntk"],
        "ntk.backprop_per_jacobian": (jac_backprops / calls["ntk.compute_jacobian"]
                                      if calls["ntk.compute_jacobian"] else 0),
        "ntk.jacobian_bytes": max(observed["jacobian_bytes"] or [0]),
        "bounds.solve_last_layer_optimum.incl_s": incl["bounds.solve_last_layer_optimum"],
        "bounds.optimum_steps": sum(observed["optimum_steps"]),
        "expressivity.incl_s": mod_incl["expressivity"],
        "data.incl_s": mod_incl["data"],
        "trace.run_s": wall,
    }
    for name in ("network.forward_hidden", "network.backprop", "losses.loss_value",
                 "losses.loss_grad", "ntk.compute_jacobian", "ntk.compute_ntk",
                 "linalg.numerical_rank", "linalg.min_norm_solve"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    for name in ("bounds.solve_last_layer_optimum", "bounds.estimate_R_bar",
                 "bounds.check_bounds"):
        m[f"{name}.self_s"] = self_s[name]
    return m


def measure(workload, seconds, trace):
    """Rounds until `seconds` have gone by (at least one round).  Untraced, a
    round is one pass and one set-up probe, so both sample the same stretch
    of machine noise; SETUP_PROBES probes are made in any case.  Traced, a
    round is one untraced and one traced pass, whose difference is the
    tracing overhead.  Returns (untraced passes, traced passes, probe times)."""
    untraced, traced, setup = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(workload.run_pass(traced=False))
        if trace:
            traced.append(workload.run_pass(traced=True))
        else:
            setup.append(workload.probe())
        if time.perf_counter() >= deadline:
            break
    while not trace and len(setup) < SETUP_PROBES:
        setup.append(workload.probe())
    return untraced, traced, setup


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="twophase benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="reduced configs for the smoke test; no pinned losses")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "twophase", "__init__.py")):
        print("error: run from the repository root (src/twophase not found)",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "workloads.json")) as fh:
        specs = json.load(fh)["workloads"]
    if args.workload not in specs:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(specs)}",
              file=sys.stderr)
        return 2
    workload = Workload(args.workload, specs[args.workload], args.seed, args.tiny, root)
    # the first probe also compiles bytecode caches, which users pay only once
    print("# env " + json.dumps(workload.probe(describe=True), sort_keys=True))

    untraced, traced, setup = measure(workload, args.seconds, args.trace)
    passes = untraced + traced
    if args.trace:
        units = PER_LAYER
        per_pass = [p["layers"] for p in traced if p["layers"] is not None]
        samples = {name: [m[name] for m in per_pass] or [0.0] for name in PER_LAYER
                   if name != "trace.overhead_s"}
        samples["trace.overhead_s"] = [statistics.median(samples["trace.run_s"])
                                       - statistics.median(p["wall"] for p in untraced)]
    else:
        units = END_TO_END
        ok = [not p["problems"] for p in passes]
        samples = {
            "run_s": [p["wall"] for p in passes],
            "setup_s": setup,
            "peak_rss_mb": [p["rss_mb"] for p in passes],
            "pass_rate": [sum(ok) / len(ok)],
        }

    failed = 0
    for i, p in enumerate(passes):
        if p["problems"]:
            failed += 1
            print(f"pass {i}: " + "; ".join(p["problems"]), file=sys.stderr)
    # per-layer values are observed ones (median_low), so counts stay whole
    median = statistics.median_low if args.trace else statistics.median
    metrics = {}
    for name, unit in units.items():
        value = median(samples[name])
        metrics[name] = {"value": value, "unit": unit}
        print(f"# {args.workload:<11} {name:<40} {value:>14.6g} {unit:<14} "
              f"median of {len(samples[name])} ({min(samples[name]):.6g} .. "
              f"{max(samples[name]):.6g})")
        if unit == "s" and not args.trace:
            print(f"# {name} samples: " + " ".join(f"{v:.4f}" for v in samples[name]),
                  file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(passes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
