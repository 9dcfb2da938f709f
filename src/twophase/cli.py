"""Command-line front end: verify | train | sweep | gen-data.

Configuration is a single JSON file of nested sections; every omitted key
falls back to the protocol defaults, which are those of BaseAlgoConfig,
TwoPhaseConfig and NetworkSpec (momentum SGD at rate 0.01, momentum 0.9,
minibatch 64, weight decay 1e-5, noise scale 0.001, sharpness 100) plus the
CLI's own (tau fraction 0.6, 500 steps, depth 2, last hidden width
ceil(1.1 n)), so an empty config file runs the reference protocol at desk
scale.  Per-step training records stream to `run.log.jsonl` as
line-delimited JSON, each written once and complete (with `bounds` on, its
ceiling and suboptimality included), so interrupted runs stay analyzable;
`train` keeps no record it has written, and summary.json takes its best and
final loss and its seconds per phase from the run's log.

Each command imports what it runs as it starts, before any data is built:
`verify` and `gen-data` never load the trainer (nor its losses, bounds and
ntk), and `train` and `sweep` never load the expressivity checks.

Exit codes: 0 success, 1 configuration or usage error (an unreadable config
file or an output directory that cannot be made included), 2 verification
failure, 3 runtime numeric failure.  The `twophase` script and
`python -m twophase.cli` (console_main) freeze the heap (gc.freeze) once
main() has returned, so the interpreter's shutdown collections have nothing
to traverse; the exit code, the atexit handlers and the flush of stdout and
stderr are unchanged.  main() itself never freezes.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import gc
import json
import math
import os
import sys
import time

import numpy as np

from .data import Dataset, load_csv, save_csv, synth_gen
from .linalg import DecompositionError, RankDeficientError
from .network import NetworkSpec, init_params
from .protocol import BaseAlgoConfig, FeatureRankError, RankPreservationError, TwoPhaseConfig

__all__ = ["main", "console_main", "load_config", "DEFAULT_CONFIG"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CHECK_FAILED = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    """Invalid configuration; the message names the violated precondition."""


# error families main() reports as exit codes; a sweep records them per cell
NUMERIC_ERRORS = (FeatureRankError, RankPreservationError, DecompositionError,
                  RankDeficientError, MemoryError, FloatingPointError)
CONFIG_ERRORS = (ConfigError, ValueError, FileNotFoundError)


def _defaults(cls, *skip) -> dict:
    """The defaulted fields of dataclass `cls`, less those named in `skip`."""
    return {f.name: f.default for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING and f.name not in skip}


# the protocol's hyperparameters are the library's defaults; the literals
# are the keys only the CLI reads
DEFAULT_CONFIG = {
    "seed": 0,
    "monitor_every": 0,
    "loss": "cross_entropy",
    "bounds": False,
    "network": {
        "hidden_widths": None,
        "depth": 2,
        "feature_width_factor": 1.1,
        "bn": False,
        **_defaults(NetworkSpec, "bn_flags"),
    },
    "base": _defaults(BaseAlgoConfig, "seed"),
    "two_phase": {
        "tau_fraction": 0.6,
        "tau": None,
        "total_steps": 500,
        **_defaults(TwoPhaseConfig, "seed"),
    },
    "data": {
        "source": "synthetic",
        "n": 128,
        "m_x": 8,
        "m_y": 4,
        "c_min": 0.01,
        "kind": "one_hot",
        "path": None,
    },
    "verify": {
        "trials": 20,
        "init_scale": 1.0,
        "witness": "auto",
    },
    "sweep": {
        "tau_fractions": [0.4, 0.6],
        "noise_scales": [0.001, 0.01],
        "seeds": [0, 1, 2],
    },
}


# keys whose default does not give their type: the type of a non-null value
# where null is allowed, and the item type where a (non-empty) list is allowed
_NULLABLE = {"network.hidden_widths": list, "two_phase.tau": int,
             "two_phase.lazy_lipschitz": float, "data.path": str}
_LIST_ITEMS = {"network.hidden_widths": int, "network.bn": bool,
               "two_phase.noise_scale": float, "sweep.tau_fractions": float,
               "sweep.noise_scales": float, "sweep.seeds": int}
_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a finite number",
               str: "a string", list: "a list", dict: "an object"}


def _typed(where: str, kind: type, value):
    """`value` as JSON type `kind`; an integral float passes as an int, and
    a number (JSON also reads NaN and Infinity) must be finite."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is float and number and abs(value) <= sys.float_info.max:
        return value
    if kind is int and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    if kind not in (int, float) and isinstance(value, kind):
        return value
    raise ConfigError(f"config key {where!r} must be {_TYPE_NAMES[kind]}, "
                      f"got {json.dumps(value)}")


def _merge(defaults: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(defaults)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(defaults[key], dict):
            out[key] = _merge(defaults[key], _typed(where, dict, value), where)
        elif value is None and where in _NULLABLE:
            out[key] = None
        elif isinstance(value, list) and where in _LIST_ITEMS:
            if not value:
                raise ConfigError(f"config key {where!r} must list at least one value")
            out[key] = [_typed(f"{where}[{i}]", _LIST_ITEMS[where], v)
                        for i, v in enumerate(value)]
        else:
            out[key] = _typed(where, _NULLABLE.get(where, type(defaults[key])), value)
    return out


def load_config(path=None) -> dict:
    """Defaults deep-merged with the JSON file at `path`: strict keys, and
    each value of its default's JSON type, else ConfigError naming the key
    (or the path, if the file cannot be read)."""
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    try:
        with open(path) as fh:
            override = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config ({exc.strerror})") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(override, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return _merge(DEFAULT_CONFIG, override)


def _make_out_dir(out_dir: str) -> None:
    """Make the output directory, ConfigError naming it if that fails."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out_dir}: cannot make directory ({exc.strerror})") from None


def _build_dataset(cfg: dict) -> Dataset:
    d = cfg["data"]
    if d["source"] == "synthetic":
        return synth_gen(d["n"], d["m_x"], d["m_y"], d["c_min"], d["kind"],
                         seed=cfg["seed"])
    if d["source"] == "csv":
        if not d["path"]:
            raise ConfigError("data.source is 'csv' but data.path is empty")
        return load_csv(d["path"], d["m_x"], d["kind"],
                        d["m_y"] if d["kind"] != "regression" else None)
    raise ConfigError(f"unknown data.source {d['source']!r}")


def _build_spec(cfg: dict, dataset: Dataset) -> NetworkSpec:
    net = cfg["network"]
    if net["hidden_widths"]:
        hidden = [int(w) for w in net["hidden_widths"]]
    else:
        depth = int(net["depth"])
        if depth < 1:
            raise ConfigError("network.depth must be >= 1")
        feature = math.ceil(net["feature_width_factor"] * dataset.n)
        hidden = [dataset.input_dim] * (depth - 1) + [feature]
    bn = net["bn"]
    if isinstance(bn, bool):
        flags = (bn,) * len(hidden)
    else:
        flags = tuple(bool(b) for b in bn)
        if len(flags) != len(hidden):
            raise ConfigError(
                f"network.bn lists {len(flags)} flags for {len(hidden)} hidden layers"
            )
    return NetworkSpec(
        widths=(dataset.input_dim, *hidden),
        output_dim=dataset.output_dim,
        sharpness=net["sharpness"],
        bn_flags=flags,
        bn_epsilon=net["bn_epsilon"],
    )


def _build_train_cfgs(cfg: dict, dataset: Dataset, spec: NetworkSpec):
    base = BaseAlgoConfig(seed=cfg["seed"], **cfg["base"])
    tp = dict(cfg["two_phase"], seed=cfg["seed"])
    fraction, tau, steps = tp.pop("tau_fraction"), tp.pop("tau"), tp.pop("total_steps")
    if tau is not None:
        two_phase = TwoPhaseConfig(tau=tau, total_steps=steps, **tp)
    else:
        two_phase = TwoPhaseConfig.from_fraction(fraction, steps, **tp)
    # run_two_phase checks depth and minibatch on entry, but finds a last
    # hidden layer too narrow for rank([h, 1]) = n only at tau
    if spec.feature_dim + 1 < dataset.n:
        raise ConfigError(
            f"last hidden width {spec.feature_dim} gives m_H + 1 < n = {dataset.n}; "
            "the expressivity condition rank([h, 1]) = n cannot hold"
        )
    return base, two_phase


# one encoder for every line, which json.dumps would build anew per call
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _json_line(obj) -> str:
    return _ENCODER.encode(obj)


def _record_dict(rec) -> dict:
    return {
        "t": rec.t,
        "phase": rec.phase,
        "loss": rec.loss,
        "grad_norm": rec.grad_norm,
        "feature_rank": rec.feature_rank,
        "ntk_rank": rec.ntk_rank,
        "bound": rec.bound,
        "suboptimality": rec.suboptimality,
        "rank_event": rec.rank_event,
    }


def _write_text_summary(path, summary: dict) -> None:
    width = max(len(k) for k in summary)
    with open(path, "w") as fh:
        for key in sorted(summary):
            fh.write(f"{key:<{width}}  {summary[key]}\n")


def cmd_verify(cfg: dict, out_dir: str) -> int:
    from .expressivity import (
        WitnessConstructionError,
        check_distinguishability,
        check_expressivity,
        construct_witness,
        expressivity_trials,
    )

    dataset = _build_dataset(cfg)
    spec = _build_spec(cfg, dataset)
    vcfg = cfg["verify"]
    if vcfg["witness"] not in ("auto", "off"):
        raise ConfigError(f"config key 'verify.witness' must be \"auto\" or \"off\", "
                          f"got {json.dumps(vcfg['witness'])}")
    _make_out_dir(out_dir)
    report = {"n": dataset.n, "widths": list(spec.widths), "output_dim": spec.output_dim}

    dist = check_distinguishability(dataset.x)
    report["distinguishability"] = {
        "passed": dist.passed,
        "margin": dist.margin,
        "violating_pair": list(dist.violating_pair) if dist.violating_pair else None,
        "note": None if dist.passed else (
            f"rows {dist.violating_pair} violate input distinguishability "
            "(pairwise margin is not positive)"
        ),
    }

    if spec.feature_dim + 1 < dataset.n:
        report["expressivity"] = {
            "passed": False,
            "fraction": 0.0,
            "proved": None,
            "counted": None,
            "note": (
                f"m_H + 1 = {spec.feature_dim + 1} < n = {dataset.n}: the "
                "augmented feature matrix cannot reach row rank n for any "
                "parameters (dimension bound)"
            ),
        }
    else:
        trials = expressivity_trials(spec, dataset.x, vcfg["trials"], vcfg["init_scale"],
                                     seed=cfg["seed"])
        frac = sum(rep.passed for rep in trials) / vcfg["trials"]
        proved = sum(rep.proved for rep in trials)
        report["expressivity"] = {
            "passed": frac > 0.0,
            "fraction": frac,
            "trials": vcfg["trials"],
            "proved": proved,
            "counted": vcfg["trials"] - proved,
            "note": None,
        }

    skipped = {"attempted": False, "passed": None, "rank": None, "proved": None}
    if vcfg["witness"] == "off":
        report["witness"] = {**skipped, "note": "witness construction is off"}
    else:
        try:
            witness = construct_witness(spec, dataset.x)
        except ValueError as exc:  # a precondition of the construction fails
            report["witness"] = {**skipped, "note": str(exc)}
        except WitnessConstructionError as exc:
            report["witness"] = {"attempted": True, "passed": False,
                                 "rank": None, "proved": None, "note": str(exc)}
        else:
            wrep = check_expressivity(witness, dataset.x)
            report["witness"] = {"attempted": True, "passed": wrep.passed,
                                 "rank": wrep.rank, "proved": wrep.proved, "note": None}

    checks = [report["distinguishability"]["passed"], report["expressivity"]["passed"]]
    if report["witness"]["attempted"]:
        checks.append(bool(report["witness"]["passed"]))
    all_passed = all(checks)
    report["passed"] = all_passed

    with open(os.path.join(out_dir, "verify.json"), "w") as fh:
        fh.write(_json_line(report) + "\n")
    for name in ("distinguishability", "expressivity", "witness"):
        entry = report[name]
        state = "PASS" if entry.get("passed") else (
            "SKIP" if entry.get("passed") is None else "FAIL")
        print(f"{name:<20} {state}" + (f"  ({entry['note']})" if entry.get("note") else ""))
    print(f"overall              {'PASS' if all_passed else 'FAIL'}")
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def _train_once(cfg: dict, dataset: Dataset, spec: NetworkSpec, record_sink=None):
    from .losses import loss_by_name
    from .trainer import run_two_phase

    base, two_phase = _build_train_cfgs(cfg, dataset, spec)
    kind = loss_by_name(cfg["loss"])
    params0 = init_params(spec, seed=cfg["seed"])
    return run_two_phase(
        params0, dataset, base, two_phase, kind,
        monitor_every=cfg["monitor_every"],
        record_sink=record_sink,
        bounds=cfg["bounds"],
    )


def cmd_train(cfg: dict, out_dir: str) -> int:
    from . import trainer  # noqa: F401  (what _train_once runs, loaded before any data)

    dataset = _build_dataset(cfg)
    spec = _build_spec(cfg, dataset)
    _make_out_dir(out_dir)
    log_path = os.path.join(out_dir, "run.log.jsonl")
    started = time.perf_counter()

    with open(log_path, "w") as fh:
        def sink(rec):
            fh.write(_json_line(_record_dict(rec)) + "\n")
            fh.flush()
        params, log = _train_once(cfg, dataset, spec, record_sink=sink)

    summary = {
        "final_loss": log.final_loss,
        "best_loss": log.best_loss,
        "t_star": log.t_star,
        "loss_at_t_star": log.loss_at_t_star,
        "tau": log.tau,
        "total_steps": log.total_steps,
        "phase2_mode": log.phase2_mode,
        "loss_initial": log.loss_initial,
        "loss_at_tau": log.loss_at_tau,
        "l_h": log.l_h,
        "violations": log.violations,
        "constants": log.constants,
        "rank_events": log.rank_events,
        "elapsed_seconds": round(time.perf_counter() - started, 3),
        "phase_seconds": {k: round(v, 3) for k, v in log.phase_seconds.items()},
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        fh.write(_json_line(summary) + "\n")
    _write_text_summary(os.path.join(out_dir, "summary.txt"),
                        {k: v for k, v in summary.items() if k != "constants"})
    if log.constants.get("certificate") == "vacuous":
        verdict = "  bound vacuous (optimum not attained)"
    elif log.violations is not None:
        verdict = f"  bound violations = {log.violations}"
    else:
        verdict = ""
    print(f"final loss {log.final_loss:.6e}  best {summary['best_loss']:.6e}  "
          f"t* = {log.t_star}{verdict}")
    return EXIT_OK


def _sweep_cell(cfg: dict, tau0: float, delta0: float, seeds, config_errors: list) -> dict:
    """One grid cell over `seeds`; a run that fails is recorded in the cell,
    and a config error also appended to `config_errors`."""
    losses, failures = [], []
    for seed in seeds:
        cell_cfg = copy.deepcopy(cfg)
        cell_cfg["seed"] = int(seed)
        cell_cfg["two_phase"]["tau_fraction"] = tau0
        cell_cfg["two_phase"]["tau"] = None
        cell_cfg["two_phase"]["noise_scale"] = delta0
        cell_cfg["monitor_every"] = 0
        cell_cfg["bounds"] = False  # a cell reports its final loss alone: no records
        try:
            dataset = _build_dataset(cell_cfg)
            spec = _build_spec(cell_cfg, dataset)
            _, log = _train_once(cell_cfg, dataset, spec, record_sink=lambda rec: None)
            losses.append(log.final_loss)
        except NUMERIC_ERRORS + CONFIG_ERRORS as exc:
            if not isinstance(exc, NUMERIC_ERRORS):
                config_errors.append(exc)
            failures.append({"seed": int(seed), "error": f"{type(exc).__name__}: {exc}"})
    return {
        "tau_fraction": tau0,
        "noise_scale": delta0,
        "losses": losses,
        "mean": float(np.mean(losses)) if losses else None,
        "std": float(np.std(losses)) if losses else None,
        "failures": failures,
    }


def cmd_sweep(cfg: dict, out_dir: str) -> int:
    """Train every (tau fraction, noise scale) cell on every seed.  A failure
    confined to some runs is recorded in its cell; a config error in every
    run is the config's error (ConfigError), as is an empty grid list, which
    load_config rejects."""
    from . import trainer  # noqa: F401  (what _train_once runs, loaded before any data)

    grid = cfg["sweep"]
    cells_spec = [(t, d) for t in grid["tau_fractions"] for d in grid["noise_scales"]]
    _make_out_dir(out_dir)
    config_errors = []
    cells = [_sweep_cell(cfg, t, d, grid["seeds"], config_errors) for t, d in cells_spec]
    if len(config_errors) == len(cells_spec) * len(grid["seeds"]):
        raise ConfigError(f"every sweep run failed: {config_errors[0]}")

    table = {"seeds": list(grid["seeds"]), "cells": cells}
    with open(os.path.join(out_dir, "sweep.json"), "w") as fh:
        fh.write(_json_line(table) + "\n")
    lines = [f"{'tau0':>8} {'delta0':>10} {'mean':>14} {'std':>14} {'fails':>6}"]
    for cell in cells:
        mean = "n/a" if cell["mean"] is None else f"{cell['mean']:.6e}"
        std = "n/a" if cell["std"] is None else f"{cell['std']:.6e}"
        lines.append(f"{cell['tau_fraction']:>8} {cell['noise_scale']:>10} "
                     f"{mean:>14} {std:>14} {len(cell['failures']):>6}")
    with open(os.path.join(out_dir, "sweep.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK


def cmd_gen_data(cfg: dict, out_dir: str) -> int:
    dataset = _build_dataset(cfg)
    _make_out_dir(out_dir)
    path = os.path.join(out_dir, "dataset.csv")
    save_csv(dataset, path)
    print(f"wrote {dataset.n} x {dataset.input_dim} dataset "
          f"({dataset.kind}, {dataset.output_dim} targets) to {path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="twophase",
        description="Two-phase training with executable convergence checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("verify", "check input distinguishability and the expressivity condition"),
        ("train", "run two-phase training and emit JSONL records"),
        ("sweep", "grid over tau fraction x noise scale"),
        ("gen-data", "generate a distinguishable synthetic dataset as CSV"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", type=str, default=None, help="JSON config path")
        p.add_argument("--out", type=str, default="runs", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--monitor-every", type=int, default=None,
                       help="rank sampling cadence in steps (0: never); a phase-2 "
                            "record's ceiling is there at any cadence")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.monitor_every is not None:
            cfg["monitor_every"] = args.monitor_every
        handler = {
            "verify": cmd_verify,
            "train": cmd_train,
            "sweep": cmd_sweep,
            "gen-data": cmd_gen_data,
        }[args.command]
        return handler(cfg, args.out)
    except NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def console_main() -> None:
    code = main()
    # the shutdown collections would traverse every object only for the
    # process's end to free them: frozen, they traverse none (about 13 ms)
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console_main()
