"""Command-line front end: verify | train | sweep | gen-data.

Configuration is a single JSON file of nested sections; every omitted key
falls back to the protocol defaults (momentum SGD at rate 0.01, momentum
0.9, minibatch 64, weight decay 1e-5, tau fraction 0.6, noise scale 0.001,
sharpness 100, last hidden width ceil(1.1 n)), so an empty config file runs
the reference protocol at desk scale.  Per-step training records stream to
`run.log.jsonl` as line-delimited JSON, each written once and complete (with
`bounds` on, its ceiling and suboptimality included), so interrupted runs
stay analyzable.

Exit codes: 0 success, 1 configuration or usage error, 2 verification
failure, 3 runtime numeric failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
import time

import numpy as np

from .data import Dataset, load_csv, save_csv, synth_gen
from .expressivity import (
    WitnessConstructionError,
    check_distinguishability,
    check_expressivity,
    construct_witness,
    probabilistic_expressivity,
)
from .linalg import DecompositionError, RankDeficientError
from .losses import loss_by_name
from .network import NetworkSpec, init_params
from .trainer import (
    BaseAlgoConfig,
    FeatureRankError,
    RankPreservationError,
    TwoPhaseConfig,
    run_two_phase,
)

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


DEFAULT_CONFIG = {
    "seed": 0,
    "monitor_every": 0,
    "loss": "cross_entropy",
    "bounds": False,
    "network": {
        "hidden_widths": None,
        "depth": 2,
        "feature_width_factor": 1.1,
        "sharpness": 100.0,
        "bn": False,
        "bn_epsilon": 1e-5,
    },
    "base": {
        "variant": "sgd_momentum",
        "learning_rate": 0.01,
        "momentum": 0.9,
        "minibatch": 64,
        "weight_decay": 1e-5,
    },
    "two_phase": {
        "tau_fraction": 0.6,
        "tau": None,
        "total_steps": 500,
        "noise_scale": 0.001,
        "phase2_mode": "last_layer_gd",
        "sgd_rate_scale": 0.01,
        "sgd_minibatch": 64,
        "lazy_eta_bar": 0.5,
        "lazy_lipschitz": None,
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
    each value of its default's JSON type, else ConfigError naming the key."""
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    with open(path) as fh:
        try:
            override = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(override, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return _merge(DEFAULT_CONFIG, override)


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
    tp = cfg["two_phase"]
    kwargs = dict(
        noise_scale=tp["noise_scale"],
        phase2_mode=tp["phase2_mode"],
        sgd_rate_scale=tp["sgd_rate_scale"],
        sgd_minibatch=tp["sgd_minibatch"],
        lazy_eta_bar=tp["lazy_eta_bar"],
        lazy_lipschitz=tp["lazy_lipschitz"],
        seed=cfg["seed"],
    )
    if tp["tau"] is not None:
        two_phase = TwoPhaseConfig(tau=int(tp["tau"]),
                                   total_steps=int(tp["total_steps"]), **kwargs)
    else:
        two_phase = TwoPhaseConfig.from_fraction(tp["tau_fraction"],
                                                 int(tp["total_steps"]), **kwargs)
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


def _phase_seconds(log) -> dict:
    """Seconds per phase from the records' wall times: phase 1 up to its
    last record, phase 2 from there to the last record."""
    split = log.records[log.tau - 1].wall_time if log.tau else 0.0
    end = log.records[-1].wall_time if log.records else 0.0
    return {"1": round(split, 3), "2": round(end - split, 3)}


def _write_text_summary(path, summary: dict) -> None:
    width = max(len(k) for k in summary)
    with open(path, "w") as fh:
        for key in sorted(summary):
            fh.write(f"{key:<{width}}  {summary[key]}\n")


def cmd_verify(cfg: dict, out_dir: str) -> int:
    dataset = _build_dataset(cfg)
    spec = _build_spec(cfg, dataset)
    vcfg = cfg["verify"]
    if vcfg["witness"] not in ("auto", "off"):
        raise ConfigError(f"config key 'verify.witness' must be \"auto\" or \"off\", "
                          f"got {json.dumps(vcfg['witness'])}")
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
            "note": (
                f"m_H + 1 = {spec.feature_dim + 1} < n = {dataset.n}: the "
                "augmented feature matrix cannot reach row rank n for any "
                "parameters (dimension bound)"
            ),
        }
    else:
        frac = probabilistic_expressivity(spec, dataset.x, vcfg["trials"],
                                          vcfg["init_scale"], seed=cfg["seed"])
        report["expressivity"] = {
            "passed": frac > 0.0,
            "fraction": frac,
            "trials": vcfg["trials"],
            "note": None,
        }

    skipped = {"attempted": False, "passed": None, "rank": None}
    if vcfg["witness"] == "off":
        report["witness"] = {**skipped, "note": "witness construction is off"}
    else:
        try:
            witness = construct_witness(spec, dataset.x)
        except ValueError as exc:  # a precondition of the construction fails
            report["witness"] = {**skipped, "note": str(exc)}
        except WitnessConstructionError as exc:
            report["witness"] = {"attempted": True, "passed": False,
                                 "rank": None, "note": str(exc)}
        else:
            wrep = check_expressivity(spec, witness, dataset.x)
            report["witness"] = {"attempted": True, "passed": wrep.passed,
                                 "rank": wrep.rank, "note": None}

    checks = [report["distinguishability"]["passed"], report["expressivity"]["passed"]]
    if report["witness"]["attempted"]:
        checks.append(bool(report["witness"]["passed"]))
    all_passed = all(checks)
    report["passed"] = all_passed

    os.makedirs(out_dir, exist_ok=True)
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
    base, two_phase = _build_train_cfgs(cfg, dataset, spec)
    kind = loss_by_name(cfg["loss"])
    params0 = init_params(spec, seed=cfg["seed"])
    return run_two_phase(
        spec, params0, dataset, base, two_phase, kind,
        monitor_every=cfg["monitor_every"],
        record_sink=record_sink,
        bounds=cfg["bounds"],
    )


def cmd_train(cfg: dict, out_dir: str) -> int:
    dataset = _build_dataset(cfg)
    spec = _build_spec(cfg, dataset)
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "run.log.jsonl")
    started = time.perf_counter()

    with open(log_path, "w") as fh:
        def sink(rec):
            fh.write(_json_line(_record_dict(rec)) + "\n")
            fh.flush()
        params, log = _train_once(cfg, dataset, spec, record_sink=sink)

    summary = {
        "final_loss": log.final_loss,
        "best_loss": log.best_recorded_loss(),
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
        "phase_seconds": _phase_seconds(log),
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
        cell_cfg["bounds"] = False  # a cell reports its final loss alone
        try:
            dataset = _build_dataset(cell_cfg)
            spec = _build_spec(cell_cfg, dataset)
            _, log = _train_once(cell_cfg, dataset, spec)
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
    grid = cfg["sweep"]
    cells_spec = [(t, d) for t in grid["tau_fractions"] for d in grid["noise_scales"]]
    config_errors = []
    cells = [_sweep_cell(cfg, t, d, grid["seeds"], config_errors) for t, d in cells_spec]
    if len(config_errors) == len(cells_spec) * len(grid["seeds"]):
        raise ConfigError(f"every sweep run failed: {config_errors[0]}")

    os.makedirs(out_dir, exist_ok=True)
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
    os.makedirs(out_dir, exist_ok=True)
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
                       help="rank/bound sampling cadence in steps")
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
    sys.exit(main())


if __name__ == "__main__":
    console_main()
