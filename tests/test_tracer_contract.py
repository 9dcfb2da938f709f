"""What bench/tracer.py reads from the program still exists and still counts
the work it names.

The tracer wraps `solve_last_layer_optimum` and reads `LastLayerOptimum.steps`
from its result; the benchmark's own smoke test runs with bounds off, so
these run bounds-on trains under the tracer.  A lazy run reads each per-step
distance from the rank verdict of its kernel, so the rank work shows as one
`linalg.certified_rank` call per kernel plus one for the features' rank at
tau, whether bounds are on or off.  It also counts `network.forward_hidden`
calls, one per full-batch pass of a momentum-SGD step, `network.backprop`
calls, one per phase-1 step, and the `ntk` calls of a lazy run: one
`compute_kernel` per kernel and no `compute_jacobian`.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _traced_train(tmp_path, config):
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracer.py"), str(trace), "train",
         "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "run")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(trace.read_text())
    assert result["exit_code"] == 0
    return result


def _calls(result, name):
    return sum(row[2] for row in result["agg"] if row[0] == name)


def test_tracer_reads_optimum_steps(tmp_path):
    config = {
        "seed": 0,
        "loss": "cross_entropy",
        "bounds": True,
        "data": {"n": 12, "m_x": 4, "m_y": 3, "kind": "one_hot", "c_min": 0.03},
        "network": {"sharpness": 10.0},
        "base": {"variant": "gd", "minibatch": 12},
        "two_phase": {"tau_fraction": 0.5, "total_steps": 40,
                      "phase2_mode": "last_layer_sgd", "sgd_minibatch": 4},
    }
    result = _traced_train(tmp_path, config)
    assert result["observed"]["optimum_steps"] == 0
    assert _calls(result, "bounds.solve_last_layer_optimum") == 1


def _lazy_config(bounds):
    return {
        "seed": 0,
        "loss": "squared",
        "bounds": bounds,
        "data": {"n": 12, "m_x": 4, "m_y": 2, "kind": "regression", "c_min": 0.03},
        "network": {"sharpness": 10.0},
        "base": {"variant": "gd", "minibatch": 12},
        "two_phase": {"tau": 20, "total_steps": 40, "phase2_mode": "lazy_full",
                      "lazy_eta_bar": 0.3},
    }


def test_tracer_counts_one_r_bar_solve_per_lazy_step(tmp_path):
    # Rbar is the running max over tau and every phase-2 step, each distance
    # read from the step's bordered factorization, one certified_rank per
    # kernel; each of those kernels (plus one per rejected candidate) is
    # summed layer by layer without a Jacobian
    result = _traced_train(tmp_path, _lazy_config(bounds=True))
    kernels = 40 - 20 + 1 + result["observed"]["rejected_steps"]
    assert _calls(result, "linalg.certified_rank") == kernels + 1
    assert _calls(result, "ntk.compute_kernel") == _calls(result, "ntk.compute_ntk") == kernels
    assert _calls(result, "ntk.compute_jacobian") == 0


def test_tracer_sees_no_r_bar_solve_with_bounds_off(tmp_path):
    # without ceilings a lazy run computes no Rbar; the kernels and their
    # rank verdicts stay
    result = _traced_train(tmp_path, _lazy_config(bounds=False))
    kernels = 40 - 20 + 1 + result["observed"]["rejected_steps"]
    assert _calls(result, "linalg.certified_rank") == kernels + 1
    assert _calls(result, "ntk.compute_kernel") == kernels


def test_tracer_counts_one_forward_pass_per_sgd_step(tmp_path):
    # the initial pass, one per phase-1 step (its minibatch is rows of the
    # previous pass), and the tau pass that the head steps reuse
    tau = 12
    config = {
        "seed": 0,
        "loss": "cross_entropy",
        "bounds": False,
        "data": {"n": 12, "m_x": 4, "m_y": 3, "kind": "one_hot", "c_min": 0.03},
        "network": {"sharpness": 10.0},
        "base": {"variant": "sgd_momentum", "minibatch": 4},
        "two_phase": {"tau": tau, "total_steps": 20, "phase2_mode": "last_layer_gd"},
    }
    result = _traced_train(tmp_path, config)
    assert _calls(result, "network.forward_hidden") == tau + 2
    # and one backprop per phase-1 step, through the public entry point
    assert _calls(result, "network.backprop") == tau
