"""What bench/tracer.py reads from the program's return values still exists.

The tracer wraps `solve_last_layer_optimum` and reads `LastLayerOptimum.steps`
from its result; the benchmark's own smoke test runs with bounds off, so this
runs a bounds-on cross-entropy train under the tracer.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


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
    assert result["observed"]["optimum_steps"] == 0
    calls = [row for row in result["agg"] if row[0] == "bounds.solve_last_layer_optimum"]
    assert sum(row[2] for row in calls) == 1
