"""Set-up probe: import twophase and build one workload's inputs, as a fresh
interpreter does before it can train (dataset via `synth_gen`, `NetworkSpec`,
`init_params`).

    python3 bench/setup_probe.py CONFIG.json [--describe]

bench/run.py times whole probe processes for `setup_s`.  With --describe the
probe also prints one JSON line describing the interpreter, NumPy, its BLAS
build and the thread settings it ran with.
"""

from __future__ import annotations

import json
import os
import platform
import sys


def describe() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # NumPy before 1.26 has no dict mode
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv) -> int:
    with open(argv[0]) as fh:
        cfg = json.load(fh)
    import twophase

    data, net = cfg["data"], cfg["network"]
    ds = twophase.synth_gen(data["n"], data["m_x"], data["m_y"], data["c_min"],
                            data["kind"], seed=cfg["seed"])
    spec = twophase.NetworkSpec(widths=(ds.input_dim, *net["hidden_widths"]),
                                output_dim=ds.output_dim, sharpness=net["sharpness"])
    twophase.init_params(spec, seed=cfg["seed"])
    if "--describe" in argv[1:]:
        print(json.dumps(describe(), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
