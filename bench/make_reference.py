"""Regenerate bench/reference.json: the final training loss per seed for every
workload whose checks pin it.

    python3 bench/make_reference.py --seeds 256

Run from the repository root.  The table is the program's output at the
commit it was made on; bench/run.py compares each run's `final_loss` against
it with a relative tolerance far above floating-point reassociation noise
(perturbing the initial weights by 1e-13 relative moves the final loss by
under 2e-13 relative on both pinned workloads) and far below any change in
what the training loop computes.

The bound fields of `train` are evaluated after training and do not feed
back into it, so the table is made with `bounds` off; that skips the
capped head-optimum solve, which takes about a minute per seed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
RTOL = 1e-8

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, os.path.join(os.getcwd(), "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=256,
                        help="tabulate seeds 0 .. SEEDS-1")
    args = parser.parse_args()

    from twophase import cli

    with open(os.path.join(HERE, "workloads.json")) as fh:
        workloads = json.load(fh)["workloads"]
    table, failures = {}, []
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        for name, wl in workloads.items():
            if not wl["checks"]["pinned_final_loss"]:
                continue
            cfg = dict(wl["config"], bounds=False)
            cfg_path = os.path.join(tmp, f"{name}.json")
            with open(cfg_path, "w") as fh:
                json.dump(cfg, fh)
            losses = {}
            for seed in range(args.seeds):
                out = os.path.join(tmp, name)
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(["train", "--config", cfg_path, "--out", out,
                                   "--seed", str(seed)])
                if rc != 0:
                    failures.append(f"{name} seed {seed}: exit {rc}")
                    print(failures[-1], file=sys.stderr, flush=True)
                    continue
                with open(os.path.join(out, "summary.json")) as fh:
                    losses[str(seed)] = json.load(fh)["final_loss"]
                print(f"{name} seed {seed}: {losses[str(seed)]!r}", flush=True)
            table[name] = losses
    if failures:
        print(f"{len(failures)} runs failed; {REFERENCE} left unchanged", file=sys.stderr)
        return 1
    with open(REFERENCE, "w") as fh:
        json.dump({"rtol": RTOL, "final_loss": table}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
