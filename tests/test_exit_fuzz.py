"""A seeded fuzz of the command line's exit contract.

Small configs are drawn over the data (n, m_x, m_y, target kind, margin),
the network (depth, sharpness), both phase-1 variants at learning rates
1e-3 to 10, every phase-2 mode, bounds and monitoring, and the `train`,
`verify` and `sweep` commands, and each runs in process through cli.main.
Every run exits 0, 1, 2 or 3 with no traceback; an exit 3 names its step
and phase; and no exit 1 follows a non-finite value: neither one the
trainer's finiteness gate saw nor a record.  One run of each of exit codes
0, 1 and 3 is repeated as a `python -m twophase.cli` child, which exits
through console_main, and must print and exit exactly as in process.
"""

import contextlib
import io
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys

import numpy as np
import pytest

import twophase.cli as cli
import twophase.trainer as trainer

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
SEED, COUNT = 0, 40  # this draw reaches exits 0, 1, 2 and 3; exit 2 is the rarest
STEP_AND_PHASE = re.compile(r"^numeric failure: .*\bstep \d+ \(phase [12]\)")


def draw(rng):
    """One small config and the command to run on it."""
    n = rng.choice([4, 6, 8, 12, 16])
    kind = rng.choice(["regression", "one_hot", "class_index"])
    loss = "squared" if kind == "regression" else rng.choice(["squared", "cross_entropy"])
    m_y = rng.randint(1, 3) if kind == "regression" else rng.randint(2, 3)
    config = {
        "loss": loss,
        "bounds": rng.random() < 0.5,
        "monitor_every": rng.choice([0, 0, 3]),
        "data": {"n": n, "m_x": rng.choice([1, 2, 3, 3, 4, 4]), "m_y": m_y, "kind": kind,
                 "c_min": rng.choice([0.001, 0.01, 0.1])},
        "network": {"depth": rng.choice([2, 3]), "sharpness": rng.choice([1.0, 10.0, 100.0])},
        "base": {"variant": rng.choice(["gd", "sgd_momentum"]),
                 "learning_rate": 10 ** rng.uniform(-3, 1), "minibatch": rng.randint(1, n + 2)},
        "two_phase": {"total_steps": rng.randint(4, 30),
                      "tau_fraction": rng.choice([0.0, 0.3, 0.6, 1.0]),
                      "phase2_mode": rng.choice(["last_layer_gd", "last_layer_sgd", "lazy_full"]),
                      "sgd_minibatch": rng.randint(1, n),
                      "lazy_eta_bar": rng.choice([0.05, 0.5, 0.9])},
        "verify": {"trials": 3},
        "sweep": {"seeds": [0, 1], "tau_fractions": [0.5], "noise_scales": [0.001]},
    }
    return rng.choices(["train", "verify", "sweep"], weights=[6, 2, 1])[0], config


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Each drawn config run in process: (argv, code, stdout, stderr, the
    non-finite values the trainer's _finite saw, the records written)."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = random.Random(SEED)
    real_finite, seen = trainer._finite, []

    def finite(value, what, t, phase):
        if not (math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()):
            seen.append(f"{what} at step {t} (phase {phase})")
        return real_finite(value, what, t, phase)

    results = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainer, "_finite", finite)
        for i in range(COUNT):
            command, config = draw(rng)
            path, out_dir = root / f"config{i}.json", root / f"out{i}"
            path.write_text(json.dumps(config))
            argv = [command, "--config", str(path), "--out", str(out_dir)]
            seen.clear()
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main(argv)
                except (Exception, SystemExit) as exc:  # the exit contract allows neither
                    code = f"{type(exc).__name__}: {exc}"
            log = out_dir / "run.log.jsonl"
            records = log.read_text().splitlines() if log.exists() else []
            results.append((argv, code, stdout.getvalue(), stderr.getvalue(), list(seen),
                            records))
    return results


def test_every_run_exits_with_a_contract_code_and_no_traceback(runs):
    for argv, code, _, err, _, _ in runs:
        assert code in (0, 1, 2, 3), (argv, code)
        assert "Traceback" not in err, (argv, err)


def test_the_draw_reaches_every_exit_code(runs):
    assert {code for _, code, *_ in runs} == {0, 1, 2, 3}


def test_every_exit_3_names_a_step_and_a_phase(runs):
    for argv, code, _, err, _, _ in runs:
        if code == 3:
            assert STEP_AND_PHASE.match(err), (argv, err)


def test_no_exit_1_follows_a_non_finite_value(runs):
    # a config error comes before training: it writes no record, and the
    # finiteness gate saw nothing
    for argv, code, _, err, seen, records in runs:
        if code == 1:
            assert err.startswith("config error:"), (argv, err)
            assert seen == [] and records == [], (argv, seen, len(records))
        if seen:
            assert code == 3, (argv, code, seen)


@pytest.mark.parametrize("code", [0, 1, 3])
def test_a_child_exits_and_prints_as_in_process(runs, tmp_path, code):
    argv, _, out, err, _, _ = next(run for run in runs if run[1] == code)
    argv = argv[:-1] + [str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "twophase.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
