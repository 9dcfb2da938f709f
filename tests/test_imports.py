"""What each entry point loads: `import twophase` loads no submodule, and each
CLI command loads only the modules it runs, so `verify` and `gen-data`
never load the trainer.  Each case runs in a fresh interpreter."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TINY = {"data": {"n": 16}, "network": {"hidden_widths": [8, 18]}, "base": {"minibatch": 8},
        "two_phase": {"total_steps": 40}, "verify": {"trials": 2}}
# the twophase.* modules a command loads, beyond twophase.cli's own
BASE = {"cli", "data", "linalg", "network", "protocol"}
TRAINER = BASE | {"bounds", "losses", "ntk", "trainer"}


def _loaded_after(tmp_path, code):
    """The twophase submodules a fresh interpreter holds after `code`."""
    script = code + ("\nimport json, sys\nprint(json.dumps([m[len('twophase.'):] for m in"
                     " sys.modules if m.startswith('twophase.')]))")
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_loads_no_submodule(tmp_path):
    assert _loaded_after(tmp_path, "import twophase") == set()


@pytest.mark.parametrize("command, modules", [
    ("gen-data", BASE),
    ("verify", BASE | {"expressivity"}),
    ("train", TRAINER),
    ("sweep", TRAINER),
])
def test_command_loads_what_it_runs(tmp_path, command, modules):
    config = dict(TINY, sweep={"tau_fractions": [0.5], "noise_scales": [0.001], "seeds": [0]})
    (tmp_path / "tiny.json").write_text(json.dumps(config))
    code = ("import contextlib, io\nfrom twophase import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main([{command!r}, '--config', 'tiny.json', '--out', 'out']) == 0")
    assert _loaded_after(tmp_path, code) == modules


def test_every_public_name_resolves(tmp_path):
    code = """
import twophase
import twophase.protocol as protocol
import twophase.trainer as trainer
assert len(twophase.__all__) == len(set(twophase.__all__)) == 38
for name in twophase.__all__:
    exec(f"from twophase import {name}")
    assert name in dir(twophase)
try:
    twophase.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("an unknown name resolved")
for name in protocol.__all__:
    assert getattr(trainer, name) is getattr(protocol, name)
"""
    # the names come from every module but cli
    assert _loaded_after(tmp_path, code) == TRAINER - {"cli"} | {"expressivity"}
