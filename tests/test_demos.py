"""Every demo script, and README's library tour and example config, runs to
completion against the package in src/."""

import os
import pathlib
import subprocess
import sys

import pytest

from twophase import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_all_demos_found():
    assert len(DEMOS) >= 6


def _readme_block(heading, language):
    """The first ```language block after `heading` in README.md."""
    section = (ROOT / "README.md").read_text().split(heading, 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_library_tour_runs():
    exec(compile(_readme_block("## Library tour", "python"), "README.md", "exec"), {})


def test_readme_example_config_trains(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(_readme_block("## Command line", "json"))
    out = tmp_path / "train"
    assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 0
    assert len((out / "run.log.jsonl").read_text().splitlines()) == 200
