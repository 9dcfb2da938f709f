"""The CI entry-point checks, ci/entry_point.sh, pass against the package in
src/: run in a temporary directory, with a `twophase` shim on PATH that runs
`python -m twophase.cli` under this interpreter."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_entry_point_checks_pass(tmp_path):
    bin_dir, work = tmp_path / "bin", tmp_path / "work"
    bin_dir.mkdir()
    work.mkdir()
    for name, command in (("twophase", f'"{sys.executable}" -m twophase.cli'),
                          ("python", f'"{sys.executable}"')):
        shim = bin_dir / name
        shim.write_text(f'#!/bin/sh\nexec {command} "$@"\n')
        shim.chmod(0o755)
    env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
               PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(["bash", str(ROOT / "ci" / "entry_point.sh")], cwd=work, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, (proc.stdout + proc.stderr)[-3000:]
