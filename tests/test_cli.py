"""End-to-end command-line behavior: exit codes, files, determinism."""

import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import twophase.cli as cli
from twophase.data import load_csv
from twophase.trainer import FeatureRankError

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def write_config(tmp_path, name="cfg.json", **sections):
    path = tmp_path / name
    path.write_text(json.dumps(sections))
    return str(path)


def small_train_sections(**overrides):
    sections = {
        "seed": 0,
        "loss": "squared",
        "data": {"n": 12, "m_x": 4, "m_y": 2, "kind": "regression", "c_min": 0.03},
        "network": {"sharpness": 10.0},
        "base": {"variant": "gd", "minibatch": 12, "weight_decay": 0.0},
        "two_phase": {"tau_fraction": 0.5, "total_steps": 40},
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            sections.setdefault(key, {}).update(value)
        else:
            sections[key] = value
    return sections


class TestConfig:
    def test_defaults_load_without_file(self):
        cfg = cli.load_config(None)
        assert cfg["two_phase"]["tau_fraction"] == 0.6
        assert cfg["two_phase"]["noise_scale"] == 0.001
        assert cfg["network"]["sharpness"] == 100.0
        assert cfg["base"]["momentum"] == 0.9

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, learning_rate=0.1)
        with pytest.raises(cli.ConfigError, match="unknown config key"):
            cli.load_config(path)

    def test_unknown_nested_key_named(self, tmp_path):
        path = write_config(tmp_path, base={"lr": 0.1})
        with pytest.raises(cli.ConfigError, match="base.lr"):
            cli.load_config(path)

    def test_unknown_key_exit_code(self, tmp_path):
        path = write_config(tmp_path, nonsense=1)
        assert cli.main(["train", "--config", path, "--out", str(tmp_path)]) == 1


class TestGenData:
    def test_writes_loadable_csv(self, tmp_path):
        path = write_config(tmp_path, data={"n": 10, "m_x": 3, "m_y": 2,
                                            "kind": "class_index", "c_min": 0.05})
        out = tmp_path / "out"
        assert cli.main(["gen-data", "--config", path, "--out", str(out)]) == 0
        ds = load_csv(out / "dataset.csv", m_x=3, kind="class_index")
        assert ds.n == 10 and ds.y.shape[1] == 2


class TestVerify:
    def test_qualifying_setup_passes(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            data={"n": 8, "m_x": 4, "m_y": 2, "kind": "regression", "c_min": 0.05},
            network={"hidden_widths": [4, 9], "sharpness": 1.0},
            verify={"trials": 10},
        )
        out = tmp_path / "v"
        assert cli.main(["verify", "--config", path, "--out", str(out)]) == 0
        report = json.loads((out / "verify.json").read_text())
        assert report["passed"]
        assert report["witness"]["attempted"] and report["witness"]["passed"]
        assert report["expressivity"]["fraction"] == 1.0
        assert "PASS" in capsys.readouterr().out

    def test_dimension_bound_fails_with_explanation(self, tmp_path):
        path = write_config(
            tmp_path,
            data={"n": 8, "m_x": 4, "m_y": 1, "kind": "regression", "c_min": 0.05},
            network={"hidden_widths": [4, 4]},
        )
        out = tmp_path / "v"
        assert cli.main(["verify", "--config", path, "--out", str(out)]) == 2
        report = json.loads((out / "verify.json").read_text())
        assert not report["expressivity"]["passed"]
        assert "dimension bound" in report["expressivity"]["note"]

    def test_duplicate_rows_fail_citing_pair(self, tmp_path):
        csv = tmp_path / "dup.csv"
        csv.write_text("1,0,0.5\n1,0,0.5\n0,1,1.5\n")
        path = write_config(
            tmp_path,
            data={"source": "csv", "path": str(csv), "m_x": 2, "kind": "regression"},
            network={"hidden_widths": [2, 4]},
        )
        out = tmp_path / "v"
        assert cli.main(["verify", "--config", path, "--out", str(out)]) == 2
        report = json.loads((out / "verify.json").read_text())
        assert report["distinguishability"]["violating_pair"] == [0, 1]
        assert "distinguishability" in report["distinguishability"]["note"]

    def test_witness_precondition_note_is_the_construction_error(self, tmp_path):
        path = write_config(
            tmp_path,
            data={"n": 8, "m_x": 4, "m_y": 2, "kind": "regression", "c_min": 0.05},
            network={"hidden_widths": [4, 9], "sharpness": 1.0, "bn": True},
            verify={"trials": 4},
        )
        out = tmp_path / "v"
        cli.main(["verify", "--config", path, "--out", str(out)])
        witness = json.loads((out / "verify.json").read_text())["witness"]
        assert not witness["attempted"] and witness["passed"] is None
        assert "batch normalization" in witness["note"]

    def test_witness_programming_errors_propagate(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("broken call")
        monkeypatch.setattr(cli, "construct_witness", broken)
        path = write_config(
            tmp_path,
            data={"n": 8, "m_x": 4, "m_y": 2, "kind": "regression", "c_min": 0.05},
            network={"hidden_widths": [4, 9], "sharpness": 1.0},
            verify={"trials": 4},
        )
        with pytest.raises(TypeError, match="broken call"):
            cli.main(["verify", "--config", path, "--out", str(tmp_path / "v")])


class TestTrain:
    def test_emits_parseable_records_and_summary(self, tmp_path):
        path = write_config(tmp_path, **small_train_sections(monitor_every=10))
        out = tmp_path / "t"
        assert cli.main(["train", "--config", path, "--out", str(out)]) == 0
        lines = (out / "run.log.jsonl").read_text().splitlines()
        assert len(lines) == 40
        records = [json.loads(line) for line in lines]
        assert [r["t"] for r in records] == list(range(1, 41))
        summary = json.loads((out / "summary.json").read_text())
        assert summary["best_loss"] == min(r["loss"] for r in records)
        assert (out / "summary.txt").exists()

    @pytest.mark.parametrize("mode", ["last_layer_gd", "last_layer_sgd", "lazy_full"])
    def test_byte_identical_rerun(self, tmp_path, mode):
        path = write_config(tmp_path, **small_train_sections(
            bounds=True, two_phase={"phase2_mode": mode}))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["train", "--config", path, "--out", str(out1)]) == 0
        assert cli.main(["train", "--config", path, "--out", str(out2)]) == 0
        assert (out1 / "run.log.jsonl").read_bytes() == (out2 / "run.log.jsonl").read_bytes()

    def test_bounds_enabled_gd_run_has_zero_violations(self, tmp_path):
        path = write_config(tmp_path, **small_train_sections(bounds=True))
        out = tmp_path / "t"
        assert cli.main(["train", "--config", path, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["violations"] == 0
        records = [json.loads(line) for line in (out / "run.log.jsonl").read_text().splitlines()]
        phase2 = [r for r in records if r["phase"] == 2]
        assert phase2 and all(r["bound"] is not None for r in phase2)
        assert all(r["suboptimality"] <= r["bound"] + 1e-9 * (1 + r["bound"]) for r in phase2)

    def test_base_versus_two_phase_protocol(self, tmp_path):
        # same seed and data, pure-base split versus the default split
        base_cfg = small_train_sections()
        base_cfg["two_phase"]["tau_fraction"] = 1.0
        p1 = write_config(tmp_path, "base.json", **base_cfg)
        p2 = write_config(tmp_path, "two.json", **small_train_sections())
        out1, out2 = tmp_path / "base", tmp_path / "two"
        assert cli.main(["train", "--config", p1, "--out", str(out1)]) == 0
        assert cli.main(["train", "--config", p2, "--out", str(out2)]) == 0
        s1 = json.loads((out1 / "summary.json").read_text())
        s2 = json.loads((out2 / "summary.json").read_text())
        assert s1["tau"] == 40 and s2["tau"] == 20
        r1 = [json.loads(l) for l in (out1 / "run.log.jsonl").read_text().splitlines()]
        r2 = [json.loads(l) for l in (out2 / "run.log.jsonl").read_text().splitlines()]
        # shared phase-1 prefix is identical
        assert r1[:20] == r2[:20]

    def test_minibatch_precondition_named(self, tmp_path):
        sections = small_train_sections()
        sections["base"] = {"variant": "sgd_momentum", "minibatch": 64}
        path = write_config(tmp_path, **sections)
        assert cli.main(["train", "--config", path, "--out", str(tmp_path / "x")]) == 1

    def test_expressivity_precondition_named(self, tmp_path, capsys):
        sections = small_train_sections(network={"hidden_widths": [4, 5]})
        path = write_config(tmp_path, **sections)
        code = cli.main(["train", "--config", path, "--out", str(tmp_path / "x")])
        assert code == 1
        assert "expressivity" in capsys.readouterr().err

    def test_numeric_failure_maps_to_exit_three(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise FeatureRankError("forced rank loss")
        monkeypatch.setattr(cli, "run_two_phase", boom)
        path = write_config(tmp_path, **small_train_sections())
        assert cli.main(["train", "--config", path, "--out", str(tmp_path / "x")]) == 3

    def test_divergence_exits_three_naming_step_and_phase(self, tmp_path, capsys):
        path = write_config(tmp_path, base={"learning_rate": 1e6, "minibatch": 16},
                            two_phase={"total_steps": 50}, data={"n": 32},
                            network={"sharpness": 10.0})
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(["train", "--config", path, "--out", str(tmp_path / "x")])
        assert code == 3
        err = capsys.readouterr().err
        assert "numeric failure" in err and re.search(r"step \d+ \(phase 1\)", err)

    def test_divergence_exit_prints_no_runtime_warning(self, tmp_path):
        # a fresh interpreter with default warning filters, nothing silenced here
        path = write_config(tmp_path, base={"learning_rate": 1e6, "minibatch": 16},
                            two_phase={"total_steps": 50}, data={"n": 32},
                            network={"sharpness": 10.0})
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "twophase.cli", "train", "--config", path,
             "--out", str(tmp_path / "x")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 3
        assert "numeric failure" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr


class TestSweep:
    def test_grid_cells_with_stats(self, tmp_path):
        sections = small_train_sections()
        sections["sweep"] = {"tau_fractions": [0.4, 0.6],
                             "noise_scales": [0.001, 0.01], "seeds": [0, 1]}
        sections["two_phase"]["total_steps"] = 20
        path = write_config(tmp_path, **sections)
        out = tmp_path / "s"
        assert cli.main(["sweep", "--config", path, "--out", str(out)]) == 0
        table = json.loads((out / "sweep.json").read_text())
        assert len(table["cells"]) == 4
        for cell in table["cells"]:
            assert len(cell["losses"]) == 2
            assert cell["mean"] is not None and cell["std"] is not None
            assert not cell["failures"]
        assert (out / "sweep.txt").read_text().count("\n") == 5

    def test_identical_cells_for_identical_configs(self, tmp_path):
        sections = small_train_sections()
        sections["sweep"] = {"tau_fractions": [0.5, 0.5],
                             "noise_scales": [0.001], "seeds": [0, 1]}
        sections["two_phase"]["total_steps"] = 20
        path = write_config(tmp_path, **sections)
        out = tmp_path / "s"
        assert cli.main(["sweep", "--config", path, "--out", str(out)]) == 0
        cells = json.loads((out / "sweep.json").read_text())["cells"]
        assert cells[0]["losses"] == cells[1]["losses"]

    def test_single_cell_matches_train_runs(self, tmp_path):
        sections = small_train_sections()
        sections["sweep"] = {"tau_fractions": [0.5], "noise_scales": [0.001],
                             "seeds": [0, 1]}
        sections["two_phase"]["total_steps"] = 20
        path = write_config(tmp_path, **sections)
        out = tmp_path / "s"
        assert cli.main(["sweep", "--config", path, "--out", str(out)]) == 0
        cell = json.loads((out / "sweep.json").read_text())["cells"][0]
        finals = []
        for seed in (0, 1):
            tsec = small_train_sections(seed=seed)
            tsec["two_phase"]["total_steps"] = 20
            tsec["two_phase"]["tau_fraction"] = 0.5
            tpath = write_config(tmp_path, f"t{seed}.json", **tsec)
            tout = tmp_path / f"t{seed}"
            assert cli.main(["train", "--config", tpath, "--out", str(tout)]) == 0
            finals.append(json.loads((tout / "summary.json").read_text())["final_loss"])
        assert cell["losses"] == finals

    def test_per_cell_failures_recorded_and_sweep_continues(self, tmp_path):
        sections = small_train_sections()
        # second noise scale is invalid, so that cell fails while others run
        sections["sweep"] = {"tau_fractions": [0.5], "noise_scales": [0.001, -1.0],
                             "seeds": [0]}
        sections["two_phase"]["total_steps"] = 10
        path = write_config(tmp_path, **sections)
        out = tmp_path / "s"
        assert cli.main(["sweep", "--config", path, "--out", str(out)]) == 0
        cells = json.loads((out / "sweep.json").read_text())["cells"]
        assert not cells[0]["failures"] and cells[1]["failures"]
        assert cells[1]["mean"] is None

    def test_programming_errors_are_not_cell_failures(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("broken call")
        monkeypatch.setattr(cli, "_train_once", broken)
        sections = small_train_sections()
        sections["sweep"] = {"tau_fractions": [0.5], "noise_scales": [0.001], "seeds": [0]}
        path = write_config(tmp_path, **sections)
        with pytest.raises(TypeError, match="broken call"):
            cli.main(["sweep", "--config", path, "--out", str(tmp_path / "s")])
