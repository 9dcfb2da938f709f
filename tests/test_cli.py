"""End-to-end command-line behavior: exit codes, files, determinism."""

import dataclasses
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from conftest import jacobian, masked_flat, outputs

import twophase.bounds as bounds
import twophase.cli as cli
import twophase.expressivity as expressivity
import twophase.losses as losses
import twophase.trainer as trainer
from twophase.data import load_csv, save_csv, synth_gen
from twophase.network import NetworkSpec
from twophase.trainer import BaseAlgoConfig, FeatureRankError, TwoPhaseConfig

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
NAN, INF = float("nan"), float("inf")


def write_config(tmp_path, name="cfg.json", **sections):
    path = tmp_path / name
    path.write_text(json.dumps(sections))
    return str(path)


def no_records(out):
    """No training record under `out`: run.log.jsonl is empty, or was never
    opened because the config was rejected when it loaded."""
    log = out / "run.log.jsonl"
    return not log.exists() or log.read_text() == ""


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

    @pytest.mark.parametrize("section, cls, keys, cli_only", [
        ("base", BaseAlgoConfig,
         {"variant", "learning_rate", "momentum", "minibatch", "weight_decay"}, set()),
        ("two_phase", TwoPhaseConfig,
         {"noise_scale", "phase2_mode", "sgd_rate_scale", "sgd_minibatch", "lazy_eta_bar",
          "lazy_lipschitz"}, {"tau_fraction", "tau", "total_steps"}),
        ("network", NetworkSpec, {"sharpness", "bn_epsilon"},
         {"hidden_widths", "depth", "feature_width_factor", "bn"}),
    ], ids=["base", "two_phase", "network"])
    def test_protocol_defaults_agree_with_the_library(self, section, cls, keys, cli_only):
        # a section is the dataclass's defaulted fields at their defaults
        # (less seed, a top-level key, and bn_flags, built from network.bn)
        # plus the keys only the CLI reads; `keys` names the fields, so a
        # new dataclass default becomes a config key only on purpose
        library = {f.name: f.default for f in dataclasses.fields(cls)
                   if f.default is not dataclasses.MISSING
                   and f.name not in ("seed", "bn_flags")}
        defaults = cli.DEFAULT_CONFIG[section]
        assert library.keys() == keys
        assert defaults.keys() == keys | cli_only
        assert {key: defaults[key] for key in keys} == library

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


    @pytest.mark.parametrize("command,sections,key", [
        ("train", {"network": 5}, "'network'"),
        ("train", {"seed": "abc"}, "'seed'"),
        ("train", {"data": {"n": "x"}}, "'data.n'"),
        ("train", {"base": {"learning_rate": "0.1"}}, "'base.learning_rate'"),
        ("train", {"monitor_every": "x"}, "'monitor_every'"),
        ("verify", {"verify": {"trials": "5"}}, "'verify.trials'"),
        ("sweep", {"sweep": {"seeds": 3}}, "'sweep.seeds'"),
        ("train", {"two_phase": {"phase2_mode": "lazy_full", "lazy_lipschitz": "x"}},
         "'two_phase.lazy_lipschitz'"),
        ("train", {"bounds": "false"}, "'bounds'"),
        ("train", {"two_phase": {"total_steps": 10.5}}, "'two_phase.total_steps'"),
        ("sweep", {"sweep": {"seeds": [0, "1"]}}, "'sweep.seeds[1]'"),
        ("train", {"network": {"bn": [True, 1]}}, "'network.bn[1]'"),
        # JSON's NaN and Infinity load as floats, which a number key rejects
        ("train", {"base": {"learning_rate": NAN}}, "'base.learning_rate'"),
        ("train", {"base": {"learning_rate": INF}}, "'base.learning_rate'"),
        ("train", {"base": {"weight_decay": NAN}}, "'base.weight_decay'"),
        ("train", {"network": {"sharpness": NAN}}, "'network.sharpness'"),
        ("train", {"network": {"bn": True, "bn_epsilon": NAN}}, "'network.bn_epsilon'"),
        ("train", {"network": {"feature_width_factor": INF}}, "'network.feature_width_factor'"),
        ("train", {"two_phase": {"noise_scale": NAN}}, "'two_phase.noise_scale'"),
        ("train", {"two_phase": {"noise_scale": [1e-3, -INF]}}, "'two_phase.noise_scale[1]'"),
        ("train", {"two_phase": {"phase2_mode": "last_layer_sgd", "sgd_rate_scale": NAN}},
         "'two_phase.sgd_rate_scale'"),
        ("train", {"base": {"learning_rate": 10**400}}, "'base.learning_rate'"),
        ("sweep", {"sweep": {"noise_scales": [NAN]}}, "'sweep.noise_scales[0]'"),
    ])
    def test_value_of_the_wrong_type_is_a_config_error(self, tmp_path, capsys, command,
                                                       sections, key):
        path = write_config(tmp_path, **small_train_sections(**sections))
        assert cli.main([command, "--config", path, "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        assert "config error:" in captured.err and key in captured.err
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("command,sections,flags,key", [
        ("verify", {"verify": {"witness": "none"}}, [], "'verify.witness'"),
        ("train", {"monitor_every": -1}, [], "monitor_every"),
        ("train", {}, ["--monitor-every", "-3"], "monitor_every"),
        ("train", {"network": {"hidden_widths": []}}, [], "'network.hidden_widths'"),
        ("train", {"network": {"bn": [True]}}, [], "network.bn lists 1 flags for 2"),
        ("train", {"network": {"depth": 0}}, [], "network.depth"),
        ("train", {"data": {"source": "csv"}}, [], "data.path"),
        ("train", {"data": {"source": "sql"}}, [], "data.source 'sql'"),
    ], ids=["witness", "monitor_every", "monitor_every_flag", "hidden_widths", "bn_flags",
            "depth", "csv_path", "source"])
    def test_value_out_of_range_is_a_config_error(self, tmp_path, capsys, command, sections,
                                                  flags, key):
        # the first four each used to run: the witness on, monitoring off,
        # or widths from the depth and feature_width_factor
        path = write_config(tmp_path, **small_train_sections(**sections))
        out = tmp_path / "o"
        assert cli.main([command, "--config", path, "--out", str(out), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert not (out / "verify.json").exists()
        assert no_records(out)

    def test_integral_number_loads_as_an_integer(self, tmp_path):
        path = write_config(tmp_path, two_phase={"total_steps": 40.0, "tau": None},
                            network={"hidden_widths": [4, 13.0], "bn": [False, True]})
        cfg = cli.load_config(path)
        assert cfg["two_phase"]["total_steps"] == 40
        assert isinstance(cfg["two_phase"]["total_steps"], int)
        assert cfg["network"]["hidden_widths"] == [4, 13]

    def test_every_bench_workload_config_loads(self, tmp_path):
        root = pathlib.Path(__file__).resolve().parents[1]
        specs = json.loads((root / "bench" / "workloads.json").read_text())["workloads"]
        for name, spec in specs.items():
            for sections in (spec["config"], spec["tiny"]):
                cli.load_config(write_config(tmp_path, f"{name}.json", **sections))


class TestGenData:
    def test_writes_loadable_csv(self, tmp_path):
        path = write_config(tmp_path, data={"n": 10, "m_x": 3, "m_y": 2,
                                            "kind": "class_index", "c_min": 0.05})
        out = tmp_path / "out"
        assert cli.main(["gen-data", "--config", path, "--out", str(out)]) == 0
        ds = load_csv(out / "dataset.csv", m_x=3, kind="class_index")
        assert ds.n == 10 and ds.y.shape[1] == 2

    @pytest.mark.parametrize("command", ["gen-data", "verify", "train"])
    def test_refused_dataset_leaves_no_out_dir(self, tmp_path, capsys, command):
        # a margin the circle cannot hold at n points is refused before
        # any draw, and before --out is made
        path = write_config(tmp_path, data={"n": 128, "m_x": 2, "c_min": 0.5})
        out = tmp_path / "packed"
        assert cli.main([command, "--config", path, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()


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

    def test_report_says_which_ranks_were_proved(self, tmp_path, monkeypatch):
        # each trial's full rank is proved by a factorization or counted from
        # an SVD, and the witness's likewise; a trial whose factorization is
        # made to fail is counted
        cholesky, calls = np.linalg.cholesky, []

        def failing_third(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise np.linalg.LinAlgError("forced")
            return cholesky(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", failing_third)
        path = write_config(
            tmp_path,
            data={"n": 8, "m_x": 4, "m_y": 2, "kind": "regression", "c_min": 0.05},
            network={"hidden_widths": [4, 9], "sharpness": 1.0},
            verify={"trials": 10},
        )
        out = tmp_path / "v"
        assert cli.main(["verify", "--config", path, "--out", str(out)]) == 0
        report = json.loads((out / "verify.json").read_text())
        expressivity = report["expressivity"]
        assert (expressivity["fraction"], expressivity["proved"], expressivity["counted"]) == (
            1.0, 9, 1)
        assert report["witness"]["proved"] is True and report["witness"]["rank"] == 8

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
        assert report["expressivity"]["proved"] is None and report["expressivity"]["counted"] is None

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

    def test_witness_precondition_note_is_the_construction_error(self, tmp_path, monkeypatch):
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
        # a construction that never reaches dominance is attempted and fails
        monkeypatch.setattr(expressivity, "dominance_margins", lambda h, n: -np.ones(n))
        path = write_config(tmp_path, data={"n": 16}, network={"hidden_widths": [8, 18]},
                            base={"minibatch": 8}, two_phase={"total_steps": 40})
        assert cli.main(["verify", "--config", path, "--out", str(out)]) == 2
        witness = json.loads((out / "verify.json").read_text())["witness"]
        assert witness.pop("note").startswith("no numerically certified diagonal dominance")
        assert witness == {"attempted": True, "passed": False, "rank": None, "proved": None}

    def test_witness_off_skips_the_construction(self, tmp_path, monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("the witness was constructed")
        monkeypatch.setattr(expressivity, "construct_witness", unexpected)
        path = write_config(
            tmp_path,
            data={"n": 8, "m_x": 4, "m_y": 2, "kind": "regression", "c_min": 0.05},
            network={"hidden_widths": [4, 9], "sharpness": 1.0},
            verify={"trials": 4, "witness": "off"},
        )
        out = tmp_path / "v"
        assert cli.main(["verify", "--config", path, "--out", str(out)]) == 0
        report = json.loads((out / "verify.json").read_text())
        assert report["passed"]
        assert report["witness"] == {"attempted": False, "passed": None, "rank": None,
                                     "proved": None, "note": "witness construction is off"}

    def test_witness_programming_errors_propagate(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("broken call")
        monkeypatch.setattr(expressivity, "construct_witness", broken)
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

    def test_summary_reports_seconds_per_phase(self, tmp_path):
        path = write_config(tmp_path, **small_train_sections())
        out = tmp_path / "t"
        assert cli.main(["train", "--config", path, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        seconds = summary["phase_seconds"]
        assert sorted(seconds) == ["1", "2"] and min(seconds.values()) >= 0.0
        assert seconds["1"] + seconds["2"] <= summary["elapsed_seconds"] + 0.002
        assert "phase_seconds" in (out / "summary.txt").read_text()

    @pytest.mark.parametrize("tau", [0, 20, 40])
    def test_summary_numbers_agree_with_the_records(self, tmp_path, monkeypatch, tau):
        # train keeps no record it has written: best and final loss are those
        # of run.log.jsonl, and the seconds per phase split at record tau's
        # wall time (0.0 at tau 0) and end at the last record's
        walls, run = [], trainer.run_two_phase

        def timed(*args, record_sink, **kwargs):
            def sink(rec):
                walls.append(rec.wall_time)
                record_sink(rec)
            return run(*args, record_sink=sink, **kwargs)

        monkeypatch.setattr(trainer, "run_two_phase", timed)
        path = write_config(tmp_path, **small_train_sections(two_phase={"tau": tau}))
        out = tmp_path / "t"
        assert cli.main(["train", "--config", path, "--out", str(out)]) == 0
        losses = [json.loads(line)["loss"]
                  for line in (out / "run.log.jsonl").read_text().splitlines()]
        summary = json.loads((out / "summary.json").read_text())
        assert len(walls) == len(losses) == 40 and summary["tau"] == tau
        assert summary["best_loss"] == min(losses)
        assert summary["final_loss"] == losses[-1]
        split = walls[tau - 1] if tau else 0.0
        assert summary["phase_seconds"] == {"1": round(split, 3),
                                            "2": round(walls[-1] - split, 3)}

    def test_no_config_runs_the_reference_protocol(self, tmp_path):
        out = tmp_path / "t"
        assert cli.main(["train", "--out", str(out)]) == 0
        assert len((out / "run.log.jsonl").read_text().splitlines()) == 500
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["tau"], summary["phase2_mode"]) == (300, "last_layer_gd")

    def test_json_line_matches_json_dumps(self):
        obj = {"t": 3, "loss": 0.1 + 0.2, "rank_event": None, "b": [1, -0.0, "x\u00e9"],
               "a": {"z": 1e-300, "c": True}}
        assert cli._json_line(obj) == json.dumps(obj, sort_keys=True, separators=(",", ":"))

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

    def test_head_ceiling_violations_are_counted_and_reported(self, tmp_path, capsys,
                                                               monkeypatch):
        # a ceiling of 0 is exceeded by every step still above the optimum
        monkeypatch.setattr(bounds, "gd_bound", lambda r_squared, l_h, t, tau: 0.0)
        logs = []
        train_once = cli._train_once

        def keeping(*args, **kwargs):
            result = train_once(*args, **kwargs)
            logs.append(result[1])
            return result

        monkeypatch.setattr(cli, "_train_once", keeping)
        path = write_config(tmp_path, **small_train_sections(bounds=True))
        out = tmp_path / "t"
        assert cli.main(["train", "--config", path, "--out", str(out)]) == 0
        records = [json.loads(line) for line in (out / "run.log.jsonl").read_text().splitlines()]
        k = sum(r["suboptimality"] > bounds.SLACK_REL for r in records if r["phase"] == 2)
        assert k > 0 and logs[0].violations == k
        assert json.loads((out / "summary.json").read_text())["violations"] == k
        assert f"bound violations = {k}" in capsys.readouterr().out

    @pytest.mark.parametrize("mode,certificate", [("last_layer_gd", "exact"),
                                                  ("last_layer_sgd", "expectation"),
                                                  ("lazy_full", "estimated")])
    def test_squared_loss_certificate(self, tmp_path, capsys, mode, certificate):
        path = write_config(tmp_path, **small_train_sections(
            bounds=True, two_phase={"phase2_mode": mode}))
        out = tmp_path / "t"
        assert cli.main(["train", "--config", path, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["constants"]["certificate"] == certificate
        assert summary["violations"] == (0 if certificate == "exact" else None)
        # only an exact ceiling reports a violation count
        assert ("bound violations = 0" in capsys.readouterr().out) == (certificate == "exact")

    @pytest.mark.parametrize("mode", ["last_layer_gd", "last_layer_sgd"])
    def test_one_hot_cross_entropy_bound_is_vacuous(self, tmp_path, capsys, mode):
        # [h, 1] has full row rank, so the cross-entropy infimum is never attained
        path = write_config(tmp_path, **small_train_sections(
            loss="cross_entropy", bounds=True, data={"kind": "one_hot"},
            two_phase={"phase2_mode": mode}))
        out = tmp_path / "t"
        assert cli.main(["train", "--config", path, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["constants"]["certificate"] == "vacuous"
        assert summary["constants"]["r_squared"] is None
        assert summary["violations"] is None
        records = [json.loads(line) for line in (out / "run.log.jsonl").read_text().splitlines()]
        phase2 = [r for r in records if r["phase"] == 2]
        assert phase2 and all(r["bound"] is None and r["suboptimality"] is None
                              for r in phase2)
        for name in ("run.log.jsonl", "summary.json"):
            text = (out / name).read_text()
            assert "Infinity" not in text and "NaN" not in text
        stdout = capsys.readouterr().out
        assert "bound violations" not in stdout
        assert "bound vacuous (optimum not attained)" in stdout

    @pytest.mark.parametrize("mode,certificate", [("last_layer_gd", "exact"),
                                                  ("last_layer_sgd", "expectation"),
                                                  ("lazy_full", "estimated")])
    def test_soft_target_cross_entropy_certificate(self, tmp_path, mode, certificate):
        # label-smoothed targets: the cross-entropy infimum is attained, in
        # the head problem and in the linearized full-parameter problem
        ds = synth_gen(12, 4, 3, 0.03, "one_hot", seed=0)
        ds.y = 0.8 * ds.y + 0.2 / 3
        save_csv(ds, tmp_path / "soft.csv")
        path = write_config(tmp_path, **small_train_sections(
            loss="cross_entropy", bounds=True, monitor_every=5,
            data={"source": "csv", "path": str(tmp_path / "soft.csv"), "m_y": 3,
                  "kind": "one_hot"},
            two_phase={"phase2_mode": mode}))
        out = tmp_path / "t"
        assert cli.main(["train", "--config", path, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        constants = summary["constants"]
        assert constants["certificate"] == certificate
        entropy = float(-(ds.y * np.log(ds.y)).sum() / ds.n)
        assert constants["loss_star"] == pytest.approx(entropy, rel=1e-12)
        if certificate == "exact":
            assert summary["violations"] == 0
            assert 0.0 < constants["r_squared"] < np.inf
        elif certificate == "expectation":
            assert summary["violations"] is None
            assert 0.0 < constants["r_squared"] < np.inf
        else:
            assert summary["violations"] is None
            assert 0.0 < constants["r_bar"] < np.inf
            assert constants["r_bar_kind"] == "exact"  # cross-entropy solves
        records = [json.loads(line) for line in (out / "run.log.jsonl").read_text().splitlines()]
        phase2 = [r for r in records if r["phase"] == 2]
        assert len(phase2) == 20 and all(r["bound"] is not None for r in phase2)

    def test_lazy_one_hot_cross_entropy_bound_is_vacuous(self, tmp_path, capsys):
        path = write_config(tmp_path, **small_train_sections(
            loss="cross_entropy", bounds=True, monitor_every=5, data={"kind": "one_hot"},
            two_phase={"phase2_mode": "lazy_full"}))
        out = tmp_path / "t"
        assert cli.main(["train", "--config", path, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["constants"]["certificate"] == "vacuous"
        assert summary["constants"]["r_bar"] is None
        assert summary["constants"]["loss_star"] == 0.0
        assert summary["violations"] is None
        records = [json.loads(line) for line in (out / "run.log.jsonl").read_text().splitlines()]
        phase2 = [r for r in records if r["phase"] == 2]
        assert phase2 and all(r["bound"] is None and r["suboptimality"] is None
                              for r in phase2)
        for name in ("run.log.jsonl", "summary.json"):
            text = (out / name).read_text()
            assert "Infinity" not in text and "NaN" not in text
        assert "bound vacuous (optimum not attained)" in capsys.readouterr().out

    @staticmethod
    def _linearized_distance(jac, params, y, kind):
        """||pinv(J) r|| for the residual r of the linearized constraints at
        nu o w; cross-entropy frees one constant per sample."""
        anchor = masked_flat(params).reshape(-1, 1)
        pinv = np.linalg.pinv(jac)
        if kind == "squared":
            return float(np.linalg.norm(pinv @ (y.reshape(-1, 1) - jac @ anchor)))
        n, m_y = y.shape
        gap = np.log(y).reshape(-1, 1) - jac @ anchor
        shifts = np.kron(np.eye(n), np.ones((m_y, 1)))
        c, *_ = np.linalg.lstsq(pinv @ shifts, -pinv @ gap, rcond=None)
        return float(np.linalg.norm(pinv @ (gap + shifts @ c)))

    @pytest.mark.parametrize("loss", ["squared", "cross_entropy"])
    def test_lazy_r_bar_is_the_max_over_every_step(self, tmp_path, loss):
        # the per-step distance peaks at an odd step after tau (squared:
        # tau + 9, soft cross-entropy: tau + 1), which monitoring every 2
        # steps does not sample
        if loss == "squared":
            overrides = {"seed": 5}
        else:
            ds = synth_gen(12, 4, 3, 0.03, "one_hot", seed=0)
            ds.y = 0.8 * ds.y + 0.2 / 3
            save_csv(ds, tmp_path / "soft.csv")
            overrides = {"loss": "cross_entropy",
                         "data": {"source": "csv", "path": str(tmp_path / "soft.csv"),
                                  "m_y": 3, "kind": "one_hot"}}
        r_bars = []
        for every in (0, 2):
            path = write_config(tmp_path, f"cfg{every}.json", **small_train_sections(
                bounds=True, monitor_every=every, **overrides,
                two_phase={"tau": 20, "phase2_mode": "lazy_full", "lazy_eta_bar": 0.3}))
            out = tmp_path / f"every{every}"
            assert cli.main(["train", "--config", path, "--out", str(out)]) == 0
            r_bars.append(json.loads((out / "summary.json").read_text())["constants"]["r_bar"])
        assert r_bars[0] == r_bars[1]

        # oracle: each step's params from a run cut at that step, J recomputed
        cfg = cli.load_config(path)
        ds = cli._build_dataset(cfg)
        spec = cli._build_spec(cfg, ds)
        distances, shifted = [], []
        rows, eps = ds.y.size, np.finfo(np.float64).eps
        for t in range(20, 41):
            cut = json.loads(json.dumps(cfg))
            cut["two_phase"]["total_steps"] = t
            params, _ = cli._train_once(cut, ds, spec)
            jac = jacobian(params, ds.x)
            distances.append(self._linearized_distance(jac, params, ds.y, loss))
            # squared loss: the distance the bordered rank certificate gives,
            # sqrt(r^T (K - 4 m I)^-1 r), m the certificate's level (at tau
            # without the reference tolerance, which its spectrum sets)
            k = jac @ jac.T
            if t == 20:
                tolerance = rows * eps * np.linalg.eigvalsh(k)[-1]
            level = max(tolerance if t > 20 else 0.0, rows * eps * np.trace(k))
            r = (outputs(params, ds.x) - ds.y).reshape(-1)
            shifted.append(float(np.sqrt(r @ np.linalg.solve(k - 4.0 * level * np.eye(rows), r))))
        assert int(np.argmax(distances)) % 2 == 1
        if loss == "squared":
            assert r_bars[0] == pytest.approx(max(shifted), rel=1e-9)
            assert r_bars[0] >= max(distances)
        else:
            assert r_bars[0] == pytest.approx(max(distances), rel=1e-9)

    @pytest.mark.parametrize("bounds", [True, False])
    def test_lazy_kernel_below_full_rank_leaves_r_bar_undefined(
            self, tmp_path, monkeypatch, capsys, bounds):
        # the kernel at tau reports rank 23 of 24: Rbar is undefined, which
        # fails a bounds-on run and leaves a bounds-off run alone.  With no
        # phase-1 monitoring the tau verdict is the first, and the only one
        # made without a reference
        real = trainer.compute_ntk
        references = []

        def short_at_tau(kernel, reference=None, rhs=None, work=None):
            snap = real(kernel, reference, rhs, work)
            if not references:
                snap.rank -= 1
            references.append(reference)
            return snap

        monkeypatch.setattr(trainer, "compute_ntk", short_at_tau)
        path = write_config(tmp_path, **small_train_sections(
            bounds=bounds, monitor_every=0,
            two_phase={"phase2_mode": "lazy_full", "lazy_eta_bar": 0.3}))
        code = cli.main(["train", "--config", path, "--out", str(tmp_path / "x")])
        # after tau each verdict is made against the reference, at its
        # tolerance
        assert references[0] is None and all(ref.tolerance > 0.0 for ref in references[1:])
        if bounds:
            assert code == 3
            assert "step 20 (phase 2): kernel has numerical rank 23 < 24 rows" in (
                capsys.readouterr().err)
        else:
            assert code == 0

    def test_lazy_ceiling_rests_on_the_rate_taken(self, tmp_path):
        # the CI lazy config at seed 7 halves eta_bar on rank events; the
        # last ceiling is the lazy bound at the halved rate the last step
        # was taken at, not at the configured 0.3
        path = write_config(
            tmp_path, loss="squared", bounds=True,
            data={"n": 12, "m_x": 4, "m_y": 2, "kind": "regression"},
            network={"sharpness": 10.0}, base={"variant": "gd", "minibatch": 12},
            two_phase={"tau": 20, "total_steps": 40, "phase2_mode": "lazy_full",
                       "lazy_eta_bar": 0.3})
        out = tmp_path / "lazy7"
        assert cli.main(["train", "--config", path, "--seed", "7", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        last = json.loads((out / "run.log.jsonl").read_text().splitlines()[-1])
        halvings = len(summary["rank_events"])
        eta_bar = 0.3 / 2.0 ** halvings
        assert halvings and summary["rank_events"][-1][1].endswith(f"{eta_bar:.3e}")
        constants = summary["constants"]
        assert last["bound"] == bounds.lazy_bound(
            constants["l_estimate"], constants["r_bar"], summary["loss_at_tau"],
            constants["loss_star"], eta_bar, 40, 20)

    @pytest.mark.parametrize("mode", ["last_layer_gd", "last_layer_sgd", "lazy_full"])
    def test_killed_run_leaves_bounds_on_every_record(self, tmp_path, monkeypatch, mode):
        # a numeric failure at tau + 5: each record written before it already
        # carries its ceiling, because nothing fills them in after training
        real = trainer._finite

        def fail_at_25(value, what, t, phase):
            if t == 25:
                raise FloatingPointError(f"{what} forced at step {t} (phase {phase})")
            return real(value, what, t, phase)

        monkeypatch.setattr(trainer, "_finite", fail_at_25)
        path = write_config(tmp_path, **small_train_sections(
            bounds=True, two_phase={"tau": 20, "phase2_mode": mode}))
        out = tmp_path / "t"
        assert cli.main(["train", "--config", path, "--out", str(out)]) == 3
        records = [json.loads(line) for line in (out / "run.log.jsonl").read_text().splitlines()]
        assert [r["t"] for r in records] == list(range(1, 25))
        assert all(r["bound"] is not None and r["suboptimality"] is not None
                   for r in records[20:])
        assert not (out / "summary.json").exists()

    def test_lazy_bounds_check_the_targets_once_per_run(self, tmp_path, monkeypatch):
        # Y is checked on entry, by estimate_lipschitz and for loss*, but not
        # at each lazy step
        calls = []
        real = losses.check_targets

        def counting(*args):
            calls.append(1)
            return real(*args)

        for module in (losses, trainer, bounds):
            monkeypatch.setattr(module, "check_targets", counting)
        counts = []
        for total in (40, 60):
            path = write_config(tmp_path, f"cfg{total}.json", **small_train_sections(
                bounds=True, two_phase={"tau": 20, "total_steps": total,
                                        "phase2_mode": "lazy_full"}))
            calls.clear()
            assert cli.main(["train", "--config", path, "--out", str(tmp_path / "x")]) == 0
            counts.append(len(calls))
        assert counts == [3, 3]

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

    @pytest.mark.parametrize("overrides, named", [
        ({"base": {"variant": "sgd_momentum", "minibatch": 64}},
         "minibatch 64 exceeds dataset size 12"),
        ({"network": {"hidden_widths": [16]}}, "at least two hidden layers"),
    ], ids=["minibatch", "depth"])
    def test_minibatch_precondition_named(self, tmp_path, capsys, overrides, named):
        # run_two_phase checks both on entry; the CLI reports them as config errors
        path = write_config(tmp_path, **small_train_sections(**overrides))
        assert cli.main(["train", "--config", path, "--out", str(tmp_path / "x")]) == 1
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("two_phase, named", [
        ({"phase2_mode": "last_layer_sgd", "sgd_minibatch": 0}, "sgd_minibatch"),
        ({"phase2_mode": "lazy_full", "lazy_lipschitz": 0.0}, "lazy_lipschitz"),
        ({"phase2_mode": "lazy_full", "lazy_lipschitz": -1.0}, "lazy_lipschitz"),
        ({"phase2_mode": "lazy_full", "lazy_lipschitz": float("inf")}, "lazy_lipschitz"),
        ({"noise_scale": [0.001, 0.001, 0.001]}, "expected 2 noise scales, got 3"),
    ], ids=["sgd_minibatch_zero", "lipschitz_zero", "lipschitz_negative", "lipschitz_inf",
            "noise_scale_length"])
    def test_phase_two_value_out_of_range_is_a_config_error(self, tmp_path, capsys,
                                                            two_phase, named):
        # rejected before the first record, not after phase 1 by a division
        # by zero, an ascent or a step of zero
        path = write_config(tmp_path, **small_train_sections(two_phase=two_phase))
        out = tmp_path / "x"
        assert cli.main(["train", "--config", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err
        assert no_records(out)

    def test_expressivity_precondition_named(self, tmp_path, capsys):
        sections = small_train_sections(network={"hidden_widths": [4, 5]})
        path = write_config(tmp_path, **sections)
        code = cli.main(["train", "--config", path, "--out", str(tmp_path / "x")])
        assert code == 1
        assert "expressivity" in capsys.readouterr().err

    def test_numeric_failure_maps_to_exit_three(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise FeatureRankError("forced rank loss")
        monkeypatch.setattr(trainer, "run_two_phase", boom)
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

    @pytest.mark.parametrize("overrides, named", [
        ({"two_phase": {"total_steps": -1}},
         "every sweep run failed: need 0 <= tau <= total_steps, got -1, -1"),
        ({"sweep": {"seeds": []}}, "'sweep.seeds'"),
        ({"sweep": {"tau_fractions": []}}, "'sweep.tau_fractions'"),
        ({"sweep": {"noise_scales": []}}, "'sweep.noise_scales'"),
    ], ids=["every_run", "no_seeds", "no_tau_fractions", "no_noise_scales"])
    def test_config_error_of_the_whole_grid_exits_one(self, tmp_path, capsys, overrides,
                                                      named):
        path = write_config(tmp_path, **small_train_sections(**overrides))
        assert cli.main(["sweep", "--config", path, "--out", str(tmp_path / "s")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err

    def test_runs_keep_no_records(self, tmp_path, monkeypatch):
        # a cell reads each run's final loss alone; the table is the one a
        # sweep whose runs keep their records writes
        sections = small_train_sections()
        sections["sweep"] = {"tau_fractions": [0.5], "noise_scales": [0.001],
                             "seeds": [0, 1]}
        sections["two_phase"]["total_steps"] = 20
        path = write_config(tmp_path, **sections)
        logs, real_run, real_once = [], trainer.run_two_phase, cli._train_once

        def keeping(*args, **kwargs):
            params, log = real_run(*args, **kwargs)
            logs.append(log)
            return params, log

        monkeypatch.setattr(trainer, "run_two_phase", keeping)
        assert cli.main(["sweep", "--config", path, "--out", str(tmp_path / "s")]) == 0
        assert len(logs) == 2 and all(log.records == [] for log in logs)
        monkeypatch.setattr(cli, "_train_once", lambda cfg, dataset, spec, record_sink=None:
                            real_once(cfg, dataset, spec))
        assert cli.main(["sweep", "--config", path, "--out", str(tmp_path / "k")]) == 0
        assert len(logs) == 4 and all(len(log.records) == 20 for log in logs[2:])
        assert ((tmp_path / "s" / "sweep.json").read_bytes()
                == (tmp_path / "k" / "sweep.json").read_bytes())

    def test_programming_errors_are_not_cell_failures(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("broken call")
        monkeypatch.setattr(cli, "_train_once", broken)
        sections = small_train_sections()
        sections["sweep"] = {"tau_fractions": [0.5], "noise_scales": [0.001], "seeds": [0]}
        path = write_config(tmp_path, **sections)
        with pytest.raises(TypeError, match="broken call"):
            cli.main(["sweep", "--config", path, "--out", str(tmp_path / "s")])


class TestUnusablePaths:
    @pytest.mark.parametrize("command", ["verify", "train", "sweep", "gen-data"])
    @pytest.mark.parametrize("case", ["config_is_a_directory", "config_is_not_json",
                                      "config_is_an_array", "out_is_a_file",
                                      "out_under_a_file"])
    def test_exit_one_before_any_work(self, tmp_path, capsys, monkeypatch, command, case):
        # a config that cannot be read or loaded, or an output directory that
        # cannot be made, is the config's error, found before training or
        # verifying
        ran = []
        for module, name in ((trainer, "run_two_phase"),
                             (expressivity, "check_distinguishability"),
                             (expressivity, "expressivity_trials"), (cli, "save_csv")):
            def spy(*args, _name=name, _real=getattr(module, name), **kwargs):
                ran.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)
        sections = small_train_sections()
        sections["two_phase"]["total_steps"] = 10
        sections["sweep"] = {"tau_fractions": [0.5], "noise_scales": [0.001], "seeds": [0]}
        sections["verify"] = {"trials": 2}
        config = write_config(tmp_path, **sections)
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        why = ""
        if case == "config_is_a_directory":
            config, out, named = str(tmp_path), str(tmp_path / "out"), str(tmp_path)
        elif case.startswith("config_is"):
            bad = tmp_path / "bad.json"
            bad.write_text("{'seed': 0}\n" if case == "config_is_not_json" else "[1, 2]\n")
            config, out, named = str(bad), str(tmp_path / "out"), str(bad)
            why = "not valid JSON" if case == "config_is_not_json" else "must be a JSON object"
        else:
            out = str(taken if case == "out_is_a_file" else taken / "sub")
            named = out
        assert cli.main([command, "--config", config, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err and why in err
        assert ran == []
        assert taken.read_text() == "not a directory\n"


class TestConsoleMain:
    def test_exits_with_the_code_main_returns(self, tmp_path, monkeypatch):
        # console_main is the installed `twophase` script's entry point: it
        # freezes the heap once main has returned, and SystemExit then
        # carries the code; a recorder stands in for gc.freeze, so this
        # process's heap is never frozen
        events, real_main = [], cli.main

        def main():
            code = real_main()
            events.append(("returned", code))
            return code

        monkeypatch.setattr(cli, "main", main)
        monkeypatch.setattr(cli.gc, "freeze", lambda: events.append(("freeze",)))
        good = write_config(tmp_path, "good.json", data={"n": 8})
        bad = write_config(tmp_path, "bad.json", nonsense=1)
        for path, code in ((good, 0), (bad, 1)):
            monkeypatch.setattr(sys, "argv", ["twophase", "gen-data", "--config", path,
                                              "--out", str(tmp_path / "g")])
            events.clear()
            with pytest.raises(SystemExit) as exited:
                cli.console_main()
            assert events == [("returned", code), ("freeze",)]
            assert exited.value.code == code
        assert (tmp_path / "g" / "dataset.csv").exists()
