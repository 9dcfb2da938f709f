"""Synthetic generation, normalization, and CSV round trips."""

import numpy as np
import pytest

import twophase.data as data
from twophase.data import Dataset, load_csv, one_hot, save_csv, synth_gen
from twophase.expressivity import check_distinguishability


class TestSynthGen:
    def test_margin_by_construction(self):
        ds = synth_gen(64, 8, 2, 0.05, "regression", seed=3)
        rep = check_distinguishability(ds.x)
        assert rep.passed and rep.margin >= 0.05 - 1e-12

    def test_margin_matches_pair_loop_oracle(self):
        ds = synth_gen(20, 5, 1, 0.03, "regression", seed=4)
        worst = np.inf
        for i in range(20):
            for j in range(20):
                if i != j:
                    worst = min(worst, ds.x[i] @ ds.x[i] - ds.x[i] @ ds.x[j])
        assert check_distinguishability(ds.x).margin == pytest.approx(worst, rel=1e-12)

    def test_deterministic(self):
        a = synth_gen(16, 4, 3, 0.02, "one_hot", seed=9)
        b = synth_gen(16, 4, 3, 0.02, "one_hot", seed=9)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_unit_norm_rows(self):
        ds = synth_gen(10, 6, 1, 0.02, "regression", seed=1)
        np.testing.assert_allclose(np.linalg.norm(ds.x, axis=1), 1.0, atol=1e-12)

    def test_class_index_keeps_labels(self):
        ds = synth_gen(12, 4, 3, 0.02, "class_index", seed=2)
        assert ds.labels is not None
        np.testing.assert_array_equal(ds.y, one_hot(ds.labels, 3))

    def test_infeasible_margin_errors(self, monkeypatch):
        # within the packing bound (9.2 points), beyond what the sphere holds
        monkeypatch.setattr(data, "MAX_REJECTIONS", 2000)
        with pytest.raises(ValueError, match="rejection sampling failed 2000 times"):
            synth_gen(9, 3, 1, 0.8, "regression", seed=0)

    @pytest.mark.parametrize("n, m_x, c_min, most", [
        (128, 2, 0.5, 6), (7, 2, 0.5, 6), (3, 1, 0.01, 2), (20000, 8, 0.3, 5119),
    ])
    def test_margin_the_sphere_cannot_hold_errors_before_any_draw(self, monkeypatch, n, m_x,
                                                                  c_min, most):
        def drawing(*args):
            raise AssertionError("a point was drawn")

        monkeypatch.setattr(data, "_sphere_points", drawing)
        with pytest.raises(ValueError, match=f"holds at most {most} points at margin {c_min}"):
            synth_gen(n, m_x, 1, c_min, "regression", seed=0)
        # so are arguments outside the sampler's domain
        for args, match in (((n, m_x, 1, 1.0, "regression"), r"c_min must lie in \(0, 1\)"),
                            ((n, 0, 1, c_min, "regression"), "must all be >= 1"),
                            ((n, m_x, 1, c_min, "ordinal"), "unknown target kind 'ordinal'")):
            with pytest.raises(ValueError, match=match):
                synth_gen(*args, seed=0)

    def test_packing_limit_admits_known_packings(self):
        # the cross-polytope: 2 m_x points at right angles
        for m_x in range(1, 41):
            assert data._packing_limit(m_x, 0.999) >= 2 * m_x
        # the hexagon on the circle, and the 240 shortest vectors of E8
        assert data._packing_limit(2, 0.5) == 6
        assert data._packing_limit(8, 0.5) >= 240

    @pytest.mark.parametrize("n, m_x, c_min", [
        (12, 3, 0.3), (4, 2, 0.5), (100, 8, 0.2), (2, 1, 0.5), (16, 4, 0.35), (200, 6, 0.1),
    ])
    def test_points_and_the_draws_after_them_match_a_one_at_a_time_loop(self, monkeypatch,
                                                                         n, m_x, c_min):
        # a candidate at a time, as the sampler once drew them: the same
        # points, the same next draws, and the cap at the same rejection
        def one_at_a_time(seed):
            rng = np.random.default_rng(seed)
            pts, rejections = [], 0
            while len(pts) < n:
                v = rng.standard_normal(m_x)
                v /= np.linalg.norm(v)
                if pts and np.min(((np.array(pts) - v) ** 2).sum(axis=1)) < 2 * c_min:
                    rejections += 1
                    continue
                pts.append(v)
            return np.array(pts), rng.integers(0, 2**62, size=4), rejections

        for seed in range(4):
            want, after, rejections = one_at_a_time(seed)
            monkeypatch.setattr(data, "MAX_REJECTIONS", rejections + 1)
            rng = np.random.default_rng(seed)
            assert np.array_equal(data._sphere_points(n, m_x, c_min, rng), want)
            assert np.array_equal(rng.integers(0, 2**62, size=4), after)
            if rejections:
                monkeypatch.setattr(data, "MAX_REJECTIONS", rejections)
                with pytest.raises(ValueError, match="rejection sampling failed"):
                    data._sphere_points(n, m_x, c_min, np.random.default_rng(seed))

    def test_property_grid(self):
        # combinations kept inside what the sphere can pack at the margin
        rng = np.random.default_rng(77)
        for _ in range(200):
            n = int(rng.integers(2, 17))
            m_x = int(rng.integers(3, 9))
            c_min = float(rng.choice([0.01, 0.05]))
            ds = synth_gen(n, m_x, 1, c_min, "regression", seed=int(rng.integers(1e6)))
            assert check_distinguishability(ds.x).margin >= c_min - 1e-12


class TestCsv:
    def test_parse_class_index(self, tmp_path):
        p = tmp_path / "toy.csv"
        p.write_text("1,0,1\n\n0,1,0\n")  # a blank line is skipped
        ds = load_csv(p, m_x=2, kind="class_index")
        np.testing.assert_array_equal(ds.x, [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(ds.labels, [1, 0])
        np.testing.assert_array_equal(ds.y, [[0.0, 1.0], [1.0, 0.0]])
        for text, match in (("1,0,1,0\n", "exactly one target column"),
                            ("1,0,0.5\n", "must be integers")):
            p.write_text(text)
            with pytest.raises(ValueError, match=match):
                load_csv(p, m_x=2, kind="class_index")

    def test_empty_file_errors(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_csv(p, m_x=2)

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2,3\n4,x,6\n")
        with pytest.raises(ValueError, match="bad.csv:2"):
            load_csv(p, m_x=2)
        p.write_text("1,2,3\n4,5\n")  # no target cell
        with pytest.raises(ValueError, match="bad.csv:2: expected 2 feature columns"):
            load_csv(p, m_x=2)

    def test_nonfinite_rejected(self, tmp_path):
        p = tmp_path / "inf.csv"
        p.write_text("1,2,inf\n")
        with pytest.raises(ValueError, match="non-finite"):
            load_csv(p, m_x=2)

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("1,2,3\n1,2,3,4\n")
        with pytest.raises(ValueError, match="ragged"):
            load_csv(p, m_x=2)

    @pytest.mark.parametrize("kind", ["regression", "one_hot", "class_index"])
    def test_round_trip(self, kind, tmp_path):
        ds = synth_gen(9, 3, 2, 0.02, kind, seed=13)
        p = tmp_path / "round.csv"
        save_csv(ds, p)
        back = load_csv(p, m_x=3, kind=kind, m_y=2 if kind != "regression" else None)
        np.testing.assert_allclose(back.x, ds.x, atol=1e-12)
        np.testing.assert_allclose(back.y, ds.y, atol=1e-12)
        if kind != "class_index":
            with pytest.raises(ValueError, match="expected 3 target columns, found 2"):
                load_csv(p, m_x=3, kind=kind, m_y=3)

    def test_dataset_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            Dataset(np.eye(2), np.array([[0.5, 0.2], [1.0, 0.0]]), kind="one_hot")
        with pytest.raises(ValueError, match="same number of rows"):
            Dataset(np.eye(3), np.eye(2))
