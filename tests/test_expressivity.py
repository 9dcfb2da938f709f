"""Distinguishability margins, feature-rank checks, and witness construction."""

import numpy as np
import pytest

from conftest import unit_rows

from twophase.data import synth_gen
from twophase.expressivity import (
    check_distinguishability,
    check_expressivity,
    construct_witness,
    dominance_margins,
    expressivity_trials,
)
from twophase.network import NetworkSpec, forward_hidden, params_zero, random_params


class TestDistinguishability:
    def test_orthonormal_pair(self):
        rep = check_distinguishability(np.eye(2))
        assert rep.passed and rep.margin == pytest.approx(1.0)

    def test_duplicate_rows_fail_with_pair(self):
        x = np.array([[0.6, 0.8], [0.6, 0.8], [1.0, 0.0]])
        rep = check_distinguishability(x)
        assert not rep.passed
        assert rep.margin == pytest.approx(0.0, abs=1e-15)
        assert set(rep.violating_pair) == {0, 1}

    def test_matches_double_loop_oracle(self, rng):
        x = unit_rows(rng.standard_normal((20, 5)))
        worst = np.inf
        for i in range(20):
            for j in range(20):
                if i != j:
                    worst = min(worst, x[i] @ x[i] - x[i] @ x[j])
        rep = check_distinguishability(x)
        assert rep.margin == pytest.approx(worst, rel=1e-12)
        assert rep.passed == (worst > 1e-9)

    def test_permutation_invariant_margin(self, rng):
        x = unit_rows(rng.standard_normal((9, 4)))
        perm = rng.permutation(9)
        a = check_distinguishability(x).margin
        b = check_distinguishability(x[perm]).margin
        assert a == pytest.approx(b, rel=1e-14)

    def test_unit_rows_margin_is_half_min_squared_distance(self, rng):
        x = unit_rows(rng.standard_normal((12, 6)))
        dists = [np.sum((x[i] - x[j]) ** 2) for i in range(12) for j in range(12) if i != j]
        assert check_distinguishability(x).margin == pytest.approx(0.5 * min(dists), rel=1e-12)


class TestCheckExpressivity:
    def test_dimension_bound_forces_failure(self, rng):
        spec = NetworkSpec((3, 2), 1)  # m_H + 1 = 3 < n = 4
        p = random_params(spec, rng, 1.0)
        rep = check_expressivity(p, rng.standard_normal((4, 3)))
        assert not rep.passed and rep.rank <= 3

    def test_duplicate_inputs_fail_without_bn(self, rng):
        spec = NetworkSpec((3, 6), 1, sharpness=10.0)
        p = random_params(spec, rng, 1.0)
        x = rng.standard_normal((4, 3))
        x[1] = x[0]
        rep = check_expressivity(p, x)
        assert not rep.passed

    def test_pass_implies_gram_above_zero(self, rng):
        spec = NetworkSpec((4, 8), 1, sharpness=2.0)
        p = random_params(spec, rng, 1.0)
        x = unit_rows(rng.standard_normal((5, 4)))
        rep = check_expressivity(p, x)
        if rep.passed:
            aug = np.hstack([forward_hidden(p, x).hidden, np.ones((5, 1))])
            assert np.linalg.det(aug @ aug.T) > 0.0

    def test_one_decomposition_per_check(self, rng, monkeypatch):
        # one Cholesky factorization proves a full rank with no SVD; when it
        # fails, one SVD counts the rank and sets its own threshold
        counts = {"svd": 0, "cholesky": 0}
        for name in counts:
            def counting(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counting)
        spec = NetworkSpec((3, 8), 1, sharpness=5.0)
        p = random_params(spec, rng, 1.0)
        x = rng.standard_normal((6, 3))
        rep = check_expressivity(p, x)
        assert rep.passed and rep.proved
        assert counts == {"svd": 0, "cholesky": 1}
        x[5] = x[0]  # a repeated sample repeats its feature row
        rep = check_expressivity(p, x)
        assert rep.rank == 5 and not rep.passed and not rep.proved
        assert counts == {"svd": 1, "cholesky": 2}

    def test_no_determinant(self, rng, monkeypatch):
        # the rank alone decides `passed`; no det([h, 1] [h, 1]^T) is taken
        def refuse(*args, **kwargs):
            raise AssertionError("check_expressivity called det")

        monkeypatch.setattr(np.linalg, "det", refuse)
        monkeypatch.setattr(np.linalg, "slogdet", refuse)
        spec = NetworkSpec((3, 8), 1, sharpness=5.0)
        rep = check_expressivity(random_params(spec, rng, 1.0),
                                 rng.standard_normal((6, 3)))
        assert rep.passed and rep.rank == 6


class TestWitness:
    def test_two_orthonormal_inputs_dominant(self):
        spec = NetworkSpec((2, 2, 2), 1, sharpness=100.0)
        x = np.eye(2)
        w = construct_witness(spec, x)
        h = forward_hidden(w, x).hidden
        assert np.all(dominance_margins(h, 2) > 0.0)
        assert check_expressivity(w, x).passed

    def test_single_sample(self):
        spec = NetworkSpec((3, 3, 3), 1, sharpness=100.0)
        x = np.array([[0.6, 0.8, 0.0]])
        w = construct_witness(spec, x)
        assert check_expressivity(w, x).passed

    def test_narrow_case_passes_rank_check(self):
        # first widths match the input dim, only the last hidden layer is wide
        ds = synth_gen(6, 3, 1, 0.05, "regression", seed=21)
        spec = NetworkSpec((3, 3, 3, 6), 1, sharpness=100.0)
        w = construct_witness(spec, ds.x)
        h = forward_hidden(w, ds.x).hidden
        assert np.all(dominance_margins(h, 6) > 0.0)
        assert check_expressivity(w, ds.x).passed

    def test_wide_case_uses_input_copies_in_first_layer(self):
        ds = synth_gen(4, 6, 1, 0.05, "regression", seed=22)
        spec = NetworkSpec((6, 5, 4), 1, sharpness=100.0)
        w = construct_witness(spec, ds.x)
        # first-layer columns are scaled copies of the inputs
        col0 = w.weights[0][:, 0]
        scale = col0 @ ds.x[0]
        assert scale > 0
        np.testing.assert_allclose(col0, scale * ds.x[0], atol=1e-9)
        assert check_expressivity(w, ds.x).passed

    def test_bn_architecture_rejected(self):
        spec = NetworkSpec((3, 3, 6), 1, bn_flags=(True, False))
        # the error points at the random-draw check, which BN admits
        with pytest.raises(ValueError, match="batch normalization; use expressivity_trials"):
            construct_witness(spec, np.eye(3))

    def test_indistinguishable_inputs_rejected(self):
        spec = NetworkSpec((2, 2, 3), 1)
        x = np.array([[0.6, 0.8], [0.6, 0.8], [1.0, 0.0]])
        with pytest.raises(ValueError, match="not distinguishable"):
            construct_witness(spec, x)

    def test_too_narrow_architecture_rejected(self):
        spec = NetworkSpec((4, 2, 6), 1)  # middle width below m_x and below n
        with pytest.raises(ValueError, match="witness needs"):
            construct_witness(spec, synth_gen(6, 4, 1, 0.05, seed=2).x)

    def test_last_layer_too_narrow_rejected(self):
        spec = NetworkSpec((3, 3, 4), 1)
        with pytest.raises(ValueError, match="last hidden width"):
            construct_witness(spec, synth_gen(6, 3, 1, 0.05, seed=2).x)


def _passing_fraction(spec, x, trials, **kwargs):
    # the fraction of random draws with full-row-rank [h, 1], as `verify`
    # computes it
    return sum(rep.passed for rep in expressivity_trials(spec, x, trials, **kwargs)) / trials


class TestProbabilistic:
    def test_witness_feasible_architecture_all_pass(self):
        ds = synth_gen(8, 4, 1, 0.05, "regression", seed=30)
        spec = NetworkSpec((4, 4, 9), 1, sharpness=1.0)
        assert _passing_fraction(spec, ds.x, 20, seed=5) == 1.0

    def test_dimension_bound_gives_zero(self):
        ds = synth_gen(8, 4, 1, 0.05, "regression", seed=31)
        spec = NetworkSpec((4, 4, 5), 1)  # m_H + 1 = 6 < 8
        assert _passing_fraction(spec, ds.x, 10, seed=5) == 0.0

    def test_single_hidden_layer_with_gram_cross_check(self):
        rng = np.random.default_rng(32)
        x = rng.standard_normal((4, 4))
        spec = NetworkSpec((4, 8), 1, sharpness=1.0)
        frac = _passing_fraction(spec, x, 50, init_scale=1.0, seed=7)
        assert frac == 1.0
        # replay the same draws and confirm the Gram determinant stays positive
        children = np.random.SeedSequence(7).spawn(50)
        for child in children[:10]:
            p = random_params(spec, np.random.default_rng(child), scale=1.0)
            h = forward_hidden(p, x).hidden
            aug = np.hstack([h, np.ones((4, 1))])
            assert np.linalg.det(aug @ aug.T) > 0.0

    def test_deterministic_in_seed(self):
        ds = synth_gen(6, 3, 1, 0.05, "regression", seed=33)
        spec = NetworkSpec((3, 3, 7), 1, sharpness=1.0)
        a = _passing_fraction(spec, ds.x, 12, seed=11)
        b = _passing_fraction(spec, ds.x, 12, seed=11)
        assert a == b
