"""Kernel assembly against the per-row Jacobian oracle, kernel spectra, and
kernel verdicts against a reference."""

import sys

import numpy as np
import pytest

import conftest
from conftest import (
    compute_jacobian,
    fd_jacobian,
    masked_flat,
    max_rel_err,
    random_small_config,
)

import twophase.network as network
from twophase.network import (
    NetworkSpec,
    Workspace,
    backprop,
    batch_statistics,
    forward_hidden,
    forward_output,
    params_zero,
    random_params,
)
from twophase.linalg import Rank, certified_rank
from twophase.ntk import compute_kernel, compute_ntk


class TestComputeNtk:
    def test_identity_jacobian(self):
        j = np.eye(5)
        snap = compute_ntk(j @ j.T)
        np.testing.assert_allclose(snap.matrix, np.eye(5), atol=1e-14)
        assert snap.rank == 5

    def test_repeated_row_drops_rank(self, rng):
        j = rng.standard_normal((4, 7))
        j[2] = j[0]
        snap = compute_ntk(j @ j.T)
        assert snap.rank < 4

    def test_sign_flip_invariance(self, rng):
        j = rng.standard_normal((5, 9))
        a = compute_ntk(j @ j.T)
        b = compute_ntk(-j @ -j.T)
        np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-12)
        assert a.rank == b.rank

    def test_kernel_symmetric_psd(self, rng):
        j = rng.standard_normal((6, 11))
        snap = compute_ntk(j @ j.T)
        k = snap.matrix
        assert np.max(np.abs(k - k.T)) <= 1e-10 * max(1.0, np.abs(k).max())
        assert snap.spectrum.min() >= -1e-8 * np.abs(k).max()

    def test_rank_paths_agree(self, rng):
        for _ in range(50):
            rows, cols = int(rng.integers(2, 7)), int(rng.integers(2, 12))
            j = rng.standard_normal((rows, cols))
            if rng.random() < 0.3 and rows >= 2:
                j[-1] = j[0]
            snap = compute_ntk(j @ j.T)
            sq = np.linalg.svd(j, compute_uv=False) ** 2
            assert snap.rank == np.count_nonzero(sq > snap.tolerance)

    def test_block_diagonal_head_jacobian_rank(self, rng):
        # J restricted to the head block: rank([h, 1]) = n lifts to n * m_y
        n, m_h, m_y = 5, 7, 3
        h = rng.standard_normal((n, m_h))
        aug = np.hstack([h, np.ones((n, 1))])
        assert np.linalg.matrix_rank(aug) == n
        j = np.zeros((n * m_y, m_y * (m_h + 1)))
        for i in range(n):
            j[i * m_y : (i + 1) * m_y] = np.kron(np.eye(m_y), aug[i])
        snap = compute_ntk(j @ j.T)
        assert snap.rank == n * m_y


def _eigvalsh_rank(k, tol):
    return int(np.count_nonzero(np.linalg.eigvalsh(k) > tol))


def _large_threshold_reference(j):
    # full rank, but one eigenvalue near 1e12 puts the stock threshold
    # rows * eps * lambda_max near 1e-3
    k = j @ j.T
    k[0, 0] += 1e12
    ref = compute_ntk(k)
    assert ref.rank == k.shape[0] and ref.tolerance > 1e-4
    return ref


def _reference_at(tol, size):
    # a kernel verdict of `size` rows whose stock threshold
    # size * eps * lambda_max is tol (0: the zero kernel's), its spectrum
    # already taken
    values = np.zeros(size)
    if tol:
        values[:] = 1.0
        values[0] = tol / (size * np.finfo(float).eps)
    ref = compute_ntk(np.diag(values))
    assert ref.tolerance == pytest.approx(tol, rel=1e-12)
    return ref


def _count_factorizations(monkeypatch):
    # calls of each, and how many Cholesky factorizations raised
    counts = {"cholesky": 0, "eigvalsh": 0, "failed": 0}
    cholesky, eigvalsh = np.linalg.cholesky, np.linalg.eigvalsh

    def counting_cholesky(*args, **kwargs):
        counts["cholesky"] += 1
        try:
            return cholesky(*args, **kwargs)
        except np.linalg.LinAlgError:
            counts["failed"] += 1
            raise

    def counting_eigvalsh(*args, **kwargs):
        counts["eigvalsh"] += 1
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    return counts


class TestCholeskyRank:
    def test_full_rank_kernel(self, rng):
        j = rng.standard_normal((6, 11))
        k = j @ j.T
        stock = 6 * np.finfo(float).eps * np.linalg.eigvalsh(k)[-1]
        assert compute_ntk(k).rank == _eigvalsh_rank(k, stock) == 6

    def test_repeated_row_kernel(self, rng):
        j = rng.standard_normal((6, 11))
        j[4] = j[1]
        snap = compute_ntk(j @ j.T)
        assert snap.rank == _eigvalsh_rank(j @ j.T, snap.tolerance) == 5

    def test_kernel_scaled_below_the_reference_tolerance(self, rng):
        # test_reference_tolerance_shared's case, judged at the reference's
        # threshold: full at its own, counted below full at the reference's
        j = rng.standard_normal((4, 9))
        ref = _large_threshold_reference(j)
        k = (1e-4 * j) @ (1e-4 * j).T
        cur = compute_ntk(k, reference=ref)
        assert not cur.proved and cur.level == ref.tolerance
        assert cur.count_above(cur.tolerance) == _eigvalsh_rank(k, cur.tolerance) == 4
        assert cur.rank == _eigvalsh_rank(k, ref.tolerance) < 4
        assert cur.rank < ref.rank

    def test_spectrum_only_when_the_factorization_fails(self, rng, monkeypatch):
        ref = _reference_at(1e-6, 6)
        counts = _count_factorizations(monkeypatch)
        j = rng.standard_normal((6, 11))
        repeated = j.copy()
        repeated[5] = repeated[0]
        cases = [(j @ j.T, None), (repeated @ repeated.T, None),
                 (1e-4 * j @ (1e-4 * j).T, ref), (j @ j.T, ref)]
        for k, reference in cases:
            before = dict(counts)
            compute_ntk(k, reference=reference)
            failed = counts["failed"] - before["failed"]
            assert counts["cholesky"] - before["cholesky"] == 1
            assert counts["eigvalsh"] - before["eigvalsh"] == failed
        assert counts["failed"] == 2

    def test_a_reference_verdict_is_the_count_at_its_threshold(self, rng, monkeypatch):
        # a kernel verdict made against a reference is the eigvalsh count
        # above max(the reference's tolerance, its own): proved full rank
        # with no spectrum of its own up to its certified level, counted
        # from one spectrum above it
        j = rng.standard_normal((5, 8))
        k = j @ j.T
        values = np.linalg.eigvalsh(k)
        stock = 5 * np.finfo(float).eps * values[-1]
        below = [_reference_at(tol, 5) for tol in (0.0, 0.5e-9, 1e-9, 2e-9)]
        above = [_reference_at(tol, 5) for tol in (*(values[:-1] + values[1:]) / 2, 1e6)]
        counts = _count_factorizations(monkeypatch)
        snap = compute_ntk(k, reference=below[2])
        assert snap.proved and snap.level == below[2].tolerance and snap.rank == 5
        for ref in below:
            snap = compute_ntk(k, reference=ref)
            assert snap.proved and snap.level >= ref.tolerance
            assert snap.rank == np.count_nonzero(values > max(ref.tolerance, stock)) == 5
        assert counts["eigvalsh"] == 0
        for i, ref in enumerate(above, 1):
            snap = compute_ntk(k, reference=ref)
            assert not snap.proved and counts["eigvalsh"] == i
            threshold = max(ref.tolerance, stock)
            assert snap.rank == snap.count_above(threshold) == np.count_nonzero(values > threshold)
        assert snap.rank == 0 and counts["eigvalsh"] == len(above)

    def test_a_failed_verdict_is_counted_once(self, rng, monkeypatch):
        # a verdict whose factorization fails counts its spectrum once, at
        # the threshold it is judged at: max(the reference's tolerance, its
        # own) against a reference, its own without; a proved one counts none
        thresholds = []
        count_above = Rank.count_above

        def spy(verdict, tol):
            thresholds.append(tol)
            return count_above(verdict, tol)

        j = rng.standard_normal((4, 9))
        ref = _large_threshold_reference(j)
        repeated = j.copy()
        repeated[3] = repeated[0]
        monkeypatch.setattr(Rank, "count_above", spy)
        cases = [((1e-4 * j) @ (1e-4 * j).T, ref), (repeated @ repeated.T, ref),
                 (repeated @ repeated.T, None), (j @ j.T, None)]
        for k, reference in cases:
            del thresholds[:]
            snap = compute_ntk(k, reference=reference)
            if snap.proved:
                assert thresholds == []
                continue
            own = snap.tolerance
            assert thresholds == [own if reference is None else max(reference.tolerance, own)]
            assert snap.rank == _eigvalsh_rank(k, thresholds[0])

    def test_zero_kernel_has_rank_zero(self):
        assert compute_ntk(np.zeros((3, 3))).rank == 0

    @pytest.mark.parametrize("bad", [np.ones((2, 3)), np.full((2, 2), np.nan)],
                             ids=["not_square", "nan"])
    def test_kernel_must_be_finite_and_square(self, bad):
        with pytest.raises(ValueError, match="finite square"):
            compute_ntk(bad)


class TestBorderedFactor:
    """compute_ntk with a right-hand side r: one factorization of
    [[K - 4 m I, r], [r^T, rho]] certifies the rank and gives
    ||L^-1 r|| = sqrt(r^T (K - 4 m I)^-1 r)."""

    @pytest.mark.parametrize("threshold", [0.0, 1e-3, 0.2])
    def test_rhs_norm_is_the_shifted_solve(self, rng, monkeypatch, threshold):
        j = rng.standard_normal((6, 11))
        k, r = j @ j.T, rng.standard_normal(6)
        ref = _reference_at(threshold, 6)
        counts = _count_factorizations(monkeypatch)
        snap = compute_ntk(k, reference=ref, rhs=r)
        assert counts == {"cholesky": 1, "eigvalsh": 0, "failed": 0}
        assert snap.rank == 6 and snap.proved and snap.level >= ref.tolerance
        shifted = k - 4.0 * snap.level * np.eye(6)
        assert snap.rhs_norm == pytest.approx(np.sqrt(r @ np.linalg.solve(shifted, r)),
                                              rel=1e-12)
        assert snap.rhs_norm >= np.sqrt(r @ np.linalg.pinv(k) @ r)
        np.testing.assert_array_equal(snap.rhs, r)

    def test_border_leaves_the_rank_alone(self, rng):
        # the spectrum-fallback cases of the unbordered test, with a border
        j = rng.standard_normal((6, 11))
        repeated = j.copy()
        repeated[5] = repeated[0]
        ref = _reference_at(1e-6, 6)
        cases = [(j @ j.T, None), (repeated @ repeated.T, None),
                 (1e-4 * j @ (1e-4 * j).T, ref), (j @ j.T, ref)]
        for k, reference in cases:
            plain = compute_ntk(k, reference=reference)
            bordered = compute_ntk(k, reference=reference, rhs=rng.standard_normal(6))
            assert (bordered.rank, bordered.proved, bordered.level) == (
                plain.rank, plain.proved, plain.level)
            assert (bordered.rhs_norm is None) == (not plain.proved)
            assert (bordered.rhs is None) == (not plain.proved)
            assert plain.rhs is None and plain.rhs_norm is None

    @pytest.mark.parametrize("bad", [np.ones(5), np.array([1.0, np.nan, 0, 0, 0, 0])],
                             ids=["length", "nan"])
    def test_rhs_must_be_finite_with_one_entry_per_row(self, rng, bad):
        j = rng.standard_normal((6, 11))
        with pytest.raises(ValueError, match="finite vector of 6 entries"):
            compute_ntk(j @ j.T, rhs=bad)


class TestComputeKernel:
    @pytest.mark.parametrize("bn", ["none", "frozen", "training"])
    def test_equals_j_j_transpose(self, bn):
        # a training-mode pass has the kernel of the same pass under its
        # batch statistics frozen, so its J is the frozen pass's
        rng = np.random.default_rng({"none": 31, "frozen": 32, "training": 33}[bn])
        for _ in range(20):
            spec, p, x = random_small_config(rng, allow_bn=bn != "none")
            stats = batch_statistics(forward_hidden(p, x)) if bn != "none" else None
            trace = forward_hidden(p, x, stats if bn == "frozen" else None)
            jac = compute_jacobian(p, forward_hidden(p, x, stats))
            kernel = compute_kernel(p, trace)
            assert max_rel_err(kernel, jac @ jac.T) <= 1e-12
            np.testing.assert_array_equal(kernel, kernel.T)

    def test_training_pass_has_the_frozen_statistics_kernel(self):
        # the layer-wise sum holds a training-mode pass's batch statistics
        # as constants: bit for bit the kernel of the pass under them frozen
        rng = np.random.default_rng(2024)
        for _ in range(60):
            spec, p, x = random_small_config(rng, allow_bn=True)
            trace = forward_hidden(p, x)
            frozen = forward_hidden(p, x, batch_statistics(trace))
            assert np.array_equal(compute_kernel(p, trace), compute_kernel(p, frozen))

    @pytest.mark.parametrize("bn", ["none", "frozen", "training"])
    def test_workspace_kernel_bit_identical(self, bn):
        # the kernel written into the caller's workspace, as a training
        # run's steps make it, against one written into a workspace of its
        # own; the next kernel overwrites the arrays the last one returned
        rng = np.random.default_rng(41)
        for _ in range(10):
            spec, p, x = random_small_config(rng, allow_bn=bn != "none")
            stats = batch_statistics(forward_hidden(p, x)) if bn == "frozen" else None
            trace = forward_hidden(p, x, stats)
            work = Workspace(spec, x.shape[0])
            first = compute_kernel(p, trace, work=work)
            np.testing.assert_array_equal(first, compute_kernel(p, trace))
            q = random_params(spec, rng, 0.5)
            second = compute_kernel(q, forward_hidden(q, x, stats, work=work),
                                    work=work)
            assert second is first
            want = compute_kernel(q, forward_hidden(q, x, stats))
            np.testing.assert_array_equal(second, want)
            # compute_ntk borders and factors in the workspace's spare array,
            # leaving the kernel alone
            r = rng.standard_normal(want.shape[0])
            snap, fresh = compute_ntk(second, rhs=r, work=work), compute_ntk(want, rhs=r)
            assert (snap.rank, snap.proved, snap.level, snap.rhs_norm) == (
                fresh.rank, fresh.proved, fresh.level, fresh.rhs_norm)
            np.testing.assert_array_equal(snap.matrix, want)

    @pytest.mark.parametrize("bn, frozen", [(False, False), (True, True), (True, False)],
                             ids=["no_bn", "frozen_bn", "training_bn"])
    def test_makes_no_backward_pass(self, rng, bn, frozen):
        # one forward trace and the layer-wise sum: no backprop call, under
        # any binding, in any BN mode
        spec = NetworkSpec((3, 5, 4), 2, sharpness=10.0, bn_flags=(False, bn))
        p = random_params(spec, rng, 0.8)
        x = rng.standard_normal((4, 3))
        trace = forward_hidden(p, x)
        if frozen:
            trace = forward_hidden(p, x, batch_statistics(trace))
        code, calls = network.backprop.__code__, []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is code:
                calls.append(1)

        sys.setprofile(profile)
        try:
            compute_kernel(p, trace)
        finally:
            sys.setprofile(None)
        assert not calls


class TestComputeJacobian:
    def test_head_columns_are_kron_blocks(self, rng):
        spec = NetworkSpec((3, 4, 6), 2, sharpness=10.0)
        p = random_params(spec, rng, 0.8)
        x = rng.standard_normal((4, 3))
        trace = forward_hidden(p, x)
        jac, h = compute_jacobian(p, trace), trace.hidden
        head = spec.head_param_count()
        for i in range(4):
            want = np.kron(np.eye(2), np.append(h[i], 1.0))
            np.testing.assert_allclose(jac[i * 2 : (i + 1) * 2, -head:], want, atol=1e-12)

    def test_zero_network_hidden_columns_vanish(self):
        # with a zero head the chain to every hidden parameter is cut
        spec = NetworkSpec((3, 4, 5), 2, sharpness=10.0)
        p = params_zero(spec)
        x = np.random.default_rng(3).standard_normal((3, 3))
        jac = compute_jacobian(p, forward_hidden(p, x))
        head = spec.head_param_count()
        np.testing.assert_array_equal(jac[:, :-head], 0.0)
        h_const = np.log(2.0) / 10.0
        want_row = np.kron(np.eye(2), np.append(np.full(5, h_const), 1.0))
        for i in range(3):
            np.testing.assert_allclose(jac[i * 2 : (i + 1) * 2, -head:], want_row, atol=1e-14)

    def test_matches_finite_differences(self, rng):
        spec = NetworkSpec((3, 4, 4), 2, sharpness=10.0, bn_flags=(True, False))
        p = random_params(spec, rng, 0.7)
        x = rng.standard_normal((4, 3))
        jac = compute_jacobian(p, forward_hidden(p, x))
        fd = fd_jacobian(p, x)
        assert max_rel_err(jac, fd) < 1e-5

    def test_random_configurations_vs_fd(self):
        rng = np.random.default_rng(99)
        for _ in range(8):
            spec, p, x = random_small_config(rng)
            jac = compute_jacobian(p, forward_hidden(p, x))
            fd = fd_jacobian(p, x)
            assert max_rel_err(jac, fd) < 1e-5

    def test_frozen_statistics_vs_fd(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            spec, p, x = random_small_config(rng, allow_bn=True)
            frozen = batch_statistics(forward_hidden(p, x))
            jac = compute_jacobian(p, forward_hidden(p, x, frozen))
            fd = fd_jacobian(p, x, frozen)
            assert max_rel_err(jac, fd) < 1e-5

    @pytest.mark.parametrize("bn", [False, True], ids=["no_bn", "frozen_bn"])
    def test_masked_parameters_reproduce_predictions(self, bn):
        # J (nu o w) = f(w): the head columns of J are [h, 1] (x) I, so the
        # linearized problem that R-bar measures predicts f at nu o w
        rng = np.random.default_rng(13)
        for _ in range(20):
            spec, p, x = random_small_config(rng, allow_bn=bn)
            frozen = batch_statistics(forward_hidden(p, x)) if bn else None
            trace = forward_hidden(p, x, frozen)
            jac, f = compute_jacobian(p, trace), forward_output(p, trace)
            assert max_rel_err(jac @ masked_flat(p), f.reshape(-1)) < 1e-14

    @pytest.mark.parametrize("bn", ["none", "frozen", "training"])
    def test_rows_are_backprops_of_unit_upstreams(self, bn):
        # the rows' backward passes share one workspace; each row copied
        # out of it is the gradient a call of its own returns, bit for bit
        rng = np.random.default_rng(577)
        for _ in range(12):
            spec, p, x = random_small_config(rng, allow_bn=bn != "none")
            stats = batch_statistics(forward_hidden(p, x)) if bn == "frozen" else None
            trace = forward_hidden(p, x, stats)
            jac = compute_jacobian(p, trace)
            n, m_y = x.shape[0], spec.output_dim
            for r in range(n * m_y):
                up = np.zeros((n, m_y))
                up[divmod(r, m_y)] = 1.0
                assert np.array_equal(jac[r], backprop(p, trace, up))

    @pytest.mark.parametrize("bn, frozen", [
        (False, False), (False, True), (True, True), (True, False),
    ])
    def test_backward_passes_per_jacobian(self, rng, monkeypatch, bn, frozen):
        # one backward pass per (sample, output) row in every mode: n * m_y = 8
        calls = []
        real = conftest.backprop

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(conftest, "backprop", counting)
        spec = NetworkSpec((3, 5, 4), 2, sharpness=10.0, bn_flags=(False, bn))
        p = random_params(spec, rng, 0.8)
        x = rng.standard_normal((4, 3))
        stats = batch_statistics(forward_hidden(p, x)) if frozen else None
        jac = compute_jacobian(p, forward_hidden(p, x, stats))
        assert len(calls) == 8
        assert max_rel_err(jac, fd_jacobian(p, x, stats)) < 1e-5


class TestRankPreserved:
    """A kernel keeps the reference's rank iff its verdict made against that
    reference has rank >= reference.rank."""

    def test_reflexive(self, rng):
        j = rng.standard_normal((4, 9))
        snap = compute_ntk(j @ j.T)
        assert compute_ntk(snap.matrix, reference=snap).rank >= snap.rank

    def test_rank_drop_detected(self, rng):
        j = rng.standard_normal((4, 9))
        ref = compute_ntk(j @ j.T)
        j2 = j.copy()
        j2[3] = j2[0]
        assert compute_ntk(j2 @ j2.T, reference=ref).rank < ref.rank

    def test_dimension_mismatch_errors(self, rng):
        ja, jb = rng.standard_normal((4, 9)), rng.standard_normal((5, 9))
        a = compute_ntk(ja @ ja.T)
        with pytest.raises(ValueError, match="dimensions differ"):
            compute_ntk(jb @ jb.T, reference=a)

    def test_reference_tolerance_shared(self, rng):
        j = rng.standard_normal((4, 9))
        ref = _large_threshold_reference(j)
        cur = compute_ntk((1e-4 * j) @ (1e-4 * j).T)  # scaled down, same mathematical rank
        # at the reference's absolute threshold the scaled kernel loses rank
        assert cur.rank == 4
        assert compute_ntk(cur.matrix, reference=ref).rank < ref.rank

    def test_reference_must_be_a_kernel_verdict(self, rng):
        # a matrix verdict's level is on its Gram's scale and its spectrum
        # on the singular values', so it is no kernel's reference, proved
        # or counted
        full = rng.standard_normal((4, 9))
        deficient = full.copy()
        deficient[3] = deficient[0]
        kernel = full @ full.T
        for m in (full, deficient):
            with pytest.raises(ValueError, match="kernel verdicts only"):
                compute_ntk(kernel, reference=certified_rank(m))
