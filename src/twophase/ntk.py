"""Tangent-kernel assembly and the rank-preservation monitor.

The Jacobian J stacks output gradients sample-major: row (i * m_y + k) is
the derivative of output coordinate k at sample i with respect to the flat
parameter vector.  When rows are independent (no batch normalization, or BN
with frozen statistics, as in all of phase 2) J comes from one forward and
one batched backward pass: the per-sample deltas D_l[i, k] = d f_ik / d z_l
give each hidden layer's block of row (i, k) as D_l[i, k] (x) [h_{l-1,i}, 1]
in the column-major [W; b] layout, and the head block is
I_{m_y} (x) [h_i, 1].  Training-mode BN couples the rows through the batch
statistics, so there J takes one backward pass per row.  The kernel
K = J J^T is symmetric positive semidefinite and shares its rank with J;
training phases that must not lose kernel rank compare each step against the
snapshot taken right after perturbation, reusing the reference snapshot's
threshold so the comparison cannot flap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DecompositionError
from .network import NetworkSpec, Params, backprop, forward_hidden, softplus_deriv

__all__ = [
    "NtkSnapshot",
    "compute_jacobian",
    "compute_ntk",
    "assert_rank_preserved",
]

DEFAULT_MAX_JACOBIAN_ENTRIES = 50_000_000


@dataclass
class NtkSnapshot:
    """Kernel spectrum, rank, and the threshold the rank was measured at."""

    rows: int
    cols: int
    kernel_spectrum: np.ndarray
    rank: int
    tolerance: float
    step: int = -1
    kernel: np.ndarray | None = None

    def rank_at(self, tol: float) -> int:
        return int(np.count_nonzero(self.kernel_spectrum > tol))


def compute_jacobian(
    spec: NetworkSpec,
    params: Params,
    x,
    frozen_stats=None,
    max_entries: int = DEFAULT_MAX_JACOBIAN_ENTRIES,
) -> np.ndarray:
    """Full output Jacobian, shape (n * m_y) x d.

    Without BN, or with `frozen_stats`, this is the structured product of the
    module docstring, from one forward and one batched backward pass: the
    deltas D_l (n x m_y x m_l) start from W_head^T broadcast over samples and
    are scaled by the softplus derivative at each layer's pre-activation, and
    under frozen BN by gamma / sqrt(var + eps), whose scale and shift columns
    are dz * z_hat and dz.  Each block is written straight into J as
    D_l (x) [h_{l-1}, 1].  Training-mode BN runs one backward pass per row
    over a shared forward trace, which differentiates the batch statistics
    exactly.  Raises MemoryError when J would exceed `max_entries`.
    """
    trace = forward_hidden(spec, params, x, frozen_stats)
    n, m_y = trace.inputs.shape[0], spec.output_dim
    d = spec.param_count()
    rows = n * m_y
    if rows * d > max_entries:
        raise MemoryError(
            f"Jacobian would hold {rows} x {d} entries (> {max_entries}); "
            "use fewer samples or raise max_entries"
        )
    jac = np.zeros((rows, d))
    if any(spec.bn_flags) and trace.frozen_stats is None:
        upstream = np.zeros((n, m_y))
        for i in range(n):
            for k in range(m_y):
                upstream[i, k] = 1.0
                jac[i * m_y + k] = backprop(spec, params, x, upstream, trace=trace)
                upstream[i, k] = 0.0
        return jac

    per_sample = jac.reshape(n, m_y, d)
    offsets = np.cumsum([0, *spec.layer_param_sizes()])
    head = per_sample[:, :, offsets[-2]:].reshape(n, m_y, m_y, spec.feature_dim + 1)
    diag = np.arange(m_y)
    head[:, diag, diag, :-1] = trace.hidden[:, None, :]
    head[:, diag, diag, -1] = 1.0

    delta = np.broadcast_to(params.weights[-1].T, (n, m_y, spec.feature_dim))
    for l in range(spec.depth - 1, -1, -1):
        h_prev = trace.inputs if l == 0 else trace.post[l - 1]
        m_prev, m_l = h_prev.shape[1], spec.widths[l + 1]
        block = per_sample[:, :, offsets[l]:offsets[l + 1]]
        cache = trace.bn_cache[l]
        dz = delta * softplus_deriv(trace.affine[l] if cache is None else cache[3],
                                    spec.sharpness)[:, None, :]
        if cache is not None:
            _, var, z_hat, _ = cache
            np.multiply(dz, z_hat[:, None, :], out=block[:, :, -2 * m_l:-m_l])
            block[:, :, -m_l:] = dz
            dz = dz * params.bn_scale[l] * (1.0 / np.sqrt(var + spec.bn_epsilon))
        wb = block[:, :, : m_l * (m_prev + 1)].reshape(n, m_y, m_l, m_prev + 1)
        np.multiply(dz[..., None], h_prev[:, None, None, :], out=wb[..., :-1])
        wb[..., -1] = dz
        if l > 0:
            delta = (dz.reshape(rows, m_l) @ params.weights[l].T).reshape(n, m_y, m_prev)
    return jac


def compute_ntk(jacobian, step: int = -1, tol: float | None = None) -> NtkSnapshot:
    """Snapshot of K = J J^T with its numerical rank.

    The rank counts eigenvalues of K above the threshold, by default the
    stock rank convention max(K.shape) * eps * largest eigenvalue.
    """
    jac = np.asarray(jacobian, dtype=np.float64)
    if jac.ndim != 2 or not np.all(np.isfinite(jac)):
        raise ValueError("jacobian must be a finite 2-D array")
    kernel = jac @ jac.T
    rows = kernel.shape[0]
    try:
        spectrum = np.linalg.eigvalsh(kernel)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"spectrum of {rows} x {rows} kernel failed: {exc}") from exc
    spectrum = np.maximum(spectrum, 0.0)[::-1]
    if tol is None:
        tol = rows * np.finfo(np.float64).eps * (float(spectrum[0]) if rows else 0.0)
    return NtkSnapshot(
        rows=rows,
        cols=jac.shape[1],
        kernel_spectrum=spectrum,
        rank=int(np.count_nonzero(spectrum > tol)),
        tolerance=float(tol),
        step=step,
        kernel=kernel,
    )


def assert_rank_preserved(reference: NtkSnapshot, current: NtkSnapshot) -> bool:
    """True iff the current kernel rank, measured at the reference snapshot's
    threshold, has not dropped below the reference rank."""
    if (reference.rows, reference.cols) != (current.rows, current.cols):
        raise ValueError(
            f"snapshot dimensions differ: {(reference.rows, reference.cols)} vs "
            f"{(current.rows, current.cols)}; same dataset and architecture required"
        )
    return current.rank_at(reference.tolerance) >= reference.rank
