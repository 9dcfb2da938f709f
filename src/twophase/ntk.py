"""Tangent-kernel assembly and its rank verdict, alone or against a reference.

The Jacobian J stacks output gradients sample-major: row (i * m_y + k) is
the derivative of output coordinate k at sample i with respect to the flat
parameter vector.  Each row of a pass whose batch statistics are constants
(no batch normalization, or BN with frozen statistics, as in all of phase 2)
depends on its own sample alone, so one forward and one batched backward
pass give the per-sample deltas D_l[i, k] = d f_ik / d z_l of every hidden
layer.  Layer l's block of row (i, k) is then D_l[i, k] (x) A_{l-1,i},
A_{l-1} = [h_{l-1}, 1], in the column-major [W; b] layout, and the head
block is I_{m_y} (x) [h_i, 1].  So the kernel K = J J^T is summed layer by
layer without forming J (the structured product of Novak et al. 2022, "Fast
Finite Width Neural Tangent Kernel"):

    K = sum_l (D_l D_l^T) o (A_{l-1} A_{l-1}^T (x) 1 1^T) + [h, 1][h, 1]^T (x) I,

plus (D o z_hat)(D o z_hat)^T + D D^T for the scale and shift of a BN layer,
D there being the delta at the BN output.  That is rows^2 * sum_l m_l flops
where J J^T takes rows^2 * d.  A pass under training-mode BN has its batch
statistics in its trace, and the sum reads them as constants too: its
kernel is, bit for bit, that of the same pass with those statistics frozen
(network.batch_statistics), the kernel the lazy phase ranks from tau on.
The sum takes the trace of network.forward_hidden, so it runs no pass of
its own.

K is symmetric positive semidefinite and shares its rank with J.  Every rank
here comes from the package's one rank rule, linalg.certified_rank, and
compute_ntk returns its verdict, a linalg.Rank: full rank is certified by
one Cholesky factorization of K shifted down by a multiple of the
threshold, and eigvalsh counts the rank only when that fails.  A phase that
must not lose kernel rank judges each step's kernel against the verdict of
the kernel taken right after perturbation, at that reference's threshold so
the comparison cannot flap: the step keeps the rank iff its verdict's rank
is at least the reference's.  A verdict computes its spectrum, and the stock
threshold it defines, on first use, and a reference's threshold is settled
by a bound that needs no spectrum, so a run whose factorizations all
succeed computes none.  As J (nu o w) = f(w), the same K gives Rbar
(bounds.Certificate), so no Jacobian is kept: bordered by the residual r,
that one factorization gives the rank and sqrt(r^T (K - shift)^-1 r), an
upper bound on the distance ||J^+ r|| that Rbar is the max of, with no
second solve of K.
"""

from __future__ import annotations

import numpy as np

from .linalg import EPS, Rank, certified_rank
from .network import ForwardTrace, NetworkSpec, Params, Workspace, _softplus_deriv

__all__ = [
    "compute_kernel",
    "compute_ntk",
]


def compute_kernel(params: Params, trace: ForwardTrace,
                   work: Workspace | None = None) -> np.ndarray:
    """Tangent kernel K = J J^T at the pass `trace` of `params`,
    (n * m_y) x (n * m_y), rows sample-major as in the module docstring.

    K is the layer-wise sum of the module docstring, and J is never formed.
    Every BN layer's statistics, frozen or the batch's own in a
    training-mode trace, are held as constants, so a training-mode pass
    has the kernel of the same pass under its statistics frozen.  The
    deltas dout and dz (m_y x n x m_l: output k, sample i) of each hidden
    layer, last first, are the derivatives of f_ik with respect to the
    layer's softplus input and its affine pre-activation (dout itself
    without BN): the recursion starts from W_head^T broadcast over samples,
    scales by the softplus derivative and, under BN, by
    gamma / sqrt(var + eps).  The sum runs in output-major (k, i) order, so
    each Hadamard product with the n x n gram matrix runs over contiguous
    rows of n, and is put in sample-major order once at the end.  K and
    the sum's arrays go into the network.Workspace `work` (ValueError if it
    has fewer than n rows), or a new one: the softplus derivatives into
    its dz, the rest into its kernel_arrays.
    """
    spec = params.spec
    n, m_y = trace.inputs.shape[0], spec.output_dim
    rows = n * m_y
    if work is None:
        work = Workspace(spec, n)
    if n > work.rows:
        raise ValueError(f"workspace holds {work.rows} rows, the pass {n}")
    if work.kernel_arrays is None or work.kernel_arrays[0].shape[0] != n:
        work.kernel_arrays = _kernel_arrays(spec, n)
    gram, block, spare, douts = work.kernel_arrays
    total = spare[: rows * rows].reshape(rows, rows)
    blocks = total.reshape(m_y, n, m_y, n)
    blocks.fill(0.0)
    h = trace.hidden
    gram = np.matmul(h, h.T, out=gram)
    gram += 1.0
    for k in range(m_y):
        blocks[k, :, k, :] = gram
    delta = params.weights[-1].T[:, None, :]  # broadcast over the samples
    for l in range(spec.depth - 1, -1, -1):
        cache = trace.bn_cache[l]
        deriv = _softplus_deriv(trace.affine[l] if cache is None else cache[3],
                                spec.sharpness, work.dz[l][:n])
        dout = np.multiply(delta, deriv, out=douts[l])
        dz = dout if cache is None else (
            dout * params.bn_scale[l] * (1.0 / np.sqrt(cache[1] + spec.bn_epsilon)))
        h_prev = trace.inputs if l == 0 else trace.post[l - 1]
        gram = np.matmul(h_prev, h_prev.T, out=gram)
        gram += 1.0
        d = dz.reshape(rows, -1)
        block = np.matmul(d, d.T, out=block)
        product = block.reshape(m_y, n, m_y, n)
        product *= gram[:, None, :]
        total += block
        if cache is not None:
            scale = (dout * cache[2]).reshape(rows, -1)
            shift = dout.reshape(rows, -1)
            total += scale @ scale.T + shift @ shift.T
        if l > 0:  # d/dh of layer l - 1, into its dout, which scales it in place
            delta = douts[l - 1]
            np.matmul(d, params.weights[l].T, out=delta.reshape(rows, -1))
    # the last block is spent: K goes there in sample-major order, block by
    # block, each a copy of contiguous rows
    kernel = block.reshape(n, m_y, n, m_y)
    for k in range(m_y):
        for j in range(m_y):
            kernel[:, k, :, j] = blocks[k, :, j, :]
    return block


def _kernel_arrays(spec: NetworkSpec, n: int) -> tuple:
    """compute_kernel's arrays but the workspace's dz, for n rows, m_y
    outputs: the n x n gram matrix, a (n m_y) x (n m_y) array for a layer's
    block, which ends as the kernel returned, a flat spare array of
    (n m_y + 1)^2 entries, which holds the output-major sum and then
    compute_ntk's bordered matrix, and per hidden layer dout (m_y x n x m_l)."""
    rows = n * spec.output_dim
    return (np.empty((n, n)), np.empty((rows, rows)), np.empty((rows + 1) ** 2),
            [np.empty((spec.output_dim, n, m)) for m in spec.widths[1:]])


def compute_ntk(kernel, reference=None, rhs=None, work=None) -> Rank:
    """The rank verdict of the tangent kernel K (compute_kernel),
    linalg.certified_rank of K as a Gram matrix: one Cholesky factorization
    of K - c m I, c = linalg.CHOLESKY_SHIFT = 4, m = rows * eps * trace K,
    whose success proves every eigenvalue of K above m, and so the rank rows
    with no spectrum (the proof is certified_rank's); eigvalsh counts the
    eigenvalues above the stock threshold rows * eps * largest eigenvalue
    only when it fails.

    Given the `reference` verdict (a kernel's Rank of the same size), K is
    judged at the reference's threshold, its tolerance, so that K keeps the
    reference's rank iff the verdict's rank >= reference.rank: the level m
    is raised to that threshold, so a success means full rank there, and a
    failure counts the eigenvalues once, above the larger of the reference's
    tolerance and K's own, so a kernel whose rounding noise lies above the
    reference's threshold is not judged by that noise.  A reference's
    tolerance needs its spectrum, so its tolerance_bound is tried first:
    when that bound is at most K's own rows * eps * trace K, the level is
    K's own, as it would be at the exact tolerance, and the reference's
    spectrum is taken only otherwise or when the factorization fails.

    A right-hand side `rhs` r (one entry per row) borders the factored
    matrix, and on success the verdict keeps r as `rhs` and
    sqrt(r^T (K - c m I)^-1 r) as `rhs_norm`, an upper bound on
    sqrt(r^T K^-1 r) since K - c m I < K.  The factored matrix is written
    into the spare array of a network.Workspace `work` that compute_kernel
    has used, if given, and is allocated otherwise.
    """
    k = np.asarray(kernel, dtype=np.float64)
    if k.ndim != 2 or k.shape[0] != k.shape[1] or not np.all(np.isfinite(k)):
        raise ValueError("kernel must be a finite square 2-D array")
    rows = k.shape[0]
    if reference is not None and reference.size != rows:
        raise ValueError(f"kernel dimensions differ: {reference.size} vs {rows} rows; "
                         "same dataset and architecture required")
    if rhs is not None:
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.shape != (rows,) or not np.all(np.isfinite(rhs)):
            raise ValueError(f"rhs must be a finite vector of {rows} entries")
    floor = 0.0
    if reference is not None and reference.tolerance_bound > rows * EPS * float(np.trace(k)):
        floor = reference.tolerance
    out = None if work is None or work.kernel_arrays is None else work.kernel_arrays[2]
    return certified_rank(k, floor, gram=True, rhs=rhs, out=out, _reference=reference)
