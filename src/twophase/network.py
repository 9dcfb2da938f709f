"""Fully-connected softplus networks with optional per-layer batch normalization.

The network maps a batch X (n x m_0) through H hidden layers to a feature
matrix h (n x m_H), then through an affine head to outputs f (n x m_y).
Hidden layer l computes

    z = h_prev @ W_l + b_l          (affine)
    z = BN(z)                       (optional, per unit, batch statistics)
    h = softplus(z; sharpness)

All parameters live in one float64 vector.  Within each layer the weight
matrix and bias row are stacked as [W; b] and vectorized column-major, so the
head block of the vector is exactly the vector the output is linear in:
f(x)^T = (I_{m_y} kron [h(x), 1]) 'head block'.  Batch-norm scale/shift
vectors follow the [W; b] block of their layer and count as hidden-layer
parameters.  `Params` owns that vector; its per-layer arrays are views into
it, so writing a view writes the vector, rebinding a view is an error, and
`Params.to_flat()` returns a copy.  `backprop` returns gradients in the same
layout.

A `Params` carries the architecture, `params.spec`, that every pass,
backprop and kernel of it reads, so none takes a NetworkSpec beside it.
`forward_hidden` is the one function that runs a pass: `forward_output`,
`backprop` and ntk's kernel take the `ForwardTrace` it returns,
which carries the inputs and any frozen statistics of the pass.
`forward_hidden` and `backprop` write their per-layer arrays into a
`Workspace`: the caller's, or a new one for a call that brings none.  A
workspace binds its views once, so a training loop that passes one to every
step allocates no array of the pass's size per step, and a call given one
trusts that its caller checked x and upstream (run_two_phase checks X and Y
once on entry); calls without one check them.  `softplus` and
`softplus_deriv` check their arguments and return new values; the passes and
`ntk` call their unchecked kernels, which write into arrays the caller owns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix

__all__ = [
    "NetworkSpec",
    "Params",
    "ForwardTrace",
    "Workspace",
    "softplus",
    "softplus_deriv",
    "batchnorm_forward",
    "forward_hidden",
    "forward_output",
    "backprop",
    "batch_statistics",
    "params_zero",
    "params_from_flat",
    "random_params",
    "init_params",
]


@dataclass
class NetworkSpec:
    """Architecture description.

    widths: (m_0, m_1, ..., m_H) with m_0 the input dimension and m_H the
    last hidden width.  `bn_flags[l-1]` turns on batch normalization after
    the affine part of hidden layer l.
    """

    widths: tuple
    output_dim: int
    sharpness: float = 100.0
    bn_flags: tuple = ()
    bn_epsilon: float = 1e-5

    def __post_init__(self):
        self.widths = tuple(int(w) for w in self.widths)
        if len(self.widths) < 2:
            raise ValueError("widths must list the input dim and at least one hidden layer")
        if any(w < 1 for w in self.widths) or self.output_dim < 1:
            raise ValueError("all widths must be >= 1")
        if not 0.0 < self.sharpness < np.inf:
            raise ValueError("sharpness must be a positive finite number")
        if not 0.0 < self.bn_epsilon < np.inf:
            raise ValueError("bn_epsilon must be a positive finite number")
        if not self.bn_flags:
            self.bn_flags = (False,) * self.depth
        else:
            self.bn_flags = tuple(bool(f) for f in self.bn_flags)
        if len(self.bn_flags) != self.depth:
            raise ValueError(f"bn_flags must have one entry per hidden layer ({self.depth})")

    @property
    def depth(self) -> int:
        """Number of hidden layers H."""
        return len(self.widths) - 1

    @property
    def input_dim(self) -> int:
        return self.widths[0]

    @property
    def feature_dim(self) -> int:
        """Width of the last hidden layer, m_H."""
        return self.widths[-1]

    def layer_param_sizes(self) -> list:
        """Flat parameter count per layer, hidden layers first, head last."""
        sizes = []
        for l in range(1, self.depth + 1):
            d = (self.widths[l - 1] + 1) * self.widths[l]
            if self.bn_flags[l - 1]:
                d += 2 * self.widths[l]
            sizes.append(d)
        sizes.append((self.feature_dim + 1) * self.output_dim)
        return sizes

    def hidden_param_count(self) -> int:
        return sum(self.layer_param_sizes()[:-1])

    def head_param_count(self) -> int:
        return (self.feature_dim + 1) * self.output_dim

    def param_count(self) -> int:
        return sum(self.layer_param_sizes())


def _layer_views(spec: NetworkSpec, flat: np.ndarray) -> tuple:
    """(weights, biases, bn_scale, bn_shift) of the flat layout, tuples of
    views into `flat`: per layer the [W; b] block split into W and the bias
    row, and per hidden layer the BN scale and shift (None without BN)."""
    dims = (*spec.widths, spec.output_dim)
    weights, biases, scales, shifts = [], [], [], []
    off = 0
    for l, size in enumerate(spec.layer_param_sizes()):
        rows, cols = dims[l] + 1, dims[l + 1]
        block = flat[off : off + rows * cols].reshape(rows, cols, order="F")
        weights.append(block[:-1])
        biases.append(block[-1:])
        if l < spec.depth:
            bn = spec.bn_flags[l]
            end = off + size
            scales.append(flat[end - 2 * cols : end - cols] if bn else None)
            shifts.append(flat[end - cols : end] if bn else None)
        off += size
    return tuple(weights), tuple(biases), tuple(scales), tuple(shifts)


class Params:
    """All parameters of one network, held in a single float64 buffer, and
    `spec`, the architecture every function given them reads.

    `flat` is that buffer, in the layout of the module docstring.  weights[l]
    is W_{l+1} (m_l x m_{l+1}) and biases[l] its 1 x m_{l+1} bias row; the
    last entries are the head.  bn_scale/bn_shift have one entry per hidden
    layer, None where batch normalization is off.

    Every per-layer array is a view into `flat`: an in-place write such as
    `p.weights[0][:] = w` or `p.flat -= step` changes the parameters, and the
    view tuples reject rebinding (`p.weights[0] = w` raises TypeError).
    `to_flat()` and `copy()` return independent copies.
    """

    def __init__(self, spec: NetworkSpec, flat: np.ndarray | None = None):
        d = spec.param_count()
        if flat is None:
            flat = np.zeros(d)
        if flat.dtype != np.float64 or flat.shape != (d,):
            raise ValueError(f"flat vector has {flat.size} {flat.dtype} entries, expected {d} float64")
        self.spec = spec
        self.flat = flat
        self.weights, self.biases, self.bn_scale, self.bn_shift = _layer_views(spec, flat)
        self._head = flat[spec.hidden_param_count():].reshape(
            spec.feature_dim + 1, spec.output_dim, order="F")

    @property
    def depth(self) -> int:
        return self.spec.depth

    def copy(self) -> "Params":
        return Params(self.spec, self.flat.copy())

    def head_block(self) -> np.ndarray:
        """Stacked [W; b] of the output head, shape (m_H + 1) x m_y: a
        column-major view into `flat`, so writing into it sets the head."""
        return self._head

    def to_flat(self) -> np.ndarray:
        return self.flat.copy()


def params_zero(spec: NetworkSpec) -> Params:
    """Zero weights and biases, identity batch normalization."""
    p = Params(spec)
    for gamma in p.bn_scale:
        if gamma is not None:
            gamma[:] = 1.0
    return p


def params_from_flat(spec: NetworkSpec, flat: np.ndarray) -> Params:
    """Params over `flat`, the layout Params.to_flat returns.

    A float64 vector is wrapped, not copied, so the result aliases it.
    """
    return Params(spec, np.asarray(flat, dtype=np.float64).ravel())


def random_params(spec: NetworkSpec, rng, scale: float = 1.0) -> Params:
    """Gaussian draw of every parameter; BN scales centered at 1."""
    p = params_zero(spec)
    for l in range(spec.depth + 1):
        p.weights[l][:] = rng.standard_normal(p.weights[l].shape) * scale
        p.biases[l][:] = rng.standard_normal(p.biases[l].shape) * scale
        if l < spec.depth and p.bn_scale[l] is not None:
            p.bn_scale[l][:] = 1.0 + rng.standard_normal(p.bn_scale[l].shape) * scale
            p.bn_shift[l][:] = rng.standard_normal(p.bn_shift[l].shape) * scale
    return p


def init_params(spec: NetworkSpec, seed: int = 0) -> Params:
    """Fan-in scaled Gaussian weights, zero biases, identity BN."""
    rng = np.random.default_rng(seed)
    p = params_zero(spec)
    for l in range(spec.depth + 1):
        fan_in = p.weights[l].shape[0]
        p.weights[l][:] = rng.standard_normal(p.weights[l].shape) * np.sqrt(2.0 / fan_in)
    return p


# ---------------------------------------------------------------------------
# elementwise pieces
# ---------------------------------------------------------------------------

def softplus(z, sharpness: float):
    """ln(1 + exp(s z)) / s via the overflow-free split max(z,0) + ln(1+e^{-s|z|})/s;
    a float for a 0-d input."""
    if sharpness <= 0:
        raise ValueError("sharpness must be positive")
    z = np.asarray(z, dtype=np.float64)
    out = _softplus(z, sharpness, np.empty_like(z), np.empty_like(z))
    return out if out.ndim else float(out)


def _softplus(z, sharpness, out, scratch):
    """softplus's kernel, unchecked: writes into `out` using `scratch`."""
    np.maximum(z, 0.0, out=scratch)
    np.abs(z, out=out)
    out *= -sharpness
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out /= sharpness
    np.add(scratch, out, out=out)
    return out


def softplus_deriv(z, sharpness: float):
    """Logistic(s z), the exact derivative of the stabilized softplus; a
    float for a 0-d input."""
    z = np.asarray(z, dtype=np.float64)
    out = _softplus_deriv(z, sharpness, np.empty_like(z))
    return out if out.ndim else float(out)


def _softplus_deriv(z, sharpness, out):
    """softplus_deriv's kernel, unchecked: writes into `out`."""
    # logistic(t) = (1 + tanh(t/2)) / 2 is overflow-free for all t
    np.multiply(z, 0.5 * sharpness, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def batchnorm_forward(z_batch, gamma, beta, eps):
    """Normalize a batch per unit: gamma * ((z - mu) / sqrt(var + eps)) + beta,
    mu and var the batch mean and population variance of `z_batch` (over
    axis 0), evaluated as a training-mode forward_hidden pass does."""
    z = np.asarray(z_batch, dtype=np.float64)
    if z.size == 0:
        raise ValueError("batch normalization needs a nonempty batch")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    return gamma * ((z - z.mean(axis=0)) / np.sqrt(z.var(axis=0) + eps)) + beta


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

@dataclass
class ForwardTrace:
    """All intermediates of one forward pass, enough to backpropagate."""

    inputs: np.ndarray
    affine: list            # z per hidden layer (pre-BN)
    bn_cache: list          # (mu, var, z_hat, z_bn) or None per hidden layer
    post: list              # h per hidden layer
    frozen_stats: list | None = None
    output: np.ndarray | None = None

    @property
    def hidden(self) -> np.ndarray:
        """Feature matrix h of the last hidden layer, n x m_H."""
        return self.post[-1]


class Workspace:
    """The arrays forward_hidden and backprop write into, for passes of at
    most `rows` rows: per hidden layer the affine and post arrays,
    softplus's max(z, 0) scratch and the deltas d/dh and d/dz; and one
    gradient vector `grad`, with `grad_views` its (weights, biases,
    bn_scale, bn_shift) views as in Params.  A pass over fewer rows writes
    the leading rows, which `views` slices once per row count.
    `kernel_arrays` holds the arrays of ntk.compute_kernel, for a pass over
    all rows, which it allocates on first use.  A call given no workspace
    makes its own.  The next pass, backprop or kernel given the workspace
    overwrites the trace, gradient or kernel the last one returned.
    """

    def __init__(self, spec: NetworkSpec, rows: int):
        self.affine, self.post, self.scratch, self.dh, self.dz = (
            [np.empty((rows, m)) for m in spec.widths[1:]] for _ in range(5))
        self.grad = np.empty(spec.param_count())
        self.grad_views = _layer_views(spec, self.grad)
        self._views = {}
        self.kernel_arrays = None  # ntk.compute_kernel's, made on first use

    def views(self, rows: int) -> tuple:
        """Per hidden layer the leading `rows` rows of the (affine, post,
        scratch) arrays, and per hidden layer those of the (dh, dz) arrays."""
        views = self._views.get(rows)
        if views is None:
            views = self._views[rows] = tuple(
                [tuple(a[:rows] for a in layer) for layer in zip(*group)]
                for group in ((self.affine, self.post, self.scratch), (self.dh, self.dz)))
        return views


def _validate_forward_shapes(params: Params, x: np.ndarray, frozen_stats=None) -> None:
    spec = params.spec
    if frozen_stats is not None and len(frozen_stats) != spec.depth:
        raise ValueError("frozen_stats must have one entry per hidden layer")
    if x.shape[1] != spec.input_dim:
        raise ValueError(
            f"input has {x.shape[1]} columns, layer 1 expects {spec.input_dim}"
        )


def forward_hidden(params: Params, x, frozen_stats=None,
                   work: Workspace | None = None) -> ForwardTrace:
    """Run the hidden stack on a batch; returns the full trace.

    `frozen_stats` is a per-hidden-layer list of (mean, var) pairs (None for
    layers without BN); when given, BN layers use those statistics instead
    of the batch's own, which makes every row a function of its own input.
    The affine and post arrays of the trace are views into the Workspace
    `work`, or a new one without it; given one, x must be a finite float64
    matrix with m_0 columns and frozen_stats, if given, hold one entry per
    hidden layer, and without one both are checked.
    """
    spec = params.spec
    if work is None:
        x = as_matrix(x, "X")
        _validate_forward_shapes(params, x, frozen_stats)
        work = Workspace(spec, x.shape[0])
    affine, bn_cache, post = [], [], []
    h = x
    for l, (z, out, scratch) in enumerate(work.views(x.shape[0])[0]):
        z = np.matmul(h, params.weights[l], out=z)
        z += params.biases[l]
        affine.append(z)
        sig_in = z
        if spec.bn_flags[l]:
            if frozen_stats is not None:
                mu, var = frozen_stats[l]
            else:
                mu, var = z.mean(axis=0), z.var(axis=0)
            z_hat = (z - mu) / np.sqrt(var + spec.bn_epsilon)
            sig_in = params.bn_scale[l] * z_hat + params.bn_shift[l]
            bn_cache.append((mu, var, z_hat, sig_in))
        else:
            bn_cache.append(None)
        h = _softplus(sig_in, spec.sharpness, out, scratch)
        post.append(h)
    return ForwardTrace(x, affine, bn_cache, post, frozen_stats=frozen_stats)


def forward_output(params: Params, trace: ForwardTrace):
    """Head outputs f = [h, 1] [W; b] of the pass `trace` of `params`,
    shape n x m_y.  Fills trace.output."""
    trace.output = trace.hidden @ params.weights[-1] + params.biases[-1]
    return trace.output


def batch_statistics(trace: ForwardTrace) -> list:
    """Extract per-layer (mean, var) pairs from a training-mode trace."""
    stats = []
    for cache in trace.bn_cache:
        stats.append(None if cache is None else (cache[0].copy(), cache[1].copy()))
    return stats


def _bn_backward(dz_bn, cache, gamma, eps, frozen: bool):
    mu, var, z_hat, _ = cache
    dgamma = (dz_bn * z_hat).sum(axis=0)
    dbeta = dz_bn.sum(axis=0)
    dz_hat = dz_bn * gamma
    inv_std = 1.0 / np.sqrt(var + eps)
    if frozen:
        dz = dz_hat * inv_std
    else:
        n = dz_bn.shape[0]
        dz = (inv_std / n) * (
            n * dz_hat - dz_hat.sum(axis=0) - z_hat * (dz_hat * z_hat).sum(axis=0)
        )
    return dz, dgamma, dbeta


def backprop(params: Params, trace: ForwardTrace, upstream,
             work: Workspace | None = None) -> np.ndarray:
    """Gradient of <upstream, f(X)> with respect to the flat parameter
    vector, at the pass `trace` of `params` on X.

    `upstream` is d(objective)/d(f), shape n x m_y.  BN layers
    differentiate through their batch statistics unless the trace was built
    with frozen ones.  The deltas and the gradient returned are written into
    the Workspace `work`, or a new one without it; given one, upstream must
    be a finite float64 n x m_y matrix, and without one it is checked.
    """
    spec, n = params.spec, trace.inputs.shape[0]
    if work is None:
        upstream = as_matrix(upstream, "upstream")
        if upstream.shape != (n, spec.output_dim):
            raise ValueError(
                f"upstream has shape {upstream.shape}, expected {(n, spec.output_dim)}"
            )
        work = Workspace(spec, n)
    deltas = work.views(n)[1]
    frozen = trace.frozen_stats is not None

    # every entry of the gradient vector is written once, through its
    # per-layer views: the [W; b] block and under BN the scale and shift
    g_weights, g_biases, g_scale, g_shift = work.grad_views
    g_weights[-1][:] = trace.post[-1].T @ upstream
    g_biases[-1][:] = upstream.sum(axis=0)
    dh = np.matmul(upstream, params.weights[-1].T, out=deltas[-1][0])
    for l in reversed(range(len(deltas))):
        cache = trace.bn_cache[l]
        sig_in = trace.affine[l] if cache is None else cache[3]
        dz = _softplus_deriv(sig_in, spec.sharpness, deltas[l][1])
        np.multiply(dh, dz, out=dz)
        if cache is not None:
            dz, g_scale[l][:], g_shift[l][:] = _bn_backward(
                dz, cache, params.bn_scale[l], spec.bn_epsilon, frozen
            )
        h_prev = trace.inputs if l == 0 else trace.post[l - 1]
        g_weights[l][:] = h_prev.T @ dz
        g_biases[l][:] = dz.sum(axis=0)
        if l > 0:
            dh = np.matmul(dz, params.weights[l].T, out=deltas[l - 1][0])
    return work.grad
