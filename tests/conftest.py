"""Shared oracles for the test suite: the per-row Jacobian, finite
differences, error metrics and the state at tau a run's TrainLog keeps."""

import numpy as np
import pytest

from twophase.losses import loss_value
from twophase.network import (
    NetworkSpec,
    Workspace,
    backprop,
    forward_hidden,
    forward_output,
    params_from_flat,
    random_params,
)


def max_rel_err(a, b):
    """Largest entrywise difference relative to the largest entry magnitude."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-12)
    return float(np.max(np.abs(a - b)) / scale)


def compute_jacobian(params, trace):
    """Full output Jacobian at the pass `trace` of `params`, shape
    (n * m_y) x d, rows sample-major as in twophase.ntk: one backward pass
    per (sample, output) row over the trace, so training-mode BN has its
    batch statistics differentiated exactly, and in a trace built with
    frozen statistics they are constants.  The passes share one Workspace,
    each row copied out of its gradient.  The per-row oracle that
    ntk.compute_kernel's layer-wise sum is checked against."""
    n, m_y = trace.inputs.shape[0], params.spec.output_dim
    jac = np.zeros((n * m_y, params.spec.param_count()))
    upstream = np.zeros((n, m_y))
    work = Workspace(params.spec, n)
    for i in range(n):
        for k in range(m_y):
            upstream[i, k] = 1.0
            jac[i * m_y + k] = backprop(params, trace, upstream, work=work)
            upstream[i, k] = 0.0
    return jac


def outputs(params, x, frozen_stats=None):
    """f(X): the head outputs of the pass of params on x."""
    return forward_output(params, forward_hidden(params, x, frozen_stats))


def jacobian(params, x, frozen_stats=None):
    """J: the output Jacobian at the pass of params on x."""
    return compute_jacobian(params, forward_hidden(params, x, frozen_stats))


def fd_loss_grad(params, x, y, kind, frozen_stats=None, step=1e-5):
    """Central finite differences of the scalar loss over the flat parameters."""
    w = params.to_flat()
    out = np.empty_like(w)
    for j in range(w.size):
        wp = w.copy()
        wp[j] += step
        wm = w.copy()
        wm[j] -= step
        fp = outputs(params_from_flat(params.spec, wp), x, frozen_stats)
        fm = outputs(params_from_flat(params.spec, wm), x, frozen_stats)
        out[j] = (loss_value(kind, fp, y) - loss_value(kind, fm, y)) / (2 * step)
    return out


def fd_jacobian(params, x, frozen_stats=None, step=1e-5):
    """Central finite differences of vec(f(X)^T) over the flat parameters."""
    w = params.to_flat()
    n = np.asarray(x).shape[0]
    rows = n * params.spec.output_dim
    out = np.empty((rows, w.size))
    for j in range(w.size):
        wp = w.copy()
        wp[j] += step
        wm = w.copy()
        wm[j] -= step
        fp = outputs(params_from_flat(params.spec, wp), x, frozen_stats)
        fm = outputs(params_from_flat(params.spec, wm), x, frozen_stats)
        out[:, j] = ((fp - fm) / (2 * step)).reshape(-1)
    return out


def masked_flat(params):
    """nu o w: the flat parameters with every hidden (and BN) entry zero and
    the head's kept."""
    flat = params.to_flat()
    flat[: params.spec.hidden_param_count()] = 0.0
    return flat


def unit_rows(x):
    """x with every row scaled to unit Euclidean norm."""
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def features_at_tau(x, log):
    """h at tau, the features the head phase ran on: the pass of
    log.params_at_tau under the batch statistics frozen there."""
    return forward_hidden(log.params_at_tau, x, log.frozen_stats).hidden


def random_small_config(rng, allow_bn=True):
    """A small random architecture with parameters and a batch, for FD checks."""
    depth = int(rng.integers(1, 4))
    widths = tuple(int(w) for w in rng.integers(2, 6, size=depth + 1))
    m_y = int(rng.integers(1, 4))
    sharpness = float(rng.choice([1.0, 10.0, 100.0]))
    if allow_bn:
        flags = tuple(bool(b) for b in rng.integers(0, 2, size=depth))
    else:
        flags = (False,) * depth
    eps = float(rng.choice([1e-5, 1e-2]))
    spec = NetworkSpec(widths, m_y, sharpness=sharpness, bn_flags=flags, bn_epsilon=eps)
    params = random_params(spec, rng, scale=0.8)
    n = int(rng.integers(2, 7))
    x = rng.standard_normal((n, widths[0]))
    return spec, params, x


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
