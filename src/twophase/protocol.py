"""The training protocol: the two configs run_two_phase takes, and its errors.

BaseAlgoConfig and TwoPhaseConfig hold every hyperparameter of a run and
check it on construction; their field defaults are the reference protocol,
which the CLI's config sections take as their defaults.  FeatureRankError
and RankPreservationError are the trainer's numeric failures.  None of this
needs the trainer itself, so a command that only reads the protocol (as
`verify` and `gen-data` do) does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PHASE2_MODES",
    "BaseAlgoConfig",
    "TwoPhaseConfig",
    "FeatureRankError",
    "RankPreservationError",
]

PHASE2_MODES = ("last_layer_gd", "last_layer_sgd", "lazy_full")


class FeatureRankError(RuntimeError):
    """Features [h, 1] lost row rank right after perturbation, at step tau
    (phase 2), which the message names.

    This has probability zero over the Gaussian draw when the expressivity
    condition holds, so seeing it means one of two things.  The last hidden
    layer is too narrow (m_H + 1 < n): widen it.  Or phase 1 collapsed the
    features, so that the kick cannot separate them: a diverging or
    over-sharp run saturates its softplus units until rows coincide.  The
    message says which holds, with phase 1's loss ratio (last over first)
    and the count of last-layer units inactive on every sample, and advises
    a smaller learning rate when the loss rose, else another seed or a
    smaller sharpness; it ends with the first phase-1 step whose loss
    exceeded the initial loss, if one did.
    """


class RankPreservationError(RuntimeError):
    """Lazy-phase step rejected repeatedly; rate halving hit its retry cap."""


@dataclass
class BaseAlgoConfig:
    """First-phase algorithm: plain GD or minibatch SGD with momentum."""

    variant: str = "sgd_momentum"
    learning_rate: float = 0.01
    momentum: float = 0.9
    minibatch: int = 64
    weight_decay: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        if self.variant not in ("gd", "sgd_momentum"):
            raise ValueError(f"unknown base variant {self.variant!r}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be a positive finite number")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.minibatch < 1:
            raise ValueError("minibatch must be >= 1")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ValueError("weight_decay must be a nonnegative finite number")


@dataclass
class TwoPhaseConfig:
    """Split point, noise scales, and the second-phase mode and schedule."""

    tau: int
    total_steps: int
    noise_scale: float | tuple = 1e-3
    phase2_mode: str = "last_layer_gd"
    sgd_rate_scale: float = 0.01
    sgd_minibatch: int = 64
    lazy_eta_bar: float = 0.5
    lazy_lipschitz: float | None = None
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.tau <= self.total_steps:
            raise ValueError(f"need 0 <= tau <= total_steps, got {self.tau}, {self.total_steps}")
        if self.phase2_mode not in PHASE2_MODES:
            raise ValueError(f"unknown phase2_mode {self.phase2_mode!r}")
        _noise_scales(self.noise_scale, np.size(self.noise_scale))  # positive and finite
        if not 0.0 < self.sgd_rate_scale < math.inf:
            raise ValueError("sgd_rate_scale must be a positive finite number")
        if self.sgd_minibatch < 1:
            raise ValueError("sgd_minibatch must be >= 1")
        if self.lazy_lipschitz is not None and not 0.0 < self.lazy_lipschitz < math.inf:
            raise ValueError("lazy_lipschitz must be a positive finite number or None")
        if self.phase2_mode == "lazy_full" and not 0.0 < self.lazy_eta_bar < 1.0:
            raise ValueError("lazy_eta_bar must lie in (0, 1)")

    @classmethod
    def from_fraction(cls, tau_fraction: float, total_steps: int, **kwargs) -> "TwoPhaseConfig":
        """tau = floor(tau_fraction * total_steps), exact for the decimal
        tau_fraction is written as (0.29 at 100 steps gives 29, where the
        float product 28.999999999999996 would floor to 28)."""
        if not 0.0 <= tau_fraction <= 1.0:
            raise ValueError("tau_fraction must lie in [0, 1]")
        # the shortest decimal of the float, as digits / 10**places in
        # integers; repr writes a fraction below 1e-4 as 'd.ddde-XX'
        mantissa, _, exponent = repr(float(tau_fraction)).partition("e")
        whole, _, decimals = mantissa.partition(".")
        places = len(decimals) - int(exponent or 0)
        return cls(tau=int(whole + decimals) * total_steps // 10**places,
                   total_steps=total_steps, **kwargs)


def _noise_scales(cfg_scale, depth: int) -> np.ndarray:
    scales = np.atleast_1d(np.asarray(cfg_scale, dtype=np.float64))
    if scales.size == 1:
        scales = np.full(depth, scales[0])
    if scales.size != depth:
        raise ValueError(f"expected {depth} noise scales, got {scales.size}")
    if not np.all((scales > 0) & (scales < np.inf)):
        raise ValueError("noise_scale must be positive and finite (non-degenerate Gaussian)")
    return scales
