"""Dataset container, synthetic generation on the unit sphere, CSV round trip.

Synthetic inputs are sampled on the unit sphere with rejection until every
pair satisfies ||x_i - x_j||^2 >= 2 c_min.  For unit-norm rows this is the
same as the pairwise margin ||x_i||^2 - x_i.x_j >= c_min, which is the
condition the distinguishability check certifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix
from .network import NetworkSpec, forward_hidden, forward_output, random_params

__all__ = ["Dataset", "synth_gen", "load_csv", "save_csv", "one_hot"]

TARGET_KINDS = ("regression", "class_index", "one_hot")
MAX_REJECTIONS = 1_000_000  # synth_gen's cap on candidate points too close to a kept one
BLOCK_ENTRIES = 1 << 20  # cap on a block of candidates' entries times (m_x + points kept)


@dataclass
class Dataset:
    """Inputs X (n x m_x), targets Y (n x m_y), and the kind of the targets.

    For kind "class_index" the integer labels are kept alongside the
    one-hot expansion stored in Y.
    """

    x: np.ndarray
    y: np.ndarray
    kind: str = "regression"
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.x = as_matrix(self.x, "X")
        self.y = as_matrix(self.y, "Y")
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError("X and Y must have the same number of rows")
        if self.kind not in TARGET_KINDS:
            raise ValueError(f"unknown target kind {self.kind!r}")
        if self.kind == "one_hot":
            sums = self.y.sum(axis=1)
            if np.any(np.abs(sums - 1.0) > 1e-9):
                raise ValueError("one-hot rows must sum to 1")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def input_dim(self) -> int:
        return self.x.shape[1]

    @property
    def output_dim(self) -> int:
        return self.y.shape[1]


def one_hot(labels, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if labels.min(initial=0) < 0 or (labels.size and labels.max() >= num_classes):
        raise ValueError(f"labels must lie in [0, {num_classes})")
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


def _packing_limit(m_x: int, c_min: float) -> float:
    """An upper bound on how many points of the unit sphere in R^m_x lie
    pairwise at squared distance >= 2 c_min, that is at angle >= theta =
    arccos(1 - c_min).  Caps of angular radius a = theta / 2 around them are
    disjoint, so at most W_k / I_k(a) fit, I_k(a) the integral of sin^k
    over [0, a], k = m_x - 2, and W_k = I_k(pi); as sin is concave on
    [0, pi], I_k(a) >= a sin(a)^k / (k + 1).  On the circle (k = 0) the
    bound is 2 pi / theta, which the regular polygon attains (the 1e-9
    keeps rounding from cutting it); the sphere of the line holds 2."""
    if m_x == 1:
        return 2
    k = m_x - 2
    a = 0.5 * math.acos(1.0 - c_min)
    log_w = 0.5 * math.log(math.pi) + math.lgamma((k + 1) / 2) - math.lgamma(k / 2 + 1)
    log_limit = log_w + math.log(k + 1) - math.log(a) - k * math.log(math.sin(a))
    return math.floor(math.exp(log_limit) * (1.0 + 1e-9)) if log_limit < 700.0 else math.inf


def _sphere_points(n: int, m_x: int, c_min: float, rng) -> np.ndarray:
    """n points of the unit sphere pairwise at squared distance >= 2 c_min:
    each candidate a normalized Gaussian draw, kept if it is that far from
    every point kept before it.

    Candidates are drawn in blocks.  A block's distances to the kept points
    are first estimated at once from u.p (u a candidate's direction, p a
    kept point), and a candidate short of the margin by more than the
    estimate's rounding is rejected; the rest are tested in order exactly
    as a single draw would be.  Once n points are kept the generator is set
    back to where drawing candidates one at a time would have left it, so
    the points and the draws that follow are those of that loop.
    ValueError once MAX_REJECTIONS candidates fell short.
    """
    pts = np.empty((n, m_x))
    count = rejections = drawn = 0
    min_sq_dist = 2.0 * c_min
    # u.p <= cos_max clears the margin by the estimate; the slack is far
    # above its rounding, about m_x eps
    cos_max = 1.0 - 0.5 * (min_sq_dist - 1e-10 * (m_x + 8))
    while True:
        state = rng.bit_generator.state
        # about twice the draws the acceptance rate so far needs, within
        # BLOCK_ENTRIES per column and kept point
        size = max(16, min(2 * (n - count) * (drawn + 1) // (count + 1),
                           BLOCK_ENTRIES // (count + m_x)))
        drawn += size
        block = rng.standard_normal((size, m_x))
        norms = np.sqrt(np.einsum("ij,ij->i", block, block))
        nonzero = norms > 0.0  # a zero draw is skipped, not rejected
        maybe = nonzero
        if count:
            maybe = nonzero & ((block @ pts[:count].T).max(axis=1) <= cos_max * norms)
        short = np.cumsum(nonzero & ~maybe).tolist()  # rejections up to each row
        tested = 0  # candidates the exact test rejected
        for i in np.flatnonzero(maybe).tolist():
            if rejections + short[i] + tested >= MAX_REJECTIONS:
                break
            v = block[i].copy()
            v /= np.linalg.norm(v)
            if count and np.min(((pts[:count] - v) ** 2).sum(axis=1)) < min_sq_dist:
                tested += 1
                continue
            pts[count] = v
            count += 1
            if count == n:
                rng.bit_generator.state = state
                rng.standard_normal((i + 1, m_x))
                return pts
        rejections += short[-1] + tested
        if rejections >= MAX_REJECTIONS:
            raise ValueError(
                f"rejection sampling failed {MAX_REJECTIONS} times at margin "
                f"{c_min}; reduce c_min or n (draws on the sphere in dimension "
                f"{m_x} jammed short of {n} points this far apart)"
            )


def synth_gen(n: int, m_x: int, m_y: int, c_min: float, kind: str = "regression",
              seed: int = 0) -> Dataset:
    """Distinguishable synthetic dataset: unit-sphere inputs, margin >= c_min.

    Regression targets come from a fixed random teacher network;
    classification targets are uniform labels.  Raises ValueError, before
    any draw, when n exceeds _packing_limit, and otherwise once
    MAX_REJECTIONS candidate points fell too close to a kept one.
    """
    if not 0.0 < c_min < 1.0:
        raise ValueError("c_min must lie in (0, 1)")
    if min(n, m_x, m_y) < 1:
        raise ValueError("n, m_x, m_y must all be >= 1")
    if kind not in TARGET_KINDS:
        raise ValueError(f"unknown target kind {kind!r}")
    most = _packing_limit(m_x, c_min)
    if n > most:
        raise ValueError(f"the unit sphere in dimension {m_x} holds at most {most} points at "
                         f"margin {c_min}, fewer than n = {n}; reduce n or c_min, or raise m_x")
    rng = np.random.default_rng(seed)
    x = _sphere_points(n, m_x, c_min, rng)
    if kind == "regression":
        teacher = NetworkSpec((m_x, max(8, 2 * m_x)), m_y, sharpness=1.0)
        t_params = random_params(teacher, np.random.default_rng(seed + 1), scale=1.0)
        y = forward_output(t_params, forward_hidden(t_params, x))
        return Dataset(x, y, kind)
    labels = rng.integers(0, m_y, size=n)
    y = one_hot(labels, m_y)
    if kind == "class_index":
        return Dataset(x, y, kind, labels=labels)
    return Dataset(x, y, kind)


def save_csv(dataset: Dataset, path) -> None:
    """Features then targets, comma separated, no header, 17 significant digits."""
    with open(path, "w") as fh:
        for i in range(dataset.n):
            cells = [f"{v:.17g}" for v in dataset.x[i]]
            if dataset.kind == "class_index":
                cells.append(str(int(dataset.labels[i])))
            else:
                cells.extend(f"{v:.17g}" for v in dataset.y[i])
            fh.write(",".join(cells) + "\n")


def load_csv(path, m_x: int, kind: str = "regression", m_y: int | None = None) -> Dataset:
    """Parse a dataset written by save_csv (or by hand, same layout)."""
    if kind not in TARGET_KINDS:
        raise ValueError(f"unknown target kind {kind!r}")
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) <= m_x:
                raise ValueError(
                    f"{path}:{lineno}: expected {m_x} feature columns plus targets, "
                    f"got {len(cells)} cells"
                )
            try:
                values = [float(c) for c in cells]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if not all(np.isfinite(values)):
                raise ValueError(f"{path}:{lineno}: non-finite value")
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: empty dataset file")
    width = len(rows[0])
    for lineno, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ValueError(f"{path}:{lineno}: ragged row ({len(row)} cells, expected {width})")
    arr = np.asarray(rows)
    x = arr[:, :m_x]
    rest = arr[:, m_x:]
    if kind == "class_index":
        if rest.shape[1] != 1:
            raise ValueError(f"{path}: class_index expects exactly one target column")
        labels = rest[:, 0]
        if np.any(labels != np.round(labels)):
            raise ValueError(f"{path}: class labels must be integers")
        labels = labels.astype(np.int64)
        classes = m_y if m_y is not None else int(labels.max()) + 1
        return Dataset(x, one_hot(labels, classes), kind, labels=labels)
    if m_y is not None and rest.shape[1] != m_y:
        raise ValueError(f"{path}: expected {m_y} target columns, found {rest.shape[1]}")
    return Dataset(x, rest, kind)
