"""Dense matrix primitives: the package's one rank rule (certified_rank), the
min-norm solve it guards, and the augmented feature matrix [h, 1] they are
applied to.

Every rank verdict in the package comes from certified_rank: one Cholesky
factorization of a Gram matrix shifted down by a multiple of a rounding
level proves full rank, and a spectrum (a kernel's eigvalsh, else the Sigma
of the cached thin SVD min_norm_solve reads) counts it if that fails.

Everything here operates on plain float64 ndarrays.  Inputs are validated
once at the boundary (`as_matrix`) so downstream code can assume finite,
two-dimensional, row-major float64 data.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DecompositionError",
    "RankDeficientError",
    "Rank",
    "as_matrix",
    "append_ones",
    "certified_rank",
    "min_norm_solve",
]

EPS = np.finfo(np.float64).eps
# a Gram whose trace is below this is counted, not factored: its rounding is
# no longer relative to its entries (gradual underflow)
MIN_TRACE = np.finfo(np.float64).tiny / EPS
# certified_rank factors the Gram shifted down by CHOLESKY_SHIFT times its level
CHOLESKY_SHIFT = 4.0
# relative margin of Rank.tolerance_bound over the exact tolerance
BOUND_SLACK = 1e-6


class DecompositionError(RuntimeError):
    """A matrix factorization failed to converge; never reported as rank 0."""


class RankDeficientError(ValueError):
    """A solve required full row rank and did not get it."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce `a` to a 2-D float64 C-contiguous array, rejecting NaN/Inf."""
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={m.ndim}")
    if m.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def append_ones(h: np.ndarray) -> np.ndarray:
    """[h, 1]: `h` with an all-ones column appended (the augmented features)."""
    return np.hstack([h, np.ones((h.shape[0], 1))])


class Rank:
    """A verdict of certified_rank on `matrix` (`gram`: a kernel, itself a
    Gram matrix): `rank`, the `level` its factorization was tried at, and
    whether that factorization `proved` the rank, which is then full,
    `size` = min(rows, cols).  A bordered success keeps its right-hand side
    as `rhs` and ||L^-1 rhs|| as `rhs_norm`; both are None otherwise.

    The rank counts `spectrum` above `tolerance`, the stock threshold
    max(rows, cols) * eps * its largest value (a kernel that ntk.compute_ntk
    judges against a reference verdict: above the larger of the two
    tolerances); the spectrum is a kernel's eigenvalues clipped at 0, or a
    matrix's singular values, the Sigma of `svd` = (U, Sigma, V^T), its thin
    SVD, descending, and is computed once, on first use: only when the
    factorization failed, or a caller (min_norm_solve) asks.  tolerance_bound
    is a kernel's only: a matrix's level is on its Gram's scale, sigma^2,
    and its spectrum on sigma's, so it raises ValueError for a matrix
    verdict.
    """

    def __init__(self, matrix: np.ndarray, gram: bool, level: float):
        self.matrix, self.gram, self.level = matrix, gram, level
        self.size = min(matrix.shape)
        self.rank, self.proved, self.rhs, self.rhs_norm = 0, False, None, None
        self._spectrum = self._svd = self._tolerance = self._bound = None

    @property
    def svd(self):
        if self._svd is None:
            try:
                self._svd = np.linalg.svd(self.matrix, full_matrices=False)
            except np.linalg.LinAlgError as exc:
                raise DecompositionError(
                    f"SVD failed on {self.matrix.shape} matrix: {exc}") from exc
        return self._svd

    @property
    def spectrum(self) -> np.ndarray:
        if not self.gram:
            return self.svd[1]
        if self._spectrum is None:
            try:
                values = np.linalg.eigvalsh(self.matrix)
            except np.linalg.LinAlgError as exc:
                raise DecompositionError(
                    f"spectrum of {self.size} x {self.size} kernel failed: {exc}") from exc
            self._spectrum = np.maximum(values, 0.0)[::-1]
        return self._spectrum

    @property
    def tolerance(self) -> float:
        if self._tolerance is None:
            top = float(self.spectrum[0]) if self.size else 0.0
            self._tolerance = max(self.matrix.shape) * EPS * top
        return self._tolerance

    @property
    def tolerance_bound(self) -> float:
        """An upper bound on a kernel's `tolerance` with no spectrum:
        rows * eps * min(trace K, ||K||_inf), each at least the largest
        eigenvalue, raised by BOUND_SLACK for the rounding of the sums and
        of eigvalsh."""
        if not self.gram:
            raise ValueError("tolerance_bound takes kernel verdicts only: a matrix "
                             "verdict's level is on its Gram's scale, sigma^2, and its "
                             "spectrum on sigma's")
        if self._bound is None:
            k = self.matrix
            top = min(float(np.trace(k)), float(np.abs(k).sum(axis=1).max()))
            self._bound = self.size * EPS * top * (1.0 + BOUND_SLACK)
        return self._bound

    def count_above(self, tol: float) -> int:
        """How many values of the spectrum exceed tol."""
        return int(np.count_nonzero(self.spectrum > tol))


def certified_rank(m, floor: float = 0.0, gram: bool = False, rhs=None, out=None, *,
                   _reference: Rank | None = None) -> Rank:
    """The rank of `m` under the package's one rank rule: the count of its
    spectrum above the stock threshold (Rank), proved by one Cholesky
    factorization when the rank is full, and counted from a spectrum only
    when that factorization fails.

    A matrix A (rows x cols, checked by as_matrix) is judged through its
    Gram G = A A^T, or A^T A when cols < rows, of size s = min(rows, cols),
    and a symmetric positive semidefinite kernel K (`gram`, square, finite,
    unchecked here) through itself, G = K.  With k = max(rows, cols) and
    the level m = max(floor, k * eps * trace G), the factorization is of
    G - 4 m I.  Why a success proves full rank, by the argument of Higham
    ("Accuracy and Stability of Numerical Algorithms", Thm 10.3): the
    computed factor R has R^T R = G - 4 m I + E with
    |E_ij| <= gamma_{s+1} ||R e_i|| ||R e_j||, so ||E||_2 <= gamma_{s+1}
    trace G (1 + O(s eps)) <= m, as gamma_{s+1} ~ (s + 1) eps / 2 <= k eps;
    rounding the shifted diagonal adds at most eps/2 (trace G + 4 m), about
    m/2 or less.  A success thus leaves lambda_min(G) >= 4m - 1.5m = 2.5m.
    A kernel's eigenvalues then all exceed m >= rows * eps * lambda_max,
    with margin for eigvalsh's own rounding, so its count is rows too.  For
    a matrix, G is itself rounded: forming it errs by at most gamma_inner
    ||a_i|| ||a_j|| per entry (a_i its rows, or columns), so by
    gamma_inner trace G <= (k eps / 2) trace G (1 + O(k eps)) <= m/2 in
    norm, and sigma_min(A)^2 >= 2m >= 2 k eps sigma_max^2: sigma_min is
    above the stock threshold k eps sigma_max by the factor
    sqrt(2 / (k eps)) (over 10^5 for k up to 10^5), which no SVD's rounding,
    a small multiple of eps sigma_max, can close, so the SVD would count s
    too.  So a proved verdict is the count the spectrum would give, and a
    Gram whose condition number exceeds about 1 / (k eps) (an A whose own
    exceeds about 10^7 at k near 100) is counted, not proved.  Rounding is
    relative only above underflow, so a trace below MIN_TRACE (or not
    finite) is counted without a factorization.  A failed factorization, or
    rank below s, proves nothing; the spectrum then counts the rank.

    `floor` (on G's scale) raises the level to a threshold the caller
    judges the verdict at, as ntk.compute_ntk does a reference's tolerance;
    given that reference verdict as `_reference` (compute_ntk's alone), a
    failure is counted once, above the larger of the two tolerances.
    A right-hand side `rhs` r (one entry per row of a kernel) borders the
    factored matrix: [[K - 4 m I, r], [r^T, rho]], rho the largest float,
    so the last pivot cannot fail and the leading block certifies the rank
    as above (Golub and Van Loan, "Matrix Computations", 4.2); on success
    the verdict keeps r as `rhs` and ||L^-1 r|| = sqrt(r^T (K - 4 m I)^-1 r),
    L the leading block's factor, as `rhs_norm`.
    A kernel's factored matrix is written into the flat array `out` if given
    ((s + 1)^2 entries or more), else allocated.  Raises DecompositionError
    if a spectrum fails; a failure is never reported as rank 0.
    """
    if gram:
        g = m
    else:
        m = as_matrix(m)
        g = m @ m.T if m.shape[0] <= m.shape[1] else m.T @ m
    rows, cols = m.shape
    size = min(rows, cols)
    trace = float(np.trace(g))
    verdict = Rank(m, gram, max(floor, max(rows, cols) * EPS * trace))
    if MIN_TRACE <= trace < np.inf:
        n = size + (rhs is not None)
        if gram or rhs is not None:
            shifted = np.empty((n, n)) if out is None else out[: n * n].reshape(n, n)
            shifted[:size, :size] = g
        else:
            shifted = g
        shifted.reshape(-1)[: size * (n + 1) : n + 1] -= CHOLESKY_SHIFT * verdict.level
        if rhs is not None:
            shifted[size, :size] = shifted[:size, size] = rhs
            shifted[size, size] = np.finfo(np.float64).max
        try:
            factor = np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            pass
        else:
            verdict.rank, verdict.proved = size, True
            if rhs is not None:
                verdict.rhs, verdict.rhs_norm = rhs, float(np.linalg.norm(factor[size, :size]))
            return verdict
    tolerance = verdict.tolerance
    if _reference is not None:
        tolerance = max(_reference.tolerance, tolerance)
    verdict.rank = verdict.count_above(tolerance)
    return verdict


def min_norm_solve(verdict: Rank, b, anchor) -> np.ndarray:
    """Solve M Z = B for the Z nearest `anchor` in Frobenius norm.

    Requires M, the matrix of the certified_rank `verdict`, to have full
    row rank by it, else RankDeficientError; the minimizer is then
    anchor + pinv(M) (B - M anchor), from the verdict's thin SVD U S V^T.
    """
    m = verdict.matrix
    b = as_matrix(b, "B")
    anchor = as_matrix(anchor, "anchor")
    if b.shape[0] != m.shape[0]:
        raise ValueError(f"B has {b.shape[0]} rows, expected {m.shape[0]}")
    if anchor.shape != (m.shape[1], b.shape[1]):
        raise ValueError(
            f"anchor has shape {anchor.shape}, expected {(m.shape[1], b.shape[1])}"
        )
    if verdict.rank < m.shape[0]:
        raise RankDeficientError(
            f"M has numerical rank {verdict.rank} < {m.shape[0]} rows; "
            "the constraint M Z = B may be infeasible"
        )
    u, s, vt = verdict.svd
    return anchor + vt.T @ ((u.T @ (b - m @ anchor)) / s[:, None])
