"""Small dense kernels and query-based estimators shared by the testers.

Contents:

  * sym_eig_small                      -- dense symmetric eigensolver
  * chebyshev_threshold_poly           -- suppress [0, r], pinned to 1 at -alpha
  * hutchinson_trace / trace_estimate  -- quadratic-form trace estimators
  * frobenius_estimate                 -- factor-2 Frobenius norm from bilinear probes
  * schatten1_scale_estimate           -- coarse nuclear-norm bracket from one probe
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .oracle import MAX_DENSE_DIM, SeedLike, rng_from

__all__ = [
    "EstimatorResult",
    "sym_eig_small",
    "ThresholdPolynomial",
    "chebyshev_threshold_poly",
    "hutchinson_trace",
    "trace_estimate",
    "frobenius_estimate",
    "schatten1_scale_estimate",
]


@dataclass(frozen=True)
class EstimatorResult:
    """Value of a randomized estimator plus the queries it spent."""

    value: float
    n_queries: int


def sym_eig_small(m: np.ndarray, sym_tol: float = 1e-8) -> Tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a small dense symmetric matrix.

    Returns ``(w, v)`` with eigenvalues ascending and orthonormal eigenvector
    columns.  Input symmetry is validated against ``sym_tol`` (relative) and
    then enforced exactly before factorization, so callers can hand in
    products like G^T (A G) that carry float-level skew.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected square matrix, got {a.shape}")
    if a.shape[0] > MAX_DENSE_DIM:
        raise ValueError(f"dense eigensolve capped at {MAX_DENSE_DIM}, got {a.shape[0]}")
    scale = max(float(np.abs(a).max()), 1e-300)
    asym = float(np.abs(a - a.T).max())
    if asym > sym_tol * scale:
        raise ValueError(f"matrix not symmetric: max asymmetry {asym:.3e} "
                         f"vs scale {scale:.3e}")
    w, v = np.linalg.eigh((a + a.T) / 2.0)
    return w, v


class ThresholdPolynomial:
    """Least-degree Chebyshev polynomial that is 1 at ``-alpha`` and at most
    ``delta`` in magnitude on all of ``[0, r]``.

    Evaluation always runs the three-term recurrence on the affinely mapped
    argument.
    """

    GRID_POINTS = 10_000

    def __init__(self, r: float, alpha: float, delta: float):
        if r <= 0 or alpha <= 0:
            raise ValueError(f"need r > 0 and alpha > 0, got r={r}, alpha={alpha}")
        if not 0 < delta < 1:
            raise ValueError(f"need 0 < delta < 1, got {delta}")
        self.r = float(r)
        self.alpha = float(alpha)
        self.delta = float(delta)
        gamma = 2.0 * self.alpha / self.r
        # T_n(1+gamma) = cosh(n acosh(1+gamma)) grows like 2^(n sqrt(gamma)),
        # so the least degree with T_n(1+gamma) >= 1/delta is the acosh ratio.
        self.degree = max(1, math.ceil(math.acosh(1.0 / delta)
                                       / math.acosh(1.0 + gamma)))
        self._norm = math.cosh(self.degree * math.acosh(1.0 + gamma))
        self._sign = -1.0 if self.degree % 2 else 1.0
        self._grid_check()

    def _mapped(self, x: np.ndarray) -> np.ndarray:
        return 2.0 * np.asarray(x, dtype=float) / self.r - 1.0

    def evaluate(self, x) -> np.ndarray:
        """Value of the polynomial at ``x`` (scalar or array)."""
        t = self._mapped(x)
        scalar = np.isscalar(x) or np.ndim(x) == 0
        t = np.atleast_1d(t)
        tk_prev = np.ones_like(t)
        tk = t.copy()
        if self.degree == 0:
            tk = tk_prev
        for _ in range(self.degree - 1):
            tk, tk_prev = 2.0 * t * tk - tk_prev, tk
        out = tk * (self._sign / self._norm)
        return float(out[0]) if scalar else out

    def _grid_check(self):
        at_alpha = self.evaluate(-self.alpha)
        if abs(at_alpha - 1.0) > 1e-6:
            raise ArithmeticError(
                f"normalization drifted: q(-alpha) = {at_alpha!r}")
        grid = np.linspace(0.0, self.r, self.GRID_POINTS)
        sup = float(np.abs(self.evaluate(grid)).max())
        if sup > self.delta * (1.0 + 1e-6):
            raise ArithmeticError(
                f"ceiling violated on grid: sup {sup:.3e} > delta {self.delta:.3e}")

    def __repr__(self) -> str:
        return (f"ThresholdPolynomial(degree={self.degree}, r={self.r:.4g}, "
                f"alpha={self.alpha:.4g}, delta={self.delta:.4g})")


def chebyshev_threshold_poly(r: float, alpha: float, delta: float) -> ThresholdPolynomial:
    """Construct the least-degree threshold polynomial for ([0, r], -alpha, delta)."""
    return ThresholdPolynomial(r, alpha, delta)


def hutchinson_trace(op, n: int, rng: SeedLike) -> EstimatorResult:
    """Plain Hutchinson trace estimate: mean of n Gaussian quadratic forms.

    Unbiased with per-sample variance 2 ||A||_F^2; costs exactly n vmv queries.
    """
    if n <= 0:
        raise ValueError("need at least one sample")
    # Row-wise draws give the same numbers as n draws of one vector each.
    g = rng_from(rng).standard_normal((n, op.dim))
    total = float(op.quad_forms(g.T).sum())
    return EstimatorResult(value=total / n, n_queries=n)


def trace_estimate(op, rng: SeedLike, samples: int = 32, groups: int = 5) -> EstimatorResult:
    """Median-of-groups Hutchinson trace, additive error O(||A||_F) whp.

    Defaults (32 samples per group, median of 5) keep the probe cost constant
    while pushing the failure probability well below the testers' budgets.
    """
    gen = rng_from(rng)
    vals = []
    queries = 0
    for _ in range(groups):
        est = hutchinson_trace(op, samples, gen)
        vals.append(est.value)
        queries += est.n_queries
    return EstimatorResult(value=float(np.median(vals)), n_queries=queries)


def frobenius_estimate(op, eps_fail: float, rng: SeedLike, block: int = 4) -> EstimatorResult:
    """Frobenius norm estimate within a factor of 2, failure prob <= eps_fail.

    Each repetition draws an independent pair of Gaussian blocks and averages
    the squared bilinear probes g_i^T A h_j, which is unbiased for ||A||_F^2;
    the median over ceil(8 ln(1/eps_fail)) repetitions gives the tail bound.
    Returns sqrt of the median, i.e. an estimate of ||A||_F itself.  A zero
    operator yields exactly 0.
    """
    if not 0 < eps_fail < 1:
        raise ValueError(f"eps_fail must be in (0, 1), got {eps_fail}")
    gen = rng_from(rng)
    reps = max(1, math.ceil(8.0 * math.log(1.0 / eps_fail)))
    d = op.dim
    estimates = np.empty(reps)
    for t in range(reps):
        g = gen.standard_normal((d, block))
        h = gen.standard_normal((d, block))
        estimates[t] = float(np.mean(op.bilinear_block(g, h) ** 2))
    return EstimatorResult(value=float(np.sqrt(np.median(estimates))),
                           n_queries=reps * block * block)


def schatten1_scale_estimate(op, rng: SeedLike) -> Tuple[float, float]:
    """Bracket the nuclear norm from one Gaussian probe: d vmv queries.

    Reads off A g coordinate by coordinate and returns
    ``(||Ag|| / (2 dim), dim * ||Ag||)``, which contains ||A||_1 with
    constant probability; the bracket is a factor 2 dim^2 wide, so callers
    search step sizes geometrically inside it.
    """
    d = op.dim
    g = rng_from(rng).standard_normal((d, 1))
    nrm = float(np.linalg.norm(op.bilinear_block(np.eye(d), g)))
    return nrm / (2.0 * d), d * nrm
