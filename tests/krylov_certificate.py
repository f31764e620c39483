"""White-box polynomial certificate behind the Krylov degree bound.

The Krylov tester's degree comes from the existence of a polynomial that is
1 at the most negative eigenvalue and small on the positive spectrum: a
Chebyshev threshold part that suppresses [0, r], times exact root factors at
the few eigenvalues above r.  No tester queries through these objects; the
tests build them on explicit spectra to check the degree argument itself.

  * chebyshev_threshold_poly   -- suppress [0, r], pinned to 1 at -alpha
  * deflation_poly_certificate -- the thresholded, eigenvalue-deflated
                                  polynomial and its positive mass
"""

import math
from typing import Tuple

import numpy as np


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


class DeflatedThresholdPolynomial:
    """Threshold polynomial times exact root factors at deflated eigenvalues.

    Normalized so the value at the most negative eigenvalue is 1; each
    deflated eigenvalue is an exact root.  The root factors are evaluated
    first so the Chebyshev part is never touched where the product already
    vanishes (it can be astronomically large far outside its domain).
    """

    def __init__(self, base: ThresholdPolynomial, roots: Tuple[float, ...],
                 lam_min: float):
        self.base = base
        self.roots = tuple(float(r) for r in roots)
        self.lam_min = float(lam_min)

    @property
    def degree(self) -> int:
        return self.base.degree + len(self.roots)

    def evaluate(self, x):
        scalar = np.isscalar(x)
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        factor = np.ones_like(xs)
        for r in self.roots:
            factor *= (r - xs) / (r - self.lam_min)
        out = np.zeros_like(xs)
        live = factor != 0.0
        if np.any(live):
            out[live] = factor[live] * self.base.evaluate(xs[live])
        return float(out[0]) if scalar else out


def deflation_poly_certificate(spectrum, eps: float, p: float, T: int
                               ) -> Tuple[DeflatedThresholdPolynomial, float]:
    """Construct the deflated threshold polynomial for an explicit spectrum.

    White-box utility (no queries): builds the Chebyshev threshold part on
    [0, T^(-1/p)] with target value sqrt((eps/10) / d^(1 - 1/p)), multiplies
    in a root factor for every eigenvalue above the threshold, and returns
    the polynomial together with the verified positive mass
    sum_{lambda > 0} p(lambda)^2 lambda, which the degree argument needs to
    stay below eps/10.  Requires Schatten-p norm at most 1 and an eigenvalue
    at or below -eps; under that promise at most T eigenvalues can exceed
    the threshold, and hitting more is reported as a broken contract.
    """
    spec = np.asarray(spectrum, dtype=float)
    if spec.size == 0:
        raise ValueError("spectrum is empty")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if not (p >= 1 and math.isfinite(p)):
        raise ValueError(f"Schatten exponent must be finite and >= 1, got {p}")
    if T < 1:
        raise ValueError(f"T must be a positive integer, got {T}")
    norm_p = float(np.sum(np.abs(spec) ** p) ** (1.0 / p))
    if norm_p > 1.0 + 1e-9:
        raise ValueError(f"spectrum must have Schatten-{p} norm <= 1, got {norm_p}")
    lam_min = float(spec.min())
    if lam_min > -eps:
        raise ValueError(f"spectrum must reach -eps = {-eps}, min is {lam_min}")

    r = float(T) ** (-1.0 / p)
    roots = tuple(float(v) for v in np.sort(spec[spec > r]))
    if len(roots) > T:
        raise ArithmeticError(
            f"{len(roots)} eigenvalues above {r}; impossible at unit norm")
    d = spec.size
    delta = math.sqrt((eps / 10.0) / d ** (1.0 - 1.0 / p))
    base = chebyshev_threshold_poly(r, -lam_min, delta)
    poly = DeflatedThresholdPolynomial(base, roots, lam_min)

    positive = spec[spec > 0.0]
    if positive.size:
        mass = float(np.sum(poly.evaluate(positive) ** 2 * positive))
    else:
        mass = 0.0
    return poly, mass
