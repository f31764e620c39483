"""PSD testers built on matrix-vector queries.

Two testers, plus the white-box polynomial certificate behind the Krylov
analysis:

  * krylov_tester        -- adaptive one-sided tester; looks for a negative
                            direction inside a Krylov subspace.
  * nonadaptive_mv_tester -- one-sided tester that simulates a bilinear
                            sketch with one matvec per sketch column.
  * deflation_poly_certificate -- the thresholded, eigenvalue-deflated
                            polynomial whose existence drives the Krylov
                            degree bound; evaluated on explicit spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import defaults
from .kernels import ThresholdPolynomial, chebyshev_threshold_poly, sym_eig_small
from .oracle import SeedLike, rng_from
from .vmv_testers import ONE_SIDED, Verdict, _queries_on

__all__ = [
    "KrylovSpace",
    "build_krylov",
    "krylov_degree",
    "krylov_tester",
    "DeflatedThresholdPolynomial",
    "deflation_poly_certificate",
    "nonadaptive_mv_tester",
]


@dataclass(frozen=True)
class KrylovSpace:
    """Orthonormalized Krylov subspace together with the projected matrix.

    ``basis`` holds the orthonormal vectors spanning {g, Ag, ..., A^k g}
    column-wise; ``projected`` the dense symmetric restriction of A to the
    basis.  When the iteration hits an invariant subspace early, the basis
    has fewer than k+1 columns and ``degenerate`` is set.
    """

    basis: np.ndarray
    projected: np.ndarray
    k: int
    degenerate: bool


_DROP_TOL = 1e-10


def build_krylov(op, k: int, seed: SeedLike) -> KrylovSpace:
    """Build the degree-k Krylov space of op from a Gaussian start.

    Uses exactly k+1 matvec queries: the power iterates give the images
    A b of the raw vectors for free, except for the last one, which needs
    its own product.  Orthonormalization is modified Gram-Schmidt with a
    reorthogonalization pass, and the images are carried through with the
    same coefficients, so the projected matrix costs no further queries.
    """
    if k < 1:
        raise ValueError(f"degree must be >= 1, got {k}")
    if k + 1 > op.dim:
        raise ValueError(f"need k + 1 <= dim, got k={k} at dim {op.dim}")
    gen = rng_from(seed, 0x4B17)
    cur = gen.standard_normal(op.dim)
    cur /= float(np.linalg.norm(cur))
    iterates = []
    images = []
    for i in range(k + 1):
        iterates.append(cur)
        img = op.mat_vec(cur)
        images.append(img)
        if i < k:
            nrm = float(np.linalg.norm(img))
            if nrm == 0.0:
                break  # A annihilated the iterate; the space is complete
            cur = img / nrm

    basis = []
    basis_images = []
    degenerate = len(iterates) < k + 1
    for vec, img in zip(iterates, images):
        b = vec.copy()
        w = img.copy()
        orig = float(np.linalg.norm(b))
        for passes in range(2):
            for bq, wq in zip(basis, basis_images):
                r = float(bq @ b)
                b -= r * bq
                w -= r * wq
            # Krylov iterates are nearly collinear, so the residual almost
            # always shrinks; rerun the projections unless nothing was lost.
            if float(np.linalg.norm(b)) >= (1.0 - 1e-8) * orig:
                break
        nb = float(np.linalg.norm(b))
        if nb <= _DROP_TOL * orig:
            degenerate = True
            break
        basis.append(b / nb)
        basis_images.append(w / nb)

    b_mat = np.column_stack(basis)
    proj = b_mat.T @ np.column_stack(basis_images)
    proj = (proj + proj.T) / 2.0
    return KrylovSpace(basis=b_mat, projected=proj, k=k,
                       degenerate=degenerate)


def krylov_degree(eps: float, p: float, d: int,
                  kappa: Optional[float] = None) -> int:
    """Krylov degree k = ceil(kappa * eps^(-p/(2p+1)) * ln(1/eps) * [log2 d]).

    The dimension factor enters only for p > 1.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if p < 1:
        raise ValueError(f"Schatten exponent must be >= 1, got {p}")
    kappa = defaults.KRYLOV_KAPPA if kappa is None else kappa
    k = kappa * eps ** (-p / (2.0 * p + 1.0)) * math.log(1.0 / eps)
    if p > 1:
        k *= math.log2(d)
    return max(1, math.ceil(k))


def krylov_tester(op, eps: float, p: float, norm_estimate: float, *,
                  repeats: Optional[int] = None, rng: SeedLike = 0,
                  kappa: Optional[float] = None) -> Verdict:
    """One-sided adaptive Schatten-p tester via Krylov subspaces.

    Each repetition builds a fresh Krylov space and inspects the smallest
    eigenvalue of the projected matrix; a PSD input keeps that matrix PSD
    (congruence), so rejection needs an eigenvalue below the floating-point
    tolerance scaled by ``norm_estimate`` (an upper bound on the Schatten-p
    norm, typically from a side estimator) and must then survive one direct
    confirming quad-form query, whose vector becomes the witness.  A bound
    of 0 means A = 0: the tolerance is 0 and nothing falls below it, so the
    run accepts.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if p < 1:
        raise ValueError(f"Schatten exponent must be >= 1, got {p}")
    if not 0.0 <= norm_estimate < math.inf:
        raise ValueError(
            f"norm_estimate must be finite and >= 0, got {norm_estimate}")
    repeats = defaults.KRYLOV_REPEATS if repeats is None else repeats
    gen = rng_from(rng, 0x4B70)
    start = _queries_on(op)

    tol = defaults.KRYLOV_EIG_TOL * norm_estimate
    k = min(krylov_degree(eps, p, op.dim, kappa), op.dim - 1)
    lam_seen = None
    for _ in range(repeats):
        space = build_krylov(op, k, gen)
        w, v = sym_eig_small(space.projected)
        lam = float(w[0])
        lam_seen = lam if lam_seen is None else min(lam_seen, lam)
        if lam < -tol:
            cand = space.basis @ v[:, 0]
            cand /= float(np.linalg.norm(cand))
            if op.quad_form(cand) < 0.0:
                return Verdict(is_psd=False, witness=cand,
                               queries_used=_queries_on(op) - start,
                               mode=ONE_SIDED, statistic=lam)
    return Verdict(is_psd=True, witness=None,
                   queries_used=_queries_on(op) - start,
                   mode=ONE_SIDED, statistic=lam_seen)


# ---------------------------------------------------------------------------
# polynomial certificate
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# non-adaptive mv
# ---------------------------------------------------------------------------

def nonadaptive_mv_tester(op, eps: float, p: float, *,
                          repeats: Optional[int] = None, rng: SeedLike = 0,
                          kappa: Optional[float] = None) -> Verdict:
    """One-sided non-adaptive Schatten-p tester in the matvec model.

    Simulates the bilinear sketch with one matvec per column: G gets
    m = ceil(kappa * d^(1 - 1/p) / eps) columns (capped at d, where the
    sketch becomes exact), AG costs exactly m queries per repetition, and
    the verdict comes from the smallest eigenvalue of GᵀAG against the same
    noise floor as the vmv variant, with witness G v.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if p < 1:
        raise ValueError(f"Schatten exponent must be >= 1, got {p}")
    repeats = defaults.NONADAPT_REPEATS if repeats is None else repeats
    kappa = defaults.NONADAPT_KAPPA if kappa is None else kappa
    gen = rng_from(rng, 0x0AD2)
    start = _queries_on(op)
    d = op.dim
    m = min(d, math.ceil(kappa * d ** (1.0 - 1.0 / p) / eps))
    lam_last = None
    for _ in range(repeats):
        g = gen.standard_normal((d, m)) / math.sqrt(d)
        s = g.T @ op.mat_vecs(g)
        s = (s + s.T) / 2.0
        w, v = np.linalg.eigh(s)
        lam_last = float(w[0])
        noise_floor = 1e-9 * float(np.linalg.norm(s, "fro"))
        if w[0] < -noise_floor:
            witness = g @ v[:, 0]
            return Verdict(is_psd=False, witness=witness,
                           queries_used=_queries_on(op) - start,
                           mode=ONE_SIDED, statistic=lam_last)
    return Verdict(is_psd=True, witness=None,
                   queries_used=_queries_on(op) - start,
                   mode=ONE_SIDED, statistic=lam_last)
