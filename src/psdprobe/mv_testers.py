"""PSD testers built on matrix-vector queries.

  * krylov_tester        -- adaptive one-sided tester; looks for a negative
                            direction inside a Krylov subspace.
  * nonadaptive_mv_tester -- one-sided tester that simulates a bilinear
                            sketch with one matvec per sketch column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import defaults
from .oracle import SeedLike, rng_from
from .vmv_testers import ONE_SIDED, Verdict, _queries_on

__all__ = [
    "KrylovSpace",
    "build_krylov",
    "krylov_degree",
    "krylov_tester",
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
        w, v = np.linalg.eigh(space.projected)
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
