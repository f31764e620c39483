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
from .vmv_testers import (ONE_SIDED, Verdict, _check_constant, _check_eps,
                          _fixed_sketch_tester, _lowest, _tester)

__all__ = [
    "KrylovSpace",
    "build_krylov",
    "krylov_degree",
    "krylov_tester",
    "nonadaptive_mv_tester",
    "unrounded_krylov_degree",
]


@dataclass(frozen=True)
class KrylovSpace:
    """Orthonormalized Krylov subspace together with the projected matrix.

    ``basis`` holds the orthonormal vectors spanning {g, Ag, ..., A^k g}
    column-wise; ``projected`` the dense symmetric restriction of A to the
    basis.  Building it costs at most k+1 mv; fewer only on an invariant
    subspace, where the basis has fewer than k+1 columns and ``degenerate``
    is set.
    """

    basis: np.ndarray
    projected: np.ndarray
    k: int
    degenerate: bool


_DROP_TOL = 1e-10


def build_krylov(op, k: int, seed: SeedLike) -> KrylovSpace:
    """Build the degree-k Krylov space of op from a Gaussian start; degree
    0 is the start's span, which is all of R^1 at dim 1.

    One Lanczos loop with full reorthogonalization: step i asks one mv at
    the orthonormal vector q_i, projects the answer off q_0..q_i twice, and
    normalizes the rest into q_{i+1}.  At most k+1 mv; fewer only on an
    invariant subspace, where the rest falls to ``_DROP_TOL`` times
    |A q_i| (A q_i = 0 included) and ``degenerate`` is set.  The projected
    matrix is the symmetrized Q^T [A q_0 ... A q_r], read straight from the
    answers.
    """
    if k < 0:
        raise ValueError(f"degree must be >= 0, got {k}")
    if k + 1 > op.dim:
        raise ValueError(f"need k + 1 <= dim, got k={k} at dim {op.dim}")
    q = np.empty((op.dim, k + 1), order="F")
    images = np.empty((op.dim, k + 1), order="F")
    start = rng_from(seed, 0x4B17).standard_normal(op.dim)
    q[:, 0] = start / float(np.linalg.norm(start))
    for i in range(k + 1):
        images[:, i] = op.mat_vec(q[:, i])
        if i == k:
            break
        w = images[:, i].copy()
        for _ in range(2):
            w -= q[:, :i + 1] @ (q[:, :i + 1].T @ w)
        norm = float(np.linalg.norm(w))
        if norm <= _DROP_TOL * float(np.linalg.norm(images[:, i])):
            break
        q[:, i + 1] = w / norm
    r = i + 1
    proj = q[:, :r].T @ images[:, :r]
    return KrylovSpace(basis=q[:, :r], projected=(proj + proj.T) / 2.0, k=k,
                       degenerate=r < k + 1)


def unrounded_krylov_degree(eps: float, p: float, d: int,
                            kappa: Optional[float] = None) -> float:
    """kappa * eps^(-p/(2p+1)) * ln(1/eps) * [log2 d], before the ceiling.

    The dimension factor enters only for p > 1; at p = inf the exponent
    takes its limit -1/2.
    """
    kappa = defaults.KRYLOV_KAPPA if kappa is None else kappa
    _check_constant("kappa", kappa)
    exponent = -0.5 if math.isinf(p) else -p / (2.0 * p + 1.0)
    k = kappa * eps ** exponent * math.log(1.0 / eps)
    return k * math.log2(d) if p > 1 else k


def krylov_degree(eps: float, p: float, d: int,
                  kappa: Optional[float] = None) -> int:
    """Krylov degree k = ceil(``unrounded_krylov_degree``), at least 1."""
    _check_eps(eps)
    if not p >= 1:
        raise ValueError(f"Schatten exponent must be >= 1, got {p}")
    return max(1, math.ceil(unrounded_krylov_degree(eps, p, d, kappa)))


@_tester(ONE_SIDED)
def krylov_tester(op, eps: float, p: float, *,
                  repeats: Optional[int] = None, rng: SeedLike = 0,
                  kappa: Optional[float] = None) -> Verdict:
    """One-sided adaptive Schatten-p tester via Krylov subspaces.

    Each repetition builds a fresh Krylov space and inspects the smallest
    eigenvalue of the projected matrix T; a PSD input keeps T PSD
    (congruence), so rejection needs ``_lowest(T)`` to put it below the
    floor, relative to ||T||_F, and one direct confirming quad-form query
    at basis v, which becomes the witness.  A repetition that does not
    reject with a basis of d columns ends the accept: that space is all of
    R^d, so T holds A's exact spectrum, and any further build would find
    the same one.  A is read only through counted queries; A = 0 gives
    T = 0, floor 0 and an accept.  Eps, p, repeats and kappa are checked
    before any query.
    """
    repeats = defaults.KRYLOV_REPEATS if repeats is None else repeats
    _check_constant("repeats", repeats, count=True)
    gen = rng_from(rng, 0x4B70)

    k = min(krylov_degree(eps, p, op.dim, kappa), op.dim - 1)
    lam_seen = None
    for _ in range(repeats):
        space = build_krylov(op, k, gen)
        lam, v = _lowest(space.projected)
        lam_seen = lam if lam_seen is None else min(lam_seen, lam)
        if v is not None:
            cand = space.basis @ v
            if op.quad_form(cand) < 0.0:
                return False, cand, lam
        if space.basis.shape[1] == op.dim:
            break
    return True, None, lam_seen


# ---------------------------------------------------------------------------
# non-adaptive mv
# ---------------------------------------------------------------------------

@_tester(ONE_SIDED)
def nonadaptive_mv_tester(op, eps: float, p: float, *,
                          repeats: Optional[int] = None, rng: SeedLike = 0,
                          kappa: Optional[float] = None) -> Verdict:
    """One-sided non-adaptive Schatten-p tester in the matvec model.

    Simulates the bilinear sketch with one matvec per column: G gets
    m = ceil(kappa * d^(1 - 1/p) / eps) columns (capped at d, where the
    sketch becomes exact), AG costs exactly m queries per repetition, and
    the verdict comes from the smallest eigenvalue of GᵀAG against the same
    rejection floor as the vmv variant (``_lowest``), with witness G v.
    """
    if not p >= 1:
        raise ValueError(f"Schatten exponent must be >= 1, got {p}")

    def read(g: np.ndarray) -> np.ndarray:
        s = g.T @ op.mat_vecs(g)
        return (s + s.T) / 2.0

    return _fixed_sketch_tester(op, eps, p, read, repeats, kappa,
                                rng_from(rng, 0x0AD2))
