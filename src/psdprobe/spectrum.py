"""Sketch-based estimation of the signed top-k eigenvalues.

The estimators here approximate ||A_{k,+}||_F^2 (the squared Frobenius mass of
the top-k positive eigenvalues) and its negative-side analogue from bilinear
queries alone, then difference consecutive mass estimates to recover the
individual eigenvalues with signs.  The core primitive is a compressed
regression problem: with R a Gaussian right sketch and S1, S2 affine
embeddings,

    min_{Y PSD, rank(Y) <= k}  || (S1 A R) Y (S2 A R)^T + S1 A S2^T ||_F^2

approximates the distance from A to the nearest negative-semidefinite rank-k
matrix; flipping the sign of the cross term gives the positive side.  The fit
itself is solved by factored gradient descent on Y = Z Z^T, certified against
brute-force oracles on tiny instances in the test suite.

Two query schedules are provided: ``top_eigs_signed`` issues every sketch
entry non-adaptively, while ``top_eigs_signed_adaptive`` spends one round of
adaptivity to probe the cross term only on the realized column spaces of the
regression matrices, plus a handful of Frobenius probes for the mass the
projection discards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import defaults
from .oracle import SymmetricOperator, rng_from

__all__ = [
    "SpectrumSketch",
    "EigenEstimate",
    "affine_embedding",
    "build_spectrum_sketch",
    "psd_rank_k_fit",
    "estimate_Akplus_sq",
    "top_eigs_signed",
    "top_eigs_signed_adaptive",
]


def affine_embedding(rows: int, d: int, seed) -> np.ndarray:
    """A rows x d Gaussian embedding with entry variance 1/rows.

    Scaled so that E||S x||^2 = ||x||^2; the distortion it actually achieves
    on regression residuals is checked empirically in tests rather than
    assumed from the dimension.
    """
    if not 1 <= rows <= d:
        raise ValueError(f"need 1 <= rows <= d, got rows={rows}, d={d}")
    gen = rng_from(seed, 0xAFF1)
    return gen.standard_normal((rows, d)) / math.sqrt(rows)


@dataclass(frozen=True)
class SpectrumSketch:
    """The three compressed views of A that the rank-k fit consumes.

    ``r`` is the d x m right sketch, ``s1``/``s2`` the two affine embeddings,
    and the stored products are m1 = S1 A R, m2 = S2 A R, q = S1 A S2^T.
    Every stored entry came out of one counted bilinear query;
    ``queries_used`` is their total.
    """

    r: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    q: np.ndarray
    queries_used: int


def _sketch_dims(d: int, k: int, eps: float) -> Tuple[int, int]:
    m = min(d, math.ceil(defaults.SKETCH_R_KAPPA * k / eps))
    rows = min(d, math.ceil(defaults.EMBED_KAPPA * m / (eps * eps)))
    return m, rows


def build_spectrum_sketch(op: SymmetricOperator, k: int, eps: float,
                          rng=0) -> SpectrumSketch:
    """Draw (R, S1, S2) and fill the three products with counted queries.

    The right sketch has m = ceil(SKETCH_R_KAPPA k / eps) standard Gaussian
    columns and the embeddings ceil(EMBED_KAPPA m / eps^2) rows, both capped
    at d; past the cap extra rows carry no new information about A.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    d = op.dim
    m, rows = _sketch_dims(d, k, eps)
    gen = rng_from(rng, 0x5BEC)
    r = gen.standard_normal((d, m))
    s1 = affine_embedding(rows, d, gen)
    s2 = affine_embedding(rows, d, gen)
    m1 = op.bilinear_block(s1.T, r)
    m2 = op.bilinear_block(s2.T, r)
    q = op.bilinear_block(s1.T, s2.T)
    return SpectrumSketch(r=r, s1=s1, s2=s2, m1=m1, m2=m2, q=q,
                          queries_used=m1.size + m2.size + q.size)


def _reduced_problem(m1: np.ndarray, m2: np.ndarray, target: np.ndarray):
    """Project the fit onto the column spaces of m1 and m2.

    Writing m1 = U1 diag(s1) V1^T (rank-truncated), the objective splits as
    ||C1 Y C2^T - B||_F^2 + c0 with C = diag(s) V^T, B = U1^T target U2, and
    c0 the squared mass of the target outside the two column spaces, which no
    feasible Y can touch.
    """
    u1, sv1, v1t = np.linalg.svd(m1, full_matrices=False)
    u2, sv2, v2t = np.linalg.svd(m2, full_matrices=False)
    r1 = int(np.sum(sv1 > 1e-12 * (sv1[0] if sv1.size else 0.0)))
    r2 = int(np.sum(sv2 > 1e-12 * (sv2[0] if sv2.size else 0.0)))
    if r1 == 0 or r2 == 0:
        return None
    c1 = sv1[:r1, None] * v1t[:r1]
    c2 = sv2[:r2, None] * v2t[:r2]
    b = u1[:, :r1].T @ target @ u2[:, :r2]
    c0 = max(0.0, float(np.sum(target * target) - np.sum(b * b)))
    return c1, c2, b, c0, sv1[0], sv2[0]


def _spectral_starts(c1: np.ndarray, c2: np.ndarray, b: np.ndarray,
                     k: int, count: int) -> list:
    """Initial factors from the eigen-decomposed unweighted solution.

    Solving C1 W C2^T = B by pseudoinverse and keeping k positive eigenpairs
    of the symmetrized W is exact when the weights are orthogonal; under
    general weights the distinct local basins largely correspond to which
    eigenpairs the factor keeps, so the starts enumerate k-subsets in
    decreasing captured-mass order (top-k first) up to ``count`` of them.
    """
    w1 = np.linalg.lstsq(c1, b, rcond=None)[0]
    w = np.linalg.lstsq(c2, w1.T, rcond=None)[0].T
    sym = (w + w.T) / 2.0
    vals, vecs = np.linalg.eigh(sym)
    pos = [i for i in np.argsort(vals)[::-1] if vals[i] > 0.0]
    subsets = [()]
    for idx in pos:
        subsets += [s + (idx,) for s in subsets if len(s) < k]
        if len(subsets) > 4 * count:
            break
    subsets = [s for s in subsets if s]
    subsets.sort(key=lambda s: (-sum(vals[i] for i in s), s))
    starts = []
    for s in subsets[:count]:
        z0 = np.zeros((c1.shape[1], k))
        for col, idx in enumerate(s):
            z0[:, col] = vecs[:, idx] * math.sqrt(vals[idx])
        starts.append(z0)
    return starts


def _lm_polish(c1: np.ndarray, c2: np.ndarray, b: np.ndarray,
               z: np.ndarray, max_iter: int = 60) -> Tuple[float, np.ndarray]:
    """Levenberg-Marquardt refinement of one factor within its basin.

    Gradient descent stalls in the curved canyons these quartics develop
    around their minima; the Gauss-Newton model cuts straight through them,
    and the problems are small enough that forming the normal equations
    exactly is cheap.  Only ever improves the cost: damped steps that fail
    to decrease it are rejected and the damping raised.
    """
    m, k = z.shape
    p1 = c1 @ z
    p2 = c2 @ z
    e = p1 @ p2.T - b
    cost = float(np.sum(e * e))
    lam = 0.0
    eye = np.eye(m * k)
    for _ in range(max_iter):
        # d e[a,b] / d z[i,c] = c1[a,i] p2[b,c] + p1[a,c] c2[b,i]
        jac = (np.einsum("ai,bc->abic", c1, p2) +
               np.einsum("ac,bi->abic", p1, c2)).reshape(e.size, m * k)
        grad = jac.T @ e.ravel()
        hess = jac.T @ jac
        if lam == 0.0:
            lam = 1e-3 * max(float(np.trace(hess)) / (m * k), 1e-300)
        improved = False
        for _ in range(16):
            try:
                delta = np.linalg.solve(hess + lam * eye, -grad)
            except np.linalg.LinAlgError:
                lam *= 4.0
                continue
            zc = z + delta.reshape(m, k)
            p1c = c1 @ zc
            p2c = c2 @ zc
            ec = p1c @ p2c.T - b
            costc = float(np.sum(ec * ec))
            if np.isfinite(costc) and costc <= cost:
                rel = (cost - costc) / max(cost, 1e-300)
                z, p1, p2, e, cost = zc, p1c, p2c, ec, costc
                lam = max(lam * 0.25, 1e-300)
                improved = True
                break
            lam *= 4.0
        if not improved or rel < 1e-13:
            break
    return cost, z


def psd_rank_k_fit(m1: np.ndarray, m2: np.ndarray, q: np.ndarray,
                   k: int, *, rng=0, restarts: int = 10,
                   iters: int = 2000) -> Tuple[float, np.ndarray]:
    """Minimize ||m1 Y m2^T - (-q)||_F^2 over PSD Y with rank(Y) <= k.

    Returns (cost, Y).  The problem is projected onto the column spaces of m1
    and m2, then optimized in the factored form Y = Z Z^T (which enforces both
    constraints) by gradient descent: ``restarts`` runs in parallel, the first
    seeded from the eigen-truncated unweighted solution and the rest random,
    initial step 1e-2 ||q||_F / (||m1||_2 ||m2||_2) with per-run halving
    whenever a step would increase the cost, early stop once every run's
    relative improvement drops below 1e-10.  Nonconvex, so the restarts are
    the only global guarantee; tiny instances are certified against a
    brute-force oracle in the tests.
    """
    m1 = np.asarray(m1, dtype=float)
    m2 = np.asarray(m2, dtype=float)
    q = np.asarray(q, dtype=float)
    if m1.ndim != 2 or m2.ndim != 2 or q.ndim != 2:
        raise ValueError("m1, m2, q must be 2-d arrays")
    if m1.shape[1] != m2.shape[1]:
        raise ValueError(
            f"m1 and m2 must share column count, got {m1.shape} and {m2.shape}")
    if q.shape != (m1.shape[0], m2.shape[0]):
        raise ValueError(
            f"q must be {(m1.shape[0], m2.shape[0])}, got {q.shape}")
    cols = m1.shape[1]
    if not 1 <= k <= cols:
        raise ValueError(f"k must be in [1, {cols}], got {k}")

    target = -q
    tmass = float(np.sum(target * target))
    reduced = _reduced_problem(m1, m2, target)
    if reduced is None or tmass == 0.0:
        return (tmass, np.zeros((cols, cols)))
    c1, c2, b, c0, top1, top2 = reduced

    # Whiten the factor coordinates by the average Gram matrix of the two
    # weights.  Gaussian sketches can be severely ill-conditioned, and the
    # squared condition number sets the gradient descent rate; the change of
    # variables z = L^-T z' keeps every critical point while flattening the
    # worst of that anisotropy.
    gram = (c1.T @ c1 + c2.T @ c2) / 2.0
    gram[np.diag_indices_from(gram)] += 1e-12 * max(np.trace(gram), 1e-300)
    lchol = np.linalg.cholesky(gram)
    c1 = np.linalg.solve(lchol, c1.T).T
    c2 = np.linalg.solve(lchol, c2.T).T

    gen = rng_from(rng, 0x0F17)
    step0 = 1e-2 * math.sqrt(tmass) / (top1 * top2)
    bnorm = float(np.linalg.norm(b))
    tw1 = float(np.linalg.norm(c1, 2))
    tw2 = float(np.linalg.norm(c2, 2))
    zscale = math.sqrt(max(bnorm, 1e-300) / (tw1 * tw2 * k))
    z = zscale * gen.standard_normal((restarts, cols, k))
    # Up to half the runs start from spectral subsets, the rest random; an
    # all-zero factor would be a stationary point, so zero starts get a
    # nudge (relevant when the unweighted solution has no positive part).
    for slot, z0 in enumerate(_spectral_starts(c1, c2, b, k, restarts // 2)):
        z[slot] = z0
    if not z[0].any():
        z[0] = 1e-3 * zscale * gen.standard_normal((cols, k))

    # The pinned initial step can sit orders of magnitude off the curvature
    # scale of a given instance, so each run retunes it: double on
    # acceptance until the first cost increase, then oscillate gently (x1.2
    # up, x0.5 down).  Heavy-ball momentum, reset whenever a step is
    # rejected, carries runs across the long shallow plateaus these quartics
    # develop; without it the iteration cap binds before the global basin.
    # Convergence is only judged once a run has seen its first rejection,
    # i.e. once the step has found the curvature ceiling; before that a cold
    # start with a microscopic step would look falsely stalled.  A run stops
    # after thirty accepted steps in a row improve by less than 1e-10
    # relative (momentum takes ~1/(1-0.9) steps to build, so a shorter
    # window would kill runs mid-plateau), or when its step underflows.
    steps = np.full(restarts, step0)
    active = np.ones(restarts, dtype=bool)
    capped = np.zeros(restarts, dtype=bool)
    stall = np.zeros(restarts, dtype=int)
    vel = np.zeros_like(z)
    p1 = c1 @ z
    p2 = c2 @ z
    e = p1 @ p2.transpose(0, 2, 1) - b
    cost = np.einsum("rij,rij->r", e, e)
    for _ in range(iters):
        grad = 2.0 * (c1.T @ (e @ p2) + c2.T @ (e.transpose(0, 2, 1) @ p1))
        vel = 0.9 * vel - (steps * active)[:, None, None] * grad
        cand = z + vel
        q1 = c1 @ cand
        q2 = c2 @ cand
        ec = q1 @ q2.transpose(0, 2, 1) - b
        cand_cost = np.einsum("rij,rij->r", ec, ec)
        accept = active & np.isfinite(cand_cost) & (cand_cost <= cost)
        rel = (cost - cand_cost) / np.maximum(cost, 1e-300)
        z[accept] = cand[accept]
        p1[accept] = q1[accept]
        p2[accept] = q2[accept]
        e[accept] = ec[accept]
        cost = np.where(accept, cand_cost, cost)
        slow = accept & capped & (rel < 1e-10)
        stall = np.where(slow, stall + 1, np.where(accept, 0, stall))
        steps[accept] *= np.where(capped[accept], 1.2, 2.0)
        rejected = active & ~accept
        vel[rejected] = 0.0
        steps[rejected] *= 0.5
        capped |= rejected
        dead = rejected & (steps < step0 * 2.0 ** -80)
        active &= ~((stall >= 30) | dead)
        if not active.any():
            break

    # Polish the two best runs; ties between basins at gradient-descent
    # precision are real, and the polish is cheap relative to the main loop.
    order = np.argsort(cost)
    best_cost, best_z = _lm_polish(c1, c2, b, z[order[0]])
    if restarts > 1:
        alt_cost, alt_z = _lm_polish(c1, c2, b, z[order[1]])
        if alt_cost < best_cost:
            best_cost, best_z = alt_cost, alt_z
    zb = np.linalg.solve(lchol.T, best_z)
    y = zb @ zb.T
    y = (y + y.T) / 2.0
    return (best_cost + c0, y)


def _frob_sq_estimate(op: SymmetricOperator, eps: float,
                      rng) -> Tuple[float, int]:
    """||A||_F^2 to relative accuracy O(eps), from bilinear queries.

    The Gaussian estimator needs ceil(FROB_SQ_KAPPA / eps^2) probes; whenever
    that exceeds the d(d+1)/2 queries of reading every entry once, the exact
    read wins and the estimate is noise-free.
    """
    d = op.dim
    budget = math.ceil(defaults.FROB_SQ_KAPPA / (eps * eps))
    exact_cost = d * (d + 1) // 2
    if exact_cost <= budget:
        entries = op.sym_block(np.eye(d))
        return float(np.sum(entries * entries)), exact_cost
    gen = rng_from(rng)
    total = 0.0
    left = budget
    while left > 0:
        block = min(left, 256)
        g = gen.standard_normal((block, d))
        h = gen.standard_normal((block, d))
        total += float(np.sum(op.quad_forms(g.T, h.T) ** 2))
        left -= block
    return total / budget, budget


def _median_reps(delta: float) -> int:
    return max(1, math.ceil(defaults.MEDIAN_REPS_C * math.log(1.0 / delta)))


def _holdout_sketch(op: SymmetricOperator, r: np.ndarray, rows: int, gen):
    """A second embedding pair over the same right sketch R.

    The fit's achieved cost is biased low because Y adapts to the drawn
    embeddings; re-measuring the fitted Y's cost on an independent pair is
    biased high by exactly the suboptimality that adaptation bought.
    Averaging the two cancels most of both, which matters at desk scale
    where the embeddings are far from their asymptotic sizes.
    """
    d = op.dim
    t1 = affine_embedding(rows, d, gen)
    t2 = affine_embedding(rows, d, gen)
    n1 = op.bilinear_block(t1.T, r)
    n2 = op.bilinear_block(t2.T, r)
    q2 = op.bilinear_block(t1.T, t2.T)

    def holdout_cost(y, q_sign):
        return float(np.linalg.norm(n1 @ y @ n2.T + q_sign * q2) ** 2)

    return holdout_cost


def estimate_Akplus_sq(op: SymmetricOperator, k: int, eps: float,
                       delta: float, *, rng=0) -> float:
    """Estimate ||A_{k,+}||_F^2 within eps ||A||_F^2, failure prob <= delta.

    Because A_{k,+} is the nearest PSD rank-<=k matrix to A and acts on
    eigenspaces orthogonal to the residual, ||A_{k,+}||_F^2 = ||A||_F^2 -
    ||A - A_{k,+}||_F^2.  The second term comes from the sketched fit,
    averaged with a holdout re-measurement (see _holdout_sketch); the first
    from the quadratic Frobenius estimator.  The difference is medianed over
    ceil(MEDIAN_REPS_C ln(1/delta)) independent sketches.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    gen = rng_from(rng, 0xE571)
    frob_sq, _ = _frob_sq_estimate(op, eps, gen)
    _, rows = _sketch_dims(op.dim, k, eps)
    ests = []
    for _ in range(_median_reps(delta)):
        sk = build_spectrum_sketch(op, k, eps, gen)
        holdout = _holdout_sketch(op, sk.r, rows, gen)
        cost, y = psd_rank_k_fit(sk.m1, sk.m2, -sk.q, k, rng=gen)
        ests.append(frob_sq - 0.5 * (cost + holdout(y, -1.0)))
    return max(0.0, float(np.median(ests)))


@dataclass(frozen=True)
class EigenEstimate:
    """Signed eigenvalue estimates, sorted by non-increasing magnitude.

    ``error_bound`` is eps times the Frobenius norm estimate used internally:
    the additive radius the per-eigenvalue guarantee targets.
    """

    values: Tuple[float, ...]
    error_bound: float


def _mass_profiles(k: int, reps: int, frob_sq: float, gen,
                   produce) -> Tuple[np.ndarray, np.ndarray]:
    """Median mass estimates for ranks 1..k, positive and negative side.

    ``produce(gen)`` yields one repetition's (m1, m2, q, extra_cost,
    holdout_cost); the same sketch serves all 2k fits.  Negating the
    operator negates all three stored products, which cancels out of
    m1 Y m2^T and flips the sign of the cross term, so the negative side
    reuses the sketch with q negated rather than issuing new queries.  Each
    fit cost is averaged with its holdout re-measurement (see
    _holdout_sketch for why).
    """
    cost_pos = np.empty((reps, k))
    cost_neg = np.empty((reps, k))
    for rep in range(reps):
        m1, m2, q, extra, holdout = produce(gen)
        for i in range(1, k + 1):
            for sign, out in ((-1.0, cost_pos), (1.0, cost_neg)):
                cost, y = psd_rank_k_fit(m1, m2, sign * q, i, rng=gen)
                out[rep, i - 1] = 0.5 * (cost + extra + holdout(y, sign))
    est_pos = np.maximum(0.0, frob_sq - np.median(cost_pos, axis=0))
    est_neg = np.maximum(0.0, frob_sq - np.median(cost_neg, axis=0))
    return est_pos, est_neg


def _signed_from_masses(est_pos: np.ndarray, est_neg: np.ndarray,
                        k: int, error_bound: float) -> EigenEstimate:
    """Difference consecutive masses, clip at 0, keep the k largest."""
    cands = []
    prev = 0.0
    for i in range(k):
        cands.append(math.sqrt(max(0.0, est_pos[i] - prev)))
        prev = est_pos[i]
    prev = 0.0
    for i in range(k):
        cands.append(-math.sqrt(max(0.0, est_neg[i] - prev)))
        prev = est_neg[i]
    cands.sort(key=lambda v: (-abs(v), v < 0))
    return EigenEstimate(values=tuple(cands[:k]), error_bound=error_bound)


def top_eigs_signed(op: SymmetricOperator, k: int, eps: float, *,
                    rng=0) -> EigenEstimate:
    """The k largest-magnitude eigenvalues with signs, each within
    eps ||A||_F with probability >= 0.9.

    Runs the mass estimate for A and for -A at every rank i <= k, with inner
    accuracy eps^2/2 and per-task failure probability 1/(20k) so the union
    bound over the 2k tasks leaves 0.9; then
    lambda_i,+ = sqrt(max(0, est_i - est_{i-1})) and symmetrically for the
    negative side, and the two lists merge by magnitude (negatives keeping
    their sign).  Clipping at 0 before the square root absorbs additive error
    on near-zero masses.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    eps_task = 0.5 * eps * eps
    reps = _median_reps(1.0 / (20.0 * k))
    gen = rng_from(rng, 0x7095)
    frob_sq, _ = _frob_sq_estimate(op, eps_task, gen)
    _, rows = _sketch_dims(op.dim, k, eps_task)

    def fresh_sketch(g):
        sk = build_spectrum_sketch(op, k, eps_task, g)
        holdout = _holdout_sketch(op, sk.r, rows, g)
        return sk.m1, sk.m2, sk.q, 0.0, holdout

    est_pos, est_neg = _mass_profiles(k, reps, frob_sq, gen, fresh_sketch)
    return _signed_from_masses(est_pos, est_neg, k,
                               eps * math.sqrt(max(frob_sq, 0.0)))


_RESIDUAL_PROBES = 24


def _adaptive_sketch(op: SymmetricOperator, k: int, eps: float, gen,
                     r=None):
    """Round 1: m1, m2.  Round 2: the cross term restricted to their ranges.

    Any feasible m1 Y m2^T lives in range(m1) x range(m2), so the fit only
    ever reads the cross term through U1^T Q U2; querying that block directly
    costs rank(m1) rank(m2) queries instead of rows^2.  The mass of Q outside
    the block still enters the cost as a constant, split by orthogonality
    into three blocks whose squared norms are estimated with
    _RESIDUAL_PROBES Gaussian probes each.
    """
    d = op.dim
    m, rows = _sketch_dims(d, k, eps)
    if r is None:
        r = gen.standard_normal((d, m))
    s1 = affine_embedding(rows, d, gen)
    s2 = affine_embedding(rows, d, gen)
    m1 = op.bilinear_block(s1.T, r)
    m2 = op.bilinear_block(s2.T, r)

    def range_basis(mat):
        u, sv, _ = np.linalg.svd(mat, full_matrices=False)
        rank = int(np.sum(sv > 1e-10 * (sv[0] if sv.size else 0.0)))
        return u[:, :rank]

    u1 = range_basis(m1)
    u2 = range_basis(m2)
    bq = op.bilinear_block(s1.T @ u1, s2.T @ u2)

    # Probe t draws g_t then h_t, so the pairs come out as rows of one draw.
    gh = gen.standard_normal((_RESIDUAL_PROBES, 2, rows))
    g, h = gh[:, 0].T, gh[:, 1].T
    g_in, h_in = u1 @ (u1.T @ g), u2 @ (u2.T @ h)
    g_out, h_out = g - g_in, h - h_in
    left = s1.T @ np.hstack([g_out, g_in, g_out])
    right = s2.T @ np.hstack([h_in, h_out, h_out])
    resid = float(np.sum(op.quad_forms(left, right) ** 2)) / _RESIDUAL_PROBES
    # Project the regression matrices too; u^T m has the same fit residuals
    # as m once the constant block mass is accounted separately.
    return u1.T @ m1, u2.T @ m2, bq, resid


def top_eigs_signed_adaptive(op: SymmetricOperator, k: int, eps: float, *,
                             rng=0) -> EigenEstimate:
    """Same contract as top_eigs_signed, two query rounds instead of one.

    The cost of a candidate Y decomposes as the fit residual inside
    range(m1) x range(m2) plus the constant cross-term mass outside it
    (Pythagoras, since m1 Y m2^T cannot reach the complement); the adaptive
    round queries the inside block exactly and estimates the outside mass,
    cutting the cross-term queries from rows^2 to rank(m1) rank(m2) plus a
    constant number of probes.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    eps_task = 0.5 * eps * eps
    reps = _median_reps(1.0 / (20.0 * k))
    gen = rng_from(rng, 0x70AD)
    frob_sq, _ = _frob_sq_estimate(op, eps_task, gen)
    m, _ = _sketch_dims(op.dim, k, eps_task)

    def two_round(g):
        r = g.standard_normal((op.dim, m))
        m1, m2, bq, resid = _adaptive_sketch(op, k, eps_task, g, r)
        n1, n2, bq2, resid2 = _adaptive_sketch(op, k, eps_task, g, r)

        def holdout(y, q_sign):
            fit = np.linalg.norm(n1 @ y @ n2.T + q_sign * bq2) ** 2
            return float(fit) + resid2

        return m1, m2, bq, resid, holdout

    est_pos, est_neg = _mass_profiles(k, reps, frob_sq, gen, two_round)
    return _signed_from_masses(est_pos, est_neg, k,
                               eps * math.sqrt(max(frob_sq, 0.0)))
