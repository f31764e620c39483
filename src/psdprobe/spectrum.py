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
is projected onto the sketch's column spaces, whitened on the joint row space
of the regression matrices, and solved in the factored form Y = Z Z^T by
damped Newton with the exact Hessian from ten starts.  The ten starts run as
one stacked array program: each step builds every running start's gradient
and Hessian at once, and each damping round factors and solves every pending
start in one call, while each start keeps its own damping and stop tests, so
it ends where it would alone.  Tiny instances are certified against a
brute-force oracle, and the stacked program against a one-start-at-a-time
reference, in the test suite.

Every estimate runs one fit-cost loop, ``_fit_costs``: ||A||_F^2, then per
repetition R, a fit and a holdout sketch read through one reader, and a fit
for each (rank, sign) task: one task for ``estimate_Akplus_sq``, ranks 1..k
on both sides for the top-k estimators.  The two readers are the two query
schedules: ``_full_cross`` queries every cross-term entry, while
``_adaptive_sketch`` (``top_eigs_signed_adaptive``) spends one round of
adaptivity to query it only on the realized column spaces of the regression
matrices, plus a handful of Frobenius probes for the mass outside them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from numpy.linalg import _umath_linalg

from . import defaults
from .oracle import SymmetricOperator, rng_from

__all__ = [
    "EigenEstimate",
    "affine_embedding",
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


def _check_k_eps(k: int, eps: float) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")


def _sketch_dims(d: int, k: int, eps: float) -> Tuple[int, int]:
    """m = ceil(SKETCH_R_KAPPA k / eps) columns of R and ceil(EMBED_KAPPA m
    / eps^2) embedding rows, both capped at d, past which rows add nothing."""
    m = min(d, math.ceil(defaults.SKETCH_R_KAPPA * k / eps))
    rows = min(d, math.ceil(defaults.EMBED_KAPPA * m / (eps * eps)))
    return m, rows


def _embedded(op: SymmetricOperator, r: np.ndarray, rows: int, gen):
    """Draw the embeddings S1, S2 and read S1 A R and S2 A R."""
    s1 = affine_embedding(rows, op.dim, gen)
    s2 = affine_embedding(rows, op.dim, gen)
    return s1, s2, op.bilinear_block(s1.T, r), op.bilinear_block(s2.T, r)


_FIT_STARTS = 10


def _reduced_problem(m1: np.ndarray, m2: np.ndarray, target: np.ndarray):
    """Project the fit onto the column spaces of m1 and m2, then whiten it.

    Writing m1 = U1 diag(s1) V1^T (rank-truncated), the objective splits as
    ||C1 Y C2^T - B||_F^2 + c0 with C = diag(s) V^T, B = U1^T target U2, and
    c0 the squared mass of the target outside the two column spaces, which no
    feasible Y can touch.  One SVD of the stacked weights [C1; C2] = U S V^T
    gives their joint row space; substituting Y = W X W^T with W = V S^-1
    leaves the weights C1 W and C2 W, whose Gram matrices sum to the
    identity.  Returns (C1 W, C2 W, B, c0, W), or None if either weight is
    zero.  Every Y built through W lies in the row space of [m1; m2]: the
    directions the sketch cannot see get no mass.
    """
    def rank(sv):
        return int(np.sum(sv > 1e-12 * (sv[0] if sv.size else 0.0)))

    u1, sv1, v1t = np.linalg.svd(m1, full_matrices=False)
    u2, sv2, v2t = np.linalg.svd(m2, full_matrices=False)
    r1, r2 = rank(sv1), rank(sv2)
    if r1 == 0 or r2 == 0:
        return None
    c1 = sv1[:r1, None] * v1t[:r1]
    c2 = sv2[:r2, None] * v2t[:r2]
    b = u1[:, :r1].T @ target @ u2[:, :r2]
    c0 = max(0.0, float(np.sum(target * target) - np.sum(b * b)))
    _, sv, vt = np.linalg.svd(np.vstack([c1, c2]), full_matrices=False)
    r = rank(sv)
    w = vt[:r].T / sv[:r]
    return c1 @ w, c2 @ w, b, c0, w


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


def _fit_starts(c1: np.ndarray, c2: np.ndarray, b: np.ndarray, k: int,
                cols: int, rng) -> np.ndarray:
    """The fit's ten (n, k) starting factors, stacked.

    One 10 x cols x k Gaussian block is drawn from ``rng`` (so the fit
    advances a shared Generator by exactly that block), its leading n rows
    scaled to where ||C1 Z Z^T C2^T|| matches ||B||; up to five spectral
    subsets of the unweighted solution (see _spectral_starts) then replace
    the first slots.
    """
    block = rng_from(rng, 0x0F17).standard_normal((_FIT_STARTS, cols, k))
    zscale = math.sqrt(max(float(np.linalg.norm(b)), 1e-300) / (
        float(np.linalg.norm(c1, 2) * np.linalg.norm(c2, 2)) * k))
    starts = zscale * block[:, :c1.shape[1]]
    for slot, z0 in enumerate(_spectral_starts(c1, c2, b, k,
                                               _FIT_STARTS // 2)):
        starts[slot] = z0
    return starts


def _factorable(mats: np.ndarray) -> np.ndarray:
    """Which of the stacked symmetric matrices pass a Cholesky factorization.

    ``np.linalg.cholesky`` raises if any slice fails; the gufunc behind it
    runs the same LAPACK potrf on each slice and leaves a failed one as NaN,
    so reading it directly gives the per-slice verdict in one call.  Only
    that call's invalid flag is silenced.
    """
    with np.errstate(invalid="ignore"):
        low = _umath_linalg.cholesky_lo(mats, signature="d->d")
    return ~np.isnan(low).any(axis=(-2, -1))


def _residuals(c1: np.ndarray, c2: np.ndarray, b: np.ndarray,
               z: np.ndarray):
    """P1 = C1 Z, P2 = C2 Z, E = P1 P2^T - B and ||E||_F^2 per stacked Z."""
    p1 = c1 @ z
    p2 = c2 @ z
    e = p1 @ p2.swapaxes(-2, -1) - b
    return p1, p2, e, np.sum(e * e, axis=(-2, -1))


def _newton(c1: np.ndarray, c2: np.ndarray, b: np.ndarray,
            z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Damped Newton descent of ||C1 Z Z^T C2^T - B||_F^2 from each of the
    stacked factors z (starts x n x k); returns every start's (cost, Z).

    With P = C Z and E = P1 P2^T - B, half the cost has gradient
    C1^T E P2 + C2^T E^T P1 and the exact Hessian
    J^T J + (C1^T E C2 + C2^T E^T C1) (x) I_k, where J^T J is
    G11 (x) P2^T P2 + G22 (x) P1^T P1 (G = C^T C) plus two cross terms in
    C1^T P1 and C2^T P2.  Each part is one einsum over the stacked factors,
    so no Jacobian is formed.

    Each start keeps its own damping lam: it rises (to at least 1e-3 of the
    Hessian's largest entry, then fourfold) until H + lam I passes a Cholesky
    factorization and the step lowers the cost, and falls fourfold after each
    accepted step.  A start stops at cost 0, at the first accepted step whose
    relative gain is below 1e-13, once a rejected step's predicted gain is,
    or after 100 steps.  The starts run in lockstep: each step builds the
    gradients and Hessians of the starts still running, then each damping
    round factors and solves the starts still pending in one stacked call,
    so every start follows the trajectory it would follow alone.  Over 300
    seeded sketches (d 6-32, k 1-3) the median run stopped after 11 steps;
    the 1% that reach the cap are creeping into worse basins, and a cap of
    2,000 changed no fit's result.
    """
    z = z.copy()
    count, n, k = z.shape
    eye = np.eye(n * k)
    grams = np.zeros((count, 3, n, n))
    grams[:, 0] = c1.T @ c1
    grams[:, 1] = c2.T @ c2
    outer = np.zeros((count, 3, k, k))
    outer[:, 2] = np.eye(k)
    cross = np.empty((count, 2, n, k))
    cost = _residuals(c1, c2, b, z)[3]
    lam = np.zeros(count)
    run = np.arange(count)
    for _ in range(100):
        run = run[cost[run] != 0.0]
        m = run.size
        if m == 0:
            break
        zr, now, lr = z[run], cost[run], lam[run]
        # Recomputing P and E from Z gives the bits the trial step had.
        p1, p2, e, _ = _residuals(c1, c2, b, zr)
        ce = c1.T @ e
        # One (1, nk) row per start: the gain grad @ step then runs the same
        # dot kernel as for a single start.
        grad = (ce @ p2 + c2.T @ (e.swapaxes(1, 2) @ p1)).reshape(m, 1, -1)
        curv = ce @ c2
        g, o, x = grams[:m], outer[:m], cross[:m]
        g[:, 2] = curv + curv.swapaxes(1, 2)
        o[:, 0] = p2.swapaxes(1, 2) @ p2
        o[:, 1] = p1.swapaxes(1, 2) @ p1
        x[:, 0] = c1.T @ p1
        x[:, 1] = c2.T @ p2
        hess = (np.einsum("bsij,bscd->bicjd", g, o)
                + np.einsum("bsid,bsjc->bicjd", x, x[:, ::-1])
                ).reshape(m, n * k, n * k)
        bump = 1e-3 * np.maximum(np.abs(hess).max(axis=(1, 2)), 1e-300)
        descent = -grad.swapaxes(1, 2)
        zc, costc = np.empty_like(zr), np.empty(m)
        pending = np.arange(m)
        while pending.size:
            damped = hess[pending] + lr[pending, None, None] * eye
            ok = _factorable(damped)
            tried = pending[ok]
            step = np.linalg.solve(damped[ok], descent[tried])
            zt = zr[tried] + step.reshape(-1, n, k)
            ct = _residuals(c1, c2, b, zt)[3]
            gain = -(grad[tried] @ step)[:, 0, 0]
            done = (ct < now[tried]) | (gain <= 1e-13 * now[tried])
            zc[tried[done]], costc[tried[done]] = zt[done], ct[done]
            pending = np.concatenate([pending[~ok], tried[~done]])
            lr[pending] = np.maximum(4.0 * lr[pending], bump[pending])
        better = costc < now
        rel = (now - costc) / now
        moved = run[better]
        z[moved], cost[moved] = zc[better], costc[better]
        lam[moved] = 0.25 * lr[better]
        run = run[better & (rel >= 1e-13)]
    return cost, z


def psd_rank_k_fit(m1: np.ndarray, m2: np.ndarray, q: np.ndarray,
                   k: int, *, rng=0) -> Tuple[float, np.ndarray]:
    """Minimize ||m1 Y m2^T - (-q)||_F^2 over PSD Y with rank(Y) <= k.

    Returns (cost, Y).  The problem is projected onto the column spaces of m1
    and m2 and whitened on their joint row space (see _reduced_problem), then
    solved in the factored form Y = Z Z^T, which enforces both constraints,
    by one stacked damped-Newton program (see _newton) over the ten starts
    of _fit_starts; the first start to reach the lowest cost wins.
    Nonconvex, so the starts are the only global guarantee; tiny instances
    are certified against a brute-force oracle in the tests.
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
    c1, c2, b, c0, w = reduced
    costs, zs = _newton(c1, c2, b, _fit_starts(c1, c2, b, k, cols, rng))
    best = int(np.argmin(costs))
    zw = w @ zs[best]
    y = zw @ zw.T
    return (float(costs[best]) + c0, (y + y.T) / 2.0)


def _frob_sq_estimate(op: SymmetricOperator, eps: float, rng) -> float:
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
        return float(np.sum(entries * entries))
    gen = rng_from(rng)
    total = 0.0
    left = budget
    while left > 0:
        block = min(left, 256)
        g = gen.standard_normal((block, d))
        h = gen.standard_normal((block, d))
        total += float(np.sum(op.quad_forms(g.T, h.T) ** 2))
        left -= block
    return total / budget


def _median_reps(delta: float) -> int:
    return max(1, math.ceil(defaults.MEDIAN_REPS_C * math.log(1.0 / delta)))


def _full_cross(op: SymmetricOperator, r: np.ndarray, rows: int, gen):
    """One non-adaptive sketch: m1, m2 and every entry of q = S1 A S2^T."""
    s1, s2, m1, m2 = _embedded(op, r, rows, gen)
    return m1, m2, op.bilinear_block(s1.T, s2.T), 0.0


_RESIDUAL_PROBES = 24


def _adaptive_sketch(op: SymmetricOperator, r: np.ndarray, rows: int, gen):
    """Round 1: m1, m2.  Round 2: the cross term restricted to their ranges.

    Any feasible m1 Y m2^T lives in range(m1) x range(m2), so the fit only
    ever reads the cross term through U1^T Q U2; querying that block directly
    costs rank(m1) rank(m2) queries instead of rows^2.  The mass of Q outside
    the block still enters the cost as a constant, split by orthogonality
    into three blocks whose squared norms are estimated with
    _RESIDUAL_PROBES Gaussian probes each.
    """
    s1, s2, m1, m2 = _embedded(op, r, rows, gen)

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


def _fit_costs(op: SymmetricOperator, k: int, eps: float, reps: int, gen,
               read, tasks: Sequence[Tuple[int, float]]):
    """Returns (||A||_F^2 estimate, costs[rep, task]), one row per repetition.

    Each repetition draws R, then a fit and a holdout sketch over it through
    ``read(op, r, rows, gen)`` -> (m1, m2, q, residual), residual being the
    cross-term mass left unqueried.  Task (rank, sign) fits Y to cross term
    sign * q: sign -1 gives ||A - A_{rank,+}||_F^2, sign +1 the same for -A
    (negating A negates all three products, which cancels out of m1 Y m2^T),
    so all tasks share the sketches.  The fit's cost is biased low because Y
    adapts to the drawn embeddings; re-measuring Y on the holdout sketch is
    biased high by exactly the suboptimality that adaptation bought, and
    the average of the two cancels most of both, which matters at desk
    scale where the embeddings are far from their asymptotic sizes.
    """
    frob_sq = _frob_sq_estimate(op, eps, gen)
    m, rows = _sketch_dims(op.dim, k, eps)
    costs = np.empty((reps, len(tasks)))
    for rep in range(reps):
        r = gen.standard_normal((op.dim, m))
        m1, m2, q, extra = read(op, r, rows, gen)
        n1, n2, q2, extra2 = read(op, r, rows, gen)
        for t, (rank, sign) in enumerate(tasks):
            cost, y = psd_rank_k_fit(m1, m2, sign * q, rank, rng=gen)
            holdout = float(np.linalg.norm(n1 @ y @ n2.T + sign * q2) ** 2)
            costs[rep, t] = 0.5 * (cost + extra + (holdout + extra2))
    return frob_sq, costs


def estimate_Akplus_sq(op: SymmetricOperator, k: int, eps: float,
                       delta: float, *, rng=0) -> float:
    """Estimate ||A_{k,+}||_F^2 within eps ||A||_F^2, failure prob <= delta.

    Because A_{k,+} is the nearest PSD rank-<=k matrix to A and acts on
    eigenspaces orthogonal to the residual, ||A_{k,+}||_F^2 = ||A||_F^2 -
    ||A - A_{k,+}||_F^2.  Both terms come from _fit_costs, the second as
    the one task (k, -1); the difference is medianed over
    ceil(MEDIAN_REPS_C ln(1/delta)) independent sketches.
    """
    _check_k_eps(k, eps)
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    frob_sq, costs = _fit_costs(op, k, eps, _median_reps(delta),
                                rng_from(rng, 0xE571), _full_cross,
                                [(k, -1.0)])
    return max(0.0, float(np.median(frob_sq - costs[:, 0])))


@dataclass(frozen=True)
class EigenEstimate:
    """Signed eigenvalue estimates, sorted by non-increasing magnitude.

    ``error_bound`` is eps times the Frobenius norm estimate used internally:
    the additive radius the per-eigenvalue guarantee targets.
    """

    values: Tuple[float, ...]
    error_bound: float


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


def _mass_profiles(op: SymmetricOperator, k: int, eps: float, rng, salt: int,
                   read) -> EigenEstimate:
    """Median mass estimates for ranks 1..k on both sides, then the signs.

    One _fit_costs run at accuracy eps^2/2 fits the 2k tasks rank-major,
    the positive side (sign -1) before the negative one at each rank.
    """
    _check_k_eps(k, eps)
    tasks = [(i, sign) for i in range(1, k + 1) for sign in (-1.0, 1.0)]
    frob_sq, costs = _fit_costs(op, k, 0.5 * eps * eps,
                                _median_reps(1.0 / (20.0 * k)),
                                rng_from(rng, salt), read, tasks)
    est = np.maximum(0.0, frob_sq - np.median(costs, axis=0))
    return _signed_from_masses(est[0::2], est[1::2], k,
                               eps * math.sqrt(max(frob_sq, 0.0)))


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
    return _mass_profiles(op, k, eps, rng, 0x7095, _full_cross)


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
    return _mass_profiles(op, k, eps, rng, 0x70AD, _adaptive_sketch)
