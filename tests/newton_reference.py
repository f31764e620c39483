"""Sequential reference for the rank-k fit's damped Newton descent.

``spectrum._newton`` runs all ten starts of a fit as one stacked program.
This module keeps the one-start-at-a-time loop it replaced, so the tests can
check that every start of the stacked program follows the same trajectory
and ends on the same (cost, Z), bit for bit.  No estimator calls it.

  * sequential_newton -- damped Newton from one (n, k) factor
  * newton_hessian    -- the exact Hessian that descent factors at Z
"""

from typing import Tuple

import numpy as np


def newton_hessian(c1: np.ndarray, c2: np.ndarray, b: np.ndarray,
                   z: np.ndarray) -> np.ndarray:
    """The (n k) x (n k) Hessian of half ||C1 Z Z^T C2^T - B||_F^2 at z,
    built by the same two einsums as ``sequential_newton``."""
    n, k = z.shape
    p1 = c1 @ z
    p2 = c2 @ z
    curv = c1.T @ (p1 @ p2.T - b) @ c2
    grams = np.stack([c1.T @ c1, c2.T @ c2, curv + curv.T])
    outer = np.stack([p2.T @ p2, p1.T @ p1, np.eye(k)])
    cross = np.stack([c1.T @ p1, c2.T @ p2])
    return (np.einsum("sij,scd->icjd", grams, outer)
            + np.einsum("sid,sjc->icjd", cross, cross[::-1])
            ).reshape(n * k, n * k)


def sequential_newton(c1: np.ndarray, c2: np.ndarray, b: np.ndarray,
                      z: np.ndarray) -> Tuple[float, np.ndarray]:
    """Damped Newton descent of ||C1 Z Z^T C2^T - B||_F^2 from the factor z.

    With P = C Z and E = P1 P2^T - B, half the cost has gradient
    C1^T E P2 + C2^T E^T P1 and the exact Hessian
    J^T J + (C1^T E C2 + C2^T E^T C1) (x) I_k, where J^T J is
    G11 (x) P2^T P2 + G22 (x) P1^T P1 (G = C^T C) plus two cross terms in
    C1^T P1 and C2^T P2.  The damping lam rises until H + lam I passes a
    Cholesky factorization and the step lowers the cost, and falls fourfold
    after each accepted step.  Stops at the first accepted step whose
    relative gain is below 1e-13, once a rejected step's predicted gain is,
    or after 100 steps.
    """
    n, k = z.shape
    eye = np.eye(n * k)
    grams = np.stack([c1.T @ c1, c2.T @ c2, np.zeros((n, n))])
    outer = np.stack([np.zeros((k, k)), np.zeros((k, k)), np.eye(k)])
    cross = np.empty((2, n, k))
    p1 = c1 @ z
    p2 = c2 @ z
    e = p1 @ p2.T - b
    cost = float(np.sum(e * e))
    lam = 0.0
    for _ in range(100):
        if cost == 0.0:
            break
        ce = c1.T @ e
        grad = (ce @ p2 + c2.T @ (e.T @ p1)).ravel()
        curv = ce @ c2
        grams[2] = curv + curv.T
        outer[0] = p2.T @ p2
        outer[1] = p1.T @ p1
        cross[0] = c1.T @ p1
        cross[1] = c2.T @ p2
        hess = (np.einsum("sij,scd->icjd", grams, outer)
                + np.einsum("sid,sjc->icjd", cross, cross[::-1])
                ).reshape(n * k, n * k)
        bump = 1e-3 * max(float(np.abs(hess).max()), 1e-300)
        while True:
            damped = hess + lam * eye
            try:
                np.linalg.cholesky(damped)
            except np.linalg.LinAlgError:
                lam = max(4.0 * lam, bump)
                continue
            step = np.linalg.solve(damped, -grad)
            zc = z + step.reshape(n, k)
            p1c = c1 @ zc
            p2c = c2 @ zc
            ec = p1c @ p2c.T - b
            costc = float(np.sum(ec * ec))
            if costc < cost or -float(grad @ step) <= 1e-13 * cost:
                break
            lam = max(4.0 * lam, bump)
        if not costc < cost:
            break
        rel = (cost - costc) / cost
        z, p1, p2, e, cost = zc, p1c, p2c, ec, costc
        lam *= 0.25
        if rel < 1e-13:
            break
    return cost, z
