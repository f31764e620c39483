"""Shared helpers for the test suite.

The main export is an independent brute-force reference for the compressed
PSD fit: it parametrizes the solution by an orthonormal eigenvector frame
with non-negative weights and searches that space directly, so it shares no
machinery with the production solver it is used to certify.
"""

from types import SimpleNamespace

import numpy as np
from scipy.optimize import minimize

from psdprobe.oracle import SymmetricOperator, rng_from
from psdprobe.spectrum import _embedded, _sketch_dims


def _best_weights(g, h, bb):
    """Exact minimizer over s >= 0 of ||sum_i s_i B_i - b||^2.

    g is the Gram matrix <B_i, B_j>, h the correlations <B_i, b>. With k
    at most 2 the active sets can be enumerated outright.
    """
    k = g.shape[0]
    best = bb
    best_s = np.zeros(k)
    for mask in range(1, 2 ** k):
        idx = [i for i in range(k) if mask >> i & 1]
        gs = g[np.ix_(idx, idx)]
        hs = h[idx]
        try:
            s = np.linalg.solve(gs, hs)
        except np.linalg.LinAlgError:
            continue
        if np.any(s < 0):
            continue
        cost = bb - float(hs @ s)
        if cost < best:
            best = cost
            full = np.zeros(k)
            full[idx] = s
            best_s = full
    return best, best_s


def _polish(c1, c2, b, z0):
    """Drive a candidate factor to its local minimum with L-BFGS."""
    n, k = z0.shape

    def fun(flat):
        z = flat.reshape(n, k)
        e = c1 @ z @ (c2 @ z).T - b
        g = 2.0 * (c1.T @ e @ c2 + c2.T @ e.T @ c1) @ z
        return float(np.sum(e * e)), g.ravel()

    res = minimize(fun, z0.ravel(), jac=True, method="L-BFGS-B",
                   options={"maxiter": 5000, "ftol": 1e-16, "gtol": 1e-14})
    return float(res.fun)


def brute_force_psd_fit(m1, m2, q, k, starts=10_000, seed=0):
    """Global reference for min ||m1 Y m2^T + q||_F^2 over PSD rank-<=k Y.

    Eigenvector parametrization Y = V diag(s) V^T with V orthonormal and
    s >= 0: random orthonormal frames are sampled in bulk (the weights have
    an exact solution per frame), then the best candidates are polished
    with L-BFGS on the factored form. Returns the achieved cost.
    """
    b = -np.asarray(q, dtype=float)
    c1 = np.asarray(m1, dtype=float)
    c2 = np.asarray(m2, dtype=float)
    n = c1.shape[1]
    bb = float(np.sum(b * b))
    gen = rng_from(seed, 0xB40F)

    vs = np.linalg.qr(gen.standard_normal((starts, n, k)))[0]
    u = c1 @ vs
    w = c2 @ vs
    g = np.einsum("rpi,rpj->rij", u, u) * np.einsum("rqi,rqj->rij", w, w)
    h = np.einsum("rpi,pq,rqi->ri", u, b, w)
    costs = np.empty(starts)
    weights = np.empty((starts, k))
    for r in range(starts):
        costs[r], weights[r] = _best_weights(g[r], h[r], bb)

    best_cost = float(np.min(costs))
    for r in np.argsort(costs)[:20]:
        z0 = vs[r] * np.sqrt(weights[r])
        best_cost = min(best_cost, _polish(c1, c2, b, z0))
    scale = np.sqrt(np.linalg.norm(b) /
                    max(np.linalg.norm(c1, 2) * np.linalg.norm(c2, 2), 1e-30))
    for _ in range(10):
        z0 = scale * gen.standard_normal((n, k))
        best_cost = min(best_cost, _polish(c1, c2, b, z0))
    return best_cost


def spectrum_sketch(op, k, eps, rng=0):
    """One fit sketch of op, drawn the way the estimators draw theirs.

    From the 0x5BEC stream of ``rng``: R (d x m), then the embeddings S1,
    S2 and their products m1 = S1 A R, m2 = S2 A R through ``_embedded``,
    then every entry of q = S1 A S2^T.  Returns the six as attributes
    r, s1, s2, m1, m2, q; every product entry cost one counted query.
    """
    m, rows = _sketch_dims(op.dim, k, eps)
    gen = rng_from(rng, 0x5BEC)
    r = gen.standard_normal((op.dim, m))
    s1, s2, m1, m2 = _embedded(op, r, rows, gen)
    return SimpleNamespace(r=r, s1=s1, s2=s2, m1=m1, m2=m2,
                           q=op.bilinear_block(s1.T, s2.T))


def pipeline_fit_instance(idx, with_op=False):
    """A compressed-fit problem shaped like the production pipeline.

    Draws a small symmetric operator with a mixed spectrum, sketches it,
    and returns (m1, m2, q, k). All dimensions stay at most 8.
    """
    gen = rng_from(idx, 0x9A7E)
    d = int(gen.integers(4, 9))
    a = gen.standard_normal((d, d))
    a = (a + a.T) / 2.0
    op = SymmetricOperator(a)
    k = int(gen.integers(1, 3))
    eps = float(gen.uniform(0.2, 0.4))
    sk = spectrum_sketch(op, k=k, eps=eps, rng=int(gen.integers(2 ** 31)))
    sign = 1.0 if gen.integers(2) else -1.0
    if with_op:
        return sk.m1, sk.m2, sign * sk.q, k, op
    return sk.m1, sk.m2, sign * sk.q, k
