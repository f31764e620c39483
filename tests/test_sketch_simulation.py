"""adaptive_l2's sketch past k = d, simulated in d dimensions.

A d x k Gaussian G factors as L Q, with L the d x d Bartlett factor and Q
Haar with orthonormal rows, independent of L.  ``_descend`` with
``null = k - d`` runs on the handle of L and keeps x as [Q x, |x_perp|];
each drawn block's directions are rows [a | z | T] (``_draw_rows``).  The
white-box test maps every recorded draw to explicit k-space vectors and
recomputes the run there; the distribution test holds the tester against
its k-space reference, ``adaptive_l2_reference``.
"""

import numpy as np
import pytest
from adaptive_l2_reference import kspace_adaptive_l2
from scipy.stats import fisher_exact, ks_2samp

from psdprobe import vmv_testers
from psdprobe.harness import instance_operator
from psdprobe.oracle import SymmetricOperator, rng_from
from psdprobe.vmv_testers import (
    _bartlett,
    _descend,
    _draw_rows,
    adaptive_l2_tester,
)

ALPHA = 1e-3
SEEDS = 200


class _DriftingOperator(SymmetricOperator):
    """Records every direct quad-form query with the number of descent
    steps charged before it, and answers the first, the start query, with
    a tiny positive value, so an early step crosses the margin and asks a
    confirming query that resynchronizes the run."""

    def __init__(self, matrix):
        super().__init__(matrix)
        self.seen = []

    def quad_form(self, x):
        self.seen.append((max(0, self.vmv_queries - 1) // 2, np.array(x)))
        value = super().quad_form(x)
        return 1e-300 if len(self.seen) == 1 else value


def _completed(w, gen):
    """An orthogonal matrix whose first column is w / |w|."""
    m = np.column_stack([w, gen.standard_normal((w.size, w.size - 1))])
    q, r = np.linalg.qr(m)
    return q * np.sign(np.diag(r))


# d = 4 with k = 9: D - 1 = 4 <= n, plain Gaussian null rows; with k = 80:
# D - 1 = 75 > n, Bartlett rows.  150 steps cross drawn blocks of 4, 8, 16,
# 36, 64 and 22, five folds between them.
@pytest.mark.parametrize("k", [9, 80])
def test_null_simulation_matches_the_explicit_k_space_run(monkeypatch, k):
    d, iters = 4, 150
    null = k - d
    lam = np.array([0.1, 0.3, 0.6, 1.0])
    ell = _bartlett(rng_from(1), d, k)
    o = _completed(rng_from(2).standard_normal(k), rng_from(3))
    q, n_basis = o[:, :d].T, o[:, d:]  # orthonormal rows; null(Q) basis
    g = ell @ q
    b = g.T @ (lam[:, None] * g)
    alpha, denom, shift = affine = (0.5, 2.0, 0.3)  # keeps B' PSD
    b_shift = (b - alpha * np.eye(k)) / denom + shift * np.eye(k)
    up = float(np.trace(b_shift))
    eta = 0.5 / up

    sweeps = []
    sweep = vmv_testers._sweep

    def recording(comp, rows, x, *args):
        m, _ = comp.read(rows[:, :d].T, x[:d])
        out = sweep(comp, rows, x, *args)
        sweeps.append((rows.copy(), x.copy(), np.diagonal(m), out[0] / eta))
        return out

    monkeypatch.setattr(vmv_testers, "_sweep", recording)
    op = _DriftingOperator(lam)
    assert _descend(op.compressed(ell), eta, iters, rng_from(4), up, affine,
                    null) is None
    assert op.vmv_queries == 1 + 2 * iters + 1
    assert sum(len(s[0]) for s in sweeps) == iters

    # The start: x = [v, r] stands for X = Q^T v + r n0, n0 any unit
    # vector of Q's null space.
    start = sweeps[0][1]
    n0 = rng_from(5).standard_normal(null)
    x = q.T @ start[:d] + start[d] * (n_basis @ (n0 / np.linalg.norm(n0)))
    shifted = np.linalg.norm(b, 2) / denom + alpha / denom + shift
    lifted = [g @ x]  # G X after each step, the start's first
    step = 0
    for rows, x0, t_sim, s_sim in sweeps:
        # Each sweep reads a new drawn block, whose null frame x_perp leads.
        frame = _completed(n_basis.T @ x, rng_from(6 + step))
        pad = np.zeros((len(rows), null))
        pad[:, :rows.shape[1] - d] = rows[:, d:]
        us = rows[:, :d] @ q + (pad @ frame.T) @ n_basis.T
        x_pad = np.zeros(null)
        x_pad[:x0.size - d] = x0[d:]
        scale = np.linalg.norm(x)
        assert np.abs(q @ x - x0[:d]).max() <= 1e-12 * scale
        assert np.abs(frame.T @ (n_basis.T @ x) - x_pad).max() <= 1e-12 * scale
        for j, u in enumerate(us):
            bu = b @ u
            t = float(u @ bu)
            s = (float(bu @ x) - alpha * float(u @ x)) / denom \
                + shift * float(u @ x)
            norm_u = float(u @ u)
            assert abs(t - t_sim[j]) <= 1e-12 * np.linalg.norm(b, 2) * norm_u
            assert abs(s - s_sim[j]) <= 1e-12 * shifted * np.sqrt(norm_u) \
                * np.linalg.norm(x)
            x = x - (eta * s) * u
            x_sim = x0 - (eta * s_sim[:j + 1]) @ rows[:j + 1]
            assert abs(float(x @ x) - float(x_sim @ x_sim)) \
                <= 1e-12 * float(x @ x)
            step += 1
            lifted.append(g @ x)
    # The start query and the one confirming query see G X.
    assert [s for s, _ in op.seen][0] == 0 and len(op.seen) == 2
    for s, seen in op.seen:
        want = lifted[s]
        np.testing.assert_allclose(seen, want, rtol=0,
                                   atol=1e-12 * np.linalg.norm(g, 2)
                                   * np.linalg.norm(want))


@pytest.mark.parametrize("null", [5, 76], ids=["gaussian", "bartlett"])
def test_null_rows_have_a_wishart_gram(null):
    # The null part [z | T] of n rows has Gram z z^T + T T^T, which is
    # Wishart_n(D, I): mean D I, and chi^2_D diagonal entries of variance
    # 2 D, uncorrelated with each other.  Each bound is six standard errors
    # of its estimate; the pooled diagonal mean would sit 14 of them off
    # at D = 76 if one chi^2 degree of freedom were lost or gained.
    n, reps = 8, 4000
    gen = rng_from(7)
    grams = np.array([r @ r.T for r in
                      (_draw_rows(gen, n, 2, null)[:, 2:] for _ in range(reps))])
    mean = grams.mean(axis=0)
    sd = np.sqrt(np.where(np.eye(n, dtype=bool), 2.0 * null, null) / reps)
    assert (np.abs(mean - null * np.eye(n)) <= 6.0 * sd).all()
    diag = grams[:, range(n), range(n)].ravel()
    assert abs(diag.mean() - null) <= 6.0 * np.sqrt(2.0 * null / diag.size)
    rel_sd = np.sqrt((2.0 + 12.0 / null) / diag.size)
    assert abs(diag.var() / (2.0 * null) - 1.0) <= 6.0 * rel_sd


def test_the_start_stands_for_a_gaussian_k_vector(monkeypatch):
    # The start [v, r] of a run with D = 5 null dimensions has r^2 ~
    # chi^2_5: mean 5, variance 10, each within six standard errors (a
    # degree of freedom more or less would sit 20 of them off).
    starts = []
    sweep = vmv_testers._sweep

    def recording(comp, rows, x, *args):
        starts.append(x.copy())
        return sweep(comp, rows, x, *args)

    monkeypatch.setattr(vmv_testers, "_sweep", recording)
    comp = SymmetricOperator(np.ones(2)).compressed(np.eye(2))
    gen = rng_from(8)
    for _ in range(4000):
        _descend(comp, 0.01, 1, gen, 1.0, None, 5)
    r2 = np.array([x[2] for x in starts]) ** 2
    assert len(r2) == 4000 and not any(x[3:].any() for x in starts)
    assert abs(r2.mean() - 5.0) <= 6.0 * np.sqrt(10.0 / r2.size)
    assert abs(r2.var() / 10.0 - 1.0) <= 6.0 * np.sqrt((2.0 + 12.0 / 5.0)
                                                      / r2.size)


# (kind, d, instance eps): adaptive_l2 runs at eps 0.5 (k = 664).  The far
# instance built at eps 0.2 is too shallow for eps 0.5, so the tester
# rejects it only about half the time, through its descent.
DISTRIBUTION_CELLS = [("far", 16, 0.5), ("far", 32, 0.5), ("far", 32, 0.2)]


@pytest.mark.parametrize("kind,d,instance_eps", DISTRIBUTION_CELLS,
                         ids=[f"{c[0]}-d{c[1]}-eps{c[2]}"
                              for c in DISTRIBUTION_CELLS])
def test_simulated_sketch_matches_the_k_space_reference(kind, d, instance_eps):
    # Fisher's exact test on the verdicts and a two-sample KS test on the
    # query counts, each at ALPHA, over SEEDS seeds per side.
    sides = {"simulated": [], "k-space": []}
    for seed in range(SEEDS):
        for side, run in sides.items():
            op = instance_operator({"kind": kind, "dim": d}, instance_eps,
                                   2.0, seed)
            if side == "simulated":
                verdict = adaptive_l2_tester(op, 0.5, rng=seed).is_psd
            else:
                verdict = kspace_adaptive_l2(op, 0.5, rng=seed)
            run.append((verdict, op.vmv_queries))
    runs = list(sides.values())
    accepts = [sum(t[0] for t in run) for run in runs]
    pvalues = {
        "verdict": fisher_exact([[a, SEEDS - a] for a in accepts])[1],
        "queries": ks_2samp(*([t[1] for t in run] for run in runs),
                            method="asymp").pvalue,
    }
    assert all(p >= ALPHA for p in pvalues.values()), pvalues
