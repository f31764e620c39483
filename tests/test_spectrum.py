"""Tests for sketch-based spectrum estimation: the affine embedding, the
compressed PSD rank-k fit, signed top-k eigenvalue recovery, and the
two-round adaptive variant."""

import itertools
import math
import warnings

import numpy as np
import pytest

from conftest import (brute_force_psd_fit, pipeline_fit_instance,
                      spectrum_sketch)
from newton_reference import newton_hessian, sequential_newton
from psdprobe import defaults
from psdprobe.harness import instance_operator
from psdprobe.oracle import (
    SpectrumInstance,
    SymmetricOperator,
    gen_rotated_diag,
    gen_wishart,
    rng_from,
)
from psdprobe.spectrum import (
    EigenEstimate,
    _adaptive_sketch,
    _embedded,
    _factorable,
    _fit_starts,
    _frob_sq_estimate,
    _median_reps,
    _newton,
    _reduced_problem,
    _sketch_dims,
    affine_embedding,
    estimate_Akplus_sq,
    psd_rank_k_fit,
    top_eigs_signed,
    top_eigs_signed_adaptive,
)


def rotated_spectrum(vals, rot_seed):
    return gen_rotated_diag(SpectrumInstance(eigenvalues=tuple(vals),
                                             rotation_seed=rot_seed))


def topk_signed_true(op, k):
    """Exact k largest-magnitude eigenvalues, signed, from dense eigh."""
    ev = np.linalg.eigvalsh(op.dense())
    order = np.argsort(-np.abs(ev))
    return ev[order[:k]]


def pos_mass_true(op, k):
    """Exact ||A_{k,+}||_F^2 from the eigendecomposition."""
    ev = np.linalg.eigvalsh(op.dense())
    top = np.sort(ev[ev > 0])[::-1][:k]
    return float(np.sum(top ** 2))


# ---------------------------------------------------------------------------
# affine_embedding
# ---------------------------------------------------------------------------

def test_affine_embedding_validates():
    with pytest.raises(ValueError):
        affine_embedding(0, 5, seed=0)
    with pytest.raises(ValueError):
        affine_embedding(6, 5, seed=0)


def test_affine_embedding_shape_scale_and_determinism():
    s = affine_embedding(50, 200, seed=3)
    assert s.shape == (50, 200)
    # entries are N(0, 1/rows)
    assert np.var(s) == pytest.approx(1.0 / 50, rel=0.05)
    np.testing.assert_array_equal(s, affine_embedding(50, 200, seed=3))
    assert not np.array_equal(s, affine_embedding(50, 200, seed=4))


def test_affine_embedding_square_concentrates_norms():
    d = 400
    s = affine_embedding(d, d, seed=1)
    gen = rng_from(2)
    for _ in range(5):
        x = gen.standard_normal(d)
        ratio = np.linalg.norm(s @ x) ** 2 / np.linalg.norm(x) ** 2
        assert 0.75 <= ratio <= 1.25


def test_affine_embedding_zero_residual_stays_zero():
    s = affine_embedding(10, 30, seed=0)
    assert np.linalg.norm(s @ np.zeros((30, 4))) == 0.0


def test_affine_embedding_rank_r_distortion():
    # Fixed regression pair with rank-5 design; rows = 40 r keeps the
    # squared residual norm within 30% simultaneously over 100 right-hand
    # sides for at least 18 of 20 embedding draws.
    r, c, d = 5, 2, 240
    rows = 40 * r
    gen = rng_from(0, 0xD157)
    amat = gen.standard_normal((d, r))
    bmat = gen.standard_normal((d, c))
    clean = 0
    for seed in range(20):
        s = affine_embedding(rows, d, seed)
        gx = rng_from(seed, 0xD158)
        good = True
        for _ in range(100):
            x = gx.standard_normal((r, c))
            m = amat @ x - bmat
            ratio = np.linalg.norm(s @ m) ** 2 / np.linalg.norm(m) ** 2
            if not 0.7 <= ratio <= 1.3:
                good = False
                break
        clean += good
    assert clean >= 18


# ---------------------------------------------------------------------------
# sketch dimensions and _embedded
# ---------------------------------------------------------------------------

def test_sketch_dims_cap_at_dimension():
    m, rows = _sketch_dims(32, 3, 0.1)
    assert (m, rows) == (32, 32)
    m, rows = _sketch_dims(6000, 2, 0.5)
    assert m == math.ceil(defaults.SKETCH_R_KAPPA * 2 / 0.5)
    assert rows == math.ceil(defaults.EMBED_KAPPA * m / 0.25)


def test_sketch_shapes_and_query_count():
    op = gen_wishart(16, seed=2)
    sk = spectrum_sketch(op, k=2, eps=0.3, rng=5)
    m, rows = _sketch_dims(16, 2, 0.3)
    assert sk.r.shape == (16, m)
    assert sk.s1.shape == (rows, 16)
    assert sk.s2.shape == (rows, 16)
    assert sk.m1.shape == (rows, m)
    assert sk.q.shape == (rows, rows)
    assert op.vmv_queries == sk.m1.size + sk.m2.size + sk.q.size
    assert op.mv_queries == 0


def test_sketch_products_recomputable_from_dense():
    gen = rng_from(11)
    a = gen.standard_normal((14, 14))
    a = (a + a.T) / 2.0
    op = SymmetricOperator(a)
    sk = spectrum_sketch(op, k=1, eps=0.4, rng=7)
    m1 = sk.s1 @ a @ sk.r
    m2 = sk.s2 @ a @ sk.r
    q = sk.s1 @ a @ sk.s2.T
    pick = rng_from(8)
    for ref, got in ((m1, sk.m1), (m2, sk.m2), (q, sk.q)):
        scale = np.linalg.norm(ref)
        for _ in range(10):
            i = int(pick.integers(ref.shape[0]))
            j = int(pick.integers(ref.shape[1]))
            assert abs(ref[i, j] - got[i, j]) <= 1e-8 * scale


def test_sketch_validates_and_is_deterministic():
    op = gen_wishart(8, seed=0)
    for run in (top_eigs_signed, top_eigs_signed_adaptive):
        with pytest.raises(ValueError):
            run(op, k=0, eps=0.3)
        with pytest.raises(ValueError):
            run(op, k=1, eps=1.0)
    with pytest.raises(ValueError):
        _embedded(op, np.ones((8, 2)), 9, rng_from(0))   # rows > d
    assert op.vmv_queries == 0
    a = spectrum_sketch(op, k=1, eps=0.3, rng=9)
    b = spectrum_sketch(op, k=1, eps=0.3, rng=9)
    np.testing.assert_array_equal(a.q, b.q)
    np.testing.assert_array_equal(a.m1, b.m1)
    np.testing.assert_array_equal(a.m2, b.m2)


# ---------------------------------------------------------------------------
# psd_rank_k_fit
# ---------------------------------------------------------------------------

def test_fit_exact_on_psd_diagonal_target():
    d = np.diag([3.0, 1.0, 0.5])
    eye = np.eye(3)
    cost, y = psd_rank_k_fit(eye, eye, -d, 3)
    assert cost == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(y, d, atol=1e-7)


def test_fit_rank_one_keeps_positive_part():
    eye = np.eye(2)
    cost, y = psd_rank_k_fit(eye, eye, -np.diag([5.0, -3.0]), 1)
    assert cost == pytest.approx(9.0, rel=1e-9)
    np.testing.assert_allclose(y, np.diag([5.0, 0.0]), atol=1e-6)


def test_fit_validates_shapes():
    eye = np.eye(3)
    with pytest.raises(ValueError):
        psd_rank_k_fit(eye, np.eye(4), -np.eye(3), 1)   # column mismatch
    with pytest.raises(ValueError):
        psd_rank_k_fit(eye, eye, np.eye(4), 1)           # wrong q shape
    with pytest.raises(ValueError):
        psd_rank_k_fit(eye, eye, -np.eye(3), 4)          # k > columns
    with pytest.raises(ValueError):
        psd_rank_k_fit(np.ones(3), eye, -np.eye(3), 1)   # not 2-d


def test_fit_zero_regressor_returns_target_mass():
    q = np.arange(9.0).reshape(3, 3)
    cost, y = psd_rank_k_fit(np.zeros((3, 3)), np.eye(3), q, 2)
    assert cost == pytest.approx(np.sum(q * q))
    np.testing.assert_array_equal(y, np.zeros((3, 3)))


def test_fit_deterministic_in_rng():
    m1, m2, q, k = pipeline_fit_instance(3)
    c1, y1 = psd_rank_k_fit(m1, m2, q, k, rng=5)
    c2, y2 = psd_rank_k_fit(m1, m2, q, k, rng=5)
    assert c1 == c2
    np.testing.assert_array_equal(y1, y2)


def test_fit_solution_is_psd_and_rank_bounded():
    for idx in range(10):
        m1, m2, q, k = pipeline_fit_instance(100 + idx)
        _, y = psd_rank_k_fit(m1, m2, q, k)
        np.testing.assert_allclose(y, y.T)
        ev = np.linalg.eigvalsh(y)
        scale = max(np.max(np.abs(ev)), 1e-30)
        assert ev[0] >= -1e-9 * scale
        sv = np.linalg.svd(y, compute_uv=False)
        if k < y.shape[0]:
            assert sv[k] <= 1e-9 * max(sv[0], 1e-30)


def test_fit_matches_brute_force_reference():
    for idx in range(10):
        m1, m2, q, k = pipeline_fit_instance(idx)
        cost, _ = psd_rank_k_fit(m1, m2, q, k)
        ref = brute_force_psd_fit(m1, m2, q, k, starts=3000, seed=idx)
        scale = max(ref, 1e-9 * np.linalg.norm(q) ** 2, 1e-12)
        assert abs(cost - ref) <= 1e-4 * scale


def test_fit_cost_never_beats_unconstrained_projection():
    # The PSD rank-k cost is at least the mass of the target outside the
    # regressors' column spaces.
    for idx in range(5):
        m1, m2, q, k = pipeline_fit_instance(200 + idx)
        target = -q
        u1 = np.linalg.svd(m1, full_matrices=False)[0]
        u2 = np.linalg.svd(m2, full_matrices=False)[0]
        outside = (np.linalg.norm(target) ** 2
                   - np.linalg.norm(u1.T @ target @ u2) ** 2)
        cost, _ = psd_rank_k_fit(m1, m2, q, k)
        assert cost >= outside - 1e-8 * np.linalg.norm(target) ** 2


def test_fit_puts_no_mass_where_the_sketch_is_blind():
    # A rank-2 spectrum leaves [m1; m2] rank 2 of 8 columns; Y must live in
    # its row space, since nothing in the cost pins it down elsewhere.
    for seed in range(10):
        op = rotated_spectrum([2.0, -1.0] + [0.0] * 6, rot_seed=seed)
        sk = spectrum_sketch(op, k=3, eps=0.3, rng=seed)
        stacked = np.vstack([sk.m1, sk.m2])
        _, sv, vt = np.linalg.svd(stacked)
        null = vt[int(np.sum(sv > 1e-9 * sv[0])):].T
        assert null.shape[1] > 0
        for sign in (1.0, -1.0):
            _, y = psd_rank_k_fit(sk.m1, sk.m2, sign * sk.q, 3, rng=seed)
            assert np.linalg.norm(y) > 0.0
            assert np.linalg.norm(y @ null) <= 1e-9 * np.linalg.norm(y)


def test_fit_raises_no_float_warnings_on_a_rank_one_sketch():
    op = rotated_spectrum([0.6] + [0.0] * 5, rot_seed=0)
    sk = spectrum_sketch(op, k=3, eps=0.2, rng=0)
    for sign in (-1.0, 1.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cost, y = psd_rank_k_fit(sk.m1, sk.m2, sign * sk.q, 3)
        assert np.isfinite(cost) and np.all(np.isfinite(y))


@pytest.mark.parametrize("k,spectrum", [
    (1, [3.0, -2.0, 1.0, 0.5, -0.5, 0.2, 0.1, -0.1]),
    (3, [3.0, -2.0, 1.0, 0.5, -0.5, 0.2, 0.1, -0.1]),
    (2, [2.0, -1.0] + [0.0] * 6),
])
def test_fit_draws_exactly_one_start_block(k, spectrum):
    # The fit shares its Generator with the sketches around it, so it must
    # advance it by the 10 x cols x k start block and nothing else.
    sk = spectrum_sketch(rotated_spectrum(spectrum, rot_seed=4), k=k,
                               eps=0.3, rng=5)
    gen, twin = rng_from(21), rng_from(21)
    psd_rank_k_fit(sk.m1, sk.m2, sk.q, k, rng=gen)
    twin.standard_normal((10, sk.m1.shape[1], k))
    np.testing.assert_array_equal(gen.standard_normal(4),
                                  twin.standard_normal(4))


def _reference_problems(count):
    """Seeded reduced fit problems (d 6-32, k 1-3) with the fit's ten starts.

    Each draws a dense symmetric operator, sketches it the way the
    estimators do, and reduces the fit of either sign of the cross term;
    yields (c1, c2, b, starts) with the starts built by _fit_starts.
    """
    for idx in range(count):
        gen = rng_from(idx, 0x5EF1)
        d = int(gen.integers(6, 33))
        k = int(gen.integers(1, 4))
        a = gen.standard_normal((d, d))
        op = SymmetricOperator((a + a.T) / 2.0)
        sk = spectrum_sketch(op, k=k, eps=float(gen.uniform(0.2, 0.4)),
                             rng=idx)
        sign = float(gen.choice([-1.0, 1.0]))
        c1, c2, b, _, _ = _reduced_problem(sk.m1, sk.m2, -sign * sk.q)
        assert k <= c1.shape[1]
        yield c1, c2, b, _fit_starts(c1, c2, b, k, sk.m1.shape[1], rng=idx)


def test_stacked_newton_matches_sequential_reference():
    # Every start of the stacked program ends on the (cost, Z) that the
    # one-start-at-a-time descent reaches from it, bit for bit.
    for c1, c2, b, starts in _reference_problems(300):
        costs, zs = _newton(c1, c2, b, starts)
        assert costs.shape == (10,) and zs.shape == starts.shape
        for i, z0 in enumerate(starts):
            cost, z = sequential_newton(c1, c2, b, z0)
            assert float(costs[i]).hex() == float(cost).hex()
            assert zs[i].tobytes() == z.tobytes()


def _cholesky_passes(mat):
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return False
    return True


def _minimum_hessians(count):
    """Hessians at the best end point of k=2 fits, with Z S for S = [[0, 1],
    [-1, 0]]: the cost is invariant under Z -> Z Q, so H vec(Z S) ~ 0."""
    for c1, c2, b, starts in _reference_problems(count):
        if starts.shape[2] != 2:
            continue
        costs, zs = _newton(c1, c2, b, starts)
        z = zs[int(np.argmin(costs))]
        yield newton_hessian(c1, c2, b, z), z @ np.array([[0.0, 1.0],
                                                          [-1.0, 0.0]])


def test_factorable_agrees_with_cholesky_slice_by_slice():
    gen = rng_from(0, 0xFAC7)
    a = gen.standard_normal((4, 4, 4))
    pd = a @ a.swapaxes(1, 2) + 1e-3 * np.eye(4)
    q = np.linalg.qr(gen.standard_normal((4, 4, 4)))[0]
    indefinite = (q * [3.0, 1.0, -0.5, 2.0]) @ q.swapaxes(1, 2)
    # Integer outer products: rank 1 and 2 with exact arithmetic, so the
    # factorization meets an exact zero pivot.
    v = gen.integers(-3, 4, (4, 4, 2)).astype(float)
    v[:, 0, :] = [1.0, 0.0]
    singular = np.concatenate([v[:2, :, :1] @ v[:2, :, :1].swapaxes(1, 2),
                               v[2:] @ v[2:].swapaxes(1, 2)])
    kinds = {"pd": (pd, True), "indefinite": (indefinite, False),
             "singular": (singular, False)}
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for name, (mats, expected) in kinds.items():
            mixed = np.concatenate([mats, pd[:1]])
            got = _factorable(mixed)
            assert got.tolist() == [_cholesky_passes(m) for m in mixed], name
            assert got[:-1].tolist() == [expected] * len(mats), name
        seen = 0
        for hess, rotation in _minimum_hessians(40):
            scale = np.abs(hess).max() * np.linalg.norm(rotation)
            assert np.linalg.norm(hess @ rotation.ravel()) <= 1e-6 * scale
            assert _factorable(hess[None]).tolist() == [_cholesky_passes(hess)]
            seen += 1
    assert seen >= 5
    assert np.geterr() == before


# ---------------------------------------------------------------------------
# _frob_sq_estimate
# ---------------------------------------------------------------------------

def test_frob_sq_exact_read_at_small_dimension():
    gen = rng_from(4)
    a = gen.standard_normal((12, 12))
    a = (a + a.T) / 2.0
    op = SymmetricOperator(a)
    val = _frob_sq_estimate(op, 0.05, rng=0)
    assert op.vmv_queries == 12 * 13 // 2
    assert val == pytest.approx(np.linalg.norm(a) ** 2, rel=1e-12)


def test_frob_sq_sampled_path_is_unbiased_enough():
    # eps large enough that the Gaussian budget undercuts the exact read.
    d = 64
    gen = rng_from(5)
    a = gen.standard_normal((d, d))
    a = (a + a.T) / 2.0
    op = SymmetricOperator(a)
    budget = math.ceil(defaults.FROB_SQ_KAPPA / 0.25)
    assert budget < d * (d + 1) // 2
    vals = [_frob_sq_estimate(SymmetricOperator(a), 0.5, rng=s)
            for s in range(30)]
    assert np.median(vals) == pytest.approx(np.linalg.norm(a) ** 2, rel=0.35)
    assert op.vmv_queries == 0


# ---------------------------------------------------------------------------
# estimate_Akplus_sq
# ---------------------------------------------------------------------------

def test_akplus_validates():
    op = gen_wishart(8, seed=0)
    for bad in (dict(k=0, eps=0.2, delta=0.1), dict(k=1, eps=0.0, delta=0.1),
                dict(k=1, eps=0.2, delta=1.0)):
        with pytest.raises(ValueError):
            estimate_Akplus_sq(op, **bad)


@pytest.mark.parametrize("estimate", [
    lambda op: top_eigs_signed(op, 9, 0.3),
    lambda op: top_eigs_signed_adaptive(op, 9, 0.3),
    lambda op: estimate_Akplus_sq(op, 9, 0.3, 0.1),
], ids=["top_eigs_signed", "top_eigs_signed_adaptive", "estimate_Akplus_sq"])
def test_estimators_refuse_k_above_d_before_any_query(estimate):
    op = gen_wishart(6, seed=1)
    with pytest.raises(ValueError, match=r"d=6 operator, got k=9"):
        estimate(op)
    assert (op.mv_queries, op.vmv_queries) == (0, 0)


def test_akplus_full_mass_on_low_rank_psd():
    vals = np.concatenate([[2.0, 1.0], np.zeros(14)])
    op = rotated_spectrum(vals, rot_seed=6)
    est = estimate_Akplus_sq(op, k=2, eps=0.15, delta=0.125, rng=9)
    assert est == pytest.approx(5.0, abs=0.15 * 5.0)


def test_akplus_diagonal_example():
    vals = np.zeros(32)
    vals[:3] = [5.0, -3.0, 1.0]
    op = SymmetricOperator(np.diag(vals))
    frob_sq = float(np.sum(vals ** 2))
    est = estimate_Akplus_sq(op, k=1, eps=0.1, delta=0.125, rng=3)
    assert abs(est - 25.0) <= 0.1 * frob_sq


def test_akplus_sign_flip_duality():
    # Estimating on -A measures the negative-side mass of A.
    vals = np.zeros(32)
    vals[:4] = [2.5, -3.0, 2.0, -1.0]
    op_neg = SymmetricOperator(-np.diag(vals))
    est = estimate_Akplus_sq(op_neg, k=2, eps=0.1, delta=0.125, rng=17)
    assert abs(est - 10.0) <= 0.1 * np.sum(vals ** 2)


def test_akplus_matches_eigendecomposition_sweep():
    # 100 seeded instances at d <= 32; the additive error must hold in at
    # least 90 of them.
    hits = 0
    for trial in range(100):
        gen = rng_from(trial, 0xE9E5)
        d = int(gen.integers(12, 25))
        vals = gen.standard_normal(d)
        op = rotated_spectrum(vals, rot_seed=int(gen.integers(2 ** 31)))
        k = 1 + trial % 2
        eps = 0.2
        truth = pos_mass_true(op, k)
        est = estimate_Akplus_sq(op, k=k, eps=eps, delta=0.1,
                                 rng=3000 + trial)
        if abs(est - truth) <= eps * float(np.sum(vals ** 2)):
            hits += 1
    assert hits >= 90


# ---------------------------------------------------------------------------
# top_eigs_signed
# ---------------------------------------------------------------------------

def test_eigen_estimate_is_immutable():
    e = EigenEstimate(values=(1.0, -0.5), error_bound=0.1)
    with pytest.raises(Exception):
        e.values = (2.0,)


def test_top_eigs_diagonal_example():
    vals = np.zeros(32)
    vals[:3] = [5.0, -3.0, 1.0]
    op = SymmetricOperator(np.diag(vals))
    r = top_eigs_signed(op, k=2, eps=0.1, rng=11)
    allow = 0.1 * math.sqrt(35.0)
    assert abs(r.values[0] - 5.0) <= allow
    assert abs(r.values[1] + 3.0) <= allow
    assert r.error_bound == pytest.approx(allow, rel=1e-6)


def test_top_eigs_wishart_example():
    op = gen_wishart(64, seed=4)
    true3 = topk_signed_true(op, 3)
    fro = np.linalg.norm(np.linalg.eigvalsh(op.dense()))
    r = top_eigs_signed(op, k=3, eps=0.2, rng=12)
    assert all(v > 0 for v in r.values)
    for est, ref in zip(r.values, true3):
        assert abs(est - ref) <= 0.2 * fro


def test_top_eigs_zero_operator():
    op = SymmetricOperator(np.zeros((12, 12)))
    r = top_eigs_signed(op, k=3, eps=0.2, rng=13)
    assert r.values == (0.0, 0.0, 0.0)
    assert r.error_bound == 0.0


def test_top_eigs_sorted_by_magnitude():
    op = gen_wishart(16, seed=8)
    r = top_eigs_signed(op, k=3, eps=0.3, rng=21)
    mags = [abs(v) for v in r.values]
    assert mags == sorted(mags, reverse=True)
    assert len(r.values) == 3


def test_top_eigs_query_count_reuses_sketch_across_tasks():
    # One fit sketch and one holdout sketch per repetition serve all 2k
    # fits: the vmv total is the exact Frobenius read plus reps identical
    # double fills, nothing else.
    d, k, eps = 16, 2, 0.3
    op = gen_wishart(d, seed=14)
    top_eigs_signed(op, k=k, eps=eps, rng=2)
    eps_task = 0.5 * eps * eps
    m, rows = _sketch_dims(d, k, eps_task)
    per_sketch = 2 * rows * m + rows * rows
    reps = _median_reps(1.0 / (20.0 * k))
    assert op.vmv_queries == d * (d + 1) // 2 + reps * 2 * per_sketch
    assert op.mv_queries == 0


def test_top_eigs_deterministic():
    op1 = gen_wishart(12, seed=3)
    op2 = gen_wishart(12, seed=3)
    r1 = top_eigs_signed(op1, k=2, eps=0.3, rng=6)
    r2 = top_eigs_signed(op2, k=2, eps=0.3, rng=6)
    assert r1 == r2


def test_mass_profile_monotone_in_rank():
    # est(||A_{i,+}||^2) must grow with i up to twice the additive error.
    d = 24
    vals = np.zeros(d)
    vals[:5] = [4.0, 3.0, -2.0, 1.0, -0.5]
    op = SymmetricOperator(np.diag(vals))
    eps = 0.15
    frob_sq = _frob_sq_estimate(op, eps, rng_from(5, 0xF00D))
    sk = spectrum_sketch(op, k=4, eps=eps, rng=6)
    prev = -np.inf
    for i in range(1, 5):
        cost, _ = psd_rank_k_fit(sk.m1, sk.m2, -sk.q, i, rng=7)
        est = frob_sq - cost
        assert est >= prev - 2 * eps * frob_sq
        prev = est


def test_top_eigs_signs_correct_under_separation():
    # Spectra with |lambda_k| >= |lambda_{k+1}| + 2 eps ||A||_F: every
    # estimate that lands within the additive radius of its eigenvalue must
    # carry that eigenvalue's sign.
    k, eps = 2, 0.15
    for trial in range(6):
        gen = rng_from(trial, 0x51BE)
        d = 24
        vals = np.zeros(d)
        vals[0] = float(gen.choice([-1.0, 1.0]))
        vals[1] = 0.8 * float(gen.choice([-1.0, 1.0]))
        vals[2:] = 0.03 * gen.standard_normal(d - 2)
        fro = float(np.linalg.norm(vals))
        assert abs(vals[1]) >= np.max(np.abs(vals[2:])) + 2 * eps * fro
        op = rotated_spectrum(vals, rot_seed=int(gen.integers(2 ** 31)))
        lam = topk_signed_true(op, k)
        r = top_eigs_signed(op, k=k, eps=eps, rng=900 + trial)
        for i in range(k):
            matches = [v for v in r.values if abs(v - lam[i]) <= eps * fro]
            for v in matches:
                assert np.sign(v) == np.sign(lam[i])


# ---------------------------------------------------------------------------
# top_eigs_signed_adaptive
# ---------------------------------------------------------------------------

def test_adaptive_agrees_with_nonadaptive():
    # Spectra with two dominant, magnitude-separated eigenvalues, so both
    # variants estimate the same pair and the comparison is meaningful.
    k, eps = 2, 0.25
    for trial in range(20):
        gen = rng_from(trial, 0xADA7)
        d = int(gen.integers(12, 20))
        vals = np.zeros(d)
        vals[0] = 1.3 * float(gen.choice([-1.0, 1.0]))
        vals[1] = 0.9 * float(gen.choice([-1.0, 1.0]))
        vals[2:] = 0.2 * 0.8 ** np.arange(d - 2) * gen.choice([-1.0, 1.0],
                                                              d - 2)
        rot = int(gen.integers(2 ** 31))
        ra = top_eigs_signed_adaptive(rotated_spectrum(vals, rot), k=k,
                                      eps=eps, rng=40 + trial)
        rn = top_eigs_signed(rotated_spectrum(vals, rot), k=k,
                             eps=eps, rng=40 + trial)
        combined = ra.error_bound + rn.error_bound
        direct = max(abs(va - vn) for va, vn in zip(ra.values, rn.values))
        swapped = max(abs(va - vn)
                      for va, vn in zip(ra.values, rn.values[::-1]))
        assert min(direct, swapped) <= combined


def test_adaptive_round_two_query_count():
    # On a low-rank operator the cross block shrinks to rank(m1) rank(m2)
    # entries plus the fixed residual probes, far below the rows^2 a
    # non-adaptive sketch pays.
    d, rank = 40, 5
    gen = rng_from(3, 0x10C4)
    u = np.linalg.qr(gen.standard_normal((d, rank)))[0]
    vals = np.array([4.0, -2.5, 1.5, 1.0, -0.5])
    op = SymmetricOperator((u * vals) @ u.T)
    k, eps = 2, 0.2
    m, rows = _sketch_dims(d, k, eps)
    gen = rng_from(7)
    r = gen.standard_normal((d, m))
    m1, m2, bq, resid = _adaptive_sketch(op, r, rows, gen)
    round_two = op.vmv_queries - 2 * rows * m
    r1, r2 = m1.shape[0], m2.shape[0]
    assert r1 <= rank and r2 <= rank
    assert bq.shape == (r1, r2)
    assert round_two == r1 * r2 + 3 * 24
    assert round_two <= (r1 + m) * (r2 + m) + 100
    assert round_two < rows * rows
    assert resid >= 0.0


def test_adaptive_pythagorean_split_is_exact():
    # The fit cost splits into the projected block plus three constant
    # blocks of q; the four terms reproduce the direct residual norm.
    gen = rng_from(3)
    m1 = gen.standard_normal((12, 6))
    m2 = gen.standard_normal((12, 6))
    q = gen.standard_normal((12, 12))
    z = gen.standard_normal((6, 2))
    y = z @ z.T
    u1 = np.linalg.svd(m1, full_matrices=False)[0]
    u2 = np.linalg.svd(m2, full_matrices=False)[0]
    p1 = u1 @ u1.T
    p2 = u2 @ u2.T
    eye = np.eye(12)
    direct = np.linalg.norm(m1 @ y @ m2.T - q) ** 2
    terms = (np.linalg.norm(u1.T @ (m1 @ y @ m2.T - q) @ u2) ** 2
             + np.linalg.norm(p1 @ q @ (eye - p2)) ** 2
             + np.linalg.norm((eye - p1) @ q @ p2) ** 2
             + np.linalg.norm((eye - p1) @ q @ (eye - p2)) ** 2)
    assert terms == pytest.approx(direct, rel=1e-6)


def test_adaptive_zero_operator():
    op = SymmetricOperator(np.zeros((10, 10)))
    r = top_eigs_signed_adaptive(op, k=2, eps=0.3, rng=1)
    assert r.values == (0.0, 0.0)


# ---------------------------------------------------------------------------
# pinned estimator outputs
# ---------------------------------------------------------------------------

_SPIKE = {"kind": "rotated_diag", "eigenvalues": [5.0] + [1.0] * 15}
_NEG_SPIKE = {"kind": "rotated_diag", "eigenvalues": [-5.0] + [1.0] * 15}
_WISHART = {"kind": "wishart", "dim": 16}

# (estimator, instance, k, eps, seed) -> (vmv queries, float.hex of the
# result): the eigenvalues then the error bound for the top-k estimators,
# the mass for estimate_Akplus_sq (delta 0.1).  The spike rows are the
# benchmark's spectrum_fit cells (d=16, eps 0.2, k=1, p=2), with the
# spike's rotation and the estimator taking the same seed.  The hex strings
# pin float bit patterns, so they hold for one numpy/BLAS build.
SPECTRUM_BYTE_TABLE = [
    ("top_eigs_signed", _SPIKE, 1, 0.2, 5,
     (13960, ("0x1.374f14d748829p+2",), "0x1.43d136248490ep+0")),
    ("top_eigs_signed", _SPIKE, 1, 0.2, 6,
     (13960, ("0x1.3ceb8d31848c0p+2",), "0x1.43d136248490ep+0")),
    ("top_eigs_signed", _NEG_SPIKE, 1, 0.2, 5,
     (13960, ("-0x1.2d2d66b5a10d1p+2",), "0x1.43d136248490ep+0")),
    ("top_eigs_signed_adaptive", _SPIKE, 1, 0.2, 5,
     (15256, ("0x1.3c14ba81a978cp+2",), "0x1.43d136248490ep+0")),
    ("top_eigs_signed_adaptive", _NEG_SPIKE, 1, 0.2, 5,
     (15256, ("-0x1.3666fd98f99e8p+2",), "0x1.43d136248490ep+0")),
    ("estimate_Akplus_sq", _SPIKE, 1, 0.2, 5,
     (10888, "0x1.752a8779f231cp+4")),
    ("estimate_Akplus_sq", _SPIKE, 1, 0.2, 6,
     (10888, "0x1.99a68e9b5ec16p+4")),
    ("top_eigs_signed", _WISHART, 3, 0.5, 5,
     (20104, ("0x1.ee03176638877p+1", "0x1.624a3941d3e01p+1",
              "0x1.12a3aa616b1f5p+1"), "0x1.91ab3d41f4c1dp+1")),
    ("top_eigs_signed_adaptive", _WISHART, 3, 0.5, 5,
     (21976, ("0x1.0b252f00b4f1ap+2", "0x1.496a3f6b70105p+1",
              "0x1.ea5c73271a27bp+0"), "0x1.91ab3d41f4c1dp+1")),
    ("estimate_Akplus_sq", _WISHART, 3, 0.5, 5,
     (10888, "0x1.d5a0b2350fb88p+4")),
]


@pytest.mark.parametrize("estimator",
                         [top_eigs_signed, top_eigs_signed_adaptive])
@pytest.mark.parametrize("instance", [_SPIKE, _NEG_SPIKE], ids=["pos", "neg"])
def test_spike_cells_recover_the_signed_top_eigenvalue(estimator, instance):
    # The benchmark's spectrum_fit cells, held here to the sign and the
    # radius; the harness's coverage check holds their trials to the same.
    lam = instance["eigenvalues"][0]
    for seed in range(10):
        op = instance_operator(instance, 0.2, 2.0, seed)
        est = estimator(op, 1, 0.2, rng=seed)
        assert np.sign(est.values[0]) == np.sign(lam)
        assert abs(est.values[0] - lam) <= est.error_bound


@pytest.mark.parametrize(
    "name,instance,k,eps,seed,expected", SPECTRUM_BYTE_TABLE,
    ids=[f"{r[0]}-{r[1]['kind']}{'-neg' if r[1] is _NEG_SPIKE else ''}"
         f"-k{r[2]}-s{r[4]}" for r in SPECTRUM_BYTE_TABLE])
def test_spectrum_outputs_match_byte_table(name, instance, k, eps, seed,
                                           expected):
    # The spike rows keep the rotation they were recorded under, seeded by
    # the trial seed, so the table pins estimator arithmetic rather than the
    # harness's diagonal instance build.
    if instance["kind"] == "rotated_diag":
        op = rotated_spectrum(instance["eigenvalues"], seed)
    else:
        op = instance_operator(instance, eps, 2.0, seed)
    if name == "estimate_Akplus_sq":
        got = float(estimate_Akplus_sq(op, k, eps, 0.1, rng=seed)).hex()
        assert (op.vmv_queries, got) == expected
        return
    run = {"top_eigs_signed": top_eigs_signed,
           "top_eigs_signed_adaptive": top_eigs_signed_adaptive}[name]
    est = run(op, k, eps, rng=seed)
    assert (op.vmv_queries, tuple(float(v).hex() for v in est.values),
            float(est.error_bound).hex()) == expected
