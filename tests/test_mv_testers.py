"""Tests for the matvec-model testers and the polynomial certificate."""

import math

import numpy as np
import pytest

from krylov_certificate import deflation_poly_certificate
from psdprobe import defaults
from psdprobe.harness import instance_operator
from psdprobe.mv_testers import (
    KrylovSpace,
    build_krylov,
    krylov_degree,
    krylov_tester,
    nonadaptive_mv_tester,
    unrounded_krylov_degree,
)
from psdprobe.oracle import (
    SpectrumInstance,
    SymmetricOperator,
    gen_rotated_diag,
    gen_wishart,
    rng_from,
)
from psdprobe.vmv_testers import _lowest


def far_op_l1(d, depth, rot_seed):
    lam = tuple([-depth] + [(1.0 - depth) / (d - 1)] * (d - 1))
    return gen_rotated_diag(SpectrumInstance(eigenvalues=lam, rotation_seed=rot_seed))


def identity_op(d, rot_seed=0):
    return gen_rotated_diag(SpectrumInstance(eigenvalues=(1.0,) * d,
                                             rotation_seed=rot_seed))


# ---------------------------------------------------------------------------
# build_krylov
# ---------------------------------------------------------------------------

def test_build_krylov_identity_collapses_to_one_dimension():
    op = identity_op(20)
    space = build_krylov(op, 5, seed=1)
    assert space.basis.shape == (20, 1)
    assert space.degenerate
    assert op.mv_queries == 1  # A g = g: the first answer closes the space


def test_build_krylov_two_point_spectrum_is_similar_to_a():
    op = SymmetricOperator(np.diag([1.0, 2.0]))
    space = build_krylov(op, 1, seed=2)
    assert not space.degenerate
    np.testing.assert_allclose(np.linalg.eigvalsh(space.projected), [1.0, 2.0],
                               atol=1e-10)


def test_build_krylov_matches_dense_reconstruction():
    gen = rng_from(5)
    a = gen.standard_normal((64, 64))
    a = (a + a.T) / 2.0
    op = SymmetricOperator(a)
    space = build_krylov(op, 10, seed=3)
    assert op.mv_queries == 11
    assert not space.degenerate
    r = space.basis.shape[1]
    assert r == 11
    # Orthonormality and agreement with the explicitly projected matrix.
    np.testing.assert_allclose(space.basis.T @ space.basis, np.eye(r), atol=1e-9)
    exact = space.basis.T @ a @ space.basis
    assert np.abs(space.projected - exact).max() <= 1e-8 * np.abs(exact).max()
    # Cauchy interlacing against the full spectrum.
    mu = np.linalg.eigvalsh(space.projected)
    lam = np.linalg.eigvalsh(a)
    for i in range(r):
        assert lam[i] - 1e-8 <= mu[i] <= lam[i + 64 - r] + 1e-8


def test_build_krylov_zero_matrix_stops_after_one_query():
    op = SymmetricOperator(np.zeros((10, 10)))
    space = build_krylov(op, 4, seed=0)
    assert op.mv_queries == 1
    assert space.degenerate
    np.testing.assert_array_equal(space.projected, np.zeros((1, 1)))


@pytest.mark.parametrize("d", [256, 1024])
def test_build_krylov_keeps_the_full_degree_on_random_psd(d):
    # eps 0.05 gives k = 33.  A uniform spectrum has no invariant subspace a
    # Gaussian start can reach, so all k+1 vectors stay, and the projected
    # matrix read from the answers is Q^T A Q to rounding.
    k = krylov_degree(0.05, 1, d)
    assert k == 33
    for s in range(10):
        op = instance_operator({"kind": "random_psd", "dim": d}, 0.05, 1.0, s)
        a = op.dense()
        space = build_krylov(op, k, seed=s)
        q = space.basis
        assert q.shape == (d, k + 1)
        assert not space.degenerate
        assert op.mv_queries == k + 1
        scale = float(np.abs(op.eigenvalues()).max())
        assert np.abs(space.projected - q.T @ a @ q).max() <= 1e-12 * scale
        assert np.abs(q.T @ q - np.eye(k + 1)).max() <= 1e-12


def test_build_krylov_validates_degree():
    op = identity_op(10)
    with pytest.raises(ValueError):
        build_krylov(op, -1, seed=0)
    with pytest.raises(ValueError):
        build_krylov(op, 10, seed=0)  # k + 1 > d


def test_krylov_degree_frozen_values():
    assert krylov_degree(0.05, 1, 64) == 33
    assert krylov_degree(0.05, 2, 256) == 318
    assert krylov_degree(0.05, 1, 10_000) == 33  # no dimension factor at p=1
    with pytest.raises(ValueError):
        krylov_degree(0.0, 1, 64)
    with pytest.raises(ValueError):
        krylov_degree(0.1, 0.5, 64)


def test_krylov_degree_takes_the_limit_exponent_at_p_infinity():
    assert unrounded_krylov_degree(0.05, np.inf, 64) == pytest.approx(
        unrounded_krylov_degree(0.05, 1e12, 64))
    assert krylov_degree(0.05, np.inf, 64) == 322
    assert krylov_degree(0.05, 2, 256) == math.ceil(
        unrounded_krylov_degree(0.05, 2, 256))


# ---------------------------------------------------------------------------
# krylov_tester
# ---------------------------------------------------------------------------

def test_krylov_accepts_psd():
    for s in range(10):
        op = gen_wishart(100, seed=s)
        v = krylov_tester(op, 0.1, 1, rng=s)
        assert v.is_psd
        assert v.witness is None
        assert v.mode == "one_sided"
    for s in range(20):
        lam = tuple(rng_from(50 + s).uniform(0.0, 1.0, size=40))
        op = gen_rotated_diag(SpectrumInstance(eigenvalues=lam, rotation_seed=s))
        assert krylov_tester(op, 0.1, 1, rng=s).is_psd


def test_krylov_rejects_far_l1_with_valid_witness():
    rejected = 0
    for s in range(30):
        op = far_op_l1(64, 0.05, 30 + s)
        v = krylov_tester(op, 0.05, 1, rng=s)
        if not v.is_psd:
            rejected += 1
            assert op.quad_form(v.witness) < 0.0
            assert v.statistic < 0.0
    assert rejected >= 28


@pytest.mark.parametrize("kind,accepts", [("random_psd", True), ("far", False),
                                          ("hard_l1", False)])
def test_krylov_verdict_and_queries_do_not_move_with_the_scale(kind, accepts):
    # No norm goes in: the floor scales with the projected matrix itself.
    a = instance_operator({"kind": kind, "dim": 48}, 0.1, 1.0, 5).dense()
    runs = {}
    for c in (1e-150, 1.0, 1e150):
        v = krylov_tester(SymmetricOperator(c * a), 0.1, 1.0, rng=3)
        runs[c] = (v.is_psd, v.queries_used, v.statistic / c)
    assert runs[1.0][0] is accepts
    for c in (1e-150, 1e150):
        assert runs[c][:2] == runs[1.0][:2]
        assert runs[c][2] == pytest.approx(runs[1.0][2], rel=1e-9)


def _krylov_every_repetition(op, eps, p, rng):
    """``krylov_tester``'s verdict with every repetition built, as before a
    spanning accept ended the loop; its queries are charged to op."""
    gen = rng_from(rng, 0x4B70)
    k = min(krylov_degree(eps, p, op.dim), op.dim - 1)
    for _ in range(defaults.KRYLOV_REPEATS):
        space = build_krylov(op, k, gen)
        v = _lowest(space.projected)[1]
        if v is not None and op.quad_form(space.basis @ v) < 0.0:
            return False
    return True


# (kind, d, eps, p, seeds): every cell caps the degree at k = d - 1.  A
# build from a generic start then spans R^d, except on identity and
# hard_l1, whose spaces are invariant early and keep every repetition.
SPANNING_CELLS = [
    ("random_psd", 16, 0.2, 2.0, range(80)),
    ("far", 16, 0.2, 2.0, range(80)),
    ("hard_l1", 8, 0.2, 1.0, range(60)),
    ("identity", 16, 0.2, 2.0, range(40)),
    ("random_psd", 48, 0.05, 2.0, range(40)),
]


def test_krylov_stops_once_an_accepted_space_spans_the_dimension():
    # 300 trials: the verdict is the one every repetition would give, no
    # trial asks more queries, and a spanning accept asks d mv where five
    # builds asked 5 d (random_psd d48, eps 0.05, p = 2: 48 against 240).
    saved = 0
    for kind, d, eps, p, seeds in SPANNING_CELLS:
        assert krylov_degree(eps, p, d) >= d - 1
        for seed in seeds:
            a = instance_operator({"kind": kind, "dim": d}, eps, p, seed).dense()
            op, ref = SymmetricOperator(a), SymmetricOperator(a)
            v = krylov_tester(op, eps, p, rng=seed)
            assert v.is_psd == _krylov_every_repetition(ref, eps, p, seed)
            ref_queries = ref.mv_queries + ref.vmv_queries
            assert v.queries_used <= ref_queries, (kind, d, seed)
            saved += v.queries_used < ref_queries
            if v.is_psd and kind == "random_psd":
                assert (op.mv_queries, ref.mv_queries) == (d, 5 * d)
    assert saved >= 100


@pytest.mark.parametrize("lam,accepts", [(-1.0, False), (2.0, True)])
def test_krylov_decides_a_one_by_one_operator(lam, accepts):
    # At d = 1 the degree is clipped to d - 1 = 0: one mv spans R^1, so the
    # space holds A's one eigenvalue, and a rejection's witness is checked
    # by its one confirming query.
    space = build_krylov(SymmetricOperator([lam]), 0, seed=0)
    assert space.basis.shape == (1, 1) and not space.degenerate
    op = SymmetricOperator([lam])
    v = krylov_tester(op, 0.3, 1.0)
    assert (v.is_psd, v.statistic) == (accepts, lam)
    assert (op.mv_queries, op.vmv_queries) == (1, 0 if accepts else 1)
    if not accepts:
        assert SymmetricOperator([lam]).quad_form(v.witness) < 0.0


def test_krylov_tester_validates():
    op = identity_op(10)
    with pytest.raises(ValueError):
        krylov_tester(op, 0.0, 1)
    with pytest.raises(ValueError):
        krylov_tester(op, 0.1, 0.5)


@pytest.mark.parametrize("p", [0.5, math.nan])
def test_schatten_exponent_below_one_or_nan_is_refused_before_any_query(p):
    # NaN fails every comparison, so it is refused as a p below 1 is, and
    # not later, when the degree or the column count is rounded.
    op = identity_op(10)
    refused = pytest.raises(ValueError,
                            match=f"^Schatten exponent must be >= 1, got {p}$")
    with refused:
        krylov_degree(0.1, p, 10)
    for tester in (krylov_tester, nonadaptive_mv_tester):
        with refused:
            tester(op, 0.1, p)
    assert op.mv_queries == 0 and op.vmv_queries == 0


# ---------------------------------------------------------------------------
# deflation certificate
# ---------------------------------------------------------------------------

def test_certificate_without_positive_eigenvalues():
    poly, mass = deflation_poly_certificate([-0.2] + [0.0] * 9, 0.2, 1, 2)
    assert poly.roots == ()
    assert poly.evaluate(-0.2) == pytest.approx(1.0, abs=1e-9)
    assert mass == 0.0


def test_certificate_deflates_large_eigenvalue_exactly():
    poly, mass = deflation_poly_certificate([-0.1, 0.9], 0.1, 1, 2)
    assert poly.roots == (0.9,)
    assert poly.evaluate(0.9) == 0.0
    assert poly.evaluate(-0.1) == pytest.approx(1.0, abs=1e-9)
    assert mass == 0.0


def test_certificate_bounds_positive_mass():
    spec = [-0.05] + [0.0475] * 20
    poly, mass = deflation_poly_certificate(spec, 0.05, 1, 3)
    assert mass <= 0.005  # eps / 10
    assert mass == pytest.approx(0.001095, abs=1e-4)
    assert poly.degree == 5


def test_certificate_validates_contract():
    with pytest.raises(ValueError):
        deflation_poly_certificate([-0.5, 0.9], 0.5, 1, 2)  # norm > 1
    with pytest.raises(ValueError):
        deflation_poly_certificate([-0.01, 0.5], 0.1, 1, 2)  # not eps-far
    with pytest.raises(ValueError):
        deflation_poly_certificate([], 0.1, 1, 2)
    with pytest.raises(ValueError):
        deflation_poly_certificate([-0.2], 0.1, 1, 0)


def test_certificate_scalar_and_array_evaluation_agree():
    poly, _ = deflation_poly_certificate([-0.1, 0.42, 0.43] + [0.001] * 30,
                                         0.1, 1, 3)
    xs = np.linspace(-0.15, 0.5, 40)
    arr = poly.evaluate(xs)
    for x, v in zip(xs, arr):
        assert poly.evaluate(float(x)) == pytest.approx(v, rel=1e-12, abs=1e-300)


def test_krylov_space_contains_the_certificate_direction():
    # The Krylov space holds p(A)g for any polynomial up to its degree, so
    # lambda_min of the projected matrix can only improve on the Rayleigh
    # quotient of the certificate vector built from the same start.  The
    # bulk decays geometrically so the space does not degenerate early.
    bulk = 0.02 * 0.6 ** np.arange(37)
    bulk *= 0.05 / bulk.sum()
    lam = np.concatenate([[-0.1, 0.42, 0.43], bulk])
    op = gen_rotated_diag(SpectrumInstance(eigenvalues=tuple(lam), rotation_seed=11))
    poly, mass = deflation_poly_certificate(lam, 0.1, 1, 3)
    assert mass <= 0.01
    space = build_krylov(op, 6, seed=21)
    assert not space.degenerate
    assert space.basis.shape[1] > poly.degree

    w, u_mat = np.linalg.eigh(op.dense())
    g = space.basis[:, 0]  # the start direction, up to scale
    pa_g = u_mat @ (poly.evaluate(w) * (u_mat.T @ g))
    rayleigh = float(pa_g @ op.dense() @ pa_g) / float(pa_g @ pa_g)
    assert rayleigh < 0.0  # the certificate itself witnesses non-PSD here
    lam_min_proj = float(np.linalg.eigvalsh(space.projected)[0])
    assert lam_min_proj <= rayleigh + 1e-8


# ---------------------------------------------------------------------------
# nonadaptive_mv_tester
# ---------------------------------------------------------------------------

def test_nonadaptive_mv_never_rejects_psd():
    for s in range(20):
        assert nonadaptive_mv_tester(identity_op(30, rot_seed=s), 0.2, 1,
                                     rng=s).is_psd
    for s in range(20):
        assert nonadaptive_mv_tester(gen_wishart(40, seed=s), 0.2, 2,
                                     rng=s).is_psd
    for s in range(20):
        lam = tuple(rng_from(400 + s).uniform(0.0, 1.0, size=35))
        op = gen_rotated_diag(SpectrumInstance(eigenvalues=lam, rotation_seed=s))
        assert nonadaptive_mv_tester(op, 0.2, 1, rng=s).is_psd


def test_nonadaptive_mv_rejects_far_with_valid_witness():
    rejected = 0
    for s in range(30):
        op = far_op_l1(200, 0.1, 90 + s)
        v = nonadaptive_mv_tester(op, 0.1, 1, rng=s)
        if not v.is_psd:
            rejected += 1
            assert op.quad_form(v.witness) < 0.0
            assert v.mode == "one_sided"
    assert rejected >= 28


def test_nonadaptive_mv_query_counts():
    op = identity_op(200, rot_seed=0)
    v = nonadaptive_mv_tester(op, 0.1, 1, rng=0)
    assert v.queries_used == 5 * 80  # m = ceil(8 / 0.1)

    # p = 2 at this size wants more columns than the dimension; the cap
    # makes the sketch exact at m = d.
    v2 = nonadaptive_mv_tester(op, 0.25, 2, rng=0)
    assert v2.queries_used == 5 * 200

    v3 = nonadaptive_mv_tester(identity_op(50, rot_seed=1), 0.5, 1,
                               rng=0, repeats=2)
    assert v3.queries_used == 2 * 16


def test_nonadaptive_mv_validates():
    op = identity_op(10)
    with pytest.raises(ValueError):
        nonadaptive_mv_tester(op, 1.5, 1)
    with pytest.raises(ValueError):
        nonadaptive_mv_tester(op, 0.1, 0.9)
