"""Tests for the matvec-model testers and the polynomial certificate."""

import numpy as np
import pytest

from psdprobe.mv_testers import (
    KrylovSpace,
    build_krylov,
    deflation_poly_certificate,
    krylov_degree,
    krylov_tester,
    nonadaptive_mv_tester,
)
from psdprobe.oracle import (
    SpectrumInstance,
    SymmetricOperator,
    gen_rotated_diag,
    gen_wishart,
    rng_from,
)


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
    assert op.mv_queries == 6  # queries are spent before the collapse shows


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


def test_build_krylov_validates_degree():
    op = identity_op(10)
    with pytest.raises(ValueError):
        build_krylov(op, 0, seed=0)
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


# ---------------------------------------------------------------------------
# krylov_tester
# ---------------------------------------------------------------------------

def test_krylov_accepts_psd():
    for s in range(10):
        op = gen_wishart(100, seed=s)
        v = krylov_tester(op, 0.1, 1, op.schatten_norm(1), rng=s)
        assert v.is_psd
        assert v.witness is None
        assert v.mode == "one_sided"
    for s in range(20):
        lam = tuple(rng_from(50 + s).uniform(0.0, 1.0, size=40))
        op = gen_rotated_diag(SpectrumInstance(eigenvalues=lam, rotation_seed=s))
        assert krylov_tester(op, 0.1, 1, op.schatten_norm(1), rng=s).is_psd


def test_krylov_rejects_far_l1_with_valid_witness():
    rejected = 0
    for s in range(30):
        op = far_op_l1(64, 0.05, 30 + s)
        v = krylov_tester(op, 0.05, 1, op.schatten_norm(1), rng=s)
        if not v.is_psd:
            rejected += 1
            assert op.quad_form(v.witness) < 0.0
            assert v.statistic < 0.0
    assert rejected >= 28


def test_krylov_tester_validates():
    op = identity_op(10)
    with pytest.raises(ValueError):
        krylov_tester(op, 0.0, 1, 1.0)
    with pytest.raises(ValueError):
        krylov_tester(op, 0.1, 0.5, 1.0)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            krylov_tester(op, 0.1, 1, bad)


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
