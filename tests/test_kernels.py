import numpy as np
import pytest

from psdprobe.kernels import (
    ThresholdPolynomial,
    _hutchinson_trace,
    chebyshev_threshold_poly,
    frobenius_estimate,
    schatten1_scale_estimate,
    sym_eig_small,
    trace_estimate,
)
from psdprobe.oracle import SymmetricOperator, rng_from


# ---------------------------------------------------------------- dense

def test_sym_eig_small_ascending_orthonormal_and_reconstructs():
    rng = rng_from(1)
    a = rng.standard_normal((12, 12))
    a = a + a.T
    w, v = sym_eig_small(a)
    assert np.all(np.diff(w) >= 0)
    np.testing.assert_allclose(v.T @ v, np.eye(12), atol=1e-12)
    np.testing.assert_allclose(a @ v, v * w, atol=1e-10)


def test_sym_eig_small_rejects_asymmetry_and_shape():
    with pytest.raises(ValueError):
        sym_eig_small(np.arange(9.0).reshape(3, 3))
    with pytest.raises(ValueError):
        sym_eig_small(np.ones((2, 3)))


# ------------------------------------------------- threshold polynomial

def test_threshold_poly_frozen_degrees():
    assert ThresholdPolynomial(1.0, 0.1, 0.01).degree == 9
    assert ThresholdPolynomial(1.0, 0.05, 0.1).degree == 7
    assert ThresholdPolynomial(2.0, 0.5, 1e-6).degree == 16


def test_threshold_poly_contract_on_fine_grid():
    p = chebyshev_threshold_poly(1.0, 0.1, 0.01)
    assert p.evaluate(-0.1) == pytest.approx(1.0, abs=1e-9)
    grid = np.linspace(0.0, 1.0, 25_000)
    assert np.abs(p.evaluate(grid)).max() <= 0.01


def test_threshold_poly_degree_grows_as_ceiling_shrinks():
    d1 = ThresholdPolynomial(1.0, 0.1, 1e-2).degree
    d2 = ThresholdPolynomial(1.0, 0.1, 1e-4).degree
    assert d1 == 9 and d2 == 16 and d2 > d1


def test_threshold_poly_no_monomial_basis_past_degree_30():
    # Past degree 30 a monomial basis is numerically meaningless; the
    # recurrence still meets the contract there.
    p = ThresholdPolynomial(1.0, 1e-4, 1e-3)
    assert p.degree > 30
    assert p.evaluate(-1e-4) == pytest.approx(1.0, abs=1e-9)
    assert np.abs(p.evaluate(np.linspace(0.0, 1.0, 25_000))).max() <= 1e-3


@pytest.mark.parametrize("r,alpha,delta", [
    (0.0, 0.1, 0.1), (1.0, 0.0, 0.1), (1.0, 0.1, 0.0), (1.0, 0.1, 1.0),
    (-1.0, 0.1, 0.5), (1.0, -0.1, 0.5),
])
def test_threshold_poly_rejects_bad_parameters(r, alpha, delta):
    with pytest.raises(ValueError):
        ThresholdPolynomial(r, alpha, delta)


def test_threshold_poly_scalar_and_array_evaluation_agree():
    p = ThresholdPolynomial(1.0, 0.1, 0.01)
    xs = np.array([-0.1, 0.0, 0.5, 1.0])
    arr = p.evaluate(xs)
    for x, expected in zip(xs, arr):
        val = p.evaluate(float(x))
        assert isinstance(val, float)
        assert val == pytest.approx(expected, abs=0)


# ---------------------------------------------------------- estimators

def test_hutchinson_trace_counts_queries_and_is_unbiased():
    a = np.diag(np.arange(1.0, 9.0))  # trace 36, ||A||_F^2 = 204
    op = SymmetricOperator(a)
    _hutchinson_trace(op, 10, rng_from(0))
    assert op.vmv_queries == 10
    # Mean of single-sample runs over 300 seeds; std of that mean is
    # sqrt(2 * 204 / 300) ~ 1.17, so a 3.5-sigma band is ample.
    vals = [_hutchinson_trace(SymmetricOperator(a), 1, rng_from(3000 + s))
            for s in range(300)]
    assert abs(np.mean(vals) - 36.0) < 4.1


def test_trace_estimate_frozen_run_lands_near_trace():
    op = SymmetricOperator(np.diag(np.arange(1.0, 9.0)))
    est = trace_estimate(op, rng_from(77))
    assert op.vmv_queries == 160
    assert abs(est - 36.0) < 4.0


def test_frobenius_estimate_factor_two_over_many_seeds():
    rng0 = rng_from(500)
    a = rng0.standard_normal((16, 16))
    a = a + a.T
    true_f = np.linalg.norm(a, "fro")
    ok = 0
    for s in range(100):
        est = frobenius_estimate(SymmetricOperator(a), 0.01, rng_from(1000 + s))
        ok += 0.5 * true_f <= est <= 2.0 * true_f
    # Advertised failure rate is 1%; these 100 seeded runs all land inside.
    assert ok == 100


def test_frobenius_estimate_query_count_and_zero_matrix():
    op = SymmetricOperator(np.zeros((6, 6)))
    est = frobenius_estimate(op, 0.01, rng_from(1))
    # ceil(8 ln 100) = 37 repetitions of a 4x4 block of bilinear probes.
    assert op.vmv_queries == 592
    assert est == 0.0
    with pytest.raises(ValueError):
        frobenius_estimate(op, 1.5, rng_from(1))


def test_schatten1_scale_estimate_brackets_nuclear_norm():
    a = np.diag([5.0] + [0.0] * 19)
    for s in range(10):
        op = SymmetricOperator(a)
        lo, up = schatten1_scale_estimate(op, rng_from(2000 + s))
        assert op.vmv_queries == 20
        assert 0 < lo <= 5.0 <= up
        # The bracket width is pinned at 2 d^2 by construction.
        assert up / lo == pytest.approx(2 * 20 ** 2, rel=1e-12)
