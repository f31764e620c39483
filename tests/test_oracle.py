import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdprobe.oracle import (
    MAX_DENSE_DIM,
    SpectrumInstance,
    SymmetricOperator,
    _haar_orthogonal,
    gen_rotated_diag,
    gen_spiked_sym,
    gen_wishart,
    operator_from_descriptor,
    rng_from,
)
from psdprobe.vmv_testers import SketchedOperator


def test_query_counters_start_at_zero_and_count_exactly():
    op = SymmetricOperator(np.diag([1.0, 2.0, 3.0]))
    assert op.mv_queries == 0 and op.vmv_queries == 0
    rng = rng_from(0)
    v = rng.standard_normal(3)
    op.mat_vec(v)
    op.mat_vec(v)
    assert op.mv_queries == 2 and op.vmv_queries == 0
    op.bilinear(v, v)
    op.quad_form(v)
    op.quad_form(v)
    assert op.mv_queries == 2 and op.vmv_queries == 3


def test_mat_vec_and_bilinear_match_dense():
    rng = rng_from(11)
    a = rng.standard_normal((8, 8))
    a = a + a.T
    op = SymmetricOperator(a)
    x = rng.standard_normal(8)
    y = rng.standard_normal(8)
    np.testing.assert_allclose(op.mat_vec(y), a @ y, rtol=0, atol=1e-12)
    assert op.bilinear(x, y) == pytest.approx(x @ a @ y, abs=1e-10)
    assert op.quad_form(x) == pytest.approx(x @ a @ x, abs=1e-10)


def test_bilinear_is_symmetric_and_polarization_holds():
    rng = rng_from(12)
    a = rng.standard_normal((16, 16))
    op = SymmetricOperator(a + a.T)
    for _ in range(20):
        x = rng.standard_normal(16)
        y = rng.standard_normal(16)
        assert op.bilinear(x, y) == pytest.approx(op.bilinear(y, x), rel=1e-9, abs=1e-12)
        # Polarization off the quadratic form alone.
        lhs = 0.25 * (op.quad_form(x + y) - op.quad_form(x - y))
        assert lhs == pytest.approx(op.bilinear(x, y), rel=1e-8, abs=1e-9)


def test_mutating_a_query_vector_never_changes_a_later_answer():
    rng = rng_from(13)
    a = rng.standard_normal((10, 10))
    a = a + a.T
    op = SymmetricOperator(a)
    y = rng.standard_normal(10)
    e = np.zeros(10)
    first = []
    for i in range(10):
        # One buffer, rewritten in place between queries.
        e[:] = 0.0
        e[i] = 1.0
        first.append(op.bilinear(e, y))
    np.testing.assert_allclose(first, a @ y, atol=1e-12)
    y_saved = y.copy()
    y *= 3.0
    assert op.quad_form(y) == pytest.approx(y @ a @ y, rel=1e-12)
    assert op.bilinear(e, y) == pytest.approx(3.0 * first[-1], rel=1e-12)
    y[:] = y_saved
    assert op.bilinear(e, y) == pytest.approx(first[-1], rel=1e-12)
    block = np.eye(10)
    block[:, 0] = y
    got = op.quad_forms(block)
    block[:, 0] = 0.0
    np.testing.assert_allclose(op.quad_forms(block)[1:], got[1:], rtol=1e-12)
    assert op.quad_forms(block)[0] == 0.0
    block[:, 0] = y
    handle = op.directions(block)
    block[:] = 0.0
    assert handle.quad_form(0) == pytest.approx(got[0], rel=1e-12)
    assert handle.bilinear(0, y) == pytest.approx(got[0], rel=1e-12)


def test_operator_rejects_bad_backing():
    with pytest.raises(ValueError):
        SymmetricOperator(np.ones((3, 4)))
    with pytest.raises(ValueError):
        SymmetricOperator(np.arange(9.0).reshape(3, 3))  # not symmetric
    with pytest.raises(ValueError):
        op = SymmetricOperator(np.eye(3))
        op.mat_vec(np.ones(4))
    too_big = SpectrumInstance(eigenvalues=(1.0,) * (MAX_DENSE_DIM + 1),
                               rotation_seed=0)
    with pytest.raises(ValueError):
        gen_rotated_diag(too_big)


def test_operator_rejects_non_finite_backing():
    with pytest.raises(ValueError, match="non-finite"):
        SymmetricOperator(np.diag([np.nan, 1.0, 1.0, 1.0]))
    backing = np.eye(4)
    backing[1, 2] = backing[2, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        SymmetricOperator(backing)
    with pytest.raises(ValueError, match="non-finite"):
        SymmetricOperator(backing, validate=False)


def test_backing_near_the_float_maximum_stays_finite():
    # Symmetrizing as (a + a^T) / 2 overflowed entries above ~9e307 to inf.
    op = SymmetricOperator([[1e308, 0.0], [0.0, 1e308]])
    assert np.isfinite(op.dense()).all()
    assert op.quad_form(np.array([1.0, 0.0])) == 1e308
    # Halving first changes no bit of an ordinary symmetrized backing.
    a = rng_from(14).standard_normal((9, 9))
    for scale in (1.0, 1e300, 1e-300):
        b = a * scale
        np.testing.assert_array_equal(SymmetricOperator(b, validate=False).dense(),
                                      (b + b.T) / 2.0)


def test_block_queries_reject_non_finite_blocks_and_charge_nothing():
    op = SymmetricOperator(np.diag([1.0, 2.0, 3.0]))
    red = SketchedOperator(op, np.ones((3, 2)))
    good = np.ones((3, 2))
    bad = np.ones((3, 2))
    bad[1, 1] = np.nan
    for target, ok, nan_block in ((op, good, bad), (red, good[:2], bad[:2])):
        calls = [lambda b: target.bilinear_block(b, ok),
                 lambda b: target.bilinear_block(ok, b),
                 lambda b: target.sym_block(b),
                 lambda b: target.quad_forms(b),
                 lambda b: target.quad_forms(ok, b)]
        if target is op:
            calls.append(lambda b: target.mat_vecs(b))
        for call in calls:
            with pytest.raises(ValueError, match="non-finite"):
                call(nan_block)
            with pytest.raises(ValueError, match="non-finite"):
                call(np.where(nan_block != nan_block, np.inf, nan_block))
    assert op.mv_queries == 0 and op.vmv_queries == 0
    assert red.vmv_queries == 0


def test_block_queries_reject_bad_shapes():
    op = SymmetricOperator(np.eye(3))
    with pytest.raises(ValueError):
        op.mat_vecs(np.ones(3))            # a vector is not a block
    with pytest.raises(ValueError):
        op.bilinear_block(np.ones((4, 2)), np.ones((3, 2)))
    with pytest.raises(ValueError):
        op.quad_forms(np.ones((3, 2)), np.ones((3, 3)))
    red = SketchedOperator(op, np.ones((3, 2)))
    with pytest.raises(NotImplementedError):
        red.mat_vecs(np.ones((2, 1)))
    assert op.mv_queries == 0 and op.vmv_queries == 0


def test_scalar_queries_pass_non_finite_values_through():
    # The descent detects blow-up from the values it gets back, so scalar
    # queries must answer rather than raise.
    op = SymmetricOperator(np.eye(3))
    with np.errstate(invalid="ignore"):
        assert not np.isfinite(op.quad_form(np.array([np.inf, 0.0, 0.0])))
    assert op.vmv_queries == 1


def _dense_blocks(target, dense, x, y):
    """(query, result, expected, vmv charge, mv charge) for every block query."""
    k = x.shape[1]
    cases = [
        ("bilinear_block", lambda: target.bilinear_block(x, y), x.T @ dense @ y,
         x.shape[1] * y.shape[1], 0),
        ("sym_block", lambda: target.sym_block(x), x.T @ dense @ x,
         k * (k + 1) // 2, 0),
        ("quad_forms", lambda: target.quad_forms(x),
         np.einsum("ij,ij->j", x, dense @ x), k, 0),
        ("quad_forms_xy", lambda: target.quad_forms(x, x[:, ::-1]),
         np.einsum("ij,ij->j", x, dense @ x[:, ::-1]), k, 0),
    ]
    if isinstance(target, SymmetricOperator):
        cases.append(("mat_vecs", lambda: target.mat_vecs(x), dense @ x, 0, k))
    return cases


def _check_block_queries(target, dense, x, y, scale):
    counters = [target] + ([target.parent] if isinstance(target, SketchedOperator)
                           else [])
    for name, run, expected, vmv, mv in _dense_blocks(target, dense, x, y):
        before = [(c.mv_queries, c.vmv_queries) for c in counters]
        got = run()
        for c, (mv0, vmv0) in zip(counters, before):
            assert (c.mv_queries - mv0, c.vmv_queries - vmv0) == (mv, vmv), name
        assert got.shape == expected.shape, name
        err = float(np.abs(got - expected).max()) if got.size else 0.0
        assert err <= 1e-12 * scale, (name, err, scale)
        if name == "sym_block":
            np.testing.assert_array_equal(got, got.T)


def _block_scale(dense, x, y, g=None):
    """Bound on |x_i^T M y_j|, which sets the size of rounding errors."""
    nrm = float(np.linalg.norm(dense, 2))
    if g is not None:
        nrm *= float(np.linalg.norm(g, 2)) ** 2
    cols = lambda b: float(np.linalg.norm(b, axis=0).max()) if b.size else 0.0
    return max(nrm * max(cols(x), cols(y)) ** 2, 1e-300)


def test_block_queries_match_dense_and_charge_scalar_cost():
    rng = rng_from(31)
    a = rng.standard_normal((12, 12))
    op = SymmetricOperator(a + a.T)
    x = rng.standard_normal((12, 5))
    y = rng.standard_normal((12, 3))
    _check_block_queries(op, op.dense(), x, y, _block_scale(op.dense(), x, y))


def test_sketched_block_queries_match_dense_and_charge_parent_equally():
    rng = rng_from(32)
    a = rng.standard_normal((12, 12))
    op = SymmetricOperator(a + a.T)
    g = rng.standard_normal((12, 6))
    red = SketchedOperator(op, g)
    x = rng.standard_normal((6, 4))
    y = rng.standard_normal((6, 2))
    _check_block_queries(red, red.realize(), x, y,
                         _block_scale(op.dense(), x, y, g))


def test_block_queries_match_the_scalar_loops_they_replace():
    rng = rng_from(33)
    a = rng.standard_normal((9, 9))
    op = SymmetricOperator(a + a.T)
    red = SketchedOperator(op, rng.standard_normal((9, 5)))
    for target in (op, red):
        x = rng.standard_normal((target.dim, 4))
        y = rng.standard_normal((target.dim, 3))
        loop = np.array([[target.bilinear(xi, yj) for yj in y.T] for xi in x.T])
        np.testing.assert_allclose(target.bilinear_block(x, y), loop,
                                   rtol=1e-12, atol=1e-12 * np.abs(loop).max())
        loop = np.array([[target.bilinear(xi, xj) for xj in x.T] for xi in x.T])
        iu = np.triu_indices(4)
        np.testing.assert_allclose(target.sym_block(x)[iu], loop[iu],
                                   rtol=1e-12, atol=1e-12 * np.abs(loop).max())
        loop = np.array([target.quad_form(xi) for xi in x.T])
        np.testing.assert_allclose(target.quad_forms(x), loop,
                                   rtol=1e-12, atol=1e-12 * np.abs(loop).max())
    v = rng.standard_normal((9, 3))
    loop = np.column_stack([op.mat_vec(c) for c in v.T])
    np.testing.assert_allclose(op.mat_vecs(v), loop, rtol=1e-12,
                               atol=1e-12 * np.abs(loop).max())


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 10), kx=st.integers(0, 6), ky=st.integers(0, 6),
       m=st.integers(1, 10), seed=st.integers(0, 2 ** 32 - 1))
def test_block_queries_over_shapes(d, kx, ky, m, seed):
    rng = rng_from(seed)
    a = rng.standard_normal((d, d))
    op = SymmetricOperator(a + a.T)
    x = rng.standard_normal((d, kx))
    y = rng.standard_normal((d, ky))
    _check_block_queries(op, op.dense(), x, y, _block_scale(op.dense(), x, y))
    m = min(m, d)
    g = rng.standard_normal((d, m))
    red = SketchedOperator(op, g)
    xs = rng.standard_normal((m, kx))
    ys = rng.standard_normal((m, ky))
    _check_block_queries(red, red.realize(), xs, ys,
                         _block_scale(op.dense(), xs, ys, g))


def _check_directions(op, u, y):
    """Charges and values of every read of a directions handle on U."""
    dense = op.dense()
    before = (op.mv_queries, op.vmv_queries)
    handle = op.directions(u)
    assert (op.mv_queries, op.vmv_queries) == before
    nrm = float(np.linalg.norm(dense, 2))
    reads = 0
    for j in range(u.shape[1]):
        uj = u[:, j]
        for read, want, size in (
                (lambda: handle.quad_form(j), uj @ dense @ uj, uj @ uj),
                (lambda: handle.bilinear(j, y), uj @ dense @ y,
                 np.linalg.norm(uj) * np.linalg.norm(y))):
            got = read()
            reads += 1
            assert op.vmv_queries == before[1] + reads
            assert isinstance(got, float)
            assert abs(got - want) <= 1e-12 * max(nrm * size, 1e-300)
    assert op.mv_queries == before[0]


def test_directions_charge_one_vmv_per_read_and_match_dense():
    rng = rng_from(34)
    a = rng.standard_normal((12, 12))
    op = SymmetricOperator(a + a.T)
    _check_directions(op, rng.standard_normal((12, 5)), rng.standard_normal(12))
    assert op.vmv_queries == 10


def test_directions_reject_bad_blocks_and_charge_nothing():
    op = SymmetricOperator(np.diag([1.0, 2.0, 3.0]))
    bad = np.ones((3, 2))
    for value in (np.nan, np.inf, -np.inf):
        bad[1, 1] = value
        with pytest.raises(ValueError, match="non-finite"):
            op.directions(bad)
    for shape in ((3,), (2, 2), (4, 1), (3, 1, 1)):
        with pytest.raises(ValueError, match="directions expects"):
            op.directions(np.ones(shape))
    red = SketchedOperator(op, np.ones((3, 2)))
    with pytest.raises(NotImplementedError):
        red.directions(np.ones((2, 1)))
    assert op.mv_queries == 0 and op.vmv_queries == 0
    assert red.vmv_queries == 0


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 10), n=st.integers(0, 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_directions_over_widths(d, n, seed):
    rng = rng_from(seed)
    a = rng.standard_normal((d, d))
    op = SymmetricOperator(a + a.T)
    _check_directions(op, rng.standard_normal((d, n)), rng.standard_normal(d))
    assert op.vmv_queries == 2 * n


def test_uncounted_access_leaves_counters_alone():
    op = gen_wishart(16, seed=3)
    op.dense()
    op.eigenvalues()
    op.schatten_norm(1)
    op.schatten_norm(np.inf)
    assert op.mv_queries == 0 and op.vmv_queries == 0


def test_schatten_norms_match_direct_computation():
    op = gen_rotated_diag(SpectrumInstance(eigenvalues=(3.0, -4.0, 0.0, 1.0),
                                           rotation_seed=5))
    assert op.schatten_norm(1) == pytest.approx(8.0, rel=1e-9)
    assert op.schatten_norm(2) == pytest.approx(np.sqrt(26.0), rel=1e-9)
    assert op.schatten_norm(np.inf) == pytest.approx(4.0, rel=1e-9)


def test_rng_from_is_deterministic_and_stream_separated():
    a = rng_from(42, 7).standard_normal(5)
    b = rng_from(42, 7).standard_normal(5)
    c = rng_from(42, 8).standard_normal(5)
    np.testing.assert_array_equal(a, b)
    assert np.abs(a - c).max() > 1e-6
    gen = rng_from(0)
    assert rng_from(gen) is gen


def test_haar_factor_is_orthogonal_and_deterministic():
    q1 = _haar_orthogonal(24, rng_from(9))
    q2 = _haar_orthogonal(24, rng_from(9))
    np.testing.assert_array_equal(q1, q2)
    np.testing.assert_allclose(q1 @ q1.T, np.eye(24), atol=1e-12)


def test_rotated_diag_realizes_requested_spectrum():
    rng = rng_from(21)
    for trial in range(10):
        lam = np.sort(rng.uniform(-5, 5, size=12))
        op = gen_rotated_diag(SpectrumInstance(eigenvalues=tuple(lam),
                                               rotation_seed=100 + trial))
        np.testing.assert_allclose(op.eigenvalues(), lam,
                                   atol=1e-9 * max(1.0, np.abs(lam).max()))


def test_rotated_diag_isotropic_case_is_exact_identity_multiple():
    op = gen_rotated_diag(SpectrumInstance(eigenvalues=(2.5,) * 100,
                                           rotation_seed=1))
    np.testing.assert_array_equal(op.dense(), 2.5 * np.eye(100))


def test_spectrum_instance_coerces_and_rejects_empty():
    inst = SpectrumInstance(eigenvalues=(1, -2, 3), rotation_seed=0)
    assert inst.eigenvalues == (1.0, -2.0, 3.0)
    with pytest.raises(ValueError):
        SpectrumInstance(eigenvalues=(), rotation_seed=0)


def test_wishart_is_psd_with_trace_near_dimension():
    # W = X X^T with X entries N(0, 1/d): each diagonal entry is a chi^2_d / d
    # average, so tr(W) concentrates on d with variance 2.
    op = gen_wishart(64, seed=7)
    w = op.eigenvalues()
    assert w.min() >= -1e-10
    assert 56.0 < w.sum() < 72.0
    np.testing.assert_array_equal(op.dense(), gen_wishart(64, seed=7).dense())


def test_spiked_embedding_eigenvalues_pair_around_shift():
    d = 32
    shift = 2.1 * np.sqrt(d)
    op = gen_spiked_sym(d, s=0.0, shift=shift, seed=17)
    assert op.dim == 2 * d
    assert np.allclose(np.diag(op.dense()), shift)
    w = np.sort(op.eigenvalues() - shift)
    # Eigenvalues of [[0,B],[B^T,0]] come in +-sigma pairs.
    np.testing.assert_allclose(w, -w[::-1], atol=1e-8)
    # Unspiked bulk edge sits near 2 sqrt(d) < shift, so this draw is PSD.
    assert op.eigenvalues().min() > 0


def test_spiked_embedding_large_spike_breaks_psd():
    d = 32
    op = gen_spiked_sym(d, s=3.0, shift=2.1 * np.sqrt(d), seed=17)
    assert op.eigenvalues().min() < 0


@pytest.mark.parametrize("desc", [
    {"kind": "rotated_diag", "eigenvalues": [1.0, -2.0, 0.5], "seed": 4},
    {"kind": "wishart", "dim": 12, "seed": 4},
    {"kind": "spiked", "dim": 8, "s": 1.5, "shift": 6.0, "seed": 4},
])
def test_descriptor_round_trip(desc):
    op = operator_from_descriptor(desc)
    op2 = operator_from_descriptor(dict(desc))
    np.testing.assert_array_equal(op.dense(), op2.dense())


@pytest.mark.parametrize("desc", [
    {"kind": "nope"},
    {"kind": "wishart", "seed": 1},
    {"kind": "rotated_diag", "seed": 1},
    "not a dict",
])
def test_descriptor_errors_are_value_errors(desc):
    with pytest.raises(ValueError):
        operator_from_descriptor(desc)
