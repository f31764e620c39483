import re

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
    rng_from,
)


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
    gram, against = op.compressed(None).read(block, y)
    block[:] = 0.0
    y[:] = 0.0
    assert gram[0, 0] == pytest.approx(got[0], rel=1e-12)
    assert against[0] == pytest.approx(got[0], rel=1e-12)


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
    # Dim 0 is refused in both forms, with or without the symmetry check.
    for empty in (np.zeros((0, 0)), np.zeros(0), []):
        for validate in (True, False):
            with pytest.raises(ValueError, match="empty"):
                SymmetricOperator(empty, validate=validate)


def test_operator_rejects_non_finite_backing():
    with pytest.raises(ValueError, match="non-finite"):
        SymmetricOperator(np.diag([np.nan, 1.0, 1.0, 1.0]))
    backing = np.eye(4)
    backing[1, 2] = backing[2, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        SymmetricOperator(backing)
    with pytest.raises(ValueError, match="non-finite"):
        SymmetricOperator(backing, validate=False)
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            SymmetricOperator(np.array([1.0, value, 2.0]))


def test_diagonal_backing_is_not_capped():
    # The dense cap bounds d x d storage; a vector backing stores d floats.
    lam = np.arange(MAX_DENSE_DIM + 1, dtype=float)
    op = SymmetricOperator(lam)
    assert op.dim == MAX_DENSE_DIM + 1
    np.testing.assert_array_equal(op.mat_vec(np.ones(op.dim)), lam)
    assert op.mv_queries == 1


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
    ok = np.ones((3, 2))
    nan_block = np.ones((3, 2))
    nan_block[1, 1] = np.nan
    calls = [lambda b: op.bilinear_block(b, ok),
             lambda b: op.bilinear_block(ok, b),
             lambda b: op.sym_block(b),
             lambda b: op.quad_forms(b),
             lambda b: op.quad_forms(ok, b),
             lambda b: op.mat_vecs(b)]
    for call in calls:
        with pytest.raises(ValueError, match="non-finite"):
            call(nan_block)
        with pytest.raises(ValueError, match="non-finite"):
            call(np.where(nan_block != nan_block, np.inf, nan_block))
    assert op.mv_queries == 0 and op.vmv_queries == 0


def test_block_queries_reject_bad_shapes():
    op = SymmetricOperator(np.eye(3))
    with pytest.raises(ValueError):
        op.mat_vecs(np.ones(3))            # a vector is not a block
    with pytest.raises(ValueError):
        op.bilinear_block(np.ones((4, 2)), np.ones((3, 2)))
    with pytest.raises(ValueError):
        op.quad_forms(np.ones((3, 2)), np.ones((3, 3)))
    assert op.mv_queries == 0 and op.vmv_queries == 0


def test_scalar_queries_reject_wrong_shapes_and_charge_nothing():
    # The shape is checked before the charge, so a refused query costs
    # nothing and fails with a message naming the query.
    op = SymmetricOperator(np.eye(4))
    ok = np.ones(4)
    for shape in ((3,), (5,), (4, 1), (1, 4), ()):
        bad = np.ones(shape)
        for name, call in (("quad_form", lambda: op.quad_form(bad)),
                           ("bilinear", lambda: op.bilinear(bad, ok)),
                           ("bilinear", lambda: op.bilinear(ok, bad)),
                           ("mat_vec", lambda: op.mat_vec(bad))):
            with pytest.raises(ValueError,
                               match=rf"{name} expects shape \(4,\), got "
                                     rf"{re.escape(str(bad.shape))}"):
                call()
    assert op.mv_queries == 0 and op.vmv_queries == 0


def test_scalar_queries_pass_non_finite_values_through():
    # The descent detects blow-up from the values it gets back, so scalar
    # queries must answer rather than raise.
    op = SymmetricOperator(np.eye(3))
    with np.errstate(invalid="ignore"):
        assert not np.isfinite(op.quad_form(np.array([np.inf, 0.0, 0.0])))
    assert op.vmv_queries == 1


def _dense_blocks(op, dense, x, y):
    """(query, result, expected, vmv charge, mv charge) for every block query."""
    k = x.shape[1]
    return [
        ("bilinear_block", lambda: op.bilinear_block(x, y), x.T @ dense @ y,
         x.shape[1] * y.shape[1], 0),
        ("sym_block", lambda: op.sym_block(x), x.T @ dense @ x,
         k * (k + 1) // 2, 0),
        ("quad_forms", lambda: op.quad_forms(x),
         np.einsum("ij,ij->j", x, dense @ x), k, 0),
        ("quad_forms_xy", lambda: op.quad_forms(x, x[:, ::-1]),
         np.einsum("ij,ij->j", x, dense @ x[:, ::-1]), k, 0),
        ("mat_vecs", lambda: op.mat_vecs(x), dense @ x, 0, k),
    ]


def _check_block_queries(op, dense, x, y, scale):
    for name, run, expected, vmv, mv in _dense_blocks(op, dense, x, y):
        mv0, vmv0 = op.mv_queries, op.vmv_queries
        got = run()
        assert (op.mv_queries - mv0, op.vmv_queries - vmv0) == (mv, vmv), name
        assert got.shape == expected.shape, name
        err = float(np.abs(got - expected).max()) if got.size else 0.0
        assert err <= 1e-12 * scale, (name, err, scale)
        if name == "sym_block":
            np.testing.assert_array_equal(got, got.T)


def _block_scale(dense, x, y):
    """Bound on |x_i^T A y_j|, which sets the size of rounding errors."""
    nrm = float(np.linalg.norm(dense, 2))
    cols = lambda b: float(np.linalg.norm(b, axis=0).max()) if b.size else 0.0
    return max(nrm * max(cols(x), cols(y)) ** 2, 1e-300)


def test_block_queries_match_dense_and_charge_scalar_cost():
    rng = rng_from(31)
    a = rng.standard_normal((12, 12))
    op = SymmetricOperator(a + a.T)
    x = rng.standard_normal((12, 5))
    y = rng.standard_normal((12, 3))
    _check_block_queries(op, op.dense(), x, y, _block_scale(op.dense(), x, y))


def test_block_queries_match_the_scalar_loops_they_replace():
    rng = rng_from(33)
    a = rng.standard_normal((9, 9))
    op = SymmetricOperator(a + a.T)
    x = rng.standard_normal((9, 4))
    y = rng.standard_normal((9, 3))
    loop = np.array([[op.bilinear(xi, yj) for yj in y.T] for xi in x.T])
    np.testing.assert_allclose(op.bilinear_block(x, y), loop,
                               rtol=1e-12, atol=1e-12 * np.abs(loop).max())
    loop = np.array([[op.bilinear(xi, xj) for xj in x.T] for xi in x.T])
    iu = np.triu_indices(4)
    np.testing.assert_allclose(op.sym_block(x)[iu], loop[iu],
                               rtol=1e-12, atol=1e-12 * np.abs(loop).max())
    loop = np.array([op.quad_form(xi) for xi in x.T])
    np.testing.assert_allclose(op.quad_forms(x), loop,
                               rtol=1e-12, atol=1e-12 * np.abs(loop).max())
    v = rng.standard_normal((9, 3))
    loop = np.column_stack([op.mat_vec(c) for c in v.T])
    np.testing.assert_allclose(op.mat_vecs(v), loop, rtol=1e-12,
                               atol=1e-12 * np.abs(loop).max())


def test_diagonal_backing_answers_bit_for_bit_like_diag_lam():
    # A vector backing lam answers every query with the bytes and the
    # memory order that the dense diag(lam) gives, for C- and F-ordered
    # (transposed) blocks alike: its products are C-ordered, as BLAS
    # products are, so the products that read them sum in the same order.
    rng = rng_from(37)
    d = 40
    lam = rng.standard_normal(d)
    lam[::7] = 0.0
    ops = SymmetricOperator(lam), SymmetricOperator(np.diag(lam))
    x, y = rng.standard_normal(d), rng.standard_normal(d)
    g, h = rng.standard_normal((6, d)), rng.standard_normal((6, d))
    queries = [lambda op: op.mat_vec(x), lambda op: op.bilinear(x, y),
               lambda op: op.quad_form(x)]
    for a, b in ((g.T, h.T), (np.ascontiguousarray(g.T), h.T),
                 (np.ascontiguousarray(g.T), np.ascontiguousarray(h.T))):
        queries += [lambda op, a=a: op.mat_vecs(a),
                    lambda op, a=a, b=b: op.bilinear_block(a, b),
                    lambda op, a=a, b=b: op.bilinear_block(b, a),
                    lambda op, a=a: op.sym_block(a),
                    lambda op, a=a: op.quad_forms(a),
                    lambda op, a=a, b=b: op.quad_forms(a, b)]
    for ask in queries:
        got, want = (np.asarray(ask(op)) for op in ops)
        assert got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous == want.flags.c_contiguous
    # The descent's reads, on A and through a narrow and a square map G,
    # U F-ordered, as the descent draws it.
    maps = [(None, rng.standard_normal((5, d)).T, y)]
    for m in (12, d):
        maps.append((rng.standard_normal((d, m)),
                     rng.standard_normal((5, m)).T, rng.standard_normal(m)))
    reads = []
    for op in ops:
        read = []
        for gmap, uu, yy in maps:
            read += [r.tobytes() for r in op.compressed(gmap).read(uu, yy)]
        reads.append(read)
    assert reads[0] == reads[1]
    assert ((ops[0].mv_queries, ops[0].vmv_queries)
            == (ops[1].mv_queries, ops[1].vmv_queries))


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 10), kx=st.integers(0, 6), ky=st.integers(0, 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_block_queries_over_shapes(d, kx, ky, seed):
    rng = rng_from(seed)
    a = rng.standard_normal((d, d))
    op = SymmetricOperator(a + a.T)
    x = rng.standard_normal((d, kx))
    y = rng.standard_normal((d, ky))
    _check_block_queries(op, op.dense(), x, y, _block_scale(op.dense(), x, y))


def _check_read(op, u, y, comp=None, g=None):
    """One read of U and y from ``comp``, a compressed handle on g (on A
    itself when comp is None): U^T B U and U^T B y match the dense
    (G U)^T A (G y) within 1e-12 of ||A||_2 ||G||_2^2 |u| |y|, even once U
    and y are overwritten, the read charges nothing, and each step charged
    after it costs two vmv, up to one step per column of U."""
    dense = op.dense()
    before = (op.mv_queries, op.vmv_queries)
    nrm = float(np.linalg.norm(dense, 2))
    u_buf, y_buf = u.copy(), y.copy()
    comp = op.compressed(None) if comp is None else comp
    gram, against = comp.read(u_buf, y_buf)
    u_buf[:] = np.nan
    y_buf[:] = np.nan
    if g is not None:
        nrm *= float(np.linalg.norm(g, 2)) ** 2
        dense = g.T @ dense @ g
    n = u.shape[1]
    sizes = np.linalg.norm(u, axis=0)
    assert gram.shape == (n, n) and against.shape == (n,)
    assert np.all(np.abs(gram - u.T @ dense @ u)
                  <= 1e-12 * np.maximum(nrm * np.outer(sizes, sizes), 1e-300))
    assert np.all(np.abs(against - u.T @ dense @ y)
                  <= 1e-12 * np.maximum(nrm * sizes * np.linalg.norm(y),
                                        1e-300))
    assert (op.mv_queries, op.vmv_queries) == before
    half = n // 2
    for taken, steps in ((half, half), (n, n - half)):
        comp.charge_steps(steps)
        assert op.vmv_queries == before[1] + 2 * taken
    with pytest.raises(ValueError, match="cannot charge 1 steps"):
        comp.charge_steps(1)
    assert (op.mv_queries, op.vmv_queries) == (before[0], before[1] + 2 * n)


def test_read_charges_nothing_and_steps_two_vmv_each():
    rng = rng_from(34)
    a = rng.standard_normal((12, 12))
    op = SymmetricOperator(a + a.T)
    _check_read(op, rng.standard_normal((12, 5)), rng.standard_normal(12))
    assert op.vmv_queries == 10


def test_read_rejects_bad_blocks_and_charges_nothing():
    op = SymmetricOperator(np.diag([1.0, 2.0, 3.0]))
    bad = np.ones((3, 2))
    for value in (np.nan, np.inf, -np.inf):
        bad[1, 1] = value
        with pytest.raises(ValueError, match="non-finite"):
            op.compressed(None).read(bad, np.ones(3))
    for shape in ((3,), (2, 2), (4, 1), (3, 1, 1)):
        with pytest.raises(ValueError, match="read expects"):
            op.compressed(None).read(np.ones(shape), np.ones(3))
    assert op.mv_queries == 0 and op.vmv_queries == 0


def test_read_checks_its_arguments_and_opens_one_block():
    # Bad steps and a misshaped y raise before any charge, and leave the
    # open block as it was; a non-finite y passes through.  Each read
    # opens its own block's steps in place of any left from the last.
    op = SymmetricOperator(np.eye(4))
    comp = op.compressed(None)
    for steps in (-1, 1):
        with pytest.raises(ValueError, match="cannot charge"):
            comp.charge_steps(steps)
    comp.read(np.ones((4, 2)), np.ones(4))
    for steps in (-1, 3, 5):
        with pytest.raises(ValueError, match="cannot charge"):
            comp.charge_steps(steps)
    for y in (np.ones(3), np.ones(5), np.ones((4, 1)), np.ones((1, 4)),
              [1.0] * 4):
        with pytest.raises(ValueError, match="read expects"):
            comp.read(np.ones((4, 3)), y)
    with pytest.raises(ValueError, match="non-finite"):
        comp.read(np.full((4, 3), np.nan), np.ones(4))
    assert op.mv_queries == 0 and op.vmv_queries == 0
    comp.charge_steps(2)  # the failed reads left the 2-column block open
    assert np.isnan(comp.read(np.ones((4, 3)), np.full(4, np.nan))[1]).all()
    comp.charge_steps(1)
    comp.read(np.ones((4, 1)), np.ones(4))  # two steps left go unused
    with pytest.raises(ValueError, match="cannot charge 2 steps"):
        comp.charge_steps(2)
    comp.charge_steps(1)
    assert op.mv_queries == 0 and op.vmv_queries == 2 * (2 + 1 + 1)


def test_compressed_steps_charge_two_vmv_each_and_match_dense():
    rng = rng_from(35)
    a = rng.standard_normal((12, 12))
    op = SymmetricOperator(a + a.T)
    g = rng.standard_normal((12, 4))
    comp = op.compressed(g)
    assert op.mv_queries == 0 and op.vmv_queries == 0
    g_copy = g.copy()
    g[:] = 0.0  # the handle keeps its own G
    for n in (3, 5):  # the second block is read from the same B
        _check_read(op, rng.standard_normal((4, n)), rng.standard_normal(4),
                    comp, g_copy)
    # B is exactly symmetric, as the backing is: read entrywise through
    # unit directions, b_ij and b_ji are the same float.
    entries, _ = comp.read(np.eye(4), np.zeros(4))
    np.testing.assert_array_equal(entries, entries.T)
    assert op.mv_queries == 0 and op.vmv_queries == 2 * (3 + 5)


def test_compressed_rejects_bad_maps_and_blocks_and_charges_nothing():
    op = SymmetricOperator(np.diag([1.0, 2.0, 3.0]))
    bad = np.ones((3, 2))
    for value in (np.nan, np.inf, -np.inf):
        bad[1, 1] = value
        with pytest.raises(ValueError, match="non-finite"):
            op.compressed(bad)
    for shape in ((3,), (2, 2), (4, 1), (3, 1, 1)):
        with pytest.raises(ValueError, match="compressed expects"):
            op.compressed(np.ones(shape))
    comp = op.compressed(np.ones((3, 2)))
    bad = np.ones((2, 2))
    for value in (np.nan, np.inf, -np.inf):
        bad[0, 1] = value
        with pytest.raises(ValueError, match="non-finite"):
            comp.read(bad, np.ones(2))
    for shape in ((2,), (3, 2), (1, 1), (2, 1, 1)):
        with pytest.raises(ValueError, match="read expects"):
            comp.read(np.ones(shape), np.ones(2))
    with pytest.raises(ValueError, match="read expects"):
        comp.read(np.ones((2, 1)), np.ones(3))
    assert op.mv_queries == 0 and op.vmv_queries == 0


@pytest.mark.parametrize("m", [None, 3, 6, 9])
def test_compressed_reads_match_dense_and_keep_their_own_g(m):
    # On a d = 6 operator, through no map, a narrow, a square and a wide
    # G: the reads match the dense (G U)^T A (G y), each step costs two
    # vmv, lift is G y, and mutating G after the handle is built changes no
    # read.
    rng = rng_from(36)
    a = rng.standard_normal((6, 6))
    op = SymmetricOperator(a + a.T)
    g = None if m is None else rng.standard_normal((6, m))
    comp = op.compressed(g)
    g_copy = None if g is None else g.copy()
    width = 6 if m is None else m
    u, y = rng.standard_normal((width, 4)), rng.standard_normal(width)
    first = comp.read(u, y)
    if g is not None:
        g[:] = 0.0
    _check_read(op, u, y, comp, g_copy)
    for got, want in zip(comp.read(u, y), first):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(comp.lift(y),
                                  y if g is None else g_copy @ y)
    assert op.mv_queries == 0 and op.vmv_queries == 2 * 4


class _ProductCountingOperator(SymmetricOperator):
    """Counts every product with its backing, the one source of answers."""

    def __init__(self, backing):
        super().__init__(backing)
        self.products = 0

    def _product(self, v):
        self.products += 1
        return super()._product(v)


@pytest.mark.parametrize("m", [None, 5, 24])
def test_compressed_handle_asks_a_for_no_product_once_built(m):
    # No G (B is a copy of A), a narrow G (m = 5) and a square one (m = d,
    # as adaptive_l2's Bartlett factor is), on a dense and on a diagonal
    # backing: every read comes from the B the handle formed when it was
    # built, so A sees no product after that, and the reads match the
    # dense (G U)^T A (G y) within 1e-12 of scale.
    rng = rng_from(38)
    d = 24
    a = rng.standard_normal((d, d))
    for backing in (a + a.T, rng.standard_normal(d)):
        op = _ProductCountingOperator(backing)
        g = None if m is None else rng.standard_normal((d, m))
        comp = op.compressed(g)
        built = op.products
        for n in (4, 8, 64):
            _check_read(op, rng.standard_normal((comp.dim, n)),
                        rng.standard_normal(comp.dim), comp, g)
        assert op.products == built
        assert op.mv_queries == 0 and op.vmv_queries == 2 * (4 + 8 + 64)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 10), n=st.integers(0, 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_read_over_widths(d, n, seed):
    rng = rng_from(seed)
    a = rng.standard_normal((d, d))
    op = SymmetricOperator(a + a.T)
    _check_read(op, rng.standard_normal((d, n)), rng.standard_normal(d))
    assert op.vmv_queries == 2 * n


def test_uncounted_access_leaves_counters_alone():
    op = gen_wishart(16, seed=3)
    op.dense()
    eigs = op.eigenvalues()
    np.testing.assert_array_equal(eigs, np.linalg.eigvalsh(op.dense()))
    # The answer is a copy of the cached decomposition: it never writes back.
    op.eigenvalues()[0] = 99.0
    np.testing.assert_array_equal(op.eigenvalues(), eigs)
    assert op.mv_queries == 0 and op.vmv_queries == 0
    # A diagonal backing answers with its entries sorted, also a copy.
    lam = np.array([2.0, -1.0, 0.5])
    diagonal = SymmetricOperator(lam)
    np.testing.assert_array_equal(diagonal.dense(), np.diag(lam))
    diagonal.eigenvalues()[0] = 99.0
    np.testing.assert_array_equal(diagonal.eigenvalues(), np.sort(lam))
    assert diagonal.mv_queries == 0 and diagonal.vmv_queries == 0


def test_rng_from_is_deterministic_and_stream_separated():
    a = rng_from(42, 7).standard_normal(5)
    b = rng_from(42, 7).standard_normal(5)
    c = rng_from(42, 8).standard_normal(5)
    np.testing.assert_array_equal(a, b)
    assert np.abs(a - c).max() > 1e-6
    gen = rng_from(0)
    assert rng_from(gen) is gen


def test_haar_factor_is_orthogonal_and_deterministic():
    q1 = _haar_orthogonal(24, 9)
    assert _haar_orthogonal(24, 9) is q1
    _haar_orthogonal.cache_clear()
    np.testing.assert_array_equal(_haar_orthogonal(24, 9), q1)
    np.testing.assert_allclose(q1 @ q1.T, np.eye(24), atol=1e-12)
    # Every caller shares the memoized array, so none may write to it.
    assert not q1.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        q1[0, 0] = 0.0


def test_rotated_diag_realizes_requested_spectrum():
    for d, trials in ((12, 10), (64, 3), (256, 1)):
        rng = rng_from(21, d)
        for trial in range(trials):
            lam = np.sort(rng.uniform(-5, 5, size=d))
            op = gen_rotated_diag(SpectrumInstance(eigenvalues=tuple(lam),
                                                   rotation_seed=100 + trial))
            np.testing.assert_allclose(np.linalg.eigvalsh(op.dense()), lam,
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
