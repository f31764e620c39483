"""Tests for the vmv-query testers: Oja descent, bilinear sketch, the
shifted-sketch adaptive tester and the non-adaptive compression tester."""

import hashlib
import math

import numpy as np
import pytest

from psdprobe import defaults
from psdprobe.harness import instance_operator
from psdprobe.oracle import (
    SpectrumInstance,
    SymmetricOperator,
    gen_rotated_diag,
    gen_wishart,
    rng_from,
)
from psdprobe.vmv_testers import (
    OjaConfig,
    SketchState,
    Verdict,
    adaptive_l2_tester,
    bilinear_sketch_tester,
    build_sketch,
    c_far_curve,
    _descend,
    _gap_sketch_dim,
    _scale_grid,
    gamma_statistic,
    nonadaptive_l1_tester,
    oja_l1_tester,
    sketch_dim,
    sketch_reduce,
)


def identity_op(d, rot_seed=0):
    inst = SpectrumInstance(eigenvalues=(1.0,) * d, rotation_seed=rot_seed)
    return gen_rotated_diag(inst)


def far_op_l1(d, depth, rot_seed):
    """lambda_min = -depth with the rest of the unit trace norm spread flat."""
    lam = tuple([-depth] + [(1.0 - depth) / (d - 1)] * (d - 1))
    return gen_rotated_diag(SpectrumInstance(eigenvalues=lam, rotation_seed=rot_seed))


def far_op_frob(d, ratio, rot_seed):
    """lambda_min = -ratio * ||A||_F against a flat positive bulk at 1."""
    a = math.sqrt(ratio ** 2 * (d - 1) / (1.0 - ratio ** 2))
    lam = tuple([-a] + [1.0] * (d - 1))
    return gen_rotated_diag(SpectrumInstance(eigenvalues=lam, rotation_seed=rot_seed))


# ---------------------------------------------------------------------------
# config and verdict types
# ---------------------------------------------------------------------------

def test_verdict_is_immutable():
    v = Verdict(is_psd=True, witness=None, queries_used=3, mode="one_sided")
    with pytest.raises(Exception):
        v.is_psd = False


def test_oja_config_validates():
    with pytest.raises(ValueError):
        OjaConfig(eta=0.0, max_iters=5, eta_scales=1, amplification=1)
    with pytest.raises(ValueError):
        OjaConfig(eta=0.1, max_iters=0, eta_scales=1, amplification=1)
    with pytest.raises(ValueError):
        OjaConfig(eta=0.1, max_iters=5, eta_scales=1, amplification=0)
    with pytest.raises(ValueError):
        OjaConfig.from_eps(1.5)


def test_oja_config_from_eps_frozen_values():
    # eps=0.2 against a large operator: reduction to m=40 applies, the
    # descent runs at eps/4 with the step size and iteration count below.
    cfg = OjaConfig.from_eps(0.2, dim=1000)
    assert cfg.eta == pytest.approx(0.12056836447722281, rel=1e-12)
    assert cfg.max_iters == 2752
    assert cfg.eta_scales == 12
    assert cfg.amplification == 20

    # Small operator: no reduction, eps stays 0.2.
    cfg_small = OjaConfig.from_eps(0.2, dim=30)
    assert cfg_small.eta == pytest.approx(0.18111148749870565, rel=1e-12)
    assert cfg_small.max_iters == 305
    assert cfg_small.eta_scales == 11

    assert OjaConfig.from_eps(0.2, dim=1000, amplification=3).amplification == 3
    assert OjaConfig.from_eps(0.2, dim=1000, iter_scale=0.5).max_iters == 1376


# ---------------------------------------------------------------------------
# reference descent step
# ---------------------------------------------------------------------------

def oja_step(op, x, eta, rng, g=None):
    """Reference step x <- x - eta (g^T A x) g, one scalar query at a time.

    Draws g standard Gaussian unless one is forced.  Returns the next
    iterate together with (s, t) = (g^T A x, g^T A g); the caller maintains
    f(x) = x^T A x through f -= eta s^2 (2 - eta t), which is exact algebra,
    so the pair costs the step's entire query budget of 2 vmv.
    """
    if g is None:
        g = rng_from(rng).standard_normal(op.dim)
    t = op.quad_form(g)
    s = op.bilinear(g, x)
    return x - (eta * s) * g, (s, t)


class RecordingOperator(SymmetricOperator):
    """Symmetric operator that logs every scalar answer in query order.

    Reads through a ``directions`` handle are logged too.  Each entry is
    (answer, scale), the scale being ||A||_2 |x| |y| for the query x^T A y,
    which bounds the rounding error of any way of computing the answer.
    """

    def __init__(self, matrix):
        super().__init__(matrix)
        self.answers = []
        self._norm = float(np.linalg.norm(self.dense(), 2))

    def _log(self, out, x, y):
        self.answers.append((out, self._norm * float(np.linalg.norm(x)
                                                     * np.linalg.norm(y))))
        return out

    def quad_form(self, x):
        return self._log(super().quad_form(x), x, x)

    def bilinear(self, x, y):
        return self._log(super().bilinear(x, y), x, y)

    def directions(self, u):
        return _RecordingDirections(self, super().directions(u), u)


class _RecordingDirections:
    def __init__(self, op, block, u):
        self._op, self._block, self._u = op, block, np.array(u)

    def quad_form(self, j):
        u = self._u[:, j]
        return self._op._log(self._block.quad_form(j), u, u)

    def bilinear(self, j, y):
        return self._op._log(self._block.bilinear(j, y), self._u[:, j], y)


def reference_descent(op, eta, iters, gen, up):
    """The descent run as a loop of reference steps, one draw per step."""
    x = gen.standard_normal(op.dim)
    f = op.quad_form(x)
    if f < 0.0:
        return x, f
    for _ in range(iters):
        x, (s, t) = oja_step(op, x, eta, rng=gen)
        f -= eta * s * s * (2.0 - eta * t)
        norm_sq = float(x @ x)
        if not math.isfinite(f) or norm_sq > defaults.OJA_BLOWUP:
            return None
        if f < -defaults.OJA_MARGIN * up * max(1.0, norm_sq):
            direct = op.quad_form(x)
            if direct < 0.0:
                return x, direct
            f = direct
    return None


def test_oja_step_zero_matrix_keeps_iterate():
    op = SymmetricOperator(np.zeros((8, 8)))
    x = np.ones(8)
    x2, (s, t) = oja_step(op, x, 0.3, rng=1)
    assert s == 0.0 and t == 0.0
    np.testing.assert_array_equal(x2, x)
    assert op.vmv_queries == 2


def test_oja_step_identity_forced_direction():
    op = SymmetricOperator(np.eye(5))
    e1 = np.zeros(5)
    e1[0] = 1.0
    x2, (s, t) = oja_step(op, e1.copy(), 0.1, rng=0, g=e1)
    assert s == pytest.approx(1.0) and t == pytest.approx(1.0)
    np.testing.assert_allclose(x2, 0.9 * e1, atol=1e-15)


def test_oja_step_is_deterministic_in_the_seed():
    op = identity_op(12)
    x = np.ones(12)
    a1, st1 = oja_step(op, x, 0.05, rng=42)
    a2, st2 = oja_step(op, x, 0.05, rng=42)
    np.testing.assert_array_equal(a1, a2)
    assert st1 == st2


def test_oja_step_incremental_update_is_exact_algebra():
    # f(x') = f(x) - eta s^2 (2 - eta t) holds exactly, so the maintained
    # value should track the direct quadratic form to float precision.
    gen = rng_from(9)
    a = gen.standard_normal((15, 15))
    op = SymmetricOperator((a + a.T) / 2.0)
    x = gen.standard_normal(15)
    f = op.quad_form(x)
    for it in range(50):
        x, (s, t) = oja_step(op, x, 0.05, rng=rng_from(100 + it))
        f -= 0.05 * s * s * (2.0 - 0.05 * t)
    direct = op.quad_form(x)
    assert f == pytest.approx(direct, rel=1e-10)


# ---------------------------------------------------------------------------
# sketch_reduce and the virtual operator
# ---------------------------------------------------------------------------

def test_sketch_reduce_with_identity_sketch_matches_parent():
    op = identity_op(10, rot_seed=3)
    red = sketch_reduce(op, 10, seed=0, g=np.eye(10))
    gen = rng_from(5)
    for _ in range(4):
        x = gen.standard_normal(10)
        y = gen.standard_normal(10)
        assert red.bilinear(x, y) == pytest.approx(op.bilinear(x, y), rel=1e-12)
        assert red.quad_form(x) == pytest.approx(op.quad_form(x), rel=1e-12)


def test_sketch_reduce_validates_width():
    op = identity_op(10)
    with pytest.raises(ValueError):
        sketch_reduce(op, 0, seed=0)
    with pytest.raises(ValueError):
        sketch_reduce(op, 11, seed=0)


def test_sketched_operator_matches_realized_matrix():
    op = far_op_l1(20, 0.3, rot_seed=2)
    red = sketch_reduce(op, 8, seed=7)
    dense = red.realize()
    gen = rng_from(11)
    x = gen.standard_normal(8)
    y = gen.standard_normal(8)
    # Interleave queries so the single-slot map cache is exercised both on
    # hits (repeated y) and on evictions (alternating vectors).
    assert red.bilinear(x, y) == pytest.approx(x @ dense @ y, rel=1e-10)
    assert red.quad_form(y) == pytest.approx(y @ dense @ y, rel=1e-10)
    assert red.bilinear(y, x) == pytest.approx(x @ dense @ y, rel=1e-10)
    assert red.quad_form(x) == pytest.approx(x @ dense @ x, rel=1e-10)
    assert red.vmv_queries == 4
    assert red.mv_queries == 0
    with pytest.raises(NotImplementedError):
        red.mat_vec(x)


def test_sketch_reduce_preserves_negativity_and_trace_norm():
    # Compression to m columns keeps a planted negative direction visible
    # and does not inflate the trace norm much; checked white-box on the
    # realized matrix.
    lam = tuple([-0.3] + [0.7 / 39] * 39)
    negative, norm_ok = 0, 0
    for s in range(50):
        op = gen_rotated_diag(SpectrumInstance(eigenvalues=lam, rotation_seed=100 + s))
        red = sketch_reduce(op, 32, seed=s)
        w = np.linalg.eigvalsh(red.realize())
        if w[0] < 0.0:
            negative += 1
        if np.abs(w).sum() <= 2.0:
            norm_ok += 1
    assert negative >= 45
    assert norm_ok >= 45


# ---------------------------------------------------------------------------
# oja_l1_tester
# ---------------------------------------------------------------------------

def test_oja_accepts_identity_with_exact_query_count():
    # No reduction (m >= d) and no rejection or resynchronization on the
    # identity: every query is accounted for as amplification * (d-query
    # norm probe + scales * (1 + 2 * max_iters)).
    op = identity_op(10, rot_seed=5)
    cfg = OjaConfig(eta=0.01, max_iters=7, eta_scales=3, amplification=2)
    v = oja_l1_tester(op, 0.5, cfg, rng=0)
    assert v.is_psd
    assert v.queries_used == 2 * (10 + 3 * (1 + 2 * 7))
    assert v.mode == "one_sided"
    assert v.witness is None and v.statistic is None


def test_oja_degenerate_norm_interval_collapses_scales():
    np.testing.assert_array_equal(_scale_grid(10.0, 10.0, 3), [10.0])
    assert len(_scale_grid(5.0, 20.0, 3)) == 3
    with pytest.raises(ValueError):
        _scale_grid(0.0, 1.0, 3)


def test_oja_zero_operator_accepts_after_probes():
    op = SymmetricOperator(np.zeros((10, 10)))
    v = oja_l1_tester(op, 0.5, rng=0)
    assert v.is_psd
    # Each amplification round pays only the d-query norm probe, sees a
    # zero scale and skips the descent.
    assert v.queries_used == OjaConfig.from_eps(0.5, dim=10).amplification * 10


def test_oja_validates_eps():
    op = identity_op(10)
    with pytest.raises(ValueError):
        oja_l1_tester(op, 0.0)
    with pytest.raises(ValueError):
        oja_l1_tester(op, 1.0)


def test_oja_never_rejects_psd():
    # Hard invariant on a mixed bag of PSD inputs; amplification 1 keeps the
    # runtime down without weakening the claim (no single run may reject).
    cfg = OjaConfig(eta=0.15, max_iters=150, eta_scales=4, amplification=1)
    for s in range(50):
        op = identity_op(40, rot_seed=s)
        assert oja_l1_tester(op, 0.3, cfg, rng=s).is_psd
    for s in range(50):
        op = gen_wishart(24, seed=s)
        assert oja_l1_tester(op, 0.3, cfg, rng=s).is_psd
    for s in range(50):
        lam = tuple(rng_from(700 + s).uniform(0.1, 1.0, size=40))
        op = gen_rotated_diag(SpectrumInstance(eigenvalues=lam, rotation_seed=s))
        assert oja_l1_tester(op, 0.3, cfg, rng=s).is_psd


def test_oja_rejects_far_instance_with_valid_witness():
    rejected = 0
    for s in range(30):
        op = far_op_l1(50, 0.25, rot_seed=3)
        v = oja_l1_tester(op, 0.2, rng=s)
        if not v.is_psd:
            rejected += 1
            assert v.witness.shape == (50,)
            assert op.quad_form(v.witness) < 0.0
            assert v.statistic < 0.0
            assert v.mode == "one_sided"
    assert rejected >= 28


def test_oja_is_deterministic_in_the_seed():
    op = far_op_l1(30, 0.3, rot_seed=1)
    a = oja_l1_tester(op, 0.25, rng=17)
    b = oja_l1_tester(op, 0.25, rng=17)
    assert a.is_psd == b.is_psd
    assert a.queries_used == b.queries_used
    assert a.statistic == b.statistic
    np.testing.assert_array_equal(a.witness, b.witness)


def test_descent_is_monotone_under_small_steps():
    # With eta <= 1/(log N + 1) and trace norm 1 the maintained f sequence
    # should be non-increasing in essentially every run; budget allows 1%.
    d, n_steps = 30, 120
    eta = 1.0 / (math.log(n_steps) + 1.0)
    gen0 = rng_from(31)
    mags = gen0.uniform(0.5, 1.0, size=d)
    lam = mags * np.where(np.arange(d) % 2 == 0, 1.0, -1.0)
    lam /= np.abs(lam).sum()
    op = gen_rotated_diag(SpectrumInstance(eigenvalues=tuple(lam), rotation_seed=8))
    monotone = 0
    for s in range(1000):
        gen = rng_from(5000 + s)
        x = gen.standard_normal(d)
        f = op.quad_form(x)
        ok = True
        for _ in range(n_steps):
            x, (sv, tv) = oja_step(op, x, eta, rng=gen)
            f_next = f - eta * sv * sv * (2.0 - eta * tv)
            if f_next > f + 1e-12 * max(1.0, abs(f)):
                ok = False
                break
            f = f_next
        if ok:
            monotone += 1
    assert monotone >= 990


def test_maintained_f_tracks_direct_quad_form():
    d, n_steps = 25, 300
    lam = tuple(rng_from(77).uniform(0.5, 1.0, size=d))
    op = gen_rotated_diag(SpectrumInstance(eigenvalues=lam, rotation_seed=4))
    worst = 0.0
    for s in range(200):
        gen = rng_from(9000 + s)
        x = gen.standard_normal(d)
        f = op.quad_form(x)
        for _ in range(n_steps):
            x, (sv, tv) = oja_step(op, x, 0.02, rng=gen)
            f -= 0.02 * sv * sv * (2.0 - 0.02 * tv)
        direct = op.quad_form(x)
        worst = max(worst, abs(f - direct) / abs(direct))
    assert worst < 1e-7


@pytest.mark.parametrize("lam,eta,up,n_answers", [
    # PSD: all 150 steps run across three draw blocks and every chunk of
    # the A.U product, nothing to confirm.
    (tuple(np.linspace(0.1, 1.0, 12)), 0.05, 5.5, 1 + 2 * 150),
    # Indefinite: the run ends on a confirmed negative value after 11 steps.
    (tuple([-0.1] + [0.9 / 11] * 11), 0.3, 1.0, 1 + 2 * 11 + 1),
    # Step far too large for the scale: the run ends on blow-up.
    (tuple([-1.0] + [1.0] * 11), 1e3, 1.0, 1 + 2 * 19),
])
def test_descend_matches_reference_step_loop(lam, eta, up, n_answers):
    # The descent reads its steps from A.U products, the reference asks one
    # scalar query at a time: the answers agree to rounding, in one order.
    a = gen_rotated_diag(SpectrumInstance(eigenvalues=lam, rotation_seed=3)).dense()
    op, ref_op = RecordingOperator(a), RecordingOperator(a)
    got = _descend(op, None, eta, 150, rng_from(21), up)
    want = reference_descent(ref_op, eta, 150, rng_from(21), up)
    assert len(op.answers) == len(ref_op.answers) == n_answers
    assert op.vmv_queries == ref_op.vmv_queries == n_answers
    for i, ((val, _), (ref, scale)) in enumerate(zip(op.answers, ref_op.answers)):
        assert abs(val - ref) <= 1e-12 * scale, (i, val, ref, scale)
    assert (got is None) == (want is None) == (lam[0] > 0.0 or eta > 1.0)
    if got is not None:
        np.testing.assert_allclose(got[0], want[0], rtol=1e-12)
        assert got[1] < 0.0 and want[1] < 0.0


class _DriftingOperator(SymmetricOperator):
    """Answers the first step's t = u^T A u with a large negative bias, so
    the maintained f plunges below the margin once while the iterate, and
    so the direct quadratic form, stay untouched."""

    def directions(self, u):
        block = super().directions(u)
        if self.vmv_queries == 1:  # only the start query precedes it
            read = block.quad_form
            block.quad_form = lambda j: read(j) - (1e9 if j == 0 else 0.0)
        return block


def test_descend_resynchronizes_after_drift_and_keeps_running():
    # On a PSD matrix the confirming query comes back non-negative, so the
    # run must take it as its new f and carry on; without the resync every
    # later step would cross the margin and ask another confirming query.
    a = gen_rotated_diag(SpectrumInstance(
        eigenvalues=tuple(np.linspace(0.1, 1.0, 12)), rotation_seed=3)).dense()
    op = _DriftingOperator(a)
    assert _descend(op, None, 0.05, 150, rng_from(21), 5.5) is None
    # start + 150 steps of two reads + exactly one confirming query
    assert op.vmv_queries == 1 + 2 * 150 + 1


# (tester, instance kind, dim, eps, p, seed) -> (is_psd, queries_used,
# statistic.hex(), SHA-1 of the witness bytes), recorded when the plain,
# sketched and shifted-sketch descents were three separate code paths; the
# hex and SHA-1 columns of the ten Oja rejections were re-recorded when the
# steps moved to A.U products, which round differently.  Covers
# Oja without reduction (far d24), with reduction (far d48, cluster_l1 d128),
# an Oja accept whose large step sizes blow up and leave draws unused
# (random_psd d16), and the adaptive l2 descent (far d16, d32).  The hashes
# pin float bit patterns, so they hold for one numpy/BLAS build.
BYTE_TABLE = [
    ("oja_l1", "far", 24, 0.3, 1.0, 5, (False, 36, "-0x1.4b36e01e68071p+23", "e660392b1cbbc21652c117f0960336e2a733aac6")),
    ("oja_l1", "far", 24, 0.3, 1.0, 6, (False, 34, "-0x1.39152d136828cp+39", "b5619a8fa8f0fcbd881bdc1e56e0a751c3c8e93e")),
    ("oja_l1", "far", 24, 0.3, 1.0, 7, (False, 36, "-0x1.9f5163aaf2176p+37", "84c1cf87f0816e8e66edfb6d7b2359aa983a8f74")),
    ("oja_l1", "far", 24, 0.3, 1.0, 8, (False, 36, "-0x1.4f3af6b2ac3cep+18", "b982f2c7845e9b27936ece465d344b4e6ac08e19")),
    ("oja_l1", "far", 48, 0.3, 1.0, 5, (False, 41, "-0x1.daf2165dc731ap+23", "12b12ad2b2810738563b41b2bf21d0252c92f9f3")),
    ("oja_l1", "far", 48, 0.3, 1.0, 6, (False, 59, "-0x1.c7760143bccdcp+86", "4812b1bba0503aed460dc826da453d2e0f5978ed")),
    ("oja_l1", "far", 48, 0.3, 1.0, 7, (False, 31, "-0x1.188afbfaf9fdap+12", "685efec76f9610f2e8c085bc352be2bb977d4925")),
    ("oja_l1", "far", 48, 0.3, 1.0, 8, (False, 45, "-0x1.48765adedce82p+37", "04ced2062f7f09b7dde50a84d6b1e181aa1d932d")),
    ("oja_l1", "cluster_l1", 128, 0.3, 1.0, 5, (False, 39, "-0x1.7e606dfdc0772p+21", "df3bb44e92244362a63c42c40316650238f762ab")),
    ("oja_l1", "cluster_l1", 128, 0.3, 1.0, 6, (False, 28, "-0x1.8d6622c95babep-6", "8393092c1c5a74ed4fbc6137d2d1d57451ac1467")),
    ("oja_l1", "cluster_l1", 128, 0.3, 1.0, 7, (False, 28, "-0x1.3c8ecf8527c66p-1", "88edbc886ba8a44c968d2a52b88db509d81de9fe")),
    ("oja_l1", "cluster_l1", 128, 0.3, 1.0, 8, (False, 37, "-0x1.ed0c83752936ep+17", "2666cc998fa4b5e0337fe5ed6c0ef4456007df6f")),
    ("oja_l1", "random_psd", 16, 0.3, 1.0, 5, (True, 51722, None, None)),
    ("oja_l1", "random_psd", 16, 0.3, 1.0, 6, (True, 51594, None, None)),
    ("oja_l1", "random_psd", 16, 0.3, 1.0, 7, (True, 51684, None, None)),
    ("oja_l1", "random_psd", 16, 0.3, 1.0, 8, (True, 51546, None, None)),
    ("adaptive_l2", "far", 16, 0.5, 2.0, 5, (False, 1548, None, None)),
    ("adaptive_l2", "far", 16, 0.5, 2.0, 6, (False, 1, "-0x1.3ec808a9a6d2cp+1", "cf35e6e3ebb2c5b74e1660893074e4b40a7ae98b")),
    ("adaptive_l2", "far", 16, 0.5, 2.0, 7, (False, 1212, None, None)),
    ("adaptive_l2", "far", 16, 0.5, 2.0, 8, (False, 2, "-0x1.00ae0870ca6dap+4", "5ff01d114a56c0edb49ac5ea3d05ce9317b77174")),
    ("adaptive_l2", "far", 32, 0.5, 2.0, 5, (False, 1180, None, None)),
    ("adaptive_l2", "far", 32, 0.5, 2.0, 6, (False, 1302, None, None)),
    ("adaptive_l2", "far", 32, 0.5, 2.0, 7, (False, 1294, None, None)),
    ("adaptive_l2", "far", 32, 0.5, 2.0, 8, (False, 1460, None, None)),
]


@pytest.mark.parametrize(
    "tester,kind,dim,eps,p,seed,expected", BYTE_TABLE,
    ids=[f"{r[0]}-{r[1]}-d{r[2]}-s{r[5]}" for r in BYTE_TABLE])
def test_descent_outputs_match_byte_table(tester, kind, dim, eps, p, seed,
                                          expected):
    op = instance_operator({"kind": kind, "dim": dim}, eps, p, seed)
    run = oja_l1_tester if tester == "oja_l1" else adaptive_l2_tester
    v = run(op, eps, rng=seed)
    stat = None if v.statistic is None else float(v.statistic).hex()
    sha = (None if v.witness is None
           else hashlib.sha1(v.witness.tobytes()).hexdigest())
    assert (v.is_psd, v.queries_used, stat, sha) == expected


# statistic.hex() of the re-recorded BYTE_TABLE rows as the scalar-query
# steps computed it, keyed by (kind, dim, seed).
SCALAR_STEP_STATISTICS = {
    ("far", 24, 5): "-0x1.4b36e01e6807dp+23",
    ("far", 24, 6): "-0x1.39152d136828ep+39",
    ("far", 24, 7): "-0x1.9f5163aaf219ep+37",
    ("far", 24, 8): "-0x1.4f3af6b2ac3e8p+18",
    ("far", 48, 5): "-0x1.daf2165dc735cp+23",
    ("far", 48, 6): "-0x1.c7760143bccb0p+86",
    ("far", 48, 7): "-0x1.188afbfaf9fd6p+12",
    ("far", 48, 8): "-0x1.48765adedce85p+37",
    ("cluster_l1", 128, 5): "-0x1.7e606dfdc076fp+21",
    ("cluster_l1", 128, 8): "-0x1.ed0c837529380p+17",
}


def test_byte_table_statistics_within_rounding_of_scalar_steps():
    rows = {(r[1], r[2], r[5]): r[6][2] for r in BYTE_TABLE}
    for key, old in SCALAR_STEP_STATISTICS.items():
        new, old = float.fromhex(rows[key]), float.fromhex(old)
        assert abs(new - old) <= 1e-12 * abs(old), key


# ---------------------------------------------------------------------------
# bilinear sketch
# ---------------------------------------------------------------------------

def test_sketch_dim_frozen_values():
    assert sketch_dim(0.25) == 369
    assert sketch_dim(0.5) == 48
    with pytest.raises(ValueError):
        sketch_dim(0.0)


def test_gamma_statistic_edge_cases():
    assert gamma_statistic(1.0, 0.0, -5.0, 10) == 0.0
    # k = 1 falls back to log 2 in the denominator.
    assert gamma_statistic(1.0, 1.0, 0.0, 1) == pytest.approx(1.0 / math.log(2.0))


def test_build_sketch_identity_gram():
    op = identity_op(30, rot_seed=2)
    state = build_sketch(op, 10, seed=3)
    assert isinstance(state, SketchState)
    # For A = I the compressed matrix is the Gram matrix of the sketch.
    np.testing.assert_allclose(state.s, state.g.T @ state.g, atol=1e-10)
    np.testing.assert_array_equal(state.s, state.s.T)
    assert np.linalg.eigvalsh(state.s)[0] > 0.0
    assert op.vmv_queries == 10 * 11 // 2 + 160 + 592
    assert state.alpha == pytest.approx(30.0, abs=5.0)
    assert state.beta == pytest.approx(math.sqrt(30.0), rel=0.5)
    with pytest.raises(ValueError):
        build_sketch(op, 0, seed=0)


def test_bilinear_sketch_accepts_identity():
    op = identity_op(100, rot_seed=0)
    v = bilinear_sketch_tester(op, 0.25, rng=0)
    assert v.is_psd
    assert v.mode == "two_sided"
    assert v.queries_used == 69017
    assert v.statistic == pytest.approx(0.091476, abs=1e-5)
    assert v.witness is None


def test_bilinear_sketch_rejects_far_with_valid_witness():
    op = far_op_frob(100, 0.25, rot_seed=1)
    v = bilinear_sketch_tester(op, 0.25, rng=0)
    assert not v.is_psd
    assert v.queries_used == 69018  # one extra confirming query
    assert v.statistic == pytest.approx(0.912275, abs=1e-5)
    assert v.witness is not None and v.witness.shape == (100,)
    assert op.quad_form(v.witness) < 0.0


def test_bilinear_sketch_gamma_separation():
    ident = identity_op(100, rot_seed=0)
    far = far_op_frob(100, 0.25, rot_seed=1)
    gp = [bilinear_sketch_tester(ident, 0.25, rng=s).statistic for s in range(20)]
    gf = [bilinear_sketch_tester(far, 0.25, rng=s).statistic for s in range(20)]
    assert max(gp) < 0.15
    assert min(gf) > 0.7


def test_bilinear_sketch_zero_operator_accepts():
    op = SymmetricOperator(np.zeros((20, 20)))
    v = bilinear_sketch_tester(op, 0.25, rng=0)
    assert v.is_psd
    assert v.statistic == 0.0


# ---------------------------------------------------------------------------
# adaptive l2
# ---------------------------------------------------------------------------

def test_gap_sketch_dim_is_minimal():
    k = _gap_sketch_dim(0.25, defaults.C_PSD)
    assert c_far_curve(k, 0.25) - defaults.C_PSD >= 1.0
    assert c_far_curve(k - 1, 0.25) - defaults.C_PSD < 1.0


def test_adaptive_l2_probe_rejects_negative_definite():
    op = SymmetricOperator(-np.eye(30))
    v = adaptive_l2_tester(op, 0.25, rng=0)
    assert not v.is_psd
    assert v.queries_used == 1  # first probe already lands negative
    assert v.mode == "two_sided"
    assert op.quad_form(v.witness) < 0.0
    assert v.statistic < 0.0


def test_adaptive_l2_accepts_zero_operator():
    op = SymmetricOperator(np.zeros((20, 20)))
    v = adaptive_l2_tester(op, 0.25, rng=0)
    assert v.is_psd
    assert v.queries_used == defaults.PROBE_COUNT + 160 + 592
    assert v.witness is None


def test_adaptive_l2_separates_identity_from_far():
    # The accept threshold is passed explicitly so the test pins the
    # mechanism rather than whatever calibration commits next.
    ident = identity_op(100, rot_seed=7)
    far = far_op_frob(100, 0.3, rot_seed=9)
    for s in range(2):
        assert adaptive_l2_tester(ident, 0.25, rng=s, c_psd=0.45).is_psd
    for s in range(2):
        v = adaptive_l2_tester(far, 0.25, rng=s, c_psd=0.45)
        assert not v.is_psd
        assert v.witness is None  # shifted-space directions prove nothing

def test_adaptive_l2_validates_eps():
    op = identity_op(10)
    with pytest.raises(ValueError):
        adaptive_l2_tester(op, 0.0)


# ---------------------------------------------------------------------------
# non-adaptive l1
# ---------------------------------------------------------------------------

def test_nonadaptive_never_rejects_psd():
    for s in range(40):
        assert nonadaptive_l1_tester(identity_op(30, rot_seed=s), 0.2, rng=s).is_psd
    for s in range(30):
        assert nonadaptive_l1_tester(gen_wishart(24, seed=s), 0.2, rng=s).is_psd
    for s in range(30):
        lam = tuple(rng_from(300 + s).uniform(0.05, 1.0, size=35))
        op = gen_rotated_diag(SpectrumInstance(eigenvalues=lam, rotation_seed=s))
        assert nonadaptive_l1_tester(op, 0.2, rng=s).is_psd


def test_nonadaptive_rejects_far_with_valid_witness():
    rejected = 0
    for s in range(30):
        op = far_op_l1(50, 0.25, rot_seed=40 + s)
        v = nonadaptive_l1_tester(op, 0.2, rng=s)
        if not v.is_psd:
            rejected += 1
            assert op.quad_form(v.witness) < 0.0
            assert v.mode == "one_sided"
    assert rejected >= 28


def test_nonadaptive_query_count_is_exact():
    # m = min(d, ceil(8 / eps)); every repetition pays m(m+1)/2 queries.
    op = identity_op(200, rot_seed=0)
    v = nonadaptive_l1_tester(op, 0.2, rng=0)
    assert v.queries_used == 5 * (40 * 41 // 2)
    assert isinstance(v.statistic, float)

    small = identity_op(12, rot_seed=1)
    v2 = nonadaptive_l1_tester(small, 0.2, rng=0, repeats=2)
    assert v2.queries_used == 2 * (12 * 13 // 2)


def test_nonadaptive_validates_eps():
    with pytest.raises(ValueError):
        nonadaptive_l1_tester(identity_op(10), 0.0)
