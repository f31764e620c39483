"""Tests for the vmv-query testers: Oja descent, bilinear sketch, the
shifted-sketch adaptive tester and the non-adaptive compression tester."""

import hashlib
import math
import warnings

import numpy as np
import pytest
from oja_reference import sequential_descend, steps_loop

from psdprobe import defaults, vmv_testers
from psdprobe.harness import family_spectrum, instance_operator
from psdprobe.mv_testers import (krylov_degree, krylov_tester,
                                 nonadaptive_mv_tester)
from psdprobe.oracle import (
    Compression,
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
    _OJA_STREAM,
    _descend,
    _gap_sketch_dim,
    _lowest,
    _scale_grid,
    gamma_statistic,
    nonadaptive_l1_tester,
    oja_l1_tester,
    sketch_dim,
)


def identity_op(d, rot_seed=0):
    inst = SpectrumInstance(eigenvalues=(1.0,) * d, rotation_seed=rot_seed)
    return gen_rotated_diag(inst)


def far_op_l1(d, depth, rot_seed):
    """lambda_min = -depth with the rest of the unit trace norm spread flat."""
    lam = tuple([-depth] + [(1.0 - depth) / (d - 1)] * (d - 1))
    return gen_rotated_diag(SpectrumInstance(eigenvalues=lam, rotation_seed=rot_seed))


def family_op(kind, d, eps, p, seed):
    """A family draw rotated by its own seed's Haar Q, as every trial was
    before the harness shared one rotation per dimension.  The byte pins
    below pin tester arithmetic on these fixed matrices, not the harness's
    instance build."""
    lam = family_spectrum(kind, d, eps, p, seed)
    return gen_rotated_diag(SpectrumInstance(eigenvalues=lam, rotation_seed=seed))


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
    # A NaN or infinite step once passed the check and let oja_l1 accept an
    # eps-far input; a fractional count built and failed later, in range.
    for eta in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="eta"):
            OjaConfig(eta=eta, max_iters=5, eta_scales=1, amplification=1)
    for name in ("max_iters", "eta_scales", "amplification"):
        for bad in (0, -1, 2.5, math.nan, True):
            counts = dict(max_iters=5, eta_scales=1, amplification=1)
            counts[name] = bad
            with pytest.raises(ValueError, match=name):
                OjaConfig(eta=0.1, **counts)
    assert OjaConfig(eta=0.1, max_iters=np.int64(5), eta_scales=1,
                     amplification=1).max_iters == 5
    with pytest.raises(ValueError, match="amplification"):
        OjaConfig.from_eps(0.3, dim=64, amplification=2.5)
    with pytest.raises(ValueError):
        OjaConfig.from_eps(1.5, dim=10)


# (call on the far d64 operator, name of the bad constant): every library
# tester checks its constants before any draw or query.  At the parent the
# zero and negative repeat counts accepted the far input after no query,
# the non-adaptive kappas failed deep in numpy, krylov's negative kappa ran
# at degree 1, and a NaN c_psd ran a tiny sketch or never rejected.
BAD_CONSTANTS = [
    (lambda op: krylov_tester(op, 0.3, 1.0, repeats=-1), "repeats"),
    (lambda op: krylov_tester(op, 0.3, 1.0, repeats=2.0), "repeats"),
    (lambda op: krylov_tester(op, 0.3, 1.0, kappa=-1.0), "kappa"),
    (lambda op: krylov_degree(0.3, 1.0, op.dim, kappa=math.nan), "kappa"),
    (lambda op: nonadaptive_l1_tester(op, 0.3, repeats=0), "repeats"),
    (lambda op: nonadaptive_l1_tester(op, 0.3, kappa=0.0), "kappa"),
    (lambda op: nonadaptive_l1_tester(op, 0.3, kappa=-1.0), "kappa"),
    (lambda op: nonadaptive_l1_tester(op, 0.3, kappa=math.nan), "kappa"),
    (lambda op: nonadaptive_mv_tester(op, 0.3, 1.0, kappa=math.inf),
     "kappa"),
    (lambda op: sketch_dim(0.3, math.nan), "kappa"),
    (lambda op: bilinear_sketch_tester(op, 0.3, kappa=-4.0), "kappa"),
    (lambda op: bilinear_sketch_tester(op, 0.3, c_psd=math.nan), "c_psd"),
    (lambda op: adaptive_l2_tester(op, 0.3, c_psd=math.nan), "c_psd"),
    (lambda op: adaptive_l2_tester(op, 0.3, c_psd=0.0), "c_psd"),
    (lambda op: OjaConfig.from_eps(0.3, op.dim, iter_scale=math.nan),
     "iter_scale"),
]


@pytest.mark.parametrize("call,name", BAD_CONSTANTS,
                         ids=[f"{i}-{c[1]}" for i, c in
                              enumerate(BAD_CONSTANTS)])
def test_bad_constants_raise_before_any_query(call, name):
    op = instance_operator({"kind": "far", "dim": 64}, 0.3, 1.0, 1)
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call(op)
    assert op.mv_queries == 0 and op.vmv_queries == 0


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

    The two answers of every step charged on a ``compressed`` handle are
    logged too, in step order, when the step is charged: t_j from the
    diagonal of the handle's last read and s_j from the descent's own
    steps, which ``record_steps`` hands to the handle.  Each entry is
    (answer, scale), the scale being ||M||_2 |x| |y| for the query x^T M y,
    with ||M||_2 taken as ||A||_2 ||G||_2^2 for a read of B = G^T A G
    (||A||_2 without G), which bounds the rounding error of any way of
    computing the answer; an s_j is logged with scale 0, so the
    reference's scale bounds it.
    """

    def __init__(self, matrix):
        super().__init__(matrix)
        self.answers = []
        self._norm = float(np.linalg.norm(self.dense(), 2))

    def _log(self, out, x, y, norm=None):
        norm = self._norm if norm is None else norm
        self.answers.append((out, norm * float(np.linalg.norm(x)
                                               * np.linalg.norm(y))))
        return out

    def quad_form(self, x):
        return self._log(super().quad_form(x), x, x)

    def bilinear(self, x, y):
        return self._log(super().bilinear(x, y), x, y)

    def compressed(self, g):
        return _RecordingCompression(self, super().compressed(g), g)


class _RecordingCompression:
    def __init__(self, op, comp, g):
        self._op, self._comp = op, comp
        self.owner, self.dim, self.lift = comp.owner, comp.dim, comp.lift
        self._norm = op._norm * (1.0 if g is None
                                 else float(np.linalg.norm(g, 2)) ** 2)
        self.s = None
        self.reads = 0

    def read(self, u, y):
        self.reads += 1
        m, c = self._comp.read(u, y)
        self._u, self._t, self._taken = np.array(u), np.diagonal(m), 0
        return m, c

    def charge_steps(self, steps):
        self._comp.charge_steps(steps)
        for j in range(self._taken, self._taken + steps):
            u = self._u[:, j]
            self._op._log(float(self._t[j]), u, u, self._norm)
            self._op._log(float(self.s[j]), u, u, 0.0)
        self._taken += steps


def record_steps(monkeypatch):
    """Hand the answers s_j that ``_descend`` computes along a drawn block
    to its handle, for the log; they come back as eta s_j, divided here."""
    sweep = vmv_testers._sweep

    def recording(comp, rows, x, eta, up, affine):
        out = sweep(comp, rows, x, eta, up, affine)
        comp.s = out[0] / eta
        return out

    monkeypatch.setattr(vmv_testers, "_sweep", recording)


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
# the Gaussian reduction
# ---------------------------------------------------------------------------

def test_sketch_reduce_preserves_negativity_and_trace_norm():
    # Compression to m columns keeps a planted negative direction visible
    # and does not inflate the trace norm much; checked white-box on the
    # dense G^T A G, with G drawn as the first draw of oja_l1_tester.
    lam = tuple([-0.3] + [0.7 / 39] * 39)
    negative, norm_ok = 0, 0
    for s in range(50):
        op = gen_rotated_diag(SpectrumInstance(eigenvalues=lam, rotation_seed=100 + s))
        g = rng_from(s, _OJA_STREAM).standard_normal((40, 32)) / math.sqrt(40)
        w = np.linalg.eigvalsh(g.T @ op.dense() @ g)
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


# Each public tester as a call on (op, eps) alone.
PUBLIC_TESTERS = {
    "oja_l1": oja_l1_tester,
    "bilinear_sketch": bilinear_sketch_tester,
    "adaptive_l2": adaptive_l2_tester,
    "nonadaptive_l1": nonadaptive_l1_tester,
    "krylov": lambda op, eps: krylov_tester(op, eps, 1.0),
    "nonadaptive_mv": lambda op, eps: nonadaptive_mv_tester(op, eps, 1.0),
}


@pytest.mark.parametrize("eps", [0.0, 1.0, -0.1, math.nan])
@pytest.mark.parametrize("tester", sorted(PUBLIC_TESTERS))
def test_every_tester_rejects_eps_outside_the_unit_interval_before_a_query(
        tester, eps):
    op = identity_op(10)
    with pytest.raises(ValueError, match=r"eps must be in \(0, 1\)"):
        PUBLIC_TESTERS[tester](op, eps)
    assert op.mv_queries == 0 and op.vmv_queries == 0


# ---------------------------------------------------------------------------
# the rejection floor
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ratio,rejects", [(2.0, True), (0.5, False)])
def test_lowest_rejects_only_below_the_relative_floor(ratio, rejects):
    t = ratio * defaults.EIG_TOL
    s = np.diag([1.0, -t])
    assert np.linalg.norm(s, "fro") == 1.0  # so t is relative to ||S||_F
    lam, v = _lowest(s)
    assert lam == pytest.approx(-t, rel=1e-12)
    if rejects:
        np.testing.assert_allclose(np.abs(v), [0.0, 1.0], atol=1e-15)
    else:
        assert v is None


def test_lowest_never_rejects_the_zero_matrix():
    assert _lowest(np.zeros((3, 3))) == (0.0, None)


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


_PSD12 = tuple(np.linspace(0.1, 1.0, 12))
_SKETCH = rng_from(22).standard_normal((12, 8)) / math.sqrt(12)


# (G, lam, eta, up, answers, rejects): the descent through no map, a run
# through G that stops in its first few drawn blocks, and a run through G
# that reaches its 64-row blocks; each drawn block is one read, and
# every read is from B in 8 dimensions.
DESCEND_CASES = {
    # PSD: all 150 steps run across six drawn blocks (4, 8, 16, 36, 64 and
    # 22 rows), nothing to confirm.
    "plain-psd": (None, _PSD12, 0.05, 5.5, 1 + 2 * 150, False),
    # Indefinite: the run ends on a confirmed negative value after 11 steps.
    "plain-reject": (None, tuple([-0.1] + [0.9 / 11] * 11), 0.3, 1.0,
                     1 + 2 * 11 + 1, True),
    # Step far too large for the scale: the run ends on blow-up.
    "plain-blow-up": (None, tuple([-1.0] + [1.0] * 11), 1e3, 1.0, 1 + 2 * 19,
                      False),
    # G^T A G indefinite: the run ends on a confirmed negative value after
    # 15 steps, across the first three drawn blocks (4, 8 and 16 rows).
    "first-block-reject": (_SKETCH, tuple([-0.2] + [0.8 / 11] * 11), 0.3,
                           1.0, 1 + 2 * 15 + 1, True),
    "first-block-blow-up": (_SKETCH, tuple([-1.0] + [1.0] * 11), 1e3, 1.0,
                            1 + 2 * 19, False),
    # PSD: as plain-psd, through G.
    "m-space-psd": (_SKETCH, _PSD12, 0.05, 1.0, 1 + 2 * 150, False),
    # The confirmed hit comes at step 80, in the first 64-row block, so the
    # confirming query is asked at G x built from m-space x.
    "m-space-reject": (_SKETCH, tuple([-0.2] + [0.8 / 11] * 11), 0.05, 1.0,
                       1 + 2 * 80 + 1, True),
    # Step too large for the scale: the run blows up at step 86, in the
    # first 64-row block.
    "m-space-blow-up": (_SKETCH, tuple([-1.0] + [1.0] * 11), 3.0, 1.0,
                        1 + 2 * 86, False),
}


@pytest.mark.parametrize("case", sorted(DESCEND_CASES))
def test_descend_matches_reference_step_loop(monkeypatch, case):
    # The descent solves its steps from the handle's reads, the
    # reference asks one scalar query at a time on the dense G^T A G (A
    # itself without G): the answers agree to rounding, in one order, and
    # the witness is G times the reference's.  The descent reads each block
    # it draws once.
    g, lam, eta, up, n_answers, rejects = DESCEND_CASES[case]
    a = gen_rotated_diag(SpectrumInstance(eigenvalues=lam, rotation_seed=3)).dense()
    op = RecordingOperator(a)
    record_steps(monkeypatch)
    ref_op = RecordingOperator(a if g is None else g.T @ a @ g)
    comp = op.compressed(g)
    got = _descend(comp, eta, 150, rng_from(21), up)
    drawn = np.cumsum([4, 8, 16, 36, 64, 64])
    assert comp.reads == np.searchsorted(drawn, (n_answers - 1) // 2) + 1
    want = reference_descent(ref_op, eta, 150, rng_from(21), up)
    assert len(op.answers) == len(ref_op.answers) == n_answers
    assert op.vmv_queries == ref_op.vmv_queries == n_answers
    for i, ((val, scale), (ref, ref_scale)) in enumerate(
            zip(op.answers, ref_op.answers)):
        assert abs(val - ref) <= 1e-12 * max(scale, ref_scale), (i, val, ref)
    assert (got is not None) == (want is not None) == rejects
    if got is not None:
        assert got[1] < 0.0 and want[1] < 0.0
        np.testing.assert_allclose(got[0], want[0] if g is None
                                   else g @ want[0], rtol=1e-12)


class _DriftingOperator(SymmetricOperator):
    """Answers the start query, its first quad form, with a tiny positive
    value, so the maintained f plunges below the margin at the first step
    while the iterate, and so every later direct quadratic form, stay
    untouched."""

    def quad_form(self, x):
        value = super().quad_form(x)
        return 1e-300 if self.vmv_queries == 1 else value


def test_descend_resynchronizes_after_drift_and_keeps_running():
    # On a PSD matrix the confirming query comes back non-negative, so the
    # run must take it as its new f and carry on; without the resync every
    # later step would cross the margin and ask another confirming query.
    a = gen_rotated_diag(SpectrumInstance(
        eigenvalues=tuple(np.linspace(0.1, 1.0, 12)), rotation_seed=3)).dense()
    for descend in (_descend, sequential_descend):
        op = _DriftingOperator(a)
        assert descend(op.compressed(None), 0.05, 150, rng_from(21),
                       5.5) is None
        # start + 150 steps of two reads + exactly one confirming query
        assert op.vmv_queries == 1 + 2 * 150 + 1


# (tester, kind, dim, eps, p, seeds, OjaConfig overrides): 231 seeded trials.
# In the d16 random_psd accepts, 11 of the 90 runs blow up inside a block
# at their large step sizes; the rejections stop at the start query,
# inside the first drawn block or a few blocks in.
PARITY_TRIALS = [
    ("oja_l1", "random_psd", 16, 0.3, 1.0, range(10), {"amplification": 1}),
    ("oja_l1", "random_psd", 64, 0.3, 1.0, range(8), {"amplification": 1}),
    ("oja_l1", "random_psd", 256, 0.3, 1.0, range(3), {"amplification": 1}),
    ("oja_l1", "cluster_l1", 256, 0.3, 1.0, range(40), {}),
    ("oja_l1", "cluster_l1", 512, 0.3, 1.0, range(30), {}),
    ("oja_l1", "hard_l1", 128, 0.3, 1.0, range(30), {}),
    ("oja_l1", "far", 48, 0.3, 1.0, range(40), {}),
    ("adaptive_l2", "random_psd", 16, 0.5, 2.0, range(6), {}),
    ("adaptive_l2", "far", 16, 0.5, 2.0, range(40), {}),
    # k = 116: 52 null dimensions at d64, Bartlett null rows in the first
    # four blocks and plain Gaussian ones in the 64-row blocks (9 of the far
    # trials reach the descent, the rest reject on a probe); an explicit G
    # at d128.
    ("adaptive_l2", "far", 64, 0.9, 2.0, range(20), {}),
    ("adaptive_l2", "random_psd", 64, 0.9, 2.0, range(2), {}),
    ("adaptive_l2", "random_psd", 128, 0.9, 2.0, range(2), {}),
]


@pytest.mark.parametrize(
    "tester,kind,dim,eps,p,seeds,knobs", PARITY_TRIALS,
    ids=[f"{r[0]}-{r[1]}-d{r[2]}" for r in PARITY_TRIALS])
def test_descent_matches_sequential_reference_trial_for_trial(
        monkeypatch, tester, kind, dim, eps, p, seeds, knobs):
    # The same tester runs with the block-solved descent and with the
    # step-at-a-time reference in its place: the verdicts and query counts
    # are identical, and the witness and statistic agree to rounding.
    for seed in seeds:
        dense = instance_operator({"kind": kind, "dim": dim}, eps, p,
                                  seed).dense()
        runs = []
        for descend in (_descend, sequential_descend):
            monkeypatch.setattr(vmv_testers, "_descend", descend)
            op = SymmetricOperator(dense)
            if tester == "oja_l1":
                cfg = OjaConfig.from_eps(eps, dim=dim, **knobs)
                runs.append(oja_l1_tester(op, eps, cfg, rng=seed))
            else:
                runs.append(adaptive_l2_tester(op, eps, rng=seed))
        got, want = runs
        assert (got.is_psd, got.queries_used) == (want.is_psd,
                                                  want.queries_used), seed
        assert (got.statistic is None) == (want.statistic is None)
        if got.statistic is not None:
            assert got.statistic == pytest.approx(want.statistic, rel=1e-12)
        assert (got.witness is None) == (want.witness is None)
        if got.witness is not None:
            scale = np.abs(want.witness).max()
            assert np.abs(got.witness - want.witness).max() <= 1e-12 * scale


def test_blow_up_inside_a_block_overflows_silently_and_charges_its_steps(
        monkeypatch):
    # A run draws its first block, 4 steps in m-space, as one read.  At
    # eta = 1e150 the iterate passes OJA_BLOWUP at the first step and the
    # later rows of the solve overflow; no warning escapes, and the run
    # pays two vmv per step up to and including the blow-up step, as the
    # step-at-a-time reference does.
    a = gen_rotated_diag(SpectrumInstance(
        eigenvalues=tuple([-1.0] + [1.0] * 11), rotation_seed=3)).dense()
    steps = vmv_testers._steps
    solved = []

    def recording(*args):
        out = steps(*args)
        solved.append(out[0])
        return out

    monkeypatch.setattr(vmv_testers, "_steps", recording)
    counts = []
    for descend in (_descend, sequential_descend):
        op = SymmetricOperator(a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert descend(op.compressed(_SKETCH), 1e150, 150, rng_from(21),
                           1.0) is None
        counts.append(op.vmv_queries)
    assert counts[0] == counts[1] == 1 + 2 * 1
    assert len(solved) == 1 and len(solved[0]) == 4
    assert not np.isfinite(solved[0]).all()


@pytest.mark.parametrize("g", [None, _SKETCH], ids=["plain", "sketched"])
def test_a_run_that_stops_draws_no_rows_past_its_block(g):
    # A run that blows up at its first step draws its start x (n normals,
    # n the handle's dimension) and its first 4-row block (4 n), and not
    # a whole 64-row batch, so the generator is 5 n normals further on.
    a = gen_rotated_diag(SpectrumInstance(
        eigenvalues=tuple([-1.0] + [1.0] * 11), rotation_seed=3)).dense()
    comp = SymmetricOperator(a).compressed(g)
    gen, ref = rng_from(21), rng_from(21)
    assert _descend(comp, 1e150, 150, gen, 1.0) is None
    ref.standard_normal(5 * comp.dim)
    np.testing.assert_array_equal(gen.standard_normal(8),
                                  ref.standard_normal(8))


def test_steps_match_a_forward_substitution_loop():
    # On random blocks whose |eta m_ij| reach 1e6 (where a pivoting LU
    # would reorder the rows), the solved steps eta s_j match the plain
    # forward-substitution loop to rounding, row for row, down to which
    # rows overflow, and every row after a non-finite one is non-finite.
    # Up to the first step that stops the run, the drops, norm tests and
    # margin limits match too.
    gen = rng_from(41)
    for trial in range(300):
        # Every tenth block has 64 directions at |eta m_ij| up to 1e6, so
        # its later rows overflow.
        wide = trial % 10 == 0
        n = 64 if wide else int(gen.integers(1, 65))
        k = int(gen.integers(1, 30))
        eta = 10.0 ** gen.uniform(-3.0, 0.0)
        top = 10.0 ** (6.0 if wide else gen.uniform(-3.0, 6.0)) / eta
        m = gen.uniform(-top, top, (n, n))
        m = np.tril(m) + np.tril(m, -1).T
        u = gen.standard_normal((n, k))
        x = gen.standard_normal(k)
        args = (m, gen.standard_normal(n), u @ u.T, u @ x, float(x @ x),
                eta, 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            want = steps_loop(*args)
            el = np.abs(eta * np.tril(m, -1))
            s = want[0] / eta
            bound = np.abs(args[1]) + el @ np.where(np.isfinite(s),
                                                    np.abs(s), 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore", invalid="ignore"):
                got = vmv_testers._steps(*args)
        e, e_want = got[0], want[0]
        np.testing.assert_array_equal(np.isfinite(e), np.isfinite(e_want))
        bad = ~np.isfinite(e)
        if bad.any():
            assert bad[int(np.argmax(bad)):].all()
        ok = ~bad & np.isfinite(bound)
        assert (np.abs(e[ok] - e_want[ok]) <= 1e-12 * eta * bound[ok]).all()
        go, go_want = got[2], want[2]
        stops = ~(go & go_want & ~bad)
        stop = int(np.argmax(stops)) if stops.any() else n
        np.testing.assert_array_equal(go[:stop + 1], go_want[:stop + 1])
        for value, ref in ((got[1][1:], want[1][1:]), (got[3], want[3])):
            value, ref = value[:stop], ref[:stop]
            scale = np.abs(ref).max() if stop else 0.0
            np.testing.assert_allclose(value, ref, rtol=1e-9,
                                       atol=1e-9 * scale)


class _FormCountingOperator(SymmetricOperator):
    """Counts its compressed handles, and the products with A they ask for
    while they are built, each one forming its B = G^T A G."""

    def __init__(self, matrix):
        super().__init__(matrix)
        self.handles = self.forms = self.products = 0

    def _product(self, v):
        self.products += 1
        return super()._product(v)

    def compressed(self, g):
        self.handles += 1
        return _FormCountingCompression(self, g)


class _FormCountingCompression(Compression):
    def __init__(self, owner, g):
        before = owner.products
        super().__init__(owner, g)
        owner.forms += owner.products - before


def test_b_is_formed_once_per_compressed_handle():
    # cluster_l1 d128 (m = 27): seed 6 rejects on the start query, seed 5
    # on a confirmed value five steps in, in its second drawn block
    # (BYTE_TABLE rows); each forms its one repetition's B all the same.
    for seed, queries in ((6, 28), (5, 39)):
        op = _FormCountingOperator(
            family_op("cluster_l1", 128, 0.3, 1.0, seed).dense())
        v = oja_l1_tester(op, 0.3, rng=seed)
        assert (v.is_psd, v.queries_used) == (False, queries)
        assert op.handles == op.forms == 1
    # random_psd d64 through 27 columns: every repetition runs 11 step-size
    # scales, most of them for many draw blocks, on one handle.
    dense = instance_operator({"kind": "random_psd", "dim": 64}, 0.3, 1.0,
                              5).dense()
    for amplification in (1, 2):
        op = _FormCountingOperator(dense)
        cfg = OjaConfig.from_eps(0.3, dim=64, amplification=amplification)
        assert oja_l1_tester(op, 0.3, cfg, rng=5).is_psd
        assert op.handles == op.forms == amplification
    # adaptive_l2 at k = 664 > 64: one handle on the Bartlett factor L per
    # trial, whose B = L^T A L serves all GAMMA_AMP runs.
    op = _FormCountingOperator(dense)
    assert adaptive_l2_tester(op, 0.5, rng=5).is_psd
    assert op.handles == op.forms == 1


# (tester, instance kind, dim, eps, p, seed) -> (is_psd, queries_used,
# statistic.hex(), SHA-1 of the witness bytes), recorded when the plain,
# sketched and shifted-sketch descents were three separate code paths; the
# hex and SHA-1 columns of the ten Oja rejections were re-recorded when the
# steps moved to A.U products, again when each handle's steps came to be
# solved together, again (eight of them) when every handle's steps came
# to be solved alike and the witness to be G x, and again (the six at far
# d48 and cluster_l1 d128 s5 and s8) when every read came to be from the B
# its handle forms when built, all of which round differently.  The six
# adaptive_l2 descent rejections at d16 and d32 (k = 664) were re-recorded
# when its sketch past k = d came to be simulated in d dimensions, which
# draws other numbers, and again when each run came to draw its first
# blocks at 4, 8, 16 and 36 rows, which draws their null rows per block;
# its two probe rejections did not move.  Covers Oja without reduction
# (far d24), with reduction (far d48, cluster_l1 d128),
# an Oja accept whose large step sizes blow up and leave draws unused
# (random_psd d16), the adaptive l2 descent past k = d (far d16, d32) and
# with an explicit G at k = 116 <= d (d128 at eps 0.9, recorded before the
# simulation and unmoved by it).  The hashes pin float bit patterns, so
# they hold for one numpy/BLAS build.
BYTE_TABLE = [
    ("oja_l1", "far", 24, 0.3, 1.0, 5, (False, 36, "-0x1.4b36e01e68080p+23", "348a686b8273317939e74f79c86835f6f6a217e6")),
    ("oja_l1", "far", 24, 0.3, 1.0, 6, (False, 34, "-0x1.39152d1368292p+39", "663a44b368ee5bfd7aa09d186c0f6910c388ad70")),
    ("oja_l1", "far", 24, 0.3, 1.0, 7, (False, 36, "-0x1.9f5163aaf2196p+37", "09eab2cec52a6d6db373d0ddf325af9489f14efd")),
    ("oja_l1", "far", 24, 0.3, 1.0, 8, (False, 36, "-0x1.4f3af6b2ac3b4p+18", "9cf03c681042098e314edb704e8edb151735f098")),
    ("oja_l1", "far", 48, 0.3, 1.0, 5, (False, 41, "-0x1.daf2165dc73d4p+23", "88433573935bc31c32b99157fed636195937b112")),
    ("oja_l1", "far", 48, 0.3, 1.0, 6, (False, 59, "-0x1.c7760143bccfep+86", "0d08cef1869cf4b94d83371e24a1cbad530942bd")),
    ("oja_l1", "far", 48, 0.3, 1.0, 7, (False, 31, "-0x1.188afbfaf9fd5p+12", "a2ff6e46f1d6bdc6a0b2141484272134cfd2692d")),
    ("oja_l1", "far", 48, 0.3, 1.0, 8, (False, 45, "-0x1.48765adedce67p+37", "d519d71d160057e3f11d312d0722136c1f34f9be")),
    ("oja_l1", "cluster_l1", 128, 0.3, 1.0, 5, (False, 39, "-0x1.7e606dfdc07a9p+21", "13314a5f29be4b940addc5673a92c6f38c3cb8de")),
    ("oja_l1", "cluster_l1", 128, 0.3, 1.0, 6, (False, 28, "-0x1.8d6622c95babep-6", "8393092c1c5a74ed4fbc6137d2d1d57451ac1467")),
    ("oja_l1", "cluster_l1", 128, 0.3, 1.0, 7, (False, 28, "-0x1.3c8ecf8527c66p-1", "88edbc886ba8a44c968d2a52b88db509d81de9fe")),
    ("oja_l1", "cluster_l1", 128, 0.3, 1.0, 8, (False, 37, "-0x1.ed0c8375293b7p+17", "732c3091bd29fe67a978a290d2b6b3120a71454a")),
    ("oja_l1", "random_psd", 16, 0.3, 1.0, 5, (True, 51722, None, None)),
    ("oja_l1", "random_psd", 16, 0.3, 1.0, 6, (True, 51594, None, None)),
    ("oja_l1", "random_psd", 16, 0.3, 1.0, 7, (True, 51684, None, None)),
    ("oja_l1", "random_psd", 16, 0.3, 1.0, 8, (True, 51546, None, None)),
    ("adaptive_l2", "far", 16, 0.5, 2.0, 5, (False, 1158, None, None)),
    ("adaptive_l2", "far", 16, 0.5, 2.0, 6, (False, 1, "-0x1.3ec808a9a6d2cp+1", "cf35e6e3ebb2c5b74e1660893074e4b40a7ae98b")),
    ("adaptive_l2", "far", 16, 0.5, 2.0, 7, (False, 1352, None, None)),
    ("adaptive_l2", "far", 16, 0.5, 2.0, 8, (False, 2, "-0x1.00ae0870ca6dap+4", "5ff01d114a56c0edb49ac5ea3d05ce9317b77174")),
    ("adaptive_l2", "far", 32, 0.5, 2.0, 5, (False, 1094, None, None)),
    ("adaptive_l2", "far", 32, 0.5, 2.0, 6, (False, 1206, None, None)),
    ("adaptive_l2", "far", 32, 0.5, 2.0, 7, (False, 1178, None, None)),
    ("adaptive_l2", "far", 32, 0.5, 2.0, 8, (False, 1136, None, None)),
    ("adaptive_l2", "random_psd", 128, 0.9, 2.0, 5, (True, 1465, None, None)),
    ("adaptive_l2", "far", 128, 0.9, 2.0, 5, (False, 794, None, None)),
]


@pytest.mark.parametrize(
    "tester,kind,dim,eps,p,seed,expected", BYTE_TABLE,
    ids=[f"{r[0]}-{r[1]}-d{r[2]}-s{r[5]}" for r in BYTE_TABLE])
def test_descent_outputs_match_byte_table(tester, kind, dim, eps, p, seed,
                                          expected):
    op = family_op(kind, dim, eps, p, seed)
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


# The same rows as the per-read steps on A.U products computed them.
PER_READ_STATISTICS = {
    ("far", 24, 5): "-0x1.4b36e01e68071p+23",
    ("far", 24, 6): "-0x1.39152d136828cp+39",
    ("far", 24, 7): "-0x1.9f5163aaf2176p+37",
    ("far", 24, 8): "-0x1.4f3af6b2ac3cep+18",
    ("far", 48, 5): "-0x1.daf2165dc731ap+23",
    ("far", 48, 6): "-0x1.c7760143bccdcp+86",
    ("far", 48, 7): "-0x1.188afbfaf9fdap+12",
    ("far", 48, 8): "-0x1.48765adedce82p+37",
    ("cluster_l1", 128, 5): "-0x1.7e606dfdc0772p+21",
    ("cluster_l1", 128, 8): "-0x1.ed0c83752936ep+17",
}


def test_byte_table_statistics_within_rounding_of_scalar_steps():
    _check_within_rounding(SCALAR_STEP_STATISTICS)


def test_byte_table_statistics_within_rounding_of_per_read_steps():
    _check_within_rounding(PER_READ_STATISTICS)


def _check_within_rounding(recorded):
    rows = {(r[1], r[2], r[5]): r[6][2] for r in BYTE_TABLE}
    for key, old in recorded.items():
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

@pytest.mark.parametrize("tester, eps", [(bilinear_sketch_tester, 0.01),
                                         (adaptive_l2_tester, 3e-4)],
                         ids=["bilinear_sketch", "adaptive_l2"])
def test_sketch_testers_refuse_a_sketch_past_the_byte_limit(tester, eps):
    op = SymmetricOperator(np.eye(2))
    with pytest.raises(ValueError, match=r"k=\d+.*d=2\)? needs [\d,]+ bytes"):
        tester(op, eps)
    assert (op.mv_queries, op.vmv_queries) == (0, 0)


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
