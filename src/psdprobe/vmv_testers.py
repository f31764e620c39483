"""PSD testers built on vector-matrix-vector queries.

Four testers live here:

  * oja_l1_tester        -- adaptive, one-sided, distance measured in the
                            trace norm; a stochastic descent on x^T A x.
  * bilinear_sketch_tester -- non-adaptive two-sided Frobenius-scale tester
                            built on the compressed matrix G^T A G.
  * adaptive_l2_tester   -- two-sided Frobenius-scale tester that feeds a
                            shifted, normalized sketch into the Oja tester.
  * nonadaptive_l1_tester -- one-sided trace-norm tester from a single
                            fixed Gaussian compression.

One-sided testers never reject a PSD input: every rejection is triggered by
an actual negative quadratic form witnessed through the oracle, so the
guarantee holds under floating point, not just in exact arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import defaults
from .kernels import frobenius_estimate, schatten1_scale_estimate, trace_estimate
from .oracle import CountedOperator, SeedLike, rng_from

__all__ = [
    "Verdict",
    "OjaConfig",
    "SketchedOperator",
    "SketchState",
    "sketch_reduce",
    "oja_step",
    "oja_l1_tester",
    "lp_to_l1_eps",
    "build_sketch",
    "bilinear_sketch_tester",
    "adaptive_l2_tester",
    "nonadaptive_l1_tester",
]

ONE_SIDED = "one_sided"
TWO_SIDED = "two_sided"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one tester invocation.

    ``queries_used`` counts oracle accesses made by the call (mv and vmv
    combined, measured on the operator the tester was handed).  For a
    one-sided rejection, ``witness`` satisfies quad_form(A, witness) < 0.
    ``statistic`` carries the tester's decision value when it has one
    (gamma for the sketch tester, the confirming quadratic form for the
    Oja tester, lambda_min of the compressed matrix for the non-adaptive
    ones).
    """

    is_psd: bool
    witness: Optional[np.ndarray]
    queries_used: int
    mode: str
    statistic: Optional[float] = None


@dataclass(frozen=True)
class OjaConfig:
    """Tuning knobs of the Oja-style descent.

    ``eta`` is the step size for a unit-trace-norm operator; the tester
    divides it by each trial norm scale.  ``max_iters`` is the iteration
    count per scale, ``eta_scales`` the number of geometric scales tried
    across the norm uncertainty interval, and ``amplification`` the number
    of independent full repetitions (a single run succeeds with constant
    probability only).
    """

    eta: float
    max_iters: int
    eta_scales: int
    amplification: int

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.max_iters < 1 or self.eta_scales < 1 or self.amplification < 1:
            raise ValueError("max_iters, eta_scales and amplification must be >= 1")

    @classmethod
    def from_eps(cls, eps: float, dim: Optional[int] = None,
                 amplification: Optional[int] = None,
                 iter_scale: Optional[float] = None) -> "OjaConfig":
        """Default configuration for testing at trace-norm parameter eps.

        Accounts for the dimension reduction the tester performs first: the
        descent then runs at eps/4 on a min(dim, ceil(8/eps))-dimensional
        operator whose trace norm is known only inside a factor-2m^2 bracket,
        hence ceil(log2(2 m^2)) step-size scales.
        """
        if not 0.0 < eps < 1.0:
            raise ValueError(f"eps must be in (0, 1), got {eps}")
        m = math.ceil(defaults.REDUCE_KAPPA / eps)
        if dim is not None and m >= dim:
            m = dim
            eps_eff = eps
        else:
            eps_eff = eps / defaults.REDUCE_EPS_SHRINK
        log_term = math.log(10.0 / eps_eff ** 2)
        eta = min(defaults.OJA_ETA_MAX, defaults.OJA_STEP_C / log_term)
        scale = defaults.OJA_ITER_SCALE if iter_scale is None else iter_scale
        n = math.ceil(scale * (2.0 / (eta * eps_eff)) * log_term)
        return cls(eta=eta,
                   max_iters=n,
                   eta_scales=max(1, math.ceil(math.log2(2.0 * m * m))),
                   amplification=defaults.OJA_AMP if amplification is None
                   else amplification)


class SketchedOperator(CountedOperator):
    """Virtual view of G^T A G; every query costs one query on the parent.

    G columns are the sketch directions, so the virtual operator is
    ``g.shape[1]``-dimensional.  Query vectors are mapped through G, and a
    block query maps its whole block with one product before forwarding it
    to the matching block query of the parent.
    """

    def __init__(self, parent, g: np.ndarray):
        g = np.asarray(g, dtype=float)
        if g.ndim != 2 or g.shape[0] != parent.dim:
            raise ValueError(f"sketch must be {parent.dim} x m, got {g.shape}")
        super().__init__(g.shape[1])
        self._parent = parent
        self._g = g

    @property
    def parent(self):
        return self._parent

    @property
    def g(self) -> np.ndarray:
        return self._g

    def bilinear(self, x: np.ndarray, y: np.ndarray) -> float:
        self._charge(0, 1)
        return self._parent.bilinear(self._g @ x, self._g @ y)

    def quad_form(self, x: np.ndarray) -> float:
        self._charge(0, 1)
        return self._parent.quad_form(self._g @ x)

    def _raw(self, x_img: np.ndarray, y_img: Optional[np.ndarray] = None) -> float:
        # Counted query on vectors already mapped to the parent space; the
        # descent loop maintains images incrementally and enters here.
        self._charge(0, 1)
        if y_img is None:
            return self._parent.quad_form(x_img)
        return self._parent.bilinear(x_img, y_img)

    def _bilinear_block(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self._parent.bilinear_block(self._g @ x, self._g @ y)

    def _sym_block(self, h: np.ndarray) -> np.ndarray:
        return self._parent.sym_block(self._g @ h)

    def _quad_forms(self, x: np.ndarray, y: Optional[np.ndarray]) -> np.ndarray:
        return self._parent.quad_forms(self._g @ x,
                                       None if y is None else self._g @ y)

    def mat_vec(self, v: np.ndarray):
        raise NotImplementedError(
            "the reduction is defined for the vmv model; no matvec access")

    def pull_back(self, w: np.ndarray) -> np.ndarray:
        """Lift a virtual-space vector to the parent space (w -> G w)."""
        return self._g @ np.asarray(w, dtype=float)

    def realize(self) -> np.ndarray:
        """Dense G^T A G for white-box tests; bypasses query counting."""
        return self._g.T @ self._parent.dense() @ self._g


def sketch_reduce(op, m: int, seed: SeedLike, g: Optional[np.ndarray] = None
                  ) -> SketchedOperator:
    """Compress op to an m-dimensional virtual operator G^T A G.

    G has i.i.d. N(0, 1/d) entries, which keeps the trace norm within a
    factor 2 and pushes any eigenvalue below -eps*||A||_1 to below half its
    (normalized) depth with constant probability once m = O(1/eps).  Pass
    ``g`` to pin the sketch matrix (tests force G = I to make the virtual
    operator coincide with its parent).
    """
    if not 1 <= m <= op.dim:
        raise ValueError(f"need 1 <= m <= {op.dim}, got {m}")
    if g is None:
        gen = rng_from(seed, 0x5EDC)
        g = gen.standard_normal((op.dim, m)) / math.sqrt(op.dim)
    return SketchedOperator(op, g)


def lp_to_l1_eps(eps: float, p: float, d: int) -> float:
    """Trace-norm parameter that upgrades the l1 tester to Schatten-p.

    ||A||_p >= d^(1/p - 1) ||A||_1, so testing at eps * d^(1/p - 1) in the
    trace norm covers the (eps, p) promise.  p = inf gives eps / d.
    """
    if p < 1:
        raise ValueError(f"Schatten exponent must be >= 1, got {p}")
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if math.isinf(p):
        return eps / d
    return eps * d ** (1.0 / p - 1.0)


def oja_step(op, x: np.ndarray, eta: float, rng: SeedLike,
             g: Optional[np.ndarray] = None
             ) -> Tuple[np.ndarray, Tuple[float, float]]:
    """One stochastic descent step x <- x - eta (g^T A x) g.

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


def _queries_on(op) -> int:
    return op.mv_queries + op.vmv_queries


def _scale_grid(lo: float, up: float, n: int) -> np.ndarray:
    if not (lo > 0 and up >= lo):
        raise ValueError(f"invalid norm interval ({lo}, {up})")
    if n == 1 or up == lo:
        return np.array([math.sqrt(lo * up)])
    return lo * (up / lo) ** (np.arange(n) / (n - 1))


_DRAW_BATCH = 64


class _RawDescent:
    """Descent bookkeeping against an operator queried with plain vectors."""

    def __init__(self, target, gen: np.random.Generator):
        self._t = target
        self.x = gen.standard_normal(target.dim)

    def start(self) -> float:
        return self._t.quad_form(self.x)

    def draw(self, gen: np.random.Generator, n: int) -> list:
        return list(gen.standard_normal((n, self._t.dim)))

    def step(self, g: np.ndarray, eta: float) -> Tuple[float, float]:
        self.x, st = oja_step(self._t, self.x, eta, 0, g=g)
        return st

    def norm_sq(self) -> float:
        return float(self.x @ self.x)

    def direct(self) -> float:
        return self._t.quad_form(self.x)

    def witness(self) -> np.ndarray:
        return self.x


class _SketchDescent:
    """The same update run through a sketched operator's parent space.

    The iterate's image under G is maintained incrementally and the Gaussian
    directions are drawn in blocks and mapped with a single matrix product,
    so an iteration costs two parent queries plus O(d + m) arithmetic
    instead of two dense G multiplications.  Rejections confirm and return
    the maintained image itself, which keeps the witness in the parent
    space and bitwise equal to the vector the confirming query saw.
    """

    def __init__(self, target: SketchedOperator, gen: np.random.Generator):
        self._t = target
        self.x = gen.standard_normal(target.dim)
        self._xi = target.g @ self.x

    def start(self) -> float:
        return self._t._raw(self._xi)

    def draw(self, gen: np.random.Generator, n: int) -> list:
        gs = gen.standard_normal((n, self._t.dim))
        imgs = gs @ self._t.g.T
        return [(gs[i], imgs[i]) for i in range(n)]

    def step(self, pair, eta: float) -> Tuple[float, float]:
        g, gi = pair
        t = self._t._raw(gi)
        s = self._t._raw(gi, self._xi)
        es = eta * s
        self.x = self.x - es * g
        self._xi = self._xi - es * gi
        return s, t

    def norm_sq(self) -> float:
        return float(self.x @ self.x)

    def direct(self) -> float:
        return self._t._raw(self._xi)

    def witness(self) -> np.ndarray:
        return self._xi


class _GammaDescent:
    """Image-space bookkeeping for the shifted normalized sketch.

    Every query carries the affine correction, which needs the virtual-space
    inner product alongside the parent raw value, so both the iterate and
    its image are maintained.  The witness stays in the shifted space and
    certifies nothing about the parent; the caller discards it.
    """

    def __init__(self, target: "_GammaOperator", gen: np.random.Generator):
        self._t = target
        self.x = gen.standard_normal(target.dim)
        self._xi = target._inner.g @ self.x

    def start(self) -> float:
        return self._t._affine(self._t._raw(self._xi), float(self.x @ self.x))

    def draw(self, gen: np.random.Generator, n: int) -> list:
        gs = gen.standard_normal((n, self._t.dim))
        imgs = gs @ self._t._inner.g.T
        return [(gs[i], imgs[i]) for i in range(n)]

    def step(self, pair, eta: float) -> Tuple[float, float]:
        g, gi = pair
        t = self._t._affine(self._t._raw(gi), float(g @ g))
        s = self._t._affine(self._t._raw(gi, self._xi), float(g @ self.x))
        es = eta * s
        self.x = self.x - es * g
        self._xi = self._xi - es * gi
        return s, t

    def norm_sq(self) -> float:
        return float(self.x @ self.x)

    def direct(self) -> float:
        return self._t._affine(self._t._raw(self._xi), float(self.x @ self.x))

    def witness(self) -> np.ndarray:
        return self.x


def _descent_for(target, gen: np.random.Generator):
    if isinstance(target, _GammaOperator):
        return _GammaDescent(target, gen)
    if isinstance(target, SketchedOperator):
        return _SketchDescent(target, gen)
    return _RawDescent(target, gen)


def _gaussian_stream(loop, gen: np.random.Generator, total: int):
    left = total
    while left > 0:
        block = loop.draw(gen, min(_DRAW_BATCH, left))
        left -= len(block)
        yield from block


def oja_l1_tester(op, eps: float, cfg: Optional[OjaConfig] = None, *,
                  rng: SeedLike = 0,
                  norm_interval: Optional[Tuple[float, float]] = None) -> Verdict:
    """One-sided adaptive trace-norm tester.

    Pipeline, repeated cfg.amplification times with fresh randomness: draw a
    Gaussian reduction to m = ceil(8/eps) dimensions (skipped when m >= d),
    bracket the reduced trace norm with one coordinate-probe estimate, then
    for each geometric step-size scale in the bracket run the oja_step
    descent from a Gaussian start.  The maintained f = x^T A x can only go
    negative when some quadratic form is genuinely negative; before
    rejecting, the current iterate is re-checked with one direct counted
    quad-form query, so a PSD operator can never be rejected, whatever the
    configuration or floating-point behavior.  On rejection the witness is
    the exact vector that confirming query saw, already in the space of the
    operator the caller handed in.

    ``norm_interval`` overrides the norm bracket (callers that constructed
    the operator analytically, like the adaptive l2 tester, know it
    exactly and skip the probe).
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    gen = rng_from(rng, 0x01A1)
    start_queries = _queries_on(op)
    if cfg is None:
        cfg = OjaConfig.from_eps(eps, dim=op.dim)
    m = min(op.dim, math.ceil(defaults.REDUCE_KAPPA / eps))

    for _ in range(cfg.amplification):
        if m < op.dim:
            target = sketch_reduce(op, m, gen)
        else:
            target = op
        if norm_interval is None:
            lo, up = schatten1_scale_estimate(target, gen)
            if up <= 0.0:
                continue  # probe says A g = 0; nothing to descend on
        else:
            lo, up = norm_interval
        for trial_norm in _scale_grid(lo, up, cfg.eta_scales):
            eta = cfg.eta / trial_norm
            loop = _descent_for(target, gen)
            f = loop.start()
            if f < 0.0:
                return _oja_reject(op, loop.witness(), f, start_queries)
            for payload in _gaussian_stream(loop, gen, cfg.max_iters):
                s, t = loop.step(payload, eta)
                f -= eta * s * s * (2.0 - eta * t)
                norm_sq = loop.norm_sq()
                if not math.isfinite(f) or norm_sq > defaults.OJA_BLOWUP:
                    break  # step size far too large for this scale; move on
                if f < -defaults.OJA_MARGIN * up * max(1.0, norm_sq):
                    direct = loop.direct()
                    if direct < 0.0:
                        return _oja_reject(op, loop.witness(), direct,
                                           start_queries)
                    f = direct  # maintained value had drifted; resynchronize
    return Verdict(is_psd=True, witness=None,
                   queries_used=_queries_on(op) - start_queries,
                   mode=ONE_SIDED, statistic=None)


def _oja_reject(op, witness: np.ndarray, value: float,
                start_queries: int) -> Verdict:
    return Verdict(is_psd=False, witness=witness,
                   queries_used=_queries_on(op) - start_queries,
                   mode=ONE_SIDED, statistic=value)


# ---------------------------------------------------------------------------
# bilinear sketch
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SketchState:
    """Realized bilinear sketch plus the scalars of the gamma statistic.

    ``g`` is the d x k standard Gaussian sketch matrix, ``s`` the dense
    symmetric k x k compressed matrix G^T A G, ``eigvals`` (ascending) and
    ``eigvecs`` its eigenpairs, ``alpha`` a trace estimate, ``beta`` a
    Frobenius estimate, and
    gamma = (alpha - lambda_min(s)) / (beta sqrt(k) ln(max(k, 2))),
    defined as 0 when beta = 0 (the zero operator).
    """

    k: int
    g: np.ndarray
    s: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray
    alpha: float
    beta: float
    gamma: float


def sketch_dim(eps: float, kappa: Optional[float] = None) -> int:
    """Sketch size k = ceil(kappa * eps^-2 * ln^2(max(e, 1/eps)))."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    kappa = defaults.SKETCH_KAPPA if kappa is None else kappa
    return math.ceil(kappa * eps ** -2 * math.log(max(math.e, 1.0 / eps)) ** 2)


def gamma_statistic(alpha: float, beta: float, lam_min: float, k: int) -> float:
    if beta == 0.0:
        return 0.0
    return (alpha - lam_min) / (beta * math.sqrt(k) * math.log(max(k, 2)))


def build_sketch(op, k: int, seed: SeedLike) -> SketchState:
    """Fill all k(k+1)/2 distinct entries of G^T A G and compute gamma.

    Query cost is exactly k(k+1)/2 vmv for the sketch plus 160 for the trace
    estimate and 592 for the Frobenius estimate.
    """
    if k < 1:
        raise ValueError(f"sketch size must be >= 1, got {k}")
    gen = rng_from(seed, 0x5CE7)
    g = gen.standard_normal((op.dim, k))
    s = op.sym_block(g)
    alpha = trace_estimate(op, gen).value
    beta = frobenius_estimate(op, defaults.FROB_EPS_FAIL, gen).value
    w, v = np.linalg.eigh(s)
    return SketchState(k=k, g=g, s=s, eigvals=w, eigvecs=v, alpha=alpha,
                       beta=beta,
                       gamma=gamma_statistic(alpha, beta, float(w[0]), k))


def bilinear_sketch_tester(op, eps: float, c_psd: Optional[float] = None, *,
                           rng: SeedLike = 0,
                           kappa: Optional[float] = None) -> Verdict:
    """Two-sided Frobenius-scale tester from one bilinear sketch.

    Rejects when the compressed matrix has an eigenvalue below the
    floating-point noise floor (with the pulled-back eigenvector as witness
    when it survives a confirming query), or when gamma exceeds the
    calibrated threshold; accepts otherwise.  The statistic field always
    carries gamma.
    """
    if c_psd is None:
        c_psd = defaults.C_PSD
    start = _queries_on(op)
    state = build_sketch(op, sketch_dim(eps, kappa), rng)
    noise_floor = defaults.SKETCH_EIG_TOL * max(state.beta, 1e-300) * state.k
    if state.eigvals[0] < -noise_floor:
        witness = state.g @ state.eigvecs[:, 0]
        if op.quad_form(witness) >= 0.0:  # assembly noise; keep the rejection
            witness = None
        return Verdict(is_psd=False, witness=witness,
                       queries_used=_queries_on(op) - start,
                       mode=TWO_SIDED, statistic=state.gamma)
    if state.beta > 0.0 and state.gamma > c_psd:
        return Verdict(is_psd=False, witness=None,
                       queries_used=_queries_on(op) - start,
                       mode=TWO_SIDED, statistic=state.gamma)
    return Verdict(is_psd=True, witness=None,
                   queries_used=_queries_on(op) - start,
                   mode=TWO_SIDED, statistic=state.gamma)


# ---------------------------------------------------------------------------
# adaptive l2
# ---------------------------------------------------------------------------

class _GammaOperator(CountedOperator):
    """Implicit (G^T A G - alpha I) / (beta sqrt(k) ln k) + (C_far - 1) I.

    The affine part is query-free, so each virtual query costs exactly one
    parent vmv query.  The whole point of the construction: PSD inputs map
    to PSD operators (up to the calibrated gamma tail), inputs far from PSD
    map to operators with an eigenvalue at or below -1, and its trace is
    known analytically, so the descent that runs on it needs neither a norm
    probe nor a scale search.  Only the descent queries it, through
    ``_raw`` on parent-space images, applying ``_affine`` itself.
    """

    def __init__(self, parent, g: np.ndarray, alpha: float, beta: float,
                 shift: float):
        self._inner = SketchedOperator(parent, g)
        k = g.shape[1]
        super().__init__(k)
        self._denom = beta * math.sqrt(k) * math.log(max(k, 2))
        self._alpha = alpha
        self._shift = shift

    def _affine(self, raw: float, dot: float) -> float:
        return (raw - self._alpha * dot) / self._denom + self._shift * dot

    def _raw(self, x_img: np.ndarray, y_img: Optional[np.ndarray] = None) -> float:
        self._charge(0, 1)
        return self._inner._raw(x_img, y_img)


def c_far_curve(k: int, eps: float) -> float:
    """Calibrated lower envelope of gamma on eps-far inputs at sketch size k."""
    return defaults.C_FAR * (eps * math.sqrt(k) - defaults.C_FAR_GAP) \
        / math.log(max(k, 2))


def _gap_sketch_dim(eps: float, c_psd: float) -> int:
    """Smallest k with c_far_curve(k, eps) - c_psd >= 1."""
    lo, hi = 4, 8
    while c_far_curve(hi, eps) - c_psd < 1.0:
        hi *= 2
        if hi > 2 ** 40:
            raise ArithmeticError("gap condition unreachable; calibration broken")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if c_far_curve(mid, eps) - c_psd >= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


def adaptive_l2_tester(op, eps: float, *, rng: SeedLike = 0,
                       c_psd: Optional[float] = None) -> Verdict:
    """Two-sided Frobenius-scale tester with an adaptive second stage.

    First takes a handful of Gaussian quad-form probes (any negative value
    rejects outright, with that probe as witness).  Then picks the smallest
    sketch size k whose calibrated far/PSD gamma envelopes are separated by
    1, forms the shifted normalized sketch implicitly, and runs the
    one-sided descent on it: the shifted operator is PSD when A is (up to
    the calibrated tail), and has an eigenvalue <= -1 when A is far, which
    the descent finds with constant probability per repetition.  Its trace
    is (C_far - 1) k by construction, so the descent runs at a single
    analytic step-size scale.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if c_psd is None:
        c_psd = defaults.C_PSD
    gen = rng_from(rng, 0xAD27)
    start = _queries_on(op)
    for _ in range(defaults.PROBE_COUNT):
        x = gen.standard_normal(op.dim)
        val = op.quad_form(x)
        if val < 0.0:
            return Verdict(is_psd=False, witness=x,
                           queries_used=_queries_on(op) - start,
                           mode=TWO_SIDED, statistic=val)

    alpha = trace_estimate(op, gen).value
    beta = frobenius_estimate(op, defaults.FROB_EPS_FAIL, gen).value
    if beta == 0.0:
        return Verdict(is_psd=True, witness=None,
                       queries_used=_queries_on(op) - start,
                       mode=TWO_SIDED, statistic=None)

    k = _gap_sketch_dim(eps, c_psd)
    c_far = c_far_curve(k, eps)
    g = gen.standard_normal((op.dim, k))
    gamma_op = _GammaOperator(op, g, alpha=alpha, beta=beta, shift=c_far - 1.0)

    trace_gamma = (c_far - 1.0) * k
    eta = defaults.GAMMA_ETA_C / trace_gamma
    n_iters = math.ceil(defaults.GAMMA_GROWTH_LOG / eta)
    cfg = OjaConfig(eta=defaults.GAMMA_ETA_C, max_iters=n_iters, eta_scales=1,
                    amplification=defaults.GAMMA_AMP)
    sub = oja_l1_tester(gamma_op, min(0.5, 1.0 / (3.0 * k)), cfg, rng=gen,
                        norm_interval=(trace_gamma, trace_gamma))
    return Verdict(is_psd=sub.is_psd, witness=None,
                   queries_used=_queries_on(op) - start,
                   mode=TWO_SIDED, statistic=None)


# ---------------------------------------------------------------------------
# non-adaptive l1
# ---------------------------------------------------------------------------

def nonadaptive_l1_tester(op, eps: float, *, repeats: Optional[int] = None,
                          rng: SeedLike = 0,
                          kappa: Optional[float] = None) -> Verdict:
    """One-sided trace-norm tester with all queries fixed in advance.

    Each repetition draws G with N(0, 1/d) entries, m = ceil(kappa/eps)
    columns, fills G^T A G with one query per distinct entry (m(m+1)/2 vmv,
    all on sketch columns fixed before the first answer arrives) and rejects
    only when its smallest eigenvalue sits below the floating-point noise
    floor.  The query positions never depend on answers, which is the point
    of this tester; correctness of the witness comes from the eigenvalue's
    margin over assembly noise rather than a confirming query.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    repeats = defaults.NONADAPT_REPEATS if repeats is None else repeats
    kappa = defaults.NONADAPT_KAPPA if kappa is None else kappa
    gen = rng_from(rng, 0x0AD1)
    start = _queries_on(op)
    m = min(op.dim, math.ceil(kappa / eps))
    lam_last = None
    for _ in range(repeats):
        g = gen.standard_normal((op.dim, m)) / math.sqrt(op.dim)
        s = op.sym_block(g)
        w, v = np.linalg.eigh(s)
        lam_last = float(w[0])
        noise_floor = 1e-9 * float(np.linalg.norm(s, "fro"))
        if w[0] < -noise_floor:
            witness = g @ v[:, 0]
            return Verdict(is_psd=False, witness=witness,
                           queries_used=_queries_on(op) - start,
                           mode=ONE_SIDED, statistic=lam_last)
    return Verdict(is_psd=True, witness=None,
                   queries_used=_queries_on(op) - start,
                   mode=ONE_SIDED, statistic=lam_last)
