"""PSD testers built on vector-matrix-vector queries.

Four testers live here:

  * oja_l1_tester        -- adaptive, one-sided, distance measured in the
                            trace norm; a stochastic descent on x^T A x.
  * bilinear_sketch_tester -- non-adaptive two-sided Frobenius-scale tester
                            built on the compressed matrix G^T A G.
  * adaptive_l2_tester   -- two-sided Frobenius-scale tester that runs the
                            Oja descent on a shifted, normalized sketch.
  * nonadaptive_l1_tester -- one-sided trace-norm tester from a single
                            fixed Gaussian compression.

One-sided testers never reject a PSD input: every rejection is triggered by
an actual negative quadratic form witnessed through the oracle, so the
guarantee holds under floating point, not just in exact arithmetic.

Both Oja-based testers share one descent, ``_descend``: it runs on a parent
operator, optionally through a Gaussian map G (the virtual operator
G^T A G) and optionally under an affine shift of every answer.
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
    "oja_l1_tester",
    "sketch_dim",
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


def _queries_on(op) -> int:
    return op.mv_queries + op.vmv_queries


def _scale_grid(lo: float, up: float, n: int) -> np.ndarray:
    if not (lo > 0 and up >= lo):
        raise ValueError(f"invalid norm interval ({lo}, {up})")
    if n == 1 or up == lo:
        return np.array([math.sqrt(lo * up)])
    return lo * (up / lo) ** (np.arange(n) / (n - 1))


_DRAW_BATCH = 64
# Column edges of the A.U products inside one drawn block.  Growing chunks
# let a run that stops early (a confirmed rejection, a blow-up) pay for a
# few columns instead of the whole block.
_CHUNK_EDGES = (0, 4, 12, 28, _DRAW_BATCH)
_OJA_STREAM = 0x01A1


def _descend(parent, g: Optional[np.ndarray], eta: float, iters: int,
             gen: np.random.Generator, up: float,
             affine: Optional[Tuple[float, float, float]] = None
             ) -> Optional[Tuple[np.ndarray, float]]:
    """One Oja descent run x <- x - eta (u^T B x) u on the form x^T B x.

    B is ``parent`` itself when ``g`` is None and the virtual G^T A G
    otherwise; ``affine = (alpha, denom, shift)`` further maps every answer
    q(u, v) to (q - alpha u.v) / denom + shift u.v.  The iterate x lives in
    B's space and its image xi = G x (x itself without G) is maintained
    alongside, so every query is asked on ``parent``: t = u^T B u, then
    s = u^T B x.  Directions u are standard Gaussian, drawn after x in
    blocks of at most 64 rows, each block mapped through G by one product,
    and no further block is drawn once the run stops.

    A drawn block is fixed before any of its answers is read, so both
    queries of a step are read from a ``parent.directions`` handle: the
    simulator forms A U for the block's images in chunks of 4, 8, 16 and
    36 columns, each when the run first reaches it, and a step then costs
    O(d) work for the same two charged vmv queries.

    The maintained f = x^T B x drops by eta s^2 (2 - eta t) per step, which
    is exact algebra; once it falls below -OJA_MARGIN * up * max(1, |x|^2),
    one direct query confirms it.  Returns (xi, value) for a confirmed
    negative value, xi being the vector the confirming query saw, and None
    after ``iters`` steps or when the run blows up (the step size is far
    too large for the scale ``up``).
    """
    x = gen.standard_normal(parent.dim if g is None else g.shape[1])
    xi = x if g is None else g @ x

    def shifted(raw: float, dot: float) -> float:
        alpha, denom, shift = affine
        return (raw - alpha * dot) / denom + shift * dot

    def direct() -> float:
        raw = parent.quad_form(xi)
        return raw if affine is None else shifted(raw, float(x @ x))

    f = direct()
    if f < 0.0:
        return xi, f
    left = iters
    while left > 0:
        us = gen.standard_normal((min(_DRAW_BATCH, left), x.size))
        left -= len(us)
        uis = us if g is None else us @ g.T
        for lo, hi in zip(_CHUNK_EDGES, _CHUNK_EDGES[1:]):
            if lo >= len(us):
                break
            block = parent.directions(uis[lo:hi].T)
            for j, (u, ui) in enumerate(zip(us[lo:hi], uis[lo:hi])):
                t = block.quad_form(j)
                s = block.bilinear(j, xi)
                if affine is not None:  # keep the two dots off the unshifted runs
                    t = shifted(t, float(u @ u))
                    s = shifted(s, float(u @ x))
                es = eta * s
                x = x - es * u
                xi = x if g is None else xi - es * ui
                f -= eta * s * s * (2.0 - eta * t)
                norm_sq = float(x @ x)
                if not math.isfinite(f) or norm_sq > defaults.OJA_BLOWUP:
                    return None
                if f < -defaults.OJA_MARGIN * up * max(1.0, norm_sq):
                    confirmed = direct()
                    if confirmed < 0.0:
                        return xi, confirmed
                    f = confirmed  # maintained value had drifted; resynchronize
    return None


def oja_l1_tester(op, eps: float, cfg: Optional[OjaConfig] = None, *,
                  rng: SeedLike = 0) -> Verdict:
    """One-sided adaptive trace-norm tester.

    Pipeline, repeated cfg.amplification times with fresh randomness: draw a
    Gaussian reduction to m = ceil(8/eps) dimensions (skipped when m >= d),
    bracket the reduced trace norm with one coordinate-probe estimate, then
    for each geometric step-size scale in the bracket run one ``_descend``
    from a Gaussian start.  The maintained f = x^T A x can only go negative
    when some quadratic form is genuinely negative; before rejecting, the
    current iterate is re-checked with one direct counted quad-form query,
    so a PSD operator can never be rejected, whatever the configuration or
    floating-point behavior.  On rejection the witness is the exact vector
    that confirming query saw, already in the space of the operator the
    caller handed in.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    gen = rng_from(rng, _OJA_STREAM)
    start_queries = _queries_on(op)
    if cfg is None:
        cfg = OjaConfig.from_eps(eps, dim=op.dim)
    m = min(op.dim, math.ceil(defaults.REDUCE_KAPPA / eps))

    for _ in range(cfg.amplification):
        target = sketch_reduce(op, m, gen) if m < op.dim else op
        lo, up = schatten1_scale_estimate(target, gen)
        if up <= 0.0:
            continue  # probe says A g = 0; nothing to descend on
        g = None if target is op else target.g
        for trial_norm in _scale_grid(lo, up, cfg.eta_scales):
            hit = _descend(op, g, cfg.eta / trial_norm, cfg.max_iters, gen, up)
            if hit is not None:
                witness, value = hit
                return Verdict(is_psd=False, witness=witness,
                               queries_used=_queries_on(op) - start_queries,
                               mode=ONE_SIDED, statistic=value)
    return Verdict(is_psd=True, witness=None,
                   queries_used=_queries_on(op) - start_queries,
                   mode=ONE_SIDED, statistic=None)


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
    alpha = trace_estimate(op, gen)
    beta = frobenius_estimate(op, defaults.FROB_EPS_FAIL, gen)
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
    1, and runs the Oja descent GAMMA_AMP times on the shifted normalized
    sketch, which exists only as an affine shift of the descent's answers:
    it is PSD when A is (up to the calibrated tail), and has an eigenvalue
    <= -1 when A is far, which one run finds with constant probability.  Its
    trace is (C_far - 1) k by construction, so the descent runs at a single
    analytic step-size scale, with no norm probe.  A negative value found
    in the shifted space proves nothing about A, so that rejection carries
    no witness.
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

    alpha = trace_estimate(op, gen)
    beta = frobenius_estimate(op, defaults.FROB_EPS_FAIL, gen)
    if beta == 0.0:
        return Verdict(is_psd=True, witness=None,
                       queries_used=_queries_on(op) - start,
                       mode=TWO_SIDED, statistic=None)

    k = _gap_sketch_dim(eps, c_psd)
    c_far = c_far_curve(k, eps)
    g = gen.standard_normal((op.dim, k))
    # The shifted sketch (G^T A G - alpha I) / (beta sqrt(k) ln k)
    # + (C_far - 1) I has trace (C_far - 1) k, which sets the one step size.
    affine = (alpha, beta * math.sqrt(k) * math.log(max(k, 2)), c_far - 1.0)
    trace_gamma = (c_far - 1.0) * k
    eta = defaults.GAMMA_ETA_C / trace_gamma
    n_iters = math.ceil(defaults.GAMMA_GROWTH_LOG / eta)
    is_psd = all(_descend(op, g, eta, n_iters, gen, trace_gamma, affine) is None
                 for _ in range(defaults.GAMMA_AMP))
    return Verdict(is_psd=is_psd, witness=None,
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
