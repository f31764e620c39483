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

Every public tester, here and in ``mv_testers``, answers through one exit,
``_tester(mode)``, which checks eps and builds the ``Verdict``; a tester
body returns only (is_psd, witness, statistic).

Both Oja-based testers share one descent, ``_descend``: it runs on a
``compressed`` handle of the operator the caller handed in, so on the form
x^T B x with B = G^T A G for a Gaussian map G (B = A without one), and
optionally under an affine shift of every answer.  The iterate lives in
B's space, and each block of its steps is solved from one ``read`` of
the handle, whose products come from B, formed, uncounted, when the
handle is built; the handle charges every step taken to the operator
handed in as its two vmv queries.
``oja_l1_tester`` shares one handle across the runs of a repetition, and
``adaptive_l2_tester`` across the runs of a trial; once its k passes d,
it simulates G = L Q through the square d x d Bartlett factor L (see
``_descend``).
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from numpy.linalg import _umath_linalg

from . import defaults
from .kernels import frobenius_estimate, schatten1_scale_estimate, trace_estimate
from .oracle import SeedLike, rng_from

__all__ = [
    "Verdict",
    "OjaConfig",
    "SketchState",
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
    combined, measured on the operator the tester was handed); ``_tester``
    writes it and ``mode``.  For a one-sided rejection, ``witness``
    satisfies quad_form(A, witness) < 0.  ``statistic`` is gamma for
    bilinear_sketch; the confirming quadratic form of an oja_l1 rejection
    and the negative probe value of an adaptive_l2 probe rejection, None on
    their other outcomes; for nonadaptive_l1 and nonadaptive_mv, lambda_min of the last
    repetition's G^T A G (the rejecting one on a rejection); for krylov,
    lambda_min of the rejecting repetition's projected matrix, or on an
    accept the minimum of lambda_min over the repetitions it ran.
    """

    is_psd: bool
    witness: Optional[np.ndarray]
    queries_used: int
    mode: str
    statistic: Optional[float] = None


def _check_eps(eps) -> None:
    """The one library check of eps: ValueError unless 0 < eps < 1."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")


def _check_constant(name: str, value, *, count: bool = False) -> None:
    """The one library check of a tester constant: ValueError naming it
    unless it is a finite number > 0, or, for a ``count``, an integer >= 1
    (numpy's too); a bool is neither."""
    kind = numbers.Integral if count else numbers.Real
    if (isinstance(value, bool) or not isinstance(value, kind)
            or not 0 < value < math.inf):
        rule = "an integer >= 1" if count else "a finite number > 0"
        raise ValueError(f"{name} must be {rule}, got {value!r}")


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
        _check_constant("eta", self.eta)
        for name in ("max_iters", "eta_scales", "amplification"):
            _check_constant(name, getattr(self, name), count=True)

    @classmethod
    def from_eps(cls, eps: float, dim: int,
                 amplification: Optional[int] = None,
                 iter_scale: Optional[float] = None) -> "OjaConfig":
        """Default configuration for testing at trace-norm parameter eps.

        Accounts for the dimension reduction the tester performs first: the
        descent then runs at eps/4 on a min(dim, ceil(8/eps))-dimensional
        operator whose trace norm is known only inside a factor-2m^2 bracket,
        hence ceil(log2(2 m^2)) step-size scales.
        """
        _check_eps(eps)
        scale = defaults.OJA_ITER_SCALE if iter_scale is None else iter_scale
        _check_constant("iter_scale", scale)
        m = math.ceil(defaults.REDUCE_KAPPA / eps)
        if m >= dim:
            m = dim
            eps_eff = eps
        else:
            eps_eff = eps / defaults.REDUCE_EPS_SHRINK
        log_term = math.log(10.0 / eps_eff ** 2)
        eta = min(defaults.OJA_ETA_MAX, defaults.OJA_STEP_C / log_term)
        n = math.ceil(scale * (2.0 / (eta * eps_eff)) * log_term)
        return cls(eta=eta,
                   max_iters=n,
                   eta_scales=max(1, math.ceil(math.log2(2.0 * m * m))),
                   amplification=defaults.OJA_AMP if amplification is None
                   else amplification)


def _tester(mode: str):
    """Decorator: the one exit of every public tester.

    The call checks that eps is in (0, 1) before any query, runs the body,
    which returns (is_psd, witness, statistic) and keeps the public
    signature, and builds the ``Verdict``: ``queries_used`` is the movement
    of op's mv + vmv counters over the call, ``mode`` the given one.
    """
    def wrap(body):
        @functools.wraps(body)
        def tester(op, eps, *args, **kwargs):
            _check_eps(eps)
            start = op.mv_queries + op.vmv_queries
            is_psd, witness, statistic = body(op, eps, *args, **kwargs)
            return Verdict(is_psd=is_psd, witness=witness,
                           queries_used=op.mv_queries + op.vmv_queries - start,
                           mode=mode, statistic=statistic)
        return tester
    return wrap


def _lowest(s: np.ndarray) -> Tuple[float, Optional[np.ndarray]]:
    """lambda_min of the symmetric s, and its unit eigenvector only when
    lambda_min < -EIG_TOL ||s||_F: eigh's backward error is O(u ||s||), so
    rounding never takes a PSD s there, nor a zero s, whose floor is 0."""
    w, v = np.linalg.eigh(s)
    floor = -defaults.EIG_TOL * float(np.linalg.norm(s, "fro"))
    return float(w[0]), (v[:, 0] if w[0] < floor else None)


def _scale_grid(lo: float, up: float, n: int) -> np.ndarray:
    if not (lo > 0 and up >= lo):
        raise ValueError(f"invalid norm interval ({lo}, {up})")
    if n == 1 or up == lo:
        return np.array([math.sqrt(lo * up)])
    return lo * (up / lo) ** (np.arange(n) / (n - 1))


_DRAW_BATCH = 64
# Row counts of a run's first four drawn blocks; every later block has
# _DRAW_BATCH rows.  Most rejections stop within a few steps, so growing
# blocks let a run that stops early (a confirmed rejection, a blow-up)
# draw and read a few rows instead of a whole batch.
_FIRST_DRAWS = (4, 8, 16, 36)
_OJA_STREAM = 0x01A1
# Strictly lower-triangular 0/1 mask; its leading n x n corner serves a
# block of n directions.
_LOWER = np.tri(_DRAW_BATCH, k=-1)
_LOWER.flags.writeable = False


def _descend(comp, eta: float, iters: int, gen: np.random.Generator,
             up: float, affine: Optional[Tuple[float, float, float]] = None,
             null: int = 0) -> Optional[Tuple[np.ndarray, float]]:
    """One Oja descent run x <- x - eta (u^T B x) u on the form x^T B x.

    B is the form of ``comp``, a ``compressed`` handle on the operator A
    the tester was handed: G^T A G, or A itself when the handle has no G.
    ``affine = (alpha, denom, shift)`` further maps every answer q(u, v) to
    (q - alpha u.v) / denom + shift u.v.  The iterate x lives in B's space
    only.  Each step asks two vmv queries, t = u^T B u, then s = u^T B x,
    and every query is charged to A.  Directions u are standard Gaussian,
    drawn after x in blocks of 4, 8, 16 and 36 rows, then 64 rows each,
    every block capped at the steps left; each drawn block is one
    ``comp.read``, and no further block is drawn once the run stops.

    ``null = D > 0`` runs the descent of a d x (d + D) Gaussian G = L Q on
    the handle of its d x d Bartlett factor L, Q being Haar with
    orthonormal rows and independent of L (Muirhead, Aspects of
    Multivariate Statistical Theory, Thm 3.2.14).  Every value the run
    reads depends on Q x, Q u and the parts of x and u in Q's null space
    only through their dot products, so x is kept as [Q x, |x_perp|] and
    each block's directions as ``_draw_rows`` draws them, which is exact
    in distribution.  Within a block x carries the block's null
    coordinates, and after it only |x_perp| is kept, since the next
    block's null parts are drawn afresh from a rotation-invariant law.

    A drawn block is fixed before any of its answers is read, so its steps
    are computed together from that read (see ``_sweep``) and charged
    through ``comp.charge_steps``, two vmv each, up to the step where the
    run stops.

    The maintained f = x^T B x drops by eta s^2 (2 - eta t) per step, which
    is exact algebra, subtracted in step order; once it falls below
    -OJA_MARGIN * up * max(1, |x|^2), one direct query on A at xi = G x
    confirms it.  Returns (xi, value) for a confirmed negative value, xi
    being the vector the confirming query saw, and None after ``iters``
    steps or when the run blows up (the step size is far too large for the
    scale ``up``).
    """
    d = comp.dim
    x = gen.standard_normal(d)
    if null:
        x = np.append(x, math.sqrt(gen.chisquare(null)))

    def direct() -> Tuple[np.ndarray, float]:
        xi = comp.lift(x[:d])
        raw = comp.owner.quad_form(xi)
        return xi, (raw if affine is None
                    else _shifted(affine, raw, float(x @ x)))

    xi, f = direct()
    if f < 0.0:
        return xi, f
    left = iters
    sizes = itertools.chain(_FIRST_DRAWS, itertools.repeat(_DRAW_BATCH))
    # Steps after a blow-up may overflow; the stop tests below catch every
    # non-finite value, so the warnings would only repeat them.
    with np.errstate(over="ignore", invalid="ignore"):
        while left > 0:
            rows = _draw_rows(gen, min(next(sizes), left), d, null)
            left -= len(rows)
            if null:  # x = [Q x, |x_perp|] takes the block's null axes
                x = np.concatenate([x, np.zeros(rows.shape[1] - x.size)])
            x0 = x
            e, drops, go_norm, limit = _sweep(comp, rows, x0, eta, up, affine)
            lo = 0  # first step not yet taken
            while lo < len(e):
                drops[lo] = f  # step lo - 1's drop is spent
                fs = np.subtract.accumulate(drops[lo:])[1:]
                # f_j >= limit_j also fails for a NaN f_j, and f_j < inf for
                # an infinite one of either sign.
                go = (fs >= limit[lo:]) & (fs < math.inf) & go_norm[lo:]
                if go.all():
                    comp.charge_steps(len(e) - lo)
                    f = float(fs[-1])
                    break
                stop = int(np.argmin(go))
                comp.charge_steps(stop + 1)
                if not (math.isfinite(fs[stop]) and go_norm[lo + stop]):
                    return None
                lo += stop + 1
                x = x0 - e[:lo] @ rows[:lo]
                xi, confirmed = direct()
                if confirmed < 0.0:
                    return xi, confirmed
                f = confirmed  # maintained value had drifted; resynchronize
            x = x0 - e @ rows
            if null:
                x = np.append(x[:d], np.linalg.norm(x[d:]))
    return None


def _bartlett(gen: np.random.Generator, n: int, df: int) -> np.ndarray:
    """The n x n Bartlett factor T of a Wishart_n(df, I) draw T T^T, for
    df >= n: lower triangular, T_jj = sqrt(chi^2_{df - j}) for j = 0..n-1,
    and N(0, 1) entries below the diagonal."""
    t = np.zeros((n, n))
    t[np.tri(n, k=-1, dtype=bool)] = gen.standard_normal(n * (n - 1) // 2)
    t.flat[::n + 1] = np.sqrt(gen.chisquare(df - np.arange(n)))
    return t


def _draw_rows(gen: np.random.Generator, n: int, d: int,
               null: int) -> np.ndarray:
    """One drawn block of ``_descend``: n directions as the rows [a | z | T].

    a ~ N(0, I_d) is each direction's Q u, the only part the handle sees.
    With ``null = D > 0``, z ~ N(0, 1) is its part along x_perp at the
    block's start and T stands for its other D - 1 null coordinates: only
    their dot products are ever read, and those of an n x (D - 1) Gaussian
    are those of its n x n Bartlett factor, so T is that factor once
    D - 1 > n, and the plain Gaussian otherwise.
    """
    a = gen.standard_normal((n, d))
    if not null:
        return a
    z = gen.standard_normal((n, 1))
    t = (gen.standard_normal((n, null - 1)) if null - 1 <= n
         else _bartlett(gen, n, null - 1))
    return np.hstack([a, z, t])


def _shifted(affine: Tuple[float, float, float], raw, dot):
    """The affine map (raw - alpha dot) / denom + shift dot of ``_descend``."""
    alpha, denom, shift = affine
    return (raw - alpha * dot) / denom + shift * dot


def _sweep(comp, rows: np.ndarray, x: np.ndarray, eta: float, up: float,
           affine) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every step along one drawn block at once, before any stop test.

    With u_j the rows and x_0 = x, step j reads t_j = m_jj and
    s_j = c_j - eta sum_{i<j} m_ji s_i, where m = U^T B U and c = U^T B x
    come from one ``comp.read``, which opens the block's steps, after the
    affine map when there is one (its dots are P = U U^T and q = U x,
    since u_j . x_{j-1} = q_j - eta sum_{i<j} p_ji s_i).  The read sees
    the first ``comp.dim`` coordinates of the rows and of x; the rest,
    ``_descend``'s null coordinates, enter only the dots.  So s solves the
    unit lower-triangular (I + eta tril(m, -1)) s = c.  The drop of f at
    step j is eta s_j^2 (2 - eta t_j), and
    |x_j|^2 = |x_{j-1}|^2 - eta s_j (2 u_j . x_{j-1} - eta s_j p_jj).

    Returns (eta s, drops, go_norm, limit): drops[j + 1] is step j's drop
    of f, drops[0] a free slot; go_norm[j] says |x_j|^2 is within
    ``OJA_BLOWUP``, and f_j below limit[j] = -OJA_MARGIN up max(1, |x_j|^2)
    calls for a confirming query.  Steps after a blow-up may overflow;
    their values are meaningless, and the caller silences the warnings.
    """
    d = comp.dim
    m, c = comp.read(rows[:, :d].T, x[:d])
    dots = rows @ rows.T
    q = rows @ x
    if affine is not None:
        m = _shifted(affine, m, dots)
        c = _shifted(affine, c, q)
    return _steps(m, c, dots, q, float(x @ x), eta, up)


def _steps(m, c, dots, q, norm, eta, up):
    """``_sweep``'s steps from one forward solve; ``norm`` is |x_0|^2.

    numpy's one dense solver is an LU with partial pivoting, which would
    reorder the substitution wherever some |eta m_ij| > 1.  With rows and
    columns reversed, I + eta tril(m, -1) is upper triangular with a unit
    diagonal and zeros below it, so the LU pivots nowhere, whatever the
    entries: it is I times the matrix itself, and the solve is back
    substitution on the reversed system, that is, forward substitution on
    the original.  Rows after a non-finite one are non-finite.  The solver
    is called as the gufunc behind ``np.linalg.solve``, which skips that
    wrapper's checks and copies.
    """
    n = len(c)
    lower = _LOWER[:n, :n]
    el = m * lower
    el *= eta
    el.flat[::n + 1] = 1.0
    s = _umath_linalg.solve1(el[::-1, ::-1], c[::-1], signature="dd->d")[::-1]
    e = eta * s
    drops = np.empty(n + 1)
    np.multiply(e * s, 2.0 - eta * m.diagonal(), out=drops[1:])
    # A non-finite step only follows a blow-up; zeroing it keeps its
    # 0 * inf out of the earlier steps' dot products.
    e_ok = np.where(np.isfinite(e), e, 0.0)
    norms = (dots * lower) @ e_ok
    np.subtract(q, norms, out=norms)
    norms *= 2.0
    norms -= e_ok * dots.diagonal()
    norms *= e_ok
    norms = norm - np.add.accumulate(norms)
    limit = -defaults.OJA_MARGIN * up * np.maximum(1.0, norms)
    return e, drops, norms <= defaults.OJA_BLOWUP, limit


@_tester(ONE_SIDED)
def oja_l1_tester(op, eps: float, cfg: Optional[OjaConfig] = None, *,
                  rng: SeedLike = 0) -> Verdict:
    """One-sided adaptive trace-norm tester.

    Pipeline, repeated cfg.amplification times with fresh randomness: draw a
    Gaussian reduction G to m = ceil(8/eps) columns (skipped when m >= d),
    bracket the trace norm of B = G^T A G with one coordinate-probe
    estimate, then for each geometric step-size scale in the bracket run
    one ``_descend`` from a Gaussian start.  G has i.i.d. N(0, 1/d)
    entries, which keeps the trace norm within a factor 2 and pushes any
    eigenvalue below -eps*||A||_1 to below half its (normalized) depth with
    constant probability once m = O(1/eps).  The runs of one repetition
    share one ``op.compressed(g)`` handle, which forms B, uncounted, when it
    is built, and every step reads from it in m dimensions.  Every read is
    still charged to ``op`` as the query it stands for.

    The maintained f = x^T B x can only go negative when some quadratic
    form is genuinely negative; before rejecting, the current iterate is
    re-checked with one direct counted quad-form query, so a PSD operator
    can never be rejected, whatever the configuration or floating-point
    behavior.  On rejection the witness is the exact vector that confirming
    query saw, already in the space of the operator the caller handed in.
    """
    gen = rng_from(rng, _OJA_STREAM)
    if cfg is None:
        cfg = OjaConfig.from_eps(eps, dim=op.dim)
    m = min(op.dim, math.ceil(defaults.REDUCE_KAPPA / eps))

    for _ in range(cfg.amplification):
        g = (gen.standard_normal((op.dim, m)) / math.sqrt(op.dim)
             if m < op.dim else None)
        comp = op.compressed(g)
        lo, up = schatten1_scale_estimate(op, g, gen)
        if up <= 0.0:
            continue  # probe says B p = 0; nothing to descend on
        for trial_norm in _scale_grid(lo, up, cfg.eta_scales):
            hit = _descend(comp, cfg.eta / trial_norm, cfg.max_iters, gen, up)
            if hit is not None:
                witness, value = hit
                return False, witness, value
    return True, None, None


# ---------------------------------------------------------------------------
# bilinear sketch
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SketchState:
    """Realized bilinear sketch plus the scalars of the gamma statistic.

    ``g`` is the d x k standard Gaussian sketch matrix, ``s`` the dense
    symmetric k x k compressed matrix G^T A G, ``lam_min`` and
    ``direction`` its ``_lowest`` pair, ``alpha`` a trace estimate, ``beta``
    a Frobenius estimate, and
    gamma = (alpha - lam_min) / (beta sqrt(k) ln(max(k, 2))),
    defined as 0 when beta = 0 (the zero operator).
    """

    k: int
    g: np.ndarray
    s: np.ndarray
    lam_min: float
    direction: Optional[np.ndarray]
    alpha: float
    beta: float
    gamma: float


def sketch_dim(eps: float, kappa: Optional[float] = None) -> int:
    """Sketch size k = ceil(kappa * eps^-2 * ln^2(max(e, 1/eps)))."""
    _check_eps(eps)
    kappa = defaults.SKETCH_KAPPA if kappa is None else kappa
    _check_constant("kappa", kappa)
    return math.ceil(kappa * eps ** -2 * math.log(max(math.e, 1.0 / eps)) ** 2)


def gamma_statistic(alpha: float, beta: float, lam_min: float, k: int) -> float:
    if beta == 0.0:
        return 0.0
    return (alpha - lam_min) / (beta * math.sqrt(k) * math.log(max(k, 2)))


def _check_sketch_bytes(what: str, nbytes: int) -> None:
    """Refuse, before any query or draw, a sketch whose float64 arrays would
    pass ``defaults.SKETCH_MAX_BYTES``."""
    if nbytes > defaults.SKETCH_MAX_BYTES:
        raise ValueError(f"{what} needs {nbytes:,} bytes of sketch, over the "
                         f"{defaults.SKETCH_MAX_BYTES:,}-byte limit")


def build_sketch(op, k: int, seed: SeedLike) -> SketchState:
    """Fill all k(k+1)/2 distinct entries of G^T A G and compute gamma.

    Query cost is exactly k(k+1)/2 vmv for the sketch plus 160 for the trace
    estimate and 592 for the Frobenius estimate.  A sketch whose G and
    G^T A G pass ``defaults.SKETCH_MAX_BYTES`` raises ValueError first.
    """
    if k < 1:
        raise ValueError(f"sketch size must be >= 1, got {k}")
    _check_sketch_bytes(f"a k={k} bilinear sketch on d={op.dim}",
                        8 * k * (op.dim + k))
    gen = rng_from(seed, 0x5CE7)
    g = gen.standard_normal((op.dim, k))
    s = op.sym_block(g)
    alpha = trace_estimate(op, gen)
    beta = frobenius_estimate(op, gen)
    lam, v = _lowest(s)
    return SketchState(k=k, g=g, s=s, lam_min=lam, direction=v, alpha=alpha,
                       beta=beta, gamma=gamma_statistic(alpha, beta, lam, k))


@_tester(TWO_SIDED)
def bilinear_sketch_tester(op, eps: float, c_psd: Optional[float] = None, *,
                           rng: SeedLike = 0,
                           kappa: Optional[float] = None) -> Verdict:
    """Two-sided Frobenius-scale tester from one bilinear sketch.

    Rejects when ``_lowest`` puts the compressed matrix below its floor
    (with the pulled-back eigenvector as witness when it survives a
    confirming query), or when gamma exceeds the calibrated threshold;
    accepts otherwise.  The statistic field always carries gamma.
    """
    c_psd = defaults.C_PSD if c_psd is None else c_psd
    _check_constant("c_psd", c_psd)
    state = build_sketch(op, sketch_dim(eps, kappa), rng)
    if state.direction is not None:
        witness = state.g @ state.direction
        if op.quad_form(witness) >= 0.0:  # assembly noise; keep the rejection
            witness = None
        return False, witness, state.gamma
    return not (state.beta > 0.0 and state.gamma > c_psd), None, state.gamma


# ---------------------------------------------------------------------------
# adaptive l2
# ---------------------------------------------------------------------------

def c_far_curve(k: int, eps: float) -> float:
    """Calibrated lower envelope of gamma on eps-far inputs at sketch size k."""
    return defaults.C_FAR * (eps * math.sqrt(k) - defaults.C_FAR_GAP) \
        / math.log(max(k, 2))


def _gap_sketch_dim(eps: float, c_psd: float) -> int:
    """Smallest k with c_far_curve(k, eps) - c_psd >= 1 (ValueError past 2^40)."""
    lo, hi = 4, 8
    while c_far_curve(hi, eps) - c_psd < 1.0:
        hi *= 2
        if hi > 2 ** 40:
            raise ValueError(f"adaptive_l2 at eps={eps}: no sketch size up to "
                             f"2^40 separates the gamma envelopes")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if c_far_curve(mid, eps) - c_psd >= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


@_tester(TWO_SIDED)
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

    The runs share one ``op.compressed`` handle, which forms its B,
    uncounted, when it is built.  Past k = d the sketch is simulated in d
    dimensions: the handle is built on the d x d Bartlett factor L of
    G G^T ~ Wishart_d(k, I), drawn in place of G, so its B is L^T A L, and
    ``_descend`` keeps the k - d null dimensions of G = L Q as one norm; at
    k <= d G is drawn as it stands.  An eps whose d x k G would pass
    ``defaults.SKETCH_MAX_BYTES`` raises ValueError before any query,
    simulated or not: the cap also bounds the run length, which grows with
    k.
    """
    c_psd = defaults.C_PSD if c_psd is None else c_psd
    _check_constant("c_psd", c_psd)
    k = _gap_sketch_dim(eps, c_psd)
    _check_sketch_bytes(f"adaptive_l2 at eps={eps} (k={k}, d={op.dim})",
                        8 * op.dim * k)
    gen = rng_from(rng, 0xAD27)
    for _ in range(defaults.PROBE_COUNT):
        x = gen.standard_normal(op.dim)
        val = op.quad_form(x)
        if val < 0.0:
            return False, x, val

    alpha = trace_estimate(op, gen)
    beta = frobenius_estimate(op, gen)
    if beta == 0.0:
        return True, None, None

    c_far = c_far_curve(k, eps)
    null = max(0, k - op.dim)
    comp = op.compressed(_bartlett(gen, op.dim, k) if null
                         else gen.standard_normal((op.dim, k)))
    # The shifted sketch (G^T A G - alpha I) / (beta sqrt(k) ln k)
    # + (C_far - 1) I has trace (C_far - 1) k, which sets the one step size.
    affine = (alpha, beta * math.sqrt(k) * math.log(max(k, 2)), c_far - 1.0)
    trace_gamma = (c_far - 1.0) * k
    eta = defaults.GAMMA_ETA_C / trace_gamma
    n_iters = math.ceil(defaults.GAMMA_GROWTH_LOG / eta)
    is_psd = all(_descend(comp, eta, n_iters, gen, trace_gamma, affine, null)
                 is None for _ in range(defaults.GAMMA_AMP))
    return is_psd, None, None


# ---------------------------------------------------------------------------
# non-adaptive l1
# ---------------------------------------------------------------------------

@_tester(ONE_SIDED)
def nonadaptive_l1_tester(op, eps: float, *, repeats: Optional[int] = None,
                          rng: SeedLike = 0,
                          kappa: Optional[float] = None) -> Verdict:
    """One-sided trace-norm tester with all queries fixed in advance.

    Each repetition draws G with N(0, 1/d) entries, m = ceil(kappa/eps)
    columns, fills G^T A G with one query per distinct entry (m(m+1)/2 vmv,
    all on sketch columns fixed before the first answer arrives) and rejects
    only when ``_lowest`` puts its smallest eigenvalue below the floor.
    The query positions never depend on answers, which is the point of
    this tester; correctness of the witness comes from the eigenvalue's
    margin over assembly noise rather than a confirming query.
    """
    return _fixed_sketch_tester(op, eps, 1.0, op.sym_block, repeats, kappa,
                                rng_from(rng, 0x0AD1))


def _fixed_sketch_tester(op, eps: float, p: float, read, repeats, kappa,
                         gen: np.random.Generator):
    """The repetition loop of both non-adaptive one-sided testers.

    Each repetition draws G with N(0, 1/d) entries and
    m = min(d, ceil(kappa d^(1 - 1/p) / eps)) columns (ceil(kappa/eps) at
    p = 1), reads the symmetric S = G^T A G through ``read(G)`` and rejects,
    with witness G v, when ``_lowest(S)`` finds lambda_min(S) = v^T S v
    below its floor.  Returns the tester body's (is_psd, witness,
    statistic), the statistic being the last repetition's lambda_min(S).
    """
    repeats = defaults.NONADAPT_REPEATS if repeats is None else repeats
    kappa = defaults.NONADAPT_KAPPA if kappa is None else kappa
    _check_constant("repeats", repeats, count=True)
    _check_constant("kappa", kappa)
    d = op.dim
    m = min(d, math.ceil(kappa * d ** (1.0 - 1.0 / p) / eps))
    lam_last = None
    for _ in range(repeats):
        g = gen.standard_normal((d, m)) / math.sqrt(d)
        lam_last, v = _lowest(read(g))
        if v is not None:
            return False, g @ v, lam_last
    return True, None, lam_last
