"""Small dense kernels and query-based estimators shared by the testers.

Contents:

  * trace_estimate                     -- median-of-groups Hutchinson trace
  * frobenius_estimate                 -- factor-2 Frobenius norm from bilinear probes
  * schatten1_scale_estimate           -- coarse nuclear-norm bracket from one probe
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from . import defaults
from .oracle import SeedLike, rng_from

__all__ = [
    "trace_estimate",
    "frobenius_estimate",
    "schatten1_scale_estimate",
]

# Hutchinson trace: the median of TRACE_GROUPS means of TRACE_SAMPLES
# quadratic forms each, 160 vmv in all.
TRACE_SAMPLES = 32
TRACE_GROUPS = 5
# Frobenius estimate: each repetition averages a FROB_BLOCK x FROB_BLOCK
# block of bilinear probes.
FROB_BLOCK = 4


def trace_estimate(op, rng: SeedLike) -> float:
    """Median-of-groups Hutchinson trace, additive error O(||A||_F) whp.

    Draws TRACE_GROUPS * TRACE_SAMPLES Gaussian probes at once, 160 vmv,
    and returns the median of the TRACE_GROUPS group means of their
    quadratic forms, each unbiased with per-sample variance 2 ||A||_F^2;
    the median keeps the probe cost constant while pushing the failure
    probability well below the testers' budgets.  Each group is read as
    its own block: a dense A times 160 columns rounds differently from A
    times 32.
    """
    g = rng_from(rng).standard_normal((TRACE_GROUPS, TRACE_SAMPLES, op.dim))
    return float(np.median([op.quad_forms(block.T).mean() for block in g]))


def frobenius_estimate(op, rng: SeedLike) -> float:
    """Frobenius norm estimate within a factor of 2, failure prob FROB_EPS_FAIL.

    Each repetition draws an independent pair of d x FROB_BLOCK Gaussian
    blocks and averages the squared bilinear probes g_i^T A h_j, which is
    unbiased for ||A||_F^2; the median over ceil(8 ln(1/FROB_EPS_FAIL))
    repetitions gives the tail bound.  Returns sqrt of the median, i.e. an
    estimate of ||A||_F itself.  A zero operator yields exactly 0.
    """
    gen = rng_from(rng)
    reps = max(1, math.ceil(8.0 * math.log(1.0 / defaults.FROB_EPS_FAIL)))
    d = op.dim
    estimates = np.empty(reps)
    for t in range(reps):
        g = gen.standard_normal((d, FROB_BLOCK))
        h = gen.standard_normal((d, FROB_BLOCK))
        estimates[t] = float(np.mean(op.bilinear_block(g, h) ** 2))
    return float(np.sqrt(np.median(estimates)))


def schatten1_scale_estimate(op, g: Optional[np.ndarray],
                             rng: SeedLike) -> Tuple[float, float]:
    """Bracket the nuclear norm of B from one Gaussian probe: m vmv queries.

    B is ``op`` itself (m = dim) when ``g`` is None and G^T A G (m = the
    width of G) otherwise; every query is asked on ``op``.  Reads off B p
    coordinate by coordinate, as the m bilinear queries g_i^T A (G p), and
    returns ``(||Bp|| / (2 m), m * ||Bp||)``, which contains ||B||_1 with
    constant probability; the bracket is a factor 2 m^2 wide, so callers
    search step sizes geometrically inside it.
    """
    m = op.dim if g is None else g.shape[1]
    p = rng_from(rng).standard_normal((m, 1))
    rows, image = (np.eye(m), p) if g is None else (g, g @ p)
    nrm = float(np.linalg.norm(op.bilinear_block(rows, image)))
    return nrm / (2.0 * m), m * nrm
