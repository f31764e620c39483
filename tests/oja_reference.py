"""Sequential reference for the Oja descent, ``vmv_testers._descend``.

``_descend`` solves every step along one drawn block at once, as one
unit lower-triangular system.  This module keeps the step-at-a-time loop
it replaced: each step reads t = u^T B u and then s = u^T B x, updates x,
and runs the blow-up and margin tests before the next step is read.  It
draws the same directions in the same blocks, 4, 8, 16 and 36 rows, then
64 each, opens each drawn block with one ``comp.read`` as ``_descend``
does and charges its steps one at a time, so a tester run with it in
``_descend``'s place asks the same queries; the tests check that the two
agree trial for trial.  No tester calls it.

  * sequential_descend -- drop-in for ``_descend``, one step at a time
  * steps_loop         -- ``_steps`` as a loop over Python floats
"""

import itertools
import math
from typing import Optional, Tuple

import numpy as np

from psdprobe import defaults
from psdprobe.vmv_testers import _draw_rows


def sequential_descend(comp, eta: float, iters: int, gen: np.random.Generator,
                       up: float,
                       affine: Optional[Tuple[float, float, float]] = None,
                       null: int = 0) -> Optional[Tuple[np.ndarray, float]]:
    """``_descend`` with its steps read and taken one at a time.

    Each step charges its two reads on the handle and computes them from
    a dense B that it forms itself from ``op.dense()`` and G: the
    symmetrized G^T A G, or A itself without G.  The products of each
    block's ``comp.read`` go unused; the read only opens its steps.  With ``null`` > 0 it keeps
    x and the rows in ``_descend``'s simulated coordinates, [Q x, null
    part], and reads B through the first d.
    """
    op = comp.owner
    d = comp.dim
    x = gen.standard_normal(d)
    if null:
        x = np.append(x, math.sqrt(gen.chisquare(null)))

    def shifted(raw: float, dot: float) -> float:
        alpha, denom, shift = affine
        return (raw - alpha * dot) / denom + shift * dot

    def direct():
        xi = comp.lift(x[:d])
        raw = op.quad_form(xi)
        return xi, raw if affine is None else shifted(raw, float(x @ x))

    xi, f = direct()
    if f < 0.0:
        return xi, f
    a = op.dense()
    # Without G, lift gives the identity back, and B comes out as A exactly.
    g = comp.lift(np.eye(d))
    b = g.T @ (a @ g)
    b *= 0.5
    b = b + b.T
    left = iters
    for size in itertools.chain((4, 8, 16, 36), itertools.repeat(64)):
        if left <= 0:
            break
        rows = _draw_rows(gen, min(size, left), d, null)
        left -= len(rows)
        if null:
            x = np.concatenate([x, np.zeros(rows.shape[1] - x.size)])
        comp.read(rows[:, :d].T, x[:d])
        for u in rows:
            comp.charge_steps(1)
            bu = b @ u[:d]
            t, s = float(u[:d] @ bu), float(bu @ x[:d])
            if affine is not None:
                t = shifted(t, float(u @ u))
                s = shifted(s, float(u @ x))
            x = x - (eta * s) * u
            f -= eta * s * s * (2.0 - eta * t)
            norm_sq = float(x @ x)
            if not math.isfinite(f) or norm_sq > defaults.OJA_BLOWUP:
                return None
            if f < -defaults.OJA_MARGIN * up * max(1.0, norm_sq):
                xi, confirmed = direct()
                if confirmed < 0.0:
                    return xi, confirmed
                f = confirmed  # maintained value had drifted
        if null:
            x = np.append(x[:d], np.linalg.norm(x[d:]))
    return None


def steps_loop(m, c, dots, q, norm, eta, up):
    """``vmv_testers._steps`` as a loop over Python floats: s_j by forward
    substitution, subtracting eta m_ji s_i from c_j in order of i, then
    each step's drop, |x_j|^2 and margin limit."""
    mm, pp = m.tolist(), dots.tolist()
    s, e, drops, go_norm, limit = [], [], [0.0], [], []
    for j, (cj, qj) in enumerate(zip(c.tolist(), q.tolist())):
        sj, along = cj, qj
        for i in range(j):
            sj -= eta * mm[j][i] * s[i]
            along -= pp[j][i] * e[i]
        ej = eta * sj
        norm -= ej * (2.0 * along - ej * pp[j][j])
        s.append(sj)
        e.append(ej)
        drops.append(ej * sj * (2.0 - eta * mm[j][j]))
        go_norm.append(norm <= defaults.OJA_BLOWUP)
        limit.append(-defaults.OJA_MARGIN * up * max(1.0, norm))
    return np.array(e), np.array(drops), np.array(go_norm), np.array(limit)
