"""Sequential reference for the Oja descent, ``vmv_testers._descend``.

``_descend`` solves every step along one direction handle at once, as one
unit lower-triangular system.  This module keeps the step-at-a-time loop
it replaced: each step reads t = u^T M u and then s = u^T M x, updates x,
and runs the blow-up and margin tests before the next step is read.  It
draws the same directions in the same order, takes the same image and
m-space paths (see ``_descend``) and charges every step on the handle
``_descend`` would use, so a tester run with it in ``_descend``'s place
asks the same queries; the tests check that the two agree trial for
trial.  No tester calls it.

  * sequential_descend -- drop-in for ``_descend``, one step at a time
"""

import math
from typing import Optional, Tuple

import numpy as np

from psdprobe import defaults
from psdprobe.vmv_testers import _CHUNK_EDGES, _DRAW_BATCH


def sequential_descend(parent, g: Optional[np.ndarray], eta: float,
                       iters: int, gen: np.random.Generator, up: float,
                       affine: Optional[Tuple[float, float, float]] = None,
                       comp=None) -> Optional[Tuple[np.ndarray, float]]:
    """``_descend`` with its steps read and taken one at a time.

    M is A on the image path, whose directions are the images G u (u
    itself without G), and B = G^T A G, formed as ``Compression`` forms
    it, on the m-space path.  Each step charges its two reads on the
    handle and computes them from M U: t_j = u_j . (M u_j) and
    s_j = (M u_j) . x, x being xi = G x on the image path.
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
    a = parent.dense()
    left = iters
    while left > 0:
        us = gen.standard_normal((min(_DRAW_BATCH, left), x.size))
        first = left == iters
        left -= len(us)
        for block, rows, images, images_m in _blocks(parent, a, g, comp, us,
                                                     first):
            dirs = rows if images is None else images
            for j, u in enumerate(rows):
                block.charge_steps(1)
                t = float(dirs[j] @ images_m[j])
                s = float(images_m[j] @ (x if images is None else xi))
                if affine is not None:
                    t = shifted(t, float(u @ u))
                    s = shifted(s, float(u @ x))
                es = eta * s
                x = x - es * u
                if images is not None:
                    xi = x if g is None else xi - es * images[j]
                f -= eta * s * s * (2.0 - eta * t)
                norm_sq = float(x @ x)
                if not math.isfinite(f) or norm_sq > defaults.OJA_BLOWUP:
                    return None
                if f < -defaults.OJA_MARGIN * up * max(1.0, norm_sq):
                    if images is None:
                        xi = g @ x
                    confirmed = direct()
                    if confirmed < 0.0:
                        return xi, confirmed
                    f = confirmed  # maintained value had drifted
    return None


def _blocks(parent, a, g, comp, us, first):
    """(handle, rows, images, images times M) for one drawn block, on the
    path and with the chunks ``_descend`` uses; images is None in
    m-space, where the directions are the rows themselves."""
    if comp is not None and (comp.formed or not first):
        block = comp.directions(us.T)
        b = g.T @ (a @ g)
        b *= 0.5
        yield block, us, None, us @ (b + b.T)
        return
    uis = us if g is None else us @ g.T
    for lo, hi in zip(_CHUNK_EDGES, _CHUNK_EDGES[1:]):
        if lo >= len(us):
            return
        images = uis[lo:hi]
        yield parent.directions(images.T), us[lo:hi], images, images @ a
