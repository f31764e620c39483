"""k-space reference for ``vmv_testers.adaptive_l2_tester``.

Past k = d the tester simulates its d x k Gaussian sketch G = L Q through
the d x d Bartlett factor L and one null-space norm.  This module keeps the
body the tester had before: it draws G itself and runs ``_descend`` on
G^T A G with k-dimensional directions and iterate, with no null
simulation.  The two draw different numbers, so the tests compare them in
distribution, not trial for trial.  No tester calls it.
"""

import math

from psdprobe import defaults
from psdprobe.kernels import frobenius_estimate, trace_estimate
from psdprobe.oracle import rng_from
from psdprobe.vmv_testers import _descend, _gap_sketch_dim, c_far_curve


def kspace_adaptive_l2(op, eps: float, *, rng=0, c_psd=None) -> bool:
    """``adaptive_l2_tester``'s verdict with an explicit d x k G; the
    queries it asks are charged to op, as the tester's are."""
    if c_psd is None:
        c_psd = defaults.C_PSD
    k = _gap_sketch_dim(eps, c_psd)
    gen = rng_from(rng, 0xAD27)
    for _ in range(defaults.PROBE_COUNT):
        if op.quad_form(gen.standard_normal(op.dim)) < 0.0:
            return False
    alpha = trace_estimate(op, gen)
    beta = frobenius_estimate(op, gen)
    if beta == 0.0:
        return True
    c_far = c_far_curve(k, eps)
    comp = op.compressed(gen.standard_normal((op.dim, k)))
    affine = (alpha, beta * math.sqrt(k) * math.log(max(k, 2)), c_far - 1.0)
    trace_gamma = (c_far - 1.0) * k
    eta = defaults.GAMMA_ETA_C / trace_gamma
    n_iters = math.ceil(defaults.GAMMA_GROWTH_LOG / eta)
    return all(_descend(comp, eta, n_iters, gen, trace_gamma, affine) is None
               for _ in range(defaults.GAMMA_AMP))
