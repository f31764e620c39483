"""Property tests: one-sided testers accept PSD inputs of any scale and shape.

Each example hides a non-negative spectrum under a seeded Haar rotation --
scaled to 1e-150, 1 or 1e150, of low rank, with condition number 1e12, or
identically zero -- and runs the four one-sided testers on it.  A one-sided
tester may never reject a PSD input, whatever the floating-point range, and
every statistic it reports must be finite or None.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdprobe.mv_testers import krylov_tester, nonadaptive_mv_tester
from psdprobe.oracle import SpectrumInstance, gen_rotated_diag, rng_from
from psdprobe.vmv_testers import OjaConfig, nonadaptive_l1_tester, oja_l1_tester

EPS = 0.3
SHAPES = ("uniform", "low_rank", "cond_1e12", "zero")


def psd_spectrum(shape: str, d: int, scale: float, seed: int) -> np.ndarray:
    gen = rng_from(seed, 0x960F)
    if shape == "uniform":
        lam = gen.uniform(0.0, 1.0, d)
    elif shape == "low_rank":
        lam = np.zeros(d)
        rank = int(gen.integers(1, 4))
        lam[:rank] = gen.uniform(0.5, 1.0, rank)
    elif shape == "cond_1e12":
        lam = np.logspace(-12.0, 0.0, d)
    else:
        lam = np.zeros(d)
    return scale * lam


@pytest.mark.parametrize("log_scale", [-150, 0, 150])
@pytest.mark.parametrize("shape", SHAPES)
@settings(max_examples=4, deadline=None)
@given(d=st.integers(8, 48), seed=st.integers(0, 2 ** 32 - 1))
def test_one_sided_testers_accept_rotated_psd_inputs(shape, log_scale, d,
                                                     seed):
    lam = psd_spectrum(shape, d, 10.0 ** log_scale, seed)
    op = gen_rotated_diag(SpectrumInstance(eigenvalues=tuple(lam),
                                           rotation_seed=seed))
    oja_cfg = OjaConfig.from_eps(EPS, dim=d, amplification=1,
                                 iter_scale=0.05)
    verdicts = {
        "nonadaptive_l1": nonadaptive_l1_tester(op, EPS, repeats=1, rng=seed),
        "nonadaptive_mv": nonadaptive_mv_tester(op, EPS, 1.0, repeats=1,
                                                rng=seed),
        "krylov": krylov_tester(op, EPS, 1.0, repeats=1, rng=seed),
        "oja_l1": oja_l1_tester(op, EPS, oja_cfg, rng=seed),
    }
    for name, v in verdicts.items():
        assert v.is_psd, (name, shape, d, log_scale)
        assert v.witness is None, name
        assert v.statistic is None or math.isfinite(v.statistic), \
            (name, v.statistic)
