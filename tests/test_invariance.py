"""Every tester reads a rotated spectrum as it reads the diagonal one.

The harness builds each spectrum instance as diag(lam), held as its
diagonal, and hides it under no rotation.  That is sound because the testers
see A only through Gaussian sketches, Gaussian descent directions and
Gaussian Krylov starts, so their query and verdict distributions are the
same on Q^T diag(lam) Q for every orthogonal Q.  This file holds each tester
to that: per seed, the diagonal instance comes from
``harness.instance_operator`` on its diagonal backing, and the rotated one
is a dense backing that hides the same lam under a Haar Q drawn from the
seed; both run through ``harness._dispatch`` with one tester seed.  Verdicts are compared with
Fisher's exact test, and queries and the statistic (where a tester sets it)
with a two-sample Kolmogorov-Smirnov test, each at ``ALPHA``; the KS
p-values are asymptotic, since the exact method can fail on tied query
counts.  A planted tester that reads the first coordinate axis must fail
the same check: the far families put lambda_min at index 0.
"""

import dataclasses

import numpy as np
import pytest
from scipy.stats import fisher_exact, ks_2samp

from psdprobe import harness
from psdprobe.oracle import SpectrumInstance, gen_rotated_diag
from psdprobe.vmv_testers import Verdict

ALPHA = 1e-3
SEEDS = 200
SPECTRUM_SEEDS = 50

# (tester, kind, dim, eps, p, constants): one small far-side cell per
# tester, and a PSD cell for those whose PSD trials are cheap.
CELLS = [
    ("oja_l1", "far", 24, 0.3, 1.0, {}),
    ("oja_l1", "cluster_l1", 24, 0.3, 1.0, {}),
    ("bilinear_sketch", "far", 24, 0.5, 2.0, {}),
    ("bilinear_sketch", "random_psd", 24, 0.5, 2.0, {}),
    ("adaptive_l2", "far", 16, 0.7, 2.0, {}),
    ("nonadaptive_l1", "far", 32, 0.3, 1.0, {}),
    ("nonadaptive_l1", "random_psd", 32, 0.3, 1.0, {}),
    ("krylov", "far", 32, 0.2, 1.0, {}),
    ("krylov", "random_psd", 32, 0.2, 1.0, {}),
    ("nonadaptive_mv", "far", 32, 0.3, 1.0, {}),
    ("nonadaptive_mv", "random_psd", 32, 0.3, 1.0, {}),
    ("spectrum", "far", 8, 0.5, 2.0, {"k": 1}),
    ("spectrum_adaptive", "far", 8, 0.5, 2.0, {"k": 1}),
]


def _trials(cfg, seeds):
    """(verdict, queries, statistic) per seed on each side: the harness's
    diagonal instance and the same spectrum under the seed's Haar Q."""
    d = cfg.instance["dim"]
    sides = {"diagonal": [], "rotated": []}
    for seed in seeds:
        op = harness.instance_operator(cfg.instance, cfg.eps, cfg.p, seed)
        lam = harness.family_spectrum(cfg.instance["kind"], d, cfg.eps,
                                      cfg.p, seed)
        rotated = gen_rotated_diag(SpectrumInstance(eigenvalues=lam,
                                                    rotation_seed=seed))
        for side, inst in (("diagonal", op), ("rotated", rotated)):
            out = harness._dispatch(cfg, inst, seed)
            sides[side].append((out.verdict, inst.mv_queries
                                + inst.vmv_queries, out.statistic))
    return sides["diagonal"], sides["rotated"]


def assert_rotation_invariant(cfg, seeds):
    """Fisher on verdicts, KS on queries and on the statistic where both
    sides set it; AssertionError naming every comparison below ALPHA."""
    diagonal, rotated = _trials(cfg, seeds)
    accepts = [sum(t[0] for t in side) for side in (diagonal, rotated)]
    pvalues = {"verdict": fisher_exact(
        [[a, len(seeds) - a] for a in accepts])[1]}
    pvalues["queries"] = ks_2samp([t[1] for t in diagonal],
                                  [t[1] for t in rotated],
                                  method="asymp").pvalue
    stats = [[t[2] for t in side if t[2] is not None]
             for side in (diagonal, rotated)]
    if all(stats):
        pvalues["statistic"] = ks_2samp(*stats, method="asymp").pvalue
    low = {name: p for name, p in pvalues.items() if p < ALPHA}
    assert not low, f"{cfg.tester} reads the axes: p-values {low}"


def _config(tester, kind, dim, eps, p, constants):
    return harness.ExperimentConfig(tester=tester, eps=eps, p=p,
                                    instance={"kind": kind, "dim": dim},
                                    constants=constants)


def test_cells_cover_every_tester_on_a_far_family():
    far = {c[0] for c in CELLS if c[1] in ("far", "hard_l1", "cluster_l1")}
    assert far == set(harness.TESTERS)


@pytest.mark.parametrize("cell", CELLS,
                         ids=[f"{c[0]}-{c[1]}-d{c[2]}" for c in CELLS])
def test_tester_distributions_are_rotation_invariant(cell):
    seeds = SPECTRUM_SEEDS if cell[0].startswith("spectrum") else SEEDS
    assert_rotation_invariant(_config(*cell), range(seeds))


def test_a_tester_that_reads_the_first_axis_fails_the_check(monkeypatch):
    # Reject at once when e_0^T A e_0 < 0, else run the real tester: on the
    # diagonal side that is lambda_min, on the rotated side a mixture.
    real = harness.nonadaptive_mv_tester

    def planted(op, eps, p, **kwargs):
        e0 = np.zeros(op.dim)
        e0[0] = 1.0
        value = op.quad_form(e0)
        if value < 0.0:
            return Verdict(is_psd=False, witness=e0, queries_used=1,
                           mode="planted", statistic=value)
        v = real(op, eps, p, **kwargs)
        return dataclasses.replace(v, queries_used=v.queries_used + 1)

    monkeypatch.setitem(harness._MV_TESTERS, "nonadaptive_mv", planted)
    with pytest.raises(AssertionError, match="reads the axes"):
        assert_rotation_invariant(
            _config("nonadaptive_mv", "far", 32, 0.3, 1.0, {}), range(SEEDS))
