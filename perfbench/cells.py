"""Workload definitions: the fixed cells each workload runs every round.

A cell is one tester on one instance family at a fixed (d, eps, p).  Every
round runs each cell ``per_round`` times, one trial per ``run_experiment``
call, on consecutive trial seeds drawn from the workload seed (see
``trial_seed``).  Seeds are never chosen by cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

# Testers that may never reject a PSD input.
ONE_SIDED = ("oja_l1", "nonadaptive_l1", "nonadaptive_mv", "krylov")
SPECTRUM = ("spectrum", "spectrum_adaptive")

# Query totals from the ROADMAP "Baseline" table, keyed by (tester, eps,
# truth).  The baseline cells ran nonadaptive_mv and krylov at d=512; at p=1
# both counts are independent of d, so they apply at the dimensions used here.
BASELINE_QUERIES = {
    ("bilinear_sketch", 0.2, True): 303_783,
    ("bilinear_sketch", 0.2, False): 303_784,
    ("nonadaptive_l1", 0.05, True): 64_400,
    ("nonadaptive_mv", 0.05, True): 800,
    ("krylov", 0.05, True): 170,
}

# Trial seeds of one workload seed occupy [SEED_STRIDE * seed, ... + SEED_STRIDE),
# far more trials than a run can make.
SEED_STRIDE = 1_000_000


@dataclass(frozen=True)
class Cell:
    tester: str
    instance: dict
    eps: float
    p: float
    psd: bool                      # expected truth label of every instance
    per_round: int = 1
    constants: dict = field(default_factory=dict)
    family: Optional[str] = None   # name of the family when kind is not enough

    @property
    def name(self) -> str:
        family = self.family or self.instance["kind"]
        d = self.instance.get("dim", len(self.instance.get("eigenvalues", ())))
        return f"{self.tester}/{family}/d{d}/eps{self.eps:g}"


def trial_seed(workload_seed: int, cell_trial: int) -> int:
    """Seed of a cell's n-th trial: consecutive from the workload's base."""
    if not 0 <= cell_trial < SEED_STRIDE:
        raise ValueError(f"cell trial index {cell_trial} outside the seed block")
    return SEED_STRIDE * workload_seed + cell_trial


def _cell(tester, kind, d, eps, p, psd, per_round=1, **constants):
    return Cell(tester, {"kind": kind, "dim": d}, eps, p, psd, per_round,
                constants)


# One dominant eigenvalue over a flat bulk, positive (PSD) or negative (far),
# so the estimate must get the sign right.  A fixed spectrum under a seeded
# Haar rotation keeps trial time steady: Wishart spectra at d=16 gave a
# coefficient of variation above 1 (one trial in twenty ran ten times longer).
_SPIKE = [5.0] + [1.0] * 15
_NEG_SPIKE = [-5.0] + [1.0] * 15


def _spike_cell(tester, spectrum, psd):
    return Cell(tester, {"kind": "rotated_diag", "eigenvalues": spectrum},
                0.2, 2.0, psd, 1, {"k": 1},
                family="spike_pos" if psd else "spike_neg")


WORKLOADS = {
    # Every query position is fixed before any answer arrives; time goes to
    # scalar-query fill loops.  The d=2048 Haar instances dominate set-up.
    "fixed_queries": (
        _cell("bilinear_sketch", "random_psd", 512, 0.2, 2.0, True),
        _cell("bilinear_sketch", "far", 512, 0.2, 2.0, False),
        _cell("nonadaptive_l1", "random_psd", 512, 0.05, 1.0, True),
        _cell("nonadaptive_l1", "far", 512, 0.05, 1.0, False, 2),
        _cell("nonadaptive_mv", "random_psd", 2048, 0.05, 1.0, True),
        _cell("nonadaptive_mv", "far", 2048, 0.05, 1.0, False),
    ),
    # Each query depends on the previous answer; time goes to per-step
    # matvecs and the Python descent loop of the Oja accept path.  The reject
    # side is many cheap trials: adaptive_l2 on "far" needs 2,200-8,500
    # queries depending on the seed, too broad for a steady per-run total.
    "adaptive_descent": (
        _cell("oja_l1", "random_psd", 256, 0.3, 1.0, True),
        _cell("oja_l1", "cluster_l1", 512, 0.3, 1.0, False, 30),
        _cell("adaptive_l2", "random_psd", 256, 0.3, 2.0, True),
        _cell("krylov", "random_psd", 1024, 0.05, 1.0, True),
        _cell("krylov", "hard_l1", 1024, 0.05, 1.0, False, 2),
    ),
    # Signed eigenvalue estimation; time goes to the rank-k fit.  d=16 and
    # k=1 keep a trial under a second, so a run holds enough trials for a
    # steady sum (the fit's iteration count, and so its time, varies by seed).
    "spectrum_fit": (
        _spike_cell("spectrum", _SPIKE, True),
        _spike_cell("spectrum_adaptive", _SPIKE, True),
        _spike_cell("spectrum", _NEG_SPIKE, False),
        _spike_cell("spectrum_adaptive", _NEG_SPIKE, False),
    ),
    # Tiny cells that reach every traced layer in well under two seconds.
    # The smoke check runs them as a workload; traced runs end with one
    # round of them so every layer has spans on every workload.
    "probe": (
        _cell("bilinear_sketch", "random_psd", 16, 0.5, 2.0, True),
        _cell("nonadaptive_l1", "far", 16, 0.5, 1.0, False),
        _cell("nonadaptive_mv", "random_psd", 16, 0.5, 1.0, True),
        _cell("krylov", "random_psd", 16, 0.5, 1.0, True),
        _cell("oja_l1", "random_psd", 16, 0.5, 1.0, True,
              amplification=1, iter_scale=0.05),
        _cell("adaptive_l2", "far", 16, 0.5, 2.0, False),
        _cell("spectrum", "wishart", 8, 0.5, 2.0, True, k=1),
        _cell("spectrum_adaptive", "wishart", 8, 0.5, 2.0, True, k=1),
    ),
}
