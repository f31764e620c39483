"""Pinned query counts: one table row per tester and instance family.

Each row runs three seeded trials through the harness and compares the exact
(mv, vmv) counter movement of every trial against the recorded numbers.  The
counts are part of each tester's contract (the paper prices testers in
queries), so an implementation change that keeps them fixed must reproduce
the table bit for bit.
"""

import pytest

from psdprobe.harness import ExperimentConfig, run_experiment

# (tester, instance, eps, p, constants, [(mv, vmv) for seeds 5, 6, 7]).
# Spectrum rows run on the harness's diagonal instances, diag(lam).  The
# five Oja and adaptive_l2 rows with unequal counts depend on the instance's
# floating-point bits, so any change to how instances are built moves them.
QUERY_TABLE = [
    ("oja_l1", {"kind": "random_psd", "dim": 16}, 0.5, 1.0,
     {"amplification": 1, "iter_scale": 0.05}, [(0, 79)] * 3),
    # Full-length Oja accepts: 148 steps per run without reduction (d24) and
    # 1,494 through a 27-column sketch (d64), so runs cross several 64-draw
    # blocks and every chunk of the A.U product, and some runs blow up.
    ("oja_l1", {"kind": "random_psd", "dim": 24}, 0.3, 1.0,
     {"amplification": 1}, [(0, 3081), (0, 3079), (0, 3067)]),
    ("oja_l1", {"kind": "random_psd", "dim": 64}, 0.3, 1.0,
     {"amplification": 1}, [(0, 24448), (0, 23456), (0, 25258)]),
    ("oja_l1", {"kind": "far", "dim": 24}, 0.3, 1.0, {},
     [(0, 36), (0, 30), (0, 50)]),
    ("oja_l1", {"kind": "far", "dim": 48}, 0.3, 1.0, {},
     [(0, 39), (0, 77), (0, 31)]),
    ("bilinear_sketch", {"kind": "random_psd", "dim": 24}, 0.5, 2.0, {},
     [(0, 1928)] * 3),
    ("bilinear_sketch", {"kind": "far", "dim": 24}, 0.5, 2.0, {},
     [(0, 1929)] * 3),
    ("adaptive_l2", {"kind": "random_psd", "dim": 16}, 0.5, 2.0, {},
     [(0, 4753)] * 3),
    ("adaptive_l2", {"kind": "far", "dim": 16}, 0.5, 2.0, {},
     [(0, 1188), (0, 1360), (0, 1250)]),
    ("nonadaptive_l1", {"kind": "random_psd", "dim": 32}, 0.3, 1.0, {},
     [(0, 1890)] * 3),
    ("nonadaptive_l1", {"kind": "far", "dim": 32}, 0.3, 1.0, {},
     [(0, 378)] * 3),
    ("krylov", {"kind": "random_psd", "dim": 32}, 0.2, 1.0, {},
     [(65, 0)] * 3),
    # hard_l1 at d32, eps 0.2 has 3 nonzero eigenvalues and a null space, so
    # the Krylov space has dimension 4 and each build stops after 4 mv.
    ("krylov", {"kind": "hard_l1", "dim": 32}, 0.2, 1.0, {},
     [(4, 1)] * 3),
    ("nonadaptive_mv", {"kind": "random_psd", "dim": 32}, 0.3, 1.0, {},
     [(135, 0)] * 3),
    ("nonadaptive_mv", {"kind": "far", "dim": 32}, 0.3, 1.0, {},
     [(27, 0)] * 3),
    # d=8 reads ||A||_F^2 exactly; d=40 estimates it from Gaussian pairs.
    ("spectrum", {"kind": "wishart", "dim": 8}, 0.5, 2.0, {"k": 1},
     [(0, 3492)] * 3),
    ("spectrum", {"kind": "wishart", "dim": 40}, 0.9, 2.0, {"k": 1},
     [(0, 58210)] * 3),
    ("spectrum_adaptive", {"kind": "wishart", "dim": 8}, 0.5, 2.0, {"k": 1},
     [(0, 4788)] * 3),
    ("spectrum_adaptive", {"kind": "wishart", "dim": 40}, 0.9, 2.0, {"k": 1},
     [(0, 37906)] * 3),
]


@pytest.mark.parametrize(
    "tester,instance,eps,p,constants,expected", QUERY_TABLE,
    ids=[f"{row[0]}-{row[1]['kind']}-d{row[1]['dim']}" for row in QUERY_TABLE])
def test_query_counts_match_table(tester, instance, eps, p, constants, expected):
    cfg = ExperimentConfig(tester=tester, instance=instance, eps=eps, p=p,
                           trials=3, seed0=5, constants=constants)
    records, _ = run_experiment(cfg)
    assert [(r.queries_mv, r.queries_vmv) for r in records] == expected
