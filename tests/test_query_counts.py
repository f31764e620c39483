"""Pinned query counts: one table row per tester and instance family.

Each row runs three seeded trials through the harness and compares the exact
(mv, vmv) counter movement of every trial against the recorded numbers.  The
counts are part of each tester's contract (the paper prices testers in
queries), so an implementation change that keeps them fixed must reproduce
the table bit for bit.
"""

import pytest

from psdprobe.harness import ExperimentConfig, run_experiment

# (tester, instance, eps, p, constants, [(mv, vmv) for seeds 5, 6, 7])
QUERY_TABLE = [
    ("oja_l1", {"kind": "random_psd", "dim": 16}, 0.5, 1.0,
     {"amplification": 1, "iter_scale": 0.05}, [(0, 79)] * 3),
    # Full-length Oja accepts: 148 steps per run without reduction (d24) and
    # 1,494 through a 27-column sketch (d64), so runs cross several 64-draw
    # blocks and every chunk of the A.U product, and some runs blow up.
    ("oja_l1", {"kind": "random_psd", "dim": 24}, 0.3, 1.0,
     {"amplification": 1}, [(0, 3121), (0, 3125), (0, 3101)]),
    ("oja_l1", {"kind": "random_psd", "dim": 64}, 0.3, 1.0,
     {"amplification": 1}, [(0, 25424), (0, 23628), (0, 25242)]),
    ("oja_l1", {"kind": "far", "dim": 24}, 0.3, 1.0, {},
     [(0, 36), (0, 34), (0, 36)]),
    ("oja_l1", {"kind": "far", "dim": 48}, 0.3, 1.0, {},
     [(0, 41), (0, 59), (0, 31)]),
    ("bilinear_sketch", {"kind": "random_psd", "dim": 24}, 0.5, 2.0, {},
     [(0, 1928)] * 3),
    ("bilinear_sketch", {"kind": "far", "dim": 24}, 0.5, 2.0, {},
     [(0, 1929)] * 3),
    ("adaptive_l2", {"kind": "random_psd", "dim": 16}, 0.5, 2.0, {},
     [(0, 4753)] * 3),
    ("adaptive_l2", {"kind": "far", "dim": 16}, 0.5, 2.0, {},
     [(0, 1548), (0, 1), (0, 1212)]),
    ("nonadaptive_l1", {"kind": "random_psd", "dim": 32}, 0.3, 1.0, {},
     [(0, 1890)] * 3),
    ("nonadaptive_l1", {"kind": "far", "dim": 32}, 0.3, 1.0, {},
     [(0, 378)] * 3),
    ("krylov", {"kind": "random_psd", "dim": 32}, 0.2, 1.0, {},
     [(65, 0)] * 3),
    ("krylov", {"kind": "hard_l1", "dim": 32}, 0.2, 1.0, {},
     [(13, 1)] * 3),
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
