"""Per-layer micro-timings on fixed inputs, run untraced after a traced run.

Inputs are fixed (seeded by constants, not by the workload seed) so these
numbers compare one layer across commits independent of the workload.
Each timing is a median over repeated calls.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from psdprobe import harness, oracle, vmv_testers

MICRO_DIMS = (256, 1024, 4096)


def _per_call_us(fn, batch: int, budget_s: float) -> float:
    """Median over batches of the per-call time of fn(), in microseconds."""
    samples = []
    stop = time.perf_counter() + budget_s
    while len(samples) < 3 or (time.perf_counter() < stop and len(samples) < 200):
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - t0) / batch)
    return 1e6 * statistics.median(samples)


def _oracle(d: int) -> dict:
    gen = np.random.default_rng(d)
    a = gen.standard_normal((d, d))
    op = oracle.SymmetricOperator(a + a.T, validate=False)
    del a
    x, y1, y2 = gen.standard_normal((3, d))
    batch = max(1, 2_000_000 // (d * d))
    budget = 0.15 if d < 4096 else 0.4
    ys = [y1, y2]
    flip = [0]

    def miss():
        # Alternate the right-hand vector so every call recomputes A y.
        flip[0] ^= 1
        return op.bilinear(x, ys[flip[0]])

    def quad():
        flip[0] ^= 1
        return op.quad_form(ys[flip[0]])

    op.bilinear(x, y1)
    out = {
        f"oracle.mat_vec_us.d{d}": _per_call_us(lambda: op.mat_vec(x), batch, budget),
        f"oracle.bilinear_hit_us.d{d}": _per_call_us(lambda: op.bilinear(x, y1), 200, budget),
        f"oracle.bilinear_miss_us.d{d}": _per_call_us(miss, batch, budget),
        f"oracle.quad_form_us.d{d}": _per_call_us(quad, batch, budget),
    }
    if d == 4096:
        # Bytes are computed, not measured: one pass over the 8 d^2-byte backing.
        out["oracle.mat_vec_gbps.d4096"] = 8.0 * d * d / (out[f"oracle.mat_vec_us.d{d}"] * 1e3)
    return out


def _gen_rotated_diag_ms() -> float:
    lam = tuple(np.linspace(0.0, 1.0, 2048))
    t0 = time.perf_counter()
    oracle.gen_rotated_diag(oracle.SpectrumInstance(eigenvalues=lam, rotation_seed=7))
    return 1e3 * (time.perf_counter() - t0)


def _sketch_fill_us_per_entry() -> float:
    op = harness.instance_operator({"kind": "random_psd", "dim": 512}, 0.2, 2.0, 7)
    per_query = []
    for rep in range(5):
        q0 = op.vmv_queries
        t0 = time.perf_counter()
        vmv_testers.build_sketch(op, 120, rep)
        per_query.append((time.perf_counter() - t0) / (op.vmv_queries - q0))
    return 1e6 * statistics.median(per_query)


def _oja_step_us() -> float:
    # One amplification round at a tenth of the default iteration count;
    # a step is two vmv queries.
    per_step = []
    for rep in range(3):
        cfg = harness.ExperimentConfig(
            tester="oja_l1", instance={"kind": "random_psd", "dim": 256},
            eps=0.3, trials=1, seed0=rep,
            constants={"amplification": 1, "iter_scale": 0.1})
        records, _ = harness.run_experiment(cfg)
        rec = records[0]
        per_step.append(rec.wall_time_ms * 1e-3 / (rec.queries_vmv / 2.0))
    return 1e6 * statistics.median(per_step)


def run() -> dict:
    out = {}
    for d in MICRO_DIMS:
        out.update(_oracle(d))
    out["oracle.gen_rotated_diag_ms.d2048"] = _gen_rotated_diag_ms()
    out["vmv_testers.sketch_fill_us_per_entry"] = _sketch_fill_us_per_entry()
    out["vmv_testers.oja_step_us.d256"] = _oja_step_us()
    return out
