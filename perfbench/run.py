"""Seeded closed-loop benchmark for psdprobe.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fixed_queries --seed 0 --seconds 35 --trace 0

One caller runs trials back to back through the public API
(``harness.run_experiment``, one ``ExperimentConfig`` per trial,
``workers=1``).  A round runs every cell of the workload; rounds repeat
until the next one would overrun ``--seconds``.  Times and query counts are
per round: totals over the run divided by the number of rounds.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs
rounds untraced, then the same trial seeds again with spans recorded around
every traced layer (see tracer.py), then one round of the probe cells
(traced) and the micro-timings (untraced); it prints the per-layer metrics.

The last line of standard output is the result object; the line before it
is the full report (per-cell figures, exact query totals, checks and the
environment record), which is also written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
BLAS_THREADS = 1
# Set aside in a traced run for the probe round and the micro-timings.
TRACE_TAIL_S = 8.0

END_TO_END_UNITS = {
    "wall_s": "s", "accept_s": "s", "reject_s": "s", "setup_s": "s",
    "accept_queries": "count", "reject_queries": "count",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    from tracer import LAYERS
    from micro import MICRO_DIMS
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    for d in MICRO_DIMS:
        for op in ("mat_vec", "bilinear_hit", "bilinear_miss", "quad_form"):
            units[f"oracle.{op}_us.d{d}"] = "us"
    units["oracle.mat_vec_gbps.d4096"] = "GB/s"
    units["oracle.gen_rotated_diag_ms.d2048"] = "ms"
    units["vmv_testers.sketch_fill_us_per_entry"] = "us"
    units["vmv_testers.oja_steps"] = "count"
    units["vmv_testers.oja_step_us.d256"] = "us"
    units["spectrum.psd_rank_k_fit_ms_p50"] = "ms"
    units["trace_overhead_s"] = "s"
    return units


def _pin_blas_threads() -> None:
    # Must run before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _import_program():
    src = ROOT / "src"
    if not (src / "psdprobe" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no psdprobe sources under {src}")
    sys.path.insert(0, str(src))
    import psdprobe
    if Path(psdprobe.__file__).resolve().parent != (src / "psdprobe").resolve():
        raise SystemExit(f"perfbench: imported psdprobe from {psdprobe.__file__}, "
                         f"not from {src}")


# ---------------------------------------------------------------------------
# trials and rounds
# ---------------------------------------------------------------------------

def run_trial(harness, cell, seed: int) -> dict:
    from cells import BASELINE_QUERIES, ONE_SIDED, SPECTRUM
    cfg = harness.ExperimentConfig(tester=cell.tester, instance=cell.instance,
                                   eps=cell.eps, p=cell.p, trials=1, seed0=seed,
                                   constants=cell.constants)
    trial = {"cell": cell.name, "seed": seed}
    t0 = time.perf_counter()
    try:
        records, _ = harness.run_experiment(cfg, workers=1)
    except Exception as exc:  # a raised trial is counted, not fatal
        trial.update(call_s=time.perf_counter() - t0, failure=f"raised: {exc!r}")
        return trial
    call_s = time.perf_counter() - t0
    rec = records[0]
    tester_s = rec.wall_time_ms * 1e-3
    trial.update(call_s=call_s, tester_s=tester_s, setup_s=call_s - tester_s,
                 truth=rec.truth, verdict=rec.verdict, mv=rec.queries_mv,
                 vmv=rec.queries_vmv, queries=rec.queries_mv + rec.queries_vmv,
                 statistic=rec.statistic, witness_valid=rec.witness_valid)
    if rec.truth is not cell.psd:
        trial["failure"] = f"truth label {rec.truth}, expected {cell.psd}"
    elif cell.tester in ONE_SIDED and rec.truth and not rec.verdict:
        trial["failure"] = "one-sided tester rejected a PSD input"
    elif cell.tester not in SPECTRUM and rec.witness_valid is False:
        trial["failure"] = "witness re-check was not negative"
    expected = BASELINE_QUERIES.get((cell.tester, cell.eps, rec.truth))
    if expected is not None and expected != trial["queries"]:
        trial["baseline_mismatch"] = expected
    return trial


def run_rounds(harness, cells, seed: int, budget_s: float, n_rounds=None):
    """Rounds until the next would overrun budget_s (at least one), or exactly
    n_rounds.  Round r runs cell trials r*per_round ... on consecutive seeds."""
    from cells import trial_seed
    rounds = []
    t_start = time.perf_counter()
    last = 0.0
    while True:
        if n_rounds is not None:
            if len(rounds) == n_rounds:
                break
        elif rounds and time.perf_counter() - t_start + last > budget_s:
            break
        t0 = time.perf_counter()
        r = len(rounds)
        trials = [run_trial(harness, cell, trial_seed(seed, r * cell.per_round + j))
                  for cell in cells for j in range(cell.per_round)]
        last = time.perf_counter() - t0
        rounds.append(trials)
    return rounds


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else None


def cell_summary(cells, rounds) -> list:
    out = []
    for cell in cells:
        trials = [t for rnd in rounds for t in rnd if t["cell"] == cell.name]
        done = [t for t in trials if "tester_s" in t]
        out.append({
            "cell": cell.name, "psd": cell.psd, "trials": len(trials),
            "tester_s_median": _median([t["tester_s"] for t in done]),
            "queries_median": _median([t["queries"] for t in done]),
            "mv_total": sum(t["mv"] for t in done),
            "vmv_total": sum(t["vmv"] for t in done),
            "queries_per_trial": [t["queries"] for t in done],
            "verdict_true_rate": (sum(t["verdict"] for t in done) / len(done)
                                  if done else None),
        })
    return out


def end_to_end(rounds, import_s: float) -> dict:
    """Tester time and queries of one round, as totals over the run divided
    by its rounds; set-up is the median round's plus the import."""
    done = [t for rnd in rounds for t in rnd if "tester_s" in t]

    def per_round(key, truth=None):
        return sum(t[key] for t in done
                   if truth is None or t["truth"] is truth) / len(rounds)

    setup = [sum(t.get("setup_s", 0.0) for t in rnd) for rnd in rounds]
    return {
        "wall_s": per_round("tester_s"),
        "accept_s": per_round("tester_s", True),
        "reject_s": per_round("tester_s", False),
        "setup_s": import_s + statistics.median(setup),
        "accept_queries": per_round("queries", True),
        "reject_queries": per_round("queries", False),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def quality(cells, rounds) -> dict:
    from cells import SPECTRUM
    done = [t for rnd in rounds for t in rnd if "tester_s" in t]
    spectrum_cells = {c.name for c in cells if c.tester in SPECTRUM}
    # A spectrum verdict says whether the eigenvalue guarantee held, not
    # whether the input was accepted, so the rates leave those trials out.
    psd = [t for t in done if t["truth"] is True and t["cell"] not in spectrum_cells]
    far = [t for t in done if t["truth"] is False and t["cell"] not in spectrum_cells]
    attempted = sum(len(rnd) for rnd in rounds)
    failures = [{k: t[k] for k in ("cell", "seed", "failure")}
                for rnd in rounds for t in rnd if "failure" in t]
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures,
        "accept_given_psd": (sum(t["verdict"] for t in psd) / len(psd)
                             if psd else None),
        "reject_given_far": (sum(not t["verdict"] for t in far) / len(far)
                             if far else None),
        "spectrum_guarantee_missed": sum(1 for t in done if t["cell"] in spectrum_cells
                                         and not t["verdict"]),
        "baseline_mismatches": [
            {"cell": t["cell"], "seed": t["seed"], "expected": t["baseline_mismatch"],
             "got": t["queries"]}
            for t in done if "baseline_mismatch" in t],
    }


def layer_metrics(tracer) -> dict:
    """Per-layer figures over every span: calls, self time, Oja steps and
    the median rank-k fit duration."""
    import numpy as np
    from tracer import LAYERS, layer_table
    layer, parent, start, end = tracer.arrays()
    out = {}
    for name, (calls, self_s) in layer_table(layer, parent, start, end).items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    ids = {name: i for i, name in enumerate(LAYERS)}
    oracle_ids = [ids[f"oracle.{m}"] for m in ("mat_vec", "bilinear", "quad_form")]
    has_parent = parent >= 0
    under_oja = np.zeros(len(layer), dtype=bool)
    under_oja[has_parent] = layer[parent[has_parent]] == ids["vmv_testers.oja_l1_tester"]
    out["vmv_testers.oja_steps"] = int(np.sum(under_oja & np.isin(layer, oracle_ids)))
    fit = layer == ids["spectrum.psd_rank_k_fit"]
    out["spectrum.psd_rank_k_fit_ms_p50"] = (
        float(np.median(end[fit] - start[fit])) * 1e3 if fit.any() else 0.0)
    return out


def layer_shares(tracer, n_spans: int, cell_names) -> dict:
    """Each layer's self time as a share of tester time, per cell and over
    all cells, in the first n_spans spans (the traced workload rounds).
    The k-th root span, a run_experiment call, is the k-th trial."""
    import numpy as np
    from tracer import LAYERS, roots, self_times
    layer, parent, start, end = tracer.arrays(n_spans)
    own = self_times(layer, parent, start, end)
    root = roots(parent)
    root_ids = np.flatnonzero(parent < 0)
    trial_of_root = np.full(len(layer), -1)
    trial_of_root[root_ids] = np.arange(len(root_ids))
    trial = trial_of_root[root]
    testers = {i for i, n in enumerate(LAYERS)
               if n.endswith("_tester") or n.startswith("spectrum.top_eigs")}
    in_tester = np.zeros(len(layer), dtype=bool)
    # A span is tester work when it, or an ancestor, is a tester span.
    anc = np.arange(len(layer))
    while True:
        in_tester |= np.isin(layer[anc], list(testers))
        up = parent[anc]
        if np.all(up < 0):
            break
        anc = np.where(up >= 0, up, anc)
    shares = {}
    groups = {name: [k for k, c in enumerate(cell_names) if c == name]
              for name in cell_names}
    groups["all cells"] = list(range(len(cell_names)))
    for name, members in groups.items():
        mask = in_tester & np.isin(trial, members)
        total = float(own[mask].sum())
        table = {}
        for i, lname in enumerate(LAYERS):
            s = float(own[mask & (layer == i)].sum())
            if s > 0.0:
                table[lname] = s / total
        shares[name] = {"tester_s": total,
                        "self_share": dict(sorted(table.items(), key=lambda kv: -kv[1]))}
    return shares


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None  # not a git checkout


def environment(workload: str, seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "workload": workload,
        "workload_seed": seed,
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    from cells import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def untraced_run(harness, cells, args, import_s):
    rounds = run_rounds(harness, cells, args.seed, args.seconds)
    checks = quality(cells, rounds)
    return (end_to_end(rounds, import_s), END_TO_END_UNITS,
            cell_summary(cells, rounds), checks, checks["failed"] == 0, {})


def traced_run(harness, cells, args):
    import micro
    from cells import WORKLOADS
    from tracer import Tracer
    budget = max(1.0, 0.4 * (args.seconds - TRACE_TAIL_S))
    plain = run_rounds(harness, cells, args.seed, budget)
    probe_cells = WORKLOADS["probe"]
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_rounds(harness, cells, args.seed, 0.0, n_rounds=len(plain))
        workload_spans = len(tracer)
        probe = run_rounds(harness, probe_cells, args.seed, 0.0, n_rounds=1)
    finally:
        tracer.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{args.workload}.npz")

    values = layer_metrics(tracer)
    values["trace_overhead_s"] = (end_to_end(traced, 0.0)["wall_s"]
                                  - end_to_end(plain, 0.0)["wall_s"])
    values.update(micro.run())

    checks = quality(cells, plain + traced)
    probe_checks = quality(probe_cells, probe)
    # Tracing must not change what the program does.
    checks["traced_matches_untraced"] = all(
        (a.get("verdict"), a.get("mv"), a.get("vmv"))
        == (b.get("verdict"), b.get("mv"), b.get("vmv"))
        for ra, rb in zip(plain, traced) for a, b in zip(ra, rb))
    checks["untraced_tester_s"] = [c["tester_s_median"]
                                   for c in cell_summary(cells, plain)]
    checks["probe"] = probe_checks
    checks["attempted"] += probe_checks["attempted"]
    checks["failed"] += probe_checks["failed"]
    checks["untraced_layers"] = tracer.missing
    correct = checks["failed"] == 0 and checks["traced_matches_untraced"]
    cell_names = [t["cell"] for rnd in traced for t in rnd]
    extra = {"layer_shares": layer_shares(tracer, workload_spans, cell_names),
             "spans": {"workload": workload_spans, "total": len(tracer)}}
    return (values, per_layer_units(), cell_summary(cells, traced), checks,
            correct, extra)


def main(argv=None) -> int:
    args = parse_args(argv)
    _pin_blas_threads()
    t0 = time.perf_counter()
    _import_program()
    from psdprobe import harness
    import_s = time.perf_counter() - t0

    from cells import WORKLOADS
    cells = WORKLOADS[args.workload]
    if args.trace == 0:
        values, units, summary, checks, correct, extra = untraced_run(
            harness, cells, args, import_s)
    else:
        values, units, summary, checks, correct, extra = traced_run(
            harness, cells, args)
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    report = {"environment": environment(args.workload, args.seed),
              "seconds": args.seconds, "trace": args.trace, "cells": summary,
              "checks": checks, "metrics": metrics, **extra}
    result = {"correct": bool(correct), "attempted": checks["attempted"],
              "failed": checks["failed"], "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1, default=str) + "\n")
    print(json.dumps(report, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
