"""Smoke check of the benchmark itself, in seconds, on the tiny probe cells.

    python3 perfbench/smoke.py

Runs the probe workload untraced and traced and checks that the result line
has the agreed shape, that every metric named in BENCHMARK.json is emitted
with its unit, that the outputs were judged correct, and that the written
span file holds spans of each of the six psdprobe modules.  Exits 1 and
lists the problems when any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import MODULES  # noqa: E402  (needs the path set above)


def _run(trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "probe",
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"smoke: {' '.join(cmd)} exited {proc.returncode}\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_result(result: dict, expected: list, problems: list, label: str):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
        return
    if result["correct"] is not True:
        problems.append(f"{label}: correct is {result['correct']}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        problems.append(f"{label}: attempted/failed not whole numbers")
    metrics = result["metrics"]
    names = {m["name"] for m in expected}
    if set(metrics) != names:
        problems.append(f"{label}: missing {sorted(names - set(metrics))}, "
                        f"unexpected {sorted(set(metrics) - names)}")
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{label}: {m['name']} unit {got.get('unit')!r}, "
                            f"expected {m['unit']!r}")
        if not isinstance(got.get("value"), (int, float)):
            problems.append(f"{label}: {m['name']} value {got.get('value')!r}")


def main() -> int:
    import numpy as np
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list = []
    _check_result(_run(0), spec["end_to_end"], problems, "trace 0")
    _check_result(_run(1), spec["per_layer"], problems, "trace 1")
    spans = np.load(ROOT / ".perfbench_out" / "spans-probe.npz")
    names = [str(n) for n in spans["names"]]
    seen = {names[i].split(".")[0] for i in np.unique(spans["layer"])}
    for module in MODULES:
        if module not in seen:
            problems.append(f"trace 1: no spans from psdprobe.{module}")
    if problems:
        print("\n".join(problems))
        return 1
    print(f"smoke: ok ({len(spans['layer'])} spans from {len(seen)} modules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
