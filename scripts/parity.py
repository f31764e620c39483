"""Output parity of two psdprobe checkouts, with the wall clock pinned.

Runs a fixed set of seeded experiment configs -- every tester on at least
two instance families, the Oja descent with and without a Gaussian map,
plus rotated_diag, wishart, spiked and gap configs, and two at p = inf --
through ``run_experiment`` with the clock pinned to 0, and records the
SHA-1 and text of each CSV and summary file.

    python3 scripts/parity.py record --src OLD/src --out old.json
    python3 scripts/parity.py record --src NEW/src --out new.json
    python3 scripts/parity.py compare old.json new.json

``compare`` prints one line per config whose files differ, then every CSV
cell that moved as ``config seed column: old -> new``; it exits 1 when any
file differs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib
import io
import json
import sys
import tempfile
from pathlib import Path

_SPIKE = [5.0] + [1.0] * 15


def _cfg(tester, instance, eps, p, trials=3, **constants):
    return dict(tester=tester, instance=instance, eps=eps, p=p, trials=trials,
                seed0=0, constants=constants)


def _dim(kind, d=16):
    return {"kind": kind, "dim": d}


CONFIGS = {
    "oja_l1/random_psd": _cfg("oja_l1", _dim("random_psd"), 0.3, 1.0,
                              amplification=2),
    "oja_l1/far": _cfg("oja_l1", _dim("far"), 0.3, 1.0),
    "oja_l1/cluster_l1": _cfg("oja_l1", _dim("cluster_l1"), 0.3, 1.0),
    # At d > ceil(8 / eps) = 27 the descent runs through a Gaussian map G,
    # every block read from B = G^T A G, formed when the handle is built.
    "oja_l1/random_psd_d48": _cfg("oja_l1", _dim("random_psd", 48), 0.3, 1.0,
                                  amplification=1),
    "oja_l1/far_d48": _cfg("oja_l1", _dim("far", 48), 0.3, 1.0),
    "oja_l1/cluster_l1_d128": _cfg("oja_l1", _dim("cluster_l1", 128), 0.3,
                                   1.0),
    "bilinear_sketch/random_psd": _cfg("bilinear_sketch", _dim("random_psd"),
                                       0.5, 2.0),
    "bilinear_sketch/far": _cfg("bilinear_sketch", _dim("far"), 0.5, 2.0),
    "bilinear_sketch/wishart": _cfg("bilinear_sketch", _dim("wishart"), 0.5,
                                    2.0),
    # k = 664 at eps 0.5: past d the sketch is simulated through its d x d
    # Bartlett factor, and past d + n + 1 so are the null rows of each
    # n-row drawn block.
    "adaptive_l2/random_psd": _cfg("adaptive_l2", _dim("random_psd"), 0.5,
                                   2.0),
    "adaptive_l2/far": _cfg("adaptive_l2", _dim("far"), 0.5, 2.0),
    # k = 116 at eps 0.9: 52 null dimensions at d = 64, whose rows are a
    # Bartlett factor in the 4- to 36-row first blocks and plain Gaussians
    # in the 64-row ones; an explicit G at d = 128.
    "adaptive_l2/far_d64": _cfg("adaptive_l2", _dim("far", 64), 0.9, 2.0),
    "adaptive_l2/far_d128": _cfg("adaptive_l2", _dim("far", 128), 0.9, 2.0),
    "nonadaptive_l1/random_psd": _cfg("nonadaptive_l1", _dim("random_psd", 24),
                                      0.3, 1.0),
    "nonadaptive_l1/hard_l1": _cfg("nonadaptive_l1", _dim("hard_l1", 24), 0.3,
                                   1.0),
    "nonadaptive_l1/gap": _cfg("nonadaptive_l1", _dim("gap", 24), 0.3, 1.0,
                               trials=4),
    "krylov/identity": _cfg("krylov", _dim("identity", 32), 0.2, 2.0),
    "krylov/hard_l1": _cfg("krylov", _dim("hard_l1", 32), 0.2, 1.0),
    # The degree is capped at k = d - 1, so each accepted build spans R^d
    # and the first one decides.
    "krylov/random_psd_spanning": _cfg("krylov", _dim("random_psd"), 0.2,
                                       2.0),
    "krylov/far_pinf": _cfg("krylov", _dim("far", 32), 0.2, float("inf")),
    "krylov/rotated_diag": _cfg("krylov", {"kind": "rotated_diag",
                                           "eigenvalues": [2.0, -1.0, 0.5, 3]},
                                0.2, 2.0),
    "krylov/spiked": _cfg("krylov", {"kind": "spiked", "dim": 8, "s": 3.0,
                                     "shift": 6.5}, 0.2, 2.0, trials=4),
    "nonadaptive_mv/random_psd": _cfg("nonadaptive_mv", _dim("random_psd", 32),
                                      0.3, 2.0),
    "nonadaptive_mv/far": _cfg("nonadaptive_mv", _dim("far", 32), 0.3, 2.0),
    # A gap instance is labelled by the middle branch of truth_label.
    "nonadaptive_mv/gap_pinf": _cfg("nonadaptive_mv", _dim("gap", 32), 0.2,
                                    float("inf"), trials=4),
    "spectrum/spike_pos": _cfg("spectrum", {"kind": "rotated_diag",
                                            "eigenvalues": _SPIKE},
                               0.2, 2.0, k=1),
    "spectrum/spike_neg": _cfg("spectrum", {"kind": "rotated_diag",
                                            "eigenvalues": [-5.0] + _SPIKE[1:]},
                               0.2, 2.0, k=1),
    "spectrum/random_psd": _cfg("spectrum", _dim("random_psd", 10), 0.25, 2.0,
                                trials=4, k=2),
    "spectrum/wishart": _cfg("spectrum", _dim("wishart", 8), 0.5, 2.0, k=1),
    "spectrum_adaptive/spike_pos": _cfg("spectrum_adaptive",
                                        {"kind": "rotated_diag",
                                         "eigenvalues": _SPIKE}, 0.2, 2.0, k=1),
    "spectrum_adaptive/wishart": _cfg("spectrum_adaptive", _dim("wishart", 8),
                                      0.5, 2.0, k=1),
    "spectrum_adaptive/random_psd": _cfg("spectrum_adaptive",
                                         _dim("random_psd", 10), 0.25, 2.0,
                                         k=2),
}


def record(src: str, out: str) -> None:
    sys.path.insert(0, str(Path(src).resolve()))
    harness = importlib.import_module("psdprobe.harness")
    results = {}
    with tempfile.TemporaryDirectory() as work:
        for i, (name, fields) in enumerate(CONFIGS.items()):
            path = Path(work) / f"c{i}.csv"
            cfg = harness.ExperimentConfig(**fields, output_path=str(path))
            harness.run_experiment(cfg, clock=lambda: 0.0)
            entry = {}
            for kind, file in (("csv", path),
                               ("summary", path.with_suffix(".summary.json"))):
                text = file.read_text()
                entry[kind] = {"sha1": hashlib.sha1(text.encode()).hexdigest(),
                               "text": text}
            results[name] = entry
            print(f"{name}: csv {entry['csv']['sha1'][:12]} "
                  f"summary {entry['summary']['sha1'][:12]}")
    Path(out).write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")


def compare(old_path: str, new_path: str) -> int:
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    moved = 0
    for name in CONFIGS:
        kinds = [k for k in ("csv", "summary")
                 if old[name][k]["sha1"] != new[name][k]["sha1"]]
        if not kinds:
            continue
        moved += 1
        print(f"{name}: {' and '.join(kinds)} differ")
        rows_old = list(csv.DictReader(io.StringIO(old[name]["csv"]["text"])))
        rows_new = list(csv.DictReader(io.StringIO(new[name]["csv"]["text"])))
        for a, b in zip(rows_old, rows_new):
            for col in a:
                if a[col] != b[col]:
                    print(f"  seed {a['seed']} {col}: {a[col] or '(blank)'} "
                          f"-> {b[col] or '(blank)'}")
    print(f"{len(CONFIGS) - moved} of {len(CONFIGS)} configs byte-identical")
    return 1 if moved else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("--src", required=True,
                     help="the src directory of the checkout to run")
    rec.add_argument("--out", required=True, help="where to write the record")
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("old")
    cmp_.add_argument("new")
    args = parser.parse_args()
    if args.command == "record":
        record(args.src, args.out)
        return 0
    return compare(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
