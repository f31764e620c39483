"""Span tracing around the public functions of the psdprobe modules.

The wrappers live in the benchmark, not in the program: ``Tracer.install``
replaces each traced function in every psdprobe namespace that holds it
(modules import functions by name, so ``vmv_testers.trace_estimate`` is a
separate binding of ``kernels.trace_estimate``), and the oracle methods on
the ``SymmetricOperator`` class.  ``uninstall`` restores the originals.

Each call records one span (layer id, parent span, start, end) into flat
arrays kept in memory; ``save`` writes them out once, at the end of a run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Dict, List, Optional, Tuple

import numpy as np

# (module, attribute) of every traced layer; "Class.method" names a method.
TRACED = (
    ("oracle", "SymmetricOperator.mat_vec"),
    ("oracle", "SymmetricOperator.bilinear"),
    ("oracle", "SymmetricOperator.quad_form"),
    ("oracle", "gen_rotated_diag"),
    ("oracle", "gen_wishart"),
    ("kernels", "trace_estimate"),
    ("kernels", "frobenius_estimate"),
    ("kernels", "schatten1_scale_estimate"),
    ("vmv_testers", "build_sketch"),
    ("vmv_testers", "bilinear_sketch_tester"),
    ("vmv_testers", "oja_l1_tester"),
    ("vmv_testers", "adaptive_l2_tester"),
    ("vmv_testers", "nonadaptive_l1_tester"),
    ("mv_testers", "build_krylov"),
    ("mv_testers", "krylov_tester"),
    ("mv_testers", "nonadaptive_mv_tester"),
    ("spectrum", "build_spectrum_sketch"),
    ("spectrum", "psd_rank_k_fit"),
    ("spectrum", "top_eigs_signed"),
    ("spectrum", "top_eigs_signed_adaptive"),
    ("harness", "run_experiment"),
    ("harness", "instance_operator"),
    ("harness", "truth_label"),
)

PACKAGE = "psdprobe"
MODULES = ("oracle", "kernels", "vmv_testers", "mv_testers", "spectrum",
           "harness")


def layer_name(module: str, attr: str) -> str:
    """Metric prefix of a traced layer: oracle.bilinear, spectrum.psd_rank_k_fit."""
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


LAYERS = tuple(layer_name(m, a) for m, a in TRACED)


class Tracer:
    def __init__(self):
        self.layer = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = [-1]
        self._restore: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, layer_id: int, fn):
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            layer.append(layer_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        namespaces = [mod for name, mod in sys.modules.items()
                      if mod is not None and (name == PACKAGE or
                                              name.startswith(PACKAGE + "."))]
        for layer_id, (module, attr) in enumerate(TRACED):
            owner = sys.modules.get(f"{PACKAGE}.{module}")
            cls_name, _, fn_name = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            orig = getattr(owner, fn_name, None) if owner is not None else None
            if not callable(orig):
                self.missing.append(layer_name(module, attr))
                continue
            wrapped = self._wrap(layer_id, orig)
            if cls_name:
                self._patch(owner, fn_name, wrapped)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        self._patch(ns, key, wrapped)

    def _patch(self, owner, key: str, wrapped) -> None:
        self._restore.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, orig = self._restore.pop()
            setattr(owner, key, orig)

    # -- analysis -------------------------------------------------------------

    def arrays(self, n: Optional[int] = None):
        """The first n spans (all by default) as numpy arrays."""
        n = len(self) if n is None else n
        return (np.frombuffer(self.layer, dtype=np.int32)[:n].copy(),
                np.frombuffer(self.parent, dtype=np.int64)[:n].copy(),
                np.frombuffer(self.start, dtype=np.float64)[:n].copy(),
                np.frombuffer(self.end, dtype=np.float64)[:n].copy())

    def save(self, path) -> None:
        layer, parent, start, end = self.arrays()
        np.savez(path, layer=layer, parent=parent, start=start, end=end,
                 names=np.array(LAYERS))


def self_times(layer, parent, start, end) -> np.ndarray:
    """Span duration minus the part its child spans cover."""
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child],
                          minlength=len(dur))
    return dur - covered


def roots(parent) -> np.ndarray:
    """Index of each span's outermost ancestor (itself for a root)."""
    root = np.where(parent >= 0, parent, np.arange(len(parent)))
    while True:
        up = parent[root]
        nxt = np.where(up >= 0, up, root)
        if np.array_equal(nxt, root):
            return root
        root = nxt


def layer_table(layer, parent, start, end) -> Dict[str, Tuple[int, float]]:
    """Per layer: (calls, total self seconds)."""
    own = self_times(layer, parent, start, end)
    n = len(LAYERS)
    calls = np.bincount(layer, minlength=n)
    selfs = np.bincount(layer, weights=own, minlength=n)
    return {name: (int(calls[i]), float(selfs[i]))
            for i, name in enumerate(LAYERS)}
