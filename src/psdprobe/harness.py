"""Seeded experiment loops, calibration sweeps, and query-scaling fits.

``run_experiment`` drives one tester over freshly generated instances (trial i
uses seed0 + i), labels every instance from its operator's ``eigenvalues``,
and emits one CSV row per trial plus a JSON summary.  ``calibrate`` resolves
the absolute constants the testers' guarantees leave unnamed by sweeping seeded
PSD instances against matched eps-far ones.  ``scaling_report`` bisects each
tester's size knob for the minimal query budget reaching a target success
rate and fits log-log slopes against 1/eps and d.  Both sweeps reach the
testers only through their public entry points; every Oja scaling trial runs
``oja_l1_tester`` with one repetition at its norm probe's single scale.

Records are merged in seed order whatever the worker count, and floats are
serialized through repr, so identical configs reproduce the output files byte
for byte.  Wall-clock timing is the one exception: the clock is injectable
(determinism tests pin it to a constant) and defaults to real time.

Every spectrum instance, in a trial or a sweep, is the diagonal matrix of
its drawn spectrum, built by ``instance_operator`` on a diagonal backing.
No rotation hides it: the testers see A only through Gaussian sketches,
Gaussian descent directions and Gaussian Krylov starts, so their query and
verdict distributions are the same on Q^T diag(lam) Q for every orthogonal
Q (``tests/test_invariance.py`` holds each tester to that).
"""

from __future__ import annotations

import csv
import functools
import json
import math
import numbers
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import defaults
from .mv_testers import (krylov_tester, nonadaptive_mv_tester,
                         unrounded_krylov_degree)
from .oracle import (MAX_DENSE_DIM, SymmetricOperator, gen_spiked_sym,
                     gen_wishart, rng_from)
from .spectrum import top_eigs_signed, top_eigs_signed_adaptive
from .vmv_testers import (OjaConfig, adaptive_l2_tester,
                          bilinear_sketch_tester, build_sketch,
                          nonadaptive_l1_tester, oja_l1_tester, sketch_dim)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "TrialRecord",
    "TESTERS",
    "CALIBRATION_SUITES",
    "CSV_FIELDS",
    "instance_operator",
    "truth_label",
    "far_spectrum",
    "hard_l1_spectrum",
    "cluster_l1_spectrum",
    "family_spectrum",
    "run_experiment",
    "summarize",
    "write_records_csv",
    "calibrate",
    "scaling_report",
]

# The constants each tester reads from ExperimentConfig.constants, with the
# type each is passed as.
_TESTER_CONSTANTS = {
    "oja_l1": {"amplification": int, "iter_scale": float},
    "bilinear_sketch": {"c_psd": float, "kappa": float},
    "adaptive_l2": {"c_psd": float},
    "nonadaptive_l1": {"repeats": int, "kappa": float},
    "krylov": {"repeats": int, "kappa": float},
    "nonadaptive_mv": {"repeats": int, "kappa": float},
    "spectrum": {"k": int},
    "spectrum_adaptive": {"k": int},
}

TESTERS = tuple(_TESTER_CONSTANTS)

# The two matvec-model testers, both called as (op, eps, p, **constants).
_MV_TESTERS = {"krylov": krylov_tester, "nonadaptive_mv": nonadaptive_mv_tester}

# The one Schatten p each of these testers tests; the others take any p >= 1.
_TESTER_P = {"oja_l1": 1, "nonadaptive_l1": 1, "bilinear_sketch": 2,
             "adaptive_l2": 2}

# The one fixed schema downstream plotting relies on.
CSV_FIELDS = ("seed", "truth", "verdict", "queries_mv", "queries_vmv",
              "statistic", "witness_valid", "wall_time_ms")

_SPECTRUM_STREAM = 0x1A57  # per-trial instance spectra


class ConfigError(ValueError):
    """Invalid experiment configuration; the CLI maps this to exit code 2."""


def _is_number(value) -> bool:
    """A real number that is not a bool (JSON true would read as 1)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_int(name: str, value, lo: Optional[int] = None) -> int:
    """``value`` as a Python int, once it is an integer (numpy's too, never
    a bool) and at least ``lo`` when that is set."""
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or lo is not None and value < lo):
        floor = "" if lo is None else f" >= {lo}"
        raise ConfigError(f"{name} must be an integer{floor}, got {value!r}")
    return int(value)


def _check_eps(eps, rule: str = "eps must be a number in (0, 1)") -> float:
    """``eps`` as a Python float, once it is a number in (0, 1)."""
    if not (_is_number(eps) and 0.0 < eps < 1.0):
        raise ConfigError(f"{rule}, got {eps!r}")
    return float(eps)


def _check_location(name: str, value) -> None:
    """An output location is None or a non-empty str or ``os.PathLike``."""
    if value is not None and not (isinstance(value, (str, os.PathLike))
                                  and os.fspath(value)):
        raise ConfigError(f"{name} must be a path, got {value!r}")


def _check_p(tester: str, p) -> float:
    """``p`` as a Python float, once it is a number >= 1 the tester tests."""
    if not (_is_number(p) and p >= 1.0):
        raise ConfigError(f"p must be a number >= 1, got {p!r}")
    if _TESTER_P.get(tester, p) != p:
        raise ConfigError(f"tester {tester} tests p = {_TESTER_P[tester]} "
                          f"only, got p={p!r}")
    return float(p)


# The fields each instance kind needs.
_KIND_FIELDS = {"rotated_diag": ("eigenvalues",),
                "spiked": ("dim", "s", "shift"),
                **dict.fromkeys(("wishart", "gap", "identity", "random_psd",
                                 "far", "hard_l1", "cluster_l1"), ("dim",))}


def _plain(value):
    """A numpy scalar as the Python number it holds; anything else as is."""
    return value.item() if isinstance(value, np.generic) else value


def _check_instance(desc) -> dict:
    """A checked copy of an instance descriptor (see ``ExperimentConfig``),
    numpy scalars made the Python numbers they hold, so that it serializes
    like its plain twin; ConfigError on any field that config forbids."""
    # A tuple compares kinds by ==, so an unhashable kind fails cleanly.
    if not isinstance(desc, dict) or \
            desc.get("kind") not in tuple(_KIND_FIELDS):
        raise ConfigError(f"instance must be a dict whose kind is one of "
                          f"{', '.join(_KIND_FIELDS)}, got {desc!r}")
    out = {name: _plain(value) for name, value in desc.items()}
    kind = out["kind"]
    for name in _KIND_FIELDS[kind]:
        if name not in out:
            raise ConfigError(f"instance kind {kind!r} is missing field "
                              f"{name!r}")
    if kind == "rotated_diag":
        lam = out["eigenvalues"]
        if not (isinstance(lam, (list, tuple)) and len(lam) >= 2 and all(
                _is_number(v) and math.isfinite(v) for v in lam)):
            raise ConfigError(f"instance field 'eigenvalues' must be a list "
                              f"of at least 2 finite numbers, got {lam!r}")
        out["eigenvalues"] = [_plain(v) for v in lam]
    else:
        out["dim"] = _check_int(f"instance kind {kind!r} dim", out["dim"], 2)
    for name in ("s", "shift", "depth"):
        if name in out and not (_is_number(out[name])
                                and math.isfinite(out[name])):
            raise ConfigError(f"instance field {name!r} must be a finite "
                              f"number, got {out[name]!r}")
    if kind == "gap" and not 0.0 < out.get("depth", 0.5) < 1.0:
        raise ConfigError(f"gap depth must be in (0, 1), got {out['depth']}")
    return out


# ---------------------------------------------------------------------------
# configuration and record types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a tester, an instance family, and a trial budget.

    ``instance`` is a JSON-friendly dict whose ``kind`` names one of the
    nine kinds ``instance_operator`` builds, each from the per-trial seed
    (a seed in the descriptor is ignored) and, for every kind but "wishart"
    and "spiked", as the diagonal of its spectrum: "rotated_diag" (needs
    "eigenvalues", a list of at least 2 finite numbers; a historical name,
    no rotation is applied), "wishart", "spiked" (also needs finite numbers
    "s" and "shift"; see ``gen_spiked_sym``), and the spectrum families
    "identity", "random_psd" (uniform spectrum in [0, 1]), "far" (one
    negative eigenvalue at exactly -eps times the Schatten-p norm),
    "hard_l1" (the negative eigenvalue hidden under ~eps^(-2/3) taller
    positive spikes), "cluster_l1" (positives clustered at the negative
    eigenvalue's scale) and "gap" (strictly inside the promise gap, at
    "depth" in (0, 1), default 0.5; excluded from rate denominators).  All
    but "rotated_diag" need "dim", an integer >= 2.

    ``constants`` overrides named calibration constants.  Each tester reads
    its own set (``_TESTER_CONSTANTS``): kappa, c_psd, repeats,
    amplification or iter_scale, and k (the rank of the spectrum testers);
    any other name is an error.  Every value must be a finite positive
    number, and a whole number where the tester reads an integer.  eps, p
    and the constants must be numbers, not strings or bools (eps and p are
    stored as floats), and p the one p of a one-p tester (``_TESTER_P``).
    The instance's operator dimension d (2 dim for "spiked") is at most
    ``oracle.MAX_DENSE_DIM``, a spectrum tester's k is at most d, and a
    "cluster_l1" dim holds the family's positives at eps.
    ``output_path`` is None or a non-empty str or ``os.PathLike``.
    All of it is checked when the config is built, before any work; the
    config keeps Python numbers only, each constant cast as its tester reads it.
    """

    tester: str
    instance: dict
    eps: float
    p: float = 1.0
    trials: int = 1
    seed0: int = 0
    constants: dict = field(default_factory=dict)
    output_path: Optional[str] = None

    def __post_init__(self):
        if self.tester not in TESTERS:
            raise ConfigError(f"unknown tester {self.tester!r}; expected one "
                              f"of {', '.join(TESTERS)}")
        for name, value in (("instance", _check_instance(self.instance)),
                            ("trials", _check_int("trials", self.trials, 1)),
                            ("seed0", _check_int("seed0", self.seed0)),
                            ("eps", _check_eps(self.eps)),
                            ("p", _check_p(self.tester, self.p))):
            object.__setattr__(self, name, value)
        _check_location("output_path", self.output_path)
        if not isinstance(self.constants, dict):
            raise ConfigError("constants must be a dict")
        reads = _TESTER_CONSTANTS[self.tester]
        for name, value in self.constants.items():
            if name not in reads:
                raise ConfigError(f"tester {self.tester} reads no constant "
                                  f"{name!r}; it reads {', '.join(reads)}")
            number = float(value) if _is_number(value) else math.nan
            if not 0.0 < number < math.inf:
                raise ConfigError(f"constant {name!r} must be a finite "
                                  f"positive number, got {value!r}")
            if reads[name] is int and not number.is_integer():
                raise ConfigError(f"constant {name!r} must be a whole "
                                  f"number, got {value!r}")
        object.__setattr__(self, "constants", {
            name: reads[name](value) for name, value in self.constants.items()})
        # The checks that join fields: d within the dense cap, k within d, a
        # cluster that fits.
        kind = self.instance["kind"]
        d = (len(self.instance["eigenvalues"]) if kind == "rotated_diag"
             else self.instance["dim"] * (2 if kind == "spiked" else 1))
        if d > MAX_DENSE_DIM:
            raise ConfigError(f"instance {kind!r} has operator dimension {d}, "
                              f"above the dense cap {MAX_DENSE_DIM}")
        if self.constants.get("k", 1) > d:
            raise ConfigError(f"constant 'k' must be in [1, d] for a d={d} "
                              f"operator, got k={self.constants['k']}")
        if kind == "cluster_l1":
            _cluster_size(d, self.eps)


@dataclass(frozen=True)
class TrialRecord:
    """One trial, fields in the fixed CSV column order.

    ``truth`` is None only for instances inside the promise gap, which are
    generated only on request and excluded from rate denominators.  For the
    spectrum testers ``verdict`` means the estimates met their coverage and
    soundness checks against the instance's eigenvalues (see
    ``_spectrum_guarantee``), ``statistic``, set on every trial, is the
    worse of the two bottleneck errors over the allowed radius, and
    ``witness_valid`` whether the qualifying eigenvalues' signs are matched.
    """

    seed: int
    truth: Optional[bool]
    verdict: bool
    queries_mv: int
    queries_vmv: int
    statistic: Optional[float]
    witness_valid: Optional[bool]
    wall_time_ms: float


# ---------------------------------------------------------------------------
# instance families and ground truth
# ---------------------------------------------------------------------------

def far_spectrum(d: int, eps: float, p: float,
                 gen: np.random.Generator) -> np.ndarray:
    """Eigenvalues with lambda_min = -eps * ||A||_p exactly.

    One negative eigenvalue against a positive bulk drawn from U[0.5, 1.5);
    solving t^p = eps^p (P + t^p) for the negative magnitude t puts the
    instance exactly on the promise boundary, so the truth label is never a
    judgement call.
    """
    bulk = gen.uniform(0.5, 1.5, d - 1)
    if math.isinf(p):
        t = eps * float(bulk.max())
    else:
        mass = float((bulk ** p).sum())
        t = (eps ** p * mass / (1.0 - eps ** p)) ** (1.0 / p)
    return np.concatenate(([-t], bulk))


def hard_l1_spectrum(d: int, eps: float,
                     gen: np.random.Generator) -> np.ndarray:
    """The trace-norm family that makes eps-scaling measurable.

    Positive spikes decay like 1/i until they reach the promise depth, the
    rest of the spectrum is zero, and the negative eigenvalue sits exactly
    at -eps times the trace norm.  On a flat bulk the negative eigenvalue
    dominates the spectrum and every tester finds it in O(1) queries
    regardless of eps, and a narrow band of positives is killed by one
    low-degree polynomial; harmonic decay puts positive mass at every scale
    between the negative eigenvalue and the top, which is what forces the
    deflation work the query bounds are built around and makes measured
    budgets actually grow as eps shrinks.
    """
    heights = [1.0]
    while len(heights) < d - 1:
        nxt = 1.0 / (len(heights) + 1)
        depth = eps * (sum(heights) + nxt) / (1.0 - eps)
        if nxt < depth:
            break
        heights.append(nxt)
    spikes = np.array(heights) * gen.uniform(0.8, 1.2, len(heights))
    pos = np.zeros(d - 1)
    pos[:len(spikes)] = spikes
    t = eps * float(spikes.sum()) / (1.0 - eps)
    return np.concatenate(([-t], pos))


def _cluster_size(d: int, eps: float) -> int:
    """The number of positives in a cluster_l1 draw, (1 - eps) / (1.25 eps)
    rounded and at least 1; ConfigError when d - 1 slots cannot hold them."""
    n_c = max(1, round((1.0 - eps) / (1.25 * eps)))
    if n_c > d - 1:
        raise ConfigError(f"cluster family needs dim >= {n_c + 1} at "
                          f"eps={eps}, got dim {d}")
    return n_c


def cluster_l1_spectrum(d: int, eps: float,
                        gen: np.random.Generator) -> np.ndarray:
    """Single-scale trace-norm family: positives clustered near the negative.

    lambda_min = -1 against roughly (1 - eps) / (1.25 eps) positives jittered
    around 1.25, normalized so the trace norm is exactly 1 / eps.  Nothing
    dominates the spectrum and every positive sits at the same scale as the
    negative eigenvalue, so descent-style testers pay the full 1/eps
    escape time in one phase.  The harmonic family is the wrong yardstick
    for them: its top scales feed a fast first descent phase whose crossover
    with the slow tail phase moves with eps and inflates the fitted slope.
    """
    n_c = _cluster_size(d, eps)
    raw = gen.uniform(0.9, 1.1, n_c)
    pos = raw * ((1.0 - eps) / (eps * float(raw.sum())))
    lam = np.zeros(d)
    lam[0] = -1.0
    lam[1:1 + n_c] = pos
    return lam


def family_spectrum(kind: str, d: int, eps: float, p: float,
                    seed: int) -> np.ndarray:
    """Eigenvalues of one seeded draw from a named spectrum family.

    Kinds are "identity", "random_psd" (uniform in [0, 1]), "far",
    "hard_l1" and "cluster_l1"; every draw comes from the seed's spectrum
    stream, so the per-trial instances, the calibration sweeps and the
    scaling sweeps build the same spectrum from the same seed.
    """
    gen = rng_from(seed, _SPECTRUM_STREAM)
    if kind == "identity":
        return np.ones(d)
    if kind == "random_psd":
        return gen.uniform(0.0, 1.0, d)
    if kind == "far":
        return far_spectrum(d, eps, p, gen)
    if kind == "hard_l1":
        return hard_l1_spectrum(d, eps, gen)
    if kind == "cluster_l1":
        return cluster_l1_spectrum(d, eps, gen)
    raise ConfigError(f"unknown instance kind {kind!r}")


def instance_operator(desc: dict, eps: float, p: float,
                      seed: int) -> SymmetricOperator:
    """Fresh operator for one trial of any kind ``ExperimentConfig`` lists,
    a spectrum lam as the diagonal backing lam (see the module docstring),
    drawn from the trial seed, not any seed field; the sweeps build theirs
    here too.  ConfigError on a bad descriptor (see ``_check_instance``)."""
    desc = _check_instance(desc)
    kind, d = desc["kind"], desc.get("dim")
    if kind == "wishart":
        return gen_wishart(d, seed)
    if kind == "spiked":
        return gen_spiked_sym(d, float(desc["s"]), float(desc["shift"]), seed)
    if kind == "rotated_diag":
        lam = desc["eigenvalues"]
    elif kind == "gap":
        depth = float(desc.get("depth", 0.5))
        lam = family_spectrum("far", d, depth * eps, p, seed)
    else:
        lam = family_spectrum(kind, d, eps, p, seed)
    return SymmetricOperator(lam)


# Relative slack at the two boundaries.  Drawn spectra are exact; only
# Wishart and spiked instances are decomposed, and eigvalsh puts a PSD one at
# lambda_min ~ -1e-13 ||A||_2 (backward error O(d u ||A||)).
_PSD_TOL = 1e-10   # slack below zero still labelled PSD
_FAR_TOL = 1e-9    # slack for families built exactly on the far boundary


def truth_label(eigs: np.ndarray, eps: float, p: float) -> Optional[bool]:
    """True for PSD, False for eps-far, None inside the promise gap.

    ``eigs`` are the instance's eigenvalues in ascending order, as its
    operator's ``eigenvalues`` returns them.  The far test compares lambda_min
    with -eps ||A||_p, the Schatten p-norm of ``eigs``.  A hair of relative
    tolerance sits at both boundaries: a decomposed PSD construction (a
    Wishart product) lands at lambda_min ~ -1e-13 ||A||_2 in floating point,
    and the far families sit exactly on the promise boundary.
    """
    lam_min = float(eigs[0])
    w = np.abs(eigs)
    if lam_min >= -_PSD_TOL * float(max(w[0], w[-1])):
        return True
    norm = float(w.max() if math.isinf(p) else (w ** p).sum() ** (1.0 / p))
    if lam_min <= -eps * norm * (1.0 - _FAR_TOL):
        return False
    return None


# ---------------------------------------------------------------------------
# one trial
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _TesterOutput:
    verdict: bool
    statistic: Optional[float]
    witness: Optional[np.ndarray]
    declared: Optional[int]       # Verdict.queries_used, when there is one
    witness_valid: Optional[bool]


def _bottleneck(xs, ys) -> float:
    """The least max |x - y| over injections of xs into ys (inf when ys is
    too short).  On the line an order-preserving injection attains it, so
    one pass over the sorted xs finds it: best[j] is the optimum for the xs
    so far into the first j sorted ys."""
    ys = np.sort(np.asarray(ys, dtype=float))
    best = np.zeros(ys.size + 1)
    for x in np.sort(np.asarray(xs, dtype=float)):
        best = np.concatenate(([math.inf], np.minimum.accumulate(
            np.maximum(best[:-1], np.abs(x - ys)))))
    return float(best[-1])


def _spectrum_guarantee(values: Sequence[float], eigs: np.ndarray, k: int,
                        radius: float):
    """Check the k signed estimates against the true eigenvalues.

    Coverage: every true eigenvalue among the top k by magnitude with
    |lam| >= |lam_{k+1}| + 2 radius is matched by a distinct estimate within
    radius; such a lam has |lam| >= 2 radius, so its match has its sign.
    Soundness: every estimate lies within radius of a distinct true
    eigenvalue.  Returns (both held, the larger of the two bottleneck errors
    over radius, whether the qualifying eigenvalues' signs can be matched by
    distinct estimates, None when none qualifies).
    """
    by_mag = np.sort(np.abs(eigs))[::-1]
    bar = (by_mag[k] if k < by_mag.size else 0.0) + 2.0 * radius
    qual = [lam for lam in sorted(eigs, key=abs, reverse=True)[:k]
            if abs(lam) >= bar]
    err = max(_bottleneck(qual, values), _bottleneck(values, eigs))
    stat = err / radius if radius > 0.0 else (0.0 if err == 0.0 else math.inf)
    signs_ok = (_bottleneck(np.sign(qual), np.sign(values)) == 0.0
                if qual else None)
    return stat <= 1.0, stat, signs_ok


def _spectrum_trial(cfg: ExperimentConfig, op: SymmetricOperator,
                    seed: int, k: int = 1) -> _TesterOutput:
    estimator = (top_eigs_signed_adaptive if cfg.tester == "spectrum_adaptive"
                 else top_eigs_signed)
    est = estimator(op, k, cfg.eps, rng=seed)
    eigs = op.eigenvalues()
    radius = cfg.eps * float(np.sqrt((eigs ** 2).sum()))
    held, stat, signs_ok = _spectrum_guarantee(est.values, eigs, k, radius)
    return _TesterOutput(verdict=held, statistic=stat, witness=None,
                         declared=None, witness_valid=signs_ok)


def _dispatch(cfg: ExperimentConfig, op: SymmetricOperator,
              seed: int) -> _TesterOutput:
    if cfg.tester == "oja_l1":
        v = oja_l1_tester(op, cfg.eps, OjaConfig.from_eps(
            cfg.eps, dim=op.dim, **cfg.constants), rng=seed)
    elif cfg.tester == "bilinear_sketch":
        v = bilinear_sketch_tester(op, cfg.eps, rng=seed, **cfg.constants)
    elif cfg.tester == "adaptive_l2":
        v = adaptive_l2_tester(op, cfg.eps, rng=seed, **cfg.constants)
    elif cfg.tester == "nonadaptive_l1":
        v = nonadaptive_l1_tester(op, cfg.eps, rng=seed, **cfg.constants)
    elif cfg.tester in _MV_TESTERS:
        v = _MV_TESTERS[cfg.tester](op, cfg.eps, cfg.p, rng=seed,
                                    **cfg.constants)
    else:
        return _spectrum_trial(cfg, op, seed, **cfg.constants)
    return _TesterOutput(verdict=v.is_psd, statistic=v.statistic,
                         witness=v.witness, declared=v.queries_used,
                         witness_valid=None)


def _run_trial(cfg: ExperimentConfig, seed: int,
               clock: Callable[[], float]) -> TrialRecord:
    op = instance_operator(cfg.instance, cfg.eps, cfg.p, seed)
    truth = truth_label(op.eigenvalues(), cfg.eps, cfg.p)
    mv0, vmv0 = op.mv_queries, op.vmv_queries
    t0 = clock()
    out = _dispatch(cfg, op, seed)
    wall = (clock() - t0) * 1000.0
    queries_mv = op.mv_queries - mv0
    queries_vmv = op.vmv_queries - vmv0
    if out.declared is not None and out.declared != queries_mv + queries_vmv:
        raise RuntimeError(f"query accounting mismatch: tester reported "
                           f"{out.declared}, oracle counters moved by "
                           f"{queries_mv + queries_vmv}")
    witness_valid = out.witness_valid
    if out.witness is not None:
        # Oracle re-check, issued after the deltas above were captured.
        witness_valid = bool(op.quad_form(out.witness) < 0.0)
    return TrialRecord(seed=seed, truth=truth, verdict=out.verdict,
                       queries_mv=queries_mv, queries_vmv=queries_vmv,
                       statistic=out.statistic, witness_valid=witness_valid,
                       wall_time_ms=wall)


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

def run_experiment(cfg: ExperimentConfig, *, workers: int = 1,
                   clock: Optional[Callable[[], float]] = None):
    """Run cfg.trials seeded trials; returns (records, summary).

    Trial i draws a fresh instance from seed0 + i, labels it from its
    eigenvalues (see ``truth_label``), runs the tester, and hard-checks
    that the reported query count equals the oracle counter movement.
    When cfg.output_path is set, the records go there as CSV and the
    summary lands next to it with the suffix swapped for .summary.json;
    their directory is created before the first trial (ConfigError if it
    cannot be).

    ``workers`` > 1 fans the trials over a process pool (ConfigError before
    any directory is made unless it is an integer >= 1); records are merged
    by seed, so the worker count never changes the output files.  ``clock``
    replaces time.perf_counter in the wall_time_ms column (pool workers
    cannot inherit an injected clock, so one forces serial execution).
    """
    if not isinstance(cfg, ExperimentConfig):
        raise ConfigError(f"expected an ExperimentConfig, "
                          f"got {type(cfg).__name__}")
    workers = _check_int("workers", workers, 1)
    if cfg.output_path:
        _make_dir(Path(cfg.output_path).parent)
    seeds = range(cfg.seed0, cfg.seed0 + cfg.trials)
    if workers > 1 and clock is None:
        from concurrent.futures import ProcessPoolExecutor
        chunk = max(1, cfg.trials // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            trial = functools.partial(_run_trial, cfg, clock=time.perf_counter)
            records = list(pool.map(trial, seeds, chunksize=chunk))
    else:
        clk = time.perf_counter if clock is None else clock
        records = [_run_trial(cfg, s, clk) for s in seeds]
    records.sort(key=lambda r: r.seed)
    summary = summarize(records, cfg)
    if cfg.output_path:
        write_records_csv(cfg.output_path, records)
        _write_json(Path(cfg.output_path).with_suffix(".summary.json"),
                    summary)
    return records, summary


def summarize(records: Sequence[TrialRecord],
              cfg: Optional[ExperimentConfig] = None) -> dict:
    """Rates conditioned on truth, query statistics, statistic quantiles.

    Gap trials (truth None) are excluded from both conditional rates and
    reported under counts.gap.
    """
    psd = [r for r in records if r.truth is True]
    far = [r for r in records if r.truth is False]
    gap = [r for r in records if r.truth is None]
    mv = [r.queries_mv for r in records]
    vmv = [r.queries_vmv for r in records]
    stats = [r.statistic for r in records if r.statistic is not None]
    checked = [r for r in records if r.witness_valid is not None]
    summary = {
        "trials": len(records),
        "counts": {"psd": len(psd), "far": len(far), "gap": len(gap)},
        "accept_given_psd": (sum(r.verdict for r in psd) / len(psd)
                             if psd else None),
        "reject_given_far": (sum(not r.verdict for r in far) / len(far)
                             if far else None),
        "queries": {
            "mv_mean": float(np.mean(mv)) if mv else 0.0,
            "mv_max": int(max(mv)) if mv else 0,
            "vmv_mean": float(np.mean(vmv)) if vmv else 0.0,
            "vmv_max": int(max(vmv)) if vmv else 0,
        },
        "witness_checked": len(checked),
        "witness_valid": int(sum(bool(r.witness_valid) for r in checked)),
        "wall_time_ms_total": float(sum(r.wall_time_ms for r in records)),
    }
    if stats:
        qs = np.percentile(stats, (5.0, 50.0, 95.0, 99.0))
        summary["statistic_quantiles"] = {
            "q05": float(qs[0]), "q50": float(qs[1]),
            "q95": float(qs[2]), "q99": float(qs[3]),
        }
    if cfg is not None:
        summary["tester"] = cfg.tester
        summary["eps"] = cfg.eps
        summary["p"] = cfg.p
        summary["seed0"] = cfg.seed0
        summary["instance"] = cfg.instance
    return summary


def _make_dir(directory) -> None:
    """Create an output directory up front, so a bad location fails before
    the work, as a ConfigError naming it."""
    try:
        Path(directory).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {directory}: "
                          f"{exc}") from exc


def _write_json(path, obj) -> None:
    """Sorted, indented JSON with a final newline, into a directory the
    caller made with ``_make_dir``."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_records_csv(path, records: Sequence[TrialRecord]) -> None:
    """The fixed eight-column schema, LF newlines, floats through repr."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        for rec in records:
            writer.writerow([_csv_cell(getattr(rec, name))
                             for name in CSV_FIELDS])


# ---------------------------------------------------------------------------
# calibration sweeps
# ---------------------------------------------------------------------------
#
# Every suite runs a fixed seeded sweep and returns (constants, report); the
# report carries the measured distributions so a failure to separate is
# diagnosable, and the suites never mutate defaults -- committing new values
# is an explicit edit of defaults.py with the report checked in next to it.
# The ladder suites walk their rungs upward through ``_ladder`` and stop at
# the first rung that reaches ``_TARGET``.  Grid cell i of a sweep draws its
# trials from the seed block starting at seed0 + 100_000 i.

# The rate a ladder rung, or a scaling cell's knob, must reach.
_TARGET = 0.9


def _sweep(kind: str, d: int, eps: float, p: float, seeds: Sequence[int],
           run: Callable[[SymmetricOperator, int], bool]
           ) -> Tuple[float, float, int]:
    """(reject rate, mean queries, max queries) of ``run(op, seed)``, which
    returns True on accept, over one fresh ``kind`` instance per seed."""
    rejects = 0
    budgets = []
    for seed in seeds:
        op = instance_operator({"kind": kind, "dim": d}, eps, p, seed)
        rejects += not run(op, seed)
        budgets.append(op.mv_queries + op.vmv_queries)
    return rejects / len(seeds), float(np.mean(budgets)), int(max(budgets))


def _ladder(name: str, rungs: Sequence[float], rate: str,
            measure: Callable[[float], dict]) -> Tuple[dict, List[dict]]:
    """Walk ``rungs`` in ascending order, one ``measure(rung)`` row each, and
    stop at the first row whose ``rate`` reaches ``_TARGET``: that rung is
    constant ``name``.  Returns (constants, rows); constants is empty when
    no rung passes."""
    rows = []
    for rung in sorted(rungs):
        rows.append(measure(rung))
        if rows[-1][rate] >= _TARGET:
            return {name: float(rung)}, rows
    return {}, rows


# The sketch tester's working range; k grows like eps^-2 ln^2(1/eps), so
# pushing the grid to smaller eps buys minutes of sketch filling per cell
# without moving the pooled quantiles.
_GAMMA_GRID = [(d, eps) for d in (256, 512) for eps in (0.3, 0.2)]
_PSD_KINDS = ("wishart", "identity", "random_psd")


def _gamma_grid(kappa: float, n: int, seed0: int
                ) -> Tuple[List[dict], List[np.ndarray], List[np.ndarray]]:
    """Gamma at sketch constant ``kappa`` on n PSD and n matched
    Frobenius-far instances per ``_GAMMA_GRID`` cell: (cell rows, PSD
    samples, far samples), one entry per cell."""
    cells, psd, far = [], [], []
    for ci, (d, eps) in enumerate(_GAMMA_GRID):
        k = sketch_dim(eps, kappa)
        psd_g = np.empty(n)
        far_g = np.empty(n)
        for i in range(n):
            seed = seed0 + 100_000 * ci + 2 * i
            kind = _PSD_KINDS[i % len(_PSD_KINDS)]
            op = instance_operator({"kind": kind, "dim": d}, eps, 2.0, seed)
            psd_g[i] = build_sketch(op, k, seed).gamma
            far_op = instance_operator({"kind": "far", "dim": d}, eps, 2.0,
                                       seed + 1)
            far_g[i] = build_sketch(far_op, k, seed + 1).gamma
        cells.append({"d": d, "eps": eps, "k": k,
                      "psd_q99": float(np.percentile(psd_g, 99.0)),
                      "far_q05": float(np.percentile(far_g, 5.0))})
        psd.append(psd_g)
        far.append(far_g)
    return cells, psd, far


def _calibrate_c_psd(seed0: int, trials: Optional[int]) -> Tuple[dict, dict]:
    n = 40 if trials is None else trials
    cells, psd_all, far_all = _gamma_grid(defaults.SKETCH_KAPPA, n, seed0)
    for cell in cells:
        denom = cell["eps"] * math.sqrt(cell["k"]) - defaults.C_FAR_GAP
        cell["n_per_side"] = n
        cell["far_implied_c_far"] = (
            cell["far_q05"] * math.log(max(cell["k"], 2)) / denom
            if denom > 0 else None)
    psd_pool = np.concatenate(psd_all)
    far_pool = np.concatenate(far_all)
    c_psd = float(np.percentile(psd_pool, 99.0))
    far_q05 = float(np.percentile(far_pool, 5.0))
    implied = [c["far_implied_c_far"] for c in cells
               if c["far_implied_c_far"] is not None]
    constants = {}
    if c_psd < far_q05:
        constants["C_PSD"] = c_psd
        if implied:
            constants["C_FAR"] = float(min(implied))
    report = {
        "kappa": defaults.SKETCH_KAPPA,
        "pooled": {"psd_q99": c_psd, "far_q05": far_q05,
                   "margin": far_q05 - c_psd,
                   "psd_quantiles": {q: float(np.percentile(psd_pool, q))
                                     for q in (50.0, 90.0, 99.0)},
                   "far_quantiles": {q: float(np.percentile(far_pool, q))
                                     for q in (1.0, 5.0, 50.0)}},
        "cells": cells,
    }
    return constants, report


def _calibrate_kappa_sketch(seed0: int,
                            trials: Optional[int]) -> Tuple[dict, dict]:
    n = 30 if trials is None else trials

    def measure(kappa: float) -> dict:
        cells, psd, far = _gamma_grid(kappa, n, seed0)
        threshold = float(np.percentile(np.concatenate(psd), 99.0))
        accept = [float(np.mean(g <= threshold)) for g in psd]
        reject = [float(np.mean(g > threshold)) for g in far]
        return {"kappa": kappa, "threshold": threshold,
                "accept_given_psd": accept, "reject_given_far": reject,
                "worst_cell_success": min(accept + reject), "cells": cells}

    constants, rows = _ladder("SKETCH_KAPPA", (0.5, 1.0, 2.0, 4.0, 8.0, 12.0),
                              "worst_cell_success", measure)
    return constants, {"n_per_side": n, "grid": _GAMMA_GRID, "ladder": rows}


_REJECT_GRID = [(d, eps) for d in (64, 256) for eps in (0.2, 0.1)]


def _reject_row(rung: dict, n: int, seed0: int,
                run: Callable[[SymmetricOperator, float, int], bool]) -> dict:
    """``rung`` plus the reject rate of ``run(op, eps, seed)`` (True on
    accept) on n far instances per ``_REJECT_GRID`` cell, and the worst."""
    cells = []
    for ci, (d, eps) in enumerate(_REJECT_GRID):
        base = seed0 + 100_000 * ci
        rate, _, _ = _sweep("far", d, eps, 1.0, range(base, base + n),
                            lambda op, seed: run(op, eps, seed))
        cells.append({"d": d, "eps": eps, "reject_rate": rate})
    return {**rung, "worst_cell_reject": min(c["reject_rate"] for c in cells),
            "cells": cells}


def _calibrate_kappa_oja(seed0: int,
                         trials: Optional[int]) -> Tuple[dict, dict]:
    n = 20 if trials is None else trials
    amp = 6  # enough amplification that >= 0.9 is reachable, cheap to miss

    def measure(scale: float) -> dict:
        return _reject_row(
            {"iter_scale": scale, "amplification": amp}, n, seed0,
            lambda op, eps, seed: oja_l1_tester(
                op, eps, OjaConfig.from_eps(eps, dim=op.dim, amplification=amp,
                                            iter_scale=scale),
                rng=seed).is_psd)

    constants, rows = _ladder("OJA_ITER_SCALE", (0.125, 0.25, 0.5, 1.0, 2.0),
                              "worst_cell_reject", measure)
    return constants, {"trials_per_cell": n, "grid": _REJECT_GRID,
                       "ladder": rows}


def _calibrate_kappa_krylov(seed0: int,
                            trials: Optional[int]) -> Tuple[dict, dict]:
    n = 20 if trials is None else trials

    def measure(kappa: float) -> dict:
        return _reject_row(
            {"kappa": kappa}, n, seed0,
            lambda op, eps, seed: krylov_tester(
                op, eps, 1.0, repeats=3, rng=seed, kappa=kappa).is_psd)

    constants, rows = _ladder("KRYLOV_KAPPA", (0.5, 1.0, 2.0, 4.0),
                              "worst_cell_reject", measure)
    exponent = None
    if constants:
        exponent = scaling_report(
            "krylov", 1.0, (0.2, 0.1, 0.05, 0.02), (256,),
            trials=max(10, n // 2), seed0=seed0)["size_slopes"]["vs_inv_eps"]
    return constants, {"trials_per_cell": n, "grid": _REJECT_GRID,
                       "ladder": rows, "exponent_vs_inv_eps": exponent}


def _calibrate_embed_rows(seed0: int,
                          trials: Optional[int]) -> Tuple[dict, dict]:
    from .spectrum import affine_embedding

    n_seeds = 20 if trials is None else trials
    rank, cols, d, n_x = 5, 2, 240, 100

    def measure(mult: int) -> dict:
        good = 0
        for s in range(n_seeds):
            gen = rng_from(seed0 + s, _SPECTRUM_STREAM)
            a = gen.standard_normal((d, rank))
            b = gen.standard_normal((d, cols))
            sk = affine_embedding(mult * rank, d, seed0 + s)

            def distortion() -> float:
                resid = a @ gen.standard_normal((rank, cols)) - b
                exact = float(np.linalg.norm(resid) ** 2)
                return abs(float(np.linalg.norm(sk @ resid) ** 2) / exact - 1.0)

            good += all(distortion() <= 0.3 for _ in range(n_x))
        return {"rows_per_rank": mult, "rows": mult * rank,
                "seed_pass_rate": good / n_seeds}

    # A rung with more rows than d leaves no compression to measure.
    rungs = [mult for mult in (10, 20, 40, 60) if mult * rank <= d]
    constants, rows = _ladder("EMBED_KAPPA", rungs, "seed_pass_rate", measure)
    return constants, {"seeds": n_seeds, "ladder": rows,
                       "shape": {"rank": rank, "cols": cols, "d": d,
                                 "n_x": n_x}}


_SUITE_FNS = {
    "c_psd": _calibrate_c_psd,
    "kappa_sketch": _calibrate_kappa_sketch,
    "kappa_oja": _calibrate_kappa_oja,
    "kappa_krylov": _calibrate_kappa_krylov,
    "embed_rows": _calibrate_embed_rows,
}

CALIBRATION_SUITES = tuple(_SUITE_FNS)


# Suites whose report digits depend on the BLAS thread count (their gamma
# sweeps run large sketch GEMMs); the other reports read the same at 1, 2
# and 4 threads.
_BLAS_BOUND_SUITES = ("c_psd", "kappa_sketch")


def calibrate(suite: str, *, seed0: int = 0, trials: Optional[int] = None,
              out_dir=None) -> Tuple[dict, dict]:
    """Run one calibration suite; returns (constants, report).

    The sweep is fully seeded, so re-running with the same seed0 reproduces
    the constants bit for bit.  ``trials`` overrides the per-cell sample
    count (tests use small values).  Every report carries ``suite``,
    ``seed0``, ``constants`` and ``separated``, written here.  When the
    sweep fails to separate, the constants map is empty, the report says
    so (``separated: false``) and carries the measured distributions, and
    the CLI exits 3.  When ``out_dir`` is set the report is written there
    as <suite>.json; for c_psd and kappa_sketch that raises ConfigError,
    before any sweep runs, unless OPENBLAS_NUM_THREADS is "1", and an
    ``out_dir`` that is not a path or cannot be created raises ConfigError
    before the sweep.
    """
    if suite not in _SUITE_FNS:
        raise ConfigError(f"unknown calibration suite {suite!r}; expected one "
                          f"of {', '.join(CALIBRATION_SUITES)}")
    seed0 = _check_int("seed0", seed0)
    if trials is not None:
        trials = _check_int("trials", trials, 1)
    _check_location("out_dir", out_dir)
    if (out_dir is not None and suite in _BLAS_BOUND_SUITES
            and os.environ.get("OPENBLAS_NUM_THREADS") != "1"):
        raise ConfigError(f"the {suite} report moves with the BLAS thread "
                          f"count; set OPENBLAS_NUM_THREADS=1 to write it "
                          f"(see defaults.py)")
    if out_dir is not None:
        _make_dir(out_dir)
    constants, report = _SUITE_FNS[suite](seed0, trials)
    report.update(suite=suite, seed0=seed0, constants=constants,
                  separated=bool(constants))
    if out_dir is not None:
        _write_json(Path(out_dir) / f"{suite}.json", report)
    return constants, report


# ---------------------------------------------------------------------------
# scaling report
# ---------------------------------------------------------------------------

# Hardness family per tester, each matching the structure its lower bound
# exploits.  Krylov needs positive mass spread over every scale (harmonic
# decay, so that no low-degree polynomial is small on all of it); the
# descent needs the single-scale cluster, where its fast and slow phases
# collapse into one; the Gaussian grids need a bulk of effective rank far
# above the budget (the flat boundary family), since a low-rank bulk lets
# the grid escape through the null space below the 1/eps law and a
# cluster's Wishart edge bends the exponent down.
_SCALING_FAMILY = {"oja_l1": "cluster_l1", "nonadaptive_l1": "far",
                   "krylov": "hard_l1", "nonadaptive_mv": "far"}


def _knob_run(tester: str, op: SymmetricOperator, eps: float, p: float,
              knob: int, seed: int) -> bool:
    """Run one trial at the given knob; True when the tester accepts."""
    if tester == "oja_l1":
        # The tester with one repetition and one step-size scale (its norm
        # probe's single scale), step pinned at the cap, in every cell,
        # reduced or not.  Amplified runs would make the resolved knob the
        # distribution's low detection-time quantile, and a step tied to eps
        # through the from_eps log term would drift across the sweep; both
        # inflate the fitted exponent with desk-scale log factors that have
        # nothing to do with the iteration count law.
        cfg = OjaConfig(eta=defaults.OJA_ETA_MAX, max_iters=knob,
                        eta_scales=1, amplification=1)
        return oja_l1_tester(op, eps, cfg, rng=seed).is_psd
    if tester == "nonadaptive_l1":
        # Shipped repeat count.  With a single repetition the 0.9 target sits
        # in the Wishart quantile tail, whose sqrt(m) correction bends the
        # fitted exponent; five repetitions put the per-run target near the
        # median crossing, where the grid size follows the clean law.
        return nonadaptive_l1_tester(op, eps, rng=seed,
                                     kappa=(knob - 0.5) * eps).is_psd
    factor = (unrounded_krylov_degree(eps, p, op.dim, 1.0) if tester == "krylov"
              else op.dim ** (1.0 - 1.0 / p) / eps)
    return _MV_TESTERS[tester](op, eps, p, repeats=1, rng=seed,
                               kappa=(knob - 0.5) / factor).is_psd


def _knob_cap(tester: str, d: int, eps: float) -> int:
    if tester == "oja_l1":
        # 64x the formula iteration count; a cell still failing there is
        # saturated, not underbudgeted, and more doubling would only burn
        # minutes confirming it.
        return 64 * OjaConfig.from_eps(eps, dim=d).max_iters
    if tester == "krylov":
        return d - 1
    return d


def _scaling_cell(tester: str, p: float, eps: float, d: int, trials: int,
                  seed0: int) -> dict:
    """Minimal integer knob whose reject rate reaches ``_TARGET``.

    Doubling finds an upper bracket, bisection closes it (to a ~12% window
    for the Oja iteration knob, exactly elsewhere).  Instances are rebuilt
    from their seeds at every evaluation, and the same trial seeds are used
    at every knob level, so the whole search is deterministic.
    """
    cap = _knob_cap(tester, d, eps)
    evals: Dict[int, Tuple[float, float, int]] = {}

    def evaluate(knob: int) -> Tuple[float, float, int]:
        if knob not in evals:
            evals[knob] = _sweep(
                _SCALING_FAMILY[tester], d, eps, p,
                range(seed0, seed0 + trials),
                lambda op, seed: _knob_run(tester, op, eps, p, knob, seed))
        return evals[knob]

    hi = 1
    while evaluate(hi)[0] < _TARGET and hi < cap:
        hi = min(cap, hi * 2)
    resolved = evals[hi][0] >= _TARGET
    lo = hi // 2
    slack = (lambda: max(1, lo // 8)) if tester == "oja_l1" else (lambda: 1)
    while resolved and hi - lo > slack():
        mid = (lo + hi) // 2
        if evaluate(mid)[0] >= _TARGET:
            hi = mid
        else:
            lo = mid
    rate, q_mean, q_max = evals[hi]
    return {"tester": tester, "p": p, "eps": eps, "d": d,
            "knob": hi if resolved else None, "success_rate": rate,
            "queries_mean": q_mean, "queries_max": q_max,
            "resolved": resolved}


def _loglog_slopes(rows: Sequence[dict],
                   field_name: str = "queries_mean",
                   ) -> Dict[str, Optional[float]]:
    """Least-squares slopes of log(field) against log(1/eps) and log(d).

    Both regressors enter one design matrix when both vary, so a grid run
    yields the two exponents jointly; a constant axis is dropped and its
    slope reported as None.
    """
    usable = [r for r in rows if r["resolved"]]
    if len(usable) < 2:
        return {"vs_inv_eps": None, "vs_d": None}
    inv_eps = np.array([math.log(1.0 / r["eps"]) for r in usable])
    dims = np.array([math.log(r["d"]) for r in usable])
    y = np.array([math.log(r[field_name]) for r in usable])
    columns = [np.ones(len(usable))]
    axes = []
    if np.ptp(inv_eps) > 1e-12:
        columns.append(inv_eps)
        axes.append("vs_inv_eps")
    if np.ptp(dims) > 1e-12:
        columns.append(dims)
        axes.append("vs_d")
    slopes: Dict[str, Optional[float]] = {"vs_inv_eps": None, "vs_d": None}
    if axes:
        coef, *_ = np.linalg.lstsq(np.column_stack(columns), y, rcond=None)
        for j, name in enumerate(axes):
            slopes[name] = float(coef[1 + j])
    return slopes


def scaling_report(tester: str, p: float, eps_list: Sequence[float],
                   d_list: Sequence[int], *, trials: int = 20,
                   seed0: int = 0, out_path=None) -> dict:
    """Minimal query budgets over an (eps, d) grid plus log-log slope fits.

    Per cell, the tester's size knob (Oja iterations, sketch columns, Krylov
    degree, matvec columns) is bisected for the smallest value whose reject
    rate on freshly drawn far instances reaches ``_TARGET``; the reported
    budget is the measured oracle query count at that knob.  The instances
    are the hard trace-norm family for the l1 testers and the Frobenius
    boundary family for nonadaptive_mv (see the spectrum builders above).

    Two slope fits come back: ``slopes`` on the measured query counts and
    ``size_slopes`` on the resolved knob itself.  Each trial carries a small
    query overhead that is constant in the knob (the confirming quad form,
    the matvec that closes a Krylov projection, the m-vmv norm probe of
    Oja), so when the resolved knobs
    are single digits the queries fit sits visibly below the knob fit; the
    two agree in the regime where the knob dominates the budget.  Exponent
    checks should read ``size_slopes``, capacity planning ``slopes``.  The
    directory of ``out_path`` is created before the sweep; ConfigError if
    ``out_path`` is not a path or the directory cannot be made.
    """
    if tester not in _SCALING_FAMILY:
        raise ConfigError(f"no size knob wired for tester {tester!r}; "
                          f"expected one of {', '.join(_SCALING_FAMILY)}")
    if not eps_list or not d_list:
        raise ConfigError("eps_list and d_list must be non-empty")
    eps_list = [_check_eps(eps, "eps values must be in (0, 1)")
                for eps in eps_list]
    d_list = [_check_int("every dim", d, 8) for d in d_list]
    if max(d_list) > MAX_DENSE_DIM:
        raise ConfigError(f"every dim must be at most the dense cap "
                          f"{MAX_DENSE_DIM}, got {max(d_list)}")
    p = _check_p(tester, p)
    trials = _check_int("trials", trials, 1)
    seed0 = _check_int("seed0", seed0)
    _check_location("out_path", out_path)
    if out_path is not None:
        _make_dir(Path(out_path).parent)
    rows = [_scaling_cell(tester, p, eps, d, trials, seed0)
            for eps in eps_list for d in d_list]
    report = {"tester": tester, "p": p, "trials": trials, "seed0": seed0,
              "target": _TARGET, "rows": rows,
              "slopes": _loglog_slopes(rows),
              "size_slopes": _loglog_slopes(rows, "knob")}
    if out_path is not None:
        _write_json(out_path, report)
    return report
