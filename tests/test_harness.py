"""Tests for the experiment harness and its CLI front end."""

import json
import math

import numpy as np
import pytest

from psdprobe import harness
from psdprobe.cli import main
from psdprobe.harness import (
    CSV_FIELDS,
    ConfigError,
    ExperimentConfig,
    TrialRecord,
    calibrate,
    cluster_l1_spectrum,
    far_spectrum,
    hard_l1_spectrum,
    instance_operator,
    run_experiment,
    scaling_report,
    summarize,
    truth_label,
    write_records_csv,
)
from psdprobe.oracle import SymmetricOperator, rng_from


def far_config(tmp_path=None, **overrides):
    base = dict(tester="nonadaptive_l1", instance={"kind": "far", "dim": 24},
                eps=0.3, trials=5, seed0=7)
    if tmp_path is not None:
        base["output_path"] = str(tmp_path / "records.csv")
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# instance families
# ---------------------------------------------------------------------------

def test_far_spectrum_sits_exactly_on_the_promise_boundary():
    for p in (1.0, 2.0, 4.0, math.inf):
        lam = far_spectrum(64, 0.15, p, rng_from(3, 0x7E57))
        mags = np.abs(lam)
        norm = mags.max() if math.isinf(p) else (mags ** p).sum() ** (1.0 / p)
        assert lam[0] == pytest.approx(-0.15 * norm, rel=1e-12)
        assert (lam[1:] > 0).all()


def test_hard_l1_spectrum_promise_and_depth():
    gen = rng_from(5, 0x7E57)
    lam = hard_l1_spectrum(128, 0.1, gen)
    assert lam[0] == pytest.approx(-0.1 * np.abs(lam).sum(), rel=1e-12)
    # More spikes survive the depth cutoff as eps shrinks.
    wide = hard_l1_spectrum(128, 0.02, rng_from(5, 0x7E57))
    assert np.count_nonzero(wide[1:]) > np.count_nonzero(lam[1:])


def test_cluster_l1_spectrum_trace_norm_is_inverse_eps():
    gen = rng_from(9, 0x7E57)
    lam = cluster_l1_spectrum(64, 0.1, gen)
    assert lam[0] == -1.0
    assert float(np.abs(lam).sum()) == pytest.approx(10.0, rel=1e-12)
    assert np.count_nonzero(lam[1:]) == round(0.9 / 0.125)
    with pytest.raises(ConfigError):
        cluster_l1_spectrum(8, 0.02, gen)


def test_instance_operator_families():
    op = instance_operator({"kind": "identity", "dim": 12}, 0.2, 1.0, 0)
    np.testing.assert_array_equal(op.dense(), np.eye(12))

    far = instance_operator({"kind": "far", "dim": 16}, 0.2, 1.0, 3)
    assert truth_label(far, 0.2, 1.0) is False

    gap = instance_operator({"kind": "gap", "dim": 16}, 0.2, 1.0, 3)
    assert truth_label(gap, 0.2, 1.0) is None

    psd = instance_operator({"kind": "random_psd", "dim": 16}, 0.2, 1.0, 3)
    assert truth_label(psd, 0.2, 1.0) is True

    wis = instance_operator({"kind": "wishart", "dim": 16}, 0.2, 1.0, 3)
    assert wis.dim == 16 and truth_label(wis, 0.2, 1.0) is True

    rot = instance_operator({"kind": "rotated_diag",
                             "eigenvalues": [1.0, 2.0, 3.0]}, 0.2, 1.0, 3)
    np.testing.assert_allclose(rot.eigenvalues(), [1.0, 2.0, 3.0], atol=1e-12)


def test_instance_operator_trial_seed_controls_the_draw():
    desc = {"kind": "far", "dim": 10}
    a = instance_operator(desc, 0.2, 1.0, 4).dense()
    b = instance_operator(desc, 0.2, 1.0, 4).dense()
    c = instance_operator(desc, 0.2, 1.0, 5).dense()
    np.testing.assert_array_equal(a, b)
    assert np.abs(a - c).max() > 1e-3


def test_instance_operator_validates():
    with pytest.raises(ConfigError):
        instance_operator({"kind": "nope", "dim": 8}, 0.2, 1.0, 0)
    with pytest.raises(ConfigError):
        instance_operator({"kind": "far"}, 0.2, 1.0, 0)
    with pytest.raises(ConfigError):
        instance_operator({"kind": "far", "dim": 1}, 0.2, 1.0, 0)
    with pytest.raises(ConfigError):
        instance_operator({"kind": "gap", "dim": 8, "depth": 1.5}, 0.2, 1.0, 0)


def test_truth_label_tolerates_eigensolver_noise():
    op = SymmetricOperator(np.diag([1.0, -1e-14]))
    assert truth_label(op, 0.2, 1.0) is True


_LABEL_FAMILIES = (
    {"kind": "identity", "dim": 32},
    {"kind": "random_psd", "dim": 32},
    {"kind": "far", "dim": 32},
    {"kind": "hard_l1", "dim": 32},
    {"kind": "cluster_l1", "dim": 32},
    {"kind": "gap", "dim": 32},
)


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_carried_spectrum_labels_match_eigvalsh_of_the_backing(p):
    # The reference operator gets the same backing and no spectrum, so it
    # labels through eigvalsh of the dense matrix.
    eps = 0.2
    labels = set()
    for seed in range(5):
        lam = far_spectrum(32, eps, p, rng_from(seed, 0x7E57))
        rotated = {"kind": "rotated_diag", "eigenvalues": list(lam)}
        for desc in _LABEL_FAMILIES + (rotated,):
            op = instance_operator(desc, eps, p, seed)
            ref = SymmetricOperator(op.dense())
            assert truth_label(op, eps, p) == truth_label(ref, eps, p), \
                (desc["kind"], seed)
            labels.add(truth_label(op, eps, p))
            for q in (1.0, 2.0, math.inf):
                assert op.schatten_norm(q) == pytest.approx(
                    ref.schatten_norm(q), rel=1e-12, abs=0.0)
    assert labels == {True, False, None}


def test_rotated_and_diagonal_instances_are_never_eigendecomposed(
        monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for kind in ("random_psd", "far"):
        records, _ = run_experiment(far_config(
            tester="krylov", instance={"kind": kind, "dim": 24}, eps=0.2,
            trials=3))
        assert {r.truth for r in records} == {kind == "random_psd"}
    records, _ = run_experiment(far_config(
        tester="spectrum", eps=0.25, trials=2, constants={"k": 1},
        instance={"kind": "rotated_diag", "eigenvalues": [3.0] + [1.0] * 7}))
    assert all(r.truth is True for r in records)
    # Calibration labels its diagonal instances through schatten_norm.
    assert calibrate("kappa_krylov", seed0=0, trials=1)[1]["separated"]
    # An instance built without a spectrum still reaches the decomposition.
    with pytest.raises(AssertionError, match="eigvalsh called"):
        run_experiment(far_config(tester="krylov",
                                  instance={"kind": "wishart", "dim": 16},
                                  trials=1))


# ---------------------------------------------------------------------------
# experiment configs
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        far_config(tester="nope")
    with pytest.raises(ConfigError):
        far_config(instance={"dim": 8})
    with pytest.raises(ConfigError):
        far_config(instance=["far"])
    with pytest.raises(ConfigError):
        far_config(trials=0)
    with pytest.raises(ConfigError):
        far_config(seed0="zero")
    with pytest.raises(ConfigError):
        far_config(eps=1.0)
    with pytest.raises(ConfigError):
        far_config(p=0.5)
    with pytest.raises(ConfigError):
        far_config(constants={"kappa": -1.0})
    with pytest.raises(ConfigError):
        far_config(constants={"kappa": "big"})


def test_run_experiment_rejects_non_config():
    with pytest.raises(ConfigError):
        run_experiment({"tester": "krylov"})


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

def test_run_experiment_records_and_output_files(tmp_path):
    cfg = far_config(tmp_path, trials=6, seed0=11)
    records, summary = run_experiment(cfg)
    assert [r.seed for r in records] == list(range(11, 17))
    assert all(r.truth is False for r in records)
    # m is capped at the dimension here, so one repetition always suffices
    # and the grid cost is exactly m(m+1)/2 bilinear queries.
    assert all(not r.verdict for r in records)
    assert all(r.queries_vmv == 24 * 25 // 2 for r in records)
    assert all(r.queries_mv == 0 for r in records)
    assert all(r.witness_valid for r in records)
    assert summary["counts"] == {"psd": 0, "far": 6, "gap": 0}
    assert summary["reject_given_far"] == 1.0
    assert summary["accept_given_psd"] is None

    lines = (tmp_path / "records.csv").read_text().splitlines()
    assert lines[0] == ",".join(CSV_FIELDS)
    assert len(lines) == 7
    on_disk = json.loads((tmp_path / "records.summary.json").read_text())
    assert on_disk["counts"]["far"] == 6
    assert on_disk["instance"] == {"kind": "far", "dim": 24}


def test_run_experiment_gap_trials_are_excluded_from_rates():
    cfg = far_config(instance={"kind": "gap", "dim": 20}, trials=5)
    records, summary = run_experiment(cfg)
    assert all(r.truth is None for r in records)
    assert summary["counts"] == {"psd": 0, "far": 0, "gap": 5}
    assert summary["accept_given_psd"] is None
    assert summary["reject_given_far"] is None


def test_run_experiment_krylov_rejections_carry_checked_witnesses():
    cfg = far_config(tester="krylov", instance={"kind": "far", "dim": 32},
                     eps=0.2, trials=4, seed0=5)
    records, _ = run_experiment(cfg)
    for r in records:
        assert not r.verdict
        assert r.witness_valid is True
        assert r.queries_mv > 0
        assert r.queries_vmv >= 1  # the confirming quadratic form


def test_run_experiment_krylov_accepts_the_zero_matrix():
    # The exact norm bound of A = 0 is 0; the run must accept, not raise.
    cfg = far_config(tester="krylov", trials=2,
                     instance={"kind": "rotated_diag",
                               "eigenvalues": [0.0] * 8})
    records, summary = run_experiment(cfg)
    assert [r.verdict for r in records] == [True, True]
    assert all(r.truth is True for r in records)
    assert summary["accept_given_psd"] == 1.0


def test_run_experiment_spectrum_dispatch():
    cfg = far_config(tester="spectrum", instance={"kind": "random_psd",
                                                  "dim": 10},
                     eps=0.25, trials=4, seed0=3, constants={"k": 2})
    records, summary = run_experiment(cfg)
    for r in records:
        assert r.truth is True
        assert r.queries_mv + r.queries_vmv > 0
        if r.statistic is not None:
            assert (r.statistic <= 1.0) == r.verdict
    assert summary["accept_given_psd"] >= 0.75


def test_run_experiment_is_byte_deterministic(tmp_path):
    frozen = lambda: 41.0
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_experiment(far_config(output_path=str(out1)), clock=frozen)
    run_experiment(far_config(output_path=str(out2)), clock=frozen)
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "a.summary.json").read_bytes() == \
        (tmp_path / "b.summary.json").read_bytes()


def test_run_experiment_worker_count_never_changes_records(tmp_path):
    cfg = far_config(trials=6)
    serial, _ = run_experiment(cfg)
    pooled, _ = run_experiment(cfg, workers=2)
    strip = lambda r: (r.seed, r.truth, r.verdict, r.queries_mv,
                       r.queries_vmv, r.statistic, r.witness_valid)
    assert [strip(r) for r in serial] == [strip(r) for r in pooled]


# ---------------------------------------------------------------------------
# summaries and CSV cells
# ---------------------------------------------------------------------------

def rec(seed, truth, verdict, stat):
    return TrialRecord(seed=seed, truth=truth, verdict=verdict, queries_mv=3,
                       queries_vmv=1, statistic=stat, witness_valid=None,
                       wall_time_ms=2.0)


def test_summarize_conditions_on_truth():
    records = [rec(0, True, True, 1.0), rec(1, True, False, 2.0),
               rec(2, False, False, 3.0), rec(3, None, True, None)]
    s = summarize(records)
    assert s["trials"] == 4
    assert s["counts"] == {"psd": 2, "far": 1, "gap": 1}
    assert s["accept_given_psd"] == 0.5
    assert s["reject_given_far"] == 1.0
    assert s["queries"]["mv_mean"] == 3.0
    assert s["queries"]["vmv_max"] == 1
    assert s["statistic_quantiles"]["q50"] == 2.0
    assert s["wall_time_ms_total"] == 8.0


def test_csv_cells_cover_blank_bool_and_float(tmp_path):
    records = [TrialRecord(seed=1, truth=None, verdict=False, queries_mv=0,
                           queries_vmv=10, statistic=None, witness_valid=True,
                           wall_time_ms=0.25)]
    path = tmp_path / "cells.csv"
    write_records_csv(path, records)
    lines = path.read_text().splitlines()
    assert lines[1] == "1,,false,0,10,,true,0.25"


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def test_calibrate_validates():
    with pytest.raises(ConfigError):
        calibrate("nope")
    with pytest.raises(ConfigError):
        calibrate("embed_rows", trials=0)


def test_calibrate_embed_rows_writes_a_reproducible_report(tmp_path):
    constants, report = calibrate("embed_rows", seed0=0, trials=2,
                                  out_dir=tmp_path)
    assert report["separated"] is True
    assert constants["EMBED_KAPPA"] in (10.0, 20.0, 40.0, 60.0)
    again, _ = calibrate("embed_rows", seed0=0, trials=2)
    assert again == constants
    on_disk = json.loads((tmp_path / "embed_rows.json").read_text())
    assert on_disk["constants"] == constants


def test_calibrate_kappa_krylov_resolves_and_fits():
    constants, report = calibrate("kappa_krylov", seed0=0, trials=2)
    assert report["separated"] is True
    assert constants["KRYLOV_KAPPA"] in (0.5, 1.0, 2.0, 4.0)
    assert 0.0 < report["exponent_vs_inv_eps"] < 1.0


# ---------------------------------------------------------------------------
# scaling report
# ---------------------------------------------------------------------------

def test_scaling_report_validates():
    with pytest.raises(ConfigError):
        scaling_report("bilinear_sketch", 2.0, (0.2,), (32,))
    with pytest.raises(ConfigError):
        scaling_report("krylov", 1.0, (), (32,))
    with pytest.raises(ConfigError):
        scaling_report("krylov", 1.0, (0.2,), (4,))
    with pytest.raises(ConfigError):
        scaling_report("krylov", 1.0, (1.2,), (32,))
    with pytest.raises(ConfigError):
        scaling_report("krylov", 0.5, (0.2,), (32,))


def test_scaling_report_small_grid_resolves_budgets():
    rep = scaling_report("nonadaptive_l1", 1.0, (0.3, 0.15), (32,), trials=6,
                         seed0=2)
    assert [r["resolved"] for r in rep["rows"]] == [True, True]
    knobs = [r["knob"] for r in rep["rows"]]
    assert all(isinstance(k, int) and k >= 1 for k in knobs)
    assert knobs[1] >= knobs[0]
    for row in rep["rows"]:
        assert row["success_rate"] >= 0.9
        assert row["queries_mean"] >= row["knob"] * (row["knob"] + 1) / 2
    assert rep["slopes"]["vs_inv_eps"] is not None
    assert rep["slopes"]["vs_d"] is None
    assert "size_slopes" in rep


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def write_config(tmp_path, **overrides):
    data = dict(tester="nonadaptive_l1", instance={"kind": "far", "dim": 24},
                eps=0.3, trials=4, seed0=1,
                output_path=str(tmp_path / "out.csv"))
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_cli_run_json_format(tmp_path, capsys):
    rc = main(["run", "--config", write_config(tmp_path), "--format", "json"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["trials"] == 4
    assert summary["reject_given_far"] == 1.0
    assert (tmp_path / "out.csv").exists()


def test_cli_run_seed_and_trials_flags_override(tmp_path, capsys):
    rc = main(["run", "--config", write_config(tmp_path), "--seed", "30",
               "--trials", "2", "--format", "json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["seed0"] == 30
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("30,")


def test_cli_run_config_errors_exit_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    assert main(["run", "--config", write_config(tmp_path, tester="nope")]) == 2
    assert main(["run", "--config",
                 write_config(tmp_path, budget=9)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_cli_scaling_writes_rows_and_slopes(tmp_path, capsys):
    rc = main(["scaling", "--tester", "nonadaptive_l1", "--eps", "0.3,0.15",
               "--dims", "32", "--trials", "4", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "slope vs_inv_eps:" in out
    assert "size slope vs_inv_eps:" in out
    csv_lines = (tmp_path / "nonadaptive_l1_scaling.csv").read_text().splitlines()
    assert csv_lines[0].startswith("tester,p,eps,d,knob")
    assert len(csv_lines) == 3
    report = json.loads((tmp_path / "nonadaptive_l1_scaling.json").read_text())
    assert report["tester"] == "nonadaptive_l1"


def test_cli_scaling_rejects_bad_grids(tmp_path, capsys):
    base = ["scaling", "--tester", "krylov", "--out", str(tmp_path)]
    assert main(base + ["--eps", "0.2", "--dims", "31.5"]) == 2
    assert main(base + ["--eps", "", "--dims", "32"]) == 2
    assert main(["scaling", "--tester", "spectrum", "--eps", "0.2",
                 "--dims", "32", "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_cli_calibrate_exit_codes(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(
        harness._SUITE_FNS, "embed_rows",
        lambda seed0, trials: ({"EMBED_KAPPA": 40.0},
                               {"suite": "embed_rows", "separated": True}))
    rc = main(["calibrate", "--suite", "embed_rows", "--out", str(tmp_path)])
    assert rc == 0
    assert "EMBED_KAPPA = 40.0" in capsys.readouterr().out

    monkeypatch.setitem(
        harness._SUITE_FNS, "embed_rows",
        lambda seed0, trials: ({}, {"suite": "embed_rows",
                                    "separated": False}))
    rc = main(["calibrate", "--suite", "embed_rows", "--out", str(tmp_path)])
    assert rc == 3
    assert "failed to separate" in capsys.readouterr().err
    assert (tmp_path / "embed_rows.json").exists()


def test_cli_calibrate_unknown_suite_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["calibrate", "--suite", "nope", "--out", str(tmp_path)])
    assert excinfo.value.code == 2
    capsys.readouterr()
