"""Tests for the experiment harness and its CLI front end."""

import hashlib
import json
import math

import numpy as np
import pytest

from psdprobe import harness, oracle
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
from psdprobe.vmv_testers import adaptive_l2_tester, oja_l1_tester


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
    assert truth_label(far.eigenvalues(), 0.2, 1.0) is False

    gap = instance_operator({"kind": "gap", "dim": 16}, 0.2, 1.0, 3)
    assert truth_label(gap.eigenvalues(), 0.2, 1.0) is None

    psd = instance_operator({"kind": "random_psd", "dim": 16}, 0.2, 1.0, 3)
    assert truth_label(psd.eigenvalues(), 0.2, 1.0) is True

    wis = instance_operator({"kind": "wishart", "dim": 16}, 0.2, 1.0, 3)
    assert wis.dim == 16 and truth_label(wis.eigenvalues(), 0.2, 1.0) is True

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


def test_instance_operator_shares_one_rotation_per_dimension():
    # Trials at one d differ in their spectra only: every rotated instance
    # reuses one memoized Haar Q, so a second seed pays no QR and the two
    # backings share an eigenbasis.
    oracle._haar_orthogonal.cache_clear()
    a = instance_operator({"kind": "far", "dim": 40}, 0.2, 1.0, 1).dense()
    b = instance_operator({"kind": "random_psd", "dim": 40}, 0.2, 1.0, 2).dense()
    info = oracle._haar_orthogonal.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert np.abs(a @ b - b @ a).max() < 1e-12
    assert np.abs(a - b).max() > 1e-3


def test_instance_operator_rotation_is_pinned():
    # The bytes of one rotated backing, so that the shared rotation (its
    # seed, stream and sign fix) cannot drift silently.  They pin float bit
    # patterns, so they hold for one numpy/BLAS build.
    a = instance_operator({"kind": "random_psd", "dim": 24}, 0.3, 1.0, 5).dense()
    assert hashlib.sha1(a.tobytes()).hexdigest() == \
        "1a8aa6ac6b99e0811d13be9c354ffb36bb165b43"


def test_instance_operator_validates():
    with pytest.raises(ConfigError):
        instance_operator({"kind": "nope", "dim": 8}, 0.2, 1.0, 0)
    with pytest.raises(ConfigError):
        instance_operator({"kind": "far"}, 0.2, 1.0, 0)
    with pytest.raises(ConfigError):
        instance_operator({"kind": "far", "dim": 1}, 0.2, 1.0, 0)
    with pytest.raises(ConfigError):
        instance_operator({"kind": "gap", "dim": 8, "depth": 1.5}, 0.2, 1.0, 0)


@pytest.mark.parametrize("desc", [
    {"kind": "rotated_diag", "eigenvalues": [1.0, -2.0, 0.5], "seed": 4},
    {"kind": "wishart", "dim": 12, "seed": 4},
    {"kind": "spiked", "dim": 8, "s": 1.5, "shift": 6.0, "seed": 4},
])
def test_descriptor_round_trip(desc):
    op = instance_operator(desc, 0.2, 1.0, 4)
    op2 = instance_operator(dict(desc), 0.2, 1.0, 4)
    np.testing.assert_array_equal(op.dense(), op2.dense())
    # The trial seed builds the instance; a seed in the descriptor is ignored.
    reseeded = instance_operator({**desc, "seed": 99}, 0.2, 1.0, 4)
    np.testing.assert_array_equal(op.dense(), reseeded.dense())


@pytest.mark.parametrize("desc,field", [
    ({"kind": "wishart", "dim": "16"}, "dim"),
    ({"kind": "wishart", "dim": True}, "dim"),
    ({"kind": "spiked", "dim": 1.5, "s": 3.0, "shift": 0.0}, "dim"),
    ({"kind": "spiked", "dim": 8, "s": "3", "shift": 0.0}, "'s'"),
    ({"kind": "spiked", "dim": 8, "s": 3.0, "shift": None}, "'shift'"),
    ({"kind": "gap", "dim": 8, "depth": "x"}, "'depth'"),
    ({"kind": "spiked", "dim": 8, "s": math.nan, "shift": 0.0}, "'s'"),
    ({"kind": "spiked", "dim": 8, "s": 3.0, "shift": math.inf}, "'shift'"),
    ({"kind": "spiked", "dim": 8, "s": 3.0, "shift": -math.inf}, "'shift'"),
    ({"kind": "gap", "dim": 8, "depth": math.nan}, "'depth'"),
])
def test_descriptor_dim_and_number_fields_are_checked_for_every_kind(desc,
                                                                     field):
    with pytest.raises(ConfigError, match=field):
        instance_operator(desc, 0.2, 1.0, 0)


@pytest.mark.parametrize("desc,error,match", [
    pytest.param({"kind": "nope"}, ValueError, "'nope'", id="desc0"),
    pytest.param({"kind": "wishart", "seed": 1}, ConfigError,
                 "missing field 'dim'", id="desc1"),
    pytest.param({"kind": "rotated_diag", "seed": 1}, ConfigError,
                 "missing field 'eigenvalues'", id="desc2"),
    pytest.param("not a dict", ValueError, "must be a dict", id="not a dict"),
])
def test_descriptor_errors_are_value_errors(desc, error, match):
    with pytest.raises(error, match=match):
        instance_operator(desc, 0.2, 1.0, 4)


@pytest.mark.parametrize("eigenvalues", [
    ["1", "2"], [True, False], 5, "12", None, [3.0],
    [1.0, float("nan")], [1.0, float("inf")], [1.0, [2.0]],
])
def test_rotated_diag_eigenvalues_must_be_finite_numbers(tmp_path, capsys,
                                                          eigenvalues):
    desc = {"kind": "rotated_diag", "eigenvalues": eigenvalues}
    with pytest.raises(ConfigError, match="'eigenvalues'"):
        instance_operator(desc, 0.2, 1.0, 0)
    assert main(["run", "--config", write_config(tmp_path, instance=desc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'eigenvalues'" in err


def test_truth_label_tolerates_eigensolver_noise():
    op = SymmetricOperator(np.diag([1.0, -1e-14]))
    assert truth_label(op.eigenvalues(), 0.2, 1.0) is True


@pytest.mark.parametrize("p,norm", [(1.0, 8.0), (2.0, math.sqrt(26.0)),
                                    (math.inf, 4.0)])
def test_truth_label_reads_the_schatten_norm_of_the_eigenvalues(p, norm):
    # lambda_min = -4 is eps-far exactly when eps <= 4 / ||A||_p; just above
    # that it sits in the promise gap.
    eigs = np.array([-4.0, 0.0, 1.0, 3.0])
    op = oracle.gen_rotated_diag(oracle.SpectrumInstance(
        eigenvalues=(3.0, -4.0, 0.0, 1.0), rotation_seed=5))
    for lam in (eigs, op.eigenvalues()):
        assert truth_label(lam, 4.0 / norm * (1.0 - 1e-6), p) is False
        assert truth_label(lam, 4.0 / norm * (1.0 + 1e-6), p) is None
    assert truth_label(np.sort(np.abs(eigs)), 0.2, p) is True


_LABEL_KINDS = (
    {"kind": "identity", "dim": 32},
    {"kind": "random_psd", "dim": 32},
    {"kind": "far", "dim": 32},
    {"kind": "hard_l1", "dim": 32},
    {"kind": "cluster_l1", "dim": 32},
    {"kind": "gap", "dim": 32},
    {"kind": "wishart", "dim": 16},
    {"kind": "spiked", "dim": 8, "s": 3.0, "shift": 6.5},
)


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_carried_spectrum_labels_match_eigvalsh_of_the_backing(p):
    # The eigenvalues a trial is labelled from are those its backing holds:
    # the drawn spectrum of every rotated kind matches eigvalsh of the dense
    # matrix, and both give one label.
    eps = 0.2
    labels = set()
    for seed in range(5):
        lam = far_spectrum(32, eps, p, rng_from(seed, 0x7E57))
        rotated = {"kind": "rotated_diag", "eigenvalues": list(lam)}
        for desc in _LABEL_KINDS + (rotated,):
            op, eigs = harness._instance(desc, eps, p, seed)
            ref = np.linalg.eigvalsh(op.dense())
            np.testing.assert_allclose(
                eigs, ref, rtol=0.0, atol=1e-9 * float(np.abs(ref).max()))
            label = truth_label(eigs, eps, p)
            assert label == truth_label(ref, eps, p), (desc["kind"], seed)
            labels.add(label)
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
    # Calibration builds diagonal instances and labels none of them.
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
    for eps in ("0.1", None, True):
        with pytest.raises(ConfigError, match="eps must be a number"):
            far_config(eps=eps)
    for p in ("2", None, True):
        with pytest.raises(ConfigError, match="p must be a number"):
            far_config(p=p)


def test_config_rejects_constants_the_tester_does_not_read():
    with pytest.raises(ConfigError, match="amplification, iter_scale"):
        far_config(tester="oja_l1", constants={"kapa": 2.0})
    with pytest.raises(ConfigError, match="amplification, iter_scale"):
        far_config(tester="oja_l1", constants={"repeats": 3})
    with pytest.raises(ConfigError, match="whole number"):
        far_config(constants={"repeats": 2.7})
    with pytest.raises(ConfigError, match="whole number"):
        far_config(tester="spectrum", constants={"k": 1.5})
    with pytest.raises(ConfigError, match="finite"):
        far_config(constants={"kappa": math.inf})
    # Strings and bools are not numbers, though float() would read them.
    for value in ("2.0", True):
        with pytest.raises(ConfigError, match="finite positive number"):
            far_config(constants={"kappa": value})
        with pytest.raises(ConfigError, match="finite positive number"):
            far_config(tester="spectrum", constants={"k": value})
    # A whole number given as a float is passed on as an int.
    records, _ = run_experiment(far_config(tester="krylov", trials=1,
                                           constants={"repeats": 2.0}))
    assert records[0].verdict is False


def test_config_rejects_a_p_the_tester_does_not_test():
    for tester, p in (("nonadaptive_l1", 2.0), ("oja_l1", 2),
                      ("bilinear_sketch", 1.0), ("bilinear_sketch", 3.0),
                      ("adaptive_l2", 1.0)):
        with pytest.raises(ConfigError, match=f"tester {tester} tests p = "):
            far_config(tester=tester, p=p)
    for tester, p in (("nonadaptive_l1", 1), ("bilinear_sketch", 2.0),
                      ("krylov", 3.0), ("nonadaptive_mv", math.inf)):
        assert far_config(tester=tester, p=p).p == p
    # The scaling sweep builds the nonadaptive_l1 far family at the given p.
    with pytest.raises(ConfigError, match="tests p = 1 only, got p=2.0"):
        scaling_report("nonadaptive_l1", 2.0, (0.2,), (32,))
    with pytest.raises(ConfigError, match="tests p = 1 only"):
        scaling_report("oja_l1", 2.0, (0.2,), (32,))


def test_config_refuses_a_spectrum_rank_above_the_instance_d(tmp_path):
    out = tmp_path / "kcheck" / "spectrum" / "r.csv"
    with pytest.raises(ConfigError, match="d=6 operator, got k=9"):
        ExperimentConfig(tester="spectrum", instance={"kind": "wishart",
                                                      "dim": 6},
                         eps=0.3, constants={"k": 9}, output_path=str(out))
    assert not (tmp_path / "kcheck").exists()
    # A spiked instance is 2 dim wide; rotated_diag as long as its spectrum.
    spiked = {"kind": "spiked", "dim": 3, "s": 1.0, "shift": 0.0}
    assert ExperimentConfig(tester="spectrum_adaptive", instance=spiked,
                            eps=0.3, constants={"k": 6}).constants == {"k": 6}
    with pytest.raises(ConfigError, match="d=6 operator, got k=7"):
        ExperimentConfig(tester="spectrum_adaptive", instance=spiked,
                         eps=0.3, constants={"k": 7})
    with pytest.raises(ConfigError, match="d=3 operator, got k=4"):
        ExperimentConfig(tester="spectrum", eps=0.3, constants={"k": 4},
                         instance={"kind": "rotated_diag",
                                   "eigenvalues": [1.0, 2.0, 3.0]})


def test_config_refuses_a_cluster_dim_too_small_for_its_eps(tmp_path):
    # eps 0.05 puts round(0.95 / 0.0625) = 15 positives beside the negative.
    out = tmp_path / "ccheck" / "krylov" / "r.csv"
    with pytest.raises(ConfigError, match="needs dim >= 16 at eps=0.05, "
                                          "got dim 8"):
        ExperimentConfig(tester="krylov", instance={"kind": "cluster_l1",
                                                    "dim": 8},
                         eps=0.05, output_path=str(out))
    assert not (tmp_path / "ccheck").exists()
    with pytest.raises(ConfigError, match="needs dim >= 16"):
        ExperimentConfig(tester="krylov", eps=0.05,
                         instance={"kind": "cluster_l1", "dim": 15})
    records, _ = run_experiment(ExperimentConfig(
        tester="krylov", eps=0.05, instance={"kind": "cluster_l1", "dim": 16}))
    assert records[0].truth is False


@pytest.mark.parametrize("desc", [
    {"kind": "random_psd", "dim": 5000},
    {"kind": "spiked", "dim": 3000, "s": 3.0, "shift": 6.5},
    {"kind": "rotated_diag", "eigenvalues": [1.0] * 5000},
])
def test_config_refuses_an_operator_above_the_dense_cap(tmp_path, capsys,
                                                        monkeypatch, desc):
    out = tmp_path / "cap" / "r.csv"
    with pytest.raises(ConfigError, match="above the dense cap 4096"):
        far_config(instance=desc, output_path=str(out))
    monkeypatch.setattr(harness, "_run_trial", _never)
    config = write_config(tmp_path, instance=desc, output_path=str(out))
    assert main(["run", "--config", config]) == 2
    assert "above the dense cap 4096" in capsys.readouterr().err
    assert not out.parent.exists()


def test_config_dense_cap_counts_the_spiked_embedding_twice():
    spiked = {"kind": "spiked", "dim": 2048, "s": 3.0, "shift": 6.5}
    assert far_config(instance=spiked).instance == spiked
    with pytest.raises(ConfigError, match="operator dimension 4098"):
        far_config(instance={**spiked, "dim": 2049})


@pytest.mark.parametrize("field,value", [("s", math.nan),
                                         ("shift", math.inf)])
def test_cli_run_non_finite_spiked_field_exits_2_before_any_work(
        tmp_path, capsys, monkeypatch, field, value):
    # json.load reads NaN and Infinity, so the descriptor check must.
    monkeypatch.setattr(harness, "_run_trial", _never)
    out = tmp_path / "out" / "r.csv"
    desc = {"kind": "spiked", "dim": 8, "s": 3.0, "shift": 6.5, field: value}
    config = write_config(tmp_path, tester="krylov", eps=0.2, instance=desc,
                          output_path=str(out))
    assert main(["run", "--config", config]) == 2
    assert f"instance field {field!r} must be a finite number" in \
        capsys.readouterr().err
    assert not out.parent.exists()


def test_scaling_report_refuses_a_dim_above_the_dense_cap(tmp_path,
                                                          monkeypatch):
    monkeypatch.setattr(harness, "_scaling_cell", _never)
    out = tmp_path / "sc" / "r.json"
    with pytest.raises(ConfigError, match="at most the dense cap 4096, "
                                          "got 5000"):
        scaling_report("krylov", 1.0, (0.2,), (32, 5000), out_path=out)
    assert not out.parent.exists()


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


def test_run_experiment_krylov_runs_at_p_infinity():
    for kind in ("far", "random_psd"):
        records, summary = run_experiment(far_config(
            tester="krylov", instance={"kind": kind, "dim": 32}, eps=0.2,
            p=math.inf, trials=3))
        assert {r.truth for r in records} == {kind == "random_psd"}
        assert all(r.queries_mv > 0 for r in records)
    assert summary["p"] == math.inf
    assert summary["accept_given_psd"] == 1.0


def test_run_experiment_krylov_accepts_the_zero_matrix():
    # The exact norm bound of A = 0 is 0; the run must accept, not raise.
    cfg = far_config(tester="krylov", trials=2,
                     instance={"kind": "rotated_diag",
                               "eigenvalues": [0.0] * 8})
    records, summary = run_experiment(cfg)
    assert [r.verdict for r in records] == [True, True]
    assert all(r.truth is True for r in records)
    assert summary["accept_given_psd"] == 1.0


def test_spiked_family_pairs_around_the_shift_and_is_labelled():
    d, shift = 16, 10.0
    for spike in (0.0, 3.0):
        desc = {"kind": "spiked", "dim": d, "s": spike, "shift": shift}
        op = instance_operator(desc, 0.2, 2.0, seed=3)
        assert op.dim == 2 * d
        a = op.dense()
        sigma = np.linalg.svd(a[:d, d:], compute_uv=False)
        expected = np.sort(np.concatenate([shift - sigma, shift + sigma]))
        np.testing.assert_allclose(op.eigenvalues(), expected,
                                   atol=1e-12 * float(np.abs(expected).max()))
        records, summary = run_experiment(far_config(
            tester="krylov", instance=desc, eps=0.2, p=2.0, trials=4))
        # Above the bulk edge without a spike; a spike of 3 pushes
        # shift - sigma_1 past -eps ||A||_2.
        assert [r.truth for r in records] == [spike == 0.0] * 4
        assert summary["counts"]["gap"] == 0
        assert all(r.witness_valid for r in records if not r.verdict)


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


_SPIKE = [5.0] + [1.0] * 15
_SPIKE_RADIUS = 0.2 * math.sqrt(40.0)  # eps ||A||_F of either spike


def test_spectrum_guarantee_fails_a_wrong_sign_estimate_at_k1():
    # lambda_1 = -5 clears |lambda_2| + 2 radius = 3.53, so coverage needs an
    # estimate within the radius, which a wrong-sign one cannot be.
    held, stat, signs = harness._spectrum_guarantee(
        [5.0], np.array([-5.0] + _SPIKE[1:]), 1, _SPIKE_RADIUS)
    assert (held, signs) == (False, False) and stat == 10.0 / _SPIKE_RADIUS
    held, stat, signs = harness._spectrum_guarantee(
        [-4.5], np.array([-5.0] + _SPIKE[1:]), 1, _SPIKE_RADIUS)
    assert (held, signs) == (True, True) and stat == 0.5 / _SPIKE_RADIUS


def test_spectrum_guarantee_checks_every_estimate_against_distinct_eigs():
    flat = np.ones(16)  # nothing qualifies for coverage
    held, stat, signs = harness._spectrum_guarantee([3.0], flat, 1, 0.8)
    assert (held, signs) == (False, None) and stat == 2.5
    # Two estimates may not share the one eigenvalue near them.
    held, stat, _ = harness._spectrum_guarantee([5.0, 5.0],
                                                np.array(_SPIKE), 2, 1.0)
    assert not held and stat == 4.0
    held, stat, _ = harness._spectrum_guarantee([5.0, 1.5],
                                                np.array(_SPIKE), 2, 1.0)
    assert held and stat == 0.5


@pytest.mark.parametrize("tester", ["spectrum", "spectrum_adaptive"])
def test_spike_trials_carry_a_statistic_that_sets_the_verdict(tester):
    for lam in (_SPIKE, [-5.0] + _SPIKE[1:]):
        records, _ = run_experiment(far_config(
            tester=tester, instance={"kind": "rotated_diag", "eigenvalues": lam},
            eps=0.2, p=2.0, trials=2, seed0=0, constants={"k": 1}))
        for r in records:
            assert r.statistic is not None and r.verdict == (r.statistic <= 1.0)
            assert r.verdict and r.witness_valid


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


def test_calibrate_and_scaling_reject_non_integer_trials():
    for trials in (2.5, True, "2"):
        with pytest.raises(ConfigError,
                           match="trials must be an integer >= 1, got"):
            calibrate("embed_rows", trials=trials)
        with pytest.raises(ConfigError,
                           match="trials must be an integer >= 1, got"):
            scaling_report("krylov", 1.0, (0.2,), (32,), trials=trials)


@pytest.mark.parametrize("seed0", ["3", 1.5, True])
def test_calibrate_and_scaling_reject_non_integer_seed0(seed0):
    with pytest.raises(ConfigError, match="seed0 must be an integer, got"):
        calibrate("embed_rows", seed0=seed0, trials=1)
    with pytest.raises(ConfigError, match="seed0 must be an integer, got"):
        scaling_report("krylov", 1.0, (0.2,), (32,), trials=1, seed0=seed0)


def test_numpy_floats_write_the_files_plain_floats_write(tmp_path):
    # 0.25 and 1.0 are exact in float32, so both sides run the same trials.
    for name, eps, p in (("float", 0.25, 1.0),
                         ("numpy", np.float32(0.25), np.float32(1.0))):
        out = tmp_path / name
        cfg = ExperimentConfig(tester="krylov",
                               instance={"kind": "far", "dim": 16}, eps=eps,
                               p=p, trials=3, output_path=str(out / "r.csv"))
        assert type(cfg.eps) is float and type(cfg.p) is float
        run_experiment(cfg, clock=lambda: 0.0)
        scaling_report("krylov", p, (eps,), (32,), trials=1,
                       out_path=out / "s.json")
    for name in ("r.csv", "r.summary.json", "s.json"):
        assert (tmp_path / "numpy" / name).read_bytes() == \
            (tmp_path / "float" / name).read_bytes()


def test_numpy_integers_write_the_reports_plain_integers_write(tmp_path):
    for name, trials, dim in (("int", 1, 32),
                              ("numpy", np.int64(1), np.int64(32))):
        out = tmp_path / name
        scaling_report("krylov", 1.0, (0.2,), (dim,), trials=trials,
                       out_path=out / "s.json")
        calibrate("embed_rows", trials=trials, out_dir=out)
    for report in ("s.json", "embed_rows.json"):
        assert (tmp_path / "numpy" / report).read_bytes() == \
            (tmp_path / "int" / report).read_bytes()


def test_check_int_takes_numpy_integers_and_refuses_bools_and_floats():
    for value in (7, np.int64(7), np.int32(7), np.uint8(7)):
        got = harness._check_int("n", value, 7)
        assert got == 7 and type(got) is int
    assert harness._check_int("seed0", np.int64(-3)) == -3
    for value in (True, np.bool_(True), 7.0, np.float64(7.0), "7", None):
        with pytest.raises(ConfigError, match="n must be an integer, got"):
            harness._check_int("n", value)
    for value in (1, np.int64(1)):
        with pytest.raises(ConfigError, match="n must be an integer >= 2, got"):
            harness._check_int("n", value, 2)


# Each numpy-typed descriptor holds the same numbers as its plain twin (all
# exact in float32), and runs with numpy-integer trials and seed0.
_NUMPY_TWINS = [
    ({"kind": "rotated_diag", "eigenvalues": [3.0, -1.0, 0.5, 2]},
     {"kind": "rotated_diag",
      "eigenvalues": [np.float32(3.0), np.float64(-1.0), 0.5, np.int64(2)]}),
    ({"kind": "spiked", "dim": 4, "s": 3.0, "shift": 6.5},
     {"kind": "spiked", "dim": np.int64(4), "s": np.float32(3.0),
      "shift": np.float64(6.5)}),
    ({"kind": "gap", "dim": 16, "depth": 0.25},
     {"kind": "gap", "dim": np.int32(16), "depth": np.float32(0.25)}),
]


@pytest.mark.parametrize("plain,numpy_typed", _NUMPY_TWINS,
                         ids=[t[0]["kind"] for t in _NUMPY_TWINS])
def test_numpy_descriptors_write_the_files_plain_descriptors_write(
        tmp_path, plain, numpy_typed):
    for name, desc, seed0, trials in (("plain", plain, 5, 3),
                                      ("numpy", numpy_typed, np.int64(5),
                                       np.int64(3))):
        cfg = ExperimentConfig(tester="krylov", instance=desc, eps=0.25, p=2.0,
                               trials=trials, seed0=seed0,
                               output_path=str(tmp_path / name / "r.csv"))
        assert cfg.instance == plain and type(cfg.seed0) is int
        run_experiment(cfg, clock=lambda: 0.0)
    for name in ("r.csv", "r.summary.json"):
        assert (tmp_path / "numpy" / name).read_bytes() == \
            (tmp_path / "plain" / name).read_bytes()


def test_a_bad_descriptor_fails_when_the_config_is_built(tmp_path, capsys,
                                                         monkeypatch):
    with pytest.raises(ConfigError, match="dim must be an integer >= 2"):
        far_config(instance={"kind": "far", "dim": 1})
    with pytest.raises(ConfigError, match="gap depth"):
        far_config(instance={"kind": "gap", "dim": 8, "depth": 1.5})
    with pytest.raises(ConfigError, match="'nope'"):
        far_config(instance={"kind": "nope", "dim": 8})
    with pytest.raises(ConfigError, match="kind is one of"):
        far_config(instance={"kind": ["far"], "dim": 8})
    monkeypatch.setattr(harness, "_run_trial", _never)
    out = tmp_path / "out"
    config = write_config(tmp_path, instance={"kind": "far", "dim": 1},
                          output_path=str(out / "r.csv"))
    assert main(["run", "--config", config]) == 2
    assert "dim must be an integer >= 2, got 1" in capsys.readouterr().err
    assert not out.exists()


def test_a_report_that_cannot_be_serialized_leaves_no_file(tmp_path):
    path = tmp_path / "r.json"
    with pytest.raises(TypeError):
        harness._write_json(path, {"rows": [1, object()]})
    assert not path.exists()


def test_calibrate_refuses_blas_bound_reports_off_one_thread(tmp_path,
                                                             monkeypatch):
    def sweep(seed0, trials):
        raise AssertionError("the sweep ran before the thread check")

    out = tmp_path / "out"
    for suite in ("c_psd", "kappa_sketch"):
        monkeypatch.setitem(harness._SUITE_FNS, suite, sweep)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        with pytest.raises(ConfigError, match=r"OPENBLAS_NUM_THREADS.*defaults\.py"):
            calibrate(suite, seed0=0, out_dir=out)
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        with pytest.raises(ConfigError, match="OPENBLAS_NUM_THREADS"):
            calibrate(suite, seed0=0, out_dir=out)
    assert not out.exists()


def test_ladder_stops_at_the_first_passing_rung():
    rates = {1: 0.5, 2: 0.9, 3: 0.2, 4: 1.0}
    measured = []

    def measure(rung):
        measured.append(rung)
        return {"rung": rung, "rate": rates[rung]}

    constants, rows = harness._ladder("C", (1, 2, 3, 4), "rate", measure)
    assert constants == {"C": 2.0}
    assert measured == [1, 2]
    assert rows == [{"rung": 1, "rate": 0.5}, {"rung": 2, "rate": 0.9}]


def test_ladder_returns_no_constant_when_no_rung_passes():
    constants, rows = harness._ladder(
        "C", (1, 2, 3), "rate", lambda rung: {"rung": rung, "rate": 0.89})
    assert constants == {}
    assert [row["rung"] for row in rows] == [1, 2, 3]


def test_calibrate_writes_the_shared_report_fields(monkeypatch):
    for constants in ({"EMBED_KAPPA": 40.0}, {}):
        monkeypatch.setitem(harness._SUITE_FNS, "embed_rows",
                            lambda seed0, trials, c=constants: (c, {"x": 1}))
        got, report = calibrate("embed_rows", seed0=5)
        assert got == constants
        assert report == {"x": 1, "suite": "embed_rows", "seed0": 5,
                          "constants": constants,
                          "separated": bool(constants)}


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
    with pytest.raises(ConfigError):
        scaling_report("krylov", 1.0, (0.2,), (32,), trials=0)
    with pytest.raises(ConfigError):
        scaling_report("krylov", 1.0, (0.2,), (32,), trials=2.5)


def test_scaling_report_rejects_non_number_eps():
    for eps in ("0.2", None, True):
        with pytest.raises(ConfigError,
                           match=r"eps values must be in \(0, 1\), got"):
            scaling_report("krylov", 1.0, (eps,), (32,), trials=1)


def test_oja_scaling_cells_run_the_tester_with_or_without_reduction(
        monkeypatch):
    calls = []

    def counted(op, eps, cfg=None, *, rng=0):
        calls.append((op.dim, cfg.eta_scales, cfg.amplification))
        return oja_l1_tester(op, eps, cfg, rng=rng)

    monkeypatch.setattr(harness, "oja_l1_tester", counted)
    # ceil(8/0.3) = 27 >= 16: no reduction; 27 < 64: reduced.
    for d in (16, 64):
        calls.clear()
        rep = scaling_report("oja_l1", 1.0, (0.3,), (d,), trials=4, seed0=0)
        assert rep["rows"][0]["resolved"]
        assert calls and len(calls) % 4 == 0
        assert set(calls) == {(d, 1, 1)}


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
    assert "error:" in capsys.readouterr().err
    for bad in ({"eps": "0.1"}, {"p": None}, {"p": True}, {"p": 2},
                {"constants": {"kappa": True}}):
        assert main(["run", "--config", write_config(tmp_path, **bad)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"tester": "krylov",
                                "instance": {"kind": "far", "dim": 8}}))
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "error: missing config fields: eps\n"


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


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_cli_scaling_rejects_trials_below_one(tmp_path, capsys, trials):
    assert main(["scaling", "--tester", "krylov", "--eps", "0.2",
                 "--dims", "32", "--trials", trials,
                 "--out", str(tmp_path)]) == 2
    assert f"trials must be an integer >= 1, got {trials}" in \
        capsys.readouterr().err


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


def _never(*args, **kwargs):
    raise AssertionError("the work ran before the output location was checked")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_bad_output_location_exits_2_before_any_work(tmp_path, capsys,
                                                         monkeypatch, fmt):
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file, not a directory")
    monkeypatch.setattr(harness, "_run_trial", _never)
    monkeypatch.setitem(harness._SUITE_FNS, "embed_rows", _never)
    monkeypatch.setattr(harness, "_scaling_cell", _never)
    config = write_config(tmp_path, output_path=str(blocker / "x.csv"))
    for argv in (["run", "--config", config],
                 ["calibrate", "--suite", "embed_rows",
                  "--out", str(blocker / "cal")],
                 ["scaling", "--tester", "krylov", "--eps", "0.2",
                  "--dims", "32", "--out", str(blocker / "sc")]):
        assert main(argv + ["--format", fmt]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot create output directory ")
        assert str(blocker) in err


@pytest.mark.parametrize("location", [5, True, ["out.csv"], {"a": 1}, ""])
def test_output_location_that_is_not_a_path_exits_2_before_any_work(
        tmp_path, capsys, monkeypatch, location):
    monkeypatch.setattr(harness, "_run_trial", _never)
    monkeypatch.setitem(harness._SUITE_FNS, "embed_rows", _never)
    monkeypatch.setattr(harness, "_scaling_cell", _never)
    config = write_config(tmp_path, output_path=location)
    assert main(["run", "--config", config]) == 2
    assert capsys.readouterr().err == \
        f"error: output_path must be a path, got {location!r}\n"
    with pytest.raises(ConfigError, match="out_dir must be a path"):
        harness.calibrate("embed_rows", out_dir=location)
    with pytest.raises(ConfigError, match="out_path must be a path"):
        harness.scaling_report("krylov", 2.0, [0.2], [32], out_path=location)
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


def test_cli_run_adaptive_l2_past_the_sketch_search_exits_2_before_queries(
        tmp_path, capsys):
    op = instance_operator({"kind": "far", "dim": 8}, 1e-7, 2.0, 0)
    with pytest.raises(ValueError, match="adaptive_l2 at eps=1e-07"):
        adaptive_l2_tester(op, 1e-7)
    assert (op.mv_queries, op.vmv_queries) == (0, 0)
    config = write_config(tmp_path, tester="adaptive_l2", eps=1e-7, p=2.0,
                          trials=1, instance={"kind": "far", "dim": 8})
    assert main(["run", "--config", config]) == 2
    assert "adaptive_l2 at eps=1e-07" in capsys.readouterr().err


def test_cli_run_k_above_dim_exits_2_naming_k_and_d(tmp_path, capsys):
    config = write_config(tmp_path, tester="spectrum", eps=0.3, trials=1,
                          instance={"kind": "wishart", "dim": 6},
                          constants={"k": 9})
    assert main(["run", "--config", config]) == 2
    assert "d=6 operator, got k=9" in capsys.readouterr().err


def test_cli_calibrate_unknown_suite_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["calibrate", "--suite", "nope", "--out", str(tmp_path)])
    assert excinfo.value.code == 2
    capsys.readouterr()
