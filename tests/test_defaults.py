"""Every shipped constant traces to a committed calibration report."""

import json
from pathlib import Path

import pytest

from psdprobe import defaults
from psdprobe.harness import calibrate

CALIBRATION_DIR = Path(__file__).resolve().parent.parent / "calibration"
REPORTS = sorted(CALIBRATION_DIR.glob("*.json"))


def test_reported_constants_equal_defaults_or_sit_in_the_margin_table():
    assert len(REPORTS) == 5
    reported = {}
    for path in REPORTS:
        report = json.loads(path.read_text())
        assert report["separated"] is True, path.name
        for name, value in report["constants"].items():
            assert name not in reported, f"{name} reported twice"
            reported[name] = value
            shipped = getattr(defaults, name)
            if shipped != value:
                assert name in defaults.CALIBRATION_MARGINS, \
                    f"{name}: shipped {shipped}, {path.name} says {value}"
                assert defaults.CALIBRATION_MARGINS[name][0] == value, name
    for name, (value, reason) in defaults.CALIBRATION_MARGINS.items():
        # No stale rows: each names a reported value the default differs from.
        assert reported.get(name) == value, name
        assert getattr(defaults, name) != value, name
        assert reason


# The three sweeps that finish in seconds; their reports read the same at
# 1, 2 and 4 BLAS threads.  c_psd and kappa_sketch take about half a minute
# each and are re-run by hand with BLAS on one thread (see defaults.py).
@pytest.mark.parametrize("suite", ["embed_rows", "kappa_oja", "kappa_krylov"])
def test_committed_report_reproduces_byte_for_byte(suite):
    _, report = calibrate(suite, seed0=0)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert text == (CALIBRATION_DIR / f"{suite}.json").read_text()
