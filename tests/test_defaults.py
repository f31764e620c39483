"""Every shipped constant traces to a committed calibration report."""

import json
from pathlib import Path

from psdprobe import defaults

REPORTS = sorted((Path(__file__).resolve().parent.parent / "calibration")
                 .glob("*.json"))


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
