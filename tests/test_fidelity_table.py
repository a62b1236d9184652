"""``scripts/fidelity_table.py`` on the first replications of criterion 5."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "fidelity_table.py"


def test_the_script_prints_criterion_5_rates_next_to_their_references():
    out = subprocess.run([sys.executable, str(SCRIPT), "--only", "criterion_5", "--reps", "20"],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    blob = json.loads(out.stdout.splitlines()[-1])
    assert blob["reps"] == 20 and list(blob["studies"]) == ["criterion_5"]
    study = blob["studies"]["criterion_5"]
    assert study["config"]["sided"] == "lower" and study["config"]["seed"] == 31415
    assert study["replications_done"] + study["failures"] == 20
    stats = study["statistics"]
    assert list(stats) == ["r", "r*", "LR", "LR*", "LR**"]
    assert (stats["r"]["reference_5"], stats["r*"]["reference_5"], stats["LR"]["reference_5"]) == (11.9, 6.5, None)
    for row in stats.values():
        assert list(row["rates"]) == ["0.01", "0.05", "0.1"]
        for rate, se in row["rates"].values():
            # a count out of the replications done, with its binomial standard error
            done = study["replications_done"]
            assert rate * done == pytest.approx(round(rate * done))
            assert se == pytest.approx((rate * (1.0 - rate) / done) ** 0.5)
        rate, se = row["rates"]["0.05"]
        if row["reference_5"] is not None and se > 0:
            assert row["distance_se"] == pytest.approx((100 * rate - row["reference_5"]) / (100 * se))
    # the table's rows: one per statistic, each with the three levels
    rows = [line.split() for line in out.stdout.splitlines() if line.startswith("criterion_5 ")]
    assert [row[1] for row in rows] == ["r", "r*", "LR", "LR*", "LR**"]
