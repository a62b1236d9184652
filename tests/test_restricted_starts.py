"""``scripts/restricted_starts.py`` on the first pool entries of the model-1 workload."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "restricted_starts.py"


def test_the_script_lists_the_op_whose_restricted_fit_the_true_theta_betters():
    out = subprocess.run([sys.executable, str(SCRIPT), "--only", "mc_m1_t3_n15", "--reps", "90"],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    row = json.loads(out.stdout.splitlines()[-1])["workloads"]["mc_m1_t3_n15"]
    assert row["ops"] == 90 and row["better_restricted_fits"] == 1
    (entry,) = row["entries"]
    assert entry["entry"] == 89
    assert entry["LR"] == pytest.approx(46.46, abs=5e-3)
    assert entry["LR_better"] == pytest.approx(3.13, abs=5e-3)
