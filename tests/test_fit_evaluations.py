"""``scripts/fit_evaluations.py`` on the first replications of one configuration."""

import json
import subprocess
import sys
from pathlib import Path

from elliplrt.inference import FIT_EVALS

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "fit_evaluations.py"


def test_the_script_counts_the_evaluations_of_every_fit():
    out = subprocess.run([sys.executable, str(SCRIPT), "--only", "sim_model1_normal_n15", "--reps", "3"],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == f"FIT_EVALS = {FIT_EVALS}" and lines[2].split()[0] == "sim_model1_normal_n15"
    row = json.loads(lines[-1])["configurations"]["sim_model1_normal_n15"]
    # both fits of each replication converge, well inside the budget
    assert row["fits"] == 6 and row["unconverged"] == 0
    assert 0 < row["p99"] <= row["max"] <= FIT_EVALS // 2
