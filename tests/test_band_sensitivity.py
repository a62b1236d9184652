"""``scripts/band_sensitivity.py`` on the first pool ops of a workload."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "band_sensitivity.py"


def _run(*args) -> dict:
    out = subprocess.run([sys.executable, str(SCRIPT), "--workload", "mc_m1_t3_n15", "--ops", "3", *args],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_a_perturbed_J_moves_the_statistics_and_an_unperturbed_one_moves_nothing():
    moved = _run()
    assert moved["ops"] == 3 and moved["failed"] == 0 and moved["eps"] == 1e-13
    assert max(moved["max_relative_move"].values()) > 0.0
    same = _run("--eps", "0")
    assert same["outside"] == 0 and set(same["max_relative_move"].values()) == {0.0}
