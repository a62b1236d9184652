"""``scripts/ab_interleaved.py`` with the working tree on both sides."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_working_tree_against_itself_is_identical():
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "ab_interleaved.py"), "--base", str(ROOT),
                          "--workload", "test_m2_t4_n200", "--rounds", "2", "--ops", "1"],
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.splitlines()[-1] == "identical"
