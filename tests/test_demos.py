"""The demos run to completion: each in a fresh interpreter, from a scratch directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# a smaller study than the demo's default keeps the run short
ENV = {"rejection_rate_study.py": {"REPS": "200"}}


def test_every_demo_is_collected():
    assert {d.name for d in DEMOS} >= {"families_tour.py", "rejection_rate_study.py", "single_test_walkthrough.py"}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ, **ENV.get(demo.name, {}))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
