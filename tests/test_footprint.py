"""What a fresh `elliplrt` process loads: the L-BFGS fallback only on first use.

Each case runs in a new interpreter, since the pytest process has long since
imported everything.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SETUP = """
import sys
import numpy as np
from elliplrt.inference import fit, run_test
from elliplrt.model import mixed_model2
from elliplrt.montecarlo import SimulationConfig, simulate_dataset

config = SimulationConfig(model="model2", family="normal", n=16, replications=1,
                          interest=(4,), psi0=(0.0,), seed=2718)
model, fam, data = mixed_model2(), config.family_obj(), simulate_dataset(config, 0)
"""


def _run_fresh(body: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", SETUP + textwrap.dedent(body)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_converged_run_test_never_loads_scipy_optimize():
    # both fits of this dataset converge under Newton
    out = _run_fresh("""
        rep = run_test(model, fam, data, config.hypothesis())
        print(np.isfinite(rep.LR), "scipy.optimize" in sys.modules)
    """)
    assert out.split() == ["True", "False"]


def test_lbfgs_fallback_loads_on_first_use():
    # criterion 5's replication 72 fitted from the true theta: the first Newton
    # run stalls, L-BFGS runs and the Newton run after it converges
    out = _run_fresh("""
        from elliplrt.model import nonlinear_model1
        t3 = SimulationConfig(model="model1", family="student_t", nu=3.0, n=15, interest=(3,),
                              sided="lower", seed=31415)
        before = "scipy.optimize" in sys.modules
        res = fit(nonlinear_model1(), t3.family_obj(), simulate_dataset(t3, 72), start=np.asarray(t3.true_theta))
        print(before, "scipy.optimize" in sys.modules, res.converged)
    """)
    assert out.split() == ["False", "True", "True"]
