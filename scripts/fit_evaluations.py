"""Model evaluations per fit over the benchmark pools and two simulation configs.

    python3 scripts/fit_evaluations.py [--only NAME] [--reps N]

Every fit that ``run_test`` makes is recorded by wrapping ``inference.fit``
from outside, as ``bench/tracing.py`` wraps the program's functions:
both fits of each test, a refit of the unrestricted model, and the fits
of every redrawn dataset.  Nothing under ``src/`` or ``bench/`` changes.

The configurations are the three benchmark pools (each op as the
benchmark runs it, pool entries in order) and two of the test suite's
session simulations, every replication as ``run_simulation`` runs it:

    sim_model1_normal_n15   model 1, normal, n = 15, (beta2, beta3), seed 20260811
    sim_model1_normal_n100  model 1, normal, n = 100, beta3, seed 808

For each it prints the number of fits, the maximum and the 99th
percentile (the nearest rank at or above it) of ``FitResult.evaluations``
over the converged fits, and how many fits did not converge or raised
FitError.  ``--only`` runs one configuration, ``--reps`` the first N pool
entries or replications of each.  The last line is JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SIMULATIONS = {
    "sim_model1_normal_n15": dict(model="model1", family="normal", n=15, replications=2000,
                                  interest=(2, 3), psi0=(0.0, 0.0), sided="two", seed=20260811),
    "sim_model1_normal_n100": dict(model="model1", family="normal", n=100, replications=2000,
                                   interest=(3,), psi0=(0.0,), sided="two", seed=808),
}


def summarize(fits) -> dict:
    """Counts over (evaluations, converged) pairs; a fit that raised is (None, False)."""
    done = sorted(e for e, ok in fits if ok)
    return {
        "fits": len(fits),
        "max": done[-1] if done else None,
        "p99": done[math.ceil(0.99 * len(done)) - 1] if done else None,
        "unconverged": len(fits) - len(done),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--only", default=None, help="one configuration (default: all five)")
    ap.add_argument("--reps", type=int, default=None, help="the first N pool entries or replications of each")
    args = ap.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from workloads import WORKLOADS, Prepared

    from elliplrt import inference
    from elliplrt.montecarlo import SimulationConfig, _Setup

    names = [*WORKLOADS, *SIMULATIONS]
    if args.only is not None and args.only not in names:
        ap.error(f"unknown configuration {args.only!r}; choose from {', '.join(names)}")
    if args.reps is not None and args.reps < 1:
        ap.error("--reps must be at least 1")

    fits = []
    real = inference.fit

    def recorded(*call_args, **kwargs):
        try:
            res = real(*call_args, **kwargs)
        except inference.FitError:
            fits.append((None, False))
            raise
        fits.append((res.evaluations, res.converged))
        return res

    print(f"FIT_EVALS = {inference.FIT_EVALS}")
    print(f"{'configuration':24s} {'fits':>6s} {'max':>5s} {'p99':>5s} {'unconverged':>11s}")
    table = {}
    inference.fit = recorded
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for name in [args.only] if args.only else names:
                fits.clear()
                if name in WORKLOADS:
                    prep = Prepared(WORKLOADS[name], seed=0, load_reference=False)
                    run, total = (lambda rep: prep.op(rep)()), prep.workload.pool
                else:
                    setup = _Setup(SimulationConfig(**SIMULATIONS[name]))
                    run, total = setup.run_one, setup.config.replications
                for rep in range(min(args.reps or total, total)):
                    run(rep)
                row = table[name] = summarize(fits)
                print(f"{name:24s} {row['fits']:6d} {row['max']!s:>5s} {row['p99']!s:>5s} {row['unconverged']:11d}",
                      flush=True)
    finally:
        inference.fit = real
    print(json.dumps({"fit_evals": inference.FIT_EVALS, "configurations": table}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
