"""Null rejection rates of the acceptance studies next to the figures their gate quotes.

    python3 scripts/fidelity_table.py [--reps N] [--threads K] [--only NAME]

Runs the four acceptance study configurations of ``tests/conftest.py``
(criteria 4, 5, 6 and 8, each with its own seed) through ``run_simulation``
with N replications (default 10,000), and criterion 5 also with ``sided``
set to upper and to two.  For each statistic it prints the rejection rate
at 1%, 5% and 10% with its binomial standard error.  At 5% it prints the
reference that ``tests/test_acceptance.py`` quotes, where there is one,
and the distance (rate - reference) / SE.  ``--threads`` is
``run_simulation``'s worker count (the rates do not depend on it);
``--only`` runs one study.  The last line is JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the session fixtures of tests/conftest.py, without their replication counts
CRITERION = {
    4: dict(model="model1", family="normal", n=15, interest=(2, 3), psi0=(0.0, 0.0), sided="two", seed=20260811),
    5: dict(model="model1", family="student_t", nu=3.0, n=15, interest=(3,), psi0=(0.0,), sided="lower",
            seed=31415),
    6: dict(model="model2", family="normal", n=16, interest=(2, 3, 4), psi0=(0.0, 0.0, 0.0), sided="two",
            seed=271828),
    8: dict(model="model1", family="normal", n=100, interest=(3,), psi0=(0.0,), sided="two", seed=808),
}
# study name -> (criterion, configuration)
STUDIES = {
    "criterion_4": (4, CRITERION[4]),
    "criterion_5": (5, CRITERION[5]),
    "criterion_5_upper": (5, {**CRITERION[5], "sided": "upper"}),
    "criterion_5_two": (5, {**CRITERION[5], "sided": "two"}),
    "criterion_6": (6, CRITERION[6]),
    "criterion_8": (8, CRITERION[8]),
}
# 5% rates, in percent, that tests/test_acceptance.py quotes; criterion 5's apply to each of its sides
REFERENCE = {
    4: {"LR": 11.0, "LR*": 5.2, "LR**": 4.9},
    5: {"r": 11.9, "r*": 6.5},
    6: {"LR": 16.1, "LR*": 5.8, "LR**": 4.9},
}
ALPHAS = (0.01, 0.05, 0.10)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--reps", type=int, default=10_000, help="replications per study (default 10,000)")
    ap.add_argument("--threads", type=int, default=1, help="worker processes (default 1)")
    ap.add_argument("--only", default=None, choices=list(STUDIES), help="one study (default: all six)")
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error("--reps must be at least 1")

    sys.path.insert(0, str(ROOT / "src"))
    from elliplrt.montecarlo import SimulationConfig, run_simulation

    print(f"R = {args.reps} replications per study; rate % (binomial SE %)")
    levels = " ".join(f"{f'{a:.0%}':>14s}" for a in ALPHAS)
    print(f"{'study':18s} {'stat':5s} {levels} {'ref 5%':>7s} {'SEs':>6s}")
    table = {}
    t_all = time.perf_counter()
    for name in [args.only] if args.only else list(STUDIES):
        criterion, fields = STUDIES[name]
        config = SimulationConfig(replications=args.reps, alpha_levels=ALPHAS, **fields)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            summary = run_simulation(config, threads=args.threads)
        rows = {}
        for label in config.stat_labels():
            rates = {a: summary.rate(label, a) for a in ALPHAS}
            ref = REFERENCE.get(criterion, {}).get(label)
            rate, se = rates[0.05]
            z = None if ref is None or se == 0.0 else (100.0 * rate - ref) / (100.0 * se)
            rows[label] = {"rates": {str(a): [rate_a, se_a] for a, (rate_a, se_a) in rates.items()},
                           "reference_5": ref, "distance_se": z}
            cells = " ".join(f"{100 * r:6.2f} ({100 * s:4.2f})" for r, s in rates.values())
            print(f"{name:18s} {label:5s} {cells} {'-' if ref is None else f'{ref:.1f}':>7s} "
                  f"{'-' if z is None else f'{z:+.1f}':>6s}", flush=True)
        table[name] = {"config": fields, "replications_done": summary.replications_done,
                       "failures": summary.failure_count, "redraws": summary.redraw_count,
                       "adjustment_skips": summary.adjustment_skips, "wall_s": round(summary.wall_time, 1),
                       "statistics": rows}
        print(f"{name}: {summary.replications_done} replications, {summary.failure_count} failed, "
              f"{summary.wall_time:.0f} s", flush=True)
    print(json.dumps({"reps": args.reps, "threads": args.threads,
                      "wall_s": round(time.perf_counter() - t_all, 1), "studies": table}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
