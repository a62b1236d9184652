"""Null rejection-rate study at desk scale.

Simulates the scalar nonlinear model under the null at n = 15 and
tabulates how often each test rejects at the 1%, 5% and 10% levels.
The unadjusted likelihood ratio test is visibly liberal at this sample
size; the adjusted versions sit near the nominal levels.  Also prints
the relative p-value discrepancy curve, the calibration diagnostic
(ecdf(p) - p) / p on a grid of nominal levels.

Run:  python demos/rejection_rate_study.py            (600 replications)
      REPS=2000 python demos/rejection_rate_study.py  (closer to print quality)
"""

import os

from elliplrt import SimulationConfig, pvalue_discrepancy, run_simulation

reps = int(os.environ.get("REPS", "600"))

config = SimulationConfig(
    model="model1",
    family="normal",
    n=15,
    replications=reps,
    interest=(2, 3),
    psi0=(0.0, 0.0),
    sided="two",
    seed=20260811,
)

print(f"Simulating {reps} null datasets (model 1, normal errors, n = 15) ...")
summary = run_simulation(config, threads=2)  # the rates do not depend on it
print(f"done in {summary.wall_time:.1f}s; {summary.redraw_count} datasets redrawn, "
      f"{summary.failure_count} replications failed to fit; "
      f"skipped adjustments: {summary.adjustment_skips or 'none'}\n")

print("Null rejection rates (percent, binomial standard errors in parentheses)")
print(f"{'statistic':>10s}" + "".join(f"{f'alpha = {a:.0%}':>18s}" for a in config.alpha_levels))
for label in config.stat_labels():
    row = f"{label:>10s}"
    for alpha in config.alpha_levels:
        rate, se = summary.rate(label, alpha)
        row += f"{100 * rate:12.1f} ({100 * se:.1f})"
    print(row)

print("""
Reading: at n = 15 the LR row sits well above its nominal column targets
(the liberal small-sample behavior); LR* and LR** recover the nominal
levels almost exactly.
""")

print("Relative p-value discrepancy (ecdf(p) - p) / p, closer to 0 is better")
table_lr = pvalue_discrepancy(summary.pvalues["LR"])
table_lr2 = pvalue_discrepancy(summary.pvalues["LR**"])
print(f"{'nominal p':>10s}{'LR':>12s}{'LR**':>12s}")
for (g, d1), (_, d2) in list(zip(table_lr, table_lr2))[::4]:
    print(f"{g:10.2f}{d1:12.3f}{d2:12.3f}")

print("\nThe same tables and curves are available from the command line:")
print("  elliplrt simulate --config cfg.json --out-summary rates.csv --out-pvalues p.csv")
print("  elliplrt discrepancy --in p.csv --stat 'LR**' --out curve.csv")
