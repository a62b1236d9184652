"""Pool ops whose restricted fit a start at the true theta betters.

    python3 scripts/restricted_starts.py [--only NAME] [--reps N]

``run_test`` starts the restricted fit at theta-hat; the restriction pins
the interest block at psi0.  This script runs each pool op as the
benchmark runs it (pool entries in order) and keeps the op's restricted
``FitResult`` and dataset by wrapping ``inference.fit`` from outside, as
``bench/tracing.py`` wraps the program's functions; nothing under
``src/`` or ``bench/`` changes.  It then refits the restricted model on
that dataset from the workload config's true theta, which satisfies the
null.

It lists every op where that refit converges above the op's own restricted
log-likelihood l~ by more than 1e-6 (1 + |l~|).  For each it prints the
reported LR, 2 (l-hat - l~) with the better restricted fit, the op's skip
flags (``inference.SKIP_FLAGS``), whether the report carries the note
``restricted fit: nonpd_info``, and whether a restricted fit from
``model.start(data)``, the start of a cold ``elliplrt test`` call,
reaches the better optimum too.  ``--only`` runs one workload,
``--reps`` the first N pool entries of each.  The last line is JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TOL = 1e-6  # relative gain, in units of 1 + |l~|, that counts as a better restricted optimum


def better(l_new: float, l_old: float) -> bool:
    return l_new > l_old + TOL * (1.0 + abs(l_old))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--only", default=None, help="one workload (default: all three)")
    ap.add_argument("--reps", type=int, default=None, help="the first N pool entries of each")
    args = ap.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from workloads import WORKLOADS, Prepared

    from elliplrt import inference

    if args.only is not None and args.only not in WORKLOADS:
        ap.error(f"unknown workload {args.only!r}; choose from {', '.join(WORKLOADS)}")
    if args.reps is not None and args.reps < 1:
        ap.error("--reps must be at least 1")

    real = inference.fit
    restricted = []  # (data, FitResult) of every restricted fit of the current op

    def recorded(model, family, data, restriction=None, start=None):
        res = real(model, family, data, restriction=restriction, start=start)
        if restriction is not None:
            restricted.append((data, res))
        return res

    print(f"{'workload':18s} {'entry':>5s} {'LR':>9s} {'LR_better':>9s} {'nonpd_info':>10s} {'cold':>5s}  skip flags")
    table = {}
    inference.fit = recorded
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for name in [args.only] if args.only else list(WORKLOADS):
                prep = Prepared(WORKLOADS[name], seed=0, load_reference=False)
                s = prep.setup
                hyp = (s.hyp.interest_indices, s.hyp.psi0)
                found = []
                ops = min(args.reps or prep.workload.pool, prep.workload.pool)
                for rep in range(ops):
                    restricted.clear()
                    report = prep.op(rep)()[0]
                    if report is None:
                        continue
                    data, own = restricted[-1]
                    refit = real(s.model, s.family, data, restriction=hyp, start=s.true_theta)
                    if not (refit.converged and better(refit.loglik, own.loglik)):
                        continue
                    l_hat = own.loglik + report.LR / 2.0
                    cold = real(s.model, s.family, data, restriction=hyp, start=s.model.start(data))
                    row = {
                        "entry": rep,
                        "LR": report.LR,
                        "LR_better": 2.0 * (l_hat - refit.loglik),
                        "loglik": own.loglik,
                        "loglik_better": refit.loglik,
                        "nonpd_info": "restricted fit: nonpd_info" in report.notes,
                        "cold_reaches_better": bool(cold.converged and not better(refit.loglik, cold.loglik)),
                        "skip_flags": [f for f in report.flags if f in inference.SKIP_FLAGS],
                    }
                    found.append(row)
                    print(f"{name:18s} {rep:5d} {row['LR']:9.2f} {row['LR_better']:9.2f} {row['nonpd_info']!s:>10s} "
                          f"{row['cold_reaches_better']!s:>5s}  {' '.join(row['skip_flags']) or '-'}", flush=True)
                table[name] = {"ops": ops, "better_restricted_fits": len(found), "entries": found}
                print(f"{name}: {len(found)} of {ops} ops", flush=True)
    finally:
        inference.fit = real
    print(json.dumps({"tolerance": TOL, "workloads": table}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
