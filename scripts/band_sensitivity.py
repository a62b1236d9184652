"""Pool ops rerun with every observed information from ``inference.score_info`` scaled by (1 + eps).

    python3 scripts/band_sensitivity.py --workload test_m2_t4_n200 [--ops N] [--eps 1e-13]

A relative perturbation of J far below its rounding error stands in for
any reordering of the assembly's floating-point sums.  The script wraps
``inference.score_info`` from outside, as ``bench/tracing.py`` wraps the
program's functions, so every J the fits see (each Newton step, J-hat and
J-tilde) is multiplied by 1 + eps; nothing under ``src/`` or ``bench/``
changes.  The double-tilde J, which the ancillary stage assembles itself,
is left as it is.

It runs pool entries 0 .. N-1 of the workload (all of the pool by
default) and compares each op's statistics with the committed reference
(``workloads.matches``).  It prints every op that leaves the reference
tolerance with its largest relative move, then the largest relative move
|value - ref| / |ref| per statistic over all ops; the last line is JSON.
With ``--eps 0`` the wrapper changes nothing, so every op must match.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def relative_move(value, ref) -> float:
    """|value - ref| / |ref|; 0 for equal values, inf for a missing one or a move away from 0."""
    if value is None or ref is None:
        return 0.0 if value is ref else math.inf
    if value == ref:
        return 0.0
    return abs(value - ref) / abs(ref) if ref else math.inf


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--ops", type=int, default=None, help="pool entries 0 .. N-1 (default: the whole pool)")
    ap.add_argument("--eps", type=float, default=1e-13)
    args = ap.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from workloads import FIELDS, WORKLOADS, Prepared, matches, report_values

    from elliplrt import inference

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    prep = Prepared(WORKLOADS[args.workload], seed=0)
    ops = prep.workload.pool if args.ops is None else args.ops
    if not 1 <= ops <= prep.workload.pool:
        ap.error(f"--ops must lie in 1..{prep.workload.pool}")

    real = inference.score_info
    scale = 1.0 + args.eps

    def perturbed(*call_args, **kwargs):
        si = real(*call_args, **kwargs)
        return si if si.info is None else replace(si, info=si.info * scale)

    worst = dict.fromkeys(FIELDS, 0.0)
    outside = failed = 0
    inference.score_info = perturbed
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for rep in range(ops):
                values = report_values(prep.op(rep)()[0])
                ref = prep.reference[rep]
                failed += values is None
                moves = [relative_move(v, r) for v, r in zip(values or (None,) * len(FIELDS), ref)]
                for field, move in zip(FIELDS, moves):
                    worst[field] = max(worst[field], move)
                if not matches(values, ref):
                    outside += 1
                    field, move = max(zip(FIELDS, moves), key=lambda fm: fm[1])
                    print(f"rep {rep}: outside tolerance, largest relative move {move:.3g} in {field}")
    finally:
        inference.score_info = real

    print(f"{args.workload}: {outside}/{ops} ops outside tolerance under J x (1 + {args.eps:g}); {failed} failed")
    for field in FIELDS:
        print(f"  {field:11s} largest relative move {worst[field]:.3g}")
    print(json.dumps({"workload": args.workload, "eps": args.eps, "ops": ops, "outside": outside,
                      "failed": failed, "max_relative_move": worst}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
