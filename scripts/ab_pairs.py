"""Alternating A/B pairs of the benchmark: a base checkout against this tree.

    git clone -q . ../elliplrt-base && git -C ../elliplrt-base checkout -q HEAD~1
    python3 scripts/ab_pairs.py --base ../elliplrt-base --pairs 10 --seconds 50 --out BENCH_5.json

``--base`` is a directory holding another checkout.  Every workload in
``BENCHMARK.json`` is run.  Pair i (1, 2, ...) runs ``bench/run.py
--trace 0 --seed i`` once on each side, the base first in odd pairs and
the working tree first in even ones, so drift of the host's speed over
minutes hits both sides alike.  Each side runs its own ``bench/run.py``
against its own ``src/``.

The output JSON holds, per workload and end-to-end metric, each side's
runs, median and quartiles, the change's median over the base's, and how
many pairs the change won (ties count for neither), with the direction
taken from ``BENCHMARK.json``.  ``--traced-seconds S`` adds one traced run
per side and workload and records its per-layer metrics.  A run that
fails or reports ``correct: false`` stops the script.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": xs}


def bench(side: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=side, capture_output=True, text=True)
    if out.returncode:
        sys.exit(f"{side}: {' '.join(cmd)} exited {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{side}: {workload} seed {seed} failed its output check")
    return {m: v["value"] for m, v in result["metrics"].items()}


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


def describe(checkout: Path) -> str:
    """The commit of a checkout directory, or its name when it is not a git checkout."""
    if (checkout / ".git").exists():
        return git("rev-parse", "HEAD", cwd=checkout)
    return checkout.name


def compare(base_runs, change_runs, better: str) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, c in zip(base_runs, change_runs) if sign * (c - b) > 0)
    ties = sum(1 for b, c in zip(base_runs, change_runs) if c == b)
    base, change = quartiles(base_runs), quartiles(change_runs)
    return {
        "better": better,
        "base": base,
        "change": change,
        "change_over_base": change["median"] / base["median"] if base["median"] else None,
        "change_wins": wins,
        "ties": ties,
        "median_gap_exceeds_base_iqr": sign * (change["median"] - base["median"]) > base["q3"] - base["q1"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, type=Path, help="directory of the base checkout")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--traced-seconds", type=float, default=0.0)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    if not args.base.is_dir():
        ap.error(f"--base {args.base}: not a directory")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]

    sides = {"base": args.base.resolve(), "change": ROOT}
    runs = {w: {s: [] for s in sides} for w in workloads}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for w in workloads:
            for s in order:
                runs[w][s].append(bench(sides[s], w, i + 1, args.seconds, 0))
                print(f"pair {i + 1} {w} {s}: ops_per_s {runs[w][s][-1]['ops_per_s']:.4g}", flush=True)
    traced = {}
    if args.traced_seconds:
        for w in workloads:
            traced[w] = {s: bench(sides[s], w, 1, args.traced_seconds, 1) for s in sides}

    report = {
        "script": "scripts/ab_pairs.py",
        "base": describe(args.base),
        "change": f"{git('rev-parse', 'HEAD')} + working tree",
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seeds": list(range(1, args.pairs + 1)),
        "order": "base first in pairs 1, 3, ...; change first in pairs 2, 4, ...",
        "environment": {"python": platform.python_version(), "machine": platform.machine(),
                        "nproc": len(os.sched_getaffinity(0))},
        "workloads": {},
    }
    for w in workloads:
        metrics = runs[w]["base"][0].keys()
        entry = {m: compare([r[m] for r in runs[w]["base"]], [r[m] for r in runs[w]["change"]], better[m])
                 for m in metrics}
        report["workloads"][w] = {"end_to_end": entry}
        if w in traced:
            report["workloads"][w]["traced"] = {
                "seconds": args.traced_seconds,
                "seed": 1,
                "base": traced[w]["base"],
                "change": traced[w]["change"],
            }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for w, entry in report["workloads"].items():
        for m, c in entry["end_to_end"].items():
            print(f"{w}  {m:14s} base {c['base']['median']:.6g} [{c['base']['q1']:.4g}, {c['base']['q3']:.4g}]  "
                  f"change {c['change']['median']:.6g}  x{c['change_over_base']:.3f}  "
                  f"wins {c['change_wins']}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
