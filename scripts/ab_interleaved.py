"""Interleaved A/B timing of pool ops in two warm worker processes.

    python3 scripts/ab_interleaved.py --base ../elliplrt-base --workload mc_m1_t3_n15 --rounds 20 --ops 100

``--base`` is a directory holding another checkout.  One worker process
is started per checkout; each imports that checkout's ``src/`` and
``bench/workloads.py``, so each side runs its own program on the same
pool.  Both workers run one untimed round first.  In round i the two
workers then take turns timing the same ``--ops`` ops (pool order seed
``--seed``, ops i K .. (i + 1) K - 1 of that order), the base first in
odd rounds and the working tree first in even ones.  Only one worker runs
at a time.

Each round prints its time ratio (working tree over base, below 1 is
faster); the end prints the median and quartiles of the ratios and each
side's p-value digest over the ops it ran (``workloads.pvalue_digest``:
equal digests mean bit-identical p-values) and how many ops missed the
committed reference, then ``identical`` or ``DIFFERENT``.  The exit
status is 1 when the digests differ or an op missed the reference, and
0 otherwise.  Rounds in one pair of warm processes resolve
smaller differences than the process-level pairs of ``ab_pairs.py``,
whose runs are a minute apart on separate seeds, so that drift of the
host's speed enters their spread.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def worker(root: Path, workload: str, seed: int) -> None:
    """Serve ``ops START COUNT`` requests on stdin with one JSON line each."""
    import warnings

    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    from workloads import WORKLOADS, Prepared, matches, pvalue_digest, report_values

    warnings.simplefilter("ignore")
    prep = Prepared(WORKLOADS[workload], seed)
    rows = {}
    for line in sys.stdin:
        cmd, *args = line.split()
        if cmd == "ops":
            start, count = map(int, args)
            reps = [prep.rep(k) for k in range(start, start + count)]
            calls = [prep.op(rep) for rep in reps]
            t0 = time.perf_counter()
            reports = [call()[0] for call in calls]
            seconds = time.perf_counter() - t0
            rows.update((rep, report_values(r)) for rep, r in zip(reps, reports))
            print(json.dumps({"seconds": seconds}), flush=True)
        elif cmd == "digest":
            missed = sum(1 for rep, values in rows.items() if not matches(values, prep.reference[rep]))
            print(json.dumps({"digest": pvalue_digest(rows.items()), "ops": len(rows), "missed": missed}), flush=True)


class Worker:
    def __init__(self, root: Path, workload: str, seed: int):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", str(root),
               "--workload", workload, "--seed", str(seed)]
        self.proc = subprocess.Popen(cmd, cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def ask(self, line: str) -> dict:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            sys.exit(f"worker exited with {self.proc.wait()}")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def quartiles(xs):
    return statistics.quantiles(xs, n=4, method="inclusive")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", type=Path, help="directory of the base checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--rounds", type=int, default=20)
    ap.add_argument("--ops", type=int, default=100, help="ops per round and side")
    ap.add_argument("--seed", type=int, default=1, help="pool order seed")
    ap.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        worker(args.worker, args.workload, args.seed)
        return 0
    if args.base is None or not args.base.is_dir():
        ap.error("--base must be a directory holding another checkout")
    if args.rounds < 2 or args.ops < 1:
        ap.error("need --rounds >= 2 and --ops >= 1")

    sides = {"base": Worker(args.base.resolve(), args.workload, args.seed),
             "change": Worker(ROOT, args.workload, args.seed)}
    try:
        for w in sides.values():  # warm-up: imports, caches, first-use loads
            w.ask(f"ops 0 {args.ops}")
        ratios = []
        for i in range(args.rounds):
            start = (i + 1) * args.ops
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            t = {s: sides[s].ask(f"ops {start} {args.ops}")["seconds"] for s in order}
            ratios.append(t["change"] / t["base"])
            print(f"round {i + 1:3d}  base {1e3 * t['base'] / args.ops:8.3f} ms/op  "
                  f"change {1e3 * t['change'] / args.ops:8.3f} ms/op  ratio {ratios[-1]:.4f}", flush=True)
        q1, med, q3 = quartiles(ratios)
        wins = sum(r < 1.0 for r in ratios)
        print(f"ratio median {med:.4f}  quartiles {q1:.4f} {q3:.4f}  change faster in {wins}/{len(ratios)} rounds")
        digests = {s: w.ask("digest") for s, w in sides.items()}
    finally:
        for w in sides.values():
            w.close()
    for s, d in digests.items():
        print(f"{s:6s} pvalue_sha256 {d['digest']} over {d['ops']} ops, {d['missed']} outside the reference")
    same = digests["base"]["digest"] == digests["change"]["digest"]
    missed = sum(d["missed"] for d in digests.values())
    print("identical" if same else "DIFFERENT")
    return 0 if same and not missed else 1


if __name__ == "__main__":
    sys.exit(main())
