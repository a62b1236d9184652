"""elliplrt benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload mc_m1_t3_n15 --seed 1 --seconds 50 --trace 0

``--workload`` is one of the names in ``workloads.WORKLOADS`` or ``all``
(every workload in turn, in this one process).  ``--trace 0`` times ops
with nothing wrapped and reports the end-to-end metrics; ``--trace 1``
runs every op twice, untraced and traced in alternating order, checks that
both give bit-identical statistics, and reports the per-layer metrics.
Every op is checked against the committed reference in ``reference/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(environment, p-value digests) goes to ``bench/out/``, and the traced run
writes its spans there too.  The program is imported from ``src/`` of the
checkout this file sits in; without it the benchmark exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import scipy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_PROBES = 5  # set-up is measured this many times per run; the median is reported
MIN_OPS = 100  # so that at least 10 ops lie beyond the reported p90
MIN_TRACED_OPS = 10

UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "cpu_ms_per_op": "ms",
    "success_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "model.evaluate_calls_per_op": "count",
    "model.evaluate_self_ms": "ms/op",
    "model.nonspd_share": "ratio",
    "likelihood.info_calls_per_op": "count",
    "likelihood.score_calls_per_op": "count",
    "likelihood.info_self_ms": "ms/op",
    "likelihood.asym_warnings_per_op": "count",
    "linalg.solve_calls_per_op": "count",
    "linalg.self_share": "ratio",
    "inference.fit_hat_ms": "ms/op",
    "inference.fit_tilde_ms": "ms/op",
    "inference.evals_per_fit": "count",
    "inference.lbfgs_evals_per_op": "count",
    "inference.info_useful_share": "ratio",
    "ancillary.build_ms": "ms/op",
    "ancillary.gradients_ms": "ms/op",
    "ancillary.doubletilde_ms": "ms/op",
    "inference.adjust_ms": "ms/op",
    "inference.adjust_skip_share": "ratio",
    "montecarlo.draw_ms": "ms",
    "montecarlo.redraws_per_op": "count",
    "trace.overhead_share": "ratio",
}
END_TO_END = ("ops_per_s", "op_ms_p50", "op_ms_p90", "cpu_ms_per_op",
              "success_share", "setup_s", "peak_rss_mb")
PER_LAYER = tuple(m for m in UNITS if m not in END_TO_END)


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path, or exit with code 1."""
    src = ROOT / "src"
    if not (src / "elliplrt" / "__init__.py").is_file():
        sys.exit(f"bench: no program at {src / 'elliplrt'}; run from a full checkout")
    sys.path.insert(0, str(src))


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# One op
# ---------------------------------------------------------------------------


def run_once(prep, rep: int, tracer=None):
    """Run one op; returns (report or None, draws, op wall s, op cpu s)."""
    call = prep.op(rep)
    c0 = time.process_time()
    t0 = time.perf_counter()
    report, draws = call() if tracer is None else tracer.span("op", call)[0]
    dt = time.perf_counter() - t0
    dc = time.process_time() - c0
    return report, draws, dt, dc


def adjustment_skipped(report) -> bool:
    """A correction factor was forced to 1, as the report's flags and notes say."""
    return bool({"near_zero_r", "near_zero_LR"} & set(report.flags)) or any(
        "adjustment skipped" in note for note in report.notes)


def asym_count(caught) -> int:
    return sum(1 for w in caught if "asymmetry" in str(w.message))


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def measure(prep, seconds: float, probe) -> dict:
    """Untraced run: end-to-end metrics, set-up time included.

    Ops run one after another for ``seconds``, and at least MIN_OPS of
    them.  ``probe()`` measures set-up once; it runs SETUP_PROBES times,
    spread evenly over the run and outside the op timings, so that set-up
    and ops see the same drift of the host's speed.
    """
    from workloads import report_values

    times, cpus, rows, setups = [], [], [], []
    start = time.perf_counter()
    while len(times) < MIN_OPS or time.perf_counter() - start < seconds:
        if len(setups) < SETUP_PROBES and time.perf_counter() - start >= len(setups) * seconds / SETUP_PROBES:
            setups.append(probe())
        rep = prep.rep(len(times))
        report, _, dt, dc = run_once(prep, rep)
        times.append(dt)
        cpus.append(dc)
        rows.append((rep, report_values(report)))
    setups += [probe() for _ in range(SETUP_PROBES - len(setups))]
    p50, p90 = np.quantile(times, [0.5, 0.9])
    metrics = {
        "ops_per_s": len(times) / sum(times),
        "op_ms_p50": 1e3 * p50,
        "op_ms_p90": 1e3 * p90,
        "cpu_ms_per_op": 1e3 * sum(cpus) / len(times),
        "setup_s": statistics.median(setups),
    }
    return {"metrics": metrics, "rows": rows}


def measure_traced(prep, seconds: float, spans_path: Path) -> dict:
    """Each op untraced and traced (alternating order); per-layer metrics."""
    from tracing import Tracer, layer_metrics
    from workloads import report_values

    tracer = Tracer()
    rows, identical = [], True
    t_plain = t_traced = 0.0
    asym = redraws = skipped = 0
    start = time.perf_counter()
    k = 0
    while k < MIN_TRACED_OPS or time.perf_counter() - start < seconds:
        rep = prep.rep(k)
        results = {}
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                if traced:
                    tracer.op = k
                    tracer.install(prep.setup)
                    try:
                        out = run_once(prep, rep, tracer)
                    finally:
                        tracer.uninstall()
                else:
                    out = run_once(prep, rep)
            results[traced] = (out, asym_count(caught))
        (report, draws, dt, _), n_asym = results[True]
        (plain_report, _, plain_dt, _), plain_asym = results[False]
        values = report_values(report)
        identical &= values == report_values(plain_report) and n_asym == plain_asym
        rows.append((rep, values))
        t_plain += plain_dt
        t_traced += dt
        asym += n_asym
        redraws += max(draws - 1, 0)
        skipped += report is not None and adjustment_skipped(report)
        k += 1
    tracer.write(spans_path)
    metrics = layer_metrics(tracer.spans, k)
    metrics.update({
        "likelihood.asym_warnings_per_op": asym / k,
        "inference.adjust_skip_share": skipped / k,
        "montecarlo.redraws_per_op": redraws / k,
        "trace.overhead_share": t_traced / t_plain - 1.0,
    })
    return {"metrics": {m: metrics[m] for m in PER_LAYER}, "rows": rows, "identical": bool(identical)}


def setup_probe(name: str, seed: int) -> float:
    """Seconds from the start of a fresh process to ready for the first op."""
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    # perf_counter is CLOCK_MONOTONIC, shared by every process on the host
    return float(out.stdout.split()[-1]) - t0


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    try:
        with open("/proc/self/status") as fh:
            threads = next((int(line.split()[1]) for line in fh if line.startswith("Threads:")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": {v: os.environ.get(v) for v in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "process_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    from workloads import WORKLOADS, Prepared, matches, pvalue_digest

    workload = WORKLOADS[name]
    prep = Prepared(workload, seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    if trace:
        run = measure_traced(prep, seconds, OUT / f"{stem}.spans.csv.gz")
    else:
        run = measure(prep, seconds, lambda: setup_probe(name, seed))
        run["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rows = run["rows"]
    failed = sum(1 for rep, values in rows if not matches(values, prep.reference[rep]))
    if not trace:
        run["metrics"]["success_share"] = 1.0 - failed / len(rows)
    visited = {rep: values for rep, values in rows}
    digests = {
        "reps": len(visited),
        "run": pvalue_digest(visited.items()),
        "reference": pvalue_digest((rep, prep.reference[rep]) for rep in visited),
    }
    names = PER_LAYER if trace else END_TO_END
    result = {
        "correct": failed == 0 and run.get("identical", True),
        "attempted": len(rows),
        "failed": failed,
        "metrics": {m: {"value": run["metrics"][m], "unit": UNITS[m]} for m in names},
    }
    record = {"workload": name, "seconds": seconds, "trace": trace,
              "environment": environment(seed), "pvalue_sha256": digests, "result": result}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    for m in names:
        print(f"{name}  {m:34s} {run['metrics'][m]:.6g} {UNITS[m]}")
    same = "identical" if digests["run"] == digests["reference"] else "DIFFERENT"
    print(f"{name}  pvalue_sha256 {digests['run']} over {digests['reps']} reps ({same} to reference)")
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS, Prepared

    if args.workload != "all" and args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; have {', '.join(WORKLOADS)} or all")
    if args.setup_probe:
        Prepared(WORKLOADS[args.workload], args.seed)
        print(repr(time.perf_counter()))
        return 0
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
