"""Write, or check, the per-op reference of every workload's dataset pool.

    python3 bench/make_reference.py            # rewrite reference/*.csv
    python3 bench/make_reference.py --check    # recompute and compare, write nothing

Each pool entry is run once as the benchmark runs it.  Every entry must
succeed; a failing op stops the script.  ``--check`` prints, per workload,
the sha256 of the whole pool's p-values next to that of the committed file,
so that bit-identical output across commits can be shown without timing
anything.  Exits with code 1 when ``--check`` finds an op outside the
tolerance.
"""

from __future__ import annotations

import argparse
import sys

from run import import_program


def pool_rows(prep):
    from workloads import report_values

    for rep in range(prep.workload.pool):
        report, _ = prep.op(rep)()
        if report is None:
            sys.exit(f"{prep.workload.name}: pool entry {rep} failed; choose another workload")
        yield rep, report_values(report)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true")
    args = ap.parse_args(argv)
    import_program()
    from workloads import WORKLOADS, Prepared, matches, pvalue_digest, write_reference

    status = 0
    for name in WORKLOADS:
        prep = Prepared(WORKLOADS[name], seed=0, load_reference=args.check)
        rows = list(pool_rows(prep))
        if not args.check:
            write_reference(name, rows)
            print(f"{name}: wrote {len(rows)} ops, pvalue_sha256 {pvalue_digest(rows)}")
            continue
        missed = sum(1 for rep, values in rows if not matches(values, prep.reference[rep]))
        now, ref = pvalue_digest(rows), pvalue_digest(prep.reference.items())
        print(f"{name}: {missed}/{len(rows)} ops outside tolerance; pvalue_sha256 {now} "
              f"({'identical' if now == ref else 'different'} to reference {ref})")
        status |= missed > 0
    return status


if __name__ == "__main__":
    sys.exit(main())
