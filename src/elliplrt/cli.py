"""Command-line front end: fit, test, simulate, discrepancy.

The commands parse arguments and print results; model names, simulation
defaults and input checks come from the library.  Exit codes: 0 success,
1 input error (an ``InputError``, ``OSError`` or ``ValueError``, which is
how the library reports bad input), 2 numerical failure (fit did not
converge, a test stage failed, simulation failure rate too high).  All
randomness flows from the simulation seed (``SimulationConfig``'s default
unless the config or ``--seed`` sets one); no wall-clock entropy is ever
used.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .families import FAMILY_KINDS, EllipticalFamily
from .inference import FitError, Hypothesis, StageError, fit, run_test
from .model import MODELS, read_dataset_csv, write_dataset_csv
from .montecarlo import (
    STAT_LABELS,
    SimulationConfig,
    SimulationError,
    pvalue_discrepancy,
    read_pvalues_csv,
    run_simulation,
    simulate_dataset,
    write_discrepancy_csv,
    write_pvalues_csv,
    write_summary_csv,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2

# config JSON key -> SimulationConfig field; the worker count comes from the command line
_CONFIG_KEYS = {("lambda" if f.name == "lam" else f.name): f.name
               for f in dataclasses.fields(SimulationConfig) if f.name != "threads"}


class InputError(Exception):
    pass


def _split(spec: str) -> list:
    return [tok.strip() for tok in spec.split(",") if tok.strip()]


def _inputs(args):
    """(model, family, dataset) named by the common fit/test options."""
    family = EllipticalFamily(args.family, nu=args.nu, lam=args.lam)
    return MODELS[args.model](), family, read_dataset_csv(args.data, args.model)


def _emit(path, payload: dict) -> None:
    """Write ``payload`` as strict JSON to ``path``, or to stdout when no path is given.

    A NaN or infinite number is written as null.
    """
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
        json.dump(_finite_or_null(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _finite_or_null(value):
    if isinstance(value, dict):
        return {key: _finite_or_null(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_fit(args) -> int:
    model, family, data = _inputs(args)
    start = np.asarray([float(tok) for tok in _split(args.start)]) if args.start else None
    result = fit(model, family, data, start=start)
    names = model.param_names
    _emit(args.out, {
        "model": args.model,
        "family": family.label(),
        "theta": {name: float(v) for name, v in zip(names, result.theta)},
        "stderr": {name: float(v) for name, v in zip(names, result.stderr)},
        "loglik": result.loglik,
        "score_norm": result.score_norm,
        "converged": result.converged,
        "iterations": result.iterations,
        "evaluations": result.evaluations,
        "info": [[float(v) for v in row] for row in result.info],
        "diagnostics": result.diagnostics,
    })
    return EXIT_OK if result.converged else EXIT_NUMERICAL


def cmd_test(args) -> int:
    model, family, data = _inputs(args)
    interest = model.indices(_split(args.interest))
    psi0 = [float(tok) for tok in _split(args.psi0)] if args.psi0 else [0.0] * len(interest)
    _emit(args.out, run_test(model, family, data, Hypothesis(interest, psi0, args.sided)).to_dict())
    return EXIT_OK


def _load_sim_config(args) -> SimulationConfig:
    """The config file's keys and the command-line overrides; SimulationConfig fills in and checks the rest."""
    with open(args.config) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{args.config}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise InputError(f"{args.config}: expected a JSON object of config keys")
    unknown = set(raw) - set(_CONFIG_KEYS)
    if unknown:
        raise InputError(f"{args.config}: unknown config keys {sorted(unknown)}")
    kwargs = {_CONFIG_KEYS[key]: value for key, value in raw.items()}
    if isinstance(kwargs.get("interest"), str):
        kwargs["interest"] = _split(kwargs["interest"])
    overrides = {"replications": args.reps, "seed": args.seed,
                 "threads": _env_threads() if args.threads is None else args.threads}
    kwargs.update((key, value) for key, value in overrides.items() if value is not None)
    missing = [f.name for f in dataclasses.fields(SimulationConfig)
               if f.default is dataclasses.MISSING and f.name not in kwargs]
    if missing:
        raise InputError(f"{args.config}: missing required key(s) {missing}")
    return SimulationConfig(**kwargs)


def _env_threads() -> int | None:
    """Worker count from ELLIP_LRT_THREADS (None when unset)."""
    env = os.environ.get("ELLIP_LRT_THREADS")
    if env and (not env.strip().isdecimal() or int(env) < 1):
        raise InputError(f"ELLIP_LRT_THREADS must be a positive integer, got {env!r}")
    return int(env) if env else None


def cmd_simulate(args) -> int:
    config = _load_sim_config(args)
    if args.emit_one:
        write_dataset_csv(args.emit_one, simulate_dataset(config), config.model)
        return EXIT_OK
    if not (args.out_summary and args.out_pvalues):
        raise InputError("simulate requires --out-summary and --out-pvalues (or --emit-one)")
    summary = run_simulation(config)
    write_summary_csv(args.out_summary, summary)
    write_pvalues_csv(args.out_pvalues, summary)
    return EXIT_OK


def cmd_discrepancy(args) -> int:
    columns = read_pvalues_csv(args.infile)
    if args.stat not in columns:
        raise InputError(f"statistic {args.stat!r} not in {args.infile}; available: {', '.join(columns)}")
    write_discrepancy_csv(args.out, pvalue_discrepancy(columns[args.stat]))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elliplrt",
        description="Elliptical-model maximum likelihood fits and higher-order-adjusted likelihood ratio tests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_family(p):
        p.add_argument("--model", required=True, choices=tuple(MODELS))
        p.add_argument("--family", required=True, choices=FAMILY_KINDS)
        p.add_argument("--nu", type=float, default=None, help="degrees of freedom (student_t)")
        p.add_argument("--lambda", dest="lam", type=float, default=None, help="shape (power_exponential)")
        p.add_argument("--data", required=True, help="dataset CSV (long format)")

    p_fit = sub.add_parser("fit", help="maximum likelihood fit")
    add_model_family(p_fit)
    p_fit.add_argument("--start", default=None, help="comma-separated starting theta")
    p_fit.add_argument("--out", default=None, help="output JSON path (default: stdout)")
    p_fit.set_defaults(func=cmd_fit)

    p_test = sub.add_parser("test", help="likelihood ratio tests with adjustments")
    add_model_family(p_test)
    p_test.add_argument("--interest", required=True, help="comma-separated parameter names or indices")
    p_test.add_argument("--psi0", default=None, help="hypothesized values (default zeros)")
    p_test.add_argument("--sided", default="two", choices=("two", "lower", "upper"))
    p_test.add_argument("--out", default=None, help="output JSON path (default: stdout)")
    p_test.set_defaults(func=cmd_test)

    p_sim = sub.add_parser("simulate", help="null rejection-rate study")
    p_sim.add_argument("--config", required=True, help="simulation config JSON")
    p_sim.add_argument("--reps", type=int, default=None, help="override replication count")
    p_sim.add_argument("--seed", type=int, default=None, help="override run seed")
    p_sim.add_argument("--threads", type=int, default=None,
                       help="worker processes, at most the CPU count (default: ELLIP_LRT_THREADS or 1)")
    p_sim.add_argument("--out-summary", default=None)
    p_sim.add_argument("--out-pvalues", default=None)
    p_sim.add_argument("--emit-one", default=None, metavar="CSV",
                       help="write one synthetic dataset instead of simulating")
    p_sim.set_defaults(func=cmd_simulate)

    p_disc = sub.add_parser("discrepancy", help="relative p-value discrepancy table")
    p_disc.add_argument("--in", dest="infile", required=True, help="p-values CSV from simulate")
    p_disc.add_argument("--stat", required=True, help=f"statistic label, one of {', '.join(STAT_LABELS)}")
    p_disc.add_argument("--out", required=True, help="output CSV")
    p_disc.set_defaults(func=cmd_discrepancy)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (FitError, StageError, SimulationError) as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
