"""Command-line front end: fit, test, simulate, discrepancy.

Exit codes: 0 success, 1 input error, 2 numerical failure (fit did not
converge, simulation failure rate too high).  All randomness flows from
``--seed`` (default 42); no wall-clock entropy is ever used.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .families import FAMILY_KINDS, EllipticalFamily
from .inference import FitError, Hypothesis, StageError, fit, run_test
from .model import ModelSpec, mixed_model2, nonlinear_model1, read_dataset_csv, write_dataset_csv
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

DEFAULT_SEED = 42

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2


class InputError(Exception):
    pass


def _model_by_name(name: str) -> ModelSpec:
    if name == "model1":
        return nonlinear_model1()
    if name == "model2":
        return mixed_model2()
    raise InputError(f"unknown model {name!r} (expected model1 or model2)")


def _family_from_args(args) -> EllipticalFamily:
    try:
        return EllipticalFamily.from_config(args.family, nu=args.nu, lam=getattr(args, "lam", None))
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _parse_interest(spec: str, model: ModelSpec) -> tuple:
    indices = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if token in model.param_names:
            indices.append(model.param_names.index(token))
        else:
            try:
                indices.append(int(token))
            except ValueError:
                raise InputError(
                    f"unknown parameter {token!r}; names for {model.name} are {', '.join(model.param_names)}"
                ) from None
    if not indices:
        raise InputError("empty --interest")
    return tuple(indices)


def _parse_floats(spec: str) -> list:
    try:
        return [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"bad numeric list {spec!r}: {exc}") from None


def _write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_fit(args) -> int:
    model = _model_by_name(args.model)
    family = _family_from_args(args)
    try:
        data = read_dataset_csv(args.data, args.model)
    except (OSError, ValueError) as exc:
        raise InputError(str(exc)) from None
    start = np.asarray(_parse_floats(args.start), dtype=float) if args.start else None
    try:
        result = fit(model, family, data, start=start)
    except (FitError, ValueError) as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    payload = {
        "model": args.model,
        "family": family.label(),
        "theta": {name: float(v) for name, v in zip(model.param_names, result.theta)},
        "stderr": {name: float(v) for name, v in zip(model.param_names, result.stderr)},
        "loglik": result.loglik,
        "score_norm": result.score_norm,
        "converged": result.converged,
        "iterations": result.iterations,
        "info": [[float(v) for v in row] for row in result.info],
        "diagnostics": result.diagnostics,
    }
    if args.out:
        _write_json(args.out, payload)
    else:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
    return EXIT_OK if result.converged else EXIT_NUMERICAL


def cmd_test(args) -> int:
    model = _model_by_name(args.model)
    family = _family_from_args(args)
    try:
        data = read_dataset_csv(args.data, args.model)
    except (OSError, ValueError) as exc:
        raise InputError(str(exc)) from None
    interest = _parse_interest(args.interest, model)
    psi0 = _parse_floats(args.psi0) if args.psi0 else [0.0] * len(interest)
    try:
        hyp = Hypothesis(interest, psi0, args.sided)
        hyp.check(model)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    try:
        report = run_test(model, family, data, hyp)
    except (StageError, FitError) as exc:
        print(f"test failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    payload = report.to_dict()
    if args.out:
        _write_json(args.out, payload)
    else:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
    return EXIT_OK


def _load_sim_config(args) -> SimulationConfig:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputError(str(exc)) from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{args.config}: invalid JSON ({exc})") from None
    known = {
        "model", "family", "nu", "lambda", "n", "replications", "interest",
        "psi0", "sided", "alpha_levels", "true_theta", "seed", "max_refit_attempts",
    }
    unknown = set(raw) - known
    if unknown:
        raise InputError(f"{args.config}: unknown config keys {sorted(unknown)}")
    for key in ("model", "family", "n"):
        if key not in raw:
            raise InputError(f"{args.config}: missing required key {key!r}")
    model = _model_by_name(raw["model"])
    interest = raw.get("interest")
    if interest is None:
        raise InputError(f"{args.config}: missing required key 'interest'")
    if isinstance(interest, str):
        interest = _parse_interest(interest, model)
    else:
        interest = _parse_interest(",".join(str(t) for t in interest), model)
    psi0 = raw.get("psi0", [0.0] * len(interest))
    try:
        return SimulationConfig(
            model=raw["model"],
            family=raw["family"],
            nu=raw.get("nu"),
            lam=raw.get("lambda"),
            n=int(raw["n"]),
            replications=int(args.reps if args.reps is not None else raw.get("replications", 2000)),
            interest=interest,
            psi0=tuple(float(v) for v in psi0),
            sided=raw.get("sided", "two"),
            alpha_levels=tuple(raw.get("alpha_levels", (0.01, 0.05, 0.10))),
            true_theta=raw.get("true_theta"),
            seed=int(args.seed if args.seed is not None else raw.get("seed", DEFAULT_SEED)),
            max_refit_attempts=int(raw.get("max_refit_attempts", 10)),
            threads=args.threads if args.threads is not None else _env_threads(),
        )
    except (SimulationError, ValueError) as exc:
        raise InputError(str(exc)) from None


def _env_threads() -> int:
    """Worker count from ELLIP_LRT_THREADS (1 when unset)."""
    env = os.environ.get("ELLIP_LRT_THREADS")
    if not env:
        return 1
    try:
        threads = int(env)
    except ValueError:
        threads = 0
    if threads < 1:
        raise InputError(f"ELLIP_LRT_THREADS must be a positive integer, got {env!r}")
    return threads


def cmd_simulate(args) -> int:
    config = _load_sim_config(args)
    if args.emit_one:
        data = simulate_dataset(config)
        write_dataset_csv(args.emit_one, data, config.model)
        return EXIT_OK
    if not (args.out_summary and args.out_pvalues):
        raise InputError("simulate requires --out-summary and --out-pvalues (or --emit-one)")
    try:
        summary = run_simulation(config)
    except SimulationError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    write_summary_csv(args.out_summary, summary)
    write_pvalues_csv(args.out_pvalues, summary)
    return EXIT_OK


def cmd_discrepancy(args) -> int:
    try:
        columns = read_pvalues_csv(args.infile)
    except (OSError, ValueError) as exc:
        raise InputError(str(exc)) from None
    if args.stat not in columns:
        raise InputError(f"statistic {args.stat!r} not in {args.infile}; available: {', '.join(columns)}")
    table = pvalue_discrepancy(columns[args.stat])
    write_discrepancy_csv(args.out, table)
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
        p.add_argument("--model", required=True, choices=("model1", "model2"))
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
    p_sim.add_argument("--threads", type=int, default=None, help="worker processes (default: ELLIP_LRT_THREADS or 1)")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
