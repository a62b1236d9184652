"""Seeded Monte Carlo studies of null rejection rates and p-value calibration.

A simulation run draws one fixed design from the run seed (model-1
covariates, model-2 dimensions and groups), then repeatedly simulates
null datasets, runs the full test pipeline and records the p-value of
every statistic.  Per-replication randomness comes from a splittable
seed sequence keyed by (seed, replication index), so results are
bit-identical for a given seed regardless of how replications are
distributed over worker processes.  Replications whose fits fail are
redrawn up to ``max_refit_attempts`` times.  The summary counts the
redraws, the replications that ran out of them, and, per flag, the
replications whose r*, LR* or LR** p-value is unadjusted because a
correction factor was skipped; none of these counts enters the CSVs.
"""

from __future__ import annotations

import csv
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .families import EllipticalFamily
from .inference import FitError, Hypothesis, StageError, run_test
from .model import MODELS, Dataset, NonSPDError, _integral, evaluate, model1_dataset, model1_design, model2_dataset
from .model import model2_design

__all__ = [
    "SimulationConfig",
    "SimulationSummary",
    "SimulationError",
    "ConfigError",
    "run_simulation",
    "simulate_dataset",
    "pvalue_discrepancy",
    "write_summary_csv",
    "write_pvalues_csv",
    "read_pvalues_csv",
    "write_discrepancy_csv",
    "STAT_LABELS",
]

STAT_LABELS = ("r", "r*", "LR", "LR*", "LR**")

MODEL1_TRUE = (0.5, 0.2, 0.0, 0.0, 0.005)
MODEL2_TRUE = (0.7, 0.5, 0.0, 0.0, 0.0, 500.0, 2.0, 200.0, 5.0)

_DESIGN_KEY = (0,)  # spawn key of the design stream; replication k uses (1, k)

# flags with which run_test reports a correction factor forced to 1
_SKIP_FLAGS = ("near_zero_r", "near_zero_LR", "nonpositive_gamma_ratio", "nonpositive_rho_denominator",
               "nonpositive_score_quadratic_form")


class SimulationError(RuntimeError):
    """The failure rate exceeded the acceptable bound, or (``ConfigError``) the input was invalid."""


class ConfigError(SimulationError, ValueError):
    """An invalid SimulationConfig; a ValueError, as the library's other input errors are."""


def _listed(name: str, value, convert=lambda items: tuple(map(float, items))):
    """``convert(value)`` for a list-valued config field (floats by default); a ConfigError that names it otherwise."""
    if isinstance(value, (str, bytes)) or not np.iterable(value):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from None


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to reproduce one simulation run."""

    model: str  # a key of model.MODELS
    family: str  # "normal" | "student_t" | "power_exponential"
    n: int
    interest: tuple  # parameter indices or names
    psi0: tuple | None = None  # None: zeros
    replications: int = 2000
    sided: str = "two"
    nu: float | None = None
    lam: float | None = None
    alpha_levels: tuple = (0.01, 0.05, 0.10)
    true_theta: tuple | None = None
    seed: int = 42
    max_refit_attempts: int = 10
    threads: int = 1

    def __post_init__(self):
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r} (expected one of {', '.join(MODELS)})")
        spec = MODELS[self.model]()
        least = {"n": spec.p + 1, "replications": 1, "seed": 0, "max_refit_attempts": 1, "threads": 1}
        for name, low in least.items():
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, _integral(value))
            except (TypeError, ValueError):
                raise ConfigError(f"{name} must be an integer, got {value!r}") from None
            if getattr(self, name) < low:
                why = f" ({self.model} has p={spec.p} parameters)" if name == "n" else ""
                raise ConfigError(f"{name} must be >= {low}, got {value!r}{why}")
        alphas = _listed("alpha_levels", self.alpha_levels)
        if any(not 0.0 < a < 1.0 for a in alphas) or list(alphas) != sorted(alphas):
            raise ConfigError("alpha levels must lie in (0,1) and be sorted ascending")
        object.__setattr__(self, "alpha_levels", alphas)
        object.__setattr__(self, "interest", _listed("interest", self.interest, spec.indices))
        psi0 = (0.0,) * len(self.interest) if self.psi0 is None else self.psi0
        object.__setattr__(self, "psi0", _listed("psi0", psi0))
        try:
            self.family_obj()
            self.hypothesis().check(spec)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None
        default = MODEL1_TRUE if self.model == "model1" else MODEL2_TRUE
        true = _listed("true_theta", default if self.true_theta is None else self.true_theta)
        object.__setattr__(self, "true_theta", true)
        if len(true) != spec.p:
            raise ConfigError(f"true_theta has {len(true)} values; {self.model} has p={spec.p}")
        if not np.isfinite(true).all():
            raise ConfigError(f"true_theta must be finite, got {true}")
        for j, v in zip(self.interest, self.psi0):
            if true[j] != v:
                raise ConfigError(
                    f"true_theta[{j}]={true[j]} violates the null value {v}; rates would not be null rates"
                )

    def family_obj(self) -> EllipticalFamily:
        return EllipticalFamily(self.family, nu=self.nu, lam=self.lam)

    def hypothesis(self) -> Hypothesis:
        return Hypothesis(self.interest, np.asarray(self.psi0), self.sided)

    def stat_labels(self) -> tuple:
        if len(self.interest) == 1:
            return STAT_LABELS
        return ("LR", "LR*", "LR**")


@dataclass
class SimulationSummary:
    """Rates, standard errors and retained p-value samples of one run."""

    config: SimulationConfig
    pvalues: dict  # label -> sorted np.ndarray of length R_successful
    failure_count: int
    replications_done: int
    wall_time: float
    redraw_count: int  # datasets drawn again after a failed fit, over all replications
    adjustment_skips: dict  # flag -> kept replications with a factor skipped for it

    def rate(self, statistic: str, alpha: float):
        """(rejection rate, binomial standard error) at level alpha."""
        pv = self.pvalues[statistic]
        R = pv.size
        rate = float(np.count_nonzero(pv < alpha)) / R
        return rate, float(np.sqrt(rate * (1.0 - rate) / R))

    def rows(self):
        for label in self.config.stat_labels():
            for alpha in self.config.alpha_levels:
                rate, se = self.rate(label, alpha)
                yield {"statistic": label, "alpha": alpha, "rate": rate, "stderr": se,
                       "reps": self.pvalues[label].size}


# ---------------------------------------------------------------------------
# Simulation internals
# ---------------------------------------------------------------------------


class _Setup:
    """Fixed design, model and true-parameter evaluation for one run."""

    def __init__(self, config: SimulationConfig):
        self.config = config
        self.redraws = 0
        self.skips: Counter = Counter()
        self.family = config.family_obj()
        self.hyp = config.hypothesis()
        self.true_theta = np.asarray(config.true_theta)
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=_DESIGN_KEY))
        self.model = MODELS[config.model]()
        if config.model == "model1":
            self.design = model1_design(config.n, rng)
            template = model1_dataset(np.zeros(config.n), self.design["x1"], self.design["x2"])
        else:
            self.design = model2_design(config.n, rng)
            template = model2_dataset([np.zeros(u["q"]) for u in self.design], self.design)
        ev = evaluate(self.model, self.true_theta, template)
        # per original observation: q_i, mu_i, Cholesky factor of Sigma_i
        self.obs_mu = [None] * config.n
        self.obs_P = [None] * config.n
        for be in ev.blocks:
            for j, i in enumerate(be.data.idx):
                self.obs_mu[int(i)] = be.mu[j]
                self.obs_P[int(i)] = be.P[j]

    def draw_dataset(self, rng: np.random.Generator) -> Dataset:
        """One null dataset: y_i = mu_i + P_i s_i with spherical s_i."""
        ys = []
        for i in range(self.config.n):
            s = self.family.sample_spherical(self.obs_mu[i].size, rng)
            ys.append(self.obs_mu[i] + self.obs_P[i] @ s)
        if self.config.model == "model1":
            return model1_dataset(np.array([y[0] for y in ys]), self.design["x1"], self.design["x2"])
        return model2_dataset(ys, self.design)

    def run_one(self, rep_index: int):
        """p-values for replication rep_index, or None after exhausted redraws.

        Adds its redraws to ``self.redraws`` and its skip flags to ``self.skips``.
        """
        rng = np.random.default_rng(np.random.SeedSequence(self.config.seed, spawn_key=(1, rep_index)))
        for attempt in range(self.config.max_refit_attempts):
            if attempt:
                self.redraws += 1
            data = self.draw_dataset(rng)
            try:
                report = run_test(self.model, self.family, data, self.hyp, start=self.true_theta)
            except (StageError, FitError, NonSPDError):
                continue
            self.skips.update(f for f in _SKIP_FLAGS if f in report.flags)
            return {label: report.pvalue(label) for label in self.config.stat_labels()}
        return None


def _run_range(config: SimulationConfig, lo: int, hi: int):
    """(results, redraws, skips) of replications lo..hi-1."""
    setup = _Setup(config)
    results = [(k, setup.run_one(k)) for k in range(lo, hi)]
    return results, setup.redraws, setup.skips


def run_simulation(config: SimulationConfig) -> SimulationSummary:
    """Execute the configured run; raises SimulationError on >2% failures."""
    t0 = time.perf_counter()
    R = config.replications
    if config.threads == 1:
        parts = [_run_range(config, 0, R)]
    else:
        bounds = np.linspace(0, R, config.threads + 1).astype(int)
        chunks = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            parts = list(pool.map(_run_range_star, [(config, a, b) for a, b in chunks]))
    results = sorted((kr for part, _, _ in parts for kr in part), key=lambda kr: kr[0])
    skips = sum((part_skips for _, _, part_skips in parts), Counter())

    labels = config.stat_labels()
    collected = {label: [] for label in labels}
    failures = 0
    for _, res in results:
        if res is None:
            failures += 1
            continue
        for label in labels:
            collected[label].append(res[label])
    done = R - failures
    if done == 0 or failures / R > 0.02:
        raise SimulationError(
            f"{failures}/{R} replications failed to fit after {config.max_refit_attempts} redraws"
        )
    pvalues = {label: np.sort(np.asarray(vals)) for label, vals in collected.items()}
    return SimulationSummary(
        config=config,
        pvalues=pvalues,
        failure_count=failures,
        replications_done=done,
        wall_time=time.perf_counter() - t0,
        redraw_count=sum(redraws for _, redraws, _ in parts),
        adjustment_skips=dict(sorted(skips.items())),
    )


def _run_range_star(args):
    return _run_range(*args)


def simulate_dataset(config: SimulationConfig, rep_index: int = 0) -> Dataset:
    """The dataset a given replication would see (for --emit-one and tests)."""
    setup = _Setup(config)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(1, rep_index)))
    return setup.draw_dataset(rng)


# ---------------------------------------------------------------------------
# p-value discrepancy
# ---------------------------------------------------------------------------

DISCREPANCY_GRID = np.round(np.arange(1, 26) * 0.01, 10)


def pvalue_discrepancy(summary_or_pvalues, statistic: str | None = None, grid=None) -> np.ndarray:
    """Relative p-value discrepancy (ecdf(p) - p) / p on a grid of levels.

    ``summary_or_pvalues`` is either a SimulationSummary (then
    ``statistic`` selects the sample) or a p-value array.  Returns an
    array of rows (asymptotic_p, relative_discrepancy).
    """
    if isinstance(summary_or_pvalues, SimulationSummary):
        if statistic is None:
            raise ValueError("statistic label required when passing a summary")
        if statistic not in summary_or_pvalues.pvalues:
            raise ValueError(f"statistic {statistic!r} not present; have {tuple(summary_or_pvalues.pvalues)}")
        sample = summary_or_pvalues.pvalues[statistic]
    else:
        sample = np.sort(np.asarray(summary_or_pvalues, dtype=float))
    if sample.size == 0:
        raise ValueError("empty p-value sample")
    g = DISCREPANCY_GRID if grid is None else np.asarray(grid, dtype=float)
    ecdf = np.searchsorted(sample, g, side="right") / sample.size
    return np.column_stack([g, (ecdf - g) / g])


# ---------------------------------------------------------------------------
# CSV serialization (plot-ready, byte-reproducible)
# ---------------------------------------------------------------------------


def write_summary_csv(path, summary: SimulationSummary) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["statistic", "alpha", "rate", "stderr", "reps", "failures"])
        for row in summary.rows():
            writer.writerow([
                row["statistic"], repr(float(row["alpha"])), repr(row["rate"]),
                repr(row["stderr"]), row["reps"], summary.failure_count,
            ])


def write_pvalues_csv(path, summary: SimulationSummary) -> None:
    labels = summary.config.stat_labels()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", *labels])
        # columns are per-statistic sorted samples; rows pair equal ranks
        n = summary.replications_done
        for k in range(n):
            writer.writerow([k + 1, *[repr(float(summary.pvalues[label][k])) for label in labels]])


def read_pvalues_csv(path) -> dict:
    """Read a p-values CSV back into {statistic: np.ndarray}; a row that is not all numbers is a ValueError."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames
        if fields is None or "rank" not in fields:
            raise ValueError(f"{path}: not a p-values CSV (missing 'rank' column)")
        labels = [c for c in fields if c != "rank"]
        cols = {label: [] for label in labels}
        for row in reader:
            try:  # a short row holds None and a long one a list: both raise TypeError
                row = {key: float(value) for key, value in row.items()}
            except (TypeError, ValueError):
                raise ValueError(f"{path}, line {reader.line_num}: expected {len(fields)} numbers") from None
            for label in labels:
                cols[label].append(row[label])
    return {label: np.asarray(vals) for label, vals in cols.items()}


def write_discrepancy_csv(path, table: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["asymptotic_p", "relative_discrepancy"])
        for g, d in table:
            writer.writerow([repr(float(g)), repr(float(d))])
