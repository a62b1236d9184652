"""Workload definitions, op execution and the per-op reference check.

A workload fixes a study configuration (model, family, n, hypothesis and
the study seed that draws the design and every dataset).  Its datasets
form a pool: dataset k is drawn from the stream keyed by (study seed, k)
with the package's own sampler, exactly as ``run_simulation`` draws
replication k.  The benchmark's ``--seed`` picks the order in which a run
visits the pool (a seeded permutation, repeated if a run outlasts it), so
the same seed always gives the same inputs and every op has a committed
reference.

An op is
  * ``mc``:   one replication -- its draw, any redraws and its
              ``run_test`` started at the true theta, as
              ``run_simulation`` runs it;
  * ``test``: one ``run_test`` call with no start on one dataset, the
              single-analysis path of ``elliplrt test``; the draw happens
              before the op and is not part of it.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from elliplrt import inference
from elliplrt.inference import FitError, StageError
from elliplrt.model import NonSPDError
from elliplrt.montecarlo import SimulationConfig, _Setup

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Statistics compared against the reference, as TestReport attribute names.
FIELDS = ("LR", "r", "r_star", "LR_star", "LR_star2",
          "p_LR", "p_r", "p_r_star", "p_LR_star", "p_LR_star2")
PVALUE_FIELDS = tuple(f for f in FIELDS if f.startswith("p_"))

# An op misses the reference when |value - ref| > ATOL + RTOL |ref| for any
# statistic.  Refactors that only reorder floating-point sums stay far
# inside this; a changed fit optimum or adjustment does not.
RTOL = 1e-6
ATOL = 1e-9

OP_ERRORS = (StageError, FitError, NonSPDError)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "mc" or "test"
    pool: int  # datasets with a committed reference
    config: dict  # SimulationConfig keyword arguments


# Why each workload was chosen is recorded in BENCHMARK.json and METRICS.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mc_m1_t3_n15",
            kind="mc",
            pool=2000,
            config=dict(model="model1", family="student_t", nu=3.0, n=15, interest=(3,),
                        psi0=(0.0,), sided="lower", seed=31415),
        ),
        Workload(
            name="mc_m2_normal_n16",
            kind="mc",
            pool=1000,
            config=dict(model="model2", family="normal", n=16, interest=(2, 3, 4),
                        psi0=(0.0, 0.0, 0.0), sided="two", seed=271828),
        ),
        Workload(
            name="test_m2_t4_n200",
            kind="test",
            pool=200,
            config=dict(model="model2", family="student_t", nu=4.0, n=200, interest=(4,),
                        psi0=(0.0,), sided="two", seed=1512),
        ),
    )
}


class Prepared:
    """Everything a run needs before its first timed op."""

    def __init__(self, workload: Workload, seed: int, load_reference: bool = True):
        self.workload = workload
        self.config = SimulationConfig(replications=workload.pool, **workload.config)
        self.setup = _Setup(self.config)
        self.order = np.random.default_rng(seed).permutation(workload.pool)
        self.reference = read_reference(workload.name) if load_reference else None

    def rep(self, k: int) -> int:
        """Pool index of the k-th op of the run."""
        return int(self.order[k % self.order.size])

    def rng(self, rep: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.config.seed, spawn_key=(1, rep)))

    def dataset(self, rep: int):
        """The first dataset of pool entry rep (the one a ``test`` op analyses)."""
        return self.setup.draw_dataset(self.rng(rep))

    def op(self, rep: int):
        """A callable running the op of pool entry rep; it returns (report or None, draws).

        For a ``test`` workload the dataset is drawn here, before the op.
        """
        if self.workload.kind == "test":
            data = self.dataset(rep)
            return lambda: (self._analyse(data), 0)
        return lambda: self._replicate(rep)

    def _replicate(self, rep: int):
        """Mirrors ``_Setup.run_one`` but keeps the whole report, so every
        statistic can be checked and not only the p-values.  Module
        attributes are looked up at call time so that a tracer can wrap them.
        """
        s = self.setup
        rng = self.rng(rep)
        for attempt in range(1, self.config.max_refit_attempts + 1):
            data = s.draw_dataset(rng)
            try:
                return inference.run_test(s.model, s.family, data, s.hyp, start=s.true_theta), attempt
            except OP_ERRORS:
                continue
        return None, self.config.max_refit_attempts

    def _analyse(self, data):
        s = self.setup
        try:
            return inference.run_test(s.model, s.family, data, s.hyp)
        except OP_ERRORS:
            return None


def report_values(report) -> tuple | None:
    """The checked statistics of a report (None entries for q > 1)."""
    if report is None:
        return None
    return tuple(None if getattr(report, f) is None else float(getattr(report, f)) for f in FIELDS)


def matches(values, ref) -> bool:
    """True when every statistic lies within the tolerance of the reference."""
    if values is None:
        return False
    for v, r in zip(values, ref):
        if (v is None) != (r is None):
            return False
        if v is not None and not (math.isfinite(v) and abs(v - r) <= ATOL + RTOL * abs(r)):
            return False
    return True


def pvalue_digest(rows) -> str:
    """sha256 of the p-values of (rep, values) rows, in rep order.

    Floats enter through repr, so equal digests mean bit-identical p-values.
    """
    h = hashlib.sha256()
    pidx = [FIELDS.index(f) for f in PVALUE_FIELDS]
    for rep, values in sorted(rows, key=lambda rv: rv[0]):
        cells = ["fail"] if values is None else [repr(values[i]) for i in pidx]
        h.update((f"{rep}," + ",".join(cells) + "\n").encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Reference files: one CSV per workload, one row per pool entry
# ---------------------------------------------------------------------------


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.csv"


def write_reference(name: str, rows) -> None:
    with open(reference_path(name), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rep", *FIELDS])
        for rep, values in rows:
            writer.writerow([rep, *["" if v is None else repr(v) for v in values]])


def read_reference(name: str) -> dict:
    """{rep: values} as written by ``write_reference``."""
    out = {}
    with open(reference_path(name), newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != ("rep", *FIELDS):
            raise ValueError(f"{reference_path(name)}: unexpected header {header}")
        for row in reader:
            out[int(row[0])] = tuple(None if c == "" else float(c) for c in row[1:])
    return out
