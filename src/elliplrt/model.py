"""Model abstraction: per-observation mean and scatter with derivatives.

A ``ModelSpec`` maps a parameter vector theta to, for every observation i,
the mean vector mu_i (length q_i), the SPD scatter matrix Sigma_i
(q_i x q_i) and their first and second derivatives in theta.  Observations
with equal q_i are grouped into blocks so that evaluation is vectorized;
``ModelEval`` stores the blocked arrays plus the Cholesky factor, the
inverse and the log-determinant of every Sigma_i.

Two built-in models are provided:

* ``nonlinear_model1`` — scalar response with reciprocal-linear mean
  mu_i = 1 / (1 + b0 + b1 x1 + b2 x2 + b3 x2^2) and constant variance
  sigma2; theta = (b0, b1, b2, b3, sigma2), p = 5.
* ``mixed_model2`` — random intercept/slope mixed linear model with
  marginal mean X_i beta and scatter Z_i Delta Z_i' + sigma2 I, where
  Delta = [[g1, g2], [g2, g3]]; theta = (b0..b4, g1, g2, g3, sigma2),
  p = 9.

Models without analytic derivative callbacks fall back to central finite
differences (steps 1e-6 for first, 1e-4 for second derivatives, scaled by
max(1, |theta_r|)).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from ._linalg import cholesky_blocks

__all__ = [
    "Observation",
    "Dataset",
    "DataBlock",
    "ModelSpec",
    "BlockEval",
    "ModelEval",
    "NonSPDError",
    "evaluate",
    "fd_derivatives",
    "nonlinear_model1",
    "mixed_model2",
    "MODELS",
    "model1_design",
    "model2_design",
    "model1_dataset",
    "model2_dataset",
    "read_dataset_csv",
    "write_dataset_csv",
]


class NonSPDError(ValueError):
    """Sigma_i of observation ``index`` has no finite Cholesky factor or no finite inverse at the current theta."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"scatter matrix of observation {index} is not positive definite")


# ---------------------------------------------------------------------------
# Data containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Observation:
    """One response vector with its named covariates.

    ``y`` has length q_i; covariate values are scalars or arrays whose
    leading dimension is q_i where applicable.
    """

    y: np.ndarray
    covariates: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "y", np.atleast_1d(np.asarray(self.y, dtype=float)))
        if self.y.ndim != 1 or self.y.size < 1:
            raise ValueError(f"observation response must be a nonempty vector, got shape {self.y.shape}")

    @property
    def q(self) -> int:
        return self.y.shape[0]


@dataclass(frozen=True)
class DataBlock:
    """Observations of equal dimension q, stacked for vectorized evaluation."""

    q: int
    idx: np.ndarray  # (m,) original observation indices
    y: np.ndarray  # (m, q)
    cov: dict  # name -> (m, ...) stacked covariate arrays
    # theta-independent arrays built from the covariates (``cached``) and
    # from those arrays (``derived``), by name
    cache: dict = field(default_factory=dict, repr=False, compare=False)

    def cached(self, key: str, build: Callable) -> np.ndarray:
        """``build(self)`` computed once per block and frozen read-only."""
        arr = self.cache.get(key)
        if arr is None:
            arr = build(self)
            arr.setflags(write=False)
            self.cache[key] = arr
        return arr

    def derived(self, key: str, source: np.ndarray, build: Callable):
        """``build(source)``, kept (read-only) while ``source`` is the same read-only array.

        A read-only derivative array comes from ``cached`` and does not
        depend on theta, so what is built from it is built once per block.
        A writeable source is built from on every call.
        """
        if source.flags.writeable:
            return build(source)
        hit = self.cache.get(key)
        if hit is None or hit[0] is not source:
            out = build(source)
            if isinstance(out, np.ndarray):
                out.setflags(write=False)
            hit = self.cache[key] = (source, out)
        return hit[1]

    @property
    def m(self) -> int:
        return self.idx.shape[0]


class Dataset:
    """Ordered collection of independent observations.

    The observations are grouped by q into blocks when the dataset is
    built.  A ValueError names the first observation whose covariate
    names differ from observation 0's, else the first that holds a
    non-finite response or covariate.
    """

    def __init__(self, observations: Sequence[Observation]):
        if len(observations) < 1:
            raise ValueError("dataset must contain at least one observation")
        self.observations = list(observations)
        names = self.observations[0].covariates.keys()
        for i, obs in enumerate(self.observations):
            if obs.covariates.keys() != names:
                raise ValueError(f"observation {i} has covariates {sorted(obs.covariates)}, not {sorted(names)}")
        self._blocks = _group_blocks(self.observations)

    @property
    def n(self) -> int:
        return len(self.observations)

    def blocks(self) -> list[DataBlock]:
        """Observations grouped by q (ascending), stable in original order."""
        return self._blocks


def _group_blocks(observations: list[Observation]) -> list[DataBlock]:
    by_q: dict[int, list[int]] = {}
    for i, obs in enumerate(observations):
        by_q.setdefault(obs.q, []).append(i)
    blocks, bad = [], []
    for q in sorted(by_q):
        idx = np.asarray(by_q[q], dtype=int)
        members = [observations[i] for i in idx]
        y = np.stack([o.y for o in members])
        cov = {k: np.stack([np.asarray(o.covariates[k], dtype=float) for o in members])
               for k in members[0].covariates}
        for what, arr in (("response", y), *((f"covariate {k!r}", c) for k, c in cov.items())):
            finite = np.isfinite(arr.reshape(idx.size, -1)).all(axis=1)
            if not finite.all():
                bad.append((int(idx[finite.argmin()]), what))
        blocks.append(DataBlock(q=q, idx=idx, y=y, cov=cov))
    if bad:
        raise ValueError("observation {} has a non-finite {}".format(*min(bad)))
    return blocks


# ---------------------------------------------------------------------------
# Model specification and evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    """Mean/scatter specification with optional analytic derivatives.

    The callbacks operate on one DataBlock at a time and return stacked
    arrays: mu (m,q); dmu (m,p,q) with dmu[i,r] = d mu_i / d theta_r;
    d2mu (m,p,p,q); sigma (m,q,q); dsigma (m,p,q,q); d2sigma (m,p,p,q,q).
    A derivative callback returning None (or left unset) means the
    corresponding derivatives are identically zero (d2mu/d2sigma) or must
    be obtained by finite differences (dmu/dsigma).  Callbacks may keep
    theta-independent arrays in ``blk.cached``; those are shared between
    evaluations and read-only.
    """

    name: str
    p: int
    param_names: tuple[str, ...]
    mu_fn: Callable
    sigma_fn: Callable
    dmu_fn: Callable | None = None
    d2mu_fn: Callable | None = None
    dsigma_fn: Callable | None = None
    d2sigma_fn: Callable | None = None
    positive: tuple[int, ...] = ()  # variance-type indices, optimized on log scale
    start_fn: Callable | None = None

    def start(self, data: Dataset) -> np.ndarray:
        if self.start_fn is None:
            raise ValueError(f"model {self.name!r} has no start heuristic; pass an explicit start")
        return np.asarray(self.start_fn(data), dtype=float)

    def indices(self, tokens) -> tuple[int, ...]:
        """Parameter indices of ``tokens``: parameter names, integers or integer strings."""
        out = []
        for t in tokens:
            try:
                out.append(self.param_names.index(t) if t in self.param_names else _integral(t))
            except (TypeError, ValueError):
                names = ", ".join(self.param_names)
                raise ValueError(f"unknown parameter {t!r}; names for {self.name} are {names}") from None
        return tuple(out)


def _integral(value) -> int:
    """``int(value)`` for an integral value (15, 15.0 or "15"); ValueError for 15.7, inf, NaN or a bool."""
    if isinstance(value, (bool, np.bool_)) or not (isinstance(value, int) or float(value).is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


class BlockEval:
    """Evaluated model quantities for one block (see ModelSpec for shapes).

    ``mu``, ``sigma``, ``P`` (the lower Cholesky factor of sigma), the
    read-only ``sinv`` (Sigma^{-1}) and ``logdet`` (log|Sigma|) are
    computed when the block is evaluated by ``_linalg.cholesky_blocks``;
    P and sinv are finite, or NonSPDError names the first observation
    whose Sigma does not factor or whose factor or inverse is not finite.
    A rejected q >= 2 stack is scanned for it from the front: model 2's
    Sigma is one matrix for every row of a simulated block, so the 2,747
    rejected stacks of 40 ``test_m2_t4_n200`` and 1,000 ``mc_m2_normal_n16``
    benchmark ops all failed at row 0; on 20 model-2 datasets with random
    times, 333 of 343 failed within the first five rows.  The derivative arrays ``dmu``, ``d2mu``,
    ``dsigma`` and ``d2sigma`` are computed on first access, so a caller
    that needs only the log-likelihood runs no derivative callback.
    Derivatives come from the model's analytic callbacks, or from central
    finite differences where the model has none.  A theta-independent
    dsigma (a read-only array from ``DataBlock.cached``) is symmetrized
    once per block and shared by every evaluation.
    """

    def __init__(self, model: ModelSpec, theta: np.ndarray, data: DataBlock):
        self.model, self.theta, self.data = model, theta, data
        self.mu = model.mu_fn(theta, data)
        self.sigma = model.sigma_fn(theta, data)
        factors, k = cholesky_blocks(self.sigma)
        if factors is None:
            raise NonSPDError(int(data.idx[k]))
        self.P, self.sinv, self.logdet = factors
        self._analytic_mu = model.dmu_fn is not None
        self._analytic_sigma = model.dsigma_fn is not None

    def _mu_at(self, t):
        return self.model.mu_fn(t, self.data)

    def _sigma_at(self, t):
        return self.model.sigma_fn(t, self.data)

    @cached_property
    def dmu(self) -> np.ndarray:
        if self._analytic_mu:
            return self.model.dmu_fn(self.theta, self.data)
        return _fd_first(self._mu_at, self.theta)

    @cached_property
    def d2mu(self) -> np.ndarray | None:
        if self._analytic_mu:
            fn = self.model.d2mu_fn
            d2mu = None if fn is None else fn(self.theta, self.data)
        else:
            d2mu = _fd_second(self._mu_at, self.theta)
        return None if d2mu is None else 0.5 * (d2mu + np.swapaxes(d2mu, 1, 2))

    @cached_property
    def dsigma(self) -> np.ndarray:
        if self._analytic_sigma:
            dsigma = self.model.dsigma_fn(self.theta, self.data)
        else:
            dsigma = _fd_first(self._sigma_at, self.theta)
        # dsigma must be exactly symmetric in its matrix indices
        return self.data.derived("dsigma", dsigma, lambda d: 0.5 * (d + np.swapaxes(d, -1, -2)))

    @cached_property
    def d2sigma(self) -> np.ndarray | None:
        if self._analytic_sigma:
            fn = self.model.d2sigma_fn
            d2sigma = None if fn is None else fn(self.theta, self.data)
        else:
            d2sigma = _fd_second(self._sigma_at, self.theta)
        return None if d2sigma is None else 0.5 * (d2sigma + np.swapaxes(d2sigma, 1, 2))


@dataclass
class ModelEval:
    """Blocked evaluation of a model at one theta."""

    theta: np.ndarray
    p: int
    n: int
    blocks: list[BlockEval]
    # the likelihood's stage 0 for the default residuals, set by likelihood.py
    stage0: object = field(default=None, repr=False, compare=False)


def _fd_steps(theta: np.ndarray, scale: float) -> np.ndarray:
    return scale * np.maximum(1.0, np.abs(theta))


def _fd_first(fn: Callable, theta: np.ndarray, h_scale: float = 1e-6):
    """Central differences of fn(theta) (block-shaped) in every theta_r."""
    h = _fd_steps(theta, h_scale)
    cols = []
    for r in range(theta.size):
        tp, tm = theta.copy(), theta.copy()
        tp[r] += h[r]
        tm[r] -= h[r]
        cols.append((fn(tp) - fn(tm)) / (2.0 * h[r]))
    return np.moveaxis(np.stack(cols), 0, 1)  # (m, p, ...)


def _fd_second(fn: Callable, theta: np.ndarray, h_scale: float = 1e-4):
    """Nested central differences; symmetrized over the (s, r) pair."""
    p = theta.size
    h = _fd_steps(theta, h_scale)
    base = fn(theta)
    out = np.empty((p, p) + base.shape, dtype=float)
    for s in range(p):
        for r in range(s, p):
            t = theta.copy()
            if r == s:
                t[r] = theta[r] + h[r]
                fp = fn(t)
                t[r] = theta[r] - h[r]
                fm = fn(t)
                val = (fp - 2.0 * base + fm) / h[r] ** 2
            else:
                t[s], t[r] = theta[s] + h[s], theta[r] + h[r]
                fpp = fn(t)
                t[r] = theta[r] - h[r]
                fpm = fn(t)
                t[s], t[r] = theta[s] - h[s], theta[r] + h[r]
                fmp = fn(t)
                t[r] = theta[r] - h[r]
                fmm = fn(t)
                val = (fpp - fpm - fmp + fmm) / (4.0 * h[s] * h[r])
            out[s, r] = val
            out[r, s] = val
    return np.moveaxis(out, 2, 0)  # (m, p, p, ...)


def evaluate(model: ModelSpec, theta, data: Dataset) -> ModelEval:
    """Evaluate mu_i and Sigma_i at theta; derivatives follow on first access.

    Every block's Sigma is factored and inverted here, so NonSPDError
    (with the offending observation index) is raised before any
    derivative callback runs.  Analytic derivatives are used where the model
    provides them and finite differences otherwise.
    """
    # a private copy: derivatives are computed later from this theta
    theta = np.array(theta, dtype=float)
    if theta.shape != (model.p,):
        raise ValueError(f"theta has shape {theta.shape}, expected ({model.p},)")
    blocks = [BlockEval(model, theta, blk) for blk in data.blocks()]
    return ModelEval(theta=theta, p=model.p, n=data.n, blocks=blocks)


def fd_derivatives(model: ModelSpec, theta, data: Dataset) -> ModelEval:
    """Like evaluate() but with all derivatives from finite differences."""
    fd_model = replace(model, dmu_fn=None, d2mu_fn=None, dsigma_fn=None, d2sigma_fn=None)
    return evaluate(fd_model, theta, data)


# ---------------------------------------------------------------------------
# Built-in model 1: reciprocal-linear nonlinear regression
# ---------------------------------------------------------------------------

MODEL1_PARAMS = ("beta0", "beta1", "beta2", "beta3", "sigma2")


def _m1_build_terms(blk: DataBlock) -> np.ndarray:
    x1, x2 = blk.cov["x1"], blk.cov["x2"]
    return np.stack([np.ones_like(x1), x1, x2, x2**2], axis=1)  # (m, 4)


def _m1_terms(blk: DataBlock) -> np.ndarray:
    return blk.cached("m1_terms", _m1_build_terms)


def _m1_mu(theta, blk):
    t = _m1_terms(blk)
    h = 1.0 + t @ theta[:4]
    return (1.0 / h)[:, None]


def _m1_dmu(theta, blk):
    t = _m1_terms(blk)
    h = 1.0 + t @ theta[:4]
    d = np.zeros((blk.m, 5, 1))
    d[:, :4, 0] = -t / (h**2)[:, None]
    return d


def _m1_d2mu(theta, blk):
    t = _m1_terms(blk)
    h = 1.0 + t @ theta[:4]
    d2 = np.zeros((blk.m, 5, 5, 1))
    tt2 = blk.cached("m1_tt2", lambda _: 2.0 * t[:, :, None] * t[:, None, :])  # theta-free: built once per block
    d2[:, :4, :4, 0] = tt2 / (h**3)[:, None, None]
    return d2


def _m1_sigma(theta, blk):
    return np.full((blk.m, 1, 1), theta[4])


def _m1_build_dsigma(blk):
    d = np.zeros((blk.m, 5, 1, 1))
    d[:, 4] = 1.0
    return d


def _m1_dsigma(theta, blk):
    return blk.cached("m1_dsigma", _m1_build_dsigma)


def _m1_start(data: Dataset) -> np.ndarray:
    blk = data.blocks()[0]
    y = blk.y[:, 0]
    t = _m1_terms(blk)
    # invert the mean link on guarded responses, then least squares
    h = 1.0 / np.clip(y, 0.1, None)
    coef, *_ = np.linalg.lstsq(t, h - 1.0, rcond=None)
    mu = 1.0 / (1.0 + t @ coef)
    s2 = float(np.mean((y - mu) ** 2))
    return np.concatenate([coef, [max(s2, 1e-8)]])


def nonlinear_model1() -> ModelSpec:
    """Scalar nonlinear model: mu = 1/(1 + b0 + b1 x1 + b2 x2 + b3 x2^2), Sigma = sigma2.

    Covariates per observation: scalars ``x1`` and ``x2``.  All
    derivatives are analytic; second derivatives of Sigma vanish.
    """
    return ModelSpec(
        name="model1",
        p=5,
        param_names=MODEL1_PARAMS,
        mu_fn=_m1_mu,
        sigma_fn=_m1_sigma,
        dmu_fn=_m1_dmu,
        d2mu_fn=_m1_d2mu,
        dsigma_fn=_m1_dsigma,
        d2sigma_fn=None,
        positive=(4,),
        start_fn=_m1_start,
    )


def model1_design(n: int, rng: np.random.Generator) -> dict:
    """Draw the fixed model-1 design: x1, x2 ~ U(0,1), held across replications."""
    return {"x1": rng.uniform(0.0, 1.0, n), "x2": rng.uniform(0.0, 1.0, n)}


def model1_dataset(y, x1, x2) -> Dataset:
    y, x1, x2 = (np.asarray(a, dtype=float) for a in (y, x1, x2))
    if not (y.shape == x1.shape == x2.shape):
        raise ValueError("y, x1, x2 must have equal lengths")
    return Dataset([Observation(np.array([yi]), {"x1": xi1, "x2": xi2}) for yi, xi1, xi2 in zip(y, x1, x2)])


# ---------------------------------------------------------------------------
# Built-in model 2: mixed linear model (random intercept and slope)
# ---------------------------------------------------------------------------

MODEL2_PARAMS = ("beta0", "beta1", "beta2", "beta3", "beta4", "gamma1", "gamma2", "gamma3", "sigma2")
MODEL2_TIMES = np.array([5.0, 10.0, 15.0, 30.0, 60.0])


def _m2_mu(theta, blk):
    return blk.cov["X"] @ theta[:5]


def _m2_build_dmu(blk):
    m, q = blk.y.shape
    d = np.zeros((m, 9, q))
    d[:, :5, :] = np.swapaxes(blk.cov["X"], 1, 2)
    return d


def _m2_dmu(theta, blk):
    return blk.cached("m2_dmu", _m2_build_dmu)


def _m2_sigma(theta, blk):
    Z = blk.cov["Z"]
    g1, g2, g3, s2 = theta[5], theta[6], theta[7], theta[8]
    delta = np.array([[g1, g2], [g2, g3]])
    q = blk.q
    return Z @ delta @ np.swapaxes(Z, 1, 2) + s2 * np.eye(q)


def _m2_build_dsigma(blk):
    Z = blk.cov["Z"]
    m, q = blk.y.shape
    z1, z2 = Z[:, :, 0], Z[:, :, 1]
    d = np.zeros((m, 9, q, q))
    d[:, 5] = z1[:, :, None] * z1[:, None, :]
    d[:, 6] = z1[:, :, None] * z2[:, None, :] + z2[:, :, None] * z1[:, None, :]
    d[:, 7] = z2[:, :, None] * z2[:, None, :]
    d[:, 8] = np.eye(q)
    return d


def _m2_dsigma(theta, blk):
    return blk.cached("m2_dsigma", _m2_build_dsigma)


def _m2_start(data: Dataset) -> np.ndarray:
    # stacked OLS for the fixed effects, method of moments for variances
    rows_X, rows_y = [], []
    for obs in data.observations:
        rows_X.append(obs.covariates["X"])
        rows_y.append(obs.y)
    X = np.vstack(rows_X)
    yall = np.concatenate(rows_y)
    beta, *_ = np.linalg.lstsq(X, yall, rcond=None)
    means, resid, ssq, nrow = [], [], 0.0, 0
    by_time: dict[bytes, list[int]] = {}  # time vector -> units with q >= 2
    for k, obs in enumerate(data.observations):
        e = obs.y - obs.covariates["X"] @ beta
        means.append(e.sum() / obs.q)  # what e.mean() computes
        resid.append(e)
        if obs.q >= 2:
            by_time.setdefault(obs.covariates["Z"][:, 1].tobytes(), []).append(k)
        ssq += float(e @ e)
        nrow += obs.q
    # one least-squares line fit per distinct, non-constant time vector,
    # slopes back in unit order
    slope_of = {}
    for units in by_time.values():
        t = data.observations[units[0]].covariates["Z"][:, 1]
        if np.ptp(t) > 0:
            fitted = np.polyfit(t, np.column_stack([resid[k] for k in units]), 1)[0]
            slope_of.update(zip(units, fitted))
    slopes = [slope_of[k] for k in sorted(slope_of)]
    g1 = max(float(np.var(means)), 1.0)
    g3 = max(float(np.var(slopes)) if len(slopes) >= 2 else 1e-2, 1e-3)
    s2 = max(ssq / nrow * 0.5, 1e-3)
    return np.concatenate([beta, [g1, 0.0, g3, s2]])


def mixed_model2() -> ModelSpec:
    """Mixed linear model: mu = X beta, Sigma = Z Delta Z' + sigma2 I.

    Covariates per observation: ``X`` (q_i x 5), ``Z`` (q_i x 2).  The
    model is linear in every parameter block, so all second derivatives
    vanish.
    """
    return ModelSpec(
        name="model2",
        p=9,
        param_names=MODEL2_PARAMS,
        mu_fn=_m2_mu,
        sigma_fn=_m2_sigma,
        dmu_fn=_m2_dmu,
        d2mu_fn=None,
        dsigma_fn=_m2_dsigma,
        d2sigma_fn=None,
        positive=(5, 7, 8),
        start_fn=_m2_start,
    )


MODELS = {"model1": nonlinear_model1, "model2": mixed_model2}  # name -> ModelSpec factory


def model2_design(n: int, rng: np.random.Generator) -> list[dict]:
    """Draw the fixed model-2 design, held across replications.

    Per unit i: q_i uniform on {1..5}; group assigned cyclically
    (i mod 4) so the four groups are balanced; times are the first q_i
    entries of (5, 10, 15, 30, 60).
    """
    qs = rng.integers(1, 6, size=n)
    units = []
    for i in range(n):
        q = int(qs[i])
        group = (i % 4) + 1
        time = MODEL2_TIMES[:q]
        units.append(_m2_unit(q, group, time))
    return units


def _m2_unit(q: int, group: int, time: np.ndarray) -> dict:
    dummies = np.zeros((q, 3))
    if group >= 2:
        dummies[:, group - 2] = 1.0
    X = np.column_stack([np.ones(q), time, dummies])
    Z = np.column_stack([np.ones(q), time])
    return {"q": q, "group": group, "time": np.asarray(time, dtype=float), "X": X, "Z": Z}


def model2_dataset(y_list: Sequence[np.ndarray], design: Sequence[dict]) -> Dataset:
    if len(y_list) != len(design):
        raise ValueError("y_list and design must have equal lengths")
    obs = []
    for y, unit in zip(y_list, design):
        y = np.asarray(y, dtype=float)
        if y.shape != (unit["q"],):
            raise ValueError(f"response shape {y.shape} does not match unit dimension {unit['q']}")
        obs.append(
            Observation(
                y,
                {"time": unit["time"], "group": float(unit["group"]), "X": unit["X"], "Z": unit["Z"]},
            )
        )
    return Dataset(obs)


# ---------------------------------------------------------------------------
# CSV input/output (long format)
# ---------------------------------------------------------------------------

_MODEL_COLUMNS = {"model1": ("x1", "x2"), "model2": ("time", "group")}


def read_dataset_csv(path, model_name: str) -> Dataset:
    """Read a long-format dataset CSV: unit_id, row_index, y, covariates.

    model1 expects covariate columns x1, x2 (one row per unit); model2
    expects time and group (1-4), several rows per unit.  unit_id and
    row_index are integers, a row_index appears once per unit, and y and
    the x1, x2 or time covariate are finite; a ValueError names the path,
    line and unit of a row that breaks this.
    """
    if model_name not in _MODEL_COLUMNS:
        raise ValueError(f"unknown model {model_name!r}; expected one of {tuple(_MODEL_COLUMNS)}")
    needed = ("unit_id", "row_index", "y") + _MODEL_COLUMNS[model_name]
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty CSV")
        missing = [c for c in needed if c not in reader.fieldnames]
        if missing:
            raise ValueError(f"{path}: missing required column(s) {', '.join(missing)}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            try:
                r = {c: float(row[c]) for c in needed} | {"line": lineno}
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: row {lineno}: non-numeric value ({exc})") from None
            for key in ("unit_id", "row_index"):
                try:
                    r[key] = _integral(r[key])
                except ValueError:
                    raise ValueError(f"{path}: row {lineno}: unit {r['unit_id']:g}: {key} {r[key]!r} "
                                     "is not an integer") from None
            for key in ("y", "x1", "x2", "time"):
                if key in r and not np.isfinite(r[key]):
                    raise ValueError(f"{path}: row {lineno}: unit {r['unit_id']}: {key} must be finite, got {r[key]}")
            rows.append(r)
    if not rows:
        raise ValueError(f"{path}: no data rows")

    units: dict[int, list[dict]] = {}
    for r in rows:
        units.setdefault(r["unit_id"], []).append(r)
    obs = []
    for uid in sorted(units):
        unit_rows = sorted(units[uid], key=lambda r: r["row_index"])
        for prev, r in zip(unit_rows, unit_rows[1:]):
            if r["row_index"] == prev["row_index"]:
                raise ValueError(f"{path}: row {r['line']}: unit {uid}: row_index {r['row_index']} is repeated")
        y = np.array([r["y"] for r in unit_rows])
        if model_name == "model1":
            if len(unit_rows) != 1:
                raise ValueError(f"{path}: row {units[uid][1]['line']}: unit {uid}: model1 units must have one row; "
                                 f"this one has {len(unit_rows)}")
            obs.append(Observation(y, {"x1": unit_rows[0]["x1"], "x2": unit_rows[0]["x2"]}))
        else:
            for r in unit_rows:
                where = f"{path}: row {r['line']}: unit {uid}: group"
                try:
                    r["group"] = _integral(r["group"])
                except ValueError:
                    raise ValueError(f"{where} {r['group']!r} is not an integer") from None
                if r["group"] != unit_rows[0]["group"]:
                    raise ValueError(f"{where} must be constant within a unit")
                if not 1 <= r["group"] <= 4:
                    raise ValueError(f"{where} must be in 1..4, got {r['group']}")
            group = unit_rows[0]["group"]
            time = np.array([r["time"] for r in unit_rows])
            unit = _m2_unit(len(unit_rows), group, time)
            obs.append(Observation(y, {"time": time, "group": float(group), "X": unit["X"], "Z": unit["Z"]}))
    return Dataset(obs)


def write_dataset_csv(path, data: Dataset, model_name: str) -> None:
    """Write a dataset in the long CSV format accepted by read_dataset_csv."""
    if model_name not in _MODEL_COLUMNS:
        raise ValueError(f"unknown model {model_name!r}; expected one of {tuple(_MODEL_COLUMNS)}")
    cols = ("unit_id", "row_index", "y") + _MODEL_COLUMNS[model_name]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for i, obs in enumerate(data.observations, start=1):
            for j in range(obs.q):
                if model_name == "model1":
                    extra = [repr(float(obs.covariates["x1"])), repr(float(obs.covariates["x2"]))]
                else:
                    extra = [repr(float(obs.covariates["time"][j])), repr(int(obs.covariates["group"]))]
                writer.writerow([i, j + 1, repr(float(obs.y[j])), *extra])
