"""Maximum-likelihood fitting and standard/adjusted likelihood ratio tests.

Fitting maximizes the log-likelihood with a damped Newton iteration on
internally transformed coordinates (variance-type parameters move on the
log scale, everything else on the natural scale), using the analytic
score and observed information; an L-BFGS-B stage plus jittered restarts
back it up when Newton stalls, all within one fit's budget of FIT_EVALS
model evaluations.  Reported quantities (theta, score,
information, standard errors) are always on the natural scale.

Tests: for interest block psi of dimension q,

    LR   = 2 (l-hat - l-tilde)                       ~ chi2_q
    r    = sign(psi-hat - psi0) sqrt(LR)  (q = 1)    ~ N(0, 1)
    r*   = r - log(gamma) / r
    LR*  = LR (1 - log(rho)/LR)^2
    LR** = LR - 2 log(rho)

where gamma and rho are assembled from sample-space derivatives taken
through the approximate ancillary (see the ancillary module):

    gamma = |J-hat|^(1/2) |U'~|^(-1) |J~_ww|^(1/2)
            r / [(l-hat' - l-tilde')' (U'~)^(-1)]_psi

    rho   = |J-hat|^(1/2) |U'~|^(-1) |J~_ww|^(1/2) |JJ_ww|^(-1/2) |JJ|^(1/2)
            (U~' JJ^(-1) U~)^(q/2) / [LR^(q/2-1) (l-hat' - l-tilde')' (U'~)^(-1) U~]

with JJ the double-tilde information.  ``adjustment_factors`` computes
both: the first three determinants and the solve against (U'~)' are
shared, and rho's log-determinant sum continues gamma's.  Determinants
enter through their absolute values; a negative raw determinant is
surfaced as a note, once per matrix.
Both read the interest block psi and U~ from the restricted fit.
Degenerate situations skip the adjustment (factor 1) and set a flag
naming the reason rather than producing unusable output (``SKIP_FLAGS``):
|r| below 1e-4 (``near_zero_r``), LR below 1e-8 (``near_zero_LR``), a
nonpositive gamma ratio (``nonpositive_gamma_ratio``) or rho denominator
(``nonpositive_rho_denominator``), and a nonpositive score quadratic form
(``nonpositive_score_quadratic_form``).  ``nonpd_info`` flags an indefinite
J-hat; it skips nothing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaincc, ndtr

from ._linalg import cho_solve, cholesky_or_none, inverse_diag, ridge_cholesky
from .ancillary import SampleSpaceDerivs, _ell_prime, build_ancillary, doubletilde_info, sample_space_gradients
from .families import EllipticalFamily
from .likelihood import loglik, score_info
from .model import Dataset, ModelEval, ModelSpec, NonSPDError, _integral, evaluate

__all__ = [
    "FitError",
    "HypothesisError",
    "StageError",
    "FitResult",
    "Hypothesis",
    "TestReport",
    "fit",
    "lr_and_r",
    "adjustment_factors",
    "adjusted_statistics",
    "p_values",
    "run_test",
]

R_DEGENERATE = 1e-4
LR_DEGENERATE = 1e-8
BOUNDARY_EPS = 1e-10
# Newton's score and relative step tolerances (see fit and _newton); the model evaluations one fit
# may make, over every start, Newton probe and L-BFGS call; the jittered restarts after the first start
SCORE_TOL = 1e-8
STEP_TOL = 1e-10
FIT_EVALS = 500
RESTARTS = 5
# adjustment factors within rounding noise of 1 are treated as exactly 1,
# so exact cases (Gaussian, known Sigma) report identical adjusted statistics
FACTOR_SNAP = 1e-10
# the flags with which adjustment_factors forces a correction factor to 1
SKIP_FLAGS = ("near_zero_r", "near_zero_LR", "nonpositive_gamma_ratio", "nonpositive_rho_denominator",
              "nonpositive_score_quadratic_form")


class FitError(RuntimeError):
    """No usable starting point: the model could not be evaluated anywhere."""


class HypothesisError(ValueError):
    """The hypothesis does not fit the model it is tested against."""


class StageError(RuntimeError):
    """A test-pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, detail):
        self.stage = stage
        super().__init__(f"stage {stage!r}: {detail}")


def _interest_block(indices, psi0, model: ModelSpec | None = None):
    """(indices, psi0) of a ``Hypothesis`` or a ``fit`` restriction; a ValueError naming the index otherwise.

    Indices are integral (``model._integral``: 2, 2.0 and np.int64(2), not
    2.9) and distinct, with one psi0 value each.  Given a model, an index
    outside 0..p-1 (a negative one is not taken from the end), a psi0 that
    is not finite or a variance-type parameter's psi0 <= 0 is a
    HypothesisError.
    """
    idx = []
    for i in indices:
        try:
            j = _integral(i)
        except (TypeError, ValueError):
            raise ValueError(f"interest index {i!r} is not an integer") from None
        if j in idx:
            raise ValueError(f"interest index {j} is repeated")
        idx.append(j)
    if not idx:
        raise ValueError("interest indices must be nonempty")
    psi0 = np.atleast_1d(np.asarray(psi0, dtype=float))
    if psi0.size != len(idx):
        raise ValueError(f"psi0 has {psi0.size} values for the {len(idx)} interest indices {tuple(idx)}")
    if model is None:
        return tuple(idx), psi0
    for j, v in zip(idx, psi0):
        if not 0 <= j < model.p:
            raise HypothesisError(f"interest index {j} is out of range for {model.name} (parameters 0..{model.p - 1})")
        name = model.param_names[j]
        if not math.isfinite(v):
            raise HypothesisError(f"psi0 for {name} must be finite, got {v}")
        if j in model.positive and v <= 0.0:
            raise HypothesisError(f"psi0 for the variance-type parameter {name} must be positive, got {v}")
    return tuple(idx), psi0


@dataclass(frozen=True)
class Hypothesis:
    """Interest block, hypothesized value and tail direction.

    ``sided``: "two" for psi = psi0 against psi != psi0; "lower" for the
    alternative psi < psi0; "upper" for psi > psi0.  One-sided tests
    require a scalar interest parameter.
    """

    interest_indices: tuple
    psi0: np.ndarray
    sided: str = "two"

    def __post_init__(self):
        idx, psi0 = _interest_block(self.interest_indices, self.psi0)
        object.__setattr__(self, "interest_indices", idx)
        object.__setattr__(self, "psi0", psi0)
        if self.sided not in ("two", "lower", "upper"):
            raise ValueError(f"sided must be 'two', 'lower' or 'upper', got {self.sided!r}")
        if self.sided != "two" and len(idx) != 1:
            raise ValueError("one-sided tests require a scalar interest parameter")

    @property
    def q(self) -> int:
        return len(self.interest_indices)

    def check(self, model: ModelSpec) -> None:
        """Raise HypothesisError unless every index and psi0 value fits ``model`` (``_interest_block``)."""
        _interest_block(self.interest_indices, self.psi0, model)


@dataclass
class FitResult:
    """Outcome of a maximum-likelihood fit (natural parameter scale).

    ``restriction`` is the (interest_indices, psi0) a restricted fit held
    fixed, None for an unrestricted one; ``score`` is the full score
    vector at ``eval_``.  ``evaluations`` is the number of model
    evaluations the fit made, non-SPD ones included (at most FIT_EVALS).
    """

    theta: np.ndarray
    loglik: float
    score_norm: float
    info: np.ndarray
    converged: bool
    iterations: int
    evaluations: int
    stderr: np.ndarray
    diagnostics: list = field(default_factory=list)
    restriction: tuple | None = None
    eval_: ModelEval | None = field(default=None, repr=False)
    score: np.ndarray | None = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


def _to_internal(theta_free, is_log):
    x = theta_free.copy()
    x[is_log] = np.log(theta_free[is_log])
    return x


def _from_internal(x, is_log):
    t = x.copy()
    t[is_log] = np.exp(np.minimum(x[is_log], 700.0))
    return t


class _Objective:
    """One fit's objective: natural theta from free internal coords, and its evaluation budget."""

    def __init__(self, model, family, data, template, free):
        self.model, self.family, self.data = model, family, data
        self.template = template.copy()
        self.free = free
        self.is_log = np.array([j in model.positive for j in free], dtype=bool)
        self.evaluations = 0

    def theta_of(self, x):
        theta = self.template.copy()
        theta[self.free] = _from_internal(x, self.is_log)
        return theta

    def evaluate(self, x):
        self.evaluations += 1  # counted before the call, so a non-SPD scatter counts too
        return evaluate(self.model, self.theta_of(x), self.data)

    @property
    def left(self) -> int:
        """Model evaluations left of the fit's FIT_EVALS."""
        return FIT_EVALS - self.evaluations

    def converged(self, si) -> bool:
        """The stop test: ||U||_inf < SCORE_TOL (1 + |l|) over the free parameters."""
        return bool(np.abs(si.score[self.free]).max() < SCORE_TOL * (1.0 + abs(si.loglik)))

    def scale(self, x):
        s = np.ones_like(x)
        s[self.is_log] = _from_internal(x, self.is_log)[self.is_log]
        return s


def _newton(obj: _Objective, x):
    """Damped Newton ascent from x; returns (x, ev, si, converged, iterations).

    Converged: the stop test holds or no parameter is free.  Unconverged:
    the ridged Newton matrix does not factor, the direction is not uphill,
    40 halvings find no acceptable step, or the fit's evaluation budget is
    spent, which ends a line search at its current point.  A step below
    STEP_TOL returns the stop test's verdict at the new point.
    ``iterations`` counts line searches, a final rejected one included.
    """
    ev = obj.evaluate(x)
    si = score_info(obj.family, ev)
    if x.size == 0:
        return x, ev, si, True, 0
    free_block = np.ix_(obj.free, obj.free)
    diag = np.diag_indices(x.size)
    for it in itertools.count():
        if obj.converged(si):
            return x, ev, si, True, it
        if not obj.left:
            return x, ev, si, False, it
        s = obj.scale(x)
        g = si.score[obj.free] * s  # gradient of the log-likelihood in internal coords
        H = s[:, None] * si.info[free_block] * s[None, :]
        H[diag] -= np.where(obj.is_log, g, 0.0)
        ridge = ridge_cholesky(H)
        if ridge is None:
            return x, ev, si, False, it
        d = cho_solve(ridge[1], g)
        slope = float(g @ d)
        if not np.isfinite(slope) or slope <= 0:
            return x, ev, si, False, it
        t = 1.0
        for _ in range(40):
            if not obj.left:
                return x, ev, si, False, it + 1
            try:
                ev2 = obj.evaluate(x + t * d)
            except NonSPDError:
                t *= 0.5
                continue
            # a trial point is judged on its log-likelihood (stage 0) first;
            # derivatives, score and J are built only for an Armijo candidate,
            # which is accepted iff its score is finite
            ll2 = loglik(obj.family, ev2)
            if np.isfinite(ll2) and ll2 >= si.loglik + 1e-4 * t * slope:
                si2 = score_info(obj.family, ev2)
                if np.all(np.isfinite(si2.score[obj.free])):
                    break
            t *= 0.5
        else:
            return x, ev, si, False, it + 1
        rel_step = np.abs(t * d).max() / max(1.0, np.abs(x).max())
        x = x + t * d
        ev, si = ev2, si2
        if rel_step < STEP_TOL:
            return x, ev, si, obj.converged(si), it + 1


def _lbfgs(obj: _Objective, x0):
    # imported here, on the first fit Newton leaves unconverged: a process
    # whose fits all converge never loads scipy.optimize (about 17 MB)
    import scipy.optimize

    # L-BFGS-B checks maxfun only between iterations, and its line search can
    # make 20 more calls, so calls past the budget are refused; one evaluation
    # is kept for the Newton run that starts where L-BFGS stops
    def fun(x):
        if obj.left <= 1:
            return 1e15, np.zeros_like(x)
        try:
            ev = obj.evaluate(x)
        except NonSPDError:
            return 1e15, np.zeros_like(x)
        si = score_info(obj.family, ev, want_info=False)
        g = si.score[obj.free] * obj.scale(x)
        if not (np.isfinite(si.loglik) and np.all(np.isfinite(g))):
            return 1e15, np.zeros_like(x)
        return -si.loglik, -g

    res = scipy.optimize.minimize(
        fun, x0, jac=True, method="L-BFGS-B", options={"maxfun": obj.left - 1, "ftol": 1e-14, "gtol": 1e-10}
    )
    return res.x, int(res.nit)


def fit(
    model: ModelSpec,
    family: EllipticalFamily,
    data: Dataset,
    restriction: tuple | None = None,
    start=None,
) -> FitResult:
    """Maximize the log-likelihood, optionally with the interest block frozen.

    ``restriction`` is (interest_indices, psi0), checked against the model
    as a ``Hypothesis`` is; the psi block is pinned at psi0 and only the
    nuisance block is optimized.  Convergence requires the free-block
    score to satisfy ||U||_inf < SCORE_TOL (1 + |l|).  One objective
    serves every start: Newton, then L-BFGS and Newton again if unconverged.
    A start where a Newton run begins at a non-SPD scatter is skipped for
    the next jittered one; NonSPDError never leaves ``fit``.  Every model
    evaluation, over all starts, counts against FIT_EVALS: once it is spent,
    Newton stops at its current point, L-BFGS gets no more calls and no
    restart begins, and an unconverged fit carries ``evaluation_budget``.
    Non-convergence is reported in the result, never silently; a FitError
    is raised only when every start fails.  The other diagnostics
    (``near_zero_residual obs=i`` in observation order, ``nonpd_info``,
    ``boundary_fit``) are computed at the returned point.
    """
    p = model.p
    if not p < data.n:
        raise ValueError(f"model has p={p} parameters but only n={data.n} observations (need p < n)")
    template = np.zeros(p)
    if restriction is not None:
        try:
            interest, psi0 = restriction
        except (TypeError, ValueError):
            raise ValueError(f"restriction must be (interest_indices, psi0), got {restriction!r}") from None
        interest, psi0 = _interest_block(interest, psi0, model)
        fixed = set(interest)
        free = np.array([j for j in range(p) if j not in fixed], dtype=int)
        template[list(interest)] = psi0
    else:
        free = np.arange(p)

    base_start = np.asarray(start, dtype=float).copy() if start is not None else model.start(data)
    if base_start.shape != (p,):
        raise ValueError(f"start has shape {base_start.shape}, expected ({p},)")
    if not np.isfinite(base_start).all():
        raise ValueError(f"start must be finite, got {base_start}")
    free_set = set(free.tolist())
    for j in model.positive:
        if j in free_set and base_start[j] <= 0:
            base_start[j] = 1e-4

    obj = _Objective(model, family, data, template, free)
    rng = None  # the deterministic jitter stream, created by the first restart
    best = None
    total_iters = 0
    for attempt in range(RESTARTS + 1):
        if not obj.left:
            break
        theta0 = base_start.copy()
        if attempt > 0:
            if rng is None:
                rng = np.random.default_rng(0x5EED)
            for j in free:
                if j in model.positive:
                    theta0[j] = theta0[j] * math.exp(0.25 * rng.standard_normal())
                else:
                    theta0[j] = theta0[j] + 0.2 * max(1.0, abs(theta0[j])) * rng.standard_normal()
        # a start or probe at extreme theta overflows intermediate products:
        # Newton and L-BFGS reject its non-finite results, and a non-finite
        # final J is flagged nonpd_info below
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                x, ev, si, converged, iters = _newton(obj, _to_internal(theta0[free], obj.is_log))
                total_iters += iters
                if not converged and obj.left > 1:
                    x, iters = _lbfgs(obj, x)
                    total_iters += iters
                    x, ev, si, converged, iters = _newton(obj, x)
                    total_iters += iters
        except NonSPDError:
            continue
        if best is None or (converged, si.loglik) > best[:2]:
            best = (converged, si.loglik, x, ev, si)
        if converged:
            break
    if best is None:
        raise FitError("every starting point failed model evaluation (non-SPD scatter)")

    converged, _, x, ev, si = best
    theta = obj.theta_of(x)
    score_norm = float(np.abs(si.score[obj.free]).max(initial=0.0))

    diagnostics = [f"near_zero_residual obs={i}" for i in np.flatnonzero(family._clamped(si.per_obs_u))]
    if not converged and not obj.left:
        diagnostics.append("evaluation_budget")
    L = cholesky_or_none(si.info)
    if L is None:
        stderr = np.full(p, np.nan)
        diagnostics.append("nonpd_info")
    else:
        stderr = np.sqrt(inverse_diag(L))
    if any(theta[j] < BOUNDARY_EPS for j in model.positive if j in free_set):
        diagnostics.append("boundary_fit")

    return FitResult(
        theta=theta,
        loglik=float(si.loglik),
        score_norm=score_norm,
        info=si.info,
        converged=bool(converged),
        iterations=total_iters,
        evaluations=obj.evaluations,
        stderr=stderr,
        diagnostics=diagnostics,
        restriction=(interest, psi0) if restriction is not None else None,
        eval_=ev,
        score=si.score,
    )


# ---------------------------------------------------------------------------
# Test statistics
# ---------------------------------------------------------------------------


def lr_and_r(fit_hat: FitResult, fit_tilde: FitResult):
    """Likelihood ratio statistic and, for scalar interest, its signed root.

    The interest block is the one ``fit_tilde`` held fixed; an unrestricted
    ``fit_tilde`` is a ValueError.
    """
    if fit_tilde.restriction is None:
        raise ValueError("fit_tilde is unrestricted; the test needs the restricted fit")
    if not (fit_hat.converged and fit_tilde.converged):
        raise ValueError("both fits must have converged")
    interest = fit_tilde.restriction[0]
    LR = max(2.0 * (fit_hat.loglik - fit_tilde.loglik), 0.0)
    r = None
    if len(interest) == 1:
        j = interest[0]
        r = math.copysign(math.sqrt(LR), fit_hat.theta[j] - fit_tilde.theta[j]) if LR > 0 else 0.0
    return LR, r


def _logabsdet(M: np.ndarray, notes: list, label: str) -> float:
    if M.size == 0:
        return 0.0  # empty-product convention
    sign, lad = np.linalg.slogdet(M)
    if sign == 0 or not np.isfinite(lad):
        raise StageError("adjustment", f"singular matrix in {label}")
    if sign < 0:
        notes.append(f"negative raw determinant: {label}")
    return float(lad)


def _curvature_scale(J_hat: np.ndarray) -> np.ndarray:
    """Per-parameter scale sqrt(diag(J-hat)) for conditioning.

    gamma and rho are exactly invariant under diagonal reparameterization,
    so evaluating their ingredients in unit-curvature coordinates changes
    nothing mathematically while keeping determinants and solves
    well-conditioned when parameter scales differ by orders of magnitude.
    """
    d = np.diag(J_hat)
    if np.all(np.isfinite(d)) and np.all(d > 0):
        return np.sqrt(d)
    return np.ones(J_hat.shape[0])


def adjustment_factors(fit_hat: FitResult, fit_tilde: FitResult, derivs: SampleSpaceDerivs):
    """Barndorff-Nielsen gamma (scalar interest) and Skovgaard rho.

    Returns (gamma, rho, flags, notes); gamma is None for a vector
    interest block.  The interest block and U~, the score at the
    restricted estimate with the actual data, are read from ``fit_tilde``
    (an unrestricted one is a ValueError, as in ``lr_and_r``).  |J-hat|,
    |U'~|, |J~_ww| and the solve against (U'~)' are shared by both
    factors; degenerate cases come back as a factor of 1 with a flag from
    ``SKIP_FLAGS`` naming the reason.
    """
    flags: set = set()
    notes: list = []
    LR, r = lr_and_r(fit_hat, fit_tilde)
    gamma = None if r is None else 1.0
    rho = 1.0
    if r is not None and abs(r) < R_DEGENERATE:
        flags.add("near_zero_r")
    if LR < LR_DEGENERATE:
        flags.add("near_zero_LR")
    want_gamma = r is not None and "near_zero_r" not in flags
    want_rho = "near_zero_LR" not in flags
    if not (want_gamma or want_rho):
        return gamma, rho, flags, notes

    interest = fit_tilde.restriction[0]
    q = len(interest)
    p = fit_hat.theta.size
    nuis = [j for j in range(p) if j not in set(interest)]
    s = _curvature_scale(fit_hat.info)
    ss = np.outer(s, s)
    # rho's sum continues this one left to right, so each factor gets the
    # bits a separate sum would give
    lad = (
        0.5 * _logabsdet(fit_hat.info / ss, notes, "J_hat")
        - _logabsdet(derivs.U_tilde_prime / ss, notes, "U_tilde_prime")
        + 0.5 * _logabsdet(fit_tilde.info[np.ix_(nuis, nuis)] / ss[np.ix_(nuis, nuis)], notes, "J_tilde_nuisance")
    )
    diff = (derivs.ell_hat_prime - derivs.ell_tilde_prime) / s
    try:
        vec = np.linalg.solve(derivs.U_tilde_prime.T / ss, diff)
    except np.linalg.LinAlgError:
        raise StageError("adjustment", "singular U_tilde_prime") from None

    if want_gamma:
        denom = float(vec[interest[0]])
        ratio = r / denom if denom != 0.0 else np.inf
        if not np.isfinite(ratio) or ratio <= 0.0:
            notes.append("nonpositive gamma ratio; adjustment skipped")
            flags.add("nonpositive_gamma_ratio")
        else:
            gamma = float(math.exp(lad) * ratio)
            if abs(gamma - 1.0) < FACTOR_SNAP:
                gamma = 1.0

    if want_rho:
        JJ = derivs.J_doubletilde / ss
        lad = (
            lad
            - 0.5 * _logabsdet(JJ[np.ix_(nuis, nuis)], notes, "J_doubletilde_nuisance")
            + 0.5 * _logabsdet(JJ, notes, "J_doubletilde")
        )
        U_star = fit_tilde.score / s
        try:
            quad = float(U_star @ np.linalg.solve(JJ, U_star))
        except np.linalg.LinAlgError:
            raise StageError("adjustment", "singular double-tilde information") from None
        denom = float(vec @ U_star)
        if quad <= 0.0:
            notes.append("nonpositive score quadratic form; adjustment skipped")
            flags.add("nonpositive_score_quadratic_form")
        elif denom <= 0.0:
            notes.append("nonpositive rho denominator; adjustment skipped")
            flags.add("nonpositive_rho_denominator")
        else:
            log_rho = lad + 0.5 * q * math.log(quad) - (0.5 * q - 1.0) * math.log(LR) - math.log(denom)
            rho = float(math.exp(log_rho))
            if abs(rho - 1.0) < FACTOR_SNAP:
                rho = 1.0
    return gamma, rho, flags, notes


def adjusted_statistics(LR: float, r, gamma, rho: float):
    """(r*, LR*, LR**) from the raw statistics and correction factors.

    Degenerate inputs must already carry gamma = rho = 1, in which case
    the statistics pass through unadjusted.  LR** is returned raw (it can
    be slightly negative in finite samples); LR* is floored at zero.
    """
    notes = []
    r_star = None
    if r is not None and gamma is not None:
        r_star = r if gamma == 1.0 else r - math.log(gamma) / r
    if rho == 1.0:
        LR_star, LR_star2 = LR, LR
    else:
        log_rho = math.log(rho)
        inner = 1.0 - log_rho / LR
        if inner < 0.0:
            notes.append("negative inner factor in LR*")
        LR_star = max(LR * inner * inner, 0.0)
        LR_star2 = LR - 2.0 * log_rho
    return r_star, LR_star, LR_star2, notes


def p_values(LR, r, r_star, LR_star, LR_star2, q: int, sided: str) -> dict:
    """Asymptotic p-values: chi2_q for the LR family, N(0,1) for r and r*.

    Two-sided r-based p-values use 2(1 - Phi(|r|)); one-sided tests use
    the tail indicated by the alternative (lower: Phi(r); upper:
    1 - Phi(r)).  The LR** p-value is computed from max(LR**, 0).
    """
    out = {
        "p_LR": float(gammaincc(0.5 * q, 0.5 * LR)),
        "p_LR_star": float(gammaincc(0.5 * q, 0.5 * LR_star)),
        "p_LR_star2": float(gammaincc(0.5 * q, 0.5 * max(LR_star2, 0.0))),
        "p_r": None,
        "p_r_star": None,
    }

    def tail(val):
        if sided == "lower":
            return float(ndtr(val))
        if sided == "upper":
            return float(ndtr(-val))
        return 2.0 * float(ndtr(-abs(val)))

    if r is not None:
        out["p_r"] = tail(r)
    if r_star is not None:
        out["p_r_star"] = tail(r_star)
    return out


# ---------------------------------------------------------------------------
# Test report and pipeline
# ---------------------------------------------------------------------------

_REPORT_FLOATS = ("LR", "r", "gamma", "rho", "r_star", "LR_star", "LR_star2",
                  "p_LR", "p_r", "p_r_star", "p_LR_star", "p_LR_star2")


@dataclass
class TestReport:
    """Full outcome of one hypothesis test."""

    __test__ = False  # class name looks like a pytest test case; it is not

    sided: str
    interest_indices: tuple
    psi0: np.ndarray
    LR: float
    rho: float
    LR_star: float
    LR_star2: float
    p_LR: float
    p_LR_star: float
    p_LR_star2: float
    r: float | None = None
    gamma: float | None = None
    r_star: float | None = None
    p_r: float | None = None
    p_r_star: float | None = None
    flags: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        d = {
            "hypothesis": {
                "sided": self.sided,
                "interest_indices": list(self.interest_indices),
                "psi0": [float(v) for v in np.atleast_1d(self.psi0)],
            },
            "flags": sorted(self.flags),
            "notes": list(self.notes),
        }
        for name in _REPORT_FLOATS:
            val = getattr(self, name)
            if val is not None:
                d[name] = float(val)
        return d

    def pvalue(self, statistic: str):
        """p-value by statistic label ("LR", "LR*", "LR**", "r", "r*")."""
        key = {"LR": "p_LR", "LR*": "p_LR_star", "LR**": "p_LR_star2", "r": "p_r", "r*": "p_r_star"}[statistic]
        return getattr(self, key)


def _unconverged(res: FitResult) -> str:
    if "evaluation_budget" in res.diagnostics:
        return f"did not converge within {FIT_EVALS} model evaluations (evaluation_budget)"
    return "did not converge"


def run_test(
    model: ModelSpec,
    family: EllipticalFamily,
    data: Dataset,
    hypothesis: Hypothesis,
    start=None,
) -> TestReport:
    """Full pipeline: both fits, ancillary, adjustments, p-values.

    Raises HypothesisError before any fit when the hypothesis does not
    fit the model, and StageError (with the offending stage) when a fit
    raises FitError or does not converge (its message names a spent
    evaluation budget), or an adjustment system is singular.
    """
    hypothesis.check(model)
    interest = hypothesis.interest_indices
    q = hypothesis.q

    try:
        fit_hat = fit(model, family, data, start=start)
    except FitError as exc:
        raise StageError("unrestricted_fit", exc) from exc
    if not fit_hat.converged:
        raise StageError("unrestricted_fit", _unconverged(fit_hat))

    tilde_start = fit_hat.theta.copy()
    tilde_start[list(interest)] = hypothesis.psi0
    try:
        fit_tilde = fit(model, family, data, restriction=(interest, hypothesis.psi0), start=tilde_start)
    except FitError as exc:
        raise StageError("restricted_fit", exc) from exc
    if not fit_tilde.converged:
        raise StageError("restricted_fit", _unconverged(fit_tilde))

    # the restricted optimum can only be bettered by the unrestricted one
    if fit_tilde.loglik > fit_hat.loglik + 1e-10 * (1.0 + abs(fit_hat.loglik)):
        refit = fit(model, family, data, start=fit_tilde.theta)
        if refit.converged and refit.loglik >= fit_hat.loglik:
            fit_hat = refit

    flags: set = set()
    notes: list = []
    for source, label in ((fit_hat, "unrestricted"), (fit_tilde, "restricted")):
        for msg in source.diagnostics:
            if msg == "boundary_fit":
                flags.add("boundary_fit")
            elif msg == "nonpd_info" and source.restriction is None:
                # the full information at the restricted optimum is allowed
                # to be indefinite; only J(theta-hat) losing definiteness
                # is a health flag
                flags.add("nonpd_info")
            else:
                notes.append(f"{label} fit: {msg}")
    notes = list(dict.fromkeys(notes))

    bundle = build_ancillary(fit_hat)
    ell_hat = _ell_prime(fit_hat.eval_, bundle, family)
    eval_tilde = fit_tilde.eval_
    ell_tilde, U_tilde_prime = sample_space_gradients(eval_tilde, bundle, family)
    JJ = doubletilde_info(eval_tilde, bundle, family)
    derivs = SampleSpaceDerivs(
        ell_hat_prime=ell_hat, ell_tilde_prime=ell_tilde, U_tilde_prime=U_tilde_prime, J_doubletilde=JJ
    )

    LR, r = lr_and_r(fit_hat, fit_tilde)
    gamma, rho, factor_flags, factor_notes = adjustment_factors(fit_hat, fit_tilde, derivs)
    flags |= factor_flags
    notes += factor_notes

    r_star, LR_star, LR_star2, adj_notes = adjusted_statistics(LR, r, gamma, rho)
    notes += adj_notes
    pv = p_values(LR, r, r_star, LR_star, LR_star2, q, hypothesis.sided)

    return TestReport(
        sided=hypothesis.sided,
        interest_indices=interest,
        psi0=hypothesis.psi0,
        LR=LR,
        r=r,
        gamma=gamma,
        rho=rho,
        r_star=r_star,
        LR_star=LR_star,
        LR_star2=LR_star2,
        flags=sorted(flags),
        notes=notes,
        **pv,
    )
