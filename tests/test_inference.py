"""Fitting, test statistics, correction factors, p-values and run_test."""

import dataclasses
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
import scipy.stats

sys.path.insert(0, str(Path(__file__).parent))

import transcription as T
from conftest import (
    ALL_FAMILIES,
    fd_model,
    make_linreg_model,
    make_locscale_model,
    make_mean_model,
    scalar_dataset,
    simulate_model1,
    simulate_model2,
)
from elliplrt import _linalg as linalg
from elliplrt import inference
from elliplrt import model as M
from elliplrt.families import EllipticalFamily
from elliplrt.inference import (
    FitResult,
    Hypothesis,
    HypothesisError,
    StageError,
    adjusted_statistics,
    adjustment_factors,
    fit,
    lr_and_r,
    p_values,
    run_test,
)
from elliplrt.montecarlo import SimulationConfig, simulate_dataset

NORMAL = EllipticalFamily.normal()


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def test_fit_gaussian_closed_form():
    rng = np.random.default_rng(1)
    y = rng.normal(1.2, 0.8, size=30)
    res = fit(make_locscale_model(), NORMAL, scalar_dataset(y))
    assert res.converged
    assert res.theta[0] == pytest.approx(y.mean(), abs=1e-10)
    assert res.theta[1] == pytest.approx(y.var(), rel=1e-8)  # biased MLE variance
    assert res.score_norm < 1e-8 * (1 + abs(res.loglik))
    # standard errors from the inverse observed information
    n = y.size
    assert res.stderr[0] == pytest.approx(np.sqrt(res.theta[1] / n), rel=1e-8)


def test_lbfgs_probe_at_overflowing_point_is_silent(monkeypatch):
    # fit runs L-BFGS under its np.errstate; Newton cannot step from this start, so L-BFGS begins there
    runs, real = [], inference._lbfgs

    def recorded(obj, x0):
        x, iters = real(obj, x0)
        runs.append((x0, x))
        return x, iters

    monkeypatch.setattr(inference, "_lbfgs", recorded)
    monkeypatch.setattr(inference, "RESTARTS", 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit(make_locscale_model(), EllipticalFamily.student_t(3.0), scalar_dataset(np.linspace(-1, 1, 8)),
            start=np.array([1e200, 1e-200]))
    x0, x = runs[0]
    np.testing.assert_array_equal(x, x0)  # the probe is rejected, not accepted


def test_fit_student_t_matches_independent_optimizer():
    rng = np.random.default_rng(2)
    fam = EllipticalFamily.student_t(3.0)
    y = fam.sample_spherical(1, rng, size=50)[:, 0] * 1.4 + 0.7
    data = scalar_dataset(y)
    res = fit(make_locscale_model(), fam, data)
    assert res.converged

    def nll(x):
        mu, log_s2 = x
        obs = [{"y": np.array([v]), "mu": np.array([mu]), "S": np.array([[np.exp(log_s2)]])} for v in y]
        return -T.t_loglik(fam, obs)

    # coarse grid then Nelder-Mead polish, fully independent of the package
    grid_mu = np.linspace(y.mean() - 1.0, y.mean() + 1.0, 41)
    grid_ls = np.linspace(np.log(y.var()) - 2.0, np.log(y.var()) + 2.0, 41)
    best = min(((nll((m, ls)), m, ls) for m in grid_mu for ls in grid_ls), key=lambda t: t[0])
    polish = scipy.optimize.minimize(
        nll, [best[1], best[2]], method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000}
    )
    assert res.theta[0] == pytest.approx(polish.x[0], abs=1e-5)
    assert res.theta[1] == pytest.approx(np.exp(polish.x[1]), rel=1e-5)


def test_fit_rejects_p_not_less_than_n():
    data, _ = (scalar_dataset([1.0, 2.0]), None)
    with pytest.raises(ValueError):
        fit(make_locscale_model(), NORMAL, scalar_dataset([1.0, 2.0]))  # p = n = 2
    fit(make_locscale_model(), NORMAL, scalar_dataset([1.0, 2.0, 3.0]))  # p < n is fine


def test_restricted_fit_nested_likelihood():
    rng = np.random.default_rng(3)
    for fam in ALL_FAMILIES:
        model, data = simulate_model1(fam, 15, rng)
        full = fit(model, fam, data, start=np.array([0.5, 0.2, 0.0, 0.0, 0.005]))
        rest = fit(model, fam, data, restriction=((2, 3), (0.0, 0.0)), start=full.theta * [1, 1, 0, 0, 1])
        assert full.converged and rest.converged
        assert rest.restriction is not None and full.restriction is None
        assert rest.loglik <= full.loglik + 1e-9
        np.testing.assert_array_equal(rest.theta[[2, 3]], [0.0, 0.0])


def test_fit_reports_nonconvergence_not_silently(monkeypatch):
    rng = np.random.default_rng(4)
    model, data = simulate_model1(NORMAL, 12, rng)
    monkeypatch.setattr(inference, "FIT_EVALS", 3)
    monkeypatch.setattr(inference, "RESTARTS", 0)
    res = fit(model, NORMAL, data, start=np.array([50.0, -30.0, 20.0, -10.0, 1e4]))
    assert res.converged is False and res.evaluations == 3
    assert "evaluation_budget" in res.diagnostics
    assert res.score_norm > 0


# criterion 5's configuration; its replication 72, fitted from the true theta, runs Newton, L-BFGS and Newton again
T3_LOWER = SimulationConfig(model="model1", family="student_t", nu=3.0, n=15, interest=(3,), sided="lower", seed=31415)


def counting_evaluate(monkeypatch) -> list:
    """Wrap ``inference.evaluate``; the returned list gets True per call that raised NonSPDError, else False."""
    calls, real = [], inference.evaluate

    def counted(*args):
        calls.append(True)
        out = real(*args)
        calls[-1] = False
        return out

    monkeypatch.setattr(inference, "evaluate", counted)
    return calls


def test_fit_counts_every_model_evaluation_against_its_budget(monkeypatch):
    model, fam, data = M.nonlinear_model1(), T3_LOWER.family_obj(), simulate_dataset(T3_LOWER, 72)
    start = np.asarray(T3_LOWER.true_theta)
    calls = counting_evaluate(monkeypatch)
    needed = fit(model, fam, data, start=start)
    assert needed.converged and needed.evaluations == len(calls)
    # a budget spent in the first Newton run, in L-BFGS or in the Newton run after it; a cut L-BFGS run
    # can leave the last Newton run a point it converges from sooner (a budget of 15 does)
    for budget in range(1, needed.evaluations):
        monkeypatch.setattr(inference, "FIT_EVALS", budget)
        calls.clear()
        res = fit(model, fam, data, start=start)
        assert res.evaluations == len(calls) <= budget
        assert res.converged != ("evaluation_budget" in res.diagnostics)


def test_a_model2_fit_that_cannot_converge_stops_at_the_budget(monkeypatch):
    # the model-2 fit of the FOUND defect: cold-started, it made 1,119 evaluations before the budget
    config = SimulationConfig(model="model2", family="student_t", nu=4.0, n=16, interest=(4,), seed=2718)
    data = simulate_dataset(config, 1)
    calls = counting_evaluate(monkeypatch)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "observed information asymmetry")
        res = fit(M.mixed_model2(), config.family_obj(), data)
        assert not res.converged and "evaluation_budget" in res.diagnostics
        assert res.evaluations == len(calls) <= inference.FIT_EVALS
        assert any(calls)  # non-SPD probes count too
        with pytest.raises(StageError, match=r"did not converge within 500 model evaluations \(evaluation_budget\)"
                           ) as exc:
            run_test(M.mixed_model2(), config.family_obj(), data, config.hypothesis())
    assert exc.value.stage == "unrestricted_fit"


def test_a_power_exponential_fit_with_an_unbounded_weight_stops_at_the_budget():
    # lambda = 0.5: the weight is unbounded at a zero residual; this fit made 17,825 evaluations before the budget
    config = dataclasses.replace(T3_LOWER, family="power_exponential", nu=None, lam=0.5)
    res = fit(M.nonlinear_model1(), config.family_obj(), simulate_dataset(config, 0),
              start=np.asarray(config.true_theta))
    assert not res.converged and res.evaluations == inference.FIT_EVALS
    assert "evaluation_budget" in res.diagnostics


# mu = 1 / (1 + beta0 + ...) is infinite at beta0 = -1 on this dataset; sigma2 = 1e-300 overflows the information
NONFINITE_NEWTON_STARTS = ([-1.0, 0.0, 0.0, 0.0, 0.01], [0.5, 0.2, 0.0, 0.0, 1e-300])


@pytest.mark.parametrize("start", NONFINITE_NEWTON_STARTS, ids=["infinite_mean", "tiny_sigma2"])
def test_fit_from_a_start_with_a_nonfinite_newton_matrix_returns_a_result(start):
    config = SimulationConfig(model="model1", family="student_t", nu=3.0, n=15, interest=(3,), sided="lower",
                              seed=31415)
    # the starts run under np.errstate: their overflows are rejected, not printed
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = fit(M.nonlinear_model1(), config.family_obj(), simulate_dataset(config, 0), start=np.array(start))
    assert isinstance(res, FitResult)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_rejects_a_start_that_is_not_finite(bad):
    model, data = simulate_model1(NORMAL, 12, np.random.default_rng(4))
    with pytest.raises(ValueError, match="^start must be finite, got "):
        fit(model, NORMAL, data, start=np.array([0.5, bad, 0.0, 0.0, 0.005]))


def test_restarts_draw_their_jitter_from_a_fresh_seeded_stream(monkeypatch):
    model, data = simulate_model1(NORMAL, 12, np.random.default_rng(4))
    start = np.array([0.5, 0.2, 0.1, -0.1, 0.005])
    starts, made = [], []
    default_rng = np.random.default_rng

    def counting_rng(*args):
        made.append(args)
        return default_rng(*args)

    def failing_newton(obj, x0, *args):
        starts.append((x0, obj.is_log))
        raise M.NonSPDError(0)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    fit(model, NORMAL, data, start=start)
    assert made == []  # a fit that needs no restart creates no generator
    monkeypatch.setattr(inference, "_newton", failing_newton)
    monkeypatch.setattr(inference, "RESTARTS", 3)
    with pytest.raises(inference.FitError):
        fit(model, NORMAL, data, start=start)
    assert made == [(0x5EED,)]
    rng = default_rng(0x5EED)
    for attempt, (x0, is_log) in enumerate(starts):
        theta0 = start.copy()
        if attempt > 0:
            for j in range(model.p):
                if j in model.positive:
                    theta0[j] = theta0[j] * math.exp(0.25 * rng.standard_normal())
                else:
                    theta0[j] = theta0[j] + 0.2 * max(1.0, abs(theta0[j])) * rng.standard_normal()
        assert np.array_equal(x0, inference._to_internal(theta0, is_log))
    assert len(starts) == 4


def test_a_fit_with_every_parameter_fixed_converges_without_iterating(monkeypatch):
    def no_lbfgs(*args):
        raise AssertionError("L-BFGS ran on a fit with no free parameter")

    model, data = simulate_model1(NORMAL, 12, np.random.default_rng(4))
    monkeypatch.setattr(inference, "_lbfgs", no_lbfgs)
    res = fit(model, NORMAL, data, restriction=(range(model.p), [0.5, 0.2, 0.1, -0.1, 0.005]))
    assert (res.converged, res.iterations) == (True, 0)


def test_a_start_whose_newton_rerun_hits_a_nonspd_scatter_is_skipped(monkeypatch):
    model, data = simulate_model1(NORMAL, 12, np.random.default_rng(4))
    real_newton, real_objective = inference._newton, inference._Objective
    calls, iterations, objectives = [], [], []

    def newton(obj, x):
        calls.append(x)
        if len(calls) == 1:
            return (*real_newton(obj, x)[:3], False, 1)
        if len(calls) == 2:
            raise M.NonSPDError(0)
        out = real_newton(obj, x)
        iterations.append(out[4])
        return out

    class Objective(real_objective):
        def __init__(self, *args):
            objectives.append(args)
            super().__init__(*args)

    monkeypatch.setattr(inference, "_newton", newton)
    monkeypatch.setattr(inference, "_lbfgs", lambda obj, x: (x, 2))
    monkeypatch.setattr(inference, "_Objective", Objective)
    res = fit(model, NORMAL, data, start=np.array([0.5, 0.2, 0.1, -0.1, 0.005]))
    assert res.converged
    # start 0: Newton (1 iteration), L-BFGS (2), Newton raises; start 1: Newton
    assert len(calls) == 3
    assert len(objectives) == 1
    assert res.iterations == 1 + 2 + iterations[0]


def test_stderr_is_root_of_inverse_information_diagonal():
    for fam, kind in ((EllipticalFamily.student_t(4.0), "model2"), (NORMAL, "model1")):
        rng = np.random.default_rng(21)
        model, data = simulate_model1(fam, 15, rng) if kind == "model1" else simulate_model2(fam, 16, rng)
        res = fit(model, fam, data)
        expected = np.sqrt(np.diag(np.linalg.inv(res.info)))
        np.testing.assert_allclose(res.stderr, expected, rtol=1e-10, atol=0)


def test_infinite_final_information_is_flagged_not_raised():
    # d2mu = -inf sign(y) puts +inf into J at the exact optimum 0 of y = (-1, 1, -2, 2);
    # LAPACK factors [[inf]], so the factor, not its absence, carries the failure
    model = dataclasses.replace(make_mean_model(), d2mu_fn=lambda t, blk: (-np.inf * np.sign(blk.y))[:, None, None])
    with np.errstate(invalid="ignore"):
        res = fit(model, NORMAL, scalar_dataset([-1.0, 1.0, -2.0, 2.0]))
    assert res.converged and res.info[0, 0] == np.inf
    assert "nonpd_info" in res.diagnostics and np.isnan(res.stderr).all()


def test_fit_reports_clamped_residuals_in_observation_order():
    # observation 0 (q = 3) and observation 1 (q = 1) sit exactly on mu(theta), so u = 0 there;
    # the q = 1 block is assembled first, the diagnostics still follow observation order
    fam = EllipticalFamily.power_exponential(0.9)
    rng = np.random.default_rng(6)
    design = M.model2_design(12, rng)
    design[0], design[1] = M._m2_unit(3, 1, M.MODEL2_TIMES[:3]), M._m2_unit(1, 2, M.MODEL2_TIMES[:1])
    theta = np.array([0.7, 0.5, 0.0, 0.0, 0.0, 500.0, 2.0, 200.0, 5.0])
    ys = [10.0 * rng.standard_normal(u["q"]) for u in design]
    model = M.mixed_model2()
    for be in M.evaluate(model, theta, M.model2_dataset(ys, design)).blocks:
        for j, i in enumerate(be.data.idx):
            if i < 2:
                ys[i] = be.mu[j]
    res = fit(model, fam, M.model2_dataset(ys, design), restriction=(range(model.p), theta))
    assert (res.converged, res.iterations) == (True, 0)
    near_zero = [d for d in res.diagnostics if d.startswith("near_zero_residual")]
    assert near_zero == ["near_zero_residual obs=0", "near_zero_residual obs=1"]


def test_fit_fully_restricted_evaluates_only():
    y = scalar_dataset([0.3, -0.2, 0.5])
    res = fit(make_mean_model(), NORMAL, y, restriction=((0,), (0.0,)))
    assert res.converged and res.iterations == 0
    assert res.loglik == pytest.approx(-3 / 2 * np.log(2 * np.pi) - 0.5 * float(np.sum(np.array([0.3, -0.2, 0.5]) ** 2)))


# ---------------------------------------------------------------------------
# LR and r
# ---------------------------------------------------------------------------


def test_lr_zero_at_mle():
    y = scalar_dataset([0.1, 0.4, -0.3, 0.9])
    model = make_mean_model()
    full = fit(model, NORMAL, y)
    rest = fit(model, NORMAL, y, restriction=((0,), (full.theta[0],)))
    LR, r = lr_and_r(full, rest)
    assert LR == 0.0 and r == 0.0


def test_lr_gaussian_mean_closed_form():
    rng = np.random.default_rng(5)
    y = rng.standard_normal(40) + 0.25
    data = scalar_dataset(y)
    model = make_mean_model()
    full = fit(model, NORMAL, data)
    rest = fit(model, NORMAL, data, restriction=((0,), (0.0,)))
    LR, r = lr_and_r(full, rest)
    n = y.size
    assert LR == pytest.approx(n * y.mean() ** 2, rel=1e-9)
    assert r == pytest.approx(np.sqrt(n) * y.mean(), rel=1e-9)
    assert math.copysign(1, r) == math.copysign(1, y.mean())


def test_lr_nonnegative_many_instances():
    model = make_mean_model()
    rng = np.random.default_rng(6)
    for _ in range(1000):
        y = scalar_dataset(rng.standard_normal(5))
        full = fit(model, NORMAL, y)
        rest = fit(model, NORMAL, y, restriction=((0,), (0.0,)))
        LR, _ = lr_and_r(full, rest)
        assert LR >= 0.0


def test_lr_requires_converged_fits():
    y = scalar_dataset([0.1, 0.2, 0.3])
    model = make_mean_model()
    full = fit(model, NORMAL, y)
    rest = fit(model, NORMAL, y, restriction=((0,), (0.0,)))
    rest.converged = False
    with pytest.raises(ValueError):
        lr_and_r(full, rest)


def test_statistics_need_a_restricted_fit_tilde():
    # the interest block and U~ come from fit_tilde, so an unrestricted one names itself
    y = scalar_dataset([0.1, 0.4, -0.3, 0.9])
    full = fit(make_mean_model(), NORMAL, y)
    assert full.restriction is None
    with pytest.raises(ValueError, match="^fit_tilde is unrestricted"):
        lr_and_r(full, full)
    with pytest.raises(ValueError, match="^fit_tilde is unrestricted"):
        adjustment_factors(full, full, None)


# ---------------------------------------------------------------------------
# gamma and rho
# ---------------------------------------------------------------------------


def test_gamma_rho_one_for_mean_model():
    rng = np.random.default_rng(7)
    y = rng.standard_normal(20) + 0.5
    rep = run_test(make_mean_model(), NORMAL, scalar_dataset(y), Hypothesis((0,), [0.0], "two"))
    assert rep.gamma == 1.0 and rep.rho == 1.0
    assert rep.r_star == rep.r
    assert rep.LR_star == rep.LR and rep.LR_star2 == rep.LR


def test_gamma_rho_one_gaussian_linear_known_sigma():
    rng = np.random.default_rng(8)
    n, pc = 24, 4
    X = np.column_stack([np.ones(n), rng.uniform(size=(n, pc - 1))])
    y = X @ np.array([0.3, 1.0, -0.4, 0.2]) + rng.standard_normal(n)
    data = M.Dataset([M.Observation(np.array([yi]), {"X": X[i]}) for i, yi in enumerate(y)])
    model = make_linreg_model(pc)
    rep1 = run_test(model, NORMAL, data, Hypothesis((2,), [0.0], "two"))
    assert rep1.gamma == pytest.approx(1.0, abs=1e-8)
    assert rep1.rho == pytest.approx(1.0, abs=1e-8)
    rep2 = run_test(model, NORMAL, data, Hypothesis((1, 3), [0.0, 0.0], "two"))
    assert rep2.rho == pytest.approx(1.0, abs=1e-8)
    assert rep2.LR_star2 == rep2.LR


def test_degenerate_test_at_mle_flags():
    rng = np.random.default_rng(9)
    y = rng.standard_normal(15)
    data = scalar_dataset(y)
    model = make_mean_model()
    full = fit(model, NORMAL, data)
    rep = run_test(model, NORMAL, data, Hypothesis((0,), [full.theta[0]], "two"))
    assert rep.gamma == 1.0 and rep.rho == 1.0
    assert "near_zero_r" in rep.flags and "near_zero_LR" in rep.flags
    assert rep.LR == pytest.approx(0.0, abs=1e-12)


def test_gamma_matches_transcription_student_t4():
    rng = np.random.default_rng(10)
    fam = EllipticalFamily.student_t(4.0)
    model, data = simulate_model1(fam, 14, rng)
    hyp = Hypothesis((1,), [0.0], "two")
    rep = run_test(model, fam, data, hyp)
    full = fit(model, fam, data)
    rest = fit(model, fam, data, restriction=((1,), (0.0,)), start=full.theta * [1, 0, 1, 1, 1])
    oracle = T.full_report("model1", fam, data, full.theta, rest.theta, [1])
    assert rep.gamma == pytest.approx(oracle["gamma"], rel=1e-9)
    assert rep.r_star == pytest.approx(oracle["r_star"], rel=1e-9)


def test_rho_matches_transcription_model2():
    rng = np.random.default_rng(11)
    model, data = simulate_model2(NORMAL, 16, rng)
    hyp = Hypothesis((2, 3, 4), [0.0, 0.0, 0.0], "two")
    rep = run_test(model, NORMAL, data, hyp)
    full = fit(model, NORMAL, data)
    rest = fit(
        model, NORMAL, data, restriction=(hyp.interest_indices, hyp.psi0),
        start=np.where(np.isin(np.arange(9), hyp.interest_indices), 0.0, full.theta),
    )
    oracle = T.full_report("model2", NORMAL, data, full.theta, rest.theta, [2, 3, 4])
    assert rep.rho == pytest.approx(oracle["rho"], rel=1e-9)
    assert rep.LR_star == pytest.approx(oracle["LR_star"], rel=1e-9)
    assert rep.LR_star2 == pytest.approx(oracle["LR_star2"], rel=1e-9)


# ---------------------------------------------------------------------------
# adjusted statistics (pure arithmetic)
# ---------------------------------------------------------------------------


def test_adjusted_identity_when_factors_one():
    r_star, LR_star, LR_star2, notes = adjusted_statistics(3.1, 1.2, 1.0, 1.0)
    assert (r_star, LR_star, LR_star2) == (1.2, 3.1, 3.1) and notes == []


def test_adjusted_arithmetic():
    r_star, _, _, _ = adjusted_statistics(4.0, 2.0, math.e, 1.0)
    assert r_star == pytest.approx(1.5, abs=1e-15)
    _, LR_star, LR_star2, _ = adjusted_statistics(4.0, None, None, math.e)
    assert LR_star2 == pytest.approx(2.0, abs=1e-15)
    assert LR_star == pytest.approx(4.0 * 0.75**2, abs=1e-15)  # = 2.25


def test_adjusted_negative_inner_factor_flagged():
    _, LR_star, LR_star2, notes = adjusted_statistics(0.5, None, None, math.e**2)
    assert LR_star2 == pytest.approx(0.5 - 4.0)
    assert LR_star >= 0.0
    assert any("inner" in m for m in notes)


# ---------------------------------------------------------------------------
# p-values
# ---------------------------------------------------------------------------


def test_pvalue_closed_forms():
    pv = p_values(LR=3.0, r=0.0, r_star=0.0, LR_star=3.0, LR_star2=3.0, q=2, sided="two")
    assert pv["p_LR"] == pytest.approx(math.exp(-1.5), abs=1e-12)
    pv1 = p_values(LR=1.0, r=0.0, r_star=None, LR_star=1.0, LR_star2=1.0, q=1, sided="lower")
    assert pv1["p_r"] == pytest.approx(0.5, abs=1e-14)  # Phi(0)


def test_pvalue_published_anchors():
    assert p_values(1, 1.0, 1.878, 1, 1, 1, "upper")["p_r_star"] == pytest.approx(0.030, abs=1e-3)
    assert p_values(5.634, None, None, 1, 1, 1, "two")["p_LR"] == pytest.approx(0.018, abs=1e-3)
    assert p_values(1, None, None, 1, 3.282, 1, "two")["p_LR_star2"] == pytest.approx(0.070, abs=1e-3)
    assert p_values(7.954, None, None, 1, 1, 3, "two")["p_LR"] == pytest.approx(0.047, abs=1e-3)
    assert p_values(1, None, None, 1, 6.844, 3, "two")["p_LR_star2"] == pytest.approx(0.077, abs=1e-3)


def test_pvalue_negative_lr_star2_clamped():
    pv = p_values(LR=0.5, r=None, r_star=None, LR_star=0.1, LR_star2=-0.3, q=2, sided="two")
    assert pv["p_LR_star2"] == 1.0


# ---------------------------------------------------------------------------
# run_test pipeline
# ---------------------------------------------------------------------------


def test_run_test_report_fields_q1():
    rng = np.random.default_rng(12)
    model, data = simulate_model1(NORMAL, 15, rng)
    rep = run_test(model, NORMAL, data, Hypothesis((3,), [0.0], "lower"), start=np.array([0.5, 0.2, 0, 0, 0.005]))
    assert rep.r is not None and rep.gamma is not None
    assert 0.0 <= rep.p_r <= 1.0 and 0.0 <= rep.p_LR <= 1.0
    assert rep.LR >= 0.0 and rep.LR_star >= 0.0
    # one-sided consistency: p_r = Phi(r)
    assert rep.p_r == pytest.approx(scipy.stats.norm.cdf(rep.r), abs=1e-12)


def test_run_test_q2_omits_scalar_fields():
    rng = np.random.default_rng(13)
    model, data = simulate_model1(NORMAL, 15, rng)
    rep = run_test(model, NORMAL, data, Hypothesis((2, 3), [0.0, 0.0], "two"), start=np.array([0.5, 0.2, 0, 0, 0.005]))
    assert rep.r is None and rep.gamma is None and rep.r_star is None
    d = rep.to_dict()
    for key in ("r", "gamma", "r_star", "p_r", "p_r_star"):
        assert key not in d


def test_run_test_sign_consistency():
    # sign(r*) == sign(r) whenever |r| > 0.5, over seeded instances
    model_master = M.nonlinear_model1()
    checked = 0
    for s in range(400):
        rng = np.random.default_rng(40_000 + s)
        model, data = simulate_model1(NORMAL, 25, rng)
        try:
            rep = run_test(model, NORMAL, data, Hypothesis((3,), [0.0], "two"),
                           start=np.array([0.5, 0.2, 0, 0, 0.005]))
        except StageError:
            continue
        if rep.r is not None and abs(rep.r) > 0.5 and rep.r_star is not None:
            checked += 1
            assert math.copysign(1, rep.r_star) == math.copysign(1, rep.r), (rep.r, rep.r_star, rep.gamma)
    assert checked > 200


def test_run_test_stage_identification(monkeypatch):
    rng = np.random.default_rng(14)
    model, data = simulate_model1(NORMAL, 12, rng)
    real_fit = fit

    def failing_fit(*args, **kwargs):
        res = real_fit(*args, **kwargs)
        if kwargs.get("restriction") is None and len(args) < 4:
            res.converged = False
        return res

    monkeypatch.setattr("elliplrt.inference.fit", failing_fit)
    with pytest.raises(StageError, match="unrestricted_fit"):
        run_test(model, NORMAL, data, Hypothesis((3,), [0.0], "two"))


def test_report_json_roundtrip():
    rng = np.random.default_rng(15)
    model, data = simulate_model1(NORMAL, 15, rng)
    rep = run_test(model, NORMAL, data, Hypothesis((3,), [0.0], "two"), start=np.array([0.5, 0.2, 0, 0, 0.005]))
    blob = json.dumps(rep.to_dict())
    back = json.loads(blob)
    assert back == rep.to_dict()
    for name in ("LR", "rho", "r", "gamma", "r_star", "p_LR"):
        assert back[name] == getattr(rep, name)


def test_lr_star_vs_r_star_squared_shrinks_with_n():
    # LR* ~ (r*)^2 for q=1: the gap's simulation median shrinks as n grows
    meds = []
    for n in (15, 25, 50):
        gaps = []
        for s in range(60):
            rng = np.random.default_rng(70_000 + 97 * n + s)
            model, data = simulate_model1(NORMAL, n, rng)
            try:
                rep = run_test(model, NORMAL, data, Hypothesis((3,), [0.0], "two"),
                               start=np.array([0.5, 0.2, 0, 0, 0.005]))
            except StageError:
                continue
            if rep.r is None or abs(rep.r) < 0.2:
                continue
            gaps.append(abs(math.copysign(math.sqrt(rep.LR_star), rep.r) - rep.r_star))
        meds.append(np.median(gaps))
    assert meds[2] < meds[0]


def test_hypothesis_validation():
    with pytest.raises(ValueError):
        Hypothesis((0, 1), [0.0, 0.0], "lower")  # one-sided needs scalar interest
    with pytest.raises(ValueError):
        Hypothesis((), [], "two")
    with pytest.raises(ValueError):
        Hypothesis((0,), [0.0], "sideways")
    with pytest.raises(ValueError):
        Hypothesis((0, 0), [0.0, 0.0], "two")
    with pytest.raises(ValueError):
        Hypothesis((0, 1), [0.0], "two")


@pytest.mark.parametrize(
    "interest, psi0, match",
    [((7,), [0.0], "out of range"), ((-1,), [0.0], "out of range"), ((4,), [-1.0], "must be positive"),
     ((3,), [np.nan], "must be finite")],
    ids=["index_past_p", "negative_index", "nonpositive_variance", "nan_psi0"],
)
def test_hypothesis_checked_against_model_before_fitting(interest, psi0, match, monkeypatch):
    model, data = simulate_model1(NORMAL, 15, np.random.default_rng(2))

    def no_fit(*args, **kwargs):
        raise AssertionError("fit must not run for an invalid hypothesis")

    monkeypatch.setattr("elliplrt.inference.fit", no_fit)
    with pytest.raises(HypothesisError, match=match):
        run_test(model, NORMAL, data, Hypothesis(interest, psi0, "two"))


@pytest.mark.parametrize(
    "interest, psi0, match",
    [((2.9,), [0.0], "interest index 2.9 is not an integer"), ((7,), [0.0], "interest index 7 is out of range"),
     ((2, 2), [0.0, 0.0], "interest index 2 is repeated"), ((True,), [0.0], "interest index True is not an integer")],
    ids=["fractional", "index_past_p", "repeated", "boolean"],
)
def test_restriction_and_hypothesis_share_the_index_rule(interest, psi0, match):
    # fit's restriction used to truncate 2.9 to 2, pin a repeated index once
    # and end index 7 in a raw IndexError
    model, data = simulate_model1(NORMAL, 15, np.random.default_rng(2))
    with pytest.raises(ValueError, match=match):
        fit(model, NORMAL, data, restriction=(interest, psi0))
    with pytest.raises(ValueError, match=match):
        Hypothesis(interest, psi0, "two").check(model)


@pytest.mark.parametrize("restriction", [((3,),), ((3,), (0.0,), (1,)), 3], ids=["one_item", "three_items", "scalar"])
def test_a_restriction_of_the_wrong_shape_is_named(restriction):
    # ((3,),) used to end in a raw IndexError
    model, data = simulate_model1(NORMAL, 15, np.random.default_rng(2))
    with pytest.raises(ValueError, match=r"^restriction must be \(interest_indices, psi0\), got "):
        fit(model, NORMAL, data, restriction=restriction)


def test_integral_indices_stay_accepted():
    model, data = simulate_model1(NORMAL, 15, np.random.default_rng(2))
    for index in (2.0, np.int64(2)):
        hyp = Hypothesis((index,), [0.0], "two")
        assert hyp.interest_indices == (2,) and type(hyp.interest_indices[0]) is int
        res = fit(model, NORMAL, data, restriction=((index,), [0.0]))
        assert res.converged and res.restriction[0] == (2,) and res.theta[2] == 0.0


def test_sign_skips_have_their_own_flags():
    # model 1, Student-t nu=1, config seed 42, replication 3: LR and r are far
    # from degenerate, yet both factors are skipped for a sign reason
    from elliplrt.montecarlo import SimulationConfig, simulate_dataset

    config = SimulationConfig(model="model1", family="student_t", nu=1.0, n=15, replications=1,
                              interest=(3,), psi0=(0.0,), seed=42)
    rep = run_test(M.nonlinear_model1(), config.family_obj(), simulate_dataset(config, 3), config.hypothesis(),
                   start=np.asarray(config.true_theta))
    assert rep.LR == pytest.approx(7.5648, abs=1e-4)
    assert rep.r == pytest.approx(2.7504, abs=1e-4)
    assert {"nonpositive_gamma_ratio", "nonpositive_rho_denominator"} <= set(rep.flags)
    assert not {"near_zero_r", "near_zero_LR"} & set(rep.flags)
    # skipped adjustments leave the statistics unadjusted
    assert rep.gamma == 1.0 and rep.rho == 1.0
    assert rep.r_star == rep.r and rep.LR_star == rep.LR_star2 == rep.LR
    assert rep.p_r_star == rep.p_r and rep.p_LR_star == rep.p_LR


def test_run_test_on_finite_differences_matches_the_analytic_model():
    # criterion 5's config started at the true theta; the five statistics of the
    # all-finite-difference model 1 agree with the analytic ones to 1e-4 relative
    config = SimulationConfig(model="model1", family="student_t", nu=3.0, n=15, replications=8,
                              interest=(3,), psi0=(0.0,), sided="lower", seed=31415)
    model, start = M.nonlinear_model1(), np.asarray(config.true_theta)
    for rep in range(8):
        data = simulate_dataset(config, rep)
        want = run_test(model, config.family_obj(), data, config.hypothesis(), start=start)
        got = run_test(fd_model(model), config.family_obj(), data, config.hypothesis(), start=start)
        for name in ("LR", "r", "r_star", "LR_star", "LR_star2"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-4), (rep, name)


def test_negative_determinant_is_noted_once():
    # model 1, normal, seed 2718, replication 0: |U'~| has a negative raw
    # determinant; gamma and rho share it, so it is noted once
    from elliplrt.montecarlo import SimulationConfig, simulate_dataset

    config = SimulationConfig(model="model1", family="normal", n=15, replications=1,
                              interest=(3,), psi0=(0.0,), seed=2718)
    rep = run_test(M.nonlinear_model1(), config.family_obj(), simulate_dataset(config, 0), config.hypothesis(),
                   start=np.asarray(config.true_theta))
    assert rep.notes.count("negative raw determinant: U_tilde_prime") == 1


def test_near_zero_statistics_skip_the_factors_before_any_determinant():
    # no sample-space derivatives are needed when both factors are skipped
    def fitted(theta, ll, restriction=None):
        return inference.FitResult(theta=np.asarray(theta), loglik=ll, score_norm=0.0, info=np.eye(3),
                                   converged=True, iterations=0, evaluations=1, stderr=np.ones(3),
                                   restriction=restriction)

    hat = fitted([0.0, 1.0, 2e-5], -10.0)
    tilde = fitted([0.0, 1.0, 0.0], -10.0 - 1e-10, ((2,), np.array([0.0])))
    assert adjustment_factors(hat, tilde, None) == (1.0, 1.0, {"near_zero_r", "near_zero_LR"}, [])
    # r exists only for a scalar interest: a vector block gets no gamma and no near_zero_r
    tilde = fitted([0.0, 1.0, 0.0], -10.0 - 1e-10, ((1, 2), np.array([1.0, 0.0])))
    assert adjustment_factors(hat, tilde, None) == (None, 1.0, {"near_zero_LR"}, [])


def test_nonpositive_score_quadratic_form_has_its_own_flag():
    # J-doubletilde = -I makes U~' JJ^{-1} U~ negative while gamma's ratio is positive
    def fitted(theta, ll, **tilde):
        return inference.FitResult(theta=np.asarray(theta), loglik=ll, score_norm=0.0, info=np.eye(2),
                                   converged=True, iterations=0, evaluations=1, stderr=np.ones(2), **tilde)

    derivs = inference.SampleSpaceDerivs(ell_hat_prime=np.array([0.0, 1.0]), ell_tilde_prime=np.zeros(2),
                                         U_tilde_prime=np.eye(2), J_doubletilde=-np.eye(2))
    tilde = fitted([0.0, 0.0], -11.0, restriction=((1,), np.array([0.0])), score=np.array([0.5, 0.0]))
    gamma, rho, flags, notes = adjustment_factors(fitted([0.0, 1.0], -10.0), tilde, derivs)
    assert flags == {"nonpositive_score_quadratic_form"} and rho == 1.0 and gamma != 1.0
    assert "nonpositive score quadratic form; adjustment skipped" in notes


# ---------------------------------------------------------------------------
# the Newton ridge
# ---------------------------------------------------------------------------


def _ridge_forward_scan(H):
    """The ridge as a forward scan: every term of the tau sequence in order.

    A term fails where LAPACK rejects H + tau I or factors it into a non-finite factor.
    """
    tau = 0.0
    base = max(np.max(np.abs(np.diag(H))), 1.0)
    eye = np.eye(H.shape[0])
    for _ in range(60):
        try:
            L = np.linalg.cholesky(H + tau * eye)
            if np.isfinite(L).all():
                return tau, L
        except np.linalg.LinAlgError:
            pass
        tau = max(2.0 * tau, 1e-10 * base)
    return None


def _same_ridge(got, want):
    if want is None:
        return got is None
    return got is not None and got[0] == want[0] and np.array_equal(got[1], want[1], equal_nan=True)


def test_ridge_search_matches_the_forward_scan():
    # H = scale (B + (shift - lambda_min(B)) I): lambda_min(H) = scale * shift,
    # a third of them positive definite, the rest indefinite by |shift|
    rng = np.random.default_rng(20151)
    dims = (1, 2, 5, 9)
    ridged = 0
    for i in range(12000):
        p = dims[i % 4]
        B = rng.standard_normal((p, p))
        B = 0.5 * (B + B.T)
        scale = 10.0 ** rng.uniform(-6.0, 6.0)
        shift = 10.0 ** rng.uniform(-12.0, 3.0) * (1.0 if i % 3 == 0 else -1.0)
        H = scale * (B + (shift - np.linalg.eigvalsh(B)[0]) * np.eye(p))
        want = _ridge_forward_scan(H)
        assert _same_ridge(linalg.ridge_cholesky(H), want), (i, p, scale, shift)
        ridged += want is not None and want[0] > 0.0
    assert ridged > 6000


def test_ridge_search_factors_at_most_eight_times(monkeypatch):
    # tau = 0, the last term, then a bisection of the RIDGE_TRIES - 1 terms below it
    calls = 0
    real = linalg.cholesky_or_none

    def counting(S):
        nonlocal calls
        calls += 1
        return real(S)

    monkeypatch.setattr(linalg, "cholesky_or_none", counting)
    most = 2 + math.ceil(math.log2(linalg.RIDGE_TRIES - 1))
    assert most == 8
    rng = np.random.default_rng(20151)
    dims = (1, 2, 5, 9)
    for i in range(12000):
        p = dims[i % 4]
        B = rng.standard_normal((p, p))
        B = 0.5 * (B + B.T)
        scale = 10.0 ** rng.uniform(-6.0, 6.0)
        shift = 10.0 ** rng.uniform(-12.0, 3.0) * (1.0 if i % 3 == 0 else -1.0)
        H = scale * (B + (shift - np.linalg.eigvalsh(B)[0]) * np.eye(p))
        calls = 0
        linalg.ridge_cholesky(H)
        assert calls <= most, (i, p, scale, shift, calls)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ridge_search_on_nonfinite_H_gives_up_after_two_factorizations(bad, monkeypatch):
    calls = []
    real = linalg.cholesky_or_none

    def counting(S):
        calls.append(S)
        return real(S)

    monkeypatch.setattr(linalg, "cholesky_or_none", counting)
    H = np.eye(5)
    H[1, 3] = H[3, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert linalg.ridge_cholesky(H) is None
    assert len(calls) == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["diagonal", "off_diagonal", "everywhere"])
def test_ridge_search_on_nonfinite_H_matches_the_forward_scan_and_its_warnings(bad, where):
    rng = np.random.default_rng(7)
    for p in (1, 2, 5, 9):
        B = rng.standard_normal((p, p))
        H = 0.5 * (B + B.T) - 3.0 * np.eye(p)
        if where == "diagonal":
            H[p - 1, p - 1] = bad
        elif where == "everywhere":
            H[:] = bad
        elif p > 1:
            H[0, p - 1] = H[p - 1, 0] = bad
        with warnings.catch_warnings(record=True) as scan_warnings:
            warnings.simplefilter("always")
            want = _ridge_forward_scan(H)
        with warnings.catch_warnings(record=True) as search_warnings:
            warnings.simplefilter("always")
            got = linalg.ridge_cholesky(H)
        assert _same_ridge(got, want)
        seen = {(w.category, str(w.message)) for w in scan_warnings}
        assert {(w.category, str(w.message)) for w in search_warnings} <= seen
