"""Staged evaluation: lazy model derivatives, the cached likelihood stage 0
and a line search that judges trial points on their log-likelihood alone."""

import functools
import hashlib
from dataclasses import replace

import numpy as np
import pytest

from conftest import fd_model, make_locscale_model, scalar_dataset, simulate_model1, simulate_model2
from elliplrt import inference
from elliplrt import likelihood as L
from elliplrt import model as M
from elliplrt.families import EllipticalFamily
from elliplrt.inference import fit
from elliplrt.montecarlo import SimulationConfig, simulate_dataset

T3 = EllipticalFamily.student_t(3.0)
DERIVATIVES = ("dmu", "d2mu", "dsigma", "d2sigma")


def counting_model(base: M.ModelSpec):
    """``base`` with every derivative callback logging the theta it saw."""
    seen = {name: [] for name in DERIVATIVES}

    def logged(name):
        fn = getattr(base, f"{name}_fn")
        if fn is None:
            return None

        def wrapper(theta, blk):
            seen[name].append(theta)
            return fn(theta, blk)

        return wrapper

    return replace(base, **{f"{name}_fn": logged(name) for name in DERIVATIVES}), seen


# ---------------------------------------------------------------------------
# lazy model derivatives
# ---------------------------------------------------------------------------


def test_evaluate_runs_no_derivative_callback_until_accessed():
    model, seen = counting_model(M.nonlinear_model1())
    _, data = simulate_model1(T3, 15, np.random.default_rng(3))
    ev = M.evaluate(model, np.array([0.5, 0.2, 0.0, 0.0, 0.005]), data)
    L.loglik(T3, ev)
    assert all(not calls for calls in seen.values())
    ev.blocks[0].dmu
    ev.blocks[0].dmu
    assert len(seen["dmu"]) == 1 and seen["dmu"][0] is ev.theta
    assert not seen["d2mu"] and not seen["dsigma"]


def test_nonspd_is_raised_before_any_derivative_callback():
    model, seen = counting_model(M.mixed_model2())
    _, data = simulate_model2(EllipticalFamily.normal(), 16, np.random.default_rng(4))
    theta = np.array([0.7, 0.5, 0.0, 0.0, 0.0, 500.0, 2.0, 200.0, -5.0])
    with pytest.raises(M.NonSPDError):
        M.evaluate(model, theta, data)
    assert all(not calls for calls in seen.values())


def _eager(model, theta, blk, force_fd):
    """The derivative arrays as evaluate() computed them all at once."""
    if not force_fd and model.dmu_fn is not None:
        dmu = model.dmu_fn(theta, blk)
        d2mu = model.d2mu_fn(theta, blk) if model.d2mu_fn is not None else None
    else:
        dmu = M._fd_first(lambda t: model.mu_fn(t, blk), theta)
        d2mu = M._fd_second(lambda t: model.mu_fn(t, blk), theta)
    if not force_fd and model.dsigma_fn is not None:
        dsigma = model.dsigma_fn(theta, blk)
        d2sigma = model.d2sigma_fn(theta, blk) if model.d2sigma_fn is not None else None
    else:
        dsigma = M._fd_first(lambda t: model.sigma_fn(t, blk), theta)
        d2sigma = M._fd_second(lambda t: model.sigma_fn(t, blk), theta)
    if d2sigma is not None:
        d2sigma = 0.5 * (d2sigma + np.swapaxes(d2sigma, 1, 2))
    if d2mu is not None:
        d2mu = 0.5 * (d2mu + np.swapaxes(d2mu, 1, 2))
    dsigma = 0.5 * (dsigma + np.swapaxes(dsigma, -1, -2))
    return {"dmu": dmu, "d2mu": d2mu, "dsigma": dsigma, "d2sigma": d2sigma}


@pytest.mark.parametrize("force_fd", [False, True], ids=["analytic", "fd"])
@pytest.mark.parametrize("kind", ["model1", "model2", "locscale"])
def test_lazy_derivatives_equal_eager_ones(kind, force_fd):
    rng = np.random.default_rng(5)
    if kind == "model1":
        model, data = simulate_model1(T3, 12, rng)
        theta = np.array([0.5, 0.2, 0.1, -0.1, 0.005])
    elif kind == "model2":
        model, data = simulate_model2(T3, 16, rng)
        theta = np.array([0.7, 0.5, 0.0, 0.0, 0.0, 500.0, 2.0, 200.0, 5.0])
    else:
        model, data = make_locscale_model(), scalar_dataset(rng.normal(size=12))
        theta = np.array([0.3, 1.7])
    ev = M.evaluate(fd_model(model) if force_fd else model, theta, data)
    for be in ev.blocks:
        expected = _eager(model, theta, be.data, force_fd)
        for name in reversed(DERIVATIVES):  # any access order gives the same arrays
            got, want = getattr(be, name), expected[name]
            if want is None:
                assert got is None
            else:
                np.testing.assert_array_equal(got, want)


def test_theta_independent_arrays_are_cached_read_only():
    _, data = simulate_model2(T3, 16, np.random.default_rng(6))
    model = M.mixed_model2()
    ev1 = M.evaluate(model, np.array([0.7, 0.5, 0.0, 0.0, 0.0, 500.0, 2.0, 200.0, 5.0]), data)
    ev2 = M.evaluate(model, np.array([0.6, 0.4, 0.1, 0.0, 0.0, 400.0, 1.0, 100.0, 4.0]), data)
    blk = data.blocks()[-1]
    assert M._m2_dmu(None, blk) is M._m2_dmu(None, blk)
    assert not M._m2_dmu(None, blk).flags.writeable
    np.testing.assert_array_equal(ev1.blocks[-1].dsigma, ev2.blocks[-1].dsigma)


def test_model1_d2mu_reuses_the_cached_outer_product_bit_for_bit():
    _, data = simulate_model1(T3, 15, np.random.default_rng(9))
    blk = data.blocks()[0]
    t = M._m1_terms(blk)
    for theta in (np.array([0.5, 0.2, 0.1, -0.1, 0.005]), np.array([-0.3, 1.5, -0.7, 0.2, 0.01])):
        h = 1.0 + t @ theta[:4]
        want = np.zeros((blk.m, 5, 5, 1))
        want[:, :4, :4, 0] = 2.0 * t[:, :, None] * t[:, None, :] / (h**3)[:, None, None]
        assert M._m1_d2mu(theta, blk).tobytes() == want.tobytes()
    assert blk.cache["m1_tt2"] is blk.cached("m1_tt2", None) and not blk.cache["m1_tt2"].flags.writeable
    # BlockEval still symmetrizes: 0.5 (x + x) is x only while x + x is finite
    ev = M.evaluate(M.nonlinear_model1(), np.array([0.5, 0.2, 0.1, -0.1, 0.005]), data)
    raw = M._m1_d2mu(ev.theta, blk)
    assert ev.blocks[0].d2mu.tobytes() == (0.5 * (raw + np.swapaxes(raw, 1, 2))).tobytes()


def test_lazy_attributes_are_computed_once_per_block():
    model, seen = counting_model(M.nonlinear_model1())
    _, data = simulate_model1(T3, 15, np.random.default_rng(3))
    be = M.evaluate(model, np.array([0.5, 0.2, 0.0, 0.0, 0.005]), data).blocks[0]
    assert "d2mu" not in vars(be)
    first = be.d2mu
    assert be.d2mu is first and vars(be)["d2mu"] is first and len(seen["d2mu"]) == 1
    assert isinstance(type(be).d2mu, functools.cached_property)


# ---------------------------------------------------------------------------
# likelihood stage 0
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "fam", [T3, EllipticalFamily.normal(), EllipticalFamily.power_exponential(0.9)], ids=lambda f: f.label()
)
@pytest.mark.parametrize("kind", ["model1", "model2"])
def test_stage0_then_score_info_equals_one_pass(kind, fam):
    rng = np.random.default_rng(7)
    if kind == "model1":
        model, data = simulate_model1(fam, 15, rng)
        theta = np.array([0.45, 0.25, 0.05, -0.05, 0.006])
    else:
        model, data = simulate_model2(fam, 16, rng)
        theta = np.array([0.6, 0.45, 0.3, -0.2, 0.1, 450.0, 3.0, 180.0, 6.0])
    staged = M.evaluate(model, theta, data)
    ll = L.loglik(fam, staged)
    si_staged = L.score_info(fam, staged)
    si_one = L.score_info(fam, M.evaluate(model, theta, data))
    assert ll == si_staged.loglik == si_one.loglik
    np.testing.assert_array_equal(si_staged.score, si_one.score)
    np.testing.assert_array_equal(si_staged.info, si_one.info)
    np.testing.assert_array_equal(si_staged.per_obs_u, si_one.per_obs_u)


def test_stage0_cache_is_per_family_and_not_used_for_override_residuals():
    model, data = simulate_model1(T3, 15, np.random.default_rng(8))
    theta = np.array([0.5, 0.2, 0.0, 0.0, 0.005])
    ev = M.evaluate(model, theta, data)
    normal = EllipticalFamily.normal()
    assert L.loglik(T3, ev) == L.loglik(T3, M.evaluate(model, theta, data))
    assert L.loglik(normal, ev) == L.loglik(normal, M.evaluate(model, theta, data))
    z = [2.0 * (be.data.y - be.mu) for be in ev.blocks]
    assert L.score_info(T3, ev, False, z).loglik != L.loglik(T3, ev)


# ---------------------------------------------------------------------------
# the line search
# ---------------------------------------------------------------------------


def test_rejected_trial_point_builds_no_derivatives_and_no_information(monkeypatch):
    model, seen = counting_model(M.nonlinear_model1())
    _, data = simulate_model1(T3, 15, np.random.default_rng(11))
    evals, infos = [], []
    real_evaluate, real_score_info = inference.evaluate, inference.score_info

    def evaluate(*args, **kwargs):
        ev = real_evaluate(*args, **kwargs)
        evals.append(ev)
        return ev

    def score_info(family, ev, want_info=True, z_blocks=None):
        if want_info:
            infos.append(ev)
        return real_score_info(family, ev, want_info, z_blocks)

    monkeypatch.setattr(inference, "evaluate", evaluate)
    monkeypatch.setattr(inference, "score_info", score_info)
    monkeypatch.setattr(inference, "RESTARTS", 0)
    res = fit(model, T3, data, start=np.array([0.2, 0.6, -0.3, 0.3, 0.02]))
    assert res.converged
    rejected = [ev for ev in evals if not any(ev is e for e in infos)]
    assert rejected, "the start must make the line search reject a trial point"
    # one J per Newton iterate: the start and every accepted step
    assert len(infos) == 1 + res.iterations
    for ev in rejected:
        assert not any(t is ev.theta for calls in seen.values() for t in calls)


# ---------------------------------------------------------------------------
# pinned fingerprint
# ---------------------------------------------------------------------------

# sha256 of repr((theta-hat, theta-tilde, l-hat, l-tilde, converged flags,
# J-hat, J-tilde)) over the cases below, recorded before the fitter was
# staged.  Staging changes which quantities are computed, never how, so the
# digest is unchanged; any reordering of floating-point sums changes it.
# Recorded with numpy 2.4 / scipy 1.17 on x86-64 OpenBLAS.
FIT_FINGERPRINT = "8ccd0a7da2ff2432a1ad84267a810627ca7064362b638777ba214d26e974573e"

# sha256 of repr((LR, r, gamma, rho, r*, LR*, LR**, the five p-values,
# sorted flags)) of run_test over the same cases, recorded before the
# sample-space kernel and the adjustment core were shared, with the same
# numpy and scipy.  It pins the ancillary and adjustment stages the way
# FIT_FINGERPRINT pins the fits.
ADJUST_FINGERPRINT = "d2bb63d38f7747730a7a8854c3740743198a35ac5177ee6773fdd4837a18707f"

FINGERPRINT_CASES = (
    # model, family, nu, n, interest, start at the true theta, replications
    ("model1", "student_t", 3.0, 15, (3,), True, (0, 1, 2)),
    ("model1", "normal", None, 15, (3,), True, (0, 1)),
    ("model2", "student_t", 4.0, 16, (4,), False, (0, 1, 2)),
    ("model2", "normal", None, 16, (4,), False, (0, 1)),
)


def _fingerprint_datasets():
    """(config, model, family, warm start or None, dataset) for each case."""
    for name, family, nu, n, interest, warm, reps in FINGERPRINT_CASES:
        config = SimulationConfig(model=name, family=family, nu=nu, n=n, replications=1,
                                  interest=interest, psi0=(0.0,), seed=2718)
        model = M.nonlinear_model1() if name == "model1" else M.mixed_model2()
        start = np.asarray(config.true_theta) if warm else None
        for rep in reps:
            yield config, model, config.family_obj(), start, simulate_dataset(config, rep)


def fit_fingerprint() -> str:
    digest = hashlib.sha256()
    for config, model, fam, start, data in _fingerprint_datasets():
        interest = config.interest
        hat = fit(model, fam, data, start=start)
        tilde_start = hat.theta.copy()
        tilde_start[list(interest)] = 0.0
        tilde = fit(model, fam, data, restriction=(interest, [0.0]), start=tilde_start)
        digest.update(repr((hat.theta.tolist(), tilde.theta.tolist(), hat.loglik, tilde.loglik,
                            hat.converged, tilde.converged, hat.info.tolist(),
                            tilde.info.tolist())).encode())
    return digest.hexdigest()


def adjust_fingerprint() -> str:
    digest = hashlib.sha256()
    for config, model, fam, start, data in _fingerprint_datasets():
        try:
            rep = inference.run_test(model, fam, data, config.hypothesis(), start=start)
        except inference.StageError as exc:  # one model-2 case: the cold-start fit fails
            digest.update(repr(exc.stage).encode())
            continue
        digest.update(repr((rep.LR, rep.r, rep.gamma, rep.rho, rep.r_star, rep.LR_star, rep.LR_star2,
                            rep.p_LR, rep.p_r, rep.p_r_star, rep.p_LR_star, rep.p_LR_star2,
                            sorted(rep.flags))).encode())
    return digest.hexdigest()


def test_fits_match_pinned_fingerprint():
    assert fit_fingerprint() == FIT_FINGERPRINT


def test_adjusted_statistics_match_pinned_fingerprint():
    assert adjust_fingerprint() == ADJUST_FINGERPRINT


def test_fit_keeps_the_score_of_its_final_evaluation():
    # run_test takes U-tilde from the restricted fit instead of assembling it again
    for config, model, fam, start, data in _fingerprint_datasets():
        hat = fit(model, fam, data, start=start)
        tilde_start = hat.theta.copy()
        tilde_start[list(config.interest)] = 0.0
        tilde = fit(model, fam, data, restriction=(config.interest, [0.0]), start=tilde_start)
        for res in (hat, tilde):
            assert np.array_equal(res.score, L.score_info(fam, res.eval_, want_info=False).score)
