"""Cholesky machinery, ancillary construction and sample-space derivatives."""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import transcription as T
from conftest import (
    ALL_FAMILIES,
    ancillary_of,
    make_linreg_model,
    make_mean_model,
    obs_view,
    scalar_dataset,
    simulate_model1,
    simulate_model2,
)
from elliplrt import likelihood as L
from elliplrt import model as M
from elliplrt.ancillary import (
    _ell_prime,
    build_ancillary,
    cholesky_derivative,
    cholesky_lower,
    doubletilde_info,
    sample_space_gradients,
)
from elliplrt.families import EllipticalFamily
from elliplrt.inference import Hypothesis, fit, run_test

NORMAL = EllipticalFamily.normal()


def _random_spd(rng, n):
    A = rng.standard_normal((n, n))
    return A @ A.T + n * np.eye(n)


# ---------------------------------------------------------------------------
# cholesky_lower
# ---------------------------------------------------------------------------


def test_cholesky_identity():
    np.testing.assert_array_equal(cholesky_lower(np.eye(3)), np.eye(3))


def test_cholesky_2x2_by_hand():
    P = cholesky_lower(np.array([[4.0, 2.0], [2.0, 5.0]]))
    np.testing.assert_allclose(P, [[2.0, 0.0], [1.0, 2.0]], atol=1e-15)


def test_cholesky_reconstruction_random():
    rng = np.random.default_rng(1)
    S = _random_spd(rng, 5)
    P = cholesky_lower(S)
    assert np.max(np.abs(P @ P.T - S)) < 1e-12 * np.max(np.abs(S))
    assert np.all(np.diag(P) > 0)


def test_cholesky_rejects_bad_input():
    with pytest.raises(ValueError):
        cholesky_lower(np.array([[1.0, 2.0], [0.0, 1.0]]))  # not symmetric
    with pytest.raises(ValueError):
        cholesky_lower(-np.eye(2))  # not PD
    with pytest.raises(ValueError):
        cholesky_lower(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# cholesky_derivative
# ---------------------------------------------------------------------------


def test_chol_deriv_scalar():
    # d sqrt(s) / ds = 1 / (2 sqrt(s))
    s = 2.3
    dP = cholesky_derivative(np.array([[np.sqrt(s)]]), np.array([[1.0]]))
    assert dP[0, 0] == pytest.approx(1.0 / (2.0 * np.sqrt(s)), rel=1e-14)


def test_chol_deriv_offdiagonal():
    dP = cholesky_derivative(np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(dP, [[0.0, 0.0], [1.0, 0.0]], atol=1e-15)


def test_chol_deriv_matches_fd_and_smith():
    rng = np.random.default_rng(4)
    S = _random_spd(rng, 4)
    dS = rng.standard_normal((4, 4))
    dS = dS + dS.T
    P = cholesky_lower(S)
    dP = cholesky_derivative(P, dS)
    h = 1e-6
    fd = (np.linalg.cholesky(S + h * dS) - np.linalg.cholesky(S - h * dS)) / (2 * h)
    np.testing.assert_allclose(dP, fd, rtol=1e-7, atol=1e-7 * np.max(np.abs(fd)))
    np.testing.assert_allclose(dP, T.t_chol_deriv_smith(P, dS), rtol=1e-12, atol=1e-12)


def test_chol_deriv_product_rule():
    rng = np.random.default_rng(9)
    S = _random_spd(rng, 5)
    dS = rng.standard_normal((5, 5))
    dS = dS + dS.T
    P = cholesky_lower(S)
    dP = cholesky_derivative(P, dS)
    assert np.max(np.abs(dP @ P.T + P @ dP.T - dS)) < 1e-10 * np.max(np.abs(dS))


def test_chol_deriv_singular_P():
    with pytest.raises(ValueError):
        cholesky_derivative(np.zeros((2, 2)), np.eye(2))


# ---------------------------------------------------------------------------
# build_ancillary
# ---------------------------------------------------------------------------


def test_ancillary_scalar_case_and_reconstruction():
    rng = np.random.default_rng(10)
    fam = NORMAL
    model, data = simulate_model1(fam, 20, rng)
    res = fit(model, fam, data)
    bundle = build_ancillary(res)
    ev = bundle.eval_hat
    for i, obs in enumerate(data.observations):
        o = obs_view(ev, i)
        sigma_hat = o.sigma[0, 0]
        expected = (obs.y[0] - o.mu[0]) / np.sqrt(sigma_hat)
        assert ancillary_of(bundle, i)[0] == pytest.approx(expected, rel=1e-10)
    # reconstruction P a + mu = y to 1e-12 relative
    for be, bb in zip(ev.blocks, bundle.blocks):
        recon = np.einsum("mab,mb->ma", bb.P, bb.a) + be.mu
        assert np.max(np.abs(recon - be.data.y)) < 1e-12 * max(1.0, np.max(np.abs(be.data.y)))


def test_ancillary_requires_converged_fit():
    rng = np.random.default_rng(11)
    model, data = simulate_model1(NORMAL, 12, rng)
    res = fit(model, NORMAL, data)
    res.converged = False
    with pytest.raises(ValueError):
        build_ancillary(res)


def test_ancillary_asymptotically_standardized():
    rng = np.random.default_rng(12)
    model, data = simulate_model1(NORMAL, 50, rng)
    res = fit(model, NORMAL, data)
    bundle = build_ancillary(res)
    a = np.concatenate([bb.a[:, 0] for bb in bundle.blocks])
    assert abs(a.mean()) < 0.5
    assert 0.5 < a.var() < 1.6


def test_ancillary_reconstruction_model2():
    rng = np.random.default_rng(13)
    fam = EllipticalFamily.student_t(3.0)
    model, data = simulate_model2(fam, 12, rng)
    res = fit(model, fam, data)
    bundle = build_ancillary(res)
    for be, bb in zip(bundle.eval_hat.blocks, bundle.blocks):
        recon = np.einsum("mab,mb->ma", bb.P, bb.a) + be.mu
        scale = max(1.0, np.max(np.abs(be.data.y)))
        assert np.max(np.abs(recon - be.data.y)) < 1e-12 * scale


# ---------------------------------------------------------------------------
# sample-space derivatives
# ---------------------------------------------------------------------------


def test_mean_model_closed_forms():
    rng = np.random.default_rng(14)
    y = rng.standard_normal(25) + 0.4
    data = scalar_dataset(y)
    model = make_mean_model()
    res = fit(model, NORMAL, data)
    bundle = build_ancillary(res)
    # at theta-hat: sum of ancillaries vanishes, so l' = 0
    ell_hat, _ = sample_space_gradients(res.eval_, bundle, NORMAL)
    assert ell_hat[0] == pytest.approx(0.0, abs=1e-10)
    # at theta-tilde = 0: l' = -n theta-hat, U' = n
    ev0 = M.evaluate(model, np.array([0.0]), data)
    ell0, U0 = sample_space_gradients(ev0, bundle, NORMAL)
    n = y.size
    assert ell0[0] == pytest.approx(-n * res.theta[0], rel=1e-10)
    assert U0[0, 0] == pytest.approx(n, rel=1e-12)


# per-family data seeds: the power-exponential case needs residuals away
# from the u = 0 weight cusp, where finite differences lose validity while
# the analytic derivative stays exact
FD_SEEDS = {"normal": 15, "student_t": 15, "power_exponential": 40}


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.label())
def test_ell_prime_matches_fd_through_ancillary(fam):
    """l' == finite difference of l(theta; theta-hat, a) in theta-hat."""
    rng = np.random.default_rng(FD_SEEDS[fam.kind])
    model, data = simulate_model1(fam, 12, rng)
    res = fit(model, fam, data, start=np.array([0.5, 0.2, 0.0, 0.0, 0.005]))
    rest = fit(model, fam, data, restriction=((2, 3), (0.0, 0.0)), start=res.theta * [1, 1, 0, 0, 1])
    bundle = build_ancillary(res)
    a = bundle.blocks[0].a
    x1 = np.array([float(o.covariates["x1"]) for o in data.observations])
    x2 = np.array([float(o.covariates["x2"]) for o in data.observations])

    def ell_reconstructed(theta_hat_shift, theta_eval):
        evh = M.evaluate(model, theta_hat_shift, data)
        y_rec = np.einsum("mab,mb->ma", evh.blocks[0].P, a) + evh.blocks[0].mu
        d2 = M.model1_dataset(y_rec[:, 0], x1, x2)
        return L.loglik(fam, M.evaluate(model, theta_eval, d2))

    ell_t, _ = sample_space_gradients(rest.eval_, bundle, fam)
    fd = np.zeros(5)
    for r in range(5):
        h = 1e-6 * max(1.0, abs(res.theta[r]))
        e = np.zeros(5)
        e[r] = h
        fd[r] = (ell_reconstructed(res.theta + e, rest.theta) - ell_reconstructed(res.theta - e, rest.theta)) / (
            2 * h
        )
    np.testing.assert_allclose(ell_t, fd, rtol=1e-5, atol=1e-5 * np.max(np.abs(fd)))


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.label())
def test_U_prime_matches_fd_of_ell_prime(fam):
    """U'[r, s] == finite difference of l'_s in theta_r at a fixed bundle."""
    rng = np.random.default_rng(FD_SEEDS[fam.kind])
    model, data = simulate_model1(fam, 12, rng)
    res = fit(model, fam, data, start=np.array([0.5, 0.2, 0.0, 0.0, 0.005]))
    rest = fit(model, fam, data, restriction=((3,), (0.0,)), start=res.theta * [1, 1, 1, 0, 1])
    bundle = build_ancillary(res)
    _, Uprime = sample_space_gradients(rest.eval_, bundle, fam)
    fd = np.zeros((5, 5))
    for r in range(5):
        h = 1e-6 * max(1.0, abs(rest.theta[r]))
        e = np.zeros(5)
        e[r] = h
        ep, _ = sample_space_gradients(M.evaluate(model, rest.theta + e, data), bundle, fam)
        em, _ = sample_space_gradients(M.evaluate(model, rest.theta - e, data), bundle, fam)
        fd[r] = (ep - em) / (2 * h)
    np.testing.assert_allclose(Uprime, fd, rtol=1e-5, atol=1e-5 * np.max(np.abs(fd)))


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.label())
@pytest.mark.parametrize("kind", ["model1", "model2"])
def test_ell_prime_alone_equals_the_ell_prime_of_the_gradients(kind, fam):
    rng = np.random.default_rng(31)
    if kind == "model1":
        model, data = simulate_model1(fam, 15, rng)
        th = np.array([0.5, 0.2, 0.1, -0.1, 0.005])
    else:
        model, data = simulate_model2(fam, 30, rng)
        th = np.array([0.7, 0.5, 0.0, 0.0, 0.0, 500.0, 2.0, 200.0, 5.0])
    bundle = build_ancillary(SimpleNamespace(converged=True, eval_=M.evaluate(model, th, data)))
    for theta in (th, th * (1.0 + 0.05 * rng.standard_normal(th.size))):
        ell = _ell_prime(M.evaluate(model, theta, data), bundle, fam)
        assert np.array_equal(ell, sample_space_gradients(M.evaluate(model, theta, data), bundle, fam)[0])


def test_U_prime_equals_info_in_gaussian_known_sigma():
    # exact-ancillary regime: U'(theta-hat) == J(theta-hat)
    rng = np.random.default_rng(18)
    n, pc = 30, 3
    X = np.column_stack([np.ones(n), rng.uniform(0, 1, n), rng.uniform(0, 1, n)])
    y = X @ np.array([0.4, 1.0, -0.5]) + rng.standard_normal(n)
    data = M.Dataset([M.Observation(np.array([yi]), {"X": X[i]}) for i, yi in enumerate(y)])
    model = make_linreg_model(pc)
    res = fit(model, NORMAL, data)
    bundle = build_ancillary(res)
    _, Uprime = sample_space_gradients(res.eval_, bundle, NORMAL)
    np.testing.assert_allclose(Uprime, res.info, rtol=1e-6, atol=1e-6 * np.max(np.abs(res.info)))


# ---------------------------------------------------------------------------
# double-tilde information
# ---------------------------------------------------------------------------


def test_doubletilde_equals_info_at_theta_hat():
    rng = np.random.default_rng(19)
    for fam in ALL_FAMILIES:
        model, data = simulate_model1(fam, 12, rng)
        res = fit(model, fam, data, start=np.array([0.5, 0.2, 0.0, 0.0, 0.005]))
        bundle = build_ancillary(res)
        JJ = doubletilde_info(res.eval_, bundle, fam)
        np.testing.assert_allclose(JJ, res.info, rtol=1e-10, atol=1e-10 * np.max(np.abs(res.info)))


def test_doubletilde_constant_for_mean_model():
    rng = np.random.default_rng(20)
    y = rng.standard_normal(15) + 1.0
    data = scalar_dataset(y)
    model = make_mean_model()
    res = fit(model, NORMAL, data)
    bundle = build_ancillary(res)
    for theta0 in (0.0, -2.0, 3.5):
        JJ = doubletilde_info(M.evaluate(model, np.array([theta0]), data), bundle, NORMAL)
        assert JJ[0, 0] == pytest.approx(y.size, rel=1e-12)


def test_doubletilde_matches_transcription_model2():
    rng = np.random.default_rng(21)
    fam = NORMAL
    model, data = simulate_model2(fam, 12, rng)
    res = fit(model, fam, data)
    rest = fit(
        model, fam, data, restriction=((2, 3, 4), (0.0, 0.0, 0.0)),
        start=np.where(np.isin(np.arange(9), (2, 3, 4)), 0.0, res.theta),
    )
    bundle = build_ancillary(res)
    JJ = doubletilde_info(rest.eval_, bundle, fam)
    obs_hat = T.obs_list_model2(res.theta, data)
    obs_til = T.obs_list_model2(rest.theta, data)
    JJ_t = T.t_doubletilde(fam, obs_til, T.t_ancillary(obs_hat), 9)
    np.testing.assert_allclose(JJ, JJ_t, rtol=1e-9, atol=1e-9 * np.max(np.abs(JJ_t)))
