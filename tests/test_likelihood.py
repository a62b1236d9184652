"""Log-likelihood, score and observed information against independent oracles."""

import sys
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import transcription as T
from conftest import (
    ALL_FAMILIES,
    GENTLE_THETA2,
    gentle_model2_data,
    make_locscale_model,
    obs_view,
    scalar_dataset,
    simulate_model1,
    simulate_model2,
)
from elliplrt import likelihood as L
from elliplrt import model as M
from elliplrt.families import EllipticalFamily

NORMAL = EllipticalFamily.normal()


def _fd_gradient(fn, theta, h_scale=1e-6):
    g = np.zeros_like(theta)
    for r in range(theta.size):
        h = h_scale * max(1.0, abs(theta[r]))
        e = np.zeros_like(theta)
        e[r] = h
        g[r] = (fn(theta + e) - fn(theta - e)) / (2 * h)
    return g


def _fd_hessian(fn, theta, h_scale=1e-5):
    p = theta.size
    H = np.zeros((p, p))
    for i in range(p):
        hi = h_scale * max(1.0, abs(theta[i]))
        for j in range(i, p):
            hj = h_scale * max(1.0, abs(theta[j]))
            ei = np.zeros(p)
            ej = np.zeros(p)
            ei[i], ej[j] = hi, hj
            val = (fn(theta + ei + ej) - fn(theta + ei - ej) - fn(theta - ei + ej) + fn(theta - ei - ej)) / (
                4 * hi * hj
            )
            H[i, j] = H[j, i] = val
    return H


# ---------------------------------------------------------------------------
# log-likelihood values
# ---------------------------------------------------------------------------


def test_loglik_single_normal_zero_residual():
    data = scalar_dataset([0.7])
    spec = make_locscale_model()
    ev = M.evaluate(spec, np.array([0.7, 1.0]), data)
    assert L.loglik(NORMAL, ev) == pytest.approx(-0.9189385332046727, abs=1e-12)


def test_loglik_bivariate_identity():
    spec = M.ModelSpec(
        name="biv",
        p=1,
        param_names=("c",),
        mu_fn=lambda t, blk: np.full((blk.m, 2), t[0]),
        sigma_fn=lambda t, blk: np.broadcast_to(np.eye(2), (blk.m, 2, 2)).copy(),
    )
    data = M.Dataset([M.Observation(np.array([1.0, 1.0]), {})])
    ev = M.evaluate(spec, np.array([0.0]), data)
    assert L.loglik(NORMAL, ev) == pytest.approx(-np.log(2 * np.pi) - 1.0, abs=1e-12)


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.label())
def test_loglik_matches_naive_density_sum(fam):
    rng = np.random.default_rng(17)
    model, data = simulate_model1(fam, 12, rng)
    theta = np.array([0.5, 0.2, 0.0, 0.0, 0.005])
    ev = M.evaluate(model, theta, data)
    oracle = T.t_loglik(fam, T.obs_list_model1(theta, data))
    assert L.loglik(fam, ev) == pytest.approx(oracle, abs=1e-10 * (1 + abs(oracle)))


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


def test_score_gaussian_known_variance():
    # mu = theta, Sigma = 4 fixed: U = n (ybar - theta) / 4
    spec = M.ModelSpec(
        name="mean4",
        p=1,
        param_names=("mu",),
        mu_fn=lambda t, blk: np.full((blk.m, 1), t[0]),
        sigma_fn=lambda t, blk: np.full((blk.m, 1, 1), 4.0),
        dmu_fn=lambda t, blk: np.ones((blk.m, 1, 1)),
        dsigma_fn=lambda t, blk: np.zeros((blk.m, 1, 1, 1)),
    )
    y = np.array([1.0, 2.0, 4.0])
    ev = M.evaluate(spec, np.array([1.5]), scalar_dataset(y))
    assert L.score_info(NORMAL, ev, want_info=False).score[0] == pytest.approx(np.sum(y - 1.5) / 4.0, rel=1e-12)


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.label())
@pytest.mark.parametrize("kind", ["model1", "model2"])
def test_score_matches_fd_gradient(fam, kind):
    # a seed that does not depend on PYTHONHASHSEED
    rng = np.random.default_rng(zlib.crc32(f"{kind}-{fam.label()}".encode()))
    if kind == "model1":
        model, data = simulate_model1(fam, 10, rng)
        theta = np.array([0.5, 0.2, 0.0, 0.0, 0.005])
    else:
        model, data = gentle_model2_data(10, rng)
        theta = GENTLE_THETA2

    def ll(t):
        return L.loglik(fam, M.evaluate(model, t, data))

    score = L.score_info(fam, M.evaluate(model, theta, data), want_info=False).score
    # Richardson extrapolation cancels the O(h^2) truncation error of the
    # central differences, which alone exceeds rtol on some draws: the step
    # is scaled by max(1, |theta_r|) and so is large against sigma^2 = 0.005
    h = 1e-5
    fd = (4.0 * _fd_gradient(ll, theta, h / 2) - _fd_gradient(ll, theta, h)) / 3.0
    np.testing.assert_allclose(score, fd, rtol=1e-6, atol=1e-6 * np.max(np.abs(fd)))


def test_score_equals_materialized_block_form():
    """Simplified score == F' H s with the Kronecker block formed, to 1e-10.

    Uses q_i <= 3 units and moderate parameter values so the materialized
    inverse is itself accurate.
    """
    theta = np.array([0.7, 0.5, 0.1, -0.2, 0.3, 2.0, 0.5, 1.0, 1.0])
    rng = np.random.default_rng(5)
    units = [M._m2_unit(q, (i % 4) + 1, M.MODEL2_TIMES[:q] / 10.0) for i, q in enumerate((1, 2, 3, 3, 2, 1))]
    ys = [rng.normal(size=u["q"]) for u in units]
    data = M.model2_dataset(ys, units)
    model = M.mixed_model2()
    for fam in ALL_FAMILIES:
        prod = L.score_info(fam, M.evaluate(model, theta, data), want_info=False).score
        oracle = T.t_score_materialized(fam, T.obs_list_model2(theta, data), 9)
        np.testing.assert_allclose(prod, oracle, rtol=0, atol=1e-10 * max(1.0, np.max(np.abs(oracle))))

    x1, x2 = rng.uniform(0, 1, 6), rng.uniform(0, 1, 6)
    data1 = M.model1_dataset(rng.uniform(0.5, 0.7, 6), x1, x2)
    theta1 = np.array([0.5, 0.2, 0.1, -0.1, 0.01])
    for fam in ALL_FAMILIES:
        prod = L.score_info(fam, M.evaluate(M.nonlinear_model1(), theta1, data1), want_info=False).score
        oracle = T.t_score_materialized(fam, T.obs_list_model1(theta1, data1), 5)
        np.testing.assert_allclose(prod, oracle, rtol=0, atol=1e-10 * max(1.0, np.max(np.abs(oracle))))


# ---------------------------------------------------------------------------
# observed information
# ---------------------------------------------------------------------------


def test_info_gaussian_location_scale_closed_form():
    # n iid N(mu, s2): J at the MLE is diag(n/s2, n/(2 s2^2))
    rng = np.random.default_rng(8)
    y = rng.normal(2.0, 1.5, size=40)
    mhat, s2hat = y.mean(), y.var()
    ev = M.evaluate(make_locscale_model(), np.array([mhat, s2hat]), scalar_dataset(y))
    J = L.score_info(NORMAL, ev).info
    n = y.size
    np.testing.assert_allclose(J, np.diag([n / s2hat, n / (2 * s2hat**2)]), rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.label())
@pytest.mark.parametrize("kind", ["model1", "model2"])
def test_info_matches_fd_hessian(fam, kind):
    # a seed that does not depend on PYTHONHASHSEED
    rng = np.random.default_rng(zlib.crc32(f"{kind}-{fam.label()}".encode()))
    if kind == "model1":
        model, data = simulate_model1(fam, 10, rng)
        theta = np.array([0.5, 0.2, 0.0, 0.0, 0.005])
    else:
        model, data = gentle_model2_data(10, rng)
        theta = GENTLE_THETA2

    def ll(t):
        return L.loglik(fam, M.evaluate(model, t, data))

    J = L.score_info(fam, M.evaluate(model, theta, data)).info
    # Richardson extrapolation cancels the O(h^2) truncation error of the
    # central differences, which alone reaches 1e-3 relative on some draws
    h = 2e-5
    Jfd = -(4.0 * _fd_hessian(ll, theta, h / 2) - _fd_hessian(ll, theta, h)) / 3.0
    np.testing.assert_allclose(J, Jfd, rtol=1e-4, atol=1e-4 * np.max(np.abs(Jfd)))


def test_score_info_warns_on_overflow():
    # only line-search probes silence floating-point errors; an overflow at a
    # point whose score or J is actually used must surface
    ev = M.evaluate(make_locscale_model(), np.array([1e200, 1e-200]), scalar_dataset(np.linspace(-1, 1, 8)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        L.score_info(EllipticalFamily.student_t(3.0), ev)
    assert any(w.category is RuntimeWarning and "overflow" in str(w.message) for w in caught)


def test_info_symmetric_and_matches_transcription():
    rng = np.random.default_rng(77)
    fam = EllipticalFamily.student_t(3.0)
    model, data = simulate_model2(fam, 12, rng)
    theta = np.array([0.7, 0.5, 0.0, 0.0, 0.0, 500.0, 2.0, 200.0, 5.0])
    J = L.score_info(fam, M.evaluate(model, theta, data)).info
    np.testing.assert_array_equal(J, J.T)
    Jt = T.t_obsinfo(fam, T.obs_list_model2(theta, data), 9)
    np.testing.assert_allclose(J, Jt, rtol=1e-9, atol=1e-9 * np.max(np.abs(Jt)))


def test_per_observation_quantities_in_original_order():
    fam = EllipticalFamily.student_t(3.0)
    rng = np.random.default_rng(21)
    model, data = simulate_model2(fam, 9, rng)
    theta = np.array([0.7, 0.5, 0.0, 0.0, 0.0, 500.0, 2.0, 200.0, 5.0])
    ev = M.evaluate(model, theta, data)
    si = L.score_info(fam, ev, want_info=False)
    assert si.per_obs_u.shape == (9,)
    for i, obs in enumerate(data.observations):
        z = obs.y - obs_view(ev, i).mu
        u = float(z @ np.linalg.solve(obs_view(ev, i).sigma, z))
        assert si.per_obs_u[i] == pytest.approx(u, rel=1e-10)
        assert si.per_obs_v[i] == pytest.approx((3.0 + obs.q) / (3.0 + u), rel=1e-12)
    assert np.all(si.per_obs_u >= 0)
