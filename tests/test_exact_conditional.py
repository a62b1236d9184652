"""r* against Fisher's exact conditional p-value in the location-scale model.

For y_i = mu + sigma e_i with e_i iid of density f, the configuration
a_i = (y_i - mu-hat) / sigma-hat is an exact ancillary.  Given a, the
pivot T = (mu-hat - mu) / sigma-hat has density proportional to

    h(t) = int_0^inf s^(n-1) prod_i f(s (a_i + t)) ds

(Fisher 1934), so the one-sided conditional p-value of mu = mu0 against
mu > mu0 is P(T >= t_obs | a) = int_{t_obs}^inf h / int h.  r* approximates
it to third order; r to first order.  The quadrature is checked against
the closed form of normal errors, where sqrt(n - 1) T given a is t_{n-1}.
"""

import math

import numpy as np
import pytest
import scipy.stats
from scipy.integrate import quad

from conftest import make_locscale_model, scalar_dataset
from elliplrt.families import EllipticalFamily
from elliplrt.inference import Hypothesis, fit, run_test

N = 10
T_OBS = 0.9  # psi0 = mu-hat - T_OBS sigma-hat, so the observed pivot is T_OBS
DRAWS = 8
P_BOUND = 2e-3


def _log_f(family):
    """log density of the standardized error, up to a constant."""
    if family.kind == "normal":
        return lambda x: -0.5 * x * x
    if family.kind == "power_exponential":
        lam = family.lam
        return lambda x: -0.5 * np.abs(x) ** (2.0 * lam)
    nu = family.nu
    return lambda x: -0.5 * (nu + 1.0) * np.log1p(x * x / nu)


def exact_conditional_pvalue(a, t_obs, family):
    """P(T >= t_obs | a) by nested quadrature; the inner integral runs over u = log s."""
    log_f, n = _log_f(family), a.size
    c = float(np.sum(log_f(a)))  # log integrand at s = 1, t = 0

    def h(t):
        x = a + t
        u_peak = -0.5 * math.log(float(np.mean(x * x)))  # where s (a + t) has unit scale

        def inner(u):
            return math.exp(n * u + float(np.sum(log_f(math.exp(u) * x))) - c)

        return quad(inner, u_peak - 8.0, u_peak + 8.0, limit=200)[0]

    upper = quad(h, t_obs, math.inf, limit=200)[0]
    lower = quad(h, -2.0, t_obs, limit=200)[0] + quad(h, -math.inf, -2.0, limit=200)[0]
    return upper / (upper + lower)


def _draw(family, rng, t_obs=T_OBS):
    """A location-scale dataset of size N, its fit, configuration and an upper-sided report at t_obs."""
    model = make_locscale_model()
    y = 0.3 + 1.5 * family.sample_spherical(1, rng, size=N)[:, 0]
    data = scalar_dataset(y)
    hat = fit(model, family, data)
    assert hat.converged
    mu_hat, sigma_hat = hat.theta[0], math.sqrt(hat.theta[1])
    a = (y - mu_hat) / sigma_hat
    rep = run_test(model, family, data, Hypothesis((0,), [mu_hat - t_obs * sigma_hat], "upper"))
    return a, rep


def _check_quadrature_against_the_normal_closed_form(t_obs, **tolerance):
    family = EllipticalFamily.normal()
    rng = np.random.default_rng(1934)
    for _ in range(3):
        a, _ = _draw(family, rng, t_obs)
        want = scipy.stats.t.sf(t_obs * math.sqrt(N - 1), N - 1)
        assert exact_conditional_pvalue(a, t_obs, family) == pytest.approx(want, **tolerance)


def test_quadrature_matches_the_normal_closed_form():
    _check_quadrature_against_the_normal_closed_form(T_OBS, abs=1e-6)


def test_quadrature_matches_the_normal_closed_form_in_the_tail():
    _check_quadrature_against_the_normal_closed_form(3.0, rel=1e-4)


def _check_r_star_against_the_exact_conditional_pvalue(family, seed, t_obs=T_OBS):
    """Check every draw against the exact p-value; return the (draw, p(r*), p_exact) triples."""
    rng = np.random.default_rng(seed)
    checked = []
    for draw in range(DRAWS):
        a, rep = _draw(family, rng, t_obs)
        assert not rep.flags, (draw, rep.flags)
        p_exact = exact_conditional_pvalue(a, t_obs, family)
        err_star, err_r = abs(rep.p_r_star - p_exact), abs(rep.p_r - p_exact)
        assert err_star <= P_BOUND, (draw, rep.p_r_star, p_exact)
        assert err_star < err_r, (draw, rep.p_r_star, rep.p_r, p_exact)
        checked.append((draw, rep.p_r_star, p_exact))
    return checked


@pytest.mark.parametrize("nu, seed", [(3.0, 20151), (4.0, 20152)])
def test_r_star_matches_the_exact_conditional_pvalue(nu, seed):
    _check_r_star_against_the_exact_conditional_pvalue(EllipticalFamily.student_t(nu), seed)


def test_r_star_matches_the_exact_conditional_pvalue_for_power_exponential_errors():
    _check_r_star_against_the_exact_conditional_pvalue(EllipticalFamily.power_exponential(0.9), 20153)


def test_r_star_tracks_the_exact_conditional_pvalue_in_the_tail():
    # at T = 3 the absolute bound P_BOUND says little; r* is held to 10% of the exact p-value
    checked = _check_r_star_against_the_exact_conditional_pvalue(EllipticalFamily.student_t(3.0), 20154, t_obs=3.0)
    for draw, p_star, p_exact in checked:
        assert abs(p_star - p_exact) <= 0.1 * p_exact, (draw, p_star, p_exact)
