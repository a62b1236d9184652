"""Density generators, weight functions and spherical samplers."""

import numpy as np
import pytest
import scipy.stats
from scipy.integrate import trapezoid
from scipy.special import gammaln

from elliplrt import families
from elliplrt.families import EllipticalFamily, SingularWeightError

NORMAL = EllipticalFamily.normal()
T3 = EllipticalFamily.student_t(3.0)
T4 = EllipticalFamily.student_t(4.0)
PE09 = EllipticalFamily.power_exponential(0.9)
PE1 = EllipticalFamily.power_exponential(1.0)

ALL = [NORMAL, T3, PE09]

U_GRID = np.array([0.1, 0.5, 1.0, 2.0, 10.0])


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_constructor_roundtrip():
    assert EllipticalFamily("normal") == NORMAL
    assert EllipticalFamily("student_t", nu=3) == T3
    assert EllipticalFamily("power_exponential", lam=0.9) == PE09


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "weirdo"},
        {"kind": "student_t"},
        {"kind": "student_t", "nu": -1.0},
        {"kind": "power_exponential"},
        {"kind": "power_exponential", "lam": 0.0},
        {"kind": "normal", "nu": 3.0},
        {"kind": "student_t", "nu": 3.0, "lam": 1.0},
    ],
)
def test_invalid_families_rejected(kwargs):
    with pytest.raises(ValueError):
        EllipticalFamily(**kwargs)


@pytest.mark.parametrize("kind, name", [("student_t", "nu"), ("power_exponential", "lam")])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -1.0, None, "three"])
def test_a_missing_nonfinite_or_nonpositive_shape_is_rejected_naming_it(kind, name, value):
    with pytest.raises(ValueError, match=f"^{kind} requires a finite {name} > 0, got "):
        EllipticalFamily(kind, **{name: value})


def test_the_shape_constructors_check_their_shape():
    with pytest.raises(ValueError, match="nu"):
        EllipticalFamily.student_t(float("nan"))
    with pytest.raises(ValueError, match="lam"):
        EllipticalFamily.power_exponential(float("nan"))


def test_a_shape_the_kind_does_not_take_is_rejected_naming_it():
    with pytest.raises(ValueError, match="^the normal family takes no nu, got 4.0$"):
        EllipticalFamily("normal", nu=4.0)
    with pytest.raises(ValueError, match="^the student_t family takes no lam, got 0.7$"):
        EllipticalFamily("student_t", nu=3.0, lam=0.7)


def test_shapes_are_stored_as_floats():
    assert type(EllipticalFamily("student_t", nu=3).nu) is float
    assert type(EllipticalFamily("power_exponential", lam=np.float32(0.5)).lam) is float


def test_log_g_domain_errors():
    with pytest.raises(ValueError):
        NORMAL.log_g(-0.5, 1)
    with pytest.raises(ValueError):
        NORMAL.log_g(1.0, 0)


# ---------------------------------------------------------------------------
# log_g values
# ---------------------------------------------------------------------------


def test_log_g_normal_at_zero():
    assert NORMAL.log_g(0.0, 1) == pytest.approx(-0.9189385332046727, abs=1e-12)


def test_log_g_pe_lambda_one_is_normal():
    u = np.linspace(0.0, 30.0, 40)
    for q in (1, 2, 5):
        np.testing.assert_allclose(PE1.log_g(u, q), NORMAL.log_g(u, q), rtol=0, atol=1e-12)


def test_log_g_student_t4():
    # frozen from a 40-digit evaluation of the generator formula
    assert T4.log_g(1.0, 1) == pytest.approx(-1.5386881312972506, abs=1e-13)


def test_log_g_finite_on_wide_grid():
    u = np.array([0.0, 1e-8, 1.0, 1e4])
    for fam in ALL:
        for q in (1, 2, 5):
            assert np.all(np.isfinite(fam.log_g(u, q)))


def _log_g_inline(fam, u, q):
    """The generator written out in one expression, constants recomputed per call."""
    if fam.kind == "student_t":
        nu = fam.nu
        return (
            gammaln(0.5 * (nu + q))
            - gammaln(0.5 * nu)
            - 0.5 * q * np.log(np.pi * nu)
            - 0.5 * (nu + q) * np.log1p(u / nu)
        )
    lam = fam.lam
    return (
        np.log(lam)
        + gammaln(0.5 * q)
        - (0.5 * q / lam) * np.log(2.0)
        - 0.5 * q * np.log(np.pi)
        - 0.5 * u**lam
        - gammaln(0.5 * q / lam)
    )


MEMO_FAMILIES = [EllipticalFamily.student_t(nu) for nu in (3, 4)] + [
    EllipticalFamily.power_exponential(lam) for lam in (0.5, 0.7, 2)
]


@pytest.mark.parametrize("fam", MEMO_FAMILIES, ids=lambda f: f.label())
def test_memoised_constants_keep_log_g_bits(fam):
    u = np.concatenate([[0.0, 5e-324, 1e-12], np.geomspace(1e-8, 1e8, 97)])
    families._log_consts.cache_clear()
    for q in range(1, 6):
        for _ in range(2):  # the first call fills the memo, the second reads it
            assert np.array_equal(fam.log_g(u, q), _log_g_inline(fam, u, q))
            assert fam.log_g(2.5, q) == _log_g_inline(fam, 2.5, q)


# ---------------------------------------------------------------------------
# weight functions
# ---------------------------------------------------------------------------


def test_weights_normal():
    v, vdot = NORMAL.weights(3.7, 2)
    assert v == 1.0 and vdot == 0.0


def test_weights_student_t3_at_zero():
    v, vdot = T3.weights(0.0, 1)
    assert v == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert vdot == pytest.approx(-4.0 / 9.0, abs=1e-15)


def test_weights_pe_at_two():
    # frozen against a central finite difference of log_g (step 1e-6)
    v, vdot = PE09.weights(2.0, 1)
    assert v == pytest.approx(0.83972969238312667, rel=1e-13)
    assert vdot == pytest.approx(-0.041986484619156334, rel=1e-13)
    h = 1e-6
    fd = -2.0 * (PE09.log_g(2.0 + h, 1) - PE09.log_g(2.0 - h, 1)) / (2 * h)
    assert v == pytest.approx(fd, rel=1e-9)


def test_weights_pe_singular_at_zero():
    with pytest.raises(SingularWeightError):
        PE09.weights(0.0, 1)
    v, vdot = PE09.weights(0.0, 1, clamp=True)
    assert np.isfinite(v) and np.isfinite(vdot)


@pytest.mark.parametrize("fam", [NORMAL, T3, T4, PE09, PE1], ids=lambda f: f.label())
def test_weights_match_log_g_derivative(fam):
    # v = -2 d log g / du on the u grid, relative error 1e-5
    h = 1e-6
    for q in (1, 3):
        v, _ = fam.weights(U_GRID, q)
        fd = -2.0 * (fam.log_g(U_GRID + h, q) - fam.log_g(U_GRID - h, q)) / (2 * h)
        np.testing.assert_allclose(v, fd, rtol=1e-5)


@pytest.mark.parametrize("fam", [NORMAL, T3, T4, PE09, PE1], ids=lambda f: f.label())
def test_vdot_matches_v_derivative(fam):
    h = 1e-6
    for q in (1, 3):
        _, vdot = fam.weights(U_GRID, q)
        vp, _ = fam.weights(U_GRID + h, q)
        vm, _ = fam.weights(U_GRID - h, q)
        np.testing.assert_allclose(vdot, (vp - vm) / (2 * h), rtol=1e-4, atol=1e-12)


# ---------------------------------------------------------------------------
# density normalization (q = 1)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fam", ALL, ids=lambda f: f.label())
def test_density_integrates_to_one(fam):
    z = np.linspace(-40.0, 40.0, 16001)
    dens = np.exp(fam.log_g(z**2, 1))
    assert trapezoid(dens, z) == pytest.approx(1.0, abs=1e-4)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def test_sampler_normal_moments():
    rng = np.random.default_rng(101)
    d = NORMAL.sample_spherical(1, rng, size=100_000)[:, 0]
    assert abs(d.mean()) < 4.0 / np.sqrt(100_000)
    assert abs(d.var() - 1.0) < 0.05


def test_sampler_student_t3_quantile():
    rng = np.random.default_rng(202)
    d = T3.sample_spherical(1, rng, size=100_000)[:, 0]
    assert np.quantile(d, 0.95) == pytest.approx(2.3534, abs=0.05)


def test_sampler_pe1_radial_chisq():
    rng = np.random.default_rng(303)
    d = PE1.sample_spherical(2, rng, size=10_000)
    stat = scipy.stats.kstest((d**2).sum(axis=1), scipy.stats.chi2(2).cdf).statistic
    assert stat < 1.63 / np.sqrt(10_000)  # 1% critical value


def _radial_cdf(fam, q):
    if fam.kind == "normal":
        return scipy.stats.chi2(q).cdf
    if fam.kind == "student_t":
        return lambda u: scipy.stats.f(q, fam.nu).cdf(np.asarray(u) / q)
    gam = scipy.stats.gamma(a=q / (2.0 * fam.lam), scale=2.0)
    return lambda u: gam.cdf(np.asarray(u) ** fam.lam)


@pytest.mark.parametrize("fam", ALL, ids=lambda f: f.label())
@pytest.mark.parametrize("q", [1, 2, 3])
def test_sampler_radial_consistency(fam, q):
    # ||draw||^2 must follow the density proportional to u^(q/2-1) g(u)
    rng = np.random.default_rng(1000 + q)
    u = (fam.sample_spherical(q, rng, size=10_000) ** 2).sum(axis=1)
    stat = scipy.stats.kstest(u, _radial_cdf(fam, q)).statistic
    assert stat < 1.63 / np.sqrt(10_000)


def test_sampler_shapes_and_determinism():
    rng1 = np.random.default_rng(7)
    rng2 = np.random.default_rng(7)
    a = T3.sample_spherical(4, rng1)
    b = T3.sample_spherical(4, rng2)
    assert a.shape == (4,)
    np.testing.assert_array_equal(a, b)
    with pytest.raises(ValueError):
        T3.sample_spherical(0, rng1)
