"""The support-restricted information kernel against the full-support oracle.

J, the score, U' and the double-tilde J must equal ``kernel_oracle`` bit
for bit: the kernel skips only products that are exact zeros and keeps
every remaining sum in its old order.  Blocks with q = 1 take the scalar
path, the full products as elementwise single-term sums on (m, p) arrays,
so the cases that test the restriction itself use q >= 2; the model1,
locscale, scalar_curved and model2 cases compare that q = 1 arithmetic
with the oracle's general q-loops.
"""

import functools
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import kernel_oracle as O
from conftest import (
    fd_model,
    make_locscale_model,
    scalar_dataset,
    simulate_model1,
    simulate_model2,
)
from elliplrt import _linalg as linalg
from elliplrt import likelihood as L
from elliplrt import model as M
from elliplrt.ancillary import build_ancillary, doubletilde_info, sample_space_gradients
from elliplrt.families import EllipticalFamily

FAMILIES = (
    EllipticalFamily.normal(),
    EllipticalFamily.student_t(4.0),
    EllipticalFamily.power_exponential(0.9),
)


def make_gapped_model(curved_mean: bool):
    """q=2 with Sigma depending on t0 and t2 but not on t1: a gap, which its support range slice(0, 3) spans.

    Sigma = [[t0^2, 0.3 t0 t2], [0.3 t0 t2, t0^2 + t2^2]] has nonzero
    second derivatives on the support.  The mean is (t1, t1 x), or
    (t1, (t1^2 + t0^2 / 2) x) when ``curved_mean``, whose d2mu is nonzero
    on and off the support.
    """

    def sigma(t, blk):
        out = np.empty((blk.m, 2, 2))
        out[:, 0, 0], out[:, 1, 1] = t[0] ** 2, t[0] ** 2 + t[2] ** 2
        out[:, 0, 1] = out[:, 1, 0] = 0.3 * t[0] * t[2]
        return out

    def dsigma(t, blk):
        d = np.zeros((blk.m, 3, 2, 2))
        d[:, 0] = [[2 * t[0], 0.3 * t[2]], [0.3 * t[2], 2 * t[0]]]
        d[:, 2] = [[0.0, 0.3 * t[0]], [0.3 * t[0], 2 * t[2]]]
        return d

    def d2sigma(t, blk):
        d = np.zeros((blk.m, 3, 3, 2, 2))
        d[:, 0, 0] = [[2.0, 0.0], [0.0, 2.0]]
        d[:, 0, 2] = d[:, 2, 0] = [[0.0, 0.3], [0.3, 0.0]]
        d[:, 2, 2] = [[0.0, 0.0], [0.0, 2.0]]
        return d

    x = lambda blk: blk.cov["x"]
    c = 1.0 if curved_mean else 0.0

    def mu(t, blk):
        second = (t[1] + c * (t[1] ** 2 - t[1] + 0.5 * t[0] ** 2)) * x(blk)
        return np.stack([np.full(blk.m, t[1]), second], axis=1)

    def dmu(t, blk):
        d = np.zeros((blk.m, 3, 2))
        d[:, 1, 0] = 1.0
        d[:, 0, 1], d[:, 1, 1] = c * t[0] * x(blk), (1.0 + c * (2 * t[1] - 1.0)) * x(blk)
        return d

    def d2mu(t, blk):
        d = np.zeros((blk.m, 3, 3, 2))
        d[:, 0, 0, 1], d[:, 1, 1, 1] = x(blk), 2 * x(blk)
        return d

    return M.ModelSpec(
        name="gapped",
        p=3,
        param_names=("s0", "mu", "s2"),
        mu_fn=mu,
        sigma_fn=sigma,
        dmu_fn=dmu,
        d2mu_fn=d2mu if curved_mean else None,
        dsigma_fn=dsigma,
        d2sigma_fn=d2sigma,
    )


def make_known_sigma_model(p):
    """q=2 linear mean mu_i = X_i theta (X_i is 2 x p) and a known Sigma: its support is empty."""
    sigma = np.array([[1.0, 0.3], [0.3, 2.0]])
    return M.ModelSpec(
        name="known_sigma",
        p=p,
        param_names=tuple(f"b{i}" for i in range(p)),
        mu_fn=lambda t, blk: np.einsum("mak,k->ma", blk.cov["X"], t),
        sigma_fn=lambda t, blk: np.broadcast_to(sigma, (blk.m, 2, 2)).copy(),
        dmu_fn=lambda t, blk: blk.cov["X"].transpose(0, 2, 1).copy(),
        dsigma_fn=lambda t, blk: np.zeros((blk.m, p, 2, 2)),
    )


def make_scalar_curved_model():
    """q=1 with mu = t0 + t0^2 and Sigma = exp(t1): nonzero analytic d2mu and d2Sigma."""

    def stack(first, second, m):
        return np.stack([np.full(m, first), np.full(m, second)], axis=1)

    return M.ModelSpec(
        name="scalar_curved",
        p=2,
        param_names=("a", "log_s2"),
        mu_fn=lambda t, blk: np.full((blk.m, 1), t[0] + t[0] ** 2),
        sigma_fn=lambda t, blk: np.full((blk.m, 1, 1), np.exp(t[1])),
        dmu_fn=lambda t, blk: stack(1.0 + 2.0 * t[0], 0.0, blk.m)[:, :, None],
        d2mu_fn=lambda t, blk: np.stack([stack(2.0, 0.0, blk.m), stack(0.0, 0.0, blk.m)], axis=2)[..., None],
        dsigma_fn=lambda t, blk: stack(0.0, np.exp(t[1]), blk.m)[:, :, None, None],
        d2sigma_fn=lambda t, blk: np.stack(
            [stack(0.0, 0.0, blk.m), stack(0.0, np.exp(t[1]), blk.m)], axis=2
        )[..., None, None],
    )


def _case(kind, fam, seed):
    """(model, data, theta-hat, theta-tilde) for one oracle case."""
    rng = np.random.default_rng(seed)
    if kind == "model1":
        model, data = simulate_model1(fam, 15, rng)
        th = np.array([0.5, 0.2, 0.1, -0.1, 0.005])
    elif kind == "model2":
        model, data = simulate_model2(fam, 30, rng)
        th = np.array([0.7, 0.5, 0.0, 0.0, 0.0, 500.0, 2.0, 200.0, 5.0])
    elif kind == "locscale":
        model, data = make_locscale_model(), scalar_dataset(rng.normal(size=12))
        th = np.array([0.3, 1.7])
    elif kind == "scalar_curved":
        model, th = make_scalar_curved_model(), np.array([0.4, -1.2])
        y = 0.4 * rng.normal(size=11)
        y[3] = th[0] + th[0] ** 2  # an exact fit at theta-hat: u = 0 hits the power-exponential clamp
        data = scalar_dataset(y)
    elif kind == "known_sigma":
        model = make_known_sigma_model(3)
        X = rng.normal(size=(14, 2, 3))
        data = M.Dataset([M.Observation(rng.normal(size=2), {"X": x}) for x in X])
        th = np.array([0.2, -0.4, 0.9])
    else:
        model = make_gapped_model(curved_mean=kind == "gapped")
        data = M.Dataset([M.Observation(rng.normal(size=2), {"x": rng.uniform()}) for _ in range(13)])
        th = np.array([1.2, 0.4, 0.5])
    jitter = 1.0 + 0.05 * rng.standard_normal(model.p)
    return model, data, th, th * jitter


KINDS = ("model1", "model2", "locscale", "scalar_curved", "known_sigma", "gapped", "gapped_linear_mean")


def _assert_kernel_equals_oracle(fam, ev_hat, ev_tilde, equal_nan=False):
    """J, the score, dP, l', U' and the double-tilde J of the kernel equal the oracle's bit for bit."""
    eq = functools.partial(np.array_equal, equal_nan=equal_nan)
    si = L.score_info(fam, ev_hat)
    U, J = O.score_and_info(fam, ev_hat)
    assert eq(si.loglik, O.loglik(fam, ev_hat)) and eq(L.loglik(fam, ev_tilde), O.loglik(fam, ev_tilde))
    assert eq(si.score, U) and eq(si.info, J)
    assert eq(L.score_info(fam, ev_tilde, want_info=False).score, O.score_and_info(fam, ev_tilde)[0])

    bundle = build_ancillary(SimpleNamespace(converged=True, eval_=ev_hat))
    for bb, dP in zip(bundle.blocks, O.cholesky_derivatives(ev_hat)):
        assert eq(bb.dP, dP)
    dPs = [bb.dP for bb in bundle.blocks]
    for ev in (ev_hat, ev_tilde):
        got = sample_space_gradients(ev, bundle, fam)
        want = O.sample_space_gradients(ev, bundle, fam, dPs)
        assert eq(got[0], want[0]) and eq(got[1], want[1])
    assert eq(doubletilde_info(ev_tilde, bundle, fam), O.doubletilde_info(ev_tilde, bundle, fam))
    # J at theta-tilde after the ancillary stage read the same blocks
    assert eq(L.score_info(fam, ev_tilde).info, O.score_and_info(fam, ev_tilde)[1])


@pytest.mark.parametrize("fd", [False, True], ids=["analytic", "fd"])
@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.label())
@pytest.mark.parametrize("kind", KINDS)
def test_kernel_equals_full_support_oracle(kind, fam, fd):
    for seed in range(3):
        model, data, th_hat, th_tilde = _case(kind, fam, seed)
        if fd:
            model = fd_model(model)
        _assert_kernel_equals_oracle(fam, M.evaluate(model, th_hat, data), M.evaluate(model, th_tilde, data))


def test_sigma_support_shapes():
    fam = FAMILIES[0]
    expect = {
        "model1": slice(4, 5),
        "model2": slice(5, 9),
        "locscale": slice(1, 2),
        "known_sigma": slice(0, 0),
        # {0, 2} has a gap; the range holds the zero dSigma_1
        "gapped": slice(0, 3),
    }
    for kind in KINDS:
        model, data, th, _ = _case(kind, fam, 0)
        for spec in (model, fd_model(model)):
            for be in M.evaluate(spec, th, data).blocks:
                S = L._sigma_support(be)[0]
                assert isinstance(S, slice) and S == expect.get(kind, S)
    model, data, th, _ = _case("gapped", fam, 0)
    (be,) = M.evaluate(fd_model(model), th, data).blocks
    S, C_bk = L._sigma_support(be)
    assert S == slice(0, 3)
    assert C_bk.shape == (13, 2, 6)
    # C[i, r, b, c] sits at [i, b, r q + c]
    assert C_bk[5, 1, 4 + 0] == be.dsigma[5, 2, 1, 0]


def test_q1_blocks_take_the_scalar_path():
    fam = FAMILIES[1]
    model, data, th, _ = _case("model2", fam, 0)
    ev = M.evaluate(model, th, data)
    L.score_info(fam, ev)
    assert {be.data.q for be in ev.blocks} >= {1, 2}
    for be, (terms, z, w, v, vdot) in zip(ev.blocks, ev.stage0.blocks):
        if be.data.q == 1:
            assert terms is L._scalar_terms
            assert z.shape == w.shape == v.shape == (be.data.m,)
        else:
            assert terms is L._block_terms


def test_scalar_exact_fit_hits_the_power_exponential_clamp():
    fam = FAMILIES[2]
    model, data, th, _ = _case("scalar_curved", fam, 0)
    si = L.score_info(fam, M.evaluate(model, th, data))
    assert np.flatnonzero(fam._clamped(si.per_obs_u)).tolist() == [3] and si.per_obs_u[3] == 0.0
    assert np.isfinite(si.info).all()


@pytest.mark.parametrize("q", [1, 2, 3, 5])
def test_triangular_solves_equal_the_oracle_copies(q):
    rng = np.random.default_rng(q)
    special = (np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-300)
    for trial in range(60):
        m, k = int(rng.integers(1, 20)), int(rng.integers(1, 4))
        P = np.tril(rng.normal(size=(m, q, q)) * 10.0 ** rng.integers(-3, 4, size=(m, q, q)))
        B = rng.normal(size=(m, q, k))
        if trial % 3:
            i, a, b = int(rng.integers(m)), int(rng.integers(q)), int(rng.integers(q))
            P[i, max(a, b), min(a, b)] = special[trial % len(special)]
        with np.errstate(all="ignore"):
            for got, want in (
                (linalg.solve_lower(P, B), O.solve_lower(P, B)),
                (linalg.solve_upper_t(P, B), O.solve_upper_t(P, B)),
            ):
                assert np.array_equal(got, want, equal_nan=True)
                assert np.array_equal(np.signbit(got), np.signbit(want))


def test_sigma_inverse_is_computed_once_per_evaluation():
    # evaluate forms Sigma^{-1} with the factor; every consumer reads that read-only array
    fam = FAMILIES[1]
    model, data, th, _ = _case("model2", fam, 1)
    ev = M.evaluate(model, th, data)
    for be in ev.blocks:
        assert not be.sinv.flags.writeable
        assert np.array_equal(be.sinv, O.chol_inverse(be.P))
        assert np.array_equal(be.logdet, O.logdet_from_chol(be.P))
        with pytest.raises(ValueError):
            be.sinv[0, 0, 0] = 1.0


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("kind", ["model1", "model2", "gapped"])
def test_nonfinite_residuals_propagate_as_in_full_support(kind, bad):
    fam = FAMILIES[1]
    model, data, th, _ = _case(kind, fam, 2)
    ev = M.evaluate(fd_model(model) if kind == "gapped" else model, th, data)
    z_blocks = [be.data.y - be.mu for be in ev.blocks]
    z_blocks[-1][0, 0] = bad
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = L.score_info(fam, ev, z_blocks=z_blocks).info
        want = O.score_and_info(fam, ev, z_blocks)[1]
    assert not np.all(np.isfinite(want))
    assert np.array_equal(got, want, equal_nan=True)


def _spoil_first_rows(model, spoil, fn="sigma_fn"):
    """``model`` whose callback ``fn`` gives ``spoil(array)`` in place of its value at each block's first row."""
    real = getattr(model, fn)

    def spoiled(t, blk):
        out = real(t, blk).copy()
        out[0] = spoil(out[0])
        return out

    return replace(model, **{fn: spoiled})


def _spoil_dmu(model, r, bad):
    def spoil(d):
        d[r, -1] = bad
        return d

    return _spoil_first_rows(model, spoil, "dmu_fn")


def _overflowing_factor_inverse(s):
    """The identity with a leading 2 x 2 that factors, while forward substitution overflows to P^{-1}[1, 0] = -inf."""
    if len(s) < 2:
        return s
    out = np.eye(len(s))
    out[:2, :2] = [[1e-320, 1e-9], [1e-9, 2e302]]
    return out


def _inverts(sigma):
    """Whether one Sigma has a finite Cholesky factor and a finite inverse, by the oracle's arithmetic."""
    P = np.linalg.cholesky(sigma[None])
    with np.errstate(all="ignore"):
        return np.isfinite(P).all() and np.isfinite(O.chol_inverse(P)).all()


NONFINITE = {
    "dmu_inf": lambda model, seed: _spoil_dmu(model, seed * model.p // 3, np.inf),
    "dmu_nan": lambda model, seed: _spoil_dmu(model, seed * model.p // 3, np.nan),
    # Sigma ~ 1e-312 factors, and Sigma^{-1} overflows
    "sigma_tiny": lambda model, seed: _spoil_first_rows(model, lambda s: s * 1e-312),
    "pinv_overflow": lambda model, seed: _spoil_first_rows(model, _overflowing_factor_inverse),
}


@pytest.mark.parametrize("variant", NONFINITE)
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.label())
@pytest.mark.parametrize("kind", ["gapped", "gapped_linear_mean", "model2"])
def test_nonfinite_dmu_and_overflowing_inverses_propagate_as_in_full_support(kind, fam, seed, variant):
    """A non-finite dmu propagates as in the oracle; a Sigma whose inverse overflows is not SPD.

    Over the seeds, the spoiled dmu entry r = seed p // 3 lies on the
    support of dSigma and off it.  The Sigma variants spoil each block's
    first row, so evaluation fails at the first block whose first Sigma
    has no finite inverse by the oracle's arithmetic.
    """
    model, data, th_hat, th_tilde = _case(kind, fam, seed)
    model = NONFINITE[variant](model, seed)
    if variant.startswith("dmu"):
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            ev_hat, ev_tilde = M.evaluate(model, th_hat, data), M.evaluate(model, th_tilde, data)
            assert not np.isfinite(O.score_and_info(fam, ev_hat)[1]).all()
            _assert_kernel_equals_oracle(fam, ev_hat, ev_tilde, equal_nan=True)
        return
    for th in (th_hat, th_tilde):
        spoiled = [blk for blk in data.blocks() if not _inverts(model.sigma_fn(th, blk)[0])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(M.NonSPDError) as err:
                M.evaluate(model, th, data)
        assert err.value.index == spoiled[0].idx[0]


def test_nonfinite_dsigma_propagates_as_in_full_support():
    # an inf in dSigma_2 meets the exact zeros of dSigma_1 (off the support) in E[1, 2]
    base = make_gapped_model(curved_mean=True)

    def dsigma(t, blk):
        d = base.dsigma_fn(t, blk)
        d[0, 2] = np.inf
        return d

    model = replace(base, dsigma_fn=dsigma)
    _, data, th, _ = _case("gapped", FAMILIES[1], 4)
    ev = M.evaluate(model, th, data)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = L.score_info(FAMILIES[1], ev).info
        want = O.score_and_info(FAMILIES[1], ev)[1]
    assert np.isnan(want[1, 2])
    assert np.array_equal(got, want, equal_nan=True)


def test_empty_support_gives_the_known_sigma_information():
    # mu_i = theta (1, 1), Sigma = I: J = 2 n for the normal family
    identity = lambda t, blk: np.broadcast_to(np.eye(2), (blk.m, 2, 2)).copy()
    model = replace(make_known_sigma_model(1), sigma_fn=identity)
    rng = np.random.default_rng(3)
    data = M.Dataset([M.Observation(rng.normal(size=2), {"X": np.ones((2, 1))}) for _ in range(9)])
    ev = M.evaluate(model, np.array([0.1]), data)
    S, C_bk = L._sigma_support(ev.blocks[0])
    assert S == slice(0, 0)
    assert C_bk.shape == (9, 2, 0)
    np.testing.assert_array_equal(L.score_info(FAMILIES[0], ev).info, [[18.0]])


@pytest.mark.parametrize("kind", ["model1", "model2"])
def test_theta_independent_dsigma_is_symmetrized_once_per_block(kind):
    model, data, th, th2 = _case(kind, FAMILIES[0], 0)
    ev1, ev2 = M.evaluate(model, th, data), M.evaluate(model, th2, data)
    for b1, b2 in zip(ev1.blocks, ev2.blocks):
        assert b2.dsigma is b1.dsigma and not b1.dsigma.flags.writeable
        assert L._sigma_support(b2)[1] is L._sigma_support(b1)[1]
    # finite-difference derivatives are fresh arrays: rebuilt per evaluation
    f1, f2 = M.evaluate(fd_model(model), th, data), M.evaluate(fd_model(model), th2, data)
    assert f2.blocks[0].dsigma is not f1.blocks[0].dsigma
    assert L._sigma_support(f2.blocks[0])[1] is not L._sigma_support(f1.blocks[0])[1]


@pytest.mark.parametrize("kind", ["model2", "gapped"])
def test_writeable_dsigma_gives_the_same_support_on_every_call(kind):
    # a finite-difference dSigma is writeable, so its support is rebuilt on each call, to equal values
    model, data, th, _ = _case(kind, FAMILIES[0], 0)
    for be in M.evaluate(fd_model(model), th, data).blocks:
        assert be.dsigma.flags.writeable
        (S1, C1), (S2, C2) = L._sigma_support(be), L._sigma_support(be)
        assert S1 == S2 and np.array_equal(C1, C2)
