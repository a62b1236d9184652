"""Shared fixtures: toy models, seeded instances and session-level simulations."""

import os
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from elliplrt import model as M
from elliplrt.families import EllipticalFamily
from elliplrt.montecarlo import NULL_THETA, Sampler, SimulationConfig, design_template, run_simulation

SIM_THREADS = max(1, min(2, os.cpu_count() or 1))


# ---------------------------------------------------------------------------
# Small hand-rolled models used across test modules
# ---------------------------------------------------------------------------


def make_mean_model():
    """One-parameter normal-mean toy: mu_i = theta, Sigma = 1 known."""
    return M.ModelSpec(
        name="mean",
        p=1,
        param_names=("mu",),
        mu_fn=lambda t, blk: np.full((blk.m, 1), t[0]),
        sigma_fn=lambda t, blk: np.ones((blk.m, 1, 1)),
        dmu_fn=lambda t, blk: np.ones((blk.m, 1, 1)),
        dsigma_fn=lambda t, blk: np.zeros((blk.m, 1, 1, 1)),
        start_fn=lambda data: np.array([np.mean([o.y[0] for o in data.observations])]),
    )


def make_locscale_model():
    """Location-scale: mu_i = theta0, Sigma = theta1."""
    return M.ModelSpec(
        name="locscale",
        p=2,
        param_names=("mu", "sigma2"),
        mu_fn=lambda t, blk: np.full((blk.m, 1), t[0]),
        sigma_fn=lambda t, blk: np.full((blk.m, 1, 1), t[1]),
        dmu_fn=lambda t, blk: np.concatenate([np.ones((blk.m, 1, 1)), np.zeros((blk.m, 1, 1))], axis=1),
        dsigma_fn=lambda t, blk: np.concatenate(
            [np.zeros((blk.m, 1, 1, 1)), np.ones((blk.m, 1, 1, 1))], axis=1
        ),
        positive=(1,),
        start_fn=lambda data: np.array(
            [
                np.mean([o.y[0] for o in data.observations]),
                max(float(np.var([o.y[0] for o in data.observations])), 1e-8),
            ]
        ),
    )


def make_linreg_model(pcols):
    """Linear regression with known unit variance: mu_i = x_i' beta, Sigma = 1."""
    return M.ModelSpec(
        name="linreg",
        p=pcols,
        param_names=tuple(f"b{i}" for i in range(pcols)),
        mu_fn=lambda t, blk: np.einsum("mk,k->m", blk.cov["X"], t)[:, None],
        sigma_fn=lambda t, blk: np.ones((blk.m, 1, 1)),
        dmu_fn=lambda t, blk: blk.cov["X"][:, :, None],
        dsigma_fn=lambda t, blk: np.zeros((blk.m, pcols, 1, 1)),
        start_fn=lambda data: np.zeros(pcols),
    )


def fd_model(model):
    """``model`` with every derivative callback unset: its derivatives come from finite differences."""
    return replace(model, dmu_fn=None, d2mu_fn=None, dsigma_fn=None, d2sigma_fn=None)


def obs_view(ev, i):
    """The evaluated model quantities of original observation i."""
    for be in ev.blocks:
        pos = np.nonzero(be.data.idx == i)[0]
        if pos.size:
            j = int(pos[0])
            return SimpleNamespace(
                mu=be.mu[j],
                dmu=be.dmu[j],
                d2mu=None if be.d2mu is None else be.d2mu[j],
                sigma=be.sigma[j],
                dsigma=be.dsigma[j],
                d2sigma=None if be.d2sigma is None else be.d2sigma[j],
                P=be.P[j],
            )
    raise IndexError(f"observation {i} not found")


def ancillary_of(bundle, i):
    """The ancillary vector a_i of original observation i."""
    for bb, be in zip(bundle.blocks, bundle.eval_hat.blocks):
        pos = np.nonzero(be.data.idx == i)[0]
        if pos.size:
            return bb.a[int(pos[0])]
    raise IndexError(f"observation {i} not found")


def scalar_dataset(values):
    return M.Dataset([M.Observation(np.array([v]), {}) for v in np.asarray(values, dtype=float)])


ALL_FAMILIES = (
    EllipticalFamily.normal(),
    EllipticalFamily.student_t(3.0),
    EllipticalFamily.power_exponential(0.9),
)


def simulate_model1(family, n, rng, theta=NULL_THETA["model1"]):
    """One model-1 dataset at theta with the given family's errors.

    Its s_i are one (n, 1) draw, not ``Sampler.draw``'s one per
    observation: the tests' seeded model-1 data (t3 and PE(0.9) among them)
    come from this stream, which differs from Sampler's for those families.
    """
    design = M.model1_design(n, rng)
    model = M.nonlinear_model1()
    blk = M.evaluate(model, theta, M.model1_dataset(np.zeros(n), design["x1"], design["x2"])).blocks[0]
    y = blk.mu[:, 0] + blk.P[:, 0, 0] * family.sample_spherical(1, rng, size=n)[:, 0]
    return model, M.model1_dataset(y, design["x1"], design["x2"])


GENTLE_THETA2 = np.array([0.7, 0.5, 0.1, -0.2, 0.3, 2.0, 0.5, 1.0, 1.0])


def gentle_model2_data(n, rng):
    """Model-2 dataset with O(1) covariate and parameter scales.

    Finite-difference oracles need a well-conditioned likelihood: at the
    reference simulation scales (gamma ~ 500, times up to 60) the loglik
    carries a conditioning-driven noise floor that no finite difference
    can resolve to 1e-6.  Derivative-correctness checks therefore run
    here; production-scale behavior is covered by the dual-implementation and
    table-reproduction tests.
    """
    units = []
    for i in range(n):
        q = int(rng.integers(1, 6))
        units.append(M._m2_unit(q, (i % 4) + 1, M.MODEL2_TIMES[:q] / 10.0))
    model = M.mixed_model2()
    tmpl = M.model2_dataset([np.zeros(u["q"]) for u in units], units)
    return model, Sampler(model, GENTLE_THETA2, tmpl, EllipticalFamily.normal()).draw(rng)


def simulate_model2(family, n, rng, theta=NULL_THETA["model2"]):
    """One model-2 dataset at theta with the given family's errors."""
    model = M.mixed_model2()
    return model, Sampler(model, theta, design_template("model2", n, rng), family).draw(rng)


# ---------------------------------------------------------------------------
# Session-level simulation runs shared by acceptance and invariant tests
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def sim_model1_normal_n15():
    """Model 1, normal, n=15, two-sided (beta2, beta3), 2000 reps."""
    cfg = SimulationConfig(
        model="model1", family="normal", n=15, replications=2000,
        interest=(2, 3), psi0=(0.0, 0.0), sided="two", seed=20260811,
    )
    return run_simulation(cfg, threads=SIM_THREADS)


@pytest.fixture(scope="session")
def sim_model1_t3_onesided_n15():
    """Model 1, Student-t(3), n=15, one-sided beta3, 2000 reps."""
    cfg = SimulationConfig(
        model="model1", family="student_t", nu=3.0, n=15, replications=2000,
        interest=(3,), psi0=(0.0,), sided="lower", seed=31415,
    )
    return run_simulation(cfg, threads=SIM_THREADS)


@pytest.fixture(scope="session")
def sim_model2_normal_n16():
    """Model 2, normal, n=16, q=3 interest block, 1000 reps."""
    cfg = SimulationConfig(
        model="model2", family="normal", n=16, replications=1000,
        interest=(2, 3, 4), psi0=(0.0, 0.0, 0.0), sided="two", seed=271828,
    )
    return run_simulation(cfg, threads=SIM_THREADS)


@pytest.fixture(scope="session")
def sim_model1_normal_n100():
    """Model 1, normal, n=100, scalar two-sided interest, 2000 reps."""
    cfg = SimulationConfig(
        model="model1", family="normal", n=100, replications=2000,
        interest=(3,), psi0=(0.0,), sided="two", seed=808,
    )
    return run_simulation(cfg, threads=SIM_THREADS)
