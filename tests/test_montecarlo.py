"""Simulation harness: configs, reproducibility, rates and discrepancy curves."""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.stats

from conftest import obs_view
from elliplrt import inference, montecarlo
from elliplrt.families import EllipticalFamily
from elliplrt.model import evaluate, mixed_model2
from elliplrt.montecarlo import (
    NULL_THETA,
    ConfigError,
    Sampler,
    SimulationConfig,
    SimulationError,
    design_template,
    pvalue_discrepancy,
    read_pvalues_csv,
    run_simulation,
    simulate_dataset,
    write_pvalues_csv,
    write_summary_csv,
)

BASE = SimulationConfig(
    model="model1", family="normal", n=15, replications=40,
    interest=(2, 3), psi0=(0.0, 0.0), sided="two", seed=99,
)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(SimulationError):
        dataclasses.replace(BASE, replications=0)
    with pytest.raises(SimulationError):
        dataclasses.replace(BASE, alpha_levels=(0.10, 0.05))
    with pytest.raises(SimulationError, match="strictly increasing"):
        dataclasses.replace(BASE, alpha_levels=(0.05, 0.05))
    with pytest.raises(SimulationError):
        dataclasses.replace(BASE, alpha_levels=(0.0, 0.05))
    with pytest.raises(SimulationError):
        dataclasses.replace(BASE, model="model3")
    with pytest.raises(SimulationError):
        # true theta must satisfy the null being simulated
        dataclasses.replace(BASE, true_theta=(0.5, 0.2, 0.3, 0.0, 0.005))
    with pytest.raises(SimulationError, match="out of range"):
        dataclasses.replace(BASE, interest=(7,), psi0=(0.0,))


@pytest.mark.parametrize("field, value", [("n", 3), ("n", 5), ("seed", -1)])
def test_config_rejects_counts_below_their_least_value(field, value):
    with pytest.raises(SimulationError, match=f"{field} must be >= "):
        dataclasses.replace(BASE, **{field: value})


def test_config_errors_are_value_errors_and_name_the_field():
    with pytest.raises(ValueError, match="n must be >= 6, got 3 \\(model1 has p=5 parameters\\)"):
        dataclasses.replace(BASE, n=3)
    with pytest.raises(ValueError, match="replications must be an integer"):
        dataclasses.replace(BASE, replications="many")
    with pytest.raises(ValueError, match="nu"):
        dataclasses.replace(BASE, family="student_t")
    with pytest.raises(ValueError, match="true_theta has 2 values; model1 has p=5"):
        dataclasses.replace(BASE, true_theta=(0.5, 0.2))


@pytest.mark.parametrize("shapes, name", [({"nu": 4.0}, "nu"), ({"lam": 0.7}, "lambda"), ({"nu": 4.0, "lam": 0.7}, "nu")])
def test_config_rejects_a_shape_its_family_does_not_take(shapes, name):
    with pytest.raises(ConfigError, match=f"^the normal family takes no {name}, got "):
        dataclasses.replace(BASE, **shapes)


@pytest.mark.parametrize("family, shapes, name", [("student_t", {"nu": float("inf")}, "nu"),
                                                  ("power_exponential", {"lam": float("nan")}, "lambda"),
                                                  ("student_t", {"nu": True}, "nu")])
def test_config_rejects_a_nonfinite_shape_naming_it(family, shapes, name):
    with pytest.raises(ConfigError, match=f"^{family} requires a finite {name} > 0, got "):
        dataclasses.replace(BASE, family=family, **shapes)


def test_config_rejects_a_nonfinite_true_theta():
    with pytest.raises(ConfigError, match="^true_theta must be finite, got "):
        dataclasses.replace(BASE, true_theta=(float("nan"), 0.2, 0.0, 0.0, 0.005))


@pytest.mark.parametrize("model, true_theta, name", [("model1", (0.5, 0.2, 0.0, 0.0, -0.005), "sigma2"),
                                                     ("model1", (0.5, 0.2, 0.0, 0.0, 0.0), "sigma2"),
                                                     ("model2", (0.7, 0.5, 0, 0, 0, 500.0, 2.0, -1.0, 5.0), "gamma3")])
def test_config_rejects_a_nonpositive_variance_type_true_theta(model, true_theta, name):
    with pytest.raises(ConfigError, match=f"^true_theta for the variance-type parameter {name} must be positive"):
        dataclasses.replace(BASE, model=model, true_theta=true_theta)


@pytest.mark.parametrize("model, n, true_theta, match", [
    # every entry of gamma and sigma2 is positive, but Delta = [[1, 10], [10, 1]] is indefinite
    ("model2", 16, (0.7, 0.0, 0.0, 0.0, 0.0, 1.0, 10.0, 1.0, 0.01),
     "true_theta: scatter matrix of observation 4 is not positive definite"),
    # b0 = -1 puts the model-1 mean on its pole
    ("model1", 15, (-1.0, 0.0, 0.0, 0.0, 0.005), "true_theta: the mean of observation 0 is not finite"),
])
def test_a_true_theta_outside_the_model_fails_before_any_replication(model, n, true_theta, match):
    config = SimulationConfig(model=model, family="normal", n=n, interest=(2,), true_theta=true_theta, replications=2)
    for run in (run_simulation, simulate_dataset):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=f"^{match}$"):
                run(config)


@pytest.mark.parametrize("field, value", [("n", 15.7), ("replications", 15.7), ("seed", 15.7),
                                          ("max_refit_attempts", 15.7), ("n", float("inf")),
                                          ("n", True), ("replications", True), ("seed", True),
                                          ("max_refit_attempts", True)])
def test_config_rejects_a_non_integral_count(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be an integer, got {value!r}$"):
        dataclasses.replace(BASE, **{field: value})


@pytest.mark.parametrize("interest", [(2.9,), (2, 3.5)])
def test_config_rejects_a_non_integral_interest_index(interest):
    with pytest.raises(ConfigError, match="^interest: unknown parameter"):
        dataclasses.replace(BASE, interest=interest, psi0=(0.0,) * len(interest))


@pytest.mark.parametrize("field, value", [("interest", 3), ("interest", "beta2"), ("psi0", 0.0),
                                          ("psi0", ("low", 0.0)), ("true_theta", 0.5), ("alpha_levels", 0.05),
                                          ("interest", [True]), ("psi0", [0.0, True]),
                                          ("true_theta", [0.5, 0.2, 0.0, 0.0, True]), ("alpha_levels", [0.05, True]),
                                          ("alpha_levels", [])])
def test_config_list_field_of_the_wrong_kind_names_the_field(field, value):
    with pytest.raises(ConfigError, match=f"^{field}"):
        dataclasses.replace(BASE, **{field: value})


def test_config_rejects_booleans():
    # JSON true used to read as 1: this config ran with nu = 1, interest (1,), 1 replication and seed 1
    with pytest.raises(ConfigError, match="^replications must be an integer, got True$"):
        SimulationConfig(model="model1", family="student_t", nu=True, n=15, interest=[True], psi0=[0.2],
                         replications=True, seed=True)


def test_config_accepts_integral_floats_as_indices():
    cfg = dataclasses.replace(BASE, interest=(2.0, "3"))
    assert cfg.interest == (2, 3) and all(type(j) is int for j in cfg.interest)


def test_config_coerces_its_integer_fields_and_defaults_psi0_to_zeros():
    cfg = SimulationConfig(model="model1", family="normal", n=15.0, interest=("beta2", 3), seed=7.0)
    assert (cfg.n, cfg.seed, cfg.interest, cfg.psi0) == (15, 7, (2, 3), (0.0, 0.0))
    assert type(cfg.n) is int and type(cfg.seed) is int and cfg.replications == 2000


def test_stat_labels_depend_on_interest_dimension():
    assert BASE.stat_labels() == ("LR", "LR*", "LR**")
    one = dataclasses.replace(BASE, interest=(3,), psi0=(0.0,), sided="lower")
    assert one.stat_labels() == ("r", "r*", "LR", "LR*", "LR**")


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def test_single_replication_degenerate_summary():
    cfg = dataclasses.replace(BASE, replications=1)
    s = run_simulation(cfg)
    assert s.replications_done == 1
    for label in cfg.stat_labels():
        assert s.pvalues[label].shape == (1,)
        rate, se = s.rate(label, 0.05)
        assert rate in (0.0, 1.0)
        assert se == 0.0


def test_reproducible_across_thread_counts():
    s1 = run_simulation(BASE, threads=1)
    s2 = run_simulation(BASE, threads=2)
    for label in BASE.stat_labels():
        np.testing.assert_array_equal(s1.pvalues[label], s2.pvalues[label])
    assert s1.failure_count == s2.failure_count
    assert (s1.redraw_count, s1.adjustment_skips) == (s2.redraw_count, s2.adjustment_skips)


def test_worker_pool_is_capped_at_the_cpu_count(monkeypatch):
    seen = []

    class SerialPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    cfg = dataclasses.replace(BASE, replications=6)
    capped = run_simulation(cfg, threads=1000)
    assert seen == [2]
    serial = run_simulation(cfg)
    for label in BASE.stat_labels():
        np.testing.assert_array_equal(capped.pvalues[label], serial.pvalues[label])
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 1)
    run_simulation(cfg, threads=1000)
    assert seen == [2]  # one CPU: no pool


@pytest.mark.parametrize("threads", [0, -3, 15.7, True])
def test_run_simulation_rejects_a_bad_worker_count_before_any_replication(monkeypatch, threads):
    def no_replication(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(montecarlo, "_run_range", no_replication)
    with pytest.raises(ValueError, match=f"^threads must be an integer >= 1, got {threads!r}$"):
        run_simulation(BASE, threads=threads)


def test_same_seed_same_results():
    s1 = run_simulation(BASE)
    s2 = run_simulation(BASE)
    for label in BASE.stat_labels():
        np.testing.assert_array_equal(s1.pvalues[label], s2.pvalues[label])


def test_failure_accounting_and_loud_error(monkeypatch):
    calls = {"k": 0}
    real = inference.run_test

    def flaky(*args, **kwargs):
        calls["k"] += 1
        raise inference.StageError("unrestricted_fit", "forced failure")

    monkeypatch.setattr("elliplrt.montecarlo.run_test", flaky)
    cfg = dataclasses.replace(BASE, replications=5, max_refit_attempts=3)
    with pytest.raises(SimulationError, match="failed to fit"):
        run_simulation(cfg)
    assert calls["k"] == 5 * 3  # every replication exhausted its redraws
    monkeypatch.setattr("elliplrt.montecarlo.run_test", real)


def test_redraws_and_adjustment_skips_are_counted(monkeypatch):
    calls = {"k": 0}
    real = inference.run_test
    # flags of the kept report of replications 0..3; nonpd_info marks an
    # indefinite J-hat, not a skipped adjustment
    kept = [
        (["near_zero_LR"], []),
        (["nonpd_info"], []),
        (["nonpositive_gamma_ratio", "nonpositive_score_quadratic_form"],
         ["nonpositive score quadratic form; adjustment skipped"]),
        (["boundary_fit"], []),
    ]

    def fails_first(*args, **kwargs):
        calls["k"] += 1
        if calls["k"] % 2:
            raise inference.StageError("unrestricted_fit", "forced failure")
        flags, notes = kept[calls["k"] // 2 - 1]
        return dataclasses.replace(real(*args, **kwargs), flags=flags, notes=notes)

    monkeypatch.setattr("elliplrt.montecarlo.run_test", fails_first)
    s = run_simulation(dataclasses.replace(BASE, replications=4))
    assert calls["k"] == 8
    assert s.failure_count == 0 and s.replications_done == 4
    assert s.redraw_count == 4
    assert s.adjustment_skips == {
        "near_zero_LR": 1, "nonpositive_gamma_ratio": 1, "nonpositive_score_quadratic_form": 1
    }


def test_emit_one_matches_first_replication():
    d0 = simulate_dataset(BASE, rep_index=0)
    d0b = simulate_dataset(BASE, rep_index=0)
    d1 = simulate_dataset(BASE, rep_index=1)
    y0 = np.concatenate([o.y for o in d0.observations])
    y0b = np.concatenate([o.y for o in d0b.observations])
    y1 = np.concatenate([o.y for o in d1.observations])
    np.testing.assert_array_equal(y0, y0b)
    assert np.any(y0 != y1)


def test_a_sampler_draws_the_s_i_in_observation_order():
    # the mixed-q design's blocks group its observations by q; the s_i still come from the stream in turn
    template = design_template("model2", 12, np.random.default_rng(5))
    qs = [o.q for o in template.observations]
    assert qs != sorted(qs)
    model, family = mixed_model2(), EllipticalFamily.student_t(3.0)
    data = Sampler(model, NULL_THETA["model2"], template, family).draw(np.random.default_rng(6))
    ev, rng = evaluate(model, NULL_THETA["model2"], template), np.random.default_rng(6)
    for i, (o, t) in enumerate(zip(data.observations, template.observations)):
        view = obs_view(ev, i)
        np.testing.assert_array_equal(o.y, view.mu + view.P @ family.sample_spherical(t.q, rng))
        assert o.covariates is t.covariates


def test_design_template_names_an_unknown_model():
    with pytest.raises(ValueError, match="unknown model 'model3'"):
        design_template("model3", 10, np.random.default_rng(0))


def test_summary_stderr_recomputable_and_csv_roundtrip(tmp_path):
    s = run_simulation(BASE)
    for row in s.rows():
        assert row["stderr"] == pytest.approx(
            np.sqrt(row["rate"] * (1 - row["rate"]) / row["reps"]), abs=1e-15
        )
    p_sum = tmp_path / "summary.csv"
    p_pv = tmp_path / "pvalues.csv"
    write_summary_csv(p_sum, s)
    write_pvalues_csv(p_pv, s)
    cols = read_pvalues_csv(p_pv)
    for label in BASE.stat_labels():
        np.testing.assert_allclose(cols[label], s.pvalues[label], rtol=0, atol=0)
    header = p_sum.read_text().splitlines()[0]
    assert header == "statistic,alpha,rate,stderr,reps,failures"


# ---------------------------------------------------------------------------
# p-value discrepancy
# ---------------------------------------------------------------------------


def test_discrepancy_uniform_sample_within_band():
    rng = np.random.default_rng(123)
    u = rng.uniform(size=20_000)
    table = pvalue_discrepancy(u)
    for g, disc in table:
        band = 3.0 * np.sqrt(g * (1 - g) / u.size) / g
        assert abs(disc) <= band


def test_discrepancy_constant_sample_step():
    sample = np.full(50, 0.5)
    table = pvalue_discrepancy(sample, grid=[0.4, 0.5, 0.6])
    np.testing.assert_allclose(table[:, 1], [(0 - 0.4) / 0.4, (1 - 0.5) / 0.5, (1 - 0.6) / 0.6])
    # default grid stops at 0.25, all below the atom at 0.5
    table2 = pvalue_discrepancy(sample)
    assert np.all(table2[:, 1] == -1.0)


@pytest.mark.parametrize("level", [0.0, -0.1, 1.5, 2.0, np.nan, np.inf])
def test_discrepancy_level_outside_the_unit_interval_is_named(level):
    with pytest.raises(ValueError, match=f"^discrepancy level {level!r} is not in \\(0, 1\\]$"):
        pvalue_discrepancy(np.linspace(0.01, 1.0, 100), grid=[0.5, 1.0, level, 0.25])


@pytest.mark.parametrize("value", [np.nan, -0.1, 1.5, np.inf])
def test_discrepancy_pvalue_outside_the_unit_interval_is_named(value):
    with pytest.raises(ValueError, match=f"^p-value {value!r} is not in \\[0, 1\\]$"):
        pvalue_discrepancy([0.01, value, 0.5])


def test_read_pvalues_names_the_line_of_a_pvalue_outside_the_unit_interval(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("rank,LR,LR**\n1,0.01,0.02\n2,nan,0.5\n3,0.7,1.5\n")
    with pytest.raises(ValueError, match=f"^{path}, line 3: LR p-value nan is not in \\[0, 1\\]$"):
        read_pvalues_csv(path)
    path.write_text("rank,LR,LR**\n1,0.01,0.02\n2,0.3,0.5\n3,0.7,1.5\n")
    with pytest.raises(ValueError, match=f"^{path}, line 4: LR\\*\\* p-value 1.5 is not in \\[0, 1\\]$"):
        read_pvalues_csv(path)


def test_discrepancy_empty_sample_errors():
    with pytest.raises(ValueError):
        pvalue_discrepancy(np.array([]))


# ---------------------------------------------------------------------------
# distributional invariants at desk scale (shared session runs)
# ---------------------------------------------------------------------------


def test_small_n_liberal_ordering(sim_model1_normal_n15):
    s = sim_model1_normal_n15
    for alpha in (0.01, 0.05, 0.10):
        assert s.rate("LR", alpha)[0] > s.rate("LR*", alpha)[0]
        assert s.rate("LR", alpha)[0] > s.rate("LR**", alpha)[0]


def test_adjusted_statistic_closer_to_reference(sim_model1_normal_n15):
    # KS distance of the statistic's law to chi2_q equals the KS distance
    # of its p-values to uniform, computed on the retained samples
    s = sim_model1_normal_n15
    ks_lr = scipy.stats.kstest(s.pvalues["LR"], "uniform").statistic
    ks_lr2 = scipy.stats.kstest(s.pvalues["LR**"], "uniform").statistic
    assert ks_lr2 < ks_lr


def test_discrepancy_curve_improvement(sim_model1_normal_n15):
    s = sim_model1_normal_n15
    d_lr = np.abs(pvalue_discrepancy(s.pvalues["LR"])[:, 1])
    d_lr2 = np.abs(pvalue_discrepancy(s.pvalues["LR**"])[:, 1])
    assert np.mean(d_lr2 < d_lr) > 0.5  # majority of grid points


def test_large_n_calibration(sim_model1_normal_n100):
    s = sim_model1_normal_n100
    for label in s.config.stat_labels():
        rate, se = s.rate(label, 0.05)
        assert abs(rate - 0.05) < 4.0 * np.sqrt(0.05 * 0.95 / s.replications_done)
