"""Model evaluation: built-in models, derivatives, datasets and CSV I/O."""

import re
import warnings

import numpy as np
import pytest

import kernel_oracle as O
from conftest import fd_model, obs_view
from elliplrt import _linalg as linalg
from elliplrt import model as M

THETA1 = np.array([0.5, 0.2, 0.0, 0.0, 0.005])
THETA2 = np.array([0.7, 0.5, 0.0, 0.0, 0.0, 500.0, 2.0, 200.0, 5.0])


def _model1_data(n=8, seed=0):
    rng = np.random.default_rng(seed)
    design = M.model1_design(n, rng)
    y = rng.uniform(0.5, 0.7, n)
    return M.model1_dataset(y, design["x1"], design["x2"])


def _model2_data(n=8, seed=0):
    rng = np.random.default_rng(seed)
    design = M.model2_design(n, rng)
    ys = [rng.normal(size=u["q"]) for u in design]
    return M.model2_dataset(ys, design), design


# ---------------------------------------------------------------------------
# spot values
# ---------------------------------------------------------------------------


def test_model1_mu_at_zero_covariates():
    data = M.model1_dataset([0.6], [0.0], [0.0])
    ev = M.evaluate(M.nonlinear_model1(), THETA1, data)
    assert ev.blocks[0].mu[0, 0] == pytest.approx(1.0 / 1.5, abs=1e-12)
    assert ev.blocks[0].sigma[0, 0, 0] == pytest.approx(0.005)


def test_model1_mu_and_derivatives_at_unit_covariates():
    data = M.model1_dataset([0.6], [1.0], [1.0])
    ev = M.evaluate(M.nonlinear_model1(), THETA1, data)
    mu = ev.blocks[0].mu[0, 0]
    assert mu == pytest.approx(1.0 / 1.7, abs=1e-12)
    # d mu / d beta0 = -mu^2 and d2 mu / d beta0^2 = 2 mu^3
    assert ev.blocks[0].dmu[0, 0, 0] == pytest.approx(-(mu**2), rel=1e-12)
    assert ev.blocks[0].d2mu[0, 0, 0, 0] == pytest.approx(2 * mu**3, rel=1e-12)


def test_model1_dmu_beta3_column():
    rng = np.random.default_rng(3)
    x1, x2 = rng.uniform(0, 1, 5), rng.uniform(0, 1, 5)
    data = M.model1_dataset(np.full(5, 0.6), x1, x2)
    ev = M.evaluate(M.nonlinear_model1(), THETA1, data)
    mu = ev.blocks[0].mu[:, 0]
    np.testing.assert_allclose(ev.blocks[0].dmu[:, 3, 0], -(x2**2) * mu**2, rtol=1e-10)


def test_model2_scalar_sigma_value():
    unit = M._m2_unit(1, 1, np.array([5.0]))
    data = M.model2_dataset([np.array([0.0])], [unit])
    ev = M.evaluate(M.mixed_model2(), THETA2, data)
    # Z = [1 5]: Sigma = g1 + 2*g2*5 + g3*25 + s2 = 500 + 20 + 5000 + 5
    assert ev.blocks[0].sigma[0, 0, 0] == pytest.approx(5525.0, abs=1e-9)
    # dSigma/dgamma2 = 2 z1 z2 = 10
    assert ev.blocks[0].dsigma[0, 6, 0, 0] == pytest.approx(10.0, abs=1e-12)


# ---------------------------------------------------------------------------
# analytic vs finite-difference derivatives
# ---------------------------------------------------------------------------


def _compare_evals(ev_a, ev_fd, rtol1, rtol2):
    for be_a, be_f in zip(ev_a.blocks, ev_fd.blocks):
        scale1 = max(np.max(np.abs(be_f.dmu)), 1e-8)
        np.testing.assert_allclose(be_a.dmu, be_f.dmu, rtol=rtol1, atol=rtol1 * scale1)
        scale2 = max(np.max(np.abs(be_f.dsigma)), 1e-8)
        np.testing.assert_allclose(be_a.dsigma, be_f.dsigma, rtol=rtol1, atol=rtol1 * scale2)
        d2mu_a = np.zeros_like(be_f.d2mu) if be_a.d2mu is None else be_a.d2mu
        scale3 = max(np.max(np.abs(be_f.d2mu)), 1e-4)
        np.testing.assert_allclose(d2mu_a, be_f.d2mu, rtol=rtol2, atol=rtol2 * scale3)
        d2s_a = np.zeros_like(be_f.d2sigma) if be_a.d2sigma is None else be_a.d2sigma
        scale4 = max(np.max(np.abs(be_f.d2sigma)), 1e-4)
        np.testing.assert_allclose(d2s_a, be_f.d2sigma, rtol=rtol2, atol=rtol2 * scale4)


def test_model1_fd_agreement():
    data = _model1_data()
    model = M.nonlinear_model1()
    _compare_evals(M.evaluate(model, THETA1, data), M.evaluate(fd_model(model), THETA1, data), 1e-5, 1e-3)


def test_model2_fd_agreement():
    data, _ = _model2_data()
    model = M.mixed_model2()
    _compare_evals(M.evaluate(model, THETA2, data), M.evaluate(fd_model(model), THETA2, data), 1e-5, 1e-3)


def test_fd_constant_model_all_zero():
    spec = M.ModelSpec(
        name="const",
        p=2,
        param_names=("a", "b"),
        mu_fn=lambda t, blk: np.full((blk.m, 1), 3.0),
        sigma_fn=lambda t, blk: np.ones((blk.m, 1, 1)),
    )
    data = M.Dataset([M.Observation(np.array([1.0]), {})])
    ev = M.evaluate(spec, np.array([0.3, -1.2]), data)
    assert np.all(ev.blocks[0].dmu == 0.0)
    assert np.all(ev.blocks[0].d2mu == 0.0)
    assert np.all(ev.blocks[0].d2sigma == 0.0)


def test_fd_linear_sigma_second_derivative_zero():
    data = _model1_data()
    ev = M.evaluate(fd_model(M.nonlinear_model1()), THETA1, data)
    np.testing.assert_allclose(ev.blocks[0].d2sigma, 0.0, atol=1e-7)


# ---------------------------------------------------------------------------
# SPD failures and validation
# ---------------------------------------------------------------------------


def test_non_spd_raises_with_index():
    data, design = _model2_data(n=8, seed=1)
    bad = THETA2.copy()
    bad[5], bad[6], bad[7], bad[8] = 1.0, 50.0, 1.0, 0.01  # indefinite Delta
    with pytest.raises(M.NonSPDError) as err:
        M.evaluate(M.mixed_model2(), bad, data)
    i = err.value.index
    assert 0 <= i < data.n
    assert data.observations[i].q >= 2  # scalar units stay positive here


def _first_failure_one_by_one(sigma, idx):
    """Index of the first observation whose Sigma LAPACK rejects, or whose factor or its inverse is not finite, or None."""
    for j in range(sigma.shape[0]):
        try:
            P = np.linalg.cholesky(sigma[j : j + 1])
        except np.linalg.LinAlgError:
            return int(idx[j])
        with np.errstate(all="ignore"):
            Sinv = O.chol_inverse(P)
        if not (np.isfinite(P).all() and np.isfinite(Sinv).all()):
            return int(idx[j])
    return None


def _stack_block(sigma, idx):
    """A one-parameter model whose every evaluation gives the stack sigma, and a block of its size."""
    m, q = sigma.shape[:2]
    model = M.ModelSpec("stack", 1, ("t",), mu_fn=lambda t, blk: np.zeros((m, q)), sigma_fn=lambda t, blk: sigma)
    return model, M.DataBlock(q=q, idx=idx, y=np.zeros((m, q)), cov={})


def _check_chol_blocks(sigma, idx):
    want_fail = _first_failure_one_by_one(sigma, idx)
    model, blk = _stack_block(sigma, idx)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if want_fail is not None:
            with pytest.raises(M.NonSPDError) as err:
                M.BlockEval(model, np.zeros(1), blk)
            assert err.value.index == want_fail
        else:
            be = M.BlockEval(model, np.zeros(1), blk)
            P, Sinv, logdet = be.P, be.sinv, be.logdet
            assert np.array_equal(P, np.linalg.cholesky(sigma))
            assert np.array_equal(Sinv, O.chol_inverse(P)) and not Sinv.flags.writeable
            assert np.array_equal(logdet, O.logdet_from_chol(P))


# 1e-320 and 1e-310 factor, and their inverses overflow
SCALAR_SIGMAS = (np.nan, np.inf, -np.inf, 0.0, -0.0, -1e-300, 1e-320, 1e-310, 4.0)


def test_scalar_blocks_factor_and_fail_as_lapack_does():
    rng = np.random.default_rng(5)
    for v in SCALAR_SIGMAS:
        _check_chol_blocks(np.array([[[v]]]), np.array([3]))
    for _ in range(200):
        m = int(rng.integers(1, 12))
        values = rng.choice(SCALAR_SIGMAS + (1.0, 2.5, 1e-10, 7e5), size=m)
        _check_chol_blocks(values.reshape(m, 1, 1), np.arange(m) * 2 + 1)


def test_scanned_failure_report_names_the_first_failing_observation():
    rng = np.random.default_rng(9)
    for q in (2, 3, 5):
        for m in (1, 2, 7, 16, 33):
            A = rng.standard_normal((m, q, q))
            sigma = A @ A.transpose(0, 2, 1) + 0.1 * np.eye(q)
            idx = np.arange(m) * 3 + 4
            _check_chol_blocks(sigma, idx)
            for _ in range(6):
                bad = sigma.copy()
                hits = rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)
                bad[hits, q - 1, q - 1] = -rng.choice([1.0, 1e-12, np.inf])
                if rng.random() < 0.5:  # a Sigma that factors while P^{-1} and Sigma^{-1} overflow
                    j = rng.integers(m)
                    bad[j] = np.eye(q)
                    bad[j, :2, :2] = [[1e-320, 1e-9], [1e-9, 2e302]]
                _check_chol_blocks(bad, idx)


@pytest.mark.parametrize("q", [2, 3])
def test_a_rejected_stack_is_scanned_from_the_front(q, monkeypatch):
    # the full stack, rows 0..j one at a time, then rows :j together
    calls = 0
    real = linalg.cholesky_or_none

    def counting(S):
        nonlocal calls
        calls += 1
        return real(S)

    monkeypatch.setattr(linalg, "cholesky_or_none", counting)
    m = 12
    sigma = np.broadcast_to(2.0 * np.eye(q), (m, q, q)).copy()
    idx = np.arange(m) + 5
    for j in (0, 1, 4, m - 1):  # every Sigma from row j on fails; at j = 0, all of them
        bad = sigma.copy()
        bad[j:, 0, 0] = -1.0
        model, blk = _stack_block(bad, idx)
        calls = 0
        with pytest.raises(M.NonSPDError) as err:
            M.BlockEval(model, np.zeros(1), blk)
        assert err.value.index == idx[j]
        assert calls == (2 if j == 0 else j + 3), j


def test_cholesky_fails_on_a_nonfinite_factor():
    # LAPACK factors both into a non-finite factor
    assert linalg.cholesky_or_none(np.array([[np.nan, 0.0], [0.0, 1.0]])) is None
    assert linalg.cholesky_or_none(np.array([[np.inf]])) is None


@pytest.mark.parametrize("sigma2", [np.inf, np.nan])
def test_a_nonfinite_scalar_sigma_is_not_spd(sigma2):
    data = _model1_data()
    with pytest.raises(M.NonSPDError, match="^scatter matrix of observation 0 is not positive definite$"):
        M.evaluate(M.nonlinear_model1(), np.array([0.5, 0.2, 0.0, 0.0, sigma2]), data)


def test_a_scalar_sigma_whose_inverse_overflows_is_not_spd():
    # sigma = 1e-310 factors into a finite P, and 1 / P / P overflows
    data = _model1_data()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(M.NonSPDError, match="^scatter matrix of observation 0 is not positive definite$"):
            M.evaluate(M.nonlinear_model1(), np.array([0.5, 0.2, 0.0, 0.0, 1e-310]), data)


@pytest.mark.parametrize("value", [True, False, np.True_])
def test_a_boolean_is_not_an_index(value):
    # bool is an int subclass: True used to read as index 1
    with pytest.raises(ValueError, match="is not an integer"):
        M._integral(value)
    with pytest.raises(ValueError, match=f"^unknown parameter {value!r}; "):
        M.nonlinear_model1().indices([value])


def test_theta_length_validated():
    data = _model1_data()
    with pytest.raises(ValueError):
        M.evaluate(M.nonlinear_model1(), np.zeros(4), data)


def test_observation_q_and_validation():
    with pytest.raises(ValueError):
        M.Observation(np.zeros((2, 2)))
    obs = M.Observation([1.0, 2.0])
    assert obs.q == 2
    with pytest.raises(ValueError):
        M.Dataset([])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_a_nonfinite_response_naming_the_first_observation(bad):
    data, design = _model2_data(n=8, seed=0)
    ys = [obs.y.copy() for obs in data.observations]
    ys[5][-1] = ys[2][0] = bad
    with pytest.raises(ValueError, match="^observation 2 has a non-finite response$"):
        M.model2_dataset(ys, design)


def test_dataset_rejects_a_nonfinite_covariate_naming_it():
    design = M.model1_design(8, np.random.default_rng(0))
    x2 = design["x2"].copy()
    x2[3] = np.nan
    with pytest.raises(ValueError, match="^observation 3 has a non-finite covariate 'x2'$"):
        M.model1_dataset(np.full(8, 0.6), design["x1"], x2)


@pytest.mark.parametrize("first, second, i", [
    ({"x1": 1.0, "x2": 0.5}, {"x2": 0.1}, 1),
    ({"x2": 0.1}, {"x1": 1.0, "x2": 0.5}, 1),
    ({"x1": 1.0}, {"x2": 0.5}, 1),
])
def test_dataset_rejects_covariate_names_that_differ_naming_them(first, second, i):
    want = f"observation {i} has covariates {sorted(second)}, not {sorted(first)}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        M.Dataset([M.Observation([1.0], first), M.Observation([2.0], second), M.Observation([3.0], first)])


# ---------------------------------------------------------------------------
# designs and datasets
# ---------------------------------------------------------------------------


def test_model2_design_rules():
    rng = np.random.default_rng(11)
    design = M.model2_design(12, rng)
    assert [u["group"] for u in design] == [(i % 4) + 1 for i in range(12)]
    for u in design:
        assert 1 <= u["q"] <= 5
        np.testing.assert_array_equal(u["time"], M.MODEL2_TIMES[: u["q"]])
        assert u["X"].shape == (u["q"], 5)
        assert u["Z"].shape == (u["q"], 2)
        # dummy columns encode the group: group g >= 2 lights column g
        if u["group"] == 1:
            assert np.all(u["X"][:, 2:] == 0.0)
        else:
            g = u["group"]
            assert np.all(u["X"][:, g] == 1.0)
            others = [c for c in (2, 3, 4) if c != g]
            assert np.all(u["X"][:, others] == 0.0)


def test_blocks_group_by_dimension():
    data, design = _model2_data(n=10, seed=3)
    blocks = data.blocks()
    qs = [b.q for b in blocks]
    assert qs == sorted(set(u["q"] for u in design))
    assert sum(b.m for b in blocks) == 10
    # per-observation accessor maps back to the right unit
    ev = M.evaluate(M.mixed_model2(), THETA2, data)
    for i, u in enumerate(design):
        assert obs_view(ev, i).mu.shape == (u["q"],)


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------


def test_model1_csv_roundtrip(tmp_path):
    data = _model1_data(n=6, seed=5)
    path = tmp_path / "m1.csv"
    M.write_dataset_csv(path, data, "model1")
    back = M.read_dataset_csv(path, "model1")
    assert back.n == data.n
    for a, b in zip(data.observations, back.observations):
        np.testing.assert_array_equal(a.y, b.y)
        assert a.covariates["x1"] == b.covariates["x1"]


def test_model2_csv_roundtrip(tmp_path):
    data, _ = _model2_data(n=7, seed=6)
    path = tmp_path / "m2.csv"
    M.write_dataset_csv(path, data, "model2")
    back = M.read_dataset_csv(path, "model2")
    assert back.n == data.n
    for a, b in zip(data.observations, back.observations):
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.covariates["X"], b.covariates["X"])
        np.testing.assert_array_equal(a.covariates["Z"], b.covariates["Z"])


def test_csv_missing_column_is_named(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("unit_id,row_index,y,x1\n1,1,0.5,0.2\n")
    with pytest.raises(ValueError, match="x2"):
        M.read_dataset_csv(path, "model1")


def test_csv_rejects_bad_numbers_and_groups(tmp_path):
    path = tmp_path / "bad2.csv"
    path.write_text("unit_id,row_index,y,x1,x2\n1,1,abc,0.2,0.3\n")
    with pytest.raises(ValueError, match="row 2"):
        M.read_dataset_csv(path, "model1")
    path.write_text("unit_id,row_index,y,time,group\n1,1,0.5,5,9\n")
    with pytest.raises(ValueError, match="group"):
        M.read_dataset_csv(path, "model2")


def _m2_start_per_unit(data):
    """The model-2 start heuristic with one np.polyfit call per unit."""
    X = np.vstack([o.covariates["X"] for o in data.observations])
    beta, *_ = np.linalg.lstsq(X, np.concatenate([o.y for o in data.observations]), rcond=None)
    means, slopes, ssq, nrow = [], [], 0.0, 0
    for obs in data.observations:
        e = obs.y - obs.covariates["X"] @ beta
        means.append(e.mean())
        t = obs.covariates["Z"][:, 1]
        if obs.q >= 2 and np.ptp(t) > 0:
            slopes.append(np.polyfit(t, e, 1)[0])
        ssq += float(e @ e)
        nrow += obs.q
    g1 = max(float(np.var(means)), 1.0)
    g3 = max(float(np.var(slopes)) if len(slopes) >= 2 else 1e-2, 1e-3)
    return np.concatenate([beta, [g1, 0.0, g3, max(ssq / nrow * 0.5, 1e-3)]])


@pytest.mark.parametrize("groups, line, match", [
    ((2.5, 2.5), 2, "group 2.5 is not an integer"),
    ((2, 2.5), 3, "group 2.5 is not an integer"),
    ((2, 3), 3, "group must be constant within a unit"),
    ((2, "nan"), 3, "group nan is not an integer"),
])
def test_csv_group_is_read_as_an_integer_row_by_row(tmp_path, groups, line, match):
    path = tmp_path / "groups.csv"
    path.write_text(f"unit_id,row_index,y,time,group\n7,1,0.5,5,{groups[0]}\n7,2,0.7,10,{groups[1]}\n")
    with pytest.raises(ValueError, match=f"row {line}: unit 7: {match}"):
        M.read_dataset_csv(path, "model2")


@pytest.mark.parametrize("rows, match", [
    # the reproduction: unit 1.5 with row_index 1 twice, unit 2 with row_index 2.5
    (["1.5,1,0.5,5,2", "1.5,1,0.7,10,2", "2,2.5,0.3,5,3"], "row 2: unit 1.5: unit_id 1.5 is not an integer"),
    (["1,1,0.5,5,2", "2,2.5,0.3,5,3"], "row 3: unit 2: row_index 2.5 is not an integer"),
    (["1,1,0.5,5,2", "1,nan,0.7,10,2"], "row 3: unit 1: row_index nan is not an integer"),
    (["1,1,0.5,5,2", "1,2,0.7,10,2", "1,1,0.9,15,2"], "row 4: unit 1: row_index 1 is repeated"),
    (["3,2,0.5,5,2", "3,1,0.7,10,2", "3,2.0,0.9,15,2"], "row 4: unit 3: row_index 2 is repeated"),
])
def test_csv_unit_id_and_row_index_are_integers_and_row_index_is_unique(tmp_path, rows, match):
    path = tmp_path / "keys.csv"
    path.write_text("unit_id,row_index,y,time,group\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {match}$"):
        M.read_dataset_csv(path, "model2")


@pytest.mark.parametrize("model, rows, match", [
    # the reproductions: a model-2 group of 9, a model-1 unit with two rows
    ("model2", ["1,1,0.5,5,9"], "row 2: unit 1: group must be in 1..4, got 9"),
    ("model2", ["4,2,0.5,5,0", "4,1,0.7,10,0"], "row 3: unit 4: group must be in 1..4, got 0"),
    ("model1", ["1,1,0.5,0.2,0.3", "1,2,0.6,0.4,0.1"], "row 3: unit 1: model1 units must have one row; this one has 2"),
    ("model1", ["2,1,0.5,0.2,0.3", "1,3,0.6,0.4,0.1", "1,2,0.7,0.4,0.1"],
     "row 4: unit 1: model1 units must have one row; this one has 2"),
])
def test_csv_unit_shape_errors_name_the_path_line_and_unit(tmp_path, model, rows, match):
    path = tmp_path / "units.csv"
    header = "unit_id,row_index,y,x1,x2" if model == "model1" else "unit_id,row_index,y,time,group"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(match)}$"):
        M.read_dataset_csv(path, model)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("model, column", [("model1", "y"), ("model1", "x2"), ("model2", "y"), ("model2", "time")])
def test_csv_nonfinite_value_names_the_path_line_and_unit(tmp_path, model, column, bad):
    # the reproduction: unit 7 (line 8) with y = nan was reported as "observation 6"
    header = ("unit_id,row_index,y,x1,x2" if model == "model1" else "unit_id,row_index,y,time,group").split(",")
    rows = [dict(zip(header, (u, 1, 0.5, 0.2 * u, 0.3) if model == "model1" else (u, 1, 0.5, 5, 2)))
            for u in range(1, 10)]
    rows[6][column] = bad
    path = tmp_path / "nonfinite.csv"
    path.write_text("\n".join([",".join(header)] + [",".join(str(r[c]) for c in header) for r in rows]) + "\n")
    match = f"{path}: row 8: unit 7: {column} must be finite, got {float(bad)}"
    with pytest.raises(ValueError, match=f"^{re.escape(match)}$"):
        M.read_dataset_csv(path, model)


def test_csv_integral_keys_written_as_floats_still_read(tmp_path):
    path = tmp_path / "keys.csv"
    path.write_text("unit_id,row_index,y,x1,x2\n1.0,1,0.5,0.2,0.3\n2,1.0,0.6,0.4,0.1\n")
    data = M.read_dataset_csv(path, "model1")
    assert data.n == 2 and [o.y[0] for o in data.observations] == [0.5, 0.6]


def test_model2_start_batches_slope_fits_by_time_vector(tmp_path):
    # units share some time vectors and not others; a constant-time unit has no slope
    times = [(5, 10, 15), (2, 4, 9), (5, 10, 15), (5, 10), (1,), (7, 7), (2, 4, 9), (5, 10, 15, 30, 60),
             (3, 10), (5, 10), (2, 4, 9), (5, 10, 15), (0, 1, 2, 3)]
    rng = np.random.default_rng(8)
    rows = ["unit_id,row_index,y,time,group"]
    for uid, ts in enumerate(times, start=1):
        for j, t in enumerate(ts, start=1):
            rows.append(f"{uid},{j},{rng.normal(5.0, 2.0)!r},{t},{uid % 4 + 1}")
    path = tmp_path / "ragged.csv"
    path.write_text("\n".join(rows) + "\n")
    data = M.read_dataset_csv(path, "model2")
    np.testing.assert_array_equal(M.mixed_model2().start(data), _m2_start_per_unit(data))
    data2, _ = _model2_data(n=40, seed=9)
    np.testing.assert_array_equal(M.mixed_model2().start(data2), _m2_start_per_unit(data2))
