"""Tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run.import_program()

from elliplrt import inference  # noqa: E402
from tracing import (  # noqa: E402
    EVALUATE, FIT_HAT, INFO, NAME, OP, Tracer, layer_metrics,
)
from workloads import (  # noqa: E402
    FIELDS, WORKLOADS, Prepared, matches, pvalue_digest, read_reference, report_values,
)

BENCH = Path(run.__file__).resolve().parent
M1 = WORKLOADS["mc_m1_t3_n15"]
TEST = WORKLOADS["test_m2_t4_n200"]


def _bench(*args, cwd=run.ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_workload_inputs_are_determined_by_the_seed():
    a, b, c = Prepared(TEST, 7, False), Prepared(TEST, 7, False), Prepared(TEST, 8, False)
    assert np.array_equal(a.order, b.order)
    assert not np.array_equal(a.order, c.order)
    assert sorted(a.order.tolist()) == list(range(TEST.pool))
    rep = a.rep(0)
    ya = [o.y for o in a.dataset(rep).observations]
    yb = [o.y for o in b.dataset(rep).observations]
    assert all(np.array_equal(u, v) for u, v in zip(ya, yb))
    assert a.rep(TEST.pool) == a.rep(0)  # a run longer than the pool starts it again


def test_mc_op_is_the_simulation_replication():
    prep = Prepared(M1, 0)
    for rep in (0, 1, 2):
        report, draws = prep.op(rep)()
        assert draws >= 1
        expected = prep.setup.run_one(rep)
        assert {label: report.pvalue(label) for label in expected} == expected
        assert matches(report_values(report), prep.reference[rep])


def test_output_check_catches_a_perturbed_statistic():
    ref = read_reference(M1.name)[0]
    assert matches(ref, ref)
    assert not matches(None, ref)  # a failed op misses the reference
    i = FIELDS.index("r_star")
    for rel, ok in ((1e-9, True), (1e-4, False)):
        bent = list(ref)
        bent[i] = ref[i] * (1.0 + rel)
        assert matches(tuple(bent), ref) is ok
    bent = list(ref)
    bent[i] = None
    assert not matches(tuple(bent), ref)
    bent[i] = float("nan")
    assert not matches(tuple(bent), ref)


def test_pvalue_digest_sees_the_last_bit():
    ref = read_reference(M1.name)
    rows = [(rep, ref[rep]) for rep in (5, 3, 9)]
    assert pvalue_digest(rows) == pvalue_digest(reversed(rows))
    bent = list(rows[0][1])
    j = FIELDS.index("p_LR")
    bent[j] = float(np.nextafter(bent[j], 1.0))
    assert pvalue_digest([(5, tuple(bent)), *rows[1:]]) != pvalue_digest(rows)


def test_traced_op_matches_untraced_and_tracer_restores_the_program():
    prep = Prepared(M1, 0)
    original = inference.fit
    tracer = Tracer()
    for rep in (0, 1):
        plain, _ = prep.op(rep)()
        tracer.op = rep
        tracer.install(prep.setup)
        try:
            traced, _ = tracer.span(OP, prep.op(rep))[0]
        finally:
            tracer.uninstall()
        assert report_values(traced) == report_values(plain)
    assert inference.fit is original
    names = {s[NAME] for s in tracer.spans}
    assert {OP, FIT_HAT, EVALUATE, INFO} <= names
    m = layer_metrics(tracer.spans, 2)
    assert m["model.evaluate_calls_per_op"] > 0 and 0 < m["inference.info_useful_share"] <= 1


def test_self_time_subtracts_direct_children():
    #            name  start end parent op error extra
    spans = [[OP, 0.0, 1.0, -1, 0, "", 0],
             [FIT_HAT, 0.1, 0.7, 0, 0, "", 0],
             [EVALUATE, 0.2, 0.3, 1, 0, "", 0],
             [INFO, 0.3, 0.6, 1, 0, "", 0],
             [EVALUATE, 0.8, 0.9, 0, 0, "NonSPDError", 0]]
    m = layer_metrics(spans, 1)
    assert m["model.evaluate_calls_per_op"] == 2
    assert m["model.evaluate_self_ms"] == pytest.approx(200.0)
    assert m["likelihood.info_self_ms"] == pytest.approx(300.0)
    assert m["inference.fit_hat_ms"] == pytest.approx(600.0)
    assert m["model.nonspd_share"] == 0.5
    assert m["inference.evals_per_fit"] == 1.0  # the second evaluate is outside the fit


def test_untraced_run_times_every_op_and_reports_the_median_setup_probe(monkeypatch):
    class Prep:
        def rep(self, k):
            return k

    def scripted_op(prep, rep, tracer=None):
        return None, 1, 1e-3 * (rep + 1), 2e-3

    monkeypatch.setattr(run, "run_once", scripted_op)
    probes = iter([0.5, 0.1, 0.9, 0.7, 0.3])
    m = run.measure(Prep(), 0.0, lambda: next(probes))["metrics"]
    n = run.MIN_OPS  # a run of 0 s still times MIN_OPS ops
    times = 1e-3 * (np.arange(n) + 1)
    assert m["op_ms_p50"] == pytest.approx(1e3 * np.quantile(times, 0.5))
    assert m["op_ms_p90"] == pytest.approx(1e3 * np.quantile(times, 0.9))
    assert m["ops_per_s"] == pytest.approx(n / times.sum())
    assert m["cpu_ms_per_op"] == pytest.approx(2.0)
    assert m["setup_s"] == 0.5  # the median of all SETUP_PROBES probes


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_printed_with_its_unit(trace):
    proc = _bench("--workload", M1.name, "--seed", "3", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert set(result["metrics"]) == set(names)
    for name in names:
        entry = result["metrics"][name]
        assert entry["unit"] == run.UNITS[name] and isinstance(entry["value"], float)
        assert any(line.split()[1:2] == [name] and line.endswith(" " + run.UNITS[name]) for line in lines)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {n: run.UNITS[n] for n in names}


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", M1.name, "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
