"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench/tests
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import dephaser  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_pass_prints_the_declared_metrics(workload, trace):
    proc = _run(workload, trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    report = json.loads((ROOT / ".perfbench-out" /
                         f"result-{workload}-3-trace{trace}.json").read_text(encoding="utf-8"))
    assert set(report["metrics"]) == {m["name"] for m in declared}, "harness and BENCHMARK.json differ"
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    # end-to-end metrics are never 0; per-layer times are measured on every
    # workload, through the census for layers the workload does not reach
    timed = [m for m in declared if not trace or m["unit"] in ("s", "ms", "ns")]
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in timed)


def test_deep_counts_the_known_defect_as_failed_but_not_as_a_gate_violation():
    proc = _run("deep", 0, "--tiny")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["metrics"]["ok_frac"]["value"] < 1.0
    assert "known defect (failed as recorded): closed:T=300.0:D=0.001" in proc.stdout


def test_refuses_to_run_without_the_package_source(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text(encoding="utf-8"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _span(sid, t0, t1, parent, name="x", thread=1):
    return (sid, name, t0, t1, parent, 1, thread, "", 0)


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        _span(1, 0.0, 10.0, 0, "sweep"),
        _span(2, 1.0, 6.0, 1, "rates.closed", thread=2),  # pool threads overlap
        _span(3, 4.0, 9.0, 1, "rates.closed", thread=3),
        _span(4, 2.0, 3.0, 2, "quadrature.integrate", thread=2),
        _span(5, 9.5, 12.0, 1, "rates.closed", thread=2),  # runs past its parent
    ]
    own = tracing.self_times(spans)
    assert own[1] == pytest.approx(10.0 - (8.0 + 0.5))
    assert own[2] == pytest.approx(4.0)
    assert own[3] == pytest.approx(5.0)
    assert own[4] == pytest.approx(1.0)
    m = tracing.layer_metrics(spans, passes=1)
    assert m["sweep.pool_s"] == pytest.approx(1.5)
    assert m["rates.closed.calls"] == 3
    assert m["rates.closed.self_s"] == pytest.approx(4.0 + 5.0 + 2.5)


def test_end_to_end_pools_the_calls_of_every_pass():
    import harness

    tasks = [workloads.Task(f"t{i}", "rate_closed_form", ()) for i in range(3)]
    latencies = [(0.1, 0.2, 0.4), (0.3, 0.2, 0.8), (0.1, 0.6, 0.6)]
    passes = [(sum(row), [harness.Outcome(t, w, "", True, True) for t, w in zip(tasks, row)])
              for row in latencies]
    metrics, counts, _ = harness.end_to_end(passes, 0.3, 50.0)
    assert metrics["wall_s"] == pytest.approx(1.3)  # pass sums 0.7, 1.3, 1.3
    # the nine calls pooled: 100, 100, 200, 200, 300, 400, 600, 600, 800 ms
    assert metrics["call_p50_ms"] == pytest.approx(300.0)
    assert metrics["call_p90_ms"] == pytest.approx(640.0)
    assert metrics["setup_s"] == 0.3 and metrics["peak_rss_mb"] == 50.0
    assert metrics["ok_frac"] == 1.0 and counts["call_p50_ms"] == 9


def test_covered_merges_and_clips():
    assert tracing.covered([], 0.0, 1.0) == 0.0
    assert tracing.covered([(0.5, 2.0), (-1.0, 0.2), (0.1, 0.6)], 0.0, 1.0) == pytest.approx(1.0)
    assert tracing.covered([(0.0, 0.1), (0.3, 0.4)], 0.0, 1.0) == pytest.approx(0.2)


def test_tracer_restores_every_binding_and_leaves_results_bit_identical():
    import dephaser.quadrature as quadrature
    import dephaser.rates as rates
    import dephaser.sweep as sweep

    before = (quadrature.integrate, rates.integrate, sweep.rate_closed_form,
              dephaser.rate_closed_form, dephaser.specfun.BoseMomentTable.eval)
    args = (dephaser.GAAS, dephaser.DotGeometry(4e-9, 1e-8), dephaser.ThermalEnv(100.0))
    plain = dephaser.rate_closed_form(*args)
    tr = tracing.Tracer()
    tr.install()
    try:
        assert rates.integrate is not before[1]
        traced = dephaser.rate_closed_form(*args)
    finally:
        tr.uninstall()
    after = (quadrature.integrate, rates.integrate, sweep.rate_closed_form,
             dephaser.rate_closed_form, dephaser.specfun.BoseMomentTable.eval)
    assert all(a is b for a, b in zip(before, after))
    assert traced.gamma_per_s.hex() == plain.gamma_per_s.hex()
    names = {s[1] for s in tr.spans}
    assert {"rates.closed", "quadrature.integrate", "quadrature.integrand",
            "specfun.sinc_deficit", "specfun.table_eval"} <= names


def test_gate_rejects_a_perturbed_result():
    refs = workloads.load_reference()
    task = next(t for t in workloads.build("deep") if t.func == "rate_closed_form")
    good = {"gamma": refs[task.id]["closed"], "se": None}
    assert workloads.check(task, good, refs[task.id]) == ""
    bad = {"gamma": refs[task.id]["closed"] * (1 + 1e-4), "se": None}
    assert workloads.check(task, bad, refs[task.id]) != ""
    assert workloads.mc_grid_check([1.02, 0.97, 1.1]) == ""
    assert workloads.mc_grid_check([0.5, 0.5, 1.0]) != ""


def test_every_task_has_a_reference():
    refs = workloads.load_reference()
    for name in workloads.WORKLOADS:
        for task in workloads.build(name):
            assert task.id in refs, task.id
