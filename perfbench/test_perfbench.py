"""Tests of the benchmark itself: the span arithmetic, the correctness gate,
and a smoke run of every workload at tiny sizes, untraced and traced.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import time

import pytest

import layers
import run
import spans
import speed
import workloads


@pytest.fixture(scope="module")
def lgh():
    return workloads.import_lgh()


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds g [2, 3]
    rows = [
        spans.Span("root", 0.0, 10.0, -1),
        spans.Span("a", 1.0, 4.0, 0),
        spans.Span("g", 2.0, 3.0, 1),
        spans.Span("b", 5.0, 9.0, 0),
    ]
    assert spans.self_times(rows) == [3.0, 2.0, 1.0, 4.0]
    summary = spans.summarize(rows)
    assert summary["root"] == {"total_s": 10.0, "self_s": 3.0}
    assert summary["a"] == {"total_s": 3.0, "self_s": 2.0}
    assert spans.top_level_seconds(rows) == 10.0


def test_recorder_times_the_outermost_call_and_counts_every_call():
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))

    def walk(depth):
        return 1 + (walk_w(depth - 1) if depth else leaf_w())

    walk_w = rec.timed(walk, "walk")
    leaf_w = rec.timed(lambda: 0, "leaf")
    assert walk_w(3) == 4
    assert (rec.calls("walk"), rec.calls("leaf")) == (4, 1)
    assert [(s.name, s.start, s.end, s.parent) for s in rec.spans] == [
        ("walk", 0.0, 3.0, -1),
        ("leaf", 1.0, 2.0, 0),
    ]
    assert spans.summarize(rec.spans)["walk"]["self_s"] == 2.0


def test_install_wraps_every_layer_and_uninstall_restores_lgh(lgh):
    before = (lgh.cli.run_suite, lgh.harness.run_suite, lgh.compact_basis, lgh.jets.Jet2.__mul__)
    rec = spans.Recorder()
    layers.install(lgh, rec, layers.Tally())
    try:
        assert rec.missing == []
        assert lgh.cli.run_suite is lgh.harness.run_suite is not before[0]
        assert lgh.compact_basis is lgh.matrices.compact_basis is not before[2]
    finally:
        rec.uninstall()
    after = (lgh.cli.run_suite, lgh.harness.run_suite, lgh.compact_basis, lgh.jets.Jet2.__mul__)
    assert all(a is b for a, b in zip(after, before))


def _result(name, tau, passed=True, used=10):
    report = {
        "residuals": {"tau": tau},
        "tol": 1e-8,
        "passed": passed,
        "samples_used": used,
        "samples_discarded": 0,
    }
    return workloads.CheckResult(name, report, None, min_samples=10)


def test_gate_flags_digest_drift_failed_reports_and_short_samples():
    gate = run.Gate()
    gate.judge("pass 1", [_result("a", 1e-12), _result("b", 1e-12)])
    assert gate.failed == 0
    gate.judge("pass 2", [_result("a", 1e-12), _result("b", 1e-12 * (1 + 2**-52))])
    assert gate.failed == 1 and "digest" in gate.failures[0]
    gate.judge("pass 3", [_result("a", 1e-12, passed=False), _result("b", 1e-12, used=9)])
    assert gate.failed == 3
    gate.judge("pass 4", [_result("a", 1e-12)])
    assert gate.failed == 4 and "differ" in gate.failures[-1]
    assert gate.attempted == 8


def test_speedometer_runs_its_bursts_outside_the_pass():
    meter = speed.Speedometer()
    marks = []

    def run_pass():
        marks.append(time.perf_counter())
        time.sleep(0.05)
        marks.append(time.perf_counter())
        return 7

    for _ in range(2):
        result, wall, burst = meter.timed(run_pass)
        assert result == 7 and burst > 0
        # the pass time is the pass alone: no burst fits in what is left
        assert 0 <= wall - (marks[-1] - marks[-2]) < burst
    assert len(meter.before) == speed.REFERENCE_REPEATS


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.percentile_with_tail([3.0, 1.0, 2.0]) == (3.0, "max of n=3")
    value, label = run.percentile_with_tail([float(i) for i in range(40)])
    assert (value, label) == (29.0, "p75 of n=40")


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (unit, _) in layers.PER_LAYER.items()
    }


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_workload_passes_the_gate(lgh, tmp_path, name, trace):
    work = workloads.build(lgh, name, seed=5, workdir=tmp_path, tiny=True)
    work.warm_up()
    m = run.measure(lgh, work, seconds=0, trace=trace, out=lambda line: None)
    assert m["gate"].failures == []
    assert m["gate"].attempted >= 2
    if trace:
        metrics = layers.run_metrics(m["layer_rows"], m["traced_walls"], m["walls"])
        assert list(metrics) == list(layers.PER_LAYER)
        assert metrics["jets.seed_calls"] > 0 and metrics["exprs.walk_calls"] > 0
    else:
        assert len(m["walls"]) >= 2 and all(r > 0 for r in m["rates"])
