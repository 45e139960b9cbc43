"""Checks of the benchmark's own trace code, run on small cutoffs.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from dataclasses import replace

import pytest

import bench
from phonondd import scenarios


def _configs(names, cutoff):
    catalog = {cfg.name: cfg for cfg in scenarios.scenario_catalog()}
    return [replace(catalog[n], per_mode_cutoff=cutoff, record_samples=8)
            for n in names]


def _originals():
    return {attr: getattr(scenarios, attr) for attr, _ in bench.TRACED_NAMES}


@pytest.fixture(scope="module")
def ideal_trace():
    """A traced pass over the ideal workload's scenarios at cutoff 4."""
    originals = _originals()
    run = scenarios.SchedulePropagator.run
    tracer = bench.Tracer()
    with tracer.patched():
        wrapped = _originals()
        _, outcomes = bench.run_pass(
            _configs(bench.WORKLOADS["ideal"].scenarios, 4), True)
    return originals, run, wrapped, tracer, outcomes


def test_trace_wrappers_are_removed_after_the_traced_pass(ideal_trace):
    originals, run, wrapped, tracer, outcomes = ideal_trace
    assert all(wrapped[attr] is not fn for attr, fn in originals.items())
    assert _originals() == originals
    assert scenarios.SchedulePropagator.run is run
    assert {s["name"] for s in tracer.spans} >= {
        "scenarios.execute_scenario", "propagation.run", "scenarios.emit_report"}


def test_trace_wrappers_are_removed_when_the_pass_raises():
    originals = _originals()
    with pytest.raises(RuntimeError):
        with bench.Tracer().patched():
            raise RuntimeError("pass failed")
    assert _originals() == originals


def test_ideal_workload_makes_no_drive_calls(ideal_trace):
    _, _, _, tracer, outcomes = ideal_trace
    assert [o.failure for o in outcomes] == [None] * 5
    metrics = tracer.layer_metrics(outcomes)
    assert metrics["pulses.drive_calls"][0] == 0
    assert metrics["pulses.drive_s"][0] == 0.0
    assert metrics["sequences.windows"][0] == 0
    assert metrics["sequences.events"][0] == 80


def test_shaped_windows_count_drive_calls():
    tracer = bench.Tracer()
    with tracer.patched():
        _, outcomes = bench.run_pass(_configs(["fig1b"], 6), False)
    assert outcomes[0].failure is None
    metrics = tracer.layer_metrics(outcomes)
    assert metrics["sequences.windows"][0] == 2
    assert metrics["sequences.window_sets"][0] == 1
    assert metrics["pulses.drive_calls"][0] > 0
    assert 0.0 < metrics["propagation.run_self_s"][0] < metrics["propagation.run_s"][0]
    scenario_ids = {s["scenario"] for s in tracer.spans}
    assert "fig1b" in scenario_ids
