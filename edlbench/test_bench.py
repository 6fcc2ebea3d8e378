"""Self-test of the benchmark: PYTHONPATH=src python3 -m pytest -q edlbench

Runs every workload once at reduced configs, untraced and traced, and shows
that tampered artifacts are counted as failed operations.
"""
import json
import math
import os
import shutil

import pytest

import checks
import run
import tracing

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_workload_passes_its_checks(workload, trace):
    out = run.run(workload, seed=7, seconds=0.0, trace=trace, quick=True)
    assert out["attempted"] == len(run.WORKLOADS[workload])
    assert out["failed"] == 0 and out["correct"]
    with open(BENCHMARK_JSON) as handle:
        spec = json.load(handle)
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert sorted(out["metrics"]) == sorted(names)
    if not trace:
        assert all(m["value"] > 0 for m in out["metrics"].values())


def test_benchmark_json_lists_every_metric_with_its_unit():
    with open(BENCHMARK_JSON) as handle:
        spec = json.load(handle)
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == {
        (name, unit) for name, unit, _, _ in tracing.PER_LAYER
    }
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == set(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_constant_data_spectrum_by_hand():
    dim, margin = checks.constant_data_spectrum(1.0 + 0j, 1.0 + 0j, 64)
    assert dim == 1
    assert margin == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


@pytest.fixture(scope="module")
def bg_check_pass():
    run_dir = os.path.join(run.OUT, "selftest-tamper")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    configs = run.write_quick_configs(run_dir, ["bg-check"])
    spec = run.pass_spec(run_dir, "pass0", ["bg-check"], 7, configs, trace=False)
    result = run.run_child(spec)
    yield result, spec["out"]
    shutil.rmtree(run_dir, ignore_errors=True)


def _failed_ops(result, out_dir):
    return sum(1 for _, failures in run.pass_failures(result, out_dir) if failures)


def _edit_summary(out_dir, edit):
    path = os.path.join(out_dir, "bg-check", "summary.json")
    with open(path) as handle:
        text = handle.read()
    with open(path, "w") as handle:
        handle.write(edit(text))


def test_untouched_artifacts_pass(bg_check_pass):
    result, out_dir = bg_check_pass
    assert _failed_ops(result, out_dir) == 0


def test_tampered_constant_counts_as_failed(bg_check_pass):
    result, out_dir = bg_check_pass
    path = os.path.join(out_dir, "bg-check", "summary.json")
    original = checks.load_strict_json(path)
    tampered = dict(original, metrics=dict(original["metrics"], fitted_constant=-1.5))
    _edit_summary(out_dir, lambda _: json.dumps(tampered))
    try:
        assert _failed_ops(result, out_dir) == 1
    finally:
        _edit_summary(out_dir, lambda _: json.dumps(original))


def test_bare_nan_counts_as_failed(bg_check_pass):
    result, out_dir = bg_check_pass
    path = os.path.join(out_dir, "bg-check", "summary.json")
    original = checks.load_strict_json(path)
    # a value no closed-form check reads, so only strict parsing can catch it
    distance = json.dumps(original["metrics"]["candidate_distances"]["-1.5"])
    _edit_summary(out_dir, lambda text: text.replace(distance, "NaN", 1))
    try:
        assert _failed_ops(result, out_dir) == 1
    finally:
        _edit_summary(out_dir, lambda _: json.dumps(original))
