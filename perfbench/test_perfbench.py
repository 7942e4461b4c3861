"""Self-tests of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py

Each workload runs end to end at its tiny size, untraced and traced; the
reference-size passes must match ``reference.json``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)
NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_emitted_with_its_unit(name, trace):
    proc = _run("--workload", name, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, record["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
    assert {"python", "numpy", "have_numba", "blas_threads", "nproc", "git_head",
            "seed"} <= set(record["env"])
    if not trace:
        for m in BENCHMARK["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_seed_fixes_the_inputs(name, tmp_path):
    def keys(seed, sub):
        return workloads.build(name, seed, "tiny", str(tmp_path / sub)).input_keys()

    assert keys(5, "a") == keys(5, "b")
    assert keys(5, "a") != keys(6, "c")


@pytest.mark.parametrize("name", NAMES)
def test_reference_pass_matches_the_recorded_outputs(name, tmp_path):
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)["workloads"][name]
    result = workloads.build(name, workloads.REF_SEED, "reference", str(tmp_path)).run_pass()
    for item in result.items:
        assert item.failure is None, (item.key, item.failure)
        assert workloads.outputs_equal(item.output, reference[item.key], workloads.REF_RTOL)


def test_outputs_equal_tolerance():
    assert workloads.outputs_equal({"a": [1.0, 2]}, {"a": [1.0 + 1e-12, 2]}, 1e-9)
    assert not workloads.outputs_equal({"a": [1.0, 2]}, {"a": [1.0 + 1e-6, 2]}, 1e-9)
    assert not workloads.outputs_equal({"a": 1.0}, {"a": 1.0 + 1e-15})
    assert workloads.outputs_equal({"x": 1.0, "z": 0.0}, {"x": 1.0, "z": 1e-15}, 1e-9)
    assert not workloads.outputs_equal({"r": 1}, {"r": 2}, 1e-9)
    # integers set no scale: a large seed does not loosen the float check
    assert not workloads.outputs_equal({"seed": 3447044831, "c": 0.5},
                                       {"seed": 3447044831, "c": 0.5 + 1e-6}, 1e-9)
    assert workloads.outputs_equal([float("nan")], [float("nan")])


def test_tracer_restores_every_binding(tmp_path):
    from twoweight import certificates, serialize, sweep, testing

    before = (sweep.testing_report, certificates.testing_report, testing.admissible_pairs,
              dict(serialize._COEFFICIENT_FAMILIES), dict(sweep.FAMILY_BUILDERS))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert sweep.testing_report is not before[0]
        assert certificates.testing_report is not before[1]
        assert sweep.FAMILY_BUILDERS["paraproduct"] is not before[4]["paraproduct"]
        workloads.build("example_sweep", 1, "tiny", str(tmp_path)).run_pass(tracer)
    finally:
        tracer.uninstall()
    after = (sweep.testing_report, certificates.testing_report, testing.admissible_pairs,
             dict(serialize._COEFFICIENT_FAMILIES), dict(sweep.FAMILY_BUILDERS))
    assert after == before
    calls = tracer.self_times()
    assert calls["testing.testing_report"][0] == 2 * calls["certificates.full_certificate"][0]
    assert tracer.top_level_seconds() > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
