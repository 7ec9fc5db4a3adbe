"""Self-tests of the benchmark: generator, output check and traced run.

    python3 -m pytest bench/tests -q

They run every workload, a few repetitions each, and take about 70 s on
two cores.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 3

# Per-layer metrics that must be non-zero on a workload ...
NONZERO = {
    "z_counting": [
        "density.count_s", "density.count_calls", "density.count_elems",
        "density.paircorr_s", "density.paircorr_shifts", "cylinders.count_s",
        "cylinders.count_calls", "cylinders.count_elems", "cylinders.enumerate_s",
        "cylinders.cylinders", "spectrum.self_s", "spectrum.tuples",
        "cache.put_s", "cache.misses"],
    "orbit_generators": [
        "sets.bits_s", "sets.bits_calls", "sets.window_builds", "sets.window_elems_built",
        "sets.window_reuse", "oracles.orbit_s", "oracles.orbit_elems",
        "oracles.exact_measure_s", "oracles.exact_measure_calls", "oracles.sigma_s"],
    "moments_heisenberg": [
        "groups.coords_s", "groups.coords_elems", "groups.translate_s", "groups.defect_s",
        "groups.word_ball_s", "sets.member_coords_s", "moments.moment_s",
        "moments.exact_calls", "moments.float_calls", "moments.eval_s",
        "moments.eval_elems", "moments.normalization_s", "cylinders.count_calls"],
    "warm_rerun": ["cache.digest_s", "cache.get_s", "cache.hits"],
}
for _names in NONZERO.values():
    _names += ["config.load_s", "runner.self_s", "runner.tasks", "cli.self_s"]

_ORACLES = [n for n in tracer.PER_LAYER if n.startswith("oracles.")]
_MOMENTS = [n for n in tracer.PER_LAYER if n.startswith("moments.")]
# ... and those that must be exactly zero on it.
ZERO = {
    "z_counting": _ORACLES + _MOMENTS + ["cache.hits", "groups.coords_elems"],
    "orbit_generators": _MOMENTS + ["cache.hits", "groups.coords_elems",
                                    "cylinders.count_calls"],
    "moments_heisenberg": _ORACLES + ["cache.hits", "spectrum.tuples"],
    "warm_rerun": _ORACLES + _MOMENTS + [
        "sets.window_builds", "sets.window_elems_built", "density.count_calls",
        "cylinders.count_calls", "cache.misses", "cache.put_s", "config.build_s"],
}

# Layer self time that must be largest on a workload that exercises it.
# ``cli`` writes large reports on both warm_rerun and z_counting, whose self
# times are within the host's run-to-run swing of each other.
LARGEST_ON = {
    ("density.count_s", "cylinders.count_s", "spectrum.self_s"): {"z_counting"},
    ("sets.bits_s", "oracles.orbit_s"): {"orbit_generators"},
    ("groups.coords_s", "groups.translate_s", "sets.member_coords_s", "moments.eval_s",
     "moments.normalization_s"): {"moments_heisenberg"},
    ("config.load_s", "cache.digest_s", "cache.get_s"): {"warm_rerun"},
    ("cli.self_s",): {"warm_rerun", "z_counting"},
}


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced runs per workload, the second round after all the first;
    the checker inside ``measure`` compares each traced report with the
    untraced repetition before it."""
    results = {workload: [] for workload in workloads.WORKLOADS}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(run, "MIN_REPS", 1)
        for attempt in range(2):
            for workload, pair in results.items():
                work = os.path.join(run.ROOT, ".bench_work", f"test-{workload}-{attempt}")
                os.makedirs(work, exist_ok=True)
                try:
                    pair.append(run.measure(workload, SEED, 0, True, work))
                finally:
                    shutil.rmtree(work, ignore_errors=True)
    return results


def test_generator_is_deterministic_per_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.generate(workload, SEED) == workloads.generate(workload, SEED)
        assert workloads.generate(workload, SEED) != workloads.generate(workload, SEED + 1)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in bench["per_layer"]] == list(tracer.PER_LAYER)
    assert set(run.END_TO_END) == set(run.SUMMARY)
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert (metric["unit"] == "s") == metric["name"].endswith("_s"), metric


def test_traced_results_equal_untraced(traced_runs):
    for workload, pair in traced_runs.items():
        for result in pair:
            assert result["correct"], workload
            assert result["failed"] == 0 and result["attempted"] > 0, workload


def test_every_layer_metric_recorded_and_predicted(traced_runs):
    for workload, (first, _) in traced_runs.items():
        metrics = {k: v["value"] for k, v in first["metrics"].items()}
        assert set(metrics) == set(tracer.PER_LAYER)
        for name in NONZERO[workload]:
            assert metrics[name] > 0, (workload, name)
        for name in ZERO[workload]:
            assert metrics[name] == 0, (workload, name)


def test_layer_self_time_largest_where_exercised(traced_runs):
    """Compared on the sum of both traced runs, which were made minutes apart."""
    for names, homes in LARGEST_ON.items():
        for name in names:
            values = {w: sum(r["metrics"][name]["value"] for r in pair)
                      for w, pair in traced_runs.items()}
            assert max(values, key=values.get) in homes, (name, values)


def test_counts_repeat_across_traced_runs(traced_runs):
    for workload, (first, second) in traced_runs.items():
        for name, metric in first["metrics"].items():
            if metric["unit"] != "s":
                assert metric["value"] == second["metrics"][name]["value"], (workload, name)


def test_rotation_spectrum_window_counts():
    """The seed count later changes may claim against: 19 window builds for
    the rotation spectrum (task 4 of orbit_generators)."""
    work = os.path.join(run.ROOT, ".bench_work", "test-rotation")
    os.makedirs(work, exist_ok=True)
    try:
        (name, _, text), = workloads.generate("orbit_generators", SEED)
        config = os.path.join(work, "orbit.yaml")
        with open(config, "w") as fh:
            fh.write(text)
        dump = os.path.join(work, "trace.json")
        proc = run.spawn(config, os.path.join(work, "out"), work, dump)
        assert proc.code == 0
        with open(dump) as fh:
            counters = json.load(fh)["task_counters"]["4"]
        assert counters["sets.window_builds"] == 19
        assert counters["sets.window_elems_built"] == 5_242_404
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_refuses_to_run_without_source(tmp_path):
    """A directory holding only the benchmark has nothing to measure."""
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "z_counting",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
