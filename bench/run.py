"""folnersys benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload z_counting --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The workload's YAML configs are
generated from the seed (``workloads.py``) and run as ``folnersys run``
child processes, one after another with the default single worker, until
``--seconds`` have passed (at least three repetitions).  Every repetition's
reports are checked.  With ``--trace 0`` the last stdout line is a JSON
object with the end-to-end metrics over the repetitions (``SUMMARY``):

* ``wall_s``      spawn-to-exit time, summed over the workload's processes;
                  mean without the fastest and the slowest repetition
* ``setup_s``     spawn until ``load_config`` returned, summed likewise; median
* ``peak_rss_mb`` largest resident set of the workload's processes; median

With ``--trace 1`` one more repetition runs with every layer's public
functions wrapped by ``tracer.py``, and the JSON carries its per-layer
metrics.  Failed tasks over attempted tasks (``fail_frac``) is printed on
the summary line and carried as ``failed``/``attempted``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
MIN_REPS = 3
CHILD_TIMEOUT_S = 120
# metric names, units and bounds are defined once, in BENCHMARK.json
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _SPEC = json.load(_fh)
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}
END_TO_END = [m["name"] for m in _SPEC["end_to_end"]]
# numpy's BLAS pools would otherwise start one thread per core in every child
CHILD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


def task_digest(entry: dict) -> str:
    """Digest of a report entry's task and result; the cache key and the
    timing fields are left out so that they may change between commits."""
    blob = json.dumps({"task": entry["task"], "result": entry["result"]},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def comparable(entry: dict) -> dict:
    return {k: v for k, v in entry.items() if k not in ("seconds", "cache_hit")}


class Proc:
    """One finished child: its exit code, times, peak RSS and report."""

    def __init__(self, code, wall, setup, rss_mb, report):
        self.code, self.wall, self.setup, self.rss_mb, self.report = (
            code, wall, setup, rss_mb, report)


def clear_reports(out_dir: str) -> None:
    """Remove what an earlier run wrote to ``out_dir`` except its result
    cache, so a run that writes no report is not judged by an old one."""
    if not os.path.isdir(out_dir):
        return
    for entry in os.listdir(out_dir):
        if entry != ".cache":
            path = os.path.join(out_dir, entry)
            if os.path.isdir(path):
                shutil.rmtree(path)
            else:
                os.remove(path)


def spawn(config_path: str, out_dir: str, work: str, trace_file: str = "-") -> Proc:
    stamp = os.path.join(work, "stamp")
    if os.path.exists(stamp):
        os.remove(stamp)
    clear_reports(out_dir)
    argv = [sys.executable, CHILD, stamp, trace_file,
            "run", "--config", config_path, "--out", out_dir]
    with open(os.path.join(work, "child.log"), "w") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env={**os.environ, **CHILD_ENV},
                                stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    setup = wall  # a process that never loaded its config spent all of it in set-up
    if os.path.exists(stamp):
        with open(stamp) as fh:
            setup = float(fh.read()) - t0
    report = None
    try:
        with open(os.path.join(out_dir, "report.json")) as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        pass
    if proc.returncode != 0:
        with open(os.path.join(work, "child.log")) as fh:
            tail = fh.read()[-2000:]
        print(f"{os.path.basename(config_path)} exited {proc.returncode}:\n{tail}",
              file=sys.stderr)
    return Proc(proc.returncode, wall, setup, usage.ru_maxrss / 1024.0, report)


class Checker:
    """Counts attempted and failed tasks.  A task fails if it is missing, if
    its verdict did not pass, or if its result differs from the stored
    reference (reference seeds only), from the first repetition, or, for a
    warm rerun, from the cold run that filled the cache.  A non-zero exit
    code fails every task of that process."""

    def __init__(self, reference=None, cold=None):
        self.reference = reference or {}
        self.cold = cold
        self.first = {}
        self.attempted = 0
        self.failed = 0

    def check(self, name: str, ntasks: int, proc: Proc) -> None:
        self.attempted += ntasks
        if proc.code != 0 or proc.report is None:
            self.failed += ntasks
            return
        entries = {e["index"]: e for e in proc.report["tasks"]}
        first = self.first.setdefault(name, {})
        for i in range(ntasks):
            entry = entries.get(i)
            if entry is None or entry["result"].get("passed") is False:
                self.failed += 1
                continue
            digest = task_digest(entry)
            ok = digest == first.setdefault(i, digest)
            if name in self.reference:
                ok = ok and digest == self.reference[name][i]
            if self.cold is not None:
                ok = ok and comparable(entry) == self.cold.get(name, {}).get(i)
            if not ok:
                print(f"{name} task {i}: result differs from the expected one",
                      file=sys.stderr)
                self.failed += 1


def trimmed_mean(values):
    """Mean of the repetitions without the fastest and the slowest one."""
    if len(values) >= 4:
        values = sorted(values)[1:-1]
    return statistics.fmean(values)


# How each end-to-end metric sums up the repetitions of one run.  The host's
# speed drifts by up to +-20% over tens of seconds; the median repetition
# jumps between its fast and slow phases, while a trimmed mean follows the
# share of each and about halves the run-to-run spread of wall_s.
SUMMARY = {"wall_s": trimmed_mean, "setup_s": statistics.median,
           "peak_rss_mb": statistics.median}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def load_reference(workload: str, seed: int) -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh).get(workload, {}).get(str(seed), {})


def measure(workload: str, seed: int, seconds: float, trace: bool, work: str) -> dict:
    """Run the workload; returns the result object printed on the last line."""
    configs = []
    for name, ntasks, text in workloads.generate(workload, seed):
        path = os.path.join(work, f"{name}.yaml")
        with open(path, "w") as fh:
            fh.write(text)
        configs.append((name, ntasks, path))

    warm = workload == "warm_rerun"
    cold = None
    if warm:
        # untimed cold run that fills each config's result cache
        cold = {}
        for name, _, path in configs:
            proc = spawn(path, os.path.join(work, f"warm-{name}"), work)
            if proc.code == 0 and proc.report is not None:
                cold[name] = {e["index"]: comparable(e) for e in proc.report["tasks"]}
    checker = Checker(load_reference(workload, seed), cold)

    def repetition(tag: str, traced: bool) -> Proc:
        procs = []
        for name, ntasks, path in configs:
            out = os.path.join(work, f"warm-{name}" if warm else f"out-{tag}-{name}")
            trace_file = os.path.join(work, f"trace-{name}.json") if traced else "-"
            proc = spawn(path, out, work, trace_file)
            checker.check(name, ntasks, proc)
            if not warm:
                shutil.rmtree(out, ignore_errors=True)
            procs.append(proc)
        return Proc(max(p.code for p in procs), sum(p.wall for p in procs),
                    sum(p.setup for p in procs), max(p.rss_mb for p in procs), None)

    reps = []
    t0 = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - t0 < seconds:
        reps.append(repetition(str(len(reps)), traced=False))
    elapsed = time.monotonic() - t0

    samples = {
        "wall_s": [r.wall for r in reps],
        "setup_s": [r.setup for r in reps],
        "peak_rss_mb": [r.rss_mb for r in reps],
    }
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        print(f"{workload} {name}: {SUMMARY[name].__name__} {SUMMARY[name](values):.6g} "
              f"{UNITS[name]} (median {med:.6g}, q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")

    if trace:
        traced = repetition("traced", traced=True)
        dumps = []
        for name, _, _ in configs:
            try:
                with open(os.path.join(work, f"trace-{name}.json")) as fh:
                    dumps.append(json.load(fh))
            except (OSError, ValueError):
                checker.failed += 1
        values = tracer.layer_metrics(dumps)
        values["trace.overhead_s"] = traced.wall - SUMMARY["wall_s"](samples["wall_s"])
        metrics = {name: {"value": values[name], "unit": UNITS[name]}
                   for name in tracer.PER_LAYER}
    else:
        metrics = {name: {"value": SUMMARY[name](samples[name]), "unit": UNITS[name]}
                   for name in END_TO_END}

    fail_frac = checker.failed / checker.attempted
    print(f"{workload} seed {seed}: {len(reps)} repetitions in {elapsed:.1f} s; "
          f"fail_frac {fail_frac:.6g} ratio ({checker.failed} of {checker.attempted} tasks)")
    return {"correct": checker.failed == 0,
            "attempted": checker.attempted, "failed": checker.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "folnersys", "cli.py")):
        print(f"no folnersys source under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is still using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
