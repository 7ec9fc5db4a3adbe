"""Repeat ``run.py`` over several seeds; record references and the baseline.

    python3 bench/spread.py --seeds 1-10 [--workloads a,b] [--seconds S]
    python3 bench/spread.py --record-reference 1,2
    python3 bench/spread.py --seeds 1-10 --baseline bench/baseline.json

The first form prints, for every workload and metric, the median of the
per-seed values, their quartiles (``statistics.quantiles(values, n=4)``) and
the spread, the distance between the quartiles as a share of the median,
next to the metric's bound in ``BENCHMARK.json``.

``--record-reference`` runs each workload once per listed seed and stores the
digest of every task's result in ``reference.json``; ``run.py`` fails any task
that differs from it on those seeds.  ``--baseline`` adds one traced run per
workload on the first seed and writes the end-to-end and per-layer numbers,
the per-task counts and the machine to the given file.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    out = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "n": len(values)}


def run_configs(workload: str, seed: int, trace: bool):
    """One untimed run of each config; yields (name, report, trace dump)."""
    work = os.path.join(run.ROOT, ".bench_work", f"record-{workload}-{seed}")
    os.makedirs(work, exist_ok=True)
    try:
        for name, _, text in workloads.generate(workload, seed):
            config = os.path.join(work, f"{name}.yaml")
            with open(config, "w") as fh:
                fh.write(text)
            dump_file = os.path.join(work, f"trace-{name}.json") if trace else "-"
            proc = run.spawn(config, os.path.join(work, f"out-{name}"), work, dump_file)
            if proc.code != 0:
                raise RuntimeError(f"{workload} seed {seed} {name}: exit {proc.code}")
            dump = None
            if trace:
                with open(dump_file) as fh:
                    dump = json.load(fh)
            yield name, proc.report, dump
    finally:
        shutil.rmtree(work, ignore_errors=True)


def record_reference(seeds, names) -> None:
    reference = {}
    for workload in names:
        for seed in seeds:
            reference.setdefault(workload, {})[str(seed)] = {
                name: [run.task_digest(e) for e in report["tasks"]]
                for name, report, _ in run_configs(workload, seed, trace=False)}
            print(f"recorded {workload} seed {seed}", flush=True)
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


def machine() -> dict:
    import numpy
    import yaml
    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                if line.startswith("model name")), platform.processor())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {"commit": sha, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "pyyaml": yaml.__version__, "libyaml": yaml.__with_libyaml__}


def main(argv=None) -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--record-reference", default=None, metavar="SEEDS")
    parser.add_argument("--baseline", default=None, metavar="FILE")
    args = parser.parse_args(argv)
    names = args.workloads.split(",")

    if args.record_reference:
        record_reference(parse_seeds(args.record_reference), names)
        return 0

    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    end_to_end = {}
    for workload in names:
        runs = {}
        for seed in seeds:
            runs[seed] = run_once(workload, seed, args.seconds, False)
            print(f"{workload} seed {seed}: correct={runs[seed]['correct']} "
                  f"failed={runs[seed]['failed']}/{runs[seed]['attempted']}", flush=True)
        end_to_end[workload] = {}
        for metric, first in next(iter(runs.values()))["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs.values()]
            stats = summarize(values) if len(values) > 1 else {"median": values[0]}
            end_to_end[workload][metric] = {**stats, "unit": first["unit"], "values": values}
            if stats.get("spread") is not None:
                print(f"  {metric:28s} median {stats['median']:.6g} q1 {stats['q1']:.6g} "
                      f"q3 {stats['q3']:.6g} spread {stats['spread']:.4f}"
                      + (f" bound {bounds[metric]}" if metric in bounds else ""), flush=True)

    if args.baseline:
        per_layer, task_counts = {}, {}
        for workload in names:
            result = run_once(workload, seeds[0], args.seconds, trace=True)
            per_layer[workload] = {k: v["value"] for k, v in result["metrics"].items()}
            if workload != "warm_rerun":
                task_counts[workload] = {
                    name: dump["task_counters"]
                    for name, _, dump in run_configs(workload, seeds[0], trace=True)}
        baseline = {
            "machine": machine(),
            "run_seconds": args.seconds,
            "seeds": seeds,
            "end_to_end": end_to_end,
            "per_layer_seed": seeds[0],
            "per_layer": per_layer,
            "per_task_counts": task_counts,
        }
        with open(args.baseline, "w") as fh:
            json.dump(baseline, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
