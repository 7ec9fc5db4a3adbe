"""Command-line surface.

`folnersys run --config cfg.yaml` executes the config's task list.  The
direct subcommands (density, spectrum, cylinders, verify, compare,
moments, normcheck) build a one-task run from flags, using the config file
for the shared definitions.

Exit codes: 0 pass, 1 verdict failure, 2 config error, 3 resource cap.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .config import load_config
from .errors import CapExceededError, ConfigError
from .runner import run


def _shared_flags(p):
    p.add_argument("--config", required=True, help="experiment config file (YAML)")
    p.add_argument("--out", default=None, help="output directory for reports and cache")
    p.add_argument("--no-cache", action="store_true", help="recompute everything")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--format", choices=("csv", "json"), default="json", dest="fmt")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="folnersys")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="execute the config's task list")
    _shared_flags(runp)

    def task_cmd(name, help_, args):
        p = sub.add_parser(name, help=help_)
        _shared_flags(p)
        for flag, kw in args:
            p.add_argument(flag, **kw)
        return p

    task_cmd("density", "multi-shift intersection density", [
        ("--set", {"required": True}),
        ("--shifts", {"default": "0", "help": "comma-separated integer shifts"}),
        ("-N", {"type": int, "required": True, "dest": "N"}),
    ])
    task_cmd("spectrum", "correlation spectrum of a set", [
        ("--set", {"required": True}),
        ("--depth", {"type": int, "default": 2}),
        ("--radius", {"type": int, "default": 4}),
    ])
    task_cmd("cylinders", "cylinder-measure table", [
        ("--set", {"required": True}),
        ("--radius", {"type": int, "default": 2}),
        ("--depth", {"type": int, "default": 2}),
    ])
    task_cmd("verify", "correspondence check against an oracle system", [
        ("--system", {"required": True}),
        ("--queries", {"default": "0", "help": "semicolon-separated shift lists"}),
    ])
    task_cmd("compare", "spectrum comparison of two sets", [
        ("--set1", {"required": True}),
        ("--set2", {"required": True}),
        ("--depth", {"type": int, "default": 2}),
        ("--radius", {"type": int, "default": 4}),
        ("--eps", {"type": float, "default": 1e-6}),
    ])
    task_cmd("moments", "weighted correlation moments", [
        ("--family", {"required": True, "help": "comma-separated function names"}),
        ("--scheme", {"required": True}),
        ("--queries", {"required": True,
                       "help": "semicolon-separated factor lists i:c:g,i:c:g"}),
        ("-N", {"type": int, "required": True, "dest": "N"}),
    ])
    task_cmd("normcheck", "averaging-scheme normalization", [
        ("--scheme", {"required": True}),
        ("-N", {"type": int, "required": True, "dest": "N"}),
    ])
    return parser


def _task_from_args(args) -> dict:
    cmd = args.command
    if cmd == "density":
        return {"task": "density", "set": args.set,
                "shifts": [int(x) for x in args.shifts.split(",")], "N": args.N}
    if cmd == "spectrum":
        return {"task": "spectrum", "set": args.set,
                "depth": args.depth, "radius": args.radius}
    if cmd == "cylinders":
        return {"task": "cylinders", "set": args.set,
                "radius": args.radius, "depth": args.depth}
    if cmd == "verify":
        queries = [[int(x) for x in q.split(",")] for q in args.queries.split(";")]
        return {"task": "verify", "system": args.system, "queries": queries}
    if cmd == "compare":
        return {"task": "compare", "set1": args.set1, "set2": args.set2,
                "depth": args.depth, "radius": args.radius, "eps": args.eps}
    if cmd == "moments":
        queries = []
        for qs in args.queries.split(";"):
            factors = []
            for fs in qs.split(","):
                i, c, g = fs.split(":")
                factors.append([int(i), c in ("1", "c", "true"), int(g)])
            queries.append(factors)
        return {"task": "moments", "family": args.family.split(","),
                "scheme": args.scheme, "queries": queries, "N": args.N}
    if cmd == "normcheck":
        return {"task": "normcheck", "scheme": args.scheme, "N": args.N}
    raise ConfigError(f"unknown command {cmd}")


def _write_report(report: dict, out_dir, fmt: str) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, default=str)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            fh.write(text + "\n")
        if fmt == "csv":
            for entry in report["tasks"]:
                rows = entry["result"].get("rows")
                if not rows:
                    continue
                path = os.path.join(out_dir, f"task_{entry['index']}.csv")
                keys = sorted({k for r in rows for k in r})
                with open(path, "w", newline="") as fh:
                    w = csv.DictWriter(fh, fieldnames=keys)
                    w.writeheader()
                    for r in rows:
                        w.writerow({k: json.dumps(r.get(k), default=str) for k in keys})
    else:
        print(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed_override=args.seed)
        if args.command != "run":
            cfg.tasks = [_task_from_args(args)]
            from .config import _validate
            _validate(cfg)
        report = run(cfg, out_dir=args.out, use_cache=not args.no_cache)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except CapExceededError as e:
        print(f"resource cap: {e}", file=sys.stderr)
        return 3
    _write_report(report, args.out, args.fmt)
    if args.out:
        for entry in report["tasks"]:
            status = entry["result"].get("passed")
            tag = "PASS" if status in (True, None) else "FAIL"
            print(f"[{tag}] task {entry['index']} {entry['task'].get('task')}"
                  f" ({entry['seconds']}s{', cached' if entry['cache_hit'] else ''})")
    return report["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
