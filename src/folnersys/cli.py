"""Command-line surface.

`folnersys run --config cfg.yaml` executes the config's task list.  The
direct subcommands (density, spectrum, cylinders, verify, compare,
moments, normcheck) build a one-task run from flags, using the config file
for the shared definitions only: its own task list is neither read nor validated.

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


# argparse names each converter in its "invalid <name> value" message
def shift_list(text: str) -> list:
    return [int(x) for x in text.split(",")]


def shift_lists(text: str) -> list:
    return [shift_list(q) for q in text.split(";")]


def factor_lists(text: str) -> list:
    """`i:c:g,...;...`, the factor conjugated when c is 1, c or true"""
    def factor(i, c, g):
        return [int(i), c in ("1", "c", "true"), int(g)]
    return [[factor(*fs.split(":")) for fs in q.split(",")] for q in text.split(";")]


def name_list(text: str) -> list:
    return text.split(",")


REQ = {"required": True}
N = ("-N", {"type": int, "required": True, "dest": "N"})


def _int(default):
    return {"type": int, "default": default}


# subcommand -> (help, flags); each flag's dest is the task key it fills
COMMANDS = {
    "density": ("multi-shift intersection density", [
        ("--set", REQ),
        ("--shifts", {"type": shift_list, "default": "0",
                      "help": "comma-separated integer shifts"}),
        N]),
    "spectrum": ("correlation spectrum of a set", [
        ("--set", REQ), ("--depth", _int(2)), ("--radius", _int(4))]),
    "cylinders": ("cylinder-measure table", [
        ("--set", REQ), ("--radius", _int(2)), ("--depth", _int(2))]),
    "verify": ("correspondence check against an oracle system", [
        ("--system", REQ),
        ("--queries", {"type": shift_lists, "default": "0",
                       "help": "semicolon-separated shift lists"})]),
    "compare": ("spectrum comparison of two sets", [
        ("--set1", REQ), ("--set2", REQ), ("--depth", _int(2)), ("--radius", _int(4)),
        ("--eps", {"type": float, "default": 1e-6})]),
    "moments": ("weighted correlation moments", [
        ("--family", {**REQ, "type": name_list, "help": "comma-separated function names"}),
        ("--scheme", REQ),
        ("--queries", {**REQ, "type": factor_lists,
                       "help": "semicolon-separated factor lists i:c:g,i:c:g"}),
        N]),
    "normcheck": ("averaging-scheme normalization", [("--scheme", REQ), N]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="folnersys")
    sub = parser.add_subparsers(dest="command", required=True)
    _shared_flags(sub.add_parser("run", help="execute the config's task list"))
    for name, (help_, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        _shared_flags(p)
        p.set_defaults(task_keys=[p.add_argument(flag, **kw).dest for flag, kw in flags])
    return parser


# report.json is `json.dumps(report, sort_keys=True, default=str)`, written in parts
# by the C encoder: `json.dump` to a file runs the pure-Python one, and on Python 3.11
# one C `encode` call keeps every fragment until it returns (one call for a 2,400-task
# report raised peak memory by about 4 MB).  So each task entry is one call, and an
# entry of more than _SPLIT_ROWS result rows is opened down to one call per row.
_SPLIT_ROWS = 64
_encode = json.JSONEncoder(sort_keys=True, default=str).encode


def _one(v):
    yield _encode(v)


def _opened(d: dict, **members):
    """The parts of `json.dumps(d, sort_keys=True, default=str)`, the value of each key
    in `members` in the parts its function gives.  Every key is a string: sorting
    refuses other keys beside a member's, as json does."""
    yield "{"
    for i, (k, v) in enumerate(sorted(d.items())):
        yield f"{', ' if i else ''}{_encode(k)}: "
        yield from members.get(k, _one)(v)
    yield "}"


def _each(items, member=_one):
    yield "["
    for i, v in enumerate(items):
        if i:
            yield ", "
        yield from member(v)
    yield "]"


def _entry(entry: dict):
    rows = entry["result"].get("rows")
    if isinstance(rows, (list, tuple)) and len(rows) > _SPLIT_ROWS:
        return _opened(entry, result=lambda r: _opened(r, rows=_each))
    return _one(entry)


def _write_report(report: dict, out_dir, fmt: str) -> None:
    if out_dir:
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            for part in _opened(report, tasks=lambda tasks: _each(tasks, _entry)):
                fh.write(part)
            fh.write("\n")
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
        print(json.dumps(report, indent=2, sort_keys=True, default=str))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cache_dir = os.path.join(args.out, ".cache") if args.out and not args.no_cache else None
        tasks = None if args.command == "run" else [
            {"task": args.command, **{key: getattr(args, key) for key in args.task_keys}}]
        cfg = load_config(args.config, seed_override=args.seed, cache_dir=cache_dir,
                          tasks=tasks)
        if args.out:  # an --out that is a regular file is refused before any task runs
            os.makedirs(args.out, exist_ok=True)
        report = run(cfg, cache_dir=cache_dir)
        _write_report(report, args.out, args.fmt)
    except (ConfigError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            FileExistsError) as e:  # a path error: no config file, or an --out that is a file
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except CapExceededError as e:
        print(f"resource cap: {e}", file=sys.stderr)
        return 3
    if args.out:
        for entry in report["tasks"]:
            status = entry["result"].get("passed")
            tag = "PASS" if status in (True, None) else "FAIL"
            print(f"[{tag}] task {entry['index']} {entry['task'].get('task')}"
                  f" ({entry['seconds']}s{', cached' if entry['cache_hit'] else ''})")
    return report["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
