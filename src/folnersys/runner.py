"""Task execution binding the library modules to config files."""
from __future__ import annotations

import time
from fractions import Fraction
from typing import Optional

from . import __version__
from .cache import ResultCache, digest, source_digest
from .config import _TASK_KEYS, ExperimentConfig, Workspace, task_schedule
from .cylinders import CylinderSpec, additivity_check, frac, furstenberg_report, invariance_defect
from .density import extract_subsequence, intersection_count, pair_correlation_fft, upper_density
from .errors import ConfigError, NoConvergentSubsequenceError
from .moments import accordance_check, exponential_oracle, scheme_normalization, weighted_moment
from .oracles import verify_correspondence
from .spectrum import compare_pairs, correlation_spectrum


def _element(group, node):
    g = tuple(node) if isinstance(node, list) else node
    if not group.contains(g):
        raise ConfigError(f"{node!r} is not an element of group {group.kind}")
    return g


def _query(group, node):
    return tuple(_element(group, g) for g in node)


def _factors(group, node):
    return [(int(i), bool(c), _element(group, g)) for i, c, g in node]


def _cylinder(group, task):
    constraints = task.get("cylinder", [])
    return CylinderSpec.make(group, {_element(group, h): int(e) for h, e in constraints})


def run_task(ws: Workspace, task: dict, cfg: ExperimentConfig) -> dict:
    kind = task["task"]
    group, f = cfg.group, cfg.folner
    E = ws.set_spec(task["set"]) if "set" in _TASK_KEYS.get(kind, ()) else None

    if kind == "density":
        q = _query(group, task.get("shifts", [group.identity()]))
        N = int(task["N"])
        count = intersection_count(E, q, f, N)
        return {"count": count, "size": f.size(N), "density": frac(Fraction(count, f.size(N)))}

    if kind == "upper_density":
        tau = Fraction(str(task.get("tau", cfg.tolerances["tau"])))
        est, attaining = upper_density(E, f, task_schedule(task, cfg), tol=tau)
        return {"estimate": frac(est), "attaining": attaining}

    if kind == "subsequence":
        queries = [_query(group, q) for q in task["queries"]]
        try:
            sub = extract_subsequence(E, queries, f, task_schedule(task, cfg), float(task["eps"]))
            return {"subsequence": sub, "passed": True}
        except NoConvergentSubsequenceError as e:
            return {"subsequence": None, "error": str(e), "passed": False}

    if kind == "pair_correlation":
        counts = pair_correlation_fft(E, f, int(task["N"]), int(task["H"]))
        return {"counts": {str(h): c for h, c in sorted(counts.items())}}

    if kind == "cylinders":
        table = furstenberg_report(
            E, f, int(task["radius"]), int(task["depth"]), task_schedule(task, cfg),
            cylinder_cap=cfg.caps["cylinders"],
            subsequence_eps=float(task.get("eps", 0.05)),
            collect_patterns=bool(task.get("patterns", False)),
        )
        return table.to_dict()

    if kind == "additivity":
        ok, residual = additivity_check(
            E, _cylinder(group, task), _element(group, task["element"]), f, int(task["N"]))
        return {"ok": ok, "residual": frac(residual), "passed": ok}

    if kind == "invariance":
        g = _element(group, task["shift"])
        N = int(task["N"])
        value = invariance_defect(E, _cylinder(group, task), g, f, N)
        return {"defect": frac(value), "folner_defect": frac(f.defect(N, g))}

    if kind == "verify":
        sysname = task["system"]
        system = ws.system(sysname)
        queries = [_query(group, q) for q in task["queries"]]
        report = verify_correspondence(
            system, queries, f, task_schedule(task, cfg),
            x0=task.get("x0", 0), seed=int(task.get("seed", cfg.seed or 0)),
        )
        out = report.to_dict()
        out["passed"] = report.passed
        return out

    if kind == "spectrum":
        spec = correlation_spectrum(
            E, f, int(task["depth"]), int(task["radius"]), task_schedule(task, cfg))
        return {"rows": spec.to_rows(), "final_N": spec.final_N}

    if kind == "compare":
        p1 = (ws.set_spec(task["set1"]), f)
        p2 = (ws.set_spec(task["set2"]), f)
        verdict = compare_pairs(
            p1, p2, int(task["depth"]), int(task["radius"]),
            task_schedule(task, cfg), float(task["eps"]))
        out = verdict.to_dict()
        if "expect" in task:
            out["passed"] = verdict.verdict == task["expect"]
        return out

    if kind == "moments":
        family = [ws.function(n) for n in task["family"]]
        scheme = ws.scheme(task.get("scheme", next(iter(cfg.schemes), None)) or "")
        N = int(task["N"])
        rows = []
        for qnode in task["queries"]:
            q = _factors(group, qnode)
            value = weighted_moment(family, q, scheme, N)
            row = {"query": qnode, "re": value.real, "im": value.imag}
            if "oracle_thetas" in task:
                o = exponential_oracle([float(t) for t in task["oracle_thetas"]], q, scheme)
                row["oracle"] = {"re": o.real, "im": o.imag}
                row["deviation"] = abs(value - o)
            rows.append(row)
        return {"rows": rows}

    if kind == "accordance":
        family = [ws.function(n) for n in task["family"]]
        scheme = ws.scheme(task["scheme"])
        queries = [_factors(group, qnode) for qnode in task["queries"]]
        rows = accordance_check(
            family, queries, scheme, task_schedule(task, cfg), float(task["eps"]),
            conj_depth=int(task.get("conj_depth", 3)))
        return {
            "rows": [
                {
                    "query": [[i, c, list(g) if isinstance(g, tuple) else g]
                              for i, c, g in r.query],
                    "accordant": r.accordant,
                    "oscillations": {
                        "".join("c" if b else "." for b in pat): osc
                        for pat, osc in r.oscillations.items()
                    },
                }
                for r in rows
            ],
            "passed": all(r.accordant for r in rows) if task.get("expect", True) else
                      not all(r.accordant for r in rows),
        }

    if kind == "normcheck":
        scheme = ws.scheme(task["scheme"])
        N = int(task["N"])
        value = scheme_normalization(scheme, N)
        out = {"value": frac(value)}
        if "tol" in task:
            out["passed"] = abs(float(value) - 1.0) <= float(task["tol"])
        return out

    raise ConfigError(f"unknown task {kind!r}")


def run(cfg: ExperimentConfig, out_dir: Optional[str] = None, use_cache: bool = True) -> dict:
    """Execute every task in order; returns the full report dict.

    The report's exit_code is 0 when all verdict-bearing tasks passed,
    1 otherwise (config and cap errors raise instead).
    """
    ws = Workspace(cfg)
    shared = {
        "group": {"kind": cfg.group.kind, "d": cfg.group.d},
        "folner": {"shape": cfg.folner.shape, "start": cfg.folner.start,
                   "anchor": list(cfg.folner.anchor)},
        "schedule": cfg.schedule,
        "seed": cfg.seed,
        "sets": cfg.sets, "systems": cfg.systems,
        "schemes": cfg.schemes, "functions": cfg.functions,
        "version": __version__,
    }
    cache = ResultCache(f"{out_dir}/.cache") if (out_dir and use_cache) else None
    config_digest = digest(shared)
    code = source_digest()
    results = []
    for i, task in enumerate(cfg.tasks):
        key = digest({"config": shared, "task": task, "code": code})
        t0 = time.perf_counter()
        cached = cache.get(key) if cache else None
        if cached is not None:
            value, hit = cached, True
        else:
            try:
                value, hit = run_task(ws, task, cfg), False
            except ConfigError:
                raise
            except ValueError as e:  # a refused parameter or query: exit 2
                raise ConfigError(f"task {i}: {e}") from e
            if cache:
                cache.put(key, value)
        results.append({
            "index": i, "task": task, "key": key,
            "cache_hit": hit, "seconds": round(time.perf_counter() - t0, 6),
            "result": value,
        })
    all_passed = all(r["result"].get("passed") is not False for r in results)
    return {
        "version": __version__,
        "config_digest": config_digest,
        "tasks": results,
        "exit_code": 0 if all_passed else 1,
    }
