"""Task execution binding the library modules to config files."""
from __future__ import annotations

import time
from fractions import Fraction
from typing import Optional

from . import __version__
from .cache import ResultCache, digest, source_digest
from .config import ExperimentConfig, Workspace
from .cylinders import CylinderSpec, additivity_check, frac, furstenberg_report, invariance_defect
from .density import extract_subsequence, intersection_count, pair_correlation_fft, upper_density
from .errors import ConfigError, NoConvergentSubsequenceError
from .moments import accordance_check, exponential_oracle, moment_table, scheme_normalization
from .oracles import verify_correspondence
from .schema import parse_task
from .spectrum import compare_pairs, correlation_spectrum


def run_task(ws: Workspace, task: dict, cfg: ExperimentConfig) -> dict:
    t = parse_task(task, cfg, "task")
    kind, N, f = t["task"], t.get("N"), cfg.folner
    E = ws.set_spec(t["set"]) if "set" in t else None
    C = CylinderSpec.make(cfg.group, t["cylinder"]) if "cylinder" in t else None
    family = [ws.function(n) for n in t.get("family", ())]

    if kind == "density":
        count = intersection_count(E, t["shifts"], f, N)
        return {"count": count, "size": f.size(N), "density": frac(Fraction(count, f.size(N)))}

    if kind == "upper_density":
        est, attaining = upper_density(E, f, t["schedule"], tol=t["tau"])
        return {"estimate": frac(est), "attaining": attaining}

    if kind == "subsequence":
        try:
            sub = extract_subsequence(E, t["queries"], f, t["schedule"], t["eps"])
            return {"subsequence": sub, "passed": True}
        except NoConvergentSubsequenceError as e:
            return {"subsequence": None, "error": str(e), "passed": False}

    if kind == "pair_correlation":
        counts = pair_correlation_fft(E, f, N, t["H"])
        return {"counts": {str(h): c for h, c in sorted(counts.items())}}

    if kind == "cylinders":
        return furstenberg_report(
            E, f, t["radius"], t["depth"], t["schedule"], cylinder_cap=cfg.caps["cylinders"],
            subsequence_eps=t["eps"], collect_patterns=t["patterns"]).to_dict()

    if kind == "additivity":
        ok, residual = additivity_check(E, C, t["element"], f, N)
        return {"ok": ok, "residual": frac(residual), "passed": ok}

    if kind == "invariance":
        value = invariance_defect(E, C, t["shift"], f, N)
        return {"defect": frac(value), "folner_defect": frac(f.defect(N, t["shift"]))}

    if kind == "verify":
        system = ws.system(t["system"])
        return verify_correspondence(system, t["queries"], f, t["schedule"],
                                     t[system.start_key]).to_dict()

    if kind == "spectrum":
        spec = correlation_spectrum(E, f, t["depth"], t["radius"], t["schedule"])
        return {"rows": spec.to_rows(), "final_N": spec.final_N}

    if kind == "compare":
        verdict = compare_pairs((ws.set_spec(t["set1"]), f), (ws.set_spec(t["set2"]), f),
                                t["depth"], t["radius"], t["schedule"], t["eps"])
        out = verdict.to_dict()
        if "expect" in t:
            out["passed"] = verdict.verdict == t["expect"]
        return out

    if kind == "moments":
        scheme = ws.scheme(t["scheme"])
        rows = []
        values = moment_table(family, t["queries"], scheme, [N])
        for qnode, q, (value,) in zip(task["queries"], t["queries"], values):
            row = {"query": qnode, "re": value.real, "im": value.imag}
            if "oracle_thetas" in t:
                o = exponential_oracle(t["oracle_thetas"], q, scheme)
                row["oracle"] = {"re": o.real, "im": o.imag}
                row["deviation"] = abs(value - o)
            rows.append(row)
        return {"rows": rows}

    if kind == "accordance":
        rows = accordance_check(
            family, t["queries"], ws.scheme(t["scheme"]), t["schedule"], t["eps"],
            conj_depth=t["conj_depth"])
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
            "passed": all(r.accordant for r in rows) == t["expect"],
        }

    # normcheck
    value = scheme_normalization(ws.scheme(t["scheme"]), N)
    out = {"value": frac(value)}
    if "tol" in t:
        out["passed"] = abs(float(value) - 1.0) <= t["tol"]
    return out


def run(cfg: ExperimentConfig, cache_dir: Optional[str] = None) -> dict:
    """Execute every task in order, reading and storing results in `cache_dir` when
    given; returns the full report dict.

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
        "tolerances": cfg.tolerances,
        "sets": cfg.sets, "systems": cfg.systems,
        "schemes": cfg.schemes, "functions": cfg.functions,
        "version": __version__,
    }
    cache = ResultCache(cache_dir) if cache_dir else None
    try:
        config_digest, code = digest(shared), source_digest()
        keys = [digest({"code": code, "config": config_digest, "task": task})
                for task in cfg.tasks]
    except TypeError as e:  # JSON cannot write a mapping key such as a YAML date
        raise ConfigError(f"config cannot be written as a cache key: {e}") from e
    results = []
    for i, (task, key) in enumerate(zip(cfg.tasks, keys)):
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
