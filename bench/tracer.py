"""Outside-in tracing of one ``folnersys`` process.

``Tracer.install`` wraps the public functions and methods of every layer
and rebinds each wrapper wherever the original is looked up, so a name
imported into another module (``runner`` imports ``intersection_count``,
``spectrum`` imports ``density_at``, ...) is traced too.  Spans
``[name, start, end, parent, task]`` and counters stay in memory and are
written once by ``dump``.  ``layer_metrics`` turns a dump into the per-layer
metrics of the benchmark.
"""
from __future__ import annotations

import json
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

# Per-layer metric -> the end-to-end metric and workload it should move.  Units
# and directions are in BENCHMARK.json.
PER_LAYER = {
    "config.load_s": "setup_s on every workload; wall_s on warm_rerun",
    "config.build_s": "setup_s on every workload; wall_s on warm_rerun",
    "sets.bits_s": "wall_s, peak_rss_mb on orbit_generators and moments_heisenberg",
    "sets.bits_calls": "wall_s on orbit_generators and moments_heisenberg",
    "sets.member_coords_s": "wall_s, peak_rss_mb on moments_heisenberg (H3)",
    "sets.window_builds": "wall_s on orbit_generators; ~0 on warm_rerun",
    "sets.window_elems_built": "wall_s, peak_rss_mb on orbit_generators",
    "sets.window_reuse": "wall_s on orbit_generators",
    "groups.coords_s": "wall_s, peak_rss_mb on moments_heisenberg; ~0 elsewhere",
    "groups.coords_elems": "peak_rss_mb on moments_heisenberg",
    "groups.translate_s": "wall_s on moments_heisenberg; ~0 elsewhere",
    "groups.defect_s": "wall_s on moments_heisenberg; ~0 elsewhere",
    "groups.word_ball_s": "wall_s on moments_heisenberg; ~0 elsewhere",
    "density.count_s": "wall_s on z_counting; small on orbit_generators",
    "density.count_calls": "wall_s on z_counting",
    "density.count_elems": "wall_s on z_counting",
    "density.paircorr_s": "wall_s on z_counting",
    "density.paircorr_shifts": "wall_s on z_counting",
    "cylinders.count_s": "wall_s on z_counting (interval) and moments_heisenberg (H3)",
    "cylinders.count_calls": "wall_s on z_counting and moments_heisenberg",
    "cylinders.count_elems": "wall_s on z_counting and moments_heisenberg",
    "cylinders.enumerate_s": "wall_s on z_counting and moments_heisenberg",
    "cylinders.cylinders": "wall_s on z_counting and moments_heisenberg",
    "spectrum.self_s": "wall_s on z_counting",
    "spectrum.tuples": "wall_s on z_counting",
    "oracles.orbit_s": "wall_s on orbit_generators; 0 elsewhere",
    "oracles.orbit_elems": "wall_s on orbit_generators; 0 elsewhere",
    "oracles.exact_measure_s": "wall_s on orbit_generators; 0 elsewhere",
    "oracles.exact_measure_calls": "wall_s on orbit_generators; 0 elsewhere",
    "oracles.sigma_s": "wall_s on orbit_generators; 0 elsewhere",
    "moments.moment_s": "wall_s, peak_rss_mb on moments_heisenberg",
    "moments.exact_calls": "wall_s on moments_heisenberg",
    "moments.float_calls": "wall_s on moments_heisenberg",
    "moments.eval_s": "wall_s, peak_rss_mb on moments_heisenberg",
    "moments.eval_elems": "wall_s, peak_rss_mb on moments_heisenberg",
    "moments.normalization_s": "wall_s on moments_heisenberg",
    "cache.digest_s": "wall_s on warm_rerun; small on the compute workloads",
    "cache.get_s": "wall_s on warm_rerun",
    "cache.put_s": "wall_s on the compute workloads (small)",
    "cache.hits": "wall_s on warm_rerun; 0 on the compute workloads",
    "cache.misses": "wall_s on the compute workloads; 0 on warm_rerun",
    "runner.self_s": "small on every workload",
    "runner.tasks": "none: tasks per workload run",
    "cli.self_s": "wall_s on warm_rerun and z_counting (report writing)",
    "trace.overhead_s": "none: traced wall time minus the untraced median",
}

# Span name -> metric that receives its self time.  A span's self time is its
# duration minus the durations of the spans it directly encloses.
SELF_TIME = {
    "cli": "cli.self_s",
    "runner": "runner.self_s",
    "config.load": "config.load_s",
    "cache.digest": "cache.digest_s",
    "cache.get": "cache.get_s",
    "cache.put": "cache.put_s",
    "sets.bits": "sets.bits_s",
    "sets.member_coords": "sets.member_coords_s",
    "groups.coords": "groups.coords_s",
    "groups.translate": "groups.translate_s",
    "groups.defect": "groups.defect_s",
    "groups.word_ball": "groups.word_ball_s",
    "density.count": "density.count_s",
    "density.paircorr": "density.paircorr_s",
    "cylinders.count": "cylinders.count_s",
    "cylinders.enumerate": "cylinders.enumerate_s",
    "spectrum": "spectrum.self_s",
    "oracles.orbit": "oracles.orbit_s",
    "oracles.exact_measure": "oracles.exact_measure_s",
    "oracles.sigma": "oracles.sigma_s",
    "moments.moment": "moments.moment_s",
    "moments.eval": "moments.eval_s",
    "moments.normalization": "moments.normalization_s",
}

# Span name -> metric that receives its inclusive time (outermost spans only).
INCLUSIVE = {"config.build": "config.build_s"}


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        self.task_counters: Dict[str, Counter] = {}
        self.task: Optional[int] = None
        self._stack: List[int] = []
        self._task_index: Dict[int, int] = {}
        self._modules: list = []

    # -- recording --------------------------------------------------------

    def wrap(self, name: str, fn: Callable, after=None, before=None) -> Callable:
        """``fn`` timed as span ``name``; ``after(args, result, state, rec)``
        updates counters from the call, ``state`` being what ``before(args)``
        returned just before it."""
        def traced(*args, **kw):
            state = before(args) if before else None
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.task]
            self.spans.append(rec)
            self._stack.append(len(self.spans) - 1)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kw)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if after:
                after(args, result, state, rec)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None, before=None) -> None:
        """Wrap ``owner.attr`` (a module function or a class's own method) and
        rebind the wrapper everywhere the original is bound in the package."""
        orig = vars(owner)[attr]
        new = self.wrap(name, orig, after=after, before=before)
        if isinstance(owner, type):
            setattr(owner, attr, new)
        for module in self._modules:
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, new)

    def _parent_name(self, rec) -> Optional[str]:
        return self.spans[rec[3]][0] if rec[3] >= 0 else None

    # -- hooks ------------------------------------------------------------

    def _enter_run(self, args):
        self._task_index = {id(t): i for i, t in enumerate(args[0].tasks)}

    def _enter_task(self, args):
        self.task = self._task_index.get(id(args[1]), self.task)

    def _enter_digest(self, args):
        obj = args[0]
        if isinstance(obj, dict) and "task" in obj:
            self.task = self._task_index.get(id(obj["task"]), self.task)

    def install(self) -> None:
        import folnersys  # noqa: F401  (loads every submodule below)
        from folnersys import (
            cache, cli, config, cylinders, density, groups, moments, oracles, runner, sets,
            spectrum,
        )
        self._modules = [m for name, m in sorted(sys.modules.items())
                         if name == "folnersys" or name.startswith("folnersys.")]
        p = self.patch

        def add(key, amount=1):
            self.counters[key] += amount
            self.task_counters.setdefault(str(self.task), Counter())[key] += amount

        p(cli, "main", "cli")
        p(config, "load_config", "config.load")
        for meth in ("set_spec", "system", "scheme", "function"):
            p(config.Workspace, meth, "config.build")
        p(runner, "run", "runner", before=self._enter_run,
          after=lambda a, r, s, rec: add("runner.tasks", len(r["tasks"])))
        p(runner, "run_task", "runner", before=self._enter_task)

        p(cache, "digest", "cache.digest", before=self._enter_digest)
        p(cache.ResultCache, "get", "cache.get",
          after=lambda a, r, s, rec: add("cache.misses" if r is None else "cache.hits"))
        p(cache.ResultCache, "put", "cache.put")

        def window_before(args):
            return args[0]._cache

        def window_after(args, result, prev, rec):
            E, lo, hi = args[0], args[1], args[2]
            add("sets.bits_calls")
            add("sets.window_served", max(0, hi - lo))
            if E._cache is not prev:
                add("sets.window_builds")
                add("sets.window_elems_built", len(E._cache))

        p(sets, "indicator_bits", "sets.bits")
        p(sets.ZSetSpec, "bits", "sets.bits", before=window_before, after=window_after)
        p(sets.Complement, "bits", "sets.bits")
        for cls in (sets.SetSpec, sets.ZSetSpec, sets.ComponentCongruence, sets.Complement):
            p(cls, "member_coords", "sets.member_coords")

        p(groups.FolnerSpec, "coords", "groups.coords",
          after=lambda a, r, s, rec: add("groups.coords_elems", r.shape[1]))
        p(groups.GroupSpec, "translate_left", "groups.translate")
        p(groups.GroupSpec, "translate_right", "groups.translate")
        p(groups.FolnerSpec, "defect", "groups.defect")
        p(groups.FolnerSpec, "right_defect", "groups.defect")
        p(groups.GroupSpec, "word_ball", "groups.word_ball")

        def count_after(args, result, state, rec):
            E, shifts, f, N = args[:4]
            add("density.count_calls")
            add("density.count_elems", f.size(N) * len(shifts))

        p(density, "intersection_count", "density.count", after=count_after)
        for fn in ("density_at", "upper_density", "extract_subsequence"):
            p(density, fn, "density.count")
        p(density, "pair_correlation_fft", "density.paircorr",
          after=lambda a, r, s, rec: add("density.paircorr_shifts", len(r)))

        def cylinder_after(args, result, state, rec):
            E, C, f, N = args[:4]
            add("cylinders.count_calls")
            add("cylinders.count_elems", f.size(N) * len(C.constraints))

        p(cylinders, "cylinder_count", "cylinders.count", after=cylinder_after)
        for fn in ("cylinder_measure", "additivity_check", "invariance_defect",
                   "furstenberg_report"):
            p(cylinders, fn, "cylinders.count")
        p(cylinders, "enumerate_cylinders", "cylinders.enumerate",
          after=lambda a, r, s, rec: add("cylinders.cylinders", len(r)))

        p(spectrum, "correlation_spectrum", "spectrum",
          after=lambda a, r, s, rec: add("spectrum.tuples", len(r.densities)))
        p(spectrum, "compare_pairs", "spectrum")

        for cls in (oracles.RotationSystem, oracles.PeriodicSystem, oracles.MarkovSystem):
            p(cls, "orbit_set", "oracles.orbit",
              after=lambda a, r, s, rec: add("oracles.orbit_elems", len(r.mask)))
            p(cls, "exact_measure", "oracles.exact_measure",
              after=lambda a, r, s, rec: add("oracles.exact_measure_calls"))
        p(oracles.MarkovSystem, "sigma_bound", "oracles.sigma")

        p(moments, "weighted_moment", "moments.moment",
          after=lambda a, r, s, rec: add("moments.moment_calls"))
        p(moments, "moment_exact", "moments.moment",
          after=lambda a, r, s, rec: add("moments.exact_calls", int(r is not None)))
        for fn in ("accordance_check", "exponential_oracle"):
            p(moments, fn, "moments.moment")
        p(moments, "scheme_normalization", "moments.normalization")

        def eval_after(args, result, state, rec):
            if self._parent_name(rec) != "moments.eval":
                add("moments.eval_elems", len(result))

        for cls in (moments.FunctionSpec, moments.IndicatorFn, moments.ConjFn, moments.ProductFn):
            p(cls, "eval_coords", "moments.eval", after=eval_after)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters,
                       "task_counters": self.task_counters}, fh)


def layer_metrics(dumps: List[dict]) -> Dict[str, float]:
    """Per-layer metrics summed over the traced processes of one workload run
    (``trace.overhead_s`` is left to the caller)."""
    out = {name: 0 for name in PER_LAYER if name != "trace.overhead_s"}
    counters: Counter = Counter()
    for d in dumps:
        spans = d["spans"]
        enclosed = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                enclosed[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(spans):
            if name in SELF_TIME:
                out[SELF_TIME[name]] += (end - start) - enclosed[i]
            elif name in INCLUSIVE and (parent < 0 or spans[parent][0] != name):
                out[INCLUSIVE[name]] += end - start
        counters.update(d["counters"])
    for name in out:
        if name in counters:
            out[name] = counters[name]
    out["moments.float_calls"] = counters["moments.moment_calls"] - counters["moments.exact_calls"]
    built = counters["sets.window_elems_built"]
    out["sets.window_reuse"] = counters["sets.window_served"] / built if built else 0.0
    return out
