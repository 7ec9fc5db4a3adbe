"""Declarative experiment configuration.

One YAML file defines the group, the Folner shape, named sets / oracle
systems / averaging schemes / functions, a schedule, tolerances, caps, and
an ordered task list.  Validation resolves every name up front so a typo
fails before any computation starts.
"""
from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, List, Optional

import numpy as np
import yaml

from .errors import CapExceededError, ConfigError
from .groups import GroupSpec, FolnerSpec, INT_Z, INT_ZD, HEISENBERG3, SHAPE_BOX, SHAPE_INTERVAL
from . import sets as setmod
from . import oracles as oraclemod
from . import moments as momentmod

# each task kind -> the keys `runner.run_task` requires of it
_TASK_KEYS = {
    "density": ("set", "N"),
    "upper_density": ("set",),
    "subsequence": ("set", "queries", "eps"),
    "pair_correlation": ("set", "N", "H"),
    "cylinders": ("set", "radius", "depth"),
    "additivity": ("set", "element", "N"),
    "invariance": ("set", "shift", "N"),
    "verify": ("system", "queries"),
    "spectrum": ("set", "depth", "radius"),
    "compare": ("set1", "set2", "depth", "radius", "eps"),
    "moments": ("family", "queries", "N"),
    "accordance": ("family", "scheme", "queries", "eps"),
    "normcheck": ("scheme", "N"),
}


@dataclass
class ExperimentConfig:
    group: GroupSpec
    folner: FolnerSpec
    schedule: List[int]
    seed: Optional[int]
    tolerances: Dict[str, float]
    caps: Dict[str, int]
    sets: Dict[str, Any]
    systems: Dict[str, Any]
    schemes: Dict[str, Any]
    functions: Dict[str, Any]
    tasks: List[dict]


def _need(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigError(f"{where}: missing key {key!r}")
    return d[key]


def _build_group(d: dict) -> GroupSpec:
    kind = _need(d, "kind", "group")
    if kind == "Z":
        return GroupSpec(INT_Z)
    if kind == "Zd":
        return GroupSpec(INT_ZD, int(_need(d, "d", "group")))
    if kind == "H3":
        return GroupSpec(HEISENBERG3)
    raise ConfigError(f"group: unknown kind {kind!r}")


def _build_folner(d: dict, group: GroupSpec) -> FolnerSpec:
    shape = _need(d, "shape", "folner")
    try:
        if shape == "interval":
            return FolnerSpec(group, "interval", start=int(d.get("start", 0)))
        if shape == "box":
            anchor = tuple(int(a) for a in d.get("anchor", (0,) * group.d))
            return FolnerSpec(group, "box", anchor=anchor)
        if shape == "heisenberg_box":
            return FolnerSpec(group, "heisenberg_box")
    except (TypeError, ValueError) as e:
        raise ConfigError(f"folner: {e}") from e
    raise ConfigError(f"folner: unknown shape {shape!r}")


def _build_schedule(node) -> List[int]:
    if isinstance(node, dict) and "dyadic" in node:
        d = node["dyadic"]
        lo, hi = int(d["min_exp"]), int(d["max_exp"])
        if not 0 <= lo <= hi <= 62:  # indices stay in the int64 range
            raise ConfigError("dyadic schedule needs 0 <= min_exp <= max_exp <= 62")
        return [1 << k for k in range(lo, hi + 1)]
    if isinstance(node, list):
        out = [int(x) for x in node]
        if out != sorted(set(out)):
            raise ConfigError("schedule must be strictly increasing")
        if out and out[0] < 1:
            raise ConfigError("schedule indices must be >= 1")
        return out
    raise ConfigError("schedule must be a list or a dyadic range")


def task_schedule(task: dict, cfg: "ExperimentConfig") -> List[int]:
    return _build_schedule(task["schedule"]) if "schedule" in task else cfg.schedule


DEFAULT_SCHEDULE = [1 << k for k in range(10, 21)]
DEFAULT_CAPS = {"cylinders": 20000, "window": 1 << 26}
DEFAULT_TOLERANCES = {"tau": 1e-3}


def check_window(cfg: "ExperimentConfig", n: int, where: str, states: int = 1) -> None:
    """Refuse, before anything is allocated, a window of n elements over the cap.
    A Markov orbit over k states counts n*k: its sampler scans an n x k map table."""
    cap = cfg.caps["window"]
    if n * states > cap:
        size = n if n < 1 << 64 else f"over 2^{n.bit_length() - 1}"
        per = f" x {states} Markov states" if states > 1 else ""
        raise CapExceededError(f"{where}: window of {size} elements{per} exceeds cap {cap}")


def _chain_states(cfg: "ExperimentConfig", system) -> int:
    """The number of states k of the Markov system named `system`, else 1."""
    d = cfg.systems.get(system) if isinstance(system, str) else None
    if isinstance(d, dict) and d.get("kind") == "markov" and isinstance(d.get("P"), list):
        return len(d["P"])
    return 1


INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1


def _task_shifts(task: dict, group: GroupSpec) -> list:
    """Every element a task moves its window by, a ball standing in as its
    extreme elements.  Malformed elements are left to the runner to refuse."""
    def walk(node):
        g = tuple(node) if isinstance(node, list) else node
        if group.contains(g):
            return [g]
        return [h for x in node for h in walk(x)] if isinstance(node, list) else []

    kind = task["task"]
    gs = walk([task.get(k) for k in ("shifts", "queries", "element", "shift", "cylinder")])
    gs += [group.mul(g, h) for g in walk(task.get("shift")) for h in walk(task.get("cylinder"))]
    try:
        R = max(0, int(task.get("H" if kind == "pair_correlation" else "radius", 0)))
    except (TypeError, ValueError, OverflowError):
        return gs
    if group.kind == INT_Z:
        return gs + [R, 0 if kind in ("spectrum", "compare") else -R]
    # no word of length R moves a coordinate further than R, or R^2 for c on H3
    return gs + [(R,) * group.d if group.kind == INT_ZD else (R, R, R * R)]


def check_extent(cfg: "ExperimentConfig", task: dict, N: int, where: str) -> None:
    """Refuse, by arithmetic alone, a task whose windows at index N exceed
    `caps.window` (exit 3) or hold a point outside int64 (exit 2)."""
    f, shifts = cfg.folner, _task_shifts(task, cfg.group)
    if f.shape == SHAPE_INTERVAL:
        lo, hi = min(shifts + [0]), max(shifts + [0])
        states = _chain_states(cfg, task.get("system")) if task["task"] == "verify" else 1
        check_window(cfg, N + hi - lo, where, states)
        # the verify orbit reads [start + lo, start + N + hi], one point past the window
        if f.start + lo < INT64_MIN or f.start + N + hi > INT64_MAX:
            raise ConfigError(f"{where}: window [{f.start + lo}, {f.start + N + hi}) "
                              f"leaves the int64 range")
        return
    check_window(cfg, f.size(N), where)
    M = max((abs(c) for g in shifts for c in g), default=0)
    # box: anchor + [0, N) + shift; H3: c < N^2 moved by c0 + a0*b or c0 + a*b0
    reach = max(map(abs, f.anchor)) + N + M if f.shape == SHAPE_BOX else N * N + M * (N + 1)
    if reach > INT64_MAX:
        raise ConfigError(f"{where}: window coordinates reach {reach}, outside the int64 range")


class Workspace:
    """Resolves and memoizes the named objects of a config."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self._built: Dict[tuple, Any] = {}

    def _get(self, kind: str, name: str, build) -> Any:
        """The object named `name` among the config's `kind`s, built once."""
        if (kind, name) not in self._built:
            defs = getattr(self.cfg, kind + "s")
            if name not in defs:
                raise ConfigError(f"undefined {kind} {name!r}")
            self._built[kind, name] = build(defs[name])
        return self._built[kind, name]

    def set_spec(self, name: str) -> setmod.SetSpec:
        return self._get("set", name, lambda d: self._build_set(name, d))

    def system(self, name: str) -> oraclemod.OracleSystem:
        return self._get("system", name, self._build_system)

    def scheme(self, name: str) -> momentmod.AveragingScheme:
        return self._get("scheme", name, self._build_scheme)

    def function(self, name: str) -> momentmod.FunctionSpec:
        return self._get("function", name, self._build_function)

    # -- builders ---------------------------------------------------------

    def _build_set(self, name: str, d: dict) -> setmod.SetSpec:
        rule = _need(d, "rule", f"set {name}")
        if rule == "congruence":
            return setmod.Congruence(int(_need(d, "a", name)), int(_need(d, "m", name)))
        if rule == "rotation":
            return setmod.RotationSet(
                d.get("alpha", "golden"), d.get("beta", 0.5), d.get("x0", 0))
        if rule == "dyadic":
            return setmod.DyadicBlocks()
        if rule == "bitmask":
            lo = int(d.get("lo", 0))
            if "bits" in d:
                bits = [int(b) for b in str(d["bits"])]
            else:
                n = int(_need(d, "n", name))
                check_window(self.cfg, n, f"set {name}")
                if self.cfg.seed is None:
                    raise ConfigError(f"set {name}: random bitmask requires a seed")
                rng = np.random.default_rng(self.cfg.seed)
                bits = rng.integers(0, 2, size=n).tolist()
            return setmod.Bitmask(lo, bits)
        if rule == "complement":
            return self.set_spec(_need(d, "of", name)).complement()
        if rule == "component":
            rules = [None if r is None else (int(r[0]), int(r[1]))
                     for r in _need(d, "rules", name)]
            return setmod.ComponentCongruence(self.cfg.group, rules)
        if rule == "orbit":
            sysname = _need(d, "system", name)
            system = self.system(sysname)
            lo, hi = int(_need(d, "lo", name)), int(_need(d, "hi", name))
            check_window(self.cfg, hi - lo, f"set {name}", _chain_states(self.cfg, sysname))
            if isinstance(system, oraclemod.MarkovSystem):
                if self.cfg.seed is None and "seed" not in d:
                    raise ConfigError(f"set {name}: Markov orbit requires a seed")
                return system.orbit_set(lo, hi, seed=int(d.get("seed", self.cfg.seed)))
            return system.orbit_set(lo, hi, x0=d.get("x0", 0))
        raise ConfigError(f"set {name}: unknown rule {rule!r}")

    def _build_system(self, d: dict) -> oraclemod.OracleSystem:
        kind = _need(d, "kind", "system")
        if kind == "rotation":
            return oraclemod.RotationSystem(d.get("alpha", "golden"), d.get("beta", 0.5))
        if kind == "periodic":
            return oraclemod.PeriodicSystem([int(b) for b in str(_need(d, "pattern", "system"))])
        if kind == "markov":
            return oraclemod.MarkovSystem(
                _need(d, "P", "system"), _need(d, "accept", "system"), d.get("pi"))
        raise ConfigError(f"system: unknown kind {kind!r}")

    def _build_scheme(self, d: dict) -> momentmod.AveragingScheme:
        def table(t):
            return tuple(sorted((int(k), v) for k, v in t.items()))

        wd = d.get("weight", {"kind": "one"})
        nd = d.get("normalizer", {"kind": "one"})
        weight = momentmod.WeightRule(
            wd.get("kind", "one"), rate=float(wd.get("rate", 0.0)),
            table=table(wd["table"]) if "table" in wd else None)
        if nd.get("kind") == "const":
            norm = momentmod.NormalizerRule("const", c=Fraction(str(nd["c"])))
        elif nd.get("kind") == "custom":
            norm = momentmod.NormalizerRule("custom", table=table(nd["table"]))
        else:
            norm = momentmod.NormalizerRule(nd.get("kind", "one"))
        return momentmod.AveragingScheme(self.cfg.folner, weight, norm)

    def _build_function(self, d: dict) -> momentmod.FunctionSpec:
        kind = _need(d, "kind", "function")
        if kind == "exponential":
            return momentmod.ExponentialFn(float(_need(d, "theta", "function")))
        if kind == "indicator":
            return momentmod.IndicatorFn(self.set_spec(_need(d, "set", "function")))
        if kind == "random_disk":
            if self.cfg.seed is None and "seed" not in d:
                raise ConfigError("random_disk function requires a seed")
            return momentmod.RandomDiskFn(int(d.get("seed", self.cfg.seed)))
        raise ConfigError(f"function: unknown kind {kind!r}")


def load_config(path: str, seed_override: Optional[int] = None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except (yaml.YAMLError, ValueError) as e:  # ValueError: int literals over 4300 digits
        raise ConfigError(f"parse error in {path}: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    return parse_config(raw, seed_override=seed_override)


def parse_config(raw: dict, seed_override: Optional[int] = None) -> ExperimentConfig:
    group = _build_group(raw.get("group", {"kind": "Z"}))
    folner = _build_folner(raw.get("folner", {"shape": "interval", "start": 1}), group)
    schedule = (_build_schedule(raw["schedule"]) if "schedule" in raw
                else list(DEFAULT_SCHEDULE))
    seed = seed_override if seed_override is not None else raw.get("seed")
    cfg = ExperimentConfig(
        group=group,
        folner=folner,
        schedule=schedule,
        seed=None if seed is None else int(seed),
        tolerances={**DEFAULT_TOLERANCES, **raw.get("tolerances", {})},
        caps={**DEFAULT_CAPS, **raw.get("caps", {})},
        sets=raw.get("sets", {}) or {},
        systems=raw.get("systems", {}) or {},
        schemes=raw.get("schemes", {}) or {},
        functions=raw.get("functions", {}) or {},
        tasks=raw.get("tasks", []) or [],
    )
    _validate(cfg)
    return cfg


def _complement_cycles(sets: dict) -> None:
    """Refuse a complement set whose `of` chain leads back into itself."""
    for name in sets:
        chain = [name]
        while True:
            d = sets.get(chain[-1])
            of = d.get("of") if isinstance(d, dict) and d.get("rule") == "complement" else None
            if not isinstance(of, Hashable) or of not in sets:
                break
            if of in chain:
                cycle = " -> ".join(map(str, chain[chain.index(of):] + [of]))
                raise ConfigError(f"set {chain[0]}: complement cycle {cycle}")
            chain.append(of)


def _validate(cfg: ExperimentConfig) -> None:
    _complement_cycles(cfg.sets)
    for i, task in enumerate(cfg.tasks):
        where = f"task {i}"
        if not isinstance(task, dict):
            raise ConfigError(f"{where}: must be a mapping")
        kind = _need(task, "task", where)
        if kind not in _TASK_KEYS:
            raise ConfigError(f"{where}: unknown task {kind!r}")
        for key in _TASK_KEYS[kind]:
            _need(task, key, where)
        eps = task.get("eps", 1)
        try:
            ok = not isinstance(eps, bool) and float(eps) > 0
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise ConfigError(f"{where}: eps must be positive, got {eps!r}")
        for key, least in (("N", 1), ("H", 0)):
            v = task.get(key, least)
            if isinstance(v, bool) or not isinstance(v, int) or v < least:
                raise ConfigError(f"{where}: {key} must be an integer >= {least}, got {v!r}")
        # the runner reads these with int(); .inf would overflow there
        for key in ("radius", "depth", "conj_depth", "seed"):
            try:
                int(task.get(key, 0))
            except (TypeError, ValueError, OverflowError):
                raise ConfigError(f"{where}: {key} must be an integer, got {task[key]!r}") from None
        # a task runs at one index N or over a schedule, never both
        largest = task["N"] if "N" in task else max(task_schedule(task, cfg), default=0)
        if largest:
            check_extent(cfg, task, largest, where)
        for key in ("set", "set1", "set2"):
            if key in task and task[key] not in cfg.sets:
                raise ConfigError(f"{where}: undefined set {task[key]!r}")
        if "system" in task and task["system"] not in cfg.systems:
            raise ConfigError(f"{where}: undefined system {task['system']!r}")
        if "scheme" in task and task["scheme"] not in cfg.schemes:
            raise ConfigError(f"{where}: undefined scheme {task['scheme']!r}")
        for fname in task.get("family", []):
            if fname not in cfg.functions:
                raise ConfigError(f"{where}: undefined function {fname!r}")
