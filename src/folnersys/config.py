"""Declarative experiment configuration.

One YAML file defines the group, the Folner shape, named sets / oracle
systems / averaging schemes / functions, a schedule, tolerances, caps, and
an ordered task list.  `parse_task` converts each task's values once;
validation and the runner both read its result, so a typo or a value of
the wrong type fails before any computation starts.
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
from .spectrum import CONSISTENT, DISTINGUISHED

# libyaml's loader, when PyYAML was built with it: it gives the objects the pure-Python
# loader gives, about six times faster, but its first use pages in about 0.15 MB of
# code, so it reads only configs of at least this many bytes
_LIBYAML = getattr(yaml, "CSafeLoader", None)
_LIBYAML_MIN_BYTES = 1 << 14

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
# task keys read as integers -> the least value allowed, if any
_INT_KEYS = {"N": 1, "H": 0, "radius": None, "depth": None, "conj_depth": None, "seed": None}
# (task kind, key) -> the only values the runner reads that key as
_CHOICES = {("cylinders", "patterns"): (True, False), ("accordance", "expect"): (True, False),
            ("compare", "expect"): (CONSISTENT, DISTINGUISHED)}
# task keys naming a config entry -> the config section defining it
_NAME_KEYS = dict(set="sets", set1="sets", set2="sets", system="systems", scheme="schemes")


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


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _as_int(value, what: str) -> int:
    """int(value) of a named entry's parameter; a list, null or .inf is a ValueError."""
    try:
        return int(value)
    except (TypeError, OverflowError):
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _need(d: dict, key: str, where: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: must be a mapping, got {d!r}")
    if key not in d:
        raise ConfigError(f"{where}: missing key {key!r}")
    return d[key]


def _build_group(d: dict) -> GroupSpec:
    kind = _need(d, "kind", "group")
    if kind == "Z":
        return GroupSpec(INT_Z)
    if kind == "Zd":
        dim = _need(d, "d", "group")
        if not _is_int(dim) or dim < 1:
            raise ConfigError(f"group: d must be an integer >= 1, got {dim!r}")
        return GroupSpec(INT_ZD, dim)
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
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"folner: {e}") from e
    raise ConfigError(f"folner: unknown shape {shape!r}")


def _build_schedule(node) -> List[int]:
    if isinstance(node, dict) and "dyadic" in node:
        d = node["dyadic"]
        lo, hi = (d.get(k) if isinstance(d, dict) else None for k in ("min_exp", "max_exp"))
        # indices stay in the int64 range
        if not (_is_int(lo) and _is_int(hi) and 0 <= lo <= hi <= 62):
            raise ConfigError("dyadic schedule needs 0 <= min_exp <= max_exp <= 62, "
                              f"got {d!r}")
        return [1 << k for k in range(lo, hi + 1)]
    if isinstance(node, list):
        if not all(_is_int(x) and x >= 1 for x in node):
            raise ConfigError(f"schedule indices must be integers >= 1, got {node!r}")
        if not node:
            raise ConfigError("schedule must be nonempty")
        if node != sorted(set(node)):
            raise ConfigError("schedule must be strictly increasing")
        return list(node)
    raise ConfigError("schedule must be a list or a dyadic range")


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


def _task_shifts(t: dict, group: GroupSpec) -> list:
    """Each element a parsed task moves its window by, a ball by its extreme ones."""
    kind = t["task"]
    gs = list(t["shifts"]) + [t[k] for k in ("element", "shift") if k in t]
    for q in t["queries"]:
        gs += [g for _, _, g in q] if "family" in _TASK_KEYS[kind] else q
    gs += [h for h, _ in t["cylinder"]]
    if "shift" in t:
        gs += [group.mul(t["shift"], h) for h, _ in t["cylinder"]]
    R = max(0, t.get("H" if kind == "pair_correlation" else "radius", 0))
    if group.kind == INT_Z:
        return gs + [R, 0 if kind in ("spectrum", "compare") else -R]
    # no word of length R moves a coordinate further than R, or R^2 for c on H3
    return gs + [(R,) * group.d if group.kind == INT_ZD else (R, R, R * R)]


def check_extent(cfg: "ExperimentConfig", t: dict, N: int, where: str) -> None:
    """Refuse, by arithmetic alone, a parsed task whose windows at index N
    exceed `caps.window` (exit 3) or hold a point outside int64 (exit 2)."""
    f, shifts = cfg.folner, _task_shifts(t, cfg.group)
    if f.shape == SHAPE_INTERVAL:
        lo, hi = min(shifts + [0]), max(shifts + [0])
        states = _chain_states(cfg, t["system"]) if t["task"] == "verify" else 1
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
        return self._get("scheme", name, lambda d: self._build_scheme(name, d))

    def function(self, name: str) -> momentmod.FunctionSpec:
        return self._get("function", name, self._build_function)

    # -- builders ---------------------------------------------------------

    def _build_set(self, name: str, d: dict) -> setmod.SetSpec:
        rule = _need(d, "rule", f"set {name}")
        if rule == "congruence":
            a, m = _need(d, "a", name), _need(d, "m", name)
            return setmod.Congruence(_as_int(a, "a"), _as_int(m, "m"))
        if rule == "rotation":
            return setmod.RotationSet(
                d.get("alpha", "golden"), d.get("beta", 0.5), d.get("x0", 0))
        if rule == "dyadic":
            return setmod.DyadicBlocks()
        if rule == "bitmask":
            lo = _as_int(d.get("lo", 0), "lo")
            if "bits" in d:
                bits = [int(b) for b in str(d["bits"])]
            else:
                n = _as_int(_need(d, "n", name), "n")
                check_window(self.cfg, n, f"set {name}")
                if self.cfg.seed is None:
                    raise ConfigError(f"set {name}: random bitmask requires a seed")
                rng = np.random.default_rng(self.cfg.seed)
                bits = rng.integers(0, 2, size=n).tolist()
            return setmod.Bitmask(lo, bits)
        if rule == "complement":
            return self.set_spec(_need(d, "of", name)).complement()
        if rule == "component":
            return setmod.ComponentCongruence(self.cfg.group, _need(d, "rules", name))
        if rule == "orbit":
            sysname = _need(d, "system", name)
            system = self.system(sysname)
            lo, hi = _as_int(_need(d, "lo", name), "lo"), _as_int(_need(d, "hi", name), "hi")
            check_window(self.cfg, hi - lo, f"set {name}", _chain_states(self.cfg, sysname))
            if isinstance(system, oraclemod.MarkovSystem):
                if self.cfg.seed is None and "seed" not in d:
                    raise ConfigError(f"set {name}: Markov orbit requires a seed")
                return system.orbit_set(lo, hi, seed=_as_int(d.get("seed", self.cfg.seed), "seed"))
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

    def _build_scheme(self, name: str, d) -> momentmod.AveragingScheme:
        where = f"scheme {name}"
        if not isinstance(d, dict):
            raise ConfigError(f"{where}: must be a mapping, got {d!r}")

        def rule(key: str) -> dict:
            node = d.get(key, {"kind": "one"})
            if not isinstance(node, dict):
                raise ConfigError(f"{where}: {key} must be a mapping, got {node!r}")
            return node

        def table(node: dict, key: str) -> tuple:
            t = _need(node, "table", f"{where}: {key}")
            if not isinstance(t, dict):
                raise ConfigError(f"{where}: {key} table must be a mapping, got {t!r}")
            return tuple(sorted((_as_int(k, f"{key} table key"), v) for k, v in t.items()))

        wd, nd = rule("weight"), rule("normalizer")
        try:
            rate = float(wd.get("rate", 0.0))
        except (TypeError, ValueError):
            raise ConfigError(f"{where}: weight rate must be a number, "
                              f"got {wd['rate']!r}") from None
        weight = momentmod.WeightRule(
            wd.get("kind", "one"), rate=rate,
            table=table(wd, "weight") if wd.get("kind") == "custom" else None)
        if nd.get("kind") == "const":
            norm = momentmod.NormalizerRule(
                "const", c=Fraction(str(_need(nd, "c", f"{where}: normalizer"))))
        elif nd.get("kind") == "custom":
            norm = momentmod.NormalizerRule("custom", table=table(nd, "normalizer"))
        else:
            norm = momentmod.NormalizerRule(nd.get("kind", "one"))
        return momentmod.AveragingScheme(self.cfg.folner, weight, norm)

    def _build_function(self, d: dict) -> momentmod.FunctionSpec:
        kind = _need(d, "kind", "function")
        if kind == "exponential":
            return momentmod.ExponentialFn(_need(d, "theta", "function"))
        if kind == "indicator":
            return momentmod.IndicatorFn(self.set_spec(_need(d, "set", "function")))
        if kind == "random_disk":
            if self.cfg.seed is None and "seed" not in d:
                raise ConfigError("random_disk function requires a seed")
            return momentmod.RandomDiskFn(_as_int(d.get("seed", self.cfg.seed), "seed"))
        raise ConfigError(f"function: unknown kind {kind!r}")


def load_config(path: str, seed_override: Optional[int] = None) -> ExperimentConfig:
    try:
        with open(path, "rb") as fh:  # bytes: YAML detects its own encoding
            text = fh.read()
        fast = _LIBYAML is not None and len(text) >= _LIBYAML_MIN_BYTES
        raw = yaml.load(text, Loader=_LIBYAML if fast else yaml.SafeLoader)
    except (yaml.YAMLError, ValueError) as e:  # ValueError: int literals over 4300 digits
        raise ConfigError(f"parse error in {path}: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    return parse_config(raw, seed_override=seed_override)


def _section(raw: dict, key: str, default, kind: type = dict):
    """The top-level section `key`, absent or null giving `default`."""
    node = raw.get(key)
    if node is None:
        return default
    if not isinstance(node, kind):
        raise ConfigError(f"{key} must be a {'mapping' if kind is dict else 'list'}, got {node!r}")
    return node


def parse_config(raw: dict, seed_override: Optional[int] = None) -> ExperimentConfig:
    group = _build_group(_section(raw, "group", {"kind": "Z"}))
    folner = _build_folner(_section(raw, "folner", {"shape": "interval", "start": 1}), group)
    schedule = (_build_schedule(raw["schedule"]) if "schedule" in raw
                else list(DEFAULT_SCHEDULE))
    seed = seed_override if seed_override is not None else raw.get("seed")
    if seed is not None and not _is_int(seed):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    caps = {**DEFAULT_CAPS, **_section(raw, "caps", {})}
    for key, cap in caps.items():
        if not _is_int(cap):
            raise ConfigError(f"caps: {key} must be an integer, got {cap!r}")
    cfg = ExperimentConfig(
        group=group,
        folner=folner,
        schedule=schedule,
        seed=seed,
        tolerances={**DEFAULT_TOLERANCES, **_section(raw, "tolerances", {})},
        caps=caps,
        sets=_section(raw, "sets", {}),
        systems=_section(raw, "systems", {}),
        schemes=_section(raw, "schemes", {}),
        functions=_section(raw, "functions", {}),
        tasks=_section(raw, "tasks", [], list),
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


def parse_task(task, cfg: ExperimentConfig, where: str) -> dict:
    """The task with each value the runner reads converted, once: ints, numbers, the
    schedule, group elements, moment factors, cylinder constraints; names checked."""
    group = cfg.group

    def fail(message):
        raise ConfigError(f"{where}: {message}")

    def seq(node, key, what):
        return node if isinstance(node, (list, tuple)) else \
            fail(f"{key} must be a list of {what}, got {node!r}")

    def convert(v, to, what):
        try:
            return to(None if isinstance(v, bool) else v)
        except (TypeError, ValueError):
            fail(f"{what}, got {v!r}")

    def element(node):
        g = tuple(node) if isinstance(node, list) else node
        return g if group.contains(g) else \
            fail(f"{node!r} is not an element of group {group.kind}")

    def factor(node):
        if not (isinstance(node, (list, tuple)) and len(node) == 3 and _is_int(node[0])
                and node[1] in (True, False)):
            fail(f"a moment factor is [index, true or false, element], got {node!r}")
        return node[0], bool(node[1]), element(node[2])

    def constraint(node):
        if not (isinstance(node, (list, tuple)) and len(node) == 2 and _is_int(node[1])
                and node[1] in (0, 1)):
            fail(f"a cylinder constraint is [element, 0 or 1], got {node!r}")
        return element(node[0]), node[1]

    kind = _need(task, "task", where)
    if not isinstance(kind, str) or kind not in _TASK_KEYS:
        fail(f"unknown task {kind!r}")
    for key in _TASK_KEYS[kind]:
        _need(task, key, where)
    for key, least in _INT_KEYS.items():
        if key in task and not (_is_int(task[key]) and (least is None or task[key] >= least)):
            fail(f"{key} must be an integer{'' if least is None else f' >= {least}'}, "
                 f"got {task[key]!r}")
    for (k, key), values in _CHOICES.items():
        if k == kind and key in task and not any(
                type(task[key]) is type(v) and task[key] == v for v in values):
            names = " or ".join(str(v).lower() if isinstance(v, bool) else v for v in values)
            fail(f"{key} must be {names}, got {task[key]!r}")
    t = dict(task)
    t["eps"] = convert(task.get("eps", 0.05), float, "eps must be positive")
    if not t["eps"] > 0:
        fail(f"eps must be positive, got {task['eps']!r}")
    if "tol" in task:
        t["tol"] = convert(task["tol"], float, "tol must be a number")
    if "oracle_thetas" in task:
        t["oracle_thetas"] = [convert(x, float, "oracle_thetas must be numbers") for x in
                              seq(task["oracle_thetas"], "oracle_thetas", "numbers")]
    if kind == "upper_density":
        t["tau"] = convert(task.get("tau", cfg.tolerances["tau"]), lambda x: Fraction(str(x)),
                           "tau must be a number")
    try:
        t["schedule"] = _build_schedule(task["schedule"]) if "schedule" in task else cfg.schedule
    except ConfigError as e:
        fail(e)
    t["shifts"] = tuple(map(element, seq(task.get("shifts", [group.identity()]), "shifts",
                                         "group elements")))
    # the queries of a task over a function family are moment factor lists
    item = factor if "family" in _TASK_KEYS[kind] else element
    t["queries"] = [tuple(map(item, seq(q, "a query", "factors or elements")))
                    for q in seq(task.get("queries", []), "queries", "queries")]
    if kind == "verify" and not (t["queries"] and all(t["queries"])):
        fail(f"queries must be a nonempty list of nonempty queries, got {task['queries']!r}")
    t.update((key, element(task[key])) for key in ("element", "shift") if key in task)
    t["cylinder"] = [constraint(c) for c in
                     seq(task.get("cylinder", ()), "cylinder", "[element, polarity] pairs")]
    if kind == "moments":
        t.setdefault("scheme", next(iter(cfg.schemes), ""))
    for key, section in _NAME_KEYS.items():
        if key in t and not (isinstance(t[key], Hashable) and t[key] in getattr(cfg, section)):
            fail(f"undefined {section[:-1]} {t[key]!r}")
    for name in seq(task.get("family", []), "family", "function names"):
        if not (isinstance(name, Hashable) and name in cfg.functions):
            fail(f"undefined function {name!r}")
    return t


def _validate(cfg: ExperimentConfig) -> None:
    _complement_cycles(cfg.sets)
    for i, task in enumerate(cfg.tasks):
        where = f"task {i}"
        t = parse_task(task, cfg, where)
        # a task runs at one index N or over a schedule, never both
        check_extent(cfg, t, t["N"] if "N" in t else max(t["schedule"]), where)
