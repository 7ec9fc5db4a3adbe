"""Declarative experiment configuration.

One YAML file defines the group, the Folner shape, named sets / oracle
systems / averaging schemes / functions, a schedule, tolerances, caps, and
an ordered task list.  `schema.parse_task` converts each task's values once,
by the table of the keys its kind reads, and refuses any other key;
validation and the runner both read its result, so a typo, a misspelled
key or a value of the wrong type fails before any computation starts.
"""
from __future__ import annotations

import numbers
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
from .schema import _build_schedule, _is_int, _need, _task_shifts, parse_task
from .spectrum import TUPLE_CAP, check_subset_count

# libyaml's loader, when PyYAML was built with it: it gives the objects the pure-Python
# loader gives, about six times faster, but its first use pages in about 0.15 MB of
# code, so it reads only configs of at least this many bytes
_LIBYAML = getattr(yaml, "CSafeLoader", None)
_LIBYAML_MIN_BYTES = 1 << 14


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


def _as_int(value, what: str) -> int:
    """A named entry's integer parameter: an int, or a numpy int from a config built in
    Python.  A bool, a float or a string is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


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


def check_extent(cfg: "ExperimentConfig", t: dict, N: int, where: str) -> None:
    """Refuse, by arithmetic alone, a parsed task whose windows at index N
    exceed `caps.window` (exit 3) or hold a point outside int64 (exit 2)."""
    f, shifts = cfg.folner, _task_shifts(t, cfg.group)
    if f.shape == SHAPE_INTERVAL:
        lo, hi = min(shifts + [0]), max(shifts + [0])
        check_window(cfg, N + hi - lo, where, _chain_states(cfg, t.get("system")))
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
        if not isinstance(name, Hashable) or (kind, name) not in self._built:
            defs = getattr(self.cfg, kind + "s")
            if not (isinstance(name, Hashable) and name in defs):
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
                bits = np.random.default_rng(self.cfg.seed).integers(0, 2, size=n).astype(bool)
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


def _validate(cfg: ExperimentConfig) -> None:
    _complement_cycles(cfg.sets)
    for i, task in enumerate(cfg.tasks):
        where = f"task {i}"
        t = parse_task(task, cfg, where)
        if "H" in t:  # pair correlation counts one window per shift of its ball
            check_subset_count(f"{where}: shift", cfg.group.ball_size(t["H"], TUPLE_CAP), 1,
                               TUPLE_CAP)
        # a task runs at one index N or over a schedule, never both
        check_extent(cfg, t, t["N"] if "N" in t else max(t["schedule"]), where)
