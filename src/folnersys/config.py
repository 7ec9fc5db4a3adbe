"""Declarative experiment configuration.

One YAML file defines the group, the Folner shape, named sets / oracle
systems / averaging schemes / functions, a schedule, tolerances, caps, and
an ordered task list.  `schema.parse_node` reads every node of it, the top level,
each section, named entry and task, by the table of the keys its kind reads, and
refuses any other key; the tables of the config and its entries are here, those of
tasks in `schema`.  Every entry and task is parsed and checked before any task runs,
so a typo, a misspelled key or a value of the wrong type fails before any computation
starts.  Validation keeps each entry's parsed node and builds every entry that needs
no window, sampling or other entry; a run's `Workspace` starts from those objects and
builds the others from their nodes, so no entry is parsed or built twice.
"""
from __future__ import annotations

import hashlib
import importlib.util
import marshal
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, List, Optional

from ._numpy import np
from .errors import CapExceededError, ConfigError
from .groups import (GroupSpec, FolnerSpec, HEISENBERG3, INT_Z, INT_ZD, SHAPE_BOX,
                     SHAPE_HEISENBERG_BOX, SHAPE_INTERVAL)
from . import sets as setmod
from . import oracles as oraclemod
from . import moments as momentmod
from .density import _require_abelian, check_set_group
from .schema import (_ANY, _INT, _OMIT, _SEQ, _SET, _build_schedule, _int, _name, _ok,
                     _real, _task_shifts, parse_node, parse_task)
from .cylinders import check_cylinder_count
from .spectrum import TUPLE_CAP, check_subset_count, check_tuple_count

_DRAW_CHUNK = 1 << 16  # draws per call for a random bitmask


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
    # filled by validation, keyed by (kind, name): each named entry's parsed node, and
    # the object built from it when it needs no window, sampling or other entry
    nodes: Dict[tuple, dict] = field(default_factory=dict, init=False, repr=False)
    built: Dict[tuple, Any] = field(default_factory=dict, init=False, repr=False,
                                    compare=False)


def check_window(cfg: "ExperimentConfig", n: int, where: str) -> None:
    """Refuse, before anything is allocated, a window of n elements over the cap."""
    cap = cfg.caps["window"]
    if n > cap:
        size = n if n < 1 << 64 else f"over 2^{n.bit_length() - 1}"
        raise CapExceededError(f"{where}: window of {size} elements exceeds cap {cap}")


INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1


def check_extent(cfg: "ExperimentConfig", t: dict, N: int, where: str) -> None:
    """Refuse, by arithmetic alone, a parsed task whose windows at index N exceed
    `caps.window` (exit 3) or hold a point outside int64 (exit 2)."""
    f, shifts = cfg.folner, _task_shifts(t, cfg.group)
    if t.get("patterns"):  # one int8 entry per point of F_N and element of the ball; the
        # ball is counted up to the cylinder cap, which refuses a larger one when the task runs
        size, caps = f.size(N), cfg.caps
        ball = cfg.group.ball_size(t["radius"], min(caps["window"] // size, caps["cylinders"]))
        check_window(cfg, size * ball, where)
    if f.shape == SHAPE_INTERVAL:
        lo, hi = min(shifts + [0]), max(shifts + [0])
        check_window(cfg, N + hi - lo, where)
        # a verify orbit spans [start + lo, start + N + hi), the windows its rows read
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


# The rules of the config's nodes, as in `schema`: a parameter a constructor checks
# is passed as given (_ANY), and each default is the one a config without the key reads.
_SEED = (*_INT, lambda cfg: _OMIT if cfg.seed is None else cfg.seed)
_BITS = ("a quoted string of 0s and 1s",
         lambda v, cfg: tuple(map(int, _ok(v, isinstance(v, str) and set(v) <= set("01")))))
# a value is kept as given, so an int table keeps its exact sums; an int too large for
# a float is refused with the rest
_TABLE = ("a mapping of integers to finite numbers",
          lambda v, cfg: tuple(sorted(
              (_INT[1](k, cfg), _ok(x, isinstance(x, numbers.Real) and not isinstance(x, bool)
                                    and math.isfinite(x)))
              for k, x in _ok(v, isinstance(v, dict)).items())))


def _node(table: dict, where: str, tag=None, default=None) -> tuple:
    """The rule of a key whose value is a node of its own, absent reading as {}."""
    return "a mapping", lambda v, cfg: parse_node(v, table, cfg, where, tag, default), {}


def _mapping(default) -> tuple:
    return "a mapping", lambda v, cfg: _ok(v, isinstance(v, dict)), default


_SETS = {
    "congruence": dict(a=_INT, m=_INT),
    "rotation": dict(alpha=(*_ANY, "golden"), beta=(*_ANY, 0.5), x0=(*_ANY, 0)),
    "dyadic": {},
    # exactly one of bits and n: a random bitmask of n points drawn from the config's seed
    "bitmask": dict(lo=(*_INT, 0), bits=(*_BITS, _OMIT), n=(*_INT, _OMIT)),
    "complement": dict(of=_SET),
    "component": dict(rules=_ANY),
    "orbit": dict(system=("a system name", _name("systems")), lo=_INT, hi=_INT,
                  x0=(*_ANY, 0), seed=_SEED),
}
_SYSTEMS = {
    "rotation": dict(alpha=(*_ANY, "golden"), beta=(*_ANY, 0.5)),
    "periodic": dict(pattern=_BITS),
    "markov": dict(P=_ANY, accept=_ANY, pi=(*_ANY, None)),
}
_FUNCTIONS = {
    "exponential": dict(theta=_ANY),
    "indicator": dict(set=_SET),
    "random_disk": dict(seed=_SEED),
}


def _rate(v, cfg) -> float:
    """An exp_decay rate: exp(-rate |n|) is a weight for a finite rate of at least 0."""
    x = _real(v)
    if math.isfinite(x) and x >= 0:
        return x
    raise ConfigError(f"rate must be finite and at least 0, got {v!r}")


_WEIGHTS = {"one": {}, "linear": {}, "custom": dict(table=_TABLE),
            "exp_decay": dict(rate=("a number", _rate, 0.0))}
_NORMALIZERS = {"one": {}, "linear_mean": {}, "custom": dict(table=_TABLE),
                "const": dict(c=("a number", lambda v, cfg: Fraction(str(v))))}
_SCHEME = dict(weight=_node(_WEIGHTS, "weight", "kind", "one"),
               normalizer=_node(_NORMALIZERS, "normalizer", "kind", "one"))
# the table and the tag of each kind of named entry, systems first: an orbit set reads its system
_ENTRIES = {"system": (_SYSTEMS, "kind"), "set": (_SETS, "rule"), "scheme": (_SCHEME, None),
            "function": (_FUNCTIONS, "kind")}

# parsed first, the group is the context of the Folner shape
_GROUPS = {INT_Z: {}, INT_ZD: dict(d=_int(1)), HEISENBERG3: {}}
_FOLNERS = {
    SHAPE_INTERVAL: dict(start=(*_INT, 0)),
    SHAPE_BOX: dict(anchor=("a list of integers",
                            lambda v, g: tuple(_INT[1](a, g) for a in _ok(v, isinstance(v, _SEQ))),
                            lambda g: (0,) * g.d)),
    SHAPE_HEISENBERG_BOX: {},
}


def _number(v, cfg):
    """A number, as given: a task reads it as `Fraction(str(v))`."""
    Fraction(str(v))
    return v


_CONFIG = dict(
    group=_mapping({"kind": INT_Z}),
    folner=_mapping({"shape": SHAPE_INTERVAL, "start": 1}),
    schedule=("a schedule", lambda v, cfg: _build_schedule(v), [1 << k for k in range(10, 21)]),
    seed=(*_INT, _OMIT),
    tolerances=_node(dict(tau=("a number", _number, 1e-3)), "tolerances"),
    caps=_node(dict(cylinders=(*_INT, 20000), window=(*_INT, 1 << 26)), "caps"),
    sets=_mapping({}), systems=_mapping({}), schemes=_mapping({}), functions=_mapping({}),
    tasks=("a list", lambda v, cfg: _ok(v, isinstance(v, list)), []),
)


class Workspace:
    """The named objects of one run.  It starts from those validation built
    (`ExperimentConfig.built`: every system and scheme, and each set and function that
    needs no window or other entry) and builds each of the others, bitmasks, orbit sets,
    complements and indicators, from its parsed node on first use."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self._built: Dict[tuple, Any] = dict(cfg.built)

    def _get(self, kind: str, name: str, build) -> Any:
        """The object named `name` among the config's `kind`s, built once."""
        if (kind, name) not in self._built:
            self._built[kind, name] = build(self.cfg.nodes[kind, name])
        return self._built[kind, name]

    def set_spec(self, name: str) -> setmod.SetSpec:
        return self._get("set", name, self._build_set)

    def system(self, name: str) -> oraclemod.OracleSystem:
        return self._built["system", name]

    def scheme(self, name: str) -> momentmod.AveragingScheme:
        return self._built["scheme", name]

    def function(self, name: str) -> momentmod.FunctionSpec:
        return self._get("function", name,
                         lambda d: momentmod.IndicatorFn(self.set_spec(d["set"])))

    def _build_set(self, d: dict) -> setmod.SetSpec:
        if d["rule"] == "complement":
            return self.set_spec(d["of"]).complement()
        if d["rule"] == "orbit":
            system = self.system(d["system"])
            return system.orbit_set(d["lo"], d["hi"], d[system.start_key])
        if "bits" in d:
            return setmod.Bitmask(d["lo"], d["bits"])
        # drawn in chunks, so no int64 array of n draws is held; the generator keeps
        # the unused half of a 64-bit output between calls (`has_uint32` in its
        # state), so the chunks give the bits of one call
        rng, n = np.random.default_rng(self.cfg.seed), d["n"]
        bits = np.empty(n, dtype=bool)
        for i in range(0, n, _DRAW_CHUNK):
            bits[i:i + _DRAW_CHUNK] = rng.integers(0, 2, size=min(_DRAW_CHUNK, n - i))
        return setmod.Bitmask(d["lo"], bits)


# the constructor of each kind of entry that validation builds, from its own values alone
_MAKERS = {("set", "congruence"): setmod.Congruence, ("set", "rotation"): setmod.RotationSet,
           ("set", "dyadic"): setmod.DyadicBlocks,
           ("set", "component"): setmod.ComponentCongruence,
           ("system", "rotation"): oraclemod.RotationSystem,
           ("system", "periodic"): oraclemod.PeriodicSystem,
           ("system", "markov"): oraclemod.MarkovSystem,
           ("function", "exponential"): momentmod.ExponentialFn,
           ("function", "random_disk"): momentmod.RandomDiskFn}


def yaml_identity() -> bytes:
    """The bytes of PyYAML's `__init__.py`, which holds its version, read without
    importing yaml."""
    return Path(importlib.util.find_spec("yaml").origin).read_bytes()


def _parse_yaml(text: bytes, path: str):
    import yaml  # only here: a rerun served by the blob never loads PyYAML
    try:
        return yaml.load(text, Loader=yaml.SafeLoader)
    except (yaml.YAMLError, ValueError) as e:  # ValueError: int literals over 4300 digits
        raise ConfigError(f"parse error in {path}: {e}") from e


def load_config(path: str, seed_override: Optional[int] = None,
                cache_dir: Optional[str] = None,
                tasks: Optional[List[dict]] = None) -> ExperimentConfig:
    """The config in the YAML file at path, parsed and validated; `tasks`, when given,
    replaces the file's task list, which is then neither read nor validated.  With
    `cache_dir`, YAML's mapping of the file is read from a marshal blob there when one
    holds it, and stored there once `parse_config` accepts it, under a key of the
    file's bytes, PyYAML's identity (`yaml_identity`), the marshal version and
    `source_digest`."""
    # imported on first use: imported at the top, before this module's body runs, the
    # cache module shifted the allocator's layout and raised a run's peak memory by
    # 0.1 to 0.3 MB
    from .cache import get_blob, put_blob, source_digest
    blob = None
    with open(path, "rb") as fh:  # bytes: YAML detects its own encoding
        text = fh.read()
    if cache_dir:
        key = hashlib.sha256(text + repr(
            (yaml_identity(), marshal.version, source_digest())).encode()).hexdigest()
        blob = get_blob(cache_dir, key)
    raw = blob if blob is not None else _parse_yaml(text, path)
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    cfg = parse_config(raw if tasks is None else {**raw, "tasks": tasks},
                       seed_override=seed_override)
    if cache_dir and blob is None:
        put_blob(cache_dir, key, raw)
    return cfg


def parse_config(raw: dict, seed_override: Optional[int] = None) -> ExperimentConfig:
    # a null top-level section reads as an absent one
    c = parse_node({k: v for k, v in raw.items() if v is not None}, _CONFIG, None, "")
    group = GroupSpec(**parse_node(c["group"], _GROUPS, None, "group", "kind"))
    f = parse_node(c["folner"], _FOLNERS, group, "folner", "shape")
    try:
        folner = FolnerSpec(group, **f)
    except ValueError as e:  # a shape of another group
        raise ConfigError(f"folner: {e}") from e
    cfg = ExperimentConfig(**{**c, "group": group, "folner": folner, "seed": (
        seed_override if seed_override is not None else c.get("seed"))})
    _validate(cfg)
    return cfg


def _complement_cycles(sets: dict) -> None:
    """Refuse a complement set whose `of` chain leads back into itself; each set has
    been parsed, so each `of` names a set."""
    for name in sets:
        chain = [name]
        while sets[chain[-1]]["rule"] == "complement":
            of = sets[chain[-1]]["of"]
            if of in chain:
                cycle = " -> ".join(map(str, chain[chain.index(of):] + [of]))
                raise ConfigError(f"set {chain[0]}: complement cycle {cycle}")
            chain.append(of)


def _check_entry(cfg: ExperimentConfig, kind: str, name, d: dict):
    """Every check that building the parsed entry d makes, run whether a task uses it
    or not, with no window built, no bit drawn and no orbit sampled (an orbit reads
    its system from `cfg.built`).  Returns d built when it needs no window or other
    entry, else None."""
    where, rule = f"{kind} {name}", d.get("rule")
    if rule == "bitmask" and ("bits" in d) == ("n" in d):
        raise ConfigError(f"{where}: a bitmask reads exactly one of bits and n")
    if "n" in d:
        check_window(cfg, d["n"], where)
        if cfg.seed is None:
            raise ConfigError(f"{where}: random bitmask requires a seed")
    if rule == "orbit":
        system = cfg.built["system", d["system"]]
        check_window(cfg, d["hi"] - d["lo"], where)
        if system.start_key not in d:  # x0 has a default; a seed only the config's
            raise ConfigError(f"{where}: Markov orbit requires a seed")
    if d.get("kind") == "random_disk" and "seed" not in d:
        raise ConfigError(f"{where}: random_disk requires a seed")
    if kind == "scheme":
        return momentmod.AveragingScheme(cfg.folner, momentmod.WeightRule(**d["weight"]),
                                         momentmod.NormalizerRule(**d["normalizer"]))
    tag = _ENTRIES[kind][1]
    make, args = _MAKERS.get((kind, d[tag])), {k: v for k, v in d.items() if k != tag}
    try:
        return make and (make(cfg.group, **args) if make is setmod.ComponentCongruence
                         else make(**args))
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from None


def _task_sets(cfg: ExperimentConfig, t: dict) -> list:
    """The name of each set the parsed task t reads: those it names and the set of each
    indicator its queries read."""
    fns = {t["family"][i - 1] for q in t["queries"] for i, _, _ in q} if "family" in t else ()
    return [t[k] for k in ("set", "set1", "set2") if k in t] + [
        cfg.nodes["function", n]["set"] for n in fns
        if cfg.nodes["function", n]["kind"] == "indicator"]


def _validate(cfg: ExperimentConfig) -> None:
    """Parse and check every named entry, keeping its node and, when it needs no window
    or other entry, the object built from it (`ExperimentConfig.nodes` and `built`);
    then check every task."""
    for kind, (table, tag) in _ENTRIES.items():
        for name, node in getattr(cfg, kind + "s").items():
            d = cfg.nodes[kind, name] = parse_node(node, table, cfg, f"{kind} {name}", tag)
            obj = _check_entry(cfg, kind, name, d)
            if obj is not None:
                cfg.built[kind, name] = obj
    _complement_cycles(cfg.sets)
    for i, task in enumerate(cfg.tasks):
        where = f"task {i}"
        t = parse_task(task, cfg, where)
        if "H" in t:  # pair correlation counts one window per shift of its ball
            check_subset_count(f"{where}: shift", cfg.group.ball_size(t["H"], TUPLE_CAP), 1,
                               TUPLE_CAP)
        if t["task"] in ("spectrum", "compare"):
            check_tuple_count(cfg.group, t["depth"], t["radius"], f"{where}: tuple")
        if t["task"] == "cylinders":  # ahead of the observed-pattern window, which
            # counts the ball no further than the cylinder cap
            check_cylinder_count(cfg.group, t["radius"], t["depth"], cfg.caps["cylinders"],
                                 f"{where}: cylinder")
        if t["task"] == "accordance":
            momentmod.check_variant_count(t["queries"], t["conj_depth"],
                                          f"{where}: conjugation variant")
        try:  # the checks the task makes when it runs, in its order
            if t["task"] == "pair_correlation":
                _require_abelian(cfg.folner)
            queries, Ns = t.get("queries", ()), [t["N"]] if "N" in t else t.get("schedule")
            for q in queries if "family" in t else ():
                momentmod._check_query(t["family"], q)
            scheme = cfg.built["scheme", t["scheme"]] if "scheme" in t else None
            if "family" in t:  # an indicator, not built here, reads as None
                momentmod.check_moment_reads(
                    [cfg.built.get(("function", n)) for n in t["family"]], queries, scheme, Ns)
            elif scheme:  # normcheck
                for N in Ns:
                    momentmod.check_scheme(scheme, N)
            for name in _task_sets(cfg, t) if cfg.group.kind != INT_Z else ():
                while cfg.nodes["set", name]["rule"] == "complement":
                    name = cfg.nodes["set", name]["of"]
                if cfg.nodes["set", name]["rule"] != "component":  # a set on Z
                    check_set_group(GroupSpec(INT_Z), cfg.folner)
            for q in queries if "oracle_thetas" in t else ():
                momentmod.exponential_oracle(t["oracle_thetas"], q, scheme)
            if t["task"] == "verify":
                oraclemod.check_acts_on(cfg.folner)
            if t["task"] == "verify" and isinstance(
                    cfg.built["system", t["system"]], oraclemod.MarkovSystem):
                # its orbit spans max(Ns) + max - min points over every shift; a query
                # of shifts from a to b leaves b - a fewer for its batch means
                gs = [g for q in queries for g in q]
                for q in queries:
                    oraclemod.check_batches(max(Ns) + max(gs) - min(gs) - (max(q) - min(q)))
        except ValueError as e:
            raise ConfigError(f"{where}: {e}") from None
        # a task runs at one index N or over a schedule, never both
        check_extent(cfg, t, t["N"] if "N" in t else max(t["schedule"]), where)
    # an orbit starts from its system's `start_key`, x0 or seed; the other key, which
    # its system does not read, is refused
    orbits = [(f"set {name}", d) for name, d in cfg.sets.items() if d["rule"] == "orbit"]
    for where, node in orbits + [(f"task {i}", task) for i, task in enumerate(cfg.tasks)
                                 if task["task"] == "verify"]:
        system, kind = cfg.built["system", node["system"]], cfg.systems[node["system"]]["kind"]
        read = system.start_key
        other = "seed" if read == "x0" else "x0"
        if other in node:
            raise ConfigError(f"{where}: key {other!r} is not read by a {kind} system, "
                              f"which starts from {read!r}")
        try:  # the start as the orbit reads it
            system.start(node.get(read, 0))
        except ValueError as e:
            raise ConfigError(f"{where}: {e}") from None
