"""The config schema: `parse_node` reads every node of a config by a table of the keys
its kind reads, each with its converter and default, and refuses any other key.

`_TASKS` is the table of tasks, which validation and the runner both read through
`parse_task`; the tables of the top level, its sections and the named entries are in
`config`.
"""
from __future__ import annotations

import math
import numbers
from collections.abc import Hashable
from fractions import Fraction
from typing import List

from .errors import ConfigError
from .groups import GroupSpec, INT_Z, INT_ZD
from .spectrum import CONSISTENT, DISTINGUISHED


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


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


# The rule of a key is (what, conv) when the key is required, (what, conv, default)
# when it is optional.  conv(value, cfg) gives the value the program reads; it raises
# a ConfigError, or a TypeError or ValueError that `parse_node` reports as "<key> must
# be <what>".  A default, a value or a function of the context cfg, is converted like
# a given value, except _OMIT, which leaves the key out.
_OMIT = object()
_SEQ = (list, tuple)  # a config built in Python may hold tuples where YAML gives lists


def _ok(v, holds: bool):
    if holds:
        return v
    raise ValueError(v)


def _items(v, cfg, item) -> tuple:
    return tuple(item(x, cfg) for x in _ok(v, isinstance(v, _SEQ)))


def _real(v, cfg=None) -> float:
    """float(v), never of a bool."""
    return float(None if isinstance(v, bool) else v)


def _finite(v, cfg=None, above: float = -math.inf) -> float:
    x = _real(v)
    return _ok(x, math.isfinite(x) and x > above)


def _element(v, cfg):
    g = tuple(v) if isinstance(v, list) else v
    if cfg.group.contains(g):
        return g
    raise ConfigError(f"{v!r} is not an element of group {cfg.group.kind}")


def _factor(v, cfg) -> tuple:
    if isinstance(v, _SEQ) and len(v) == 3 and _is_int(v[0]) and v[1] in (True, False):
        return v[0], bool(v[1]), _element(v[2], cfg)
    raise ConfigError(f"a moment factor is [index, true or false, element], got {v!r}")


def _queries(item) -> tuple:
    def conv(v, cfg):
        qs = [_items(q, cfg, item) for q in _ok(v, isinstance(v, _SEQ))]
        if qs and all(qs):
            return qs
        raise ConfigError(f"queries must be a nonempty list of nonempty queries, got {v!r}")
    return "a list of queries", conv


def _cylinder(v, cfg) -> dict:
    out = {}
    for c in _ok(v, isinstance(v, _SEQ)):
        _ok(c, isinstance(c, _SEQ) and len(c) == 2 and _is_int(c[1]) and c[1] in (0, 1))
        g = _element(c[0], cfg)
        if g in out:
            raise ConfigError(f"cylinder names element {c[0]!r} twice, got {v!r}")
        out[g] = c[1]
    return out


def _name(section: str):
    """The converter of a name defined in the config section `section`."""
    def conv(v, cfg):
        if isinstance(v, Hashable) and v in getattr(cfg, section):
            return v
        raise ConfigError(f"undefined {section[:-1]} {v!r}")
    return conv


def _int(least=None) -> tuple:
    """An integer: an int, or a numpy int from a config built in Python; never a bool."""
    def conv(v, cfg):
        _ok(v, _is_int(v) or isinstance(v, numbers.Integral) and not isinstance(v, bool))
        return _ok(int(v), least is None or v >= least)
    return f"an integer{'' if least is None else f' >= {least}'}", conv


_SET, _SCHEME, _N = ("a set name", _name("sets")), ("a scheme name", _name("schemes")), _int(1)
_INT, _ANY = _int(), ("a value", lambda v, cfg: v)  # _ANY: passed as given
_ELEMENT = ("a group element", _element)
_SHIFTS = ("a nonempty list of group elements",
           lambda v, cfg: _ok(_items(v, cfg, _element), len(v) > 0))
_QUERIES, _FACTORS = _queries(_element), _queries(_factor)
_CYLINDER = ("a list of [element, polarity] pairs", _cylinder, ())
_FAMILY = ("a list of function names", lambda v, cfg: _items(v, cfg, _name("functions")))
_THETAS = ("a list of finite numbers", lambda v, cfg: _items(v, cfg, _finite))
_SCHEDULE = ("a schedule", lambda v, cfg: _build_schedule(v), lambda cfg: cfg.schedule)
_TAU = ("a number", lambda v, cfg: Fraction(str(v)), lambda cfg: cfg.tolerances["tau"])
_EPS = ("positive and finite", lambda v, cfg: _finite(v, above=0))
_BOOL = ("true or false", lambda v, cfg: _ok(v, isinstance(v, bool)))
_VERDICT = ("CONSISTENT or DISTINGUISHED", lambda v, cfg: _ok(v, v in (CONSISTENT, DISTINGUISHED)))
_TASKS = {
    "density": dict(set=_SET, N=_N, shifts=(*_SHIFTS, lambda cfg: [cfg.group.identity()])),
    "upper_density": dict(set=_SET, schedule=_SCHEDULE, tau=_TAU),
    "subsequence": dict(set=_SET, queries=_QUERIES, schedule=_SCHEDULE, eps=_EPS),
    "pair_correlation": dict(set=_SET, N=_N, H=_int(0)),
    "cylinders": dict(set=_SET, radius=_int(1), depth=_int(1), schedule=_SCHEDULE,
                      eps=(*_EPS, 0.05), patterns=(*_BOOL, False)),
    "additivity": dict(set=_SET, cylinder=_CYLINDER, element=_ELEMENT, N=_N),
    "invariance": dict(set=_SET, cylinder=_CYLINDER, shift=_ELEMENT, N=_N),
    "verify": dict(system=("a system name", _name("systems")), queries=_QUERIES,
                   schedule=_SCHEDULE, x0=(*_ANY, 0), seed=(*_INT, lambda cfg: cfg.seed or 0)),
    "spectrum": dict(set=_SET, depth=_int(1), radius=_int(0), schedule=_SCHEDULE),
    "compare": dict(set1=_SET, set2=_SET, depth=_int(1), radius=_int(0), schedule=_SCHEDULE,
                    eps=_EPS, expect=(*_VERDICT, _OMIT)),
    "moments": dict(family=_FAMILY, scheme=(*_SCHEME, lambda cfg: next(iter(cfg.schemes), "")),
                    queries=_FACTORS, N=_N, oracle_thetas=(*_THETAS, _OMIT)),
    "accordance": dict(family=_FAMILY, scheme=_SCHEME, queries=_FACTORS, schedule=_SCHEDULE,
                       eps=_EPS, conj_depth=(*_INT, 3), expect=(*_BOOL, True)),
    "normcheck": dict(scheme=_SCHEME, N=_N, tol=("a finite number", _finite, _OMIT)),
}


def parse_node(node, table: dict, cfg, where: str, tag=None, default=None) -> dict:
    """The node's kind, read from its key `tag` (absent: `default`), and each key of
    `table[kind]` (of `table` when there is no tag), converted once by its rule
    against the context cfg; a key the node's kind does not read is refused.
    `where` names the node in each message; "" is the config's top level."""
    if not isinstance(node, dict):
        raise ConfigError(f"{where or 'config root'} must be a mapping, got {node!r}")
    at = f"{where}: " if where else ""
    kind = node.get(tag, default) if tag else None
    keys = table if not tag else table.get(kind) if isinstance(kind, str) else None
    if keys is None:
        raise ConfigError(f"{at}missing key {tag!r}" if kind is None
                          else f"{at}unknown {tag} {kind!r}")
    for key in node:
        if key not in keys and key != tag:
            raise ConfigError(f"{at}unknown key {key!r}" + (f" for {tag} {kind}" if tag else ""))
    t = {tag: kind} if tag else {}
    for key, (what, conv, *absent) in keys.items():
        if key not in node and not absent:
            raise ConfigError(f"{at}missing key {key!r}")
        v = node[key] if key in node else absent[0](cfg) if callable(absent[0]) else absent[0]
        if v is not _OMIT:
            try:
                t[key] = conv(v, cfg)
            except ConfigError as e:
                raise ConfigError(f"{at}{e}") from None
            except (TypeError, ValueError, OverflowError):
                raise ConfigError(f"{at}{key} must be {what}, got {v!r}") from None
    return t


def parse_task(task, cfg, where: str) -> dict:
    """The task's kind and each key that kind reads, converted against the
    `config.ExperimentConfig` cfg by its rule in `_TASKS`."""
    return parse_node(task, _TASKS, cfg, where, "task")


def _task_shifts(t: dict, group: GroupSpec) -> list:
    """Each element a parsed task moves its window by, a ball by its extreme ones."""
    gs = [*t.get("shifts", ()), *t.get("cylinder", ()),
          *(t[k] for k in ("element", "shift") if k in t)]
    for q in t.get("queries", ()):
        gs += [g for _, _, g in q] if "family" in t else q
    if "shift" in t:
        gs += [group.mul(t["shift"], h) for h in t["cylinder"]]
    R = max(0, t.get("H", t.get("radius", 0)))
    if group.kind == INT_Z:
        return gs + [R, 0 if t["task"] in ("spectrum", "compare") else -R]
    # no word of length R moves a coordinate further than R, or R^2 for c on H3
    return gs + [(R,) * group.d if group.kind == INT_ZD else (R, R, R * R)]
