import datetime
import json
import logging
import marshal
import math
import os
import re
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import yaml

from folnersys import __version__, cli, config, moments, oracles, runner
from folnersys import sets as setmod
from folnersys.cache import ResultCache, digest, source_digest
from folnersys.cli import main
from folnersys.config import load_config, parse_config
from folnersys.errors import CapExceededError, ConfigError
from folnersys.runner import run
from folnersys.sets import CachedWindow

BASE = {
    "group": {"kind": "Z"},
    "folner": {"shape": "interval", "start": 0},
    "schedule": [100, 1000],
    "seed": 7,
    "sets": {
        "evens": {"rule": "congruence", "a": 0, "m": 2},
        "odds": {"rule": "complement", "of": "evens"},
        "gold": {"rule": "rotation", "alpha": "golden", "beta": 0.5},
    },
    "systems": {
        "per": {"kind": "periodic", "pattern": "110"},
        "mark": {"kind": "markov", "P": [[0.7, 0.3], [0.4, 0.6]], "accept": [1]},
    },
    "schemes": {
        "unit": {},
        "lin": {"weight": {"kind": "linear"}, "normalizer": {"kind": "linear_mean"}},
    },
    "functions": {
        "e1": {"kind": "exponential", "theta": 0.25},
        "ind": {"kind": "indicator", "set": "evens"},
    },
}


# a unicode set name
KEYED_SETS = {**BASE["sets"], "évens": {"rule": "congruence", "a": 0, "m": 2}}
KEYED_TASKS = [
    {"task": "density", "set": "gold", "shifts": [0, 1], "N": 10000},
    {"task": "verify", "system": "mark", "queries": [[0], [0, 1]], "schedule": [10000]},
    {"task": "cylinders", "set": "évens", "radius": 2, "depth": 2, "schedule": [60, 600]},
]


def write_cfg(tmp_path, tasks, **overrides):
    raw = {**BASE, **overrides, "tasks": tasks}
    if "sets" in overrides and "functions" not in overrides:
        # BASE's indicator `ind` reads the set `evens`, which other sets replace
        raw["functions"] = {"e1": BASE["functions"]["e1"]}
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw))
    return str(path)


def test_parse_and_density_task(tmp_path):
    path = write_cfg(tmp_path, [{"task": "density", "set": "evens",
                                 "shifts": [0], "N": 1000}])
    cfg = load_config(path)
    report = run(cfg)
    row = report["tasks"][0]["result"]
    assert row["count"] == 500 and row["size"] == 1000
    assert row["density"] == {"num": 1, "den": 2, "dec": "0.5"}
    assert report["exit_code"] == 0


def test_undefined_name_rejected(tmp_path):
    with pytest.raises(ConfigError, match="undefined set"):
        load_config(write_cfg(tmp_path, [{"task": "density", "set": "nope", "N": 10}]))
    with pytest.raises(ConfigError, match="unknown task"):
        load_config(write_cfg(tmp_path, [{"task": "frobnicate"}]))


def test_parse_error_positions(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("group: {kind: Z\n")
    with pytest.raises(ConfigError, match="parse error") as err:
        load_config(str(path))
    assert "line 2, column 1" in str(err.value)
    assert main(["run", "--config", str(path)]) == 2
    assert "parse error" in capsys.readouterr().err
    # PyYAML refuses an integer literal of over 4300 digits with a ValueError
    path.write_text(f"tasks: [{{task: density, set: evens, N: {'9' * 5000}}}]\n")
    assert main(["run", "--config", str(path)]) == 2
    assert "parse error" in capsys.readouterr().err


def _bench_configs(seeds=(1, 2)):
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return [(f"{w}:{seed}:{name}", text) for w in workloads.WORKLOADS for seed in seeds
            for name, _, text in workloads.generate(w, seed)]


def test_bench_configs_load(tmp_path):
    # a rule that refused a benchmark config would fail every task of its workload
    configs = _bench_configs(seeds=(1, 2, 3))
    assert len(configs) >= 12
    for where, text in configs:
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        cfg = load_config(str(path))
        assert cfg.tasks, where


def test_date_keys_and_unicode_names_load(tmp_path, monkeypatch):
    path = tmp_path / "cfg.yaml"
    # a set named by a date, in nested mappings
    day = datetime.date(2020, 1, 2)
    raw = {**BASE, "sets": {**KEYED_SETS, day: {"rule": "dyadic"}}, "tasks": KEYED_TASKS}
    path.write_text(yaml.safe_dump(raw, allow_unicode=True, sort_keys=False), encoding="utf-8")
    seen = []
    load = yaml.load
    monkeypatch.setattr(yaml, "load", lambda text, Loader: seen.append(Loader) or
                        load(text, Loader=Loader))
    cfg = load_config(str(path))
    assert cfg.sets[day] == {"rule": "dyadic"} and "évens" in cfg.sets
    assert seen == [yaml.SafeLoader]  # at any size


def test_dyadic_schedule():
    cfg = parse_config({**BASE, "schedule": {"dyadic": {"min_exp": 4, "max_exp": 6}},
                        "tasks": []})
    assert cfg.schedule == [16, 32, 64]


def test_determinism_and_cache(tmp_path):
    path = write_cfg(tmp_path, KEYED_TASKS, sets=KEYED_SETS)
    out = str(tmp_path / "out")
    r1 = run(load_config(path), cache_dir=out)
    r2 = run(load_config(path), cache_dir=out)
    assert all(e["cache_hit"] for e in r2["tasks"])
    assert not any(e["cache_hit"] for e in r1["tasks"])

    def strip(rep):
        return json.dumps(
            [{k: v for k, v in e.items() if k not in ("seconds", "cache_hit")}
             for e in rep["tasks"]],
            sort_keys=True, default=str)

    assert strip(r1) == strip(r2)
    # no-cache recomputation is byte-identical
    r3 = run(load_config(path))
    assert strip(r1) == strip(r3)


def test_cache_keys_digest_shared_config_task_and_code(tmp_path):
    cfg = load_config(write_cfg(tmp_path, KEYED_TASKS, sets=KEYED_SETS))
    # a date inside a nested mapping serializes as its str
    day = datetime.date(2020, 1, 2)
    assert digest({"sets": {"s": {"meta": {"since": day}}}}) == \
        digest({"sets": {"s": {"meta": {"since": "2020-01-02"}}}})
    # every config section but caps, which are checked before any lookup
    shared = {
        "group": {"kind": cfg.group.kind, "d": cfg.group.d},
        "folner": {"shape": cfg.folner.shape, "start": cfg.folner.start,
                   "anchor": list(cfg.folner.anchor)},
        "schedule": cfg.schedule, "seed": cfg.seed, "tolerances": cfg.tolerances,
        "sets": cfg.sets, "systems": cfg.systems, "schemes": cfg.schemes,
        "functions": cfg.functions, "version": __version__,
    }
    report = run(cfg, cache_dir=str(tmp_path / "out"))
    assert report["config_digest"] == digest(shared)
    for entry, task in zip(report["tasks"], cfg.tasks, strict=True):
        assert entry["key"] == digest({"code": source_digest(), "config": digest(shared),
                                       "task": task})


def test_cache_key_changes_with_n(tmp_path):
    t1 = {"task": "density", "set": "evens", "shifts": [0], "N": 100}
    t2 = {**t1, "N": 200}
    assert digest({"task": t1}) != digest({"task": t2})


def test_each_function_evaluated_once_per_run(tmp_path, monkeypatch, capsys):
    """Three moments tasks and an accordance task over one family fill each function's
    window once; every factor of every query is a slice of it."""
    from folnersys.moments import ExponentialFn, RandomDiskFn

    calls = []
    for cls in (ExponentialFn, RandomDiskFn):
        def counted(self, n, _at=cls.at):
            calls.append(id(self))
            return _at(self, n)
        monkeypatch.setattr(cls, "at", counted)
    functions = {**BASE["functions"], "e2": {"kind": "exponential", "theta": 0.61},
                 "disk": {"kind": "random_disk"}}
    schemes = {**BASE["schemes"], "decay": {"weight": {"kind": "exp_decay", "rate": 1e-3}}}
    family = ["e1", "e2", "disk", "ind"]
    queries = [[[1, False, 3]], [[2, False, 8], [3, True, 8]],
               [[3, False, 0], [4, False, 7], [1, True, 3]], [[2, True, 1]],
               [[3, True, 3], [4, False, 7]], [[1, False, 5], [2, True, 3], [4, False, 7]],
               [[4, False, 0], [4, False, 3]]]
    tasks = [{"task": "moments", "family": family, "scheme": s, "queries": queries, "N": 2000}
             for s in ("unit", "decay", "lin")]
    tasks.append({"task": "accordance", "family": family, "scheme": "unit",
                  "queries": queries[:2], "schedule": [500, 1000, 2000], "eps": 0.5})
    path = write_cfg(tmp_path, tasks, functions=functions, schemes=schemes)
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert sorted(Counter(calls).values()) == [1, 1, 1]
    # an index outside the family is refused before any window is filled
    calls.clear()
    capsys.readouterr()
    for task in (tasks[0], tasks[3]):
        bad = {**task, "queries": [queries[1], [[5, False, 0]]]}
        assert main(["run", "--config", write_cfg(tmp_path, [bad], functions=functions)]) == 2
        assert "task 0: function index 5 out of range for family of 4" in capsys.readouterr().err
    assert calls == []


def test_indicator_window_filled_once_per_task(monkeypatch):
    # the factors [0, N) and [7, N + 7) of an indicator used to compute its set's
    # window and then grow it
    calls = []
    compute = setmod.Congruence._compute_bits
    monkeypatch.setattr(setmod.Congruence, "_compute_bits", lambda self, lo, hi:
                        calls.append((lo, hi)) or compute(self, lo, hi))
    task = {"task": "moments", "family": ["e1", "ind"], "scheme": "unit", "N": 1000,
            "queries": [[[2, False, 0]], [[1, False, 3], [2, True, 7]]]}
    report = run(parse_config({**BASE, "tasks": [task]}))
    assert report["tasks"][0]["result"]["rows"][0]["re"] == 0.5
    assert calls == [(0, 1007)]


def test_cached_windows_stay_within_the_window_cap(monkeypatch):
    # the windows [-400, 200) and [0, 1000) each pass the cap, and the cache used to
    # grow to their hull [-400, 1000): 1,400 elements over a cap of 1,000
    cfg = parse_config({**BASE, "caps": {"window": 1000}, "tasks": [
        {"task": "density", "set": "gold", "N": 600, "shifts": [-400]},
        {"task": "density", "set": "gold", "N": 1000}]})
    sizes, run_task = [], runner.run_task

    def sized(ws, task, cfg):
        out = run_task(ws, task, cfg)
        sizes.append(len(cfg.built["set", "gold"]._cache))
        return out

    monkeypatch.setattr(runner, "run_task", sized)
    assert run(cfg)["exit_code"] == 0
    assert sizes == [600, 1000]


def test_cache_corruption_is_a_miss(tmp_path, caplog):
    caplog.set_level(logging.WARNING, logger="folnersys.cache")
    cache = ResultCache(str(tmp_path / "c"))
    assert cache.get("k" * 64) is None
    assert not caplog.records  # no entry: a silent miss
    cache.put("k" * 64, {"x": 1})
    assert cache.get("k" * 64) == {"x": 1}
    with open(cache._path("k" * 64), "wb") as fh:
        fh.write(b"{not marshal")
    assert cache.get("k" * 64) is None
    assert len(caplog.records) == 1
    # a truncated or malformed entry warns once and its task is recomputed
    path = write_cfg(tmp_path, KEYED_TASKS, sets=KEYED_SETS)
    out = tmp_path / "out"
    cold = run(load_config(path), cache_dir=str(out))
    entry = out / f"{cold['tasks'][2]['key']}.result"
    for damaged in (entry.read_bytes()[:40], marshal.dumps([1, 2])):
        entry.write_bytes(damaged)
        caplog.clear()
        warm = run(load_config(path), cache_dir=str(out))
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        assert "corrupt cache entry" in caplog.records[0].getMessage()
        assert [e["cache_hit"] for e in warm["tasks"]] == [True, True, False]
        assert warm["tasks"][2]["result"] == cold["tasks"][2]["result"]


def test_empty_schedule_refused(tmp_path, capsys):
    for task, overrides in [
        ({"task": "spectrum", "set": "evens", "depth": 1, "radius": 2, "schedule": []}, {}),
        ({"task": "cylinders", "set": "evens", "radius": 1, "depth": 1, "schedule": []}, {}),
        ({"task": "spectrum", "set": "evens", "depth": 1, "radius": 2}, {"schedule": []}),
    ]:
        assert main(["run", "--config", write_cfg(tmp_path, [task], **overrides)]) == 2
        assert "schedule must be nonempty" in capsys.readouterr().err


def test_cli_run_and_exit_codes(tmp_path, capsys):
    path = write_cfg(tmp_path, [
        {"task": "compare", "set1": "evens", "set2": "odds", "depth": 2,
         "radius": 4, "eps": 1e-9, "schedule": [60, 600],
         "expect": "CONSISTENT"},
    ])
    out = str(tmp_path / "out")
    code = main(["run", "--config", path, "--out", out])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["tasks"][0]["result"]["verdict"] == "CONSISTENT"
    assert "[PASS]" in capsys.readouterr().out


def test_cli_verdict_failure_exit_code(tmp_path):
    path = write_cfg(tmp_path, [
        {"task": "compare", "set1": "evens", "set2": "odds", "depth": 1,
         "radius": 2, "eps": 1e-9, "schedule": [60, 600],
         "expect": "DISTINGUISHED"},
    ])
    assert main(["run", "--config", path]) == 1


def test_cli_config_error_exit_code(tmp_path, capsys):
    path = write_cfg(tmp_path, [{"task": "density", "set": "missing", "N": 5}])
    assert main(["run", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


def test_subcommand_validates_only_its_own_task(tmp_path, capsys):
    # the file's task list was validated before the flag task replaced it: an undefined
    # set exited 2 and a task over caps.window exited 3
    for task in ({"task": "density", "set": "nope", "N": 10},
                 {"task": "density", "set": "evens", "N": 10 ** 9}):
        path = write_cfg(tmp_path, [task])
        assert main(["density", "--config", path, "--set", "evens", "-N", "10"]) == 0
        assert json.loads(capsys.readouterr().out)["tasks"][0]["result"]["count"] == 5
    assert main(["density", "--config", path, "--set", "nope", "-N", "10"]) == 2
    assert "task 0: undefined set 'nope'" in capsys.readouterr().err


def test_cli_subcommands(tmp_path, capsys):
    path = write_cfg(tmp_path, [])
    assert main(["density", "--config", path, "--set", "evens",
                 "--shifts", "0,2", "-N", "1000"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["tasks"][0]["result"]["count"] == 500

    assert main(["verify", "--config", path, "--system", "per",
                 "--queries", "0;0,1"]) == 0
    assert main(["normcheck", "--config", path, "--scheme", "unit",
                 "-N", "50"]) == 0
    capsys.readouterr()

    assert main(["moments", "--config", path, "--family", "e1",
                 "--scheme", "unit", "--queries", "1:0:0,1:1:3",
                 "-N", "1000"]) == 0
    out = json.loads(capsys.readouterr().out)
    row = out["tasks"][0]["result"]["rows"][0]
    assert abs(complex(row["re"], row["im"]) - 1j ** -3) < 1e-9


def test_cli_csv_output(tmp_path):
    path = write_cfg(tmp_path, [])
    out = str(tmp_path / "csvout")
    code = main(["spectrum", "--config", path, "--set", "evens",
                 "--depth", "2", "--radius", "3", "--out", out,
                 "--format", "csv"])
    assert code == 0
    files = list((tmp_path / "csvout").iterdir())
    assert any(p.suffix == ".csv" for p in files)


def test_seed_override(tmp_path):
    raw = {**BASE, "sets": {**BASE["sets"],
                            "rnd": {"rule": "bitmask", "lo": 0, "n": 64}},
           "tasks": [{"task": "density", "set": "rnd", "shifts": [0], "N": 64}]}
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw))
    a = run(load_config(str(path), seed_override=1))["tasks"][0]["result"]["count"]
    b = run(load_config(str(path), seed_override=1))["tasks"][0]["result"]["count"]
    c = run(load_config(str(path), seed_override=2))["tasks"][0]["result"]["count"]
    assert a == b
    # different seeds should generally differ; tolerate collision on count
    assert isinstance(c, int)


def test_random_bitmask_drawn_in_chunks_equals_one_draw():
    chunk = config._DRAW_CHUNK
    sizes = [1, 2, 3, chunk - 1, chunk, chunk + 1, 2 * chunk + 3]
    sets = {f"r{n}": {"rule": "bitmask", "lo": -5, "n": n} for n in sizes}
    ws = config.Workspace(parse_config({**BASE, "sets": sets, "functions": {}, "seed": 11}))
    for n in sizes:
        E = ws.set_spec(f"r{n}")
        assert E.lo == -5
        assert np.array_equal(E.mask, np.random.default_rng(11).integers(0, 2, size=n) != 0), n


def test_cli_tuple_cap_exit_code(tmp_path, capsys):
    # 559,736 tuples at depth 4, radius 60: refused before any is built
    path = write_cfg(tmp_path, [
        {"task": "compare", "set1": "evens", "set2": "odds", "depth": 4,
         "radius": 60, "eps": 1e-9, "schedule": [60, 600]},
    ])
    assert main(["run", "--config", path]) == 3
    assert "tuple count 559736 exceeds cap 200000" in capsys.readouterr().err


def test_pair_correlation_shift_cap(tmp_path, capsys):
    # 2*10^6 + 1 shifts, one window count each: refused before the ball is built
    path = write_cfg(tmp_path, [{"task": "pair_correlation", "set": "evens", "N": 10,
                                 "H": 10 ** 6}])
    with pytest.raises(CapExceededError, match="task 0: shift count at least 2000001 exceeds"):
        load_config(path)
    assert main(["run", "--config", path]) == 3
    assert "exceeds cap 200000" in capsys.readouterr().err


def test_omitted_cylinder_is_the_full_space(tmp_path, capsys):
    tasks = [{"task": "additivity", "set": "evens", "element": 1, "N": 10},
             {"task": "invariance", "set": "evens", "shift": 1, "N": 10}]
    assert main(["run", "--config", write_cfg(tmp_path, tasks)]) == 0
    additivity, invariance = (e["result"] for e in json.loads(capsys.readouterr().out)["tasks"])
    assert additivity["passed"] and additivity["residual"]["num"] == 0
    assert invariance["defect"]["num"] == 0


def test_python_built_config_may_hold_tuples():
    # tuples where YAML gives lists: shifts, queries, factors and cylinder pairs
    tasks = [{"task": "density", "set": "evens", "shifts": (0, 2), "N": 10},
             {"task": "additivity", "set": "evens", "element": 1, "N": 10,
              "cylinder": ((0, 1), [2, 0])},
             {"task": "verify", "system": "per", "queries": ((0,), [0, 1]), "schedule": [30]},
             {"task": "moments", "family": ("e1", "ind"), "N": 10,
              "queries": (((1, False, 0), (2, True, 1)),)}]
    as_lists = json.loads(json.dumps(tasks))
    results = [[e["result"] for e in run(parse_config({**BASE, "tasks": ts}))["tasks"]]
               for ts in (tasks, as_lists)]
    assert json.dumps(results[0]) == json.dumps(results[1])


def test_python_built_config_may_hold_numpy_ints():
    # an entry parameter that is an integer type other than int reads as that int
    def tasks_with(num):
        entries = {"sets": {"c": {"rule": "congruence", "a": num(1), "m": num(3)}},
                   "functions": {"ind": {"kind": "indicator", "set": "c"},
                                 "d": {"kind": "random_disk", "seed": num(5)}}}
        tasks = [{"task": "density", "set": "c", "N": 100},
                 {"task": "moments", "family": ["d"], "N": 10, "queries": [[[1, 0, 0]]]}]
        report = run(parse_config({**BASE, **entries, "tasks": tasks}))
        return [e["result"] for e in report["tasks"]]

    assert json.dumps(tasks_with(np.int64)) == json.dumps(tasks_with(int))


ROTATION = {"kind": "rotation", "alpha": "golden", "beta": 0.5}
ORBIT = {"rule": "orbit", "system": "rot", "lo": 0, "hi": 100}
USE_GOLD = [{"task": "density", "set": "gold", "N": 100}]


@pytest.mark.parametrize("overrides, tasks, message", [
    ({"sets": {"gold": {"rule": "rotation", "beta": True}}}, USE_GOLD,
     "set gold: circle coordinate must be a number, got True"),
    ({"sets": {"gold": {"rule": "rotation", "alpha": True}}}, USE_GOLD,
     "set gold: circle coordinate must be a number, got True"),
    ({"sets": {"gold": {"rule": "rotation", "x0": True}}}, USE_GOLD,
     "set gold: circle coordinate must be a number, got True"),
    ({"systems": {"rot": {**ROTATION, "beta": True}}}, [],
     "system rot: circle coordinate must be a number, got True"),
    ({"systems": {"rot": ROTATION}},
     [{"task": "verify", "system": "rot", "queries": [[0]], "x0": True}],
     "task 0: circle coordinate must be a number, got True"),
    ({"systems": {"rot": ROTATION}, "sets": {"orb": {**ORBIT, "x0": True}}},
     [{"task": "density", "set": "orb", "N": 100}],
     "set orb: circle coordinate must be a number, got True"),
    ({"functions": {"e": {"kind": "exponential", "theta": True}}},
     [{"task": "moments", "family": ["e"], "scheme": "unit", "queries": [[[1, False, 0]]],
       "N": 100}], "function e: theta must be a number, got True"),
    ({"schemes": {"d": {"weight": {"kind": "exp_decay", "rate": True}}}},
     [{"task": "normcheck", "scheme": "d", "N": 100}], "rate must be a number"),
], ids=["set-beta", "set-alpha", "set-x0", "system-beta", "verify-x0", "orbit-x0", "theta",
        "rate"])
def test_bool_refused_where_a_real_number_is_read(tmp_path, capsys, overrides, tasks,
                                                 message):
    # True once read as the number 1: a rotation set of beta 1 held every point
    path = write_cfg(tmp_path, tasks, **{k: {**BASE[k], **v} for k, v in overrides.items()})
    assert main(["run", "--config", path]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("markov, message", [
    # its exact measure of query [0, 1] was -0.0588
    ({"P": [[0.5, 0.5], [1.2, -0.2]]}, "entries of P must lie in [0, 1]"),
    # exact_measure([0]) was 2.0
    ({"P": [[0.5, 0.5], [0.5, 0.5]], "pi": [2, 2]}, "stationary vector must sum to 1"),
    # NaN was written into report.json
    ({"P": [[0.5, 0.5], [0.5, 0.5]], "pi": [math.nan, math.nan]},
     "stationary vector must sum to 1"),
], ids=["P-entry", "pi-sum", "pi-nan"])
def test_markov_system_giving_wrong_measures_refused(tmp_path, capsys, markov, message):
    systems = {"m": {"kind": "markov", "accept": [0], **markov}}
    path = write_cfg(tmp_path, [{"task": "verify", "system": "m", "queries": [[0], [0, 1]],
                                 "schedule": [1000]}], systems=systems)
    assert main(["run", "--config", path]) == 2
    assert f"system m: {message}" in capsys.readouterr().err


def test_cli_bad_input_exit_code(tmp_path, capsys):
    path = write_cfg(tmp_path, [{"task": "density", "set": "evens",
                                 "shifts": [[1, 2]], "N": 10}])
    assert main(["run", "--config", path]) == 2
    assert "not an element of group Z" in capsys.readouterr().err
    path = write_cfg(tmp_path, [{"task": "cylinders", "set": "evens", "radius": 1,
                                 "depth": 1, "eps": 0}])
    assert main(["run", "--config", path]) == 2
    assert "eps must be positive" in capsys.readouterr().err
    bad = [
        ({"task": "compare", "set1": "evens", "set2": "odds", "depth": 1, "radius": 2,
          "schedule": [60, 600]}, "eps", [0, "abc"], "eps must be positive"),
        ({"task": "subsequence", "set": "evens", "queries": [[0]]},
         "eps", [0], "eps must be positive"),
        ({"task": "accordance", "family": ["e1"], "scheme": "unit", "queries": [[[1, 0, 0]]]},
         "eps", [-1], "eps must be positive"),
        ({"task": "density", "set": "evens"}, "N", [0, "abc"], "N must be an integer >= 1"),
        ({"task": "pair_correlation", "set": "evens", "N": 10}, "H", [-2],
         "H must be an integer >= 0"),
        ({"task": "upper_density", "set": "evens"}, "schedule",
         [{"dyadic": {"min_exp": 1, "max_exp": 30000}}], "dyadic schedule needs"),
    ]
    for task, key, values, message in bad:
        for value in values:
            path = write_cfg(tmp_path, [{**task, key: value}])
            assert main(["run", "--config", path]) == 2, (task, value)
            assert message in capsys.readouterr().err
    # a missing key, a set parameter the set refuses, a query outside a bitmask
    # and a linear weight on negative points are each a config error of task 0
    refused = [
        ({"task": "pair_correlation", "set": "evens", "N": 100}, {}, "missing key 'H'"),
        ({"task": "density", "set": "c", "N": 10},
         {"sets": {"c": {"rule": "congruence", "a": 0, "m": 0}}}, "set c: modulus must be positive"),
        ({"task": "density", "set": "b", "N": 10},
         {"sets": {"b": {"rule": "bitmask", "bits": "1011"}}}, "window exceeded"),
        ({"task": "normcheck", "scheme": "lin", "N": 11},
         {"folner": {"shape": "interval", "start": -5}}, "linear weight needs a nonnegative"),
    ]
    # a function index outside the family or the oracle thetas, a custom table
    # without the entry asked for, a non-unit weight off Z and a window outside int64
    h3 = {"group": {"kind": "H3"}, "folner": {"shape": "heisenberg_box"}}
    z2 = {"group": {"kind": "Zd", "d": 2}, "folner": {"shape": "box", "anchor": [0, 0]}}
    weights = {"lin": {"weight": {"kind": "linear"}},
               "decay": {"weight": {"kind": "exp_decay", "rate": 0.1}}}
    moment = {"task": "moments", "family": ["e1"], "scheme": "unit", "N": 10}
    refused += [
        ({**moment, "queries": [[[2, 0, 0]]]}, {},
         "function index 2 out of range for family of 1"),
        ({**moment, "queries": [[[1, 0, 0]]], "oracle_thetas": []}, {},
         "function index 1 out of range for 0 thetas"),
        ({"task": "normcheck", "scheme": "w", "N": 3},
         {"schemes": {"w": {"weight": {"kind": "custom", "table": {1: 1}}}}},
         "custom weight table has no entry for 0"),
        ({**moment, "scheme": "w", "queries": [[[1, 0, 0]]]},
         {"schemes": {"w": {"weight": {"kind": "custom", "table": {1: 0.5}}}}},
         "custom weight table has no entry for 0"),
        ({"task": "normcheck", "scheme": "n", "N": 10},
         {"schemes": {"n": {"normalizer": {"kind": "custom", "table": {1: 1}}}}},
         "custom normalizer table has no entry for 10"),
        ({"task": "normcheck", "scheme": "lin", "N": 3}, {**h3, "schemes": weights},
         "linear weight is defined on Z only"),
        ({"task": "normcheck", "scheme": "decay", "N": 3}, {**h3, "schemes": weights},
         "exp_decay weight is defined on Z only"),
        ({"task": "normcheck", "scheme": "lin", "N": 3}, {**z2, "schemes": weights},
         "linear weight is defined on Z only"),
        ({"task": "moments", "family": ["f"], "scheme": "decay", "N": 3,
          "queries": [[[1, 0, [0, 0]]]]},
         {**z2, "schemes": weights, "sets": {"s": {"rule": "component", "rules": [[0, 2], None]}},
          "functions": {"f": {"kind": "indicator", "set": "s"}}},
         "exp_decay weight is defined on Z only"),
        # off Z only indicators are defined, and a non-indicator is named before a weight
        ({**moment, "queries": [[[1, 0, [0, 0, 0]]]]}, h3, "ExponentialFn is defined on Z only"),
        ({**moment, "scheme": "decay", "queries": [[[1, 1, [0, 0, 0]]]]},
         {**h3, "schemes": weights}, "ExponentialFn is defined on Z only"),
        # int64 wrapping past 2^63 used to make this count 33, not 34
        ({"task": "density", "set": "thirds", "N": 100},
         {"folner": {"shape": "interval", "start": 2 ** 63 - 8},
          "sets": {"thirds": {"rule": "congruence", "a": 0, "m": 3}}},
         "window [9223372036854775800, 9223372036854775900) leaves the int64 range"),
        ({"task": "density", "set": "s", "shifts": [[0, 0, 2 ** 63 - 10]], "N": 4},
         {**h3, "sets": {"s": {"rule": "component", "rules": [[0, 2], None, None]}}},
         "window coordinates reach"),
        # int(.inf) used to raise OverflowError in the runner
        ({"task": "cylinders", "set": "evens", "radius": float("inf"), "depth": 1}, {},
         "radius must be an integer >= 1, got inf"),
        ({"task": "spectrum", "set": "evens", "radius": 2, "depth": float("inf")}, {},
         "depth must be an integer >= 1, got inf"),
    ]
    # a named entry or x0 of the wrong type used to raise TypeError, and an empty
    # Markov orbit IndexError, where the parameter is read
    rot = {"systems": {**BASE["systems"], "rot": {"kind": "rotation", "alpha": [1, 2]}}}
    verify = {"task": "verify", "queries": [[0]], "schedule": [30]}
    refused += [
        ({"task": "density", "set": "r", "N": 10},
         {"sets": {"r": {"rule": "rotation", "alpha": [1, 2]}}},
         "set r: circle coordinate must be a number, got [1, 2]"),
        ({**verify, "system": "rot"}, rot, "system rot: circle coordinate must be a number, got [1, 2]"),
        ({**verify, "system": "m"},
         {"systems": {"m": {"kind": "markov", "P": [[0.5, 0.5], [0.5, 0.5]], "accept": 1}}},
         "system m: accept must be a list of states, got 1"),
        ({**moment, "family": ["t"], "queries": [[[1, 0, 0]]]},
         {"functions": {"t": {"kind": "exponential", "theta": [1]}}},
         "function t: theta must be a number, got [1]"),
        ({"task": "density", "set": "s", "shifts": [[0, 0, 0]], "N": 4},
         {**h3, "sets": {"s": {"rule": "component", "rules": [1, None, None]}}},
         "set s: a component rule is null or [a, m], got 1"),
        ({**verify, "system": "per", "x0": "abc"}, {},
         "x0 of a periodic orbit must be an integer, got 'abc'"),
        ({**verify, "system": "gold", "x0": [1]}, {"systems": {"gold": {"kind": "rotation"}}},
         "circle coordinate must be a number, got [1]"),
        ({"task": "density", "set": "o", "N": 10},
         {"sets": {"o": {"rule": "orbit", "system": "mark", "lo": 0, "hi": 0}}},
         "window exceeded"),
        ({"task": "density", "set": "s", "shifts": [[0, 0, 0]], "N": 4},
         {**h3, "sets": {"s": {"rule": "component", "rules": [[0, 0], None, None]}}},
         "set s: modulus must be positive"),
        ({**verify, "system": "m"},
         {"systems": {"m": {"kind": "markov", "P": 5, "accept": [0]}}},
         "system m: transition matrix must be square"),
        # 10 orbit points cannot fill 32 batch means: the sigma bound used to
        # average empty batches into NaN and write it to report.json
        ({**verify, "system": "mark", "schedule": [10]}, {},
         "a Markov verify needs at least 32 orbit points past its largest shift gap "
         "for 32 batch means, got 10"),
        # the start key the system does not read used to be ignored, with exit 0
        ({**verify, "system": "gold", "schedule": [1000], "seed": 12345},
         {"systems": {"gold": {"kind": "rotation"}}},
         "key 'seed' is not read by a rotation system, which starts from 'x0'"),
        ({**verify, "system": "mark", "schedule": [1000], "x0": "abc"}, {},
         "key 'x0' is not read by a markov system, which starts from 'seed'"),
        ({**verify, "system": "per", "schedule": [1000], "seed": 3}, {},
         "key 'seed' is not read by a periodic system, which starts from 'x0'"),
    ]
    # the runner used to truncate a float or bool radius, and to raise TypeError
    # on a scalar where a list belongs
    refused += [
        ({"task": "cylinders", "set": "evens", "radius": 2.5, "depth": 1}, {},
         "radius must be an integer >= 1, got 2.5"),
        ({"task": "cylinders", "set": "evens", "radius": True, "depth": 1}, {},
         "radius must be an integer >= 1, got True"),
        ({"task": "density", "set": "evens", "N": 10, "shifts": 3}, {},
         "shifts must be a nonempty list of group elements, got 3"),
        ({"task": "verify", "system": "per", "queries": 3}, {},
         "queries must be a list of queries, got 3"),
        ({**moment, "family": 3, "queries": [[[1, 0, 0]]]}, {},
         "family must be a list of function names, got 3"),
        ({"task": "additivity", "set": "evens", "element": 1, "N": 10, "cylinder": 5}, {},
         "cylinder must be a list of [element, polarity] pairs, got 5"),
    ]
    # a string or list flag used to read as true, a lowercase verdict to fail as
    # exit 1, and an empty verify query list to raise "min() arg is an empty sequence"
    cyls = {"task": "cylinders", "set": "evens", "radius": 1, "depth": 1}
    refused += [
        ({**cyls, "patterns": "false"}, {}, "patterns must be true or false, got 'false'"),
        ({**cyls, "patterns": [1]}, {}, "patterns must be true or false, got [1]"),
        ({"task": "accordance", "family": ["e1"], "scheme": "unit", "queries": [[[1, 0, 0]]],
          "eps": 0.05, "expect": "false"}, {}, "expect must be true or false, got 'false'"),
        ({"task": "compare", "set1": "evens", "set2": "odds", "depth": 1, "radius": 2,
          "eps": 0.01, "expect": "consistent"}, {},
         "expect must be CONSISTENT or DISTINGUISHED, got 'consistent'"),
        ({"task": "verify", "system": "per", "queries": []}, {},
         "queries must be a nonempty list of nonempty queries, got []"),
        ({"task": "verify", "system": "per", "queries": [[]]}, {},
         "queries must be a nonempty list of nonempty queries, got [[]]"),
    ]
    # an empty table, no rows, a nan tolerance failing as exit 1, an infinite eps, a
    # cylinder keeping only the last polarity of an element, and a misspelled key
    # ignored with exit 0
    compare = {"task": "compare", "set1": "evens", "set2": "odds", "depth": 1, "radius": 2,
               "eps": 0.01, "schedule": [60, 600]}
    refused += [
        ({"task": "spectrum", "set": "evens", "depth": 0, "radius": 2}, {},
         "depth must be an integer >= 1, got 0"),
        ({"task": "spectrum", "set": "evens", "depth": 1, "radius": -1}, {},
         "radius must be an integer >= 0, got -1"),
        ({**compare, "depth": 0}, {}, "depth must be an integer >= 1, got 0"),
        ({**moment, "queries": []}, {},
         "queries must be a nonempty list of nonempty queries, got []"),
        ({"task": "accordance", "family": ["e1"], "scheme": "unit", "queries": [], "eps": 0.05},
         {}, "queries must be a nonempty list of nonempty queries, got []"),
        ({"task": "normcheck", "scheme": "unit", "N": 10, "tol": float("nan")}, {},
         "tol must be a finite number, got nan"),
        ({**moment, "queries": [[[1, 0, 0]]], "oracle_thetas": [float("nan")]}, {},
         "oracle_thetas must be a list of finite numbers, got [nan]"),
        ({**cyls, "eps": float("inf")}, {}, "eps must be positive and finite, got inf"),
        ({"task": "additivity", "set": "evens", "element": 1, "N": 10,
          "cylinder": [[0, 1], [0, 0]]}, {},
         "cylinder names element 0 twice, got [[0, 1], [0, 0]]"),
        ({**compare, "expected": "DISTINGUISHED"}, {},
         "unknown key 'expected' for task compare"),
        ({**cyls, "pattern": True}, {}, "unknown key 'pattern' for task cylinders"),
        ({"task": "density", "set": "evens", "N": 10, "H": 3}, {},
         "unknown key 'H' for task density"),
        ({**cyls, "note": datetime.date(2021, 3, 4)}, {},
         "unknown key 'note' for task cylinders"),
    ]
    for task, overrides, message in refused:
        path = write_cfg(tmp_path, [task], **overrides)
        assert main(["run", "--config", path]) == 2, (task, overrides)
        # a value an entry's constructor refuses names the entry, not the task using it
        prefix = "" if message.split(" ")[1].endswith(":") else "task 0: "
        assert f"config error: {prefix}{message}" in capsys.readouterr().err
    # a named entry is parsed before any task runs, used or not, and each message names
    # it: int() used to truncate a float or bool parameter and to parse a numeric string,
    # a misspelled key was ignored, and an unquoted bit string was read as the digits
    # of a YAML integer, all with exit 0
    for entries, message in [
        ({"sets": {"b": {"rule": "bitmask", "n": "abc"}}}, "set b: n must be an integer, got 'abc'"),
        ({"sets": {"c": {"rule": "congruence", "a": [1], "m": 2}}},
         "set c: a must be an integer, got [1]"),
        ({"sets": {"b": {"rule": "bitmask", "n": float("inf")}}},
         "set b: n must be an integer, got inf"),
        ({"sets": {"o": {"rule": "orbit", "system": "per", "lo": [0], "hi": 10}}},
         "set o: lo must be an integer, got [0]"),
        ({"sets": {"c": {"rule": "congruence", "a": 0, "m": "3"}}},
         "set c: m must be an integer, got '3'"),
        ({"sets": {"c": {"rule": "congruence", "a": 0, "m": 2.5}}},
         "set c: m must be an integer, got 2.5"),
        ({"sets": {"c": {"rule": "congruence", "a": True, "m": 2}}},
         "set c: a must be an integer, got True"),
        ({"sets": {"b": {"rule": "bitmask", "lo": 0.5, "bits": "1011"}}},
         "set b: lo must be an integer, got 0.5"),
        ({"sets": {"o": {"rule": "orbit", "system": "per", "lo": 0, "hi": 20.0}}},
         "set o: hi must be an integer, got 20.0"),
        ({"functions": {"d": {"kind": "random_disk", "seed": 2.5}}},
         "function d: seed must be an integer, got 2.5"),
        ({"schemes": {"w": {"weight": {"kind": "custom", "table": {0: 1, 1: 1, 2.5: 1}}}}},
         "scheme w: weight: table must be a mapping of integers to finite numbers, "
         "got {0: 1, 1: 1, 2.5: 1}"),
        ({"sets": {"r": {"rule": "rotation", "alpa": "1/3"}}},
         "set r: unknown key 'alpa' for rule rotation"),
        ({"functions": {"d": {"kind": "random_disk", "sed": 5}}},
         "function d: unknown key 'sed' for kind random_disk"),
        ({"systems": {"p": {"kind": "periodic", "pattern": 110}}},
         "system p: pattern must be a quoted string of 0s and 1s, got 110"),
        ({"sets": {"b": {"rule": "bitmask", "bits": "0120"}}},
         "set b: bits must be a quoted string of 0s and 1s, got '0120'"),
        ({"sets": {"b": {"rule": "bitmask", "bits": "01", "n": 4}}},
         "set b: a bitmask reads exactly one of bits and n"),
        ({"schemes": {"w": {"weight": {"kind": "linear", "rate": 1}}}},
         "scheme w: weight: unknown key 'rate' for kind linear"),
        # an orbit set read only the start key of its system's kind and ignored the other
        ({"systems": {**BASE["systems"], "rot": {"kind": "rotation"}},
          "sets": {"o": {"rule": "orbit", "system": "rot", "lo": 0, "hi": 1000, "seed": 99}}},
         "set o: key 'seed' is not read by a rotation system, which starts from 'x0'"),
        ({"sets": {"o": {"rule": "orbit", "system": "mark", "lo": 0, "hi": 1000, "x0": "abc"}}},
         "set o: key 'x0' is not read by a markov system, which starts from 'seed'"),
    ]:
        path = write_cfg(tmp_path, [{"task": "density", "set": "evens", "N": 10}],
                         **{**entries, "sets": {**BASE["sets"], **entries.get("sets", {})}})
        assert main(["run", "--config", path]) == 2, entries
        assert f"config error: {message}" in capsys.readouterr().err
    # YAML 1.1 reads an unquoted 0110 as the octal integer 72 and 12 as twelve
    for text, message in [("bits: 0110", "got 72"), ("bits: 12", "got 12")]:
        path = tmp_path / "bits.yaml"
        path.write_text("folner: {shape: interval, start: 0}\n"
                        "sets: {b: {rule: bitmask, lo: 0, %s}}\n"
                        "tasks: [{task: density, set: b, N: 2}]\n" % text)
        assert main(["run", "--config", str(path)]) == 2, text
        assert "set b: bits must be a quoted string of 0s and 1s, " + message in \
            capsys.readouterr().err
    # a complement of itself used to recurse until RecursionError, and a list where
    # a set names another entry to raise TypeError
    for sets, message in [
        ({"a": {"rule": "complement", "of": "a"}}, "set a: complement cycle a -> a"),
        ({"a": {"rule": "complement", "of": "b"}, "b": {"rule": "complement", "of": "a"}},
         "set a: complement cycle a -> b -> a"),
        ({"a": {"rule": "complement", "of": [1]}}, "config error: set a: undefined set [1]"),
        ({"a": {"rule": "orbit", "system": [1], "lo": 0, "hi": 10}},
         "config error: set a: undefined system [1]"),
    ]:
        path = write_cfg(tmp_path, [{"task": "density", "set": "a", "N": 10}], sets=sets)
        assert main(["run", "--config", path]) == 2, sets
        assert message in capsys.readouterr().err
    # a malformed scheme used to raise AttributeError, TypeError or KeyError
    # where the scheme was built
    for scheme, message in [
        (5, "scheme w must be a mapping, got 5"),
        ({"weight": 5}, "scheme w: weight must be a mapping, got 5"),
        ({"weight": {"kind": "custom", "table": 5}},
         "scheme w: weight: table must be a mapping of integers to finite numbers, got 5"),
        ({"weight": {"kind": "custom"}}, "scheme w: weight: missing key 'table'"),
        ({"weight": {"kind": "exp_decay", "rate": [1]}},
         "scheme w: weight: rate must be a number, got [1]"),
        ({"normalizer": {"kind": "const"}}, "scheme w: normalizer: missing key 'c'"),
    ]:
        path = write_cfg(tmp_path, [{"task": "normcheck", "scheme": "w", "N": 3}],
                         schemes={"w": scheme})
        assert main(["run", "--config", path]) == 2, scheme
        assert message in capsys.readouterr().err
    # a malformed top-level section used to raise TypeError, ValueError or KeyError, and
    # an unknown section or key was ignored and a float start or anchor truncated, with
    # exit 0
    z2 = {"group": {"kind": "Zd", "d": 2},
          "sets": {"evens": {"rule": "component", "rules": [[0, 2], None]}}}
    for overrides, message in [
        ({"seed": "abc"}, "seed must be an integer, got 'abc'"),
        ({"schedule": {"dyadic": {}}}, "dyadic schedule needs"),
        ({"schedule": {"dyadic": {"min_exp": "a", "max_exp": 3}}}, "dyadic schedule needs"),
        ({"group": {"kind": "Zd", "d": "x"}}, "group: d must be an integer >= 1, got 'x'"),
        ({"caps": {"window": "x"}}, "caps: window must be an integer, got 'x'"),
        ({"tolerances": 5}, "tolerances must be a mapping, got 5"),
        ({"sets": 5}, "sets must be a mapping, got 5"),
        ({"schedule": [100.5]}, "schedule indices must be integers >= 1, got [100.5]"),
        ({"folner": {"shape": "interval", "start": float("inf")}},
         "folner: start must be an integer, got inf"),
        ({"taks": [{"task": "density", "set": "evens", "N": 10}]},
         "config error: unknown key 'taks'"),
        ({"caps": {"windw": 10}}, "caps: unknown key 'windw'"),
        ({"tolerances": {"tua": 0.5}}, "tolerances: unknown key 'tua'"),
        ({"folner": {"shape": "interval", "start": 2.5}},
         "folner: start must be an integer, got 2.5"),
        ({**z2, "folner": {"shape": "box", "anchor": [0.5, 0]}},
         "folner: anchor must be a list of integers, got [0.5, 0]"),
        ({"group": {"kind": "Z", "d": 2}}, "group: unknown key 'd' for kind Z"),
    ]:
        path = write_cfg(tmp_path, [{"task": "density", "set": "evens", "N": 10}], **overrides)
        assert main(["run", "--config", path]) == 2, overrides
        assert message in capsys.readouterr().err
    assert main(["run", "--config", write_cfg(tmp_path, 5)]) == 2
    assert "tasks must be a list, got 5" in capsys.readouterr().err
    # a mapping key JSON cannot write or order used to raise TypeError in the digest;
    # a custom table mixing integer and string keys is now refused as a table
    mixed = {0: 1, "a": 2}
    path = write_cfg(tmp_path, [{"task": "normcheck", "scheme": "w", "N": 3}],
                     schemes={"w": {"weight": {"kind": "custom", "table": mixed}}})
    assert main(["run", "--config", path]) == 2
    assert ("scheme w: weight: table must be a mapping of integers to finite numbers, "
            "got {0: 1, 'a': 2}") in capsys.readouterr().err
    # (a rotation alpha of `mixed` is now refused by validation, as its constructor
    # refuses it; a Markov system reads the keys of an `accept` mapping as its states)
    day = datetime.date(2020, 1, 2)
    chain = {"kind": "markov", "P": [[0.5, 0.5], [0.5, 0.5]], "accept": {1: 0, "0": 1}}
    for task, overrides in [
        ({"task": "density", "set": day, "N": 10},
         {"sets": {day: {"rule": "congruence", "a": 0, "m": 2}}}),
        ({"task": "density", "set": "evens", "N": 10},
         {"systems": {**BASE["systems"], "m2": chain}}),
    ]:
        assert main(["run", "--config", write_cfg(tmp_path, [task], **overrides)]) == 2, task
        assert "config error: config cannot be written as a cache key" in capsys.readouterr().err


def test_moment_index_is_no_shift(tmp_path, capsys):
    # the validator used to count a moment's function index 4 as a shift and
    # refuse this window, which ends at 2^63 - 1
    cfg = {"folner": {"shape": "interval", "start": 2 ** 63 - 101},
           "functions": {f"e{i}": {"kind": "exponential", "theta": i / 8} for i in range(1, 5)}}
    task = {"task": "moments", "family": ["e1", "e2", "e3", "e4"], "scheme": "unit",
            "queries": [[[4, False, 0]]]}
    assert main(["run", "--config", write_cfg(tmp_path, [{**task, "N": 100}], **cfg)]) == 0
    capsys.readouterr()
    assert main(["run", "--config", write_cfg(tmp_path, [{**task, "N": 101}], **cfg)]) == 2
    assert "leaves the int64 range" in capsys.readouterr().err


def test_markov_verify_fills_its_batches(tmp_path):
    # 32 orbit points fill the 32 batch means one point each: no NaN
    out = tmp_path / "out"
    path = write_cfg(tmp_path, [{"task": "verify", "system": "mark", "queries": [[0]],
                                 "schedule": [32]}])
    assert main(["run", "--config", path, "--out", str(out)]) in (0, 1)

    def no_nan(name):
        raise ValueError(name)

    report = json.loads((out / "report.json").read_text(), parse_constant=no_nan)
    assert report["tasks"][0]["result"]["rows"][0]["tolerance"] > 0


def test_cache_key_covers_tolerances(tmp_path):
    # the dyadic blocks over 2^4..2^12 attain their upper density within
    # tau = 0.001 at two indices and within tau = 0.5 at all nine
    raw = {"sets": {"blocks": {"rule": "dyadic"}},
           "schedule": {"dyadic": {"min_exp": 4, "max_exp": 12}}}
    task = {"task": "upper_density", "set": "blocks"}
    out = str(tmp_path / "out")
    first = run(load_config(write_cfg(tmp_path, [task], **raw, tolerances={"tau": 0.001})),
                cache_dir=out)["tasks"][0]
    cfg = load_config(write_cfg(tmp_path, [task], **raw, tolerances={"tau": 0.5}))
    second = run(cfg, cache_dir=out)["tasks"][0]
    assert first["result"]["attaining"] == [512, 2048]
    assert not second["cache_hit"] and second["key"] != first["key"]
    assert second["result"] == run(cfg)["tasks"][0]["result"]
    assert second["result"]["attaining"] == [2 ** k for k in range(4, 13)]


def test_cache_miss_under_other_code(tmp_path, monkeypatch):
    path = write_cfg(tmp_path, [{"task": "density", "set": "evens", "shifts": [0], "N": 100}])
    out = str(tmp_path / "out")
    first = run(load_config(path), cache_dir=out)
    assert run(load_config(path), cache_dir=out)["tasks"][0]["cache_hit"]
    monkeypatch.setattr(runner, "source_digest", lambda: "0" * 64)
    other = run(load_config(path), cache_dir=out)
    assert not other["tasks"][0]["cache_hit"]
    assert other["tasks"][0]["key"] != first["tasks"][0]["key"]
    assert other["config_digest"] == first["config_digest"]


def test_unused_entry_checked_as_if_built(tmp_path, capsys):
    # an entry no task uses runs every check its builder and constructor make: each
    # of these used to exit 0 beside a density task on another set
    noseed = {"seed": None}
    for entries, message in [
        ({"sets": {"c": {"rule": "congruence", "a": 0, "m": 0}}},
         "set c: modulus must be positive"),
        ({"sets": {"r": {"rule": "rotation", "beta": 7}}}, "set r: beta must lie in (0, 1]"),
        ({"sets": {"b": {"rule": "bitmask", "n": 64}}, **noseed},
         "set b: random bitmask requires a seed"),
        ({"functions": {"d": {"kind": "random_disk"}}, **noseed},
         "function d: random_disk requires a seed"),
        ({"sets": {"o": {"rule": "orbit", "system": "mark", "lo": 0, "hi": 64}}, **noseed},
         "set o: Markov orbit requires a seed"),
        ({"sets": {"o": {"rule": "orbit", "system": "per", "lo": 0, "hi": 10, "x0": "abc"}}},
         "set o: x0 of a periodic orbit must be an integer, got 'abc'"),
        ({"sets": {"s": {"rule": "component", "rules": [[0, 2]]}}},
         "set s: componentwise rules are for lattice or Heisenberg groups"),
        ({"systems": {"p": {"kind": "periodic", "pattern": ""}}},
         "system p: pattern must be a nonempty 0/1 vector"),
        ({"functions": {"t": {"kind": "exponential", "theta": [1]}}},
         "function t: theta must be a number, got [1]"),
    ]:
        path = write_cfg(tmp_path, [{"task": "density", "set": "evens", "N": 10}],
                         **{**entries, "sets": {**BASE["sets"], **entries.get("sets", {})}})
        assert main(["run", "--config", path]) == 2, entries
        assert f"config error: {message}" in capsys.readouterr().err
    # a window over the cap is a cap error, exit 3, used or not
    path = write_cfg(tmp_path, [{"task": "density", "set": "evens", "N": 10}],
                     sets={**BASE["sets"], "b": {"rule": "bitmask", "n": 10 ** 8}})
    assert main(["run", "--config", path]) == 3
    assert "set b: window of 100000000 elements exceeds cap 67108864" in capsys.readouterr().err


def test_markov_window_cap_reads_the_built_system(tmp_path, monkeypatch, capsys):
    # a config built in Python may give P as a tuple of tuples: its orbit costs one
    # element of caps.window a point, as any other orbit's, through an orbit set and
    # through a verify task
    mark = {"kind": "markov", "P": ((0.7, 0.3), (0.4, 0.6)), "accept": (1,)}
    for n, code in [(1000, 0), (1501, 3)]:
        orbit = {"rule": "orbit", "system": "mark", "lo": 0, "hi": n}
        for task, sets in [
            ({"task": "verify", "system": "mark", "queries": [[0]], "schedule": [n]}, {}),
            ({"task": "density", "set": "o", "N": 10}, {"o": orbit}),
        ]:
            raw = {**BASE, "systems": {**BASE["systems"], "mark": mark},
                   "caps": {"window": 1500}, "sets": {**BASE["sets"], **sets}, "tasks": [task]}
            monkeypatch.setattr(cli, "load_config", lambda *args, **kw: parse_config(raw))
            assert main(["run", "--config", "built-in-python.yaml", "--no-cache",
                         "--out", str(tmp_path / "o")]) == code, (n, task)
            err = capsys.readouterr().err
            assert (f"window of {n} elements exceeds cap 1500\n" in err) == (code == 3), err


def test_path_errors_exit_2(tmp_path, monkeypatch, capsys, caplog):
    # each of these used to end in a traceback; each is refused before any task runs
    path = write_cfg(tmp_path, [{"task": "density", "set": "evens", "N": 10}])
    afile = tmp_path / "afile"
    afile.write_text("")

    def refuse(*args, **kw):
        raise AssertionError("a task ran")

    monkeypatch.setattr(runner, "run_task", refuse)
    for argv, message in [
        (["run", "--config", str(tmp_path / "missing.yaml")], "No such file or directory"),
        (["run", "--config", str(tmp_path)], "Is a directory"),
        (["run", "--config", path, "--out", str(afile)], "Not a directory"),
        (["run", "--config", path, "--out", str(afile), "--no-cache"], "File exists"),
        (["density", "--config", path, "--set", "evens", "-N", "10", "--out", str(afile)],
         "Not a directory"),
    ]:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err, argv
    assert afile.read_text() == "" and "corrupt cache entry" not in caplog.text


def test_validation_builds_nothing(monkeypatch):
    # the checks run on parsed values: no window, random bit, orbit or workspace entry
    def refuse(*args, **kw):
        raise AssertionError("built during validation")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    for cls in (oracles.RotationSystem, oracles.PeriodicSystem, oracles.MarkovSystem):
        monkeypatch.setattr(cls, "orbit_set", refuse)
    for name in ("set_spec", "system", "scheme", "function"):
        monkeypatch.setattr(config.Workspace, name, refuse)
    monkeypatch.setattr(CachedWindow, "_window", refuse)
    raw = {**BASE, "systems": {**BASE["systems"], "rot": {"kind": "rotation"}},
           "sets": {**BASE["sets"], "b": {"rule": "bitmask", "n": 64},
                    "o": {"rule": "orbit", "system": "mark", "lo": 0, "hi": 64},
                    "p": {"rule": "orbit", "system": "rot", "lo": 0, "hi": 64, "x0": 0.25}},
           "functions": {**BASE["functions"], "d": {"kind": "random_disk"}},
           "tasks": [{"task": "verify", "system": "per", "queries": [[0]], "x0": 1}]}
    parse_config(raw)


# entries of every kind; the rotation set, the rotation system and the scheme are each
# used twice, and validation builds them, so a run's workspace only reuses them
REUSED = {**BASE,
          "systems": {"rot": {"kind": "rotation", "beta": 0.25}},
          "sets": {"gold": BASE["sets"]["gold"], "b": {"rule": "bitmask", "n": 300},
                   "orb": {"rule": "orbit", "system": "rot", "lo": 0, "hi": 1000}},
          "schemes": {"lin": BASE["schemes"]["lin"]},
          "functions": {"e1": BASE["functions"]["e1"], "ind": {"kind": "indicator",
                                                               "set": "gold"}},
          "tasks": [
              {"task": "density", "set": "gold", "shifts": [0, 1], "N": 500},
              {"task": "upper_density", "set": "gold"},
              {"task": "density", "set": "b", "shifts": [0, 2], "N": 200},
              {"task": "density", "set": "orb", "N": 900},
              {"task": "verify", "system": "rot", "queries": [[0, 1]], "schedule": [900]},
              {"task": "moments", "family": ["e1", "ind"], "scheme": "lin", "N": 400,
               "queries": [[[1, False, 0], [2, True, 1]]]},
              {"task": "normcheck", "scheme": "lin", "N": 400}]}


def test_each_named_entry_built_once(monkeypatch):
    built = Counter()
    for cls in (setmod.RotationSet, oracles.RotationSystem, moments.AveragingScheme):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kw):
            built[_name] += 1
            _init(self, *args, **kw)
        monkeypatch.setattr(cls, "__init__", counted)
    report = run(parse_config(REUSED))
    assert report["exit_code"] == 0
    assert built == {"RotationSet": 1, "RotationSystem": 1, "AveragingScheme": 1}


def test_two_runs_of_one_config_are_equal():
    # the objects validation built, and their windows, outlive a run
    cfg = parse_config(REUSED)
    first, second = run(cfg), run(cfg)
    for a, b in zip(first["tasks"], second["tasks"], strict=True):
        assert {**a, "seconds": 0} == {**b, "seconds": 0}
    assert cfg.built["set", "gold"]._cache is not None


def test_cylinder_radius_below_one_refused_before_any_task(tmp_path, monkeypatch, capsys):
    ran = []
    run_task = runner.run_task
    monkeypatch.setattr(runner, "run_task", lambda ws, task, cfg: ran.append(task["task"])
                        or run_task(ws, task, cfg))
    for key in ("radius", "depth"):
        path = write_cfg(tmp_path, [{"task": "density", "set": "evens", "N": 10},
                                    {"task": "cylinders", "set": "evens", "radius": 1,
                                     "depth": 1, key: 0}])
        assert main(["run", "--config", path]) == 2
        assert f"config error: task 1: {key} must be an integer >= 1, got 0" in \
            capsys.readouterr().err
    assert ran == []


H3 = {"group": {"kind": "H3"}, "folner": {"shape": "heisenberg_box"}}
WEIGHTS = {"lin": {"weight": {"kind": "linear"}},
           "decay": {"weight": {"kind": "exp_decay", "rate": 0.1}}}
ACCORD = {"task": "accordance", "family": ["e1"], "queries": [[[1, 0, 0]]], "eps": 0.05,
          "schedule": [5, 10]}


@pytest.mark.parametrize("task, overrides, message", [
    # a non-indicator off Z is named before the weight
    ({"task": "moments", "family": ["e1"], "scheme": "decay", "N": 3,
      "queries": [[[1, 1, [0, 0, 0]]]]}, {**H3, "schemes": WEIGHTS},
     "ExponentialFn is defined on Z only"),
    ({"task": "moments", "family": ["f"], "scheme": "decay", "N": 3,
      "queries": [[[1, 0, [0, 0, 0]]]]},
     {**H3, "schemes": WEIGHTS,
      "sets": {"s": {"rule": "component", "rules": [[0, 2], None, None]}},
      "functions": {"f": {"kind": "indicator", "set": "s"}}},
     "exp_decay weight is defined on Z only"),
    ({**ACCORD, "scheme": "lin"}, {"folner": {"shape": "interval", "start": -5}},
     "linear weight needs a nonnegative window"),
    ({"task": "moments", "family": ["e1"], "scheme": "w", "N": 5, "queries": [[[1, 0, 0]]]},
     {"schemes": {"w": {"weight": {"kind": "custom", "table": {0: 1, 1: 1, 2: 1, 4: 1}}}}},
     "custom weight table has no entry for 3"),
    ({**ACCORD, "scheme": "n"}, {"schemes": {"n": {"normalizer": {"kind": "custom",
                                                                  "table": {5: 1}}}}},
     "custom normalizer table has no entry for 10"),
    ({"task": "normcheck", "scheme": "z", "N": 10},
     {"schemes": {"z": {"normalizer": {"kind": "const", "c": 0}}}}, "degenerate normalizer"),
    # 21 orbit points for 32 batch means
    ({"task": "verify", "system": "mark", "queries": [[0]], "schedule": [21]}, {},
     "a Markov verify needs at least 32 orbit points past its largest shift gap "
     "for 32 batch means, got 21"),
    # a normalizer outside the float range used to raise ZeroDivisionError or
    # OverflowError in the task
    ({"task": "normcheck", "scheme": "w", "N": 10},
     {"schemes": {"w": {"weight": {"kind": "exp_decay", "rate": 0.1},
                        "normalizer": {"kind": "const", "c": "1e-400"}}}},
     "degenerate normalizer: b(10) is outside the float range"),
    ({"task": "moments", "family": ["e1"], "scheme": "w", "N": 10, "queries": [[[1, 0, 0]]]},
     {"schemes": {"w": {"normalizer": {"kind": "const", "c": "1e400"}}}},
     "degenerate normalizer: b(10) is outside the float range"),
    # a set on Z, named or read through an indicator and a complement chain, and a
    # verify, on H3
    ({"task": "density", "set": "odds", "N": 3}, H3,
     "group mismatch between set and Folner spec"),
    ({"task": "compare", "set1": "lat", "set2": "odds", "depth": 1, "radius": 1, "eps": 0.1},
     {**H3, "sets": {**BASE["sets"], "lat": {"rule": "component",
                                             "rules": [[0, 2], None, None]}}},
     "group mismatch between set and Folner spec"),
    ({"task": "moments", "family": ["e1", "ind"], "scheme": "unit", "N": 3,
      "queries": [[[2, 1, [0, 0, 0]]]]}, H3, "group mismatch between set and Folner spec"),
    ({"task": "verify", "system": "per", "queries": [[[0, 0, 0]]], "schedule": [10]}, H3,
     "oracle systems act by Z only"),
    ({"task": "verify", "system": "mark", "queries": [[[0, 0, 0]]], "schedule": [10]}, H3,
     "oracle systems act by Z only"),
], ids=["off-z-function", "off-z-weight", "linear", "weight-table", "normalizer-table",
        "zero-normalizer", "markov-batches", "tiny-normalizer", "huge-normalizer",
        "off-z-set", "off-z-set2", "off-z-indicator", "off-z-verify", "off-z-markov-verify"])
def test_task_inputs_refused_before_any_task_runs(tmp_path, monkeypatch, capsys,
                                                  task, overrides, message):
    # each was refused only when its task ran, after the tasks before it
    def run_task(*a):
        raise AssertionError("a task ran")

    monkeypatch.setattr(runner, "run_task", run_task)
    assert main(["run", "--config", write_cfg(tmp_path, [task], **overrides)]) == 2
    assert f"config error: task 0: {message}" in capsys.readouterr().err


def test_off_z_task_reading_no_z_set_runs(tmp_path):
    # an unused indicator of a set on Z, and a set on Z no task reads, are not refused
    h3 = {**H3, "sets": {**BASE["sets"], "lat": {"rule": "component",
                                                 "rules": [[0, 2], None, None]}},
          "functions": {"lat": {"kind": "indicator", "set": "lat"}, **BASE["functions"]}}
    task = {"task": "moments", "family": ["ind", "lat"], "scheme": "unit", "N": 3,
            "queries": [[[2, 0, [0, 0, 0]]]]}
    assert run(load_config(write_cfg(tmp_path, [task], **h3)))["exit_code"] == 0


HALF_Z = {"folner": {"shape": "interval", "start": -5}}
OFF_Z = {**H3, "sets": {"lat": {"rule": "component", "rules": [[0, 2], None, None]}},
         "functions": {"f": {"kind": "indicator", "set": "lat"}}}


@pytest.mark.parametrize("overrides, scheme, message", [
    (OFF_Z, {"weight": {"kind": "exp_decay", "rate": 0.1}}, "exp_decay weight is defined on Z only"),
    (HALF_Z, {"weight": {"kind": "linear"}}, "linear weight needs a nonnegative window"),
    ({}, {"weight": {"kind": "custom", "table": {0: 1, 1: 1, 2: 1, 4: 1}}},
     "custom weight table has no entry for 3"),
    ({}, {"normalizer": {"kind": "custom", "table": {4: 1}}},
     "custom normalizer table has no entry for 5"),
    ({}, {"normalizer": {"kind": "const", "c": 0}}, "degenerate normalizer"),
    ({}, {"normalizer": {"kind": "custom", "table": {5: 0.0}}}, "degenerate normalizer"),
    ({}, {"normalizer": {"kind": "const", "c": "1e-400"}},
     "degenerate normalizer: b(5) is outside the float range"),
    ({}, {"normalizer": {"kind": "const", "c": "1e400"}},
     "degenerate normalizer: b(5) is outside the float range"),
    # a bad weight and a bad normalizer: the weight is named first everywhere
    (HALF_Z, {"weight": {"kind": "linear"}, "normalizer": {"kind": "const", "c": 0}},
     "linear weight needs a nonnegative window"),
    (OFF_Z, {"weight": {"kind": "exp_decay", "rate": 0.1},
             "normalizer": {"kind": "custom", "table": {}}}, "exp_decay weight is defined on Z only"),
], ids=["off-z-weight", "linear", "weight-table", "normalizer-table", "zero-normalizer",
        "zero-table-normalizer", "tiny-normalizer", "huge-normalizer", "weight-first",
        "off-z-weight-first"])
def test_scheme_defects_refused_alike_everywhere(tmp_path, monkeypatch, capsys, overrides,
                                                 scheme, message):
    # validation, weighted_moment, moment_table and scheme_normalization refuse each
    # defect of a scheme at N with one message, made by `moments.check_scheme`
    N, off_z = 5, "group" in overrides
    fn, g = ("f", (0, 0, 0)) if off_z else ("e1", 0)

    def run_task(*a):
        raise AssertionError("a task ran")

    monkeypatch.setattr(runner, "run_task", run_task)
    for task in ({"task": "moments", "family": [fn], "scheme": "s", "N": N,
                  "queries": [[[1, False, list(g) if off_z else g]]]},
                 {"task": "normcheck", "scheme": "s", "N": N}):
        path = write_cfg(tmp_path, [task], schemes={"s": scheme}, **overrides)
        assert main(["run", "--config", path]) == 2, task
        assert f"config error: task 0: {message}\n" in capsys.readouterr().err, task
    cfg = load_config(path, tasks=[])
    s, family, q = cfg.built["scheme", "s"], [config.Workspace(cfg).function(fn)], [(1, False, g)]
    for call in (lambda: moments.weighted_moment(family, q, s, N),
                 lambda: moments.moment_table(family, [q], s, [N]),
                 lambda: moments.scheme_normalization(s, N)):
        with pytest.raises(ValueError) as e:
            call()
        assert str(e.value) == message


@pytest.mark.parametrize("value", [[1], None, float("inf"), float("nan"), True, "abc", "0.5",
                                   10 ** 400],
                         ids=["list", "null", "inf", "nan", "bool", "string", "numeric-string",
                              "int-over-float-range"])
def test_custom_table_values_are_numbers(tmp_path, value):
    # a list or null normalizer entry raised TypeError in the task, a null or infinite
    # weight was read as NaN, true as 1, and a string was refused only when its task ran
    for rule in ("weight", "normalizer"):
        path = write_cfg(tmp_path, [], schemes={"w": {rule: {"kind": "custom",
                                                             "table": {1: value}}}})
        with pytest.raises(ConfigError, match=f"scheme w: {rule}: table must be a mapping of "
                                              f"integers to finite numbers"):
            load_config(path)


def test_custom_table_values_keep_their_type(tmp_path):
    table = {1: 2, 2: 0.5, 3: np.int64(4), 4: np.float64(1.5)}
    cfg = parse_config({**BASE, "schemes": {"w": {"weight": {"kind": "custom", "table": table}}}})
    assert [type(v) for _, v in cfg.built["scheme", "w"].weight.table] == [
        int, float, np.int64, np.float64]
    cfg = parse_config({**BASE, "folner": {"shape": "interval", "start": 1}, "schemes": {
        "w": {"weight": {"kind": "custom", "table": {1: 1, 2: 2}}}}})
    assert moments.scheme_normalization(cfg.built["scheme", "w"], 2) == Fraction(3, 2)


def test_verify_orbit_spans_its_windows(tmp_path, monkeypatch):
    # the orbit was one point past the windows its rows read, and past caps.window
    lengths, orbit_set = [], oracles.PeriodicSystem.orbit_set

    def sized(self, lo, hi, start):
        r = orbit_set(self, lo, hi, start)
        lengths.append(len(r.mask))
        return r

    monkeypatch.setattr(oracles.PeriodicSystem, "orbit_set", sized)
    path = write_cfg(tmp_path, [{"task": "verify", "system": "per", "queries": [[0]],
                                 "schedule": [1000]}], caps={"window": 1000})
    assert main(["run", "--config", path, "--no-cache", "--out", str(tmp_path / "o")]) == 0
    assert lengths == [1000]


def test_cli_window_cap_exit_code(tmp_path, capsys):
    # a 10^11-element random bitmask and a 10^11-element window are both refused
    # before numpy is asked for the memory
    raw_sets = {**BASE["sets"], "huge": {"rule": "bitmask", "lo": 0, "n": 10 ** 11}}
    path = write_cfg(tmp_path, [{"task": "density", "set": "huge", "N": 10}], sets=raw_sets)
    assert main(["run", "--config", path]) == 3
    assert "set huge: window of 100000000000 elements exceeds cap" in capsys.readouterr().err
    path = write_cfg(tmp_path, [])
    assert main(["density", "--config", path, "--set", "evens", "-N", str(10 ** 11)]) == 3
    assert "window of 100000000000 elements exceeds cap" in capsys.readouterr().err
    # |F_N| = N^3 has 6001 digits, too many to print
    path = write_cfg(tmp_path, [{"task": "density", "set": "lat", "N": 10 ** 2000}],
                     group={"kind": "Zd", "d": 3}, folner={"shape": "box", "anchor": [0, 0, 0]},
                     sets={"lat": {"rule": "component", "rules": [[0, 2], None, None]}})
    assert main(["run", "--config", path]) == 3
    assert "window of over 2^19931 elements exceeds cap" in capsys.readouterr().err
    # a Markov orbit holds about 10 bytes a point whatever its number of states, so
    # each point costs one element of the cap: 1000 points run under a cap of 1500,
    # and 1501 are refused
    for n, code in [(1000, 0), (1501, 3)]:
        orbit = {"rule": "orbit", "system": "mark", "lo": 0, "hi": n}
        for task, sets in [
            ({"task": "verify", "system": "mark", "queries": [[0]], "schedule": [n]}, {}),
            ({"task": "density", "set": "o", "N": 10}, {"o": orbit}),
        ]:
            path = write_cfg(tmp_path, [task], caps={"window": 1500}, sets=sets)
            assert main(["run", "--config", path, "--no-cache"]) == code, (n, task)
            err = capsys.readouterr().err
            assert (f"window of {n} elements exceeds cap 1500\n" in err) == (code == 3), err
    # observed patterns hold one entry per point of F_N and element of the ball:
    # 65,536 x 41 and 4^4 x 5 on the H3 box, which used to be built with exit 0
    h3 = {"group": {"kind": "H3"}, "folner": {"shape": "heisenberg_box"},
          "sets": {"evens": {"rule": "component", "rules": [[0, 2], None, None]}}}
    for cap, radius, N, overrides, size in [(100000, 20, 65536, {}, 2686976),
                                            (1000, 1, 4, h3, 1280)]:
        task = {"task": "cylinders", "set": "evens", "radius": radius, "depth": 1,
                "schedule": [N], "patterns": True}
        path = write_cfg(tmp_path, [task], caps={"window": cap}, **overrides)
        assert main(["run", "--config", path]) == 3, task
        assert f"task 0: window of {size} elements exceeds cap {cap}" in capsys.readouterr().err
        path = write_cfg(tmp_path, [{**task, "patterns": False}], caps={"window": cap},
                         **overrides)
        assert main(["run", "--config", path]) == 0, task
        capsys.readouterr()


def test_cli_extent_and_ball_caps_exit_code(tmp_path, capsys):
    # each is refused before numpy or the word ball is asked for the memory
    path = write_cfg(tmp_path, [])
    assert main(["density", "--config", path, "--set", "evens",
                 "--shifts", f"0,{10 ** 12}", "-N", "10"]) == 3
    assert "window of 1000000000010 elements exceeds cap" in capsys.readouterr().err
    assert main(["spectrum", "--config", path, "--set", "evens",
                 "--radius", str(10 ** 12), "--depth", "1"]) == 3
    assert "exceeds cap" in capsys.readouterr().err
    z2 = {"group": {"kind": "Zd", "d": 2}, "folner": {"shape": "box", "anchor": [0, 0]},
          "sets": {"s": {"rule": "component", "rules": [[0, 2], None]}}}
    h3 = {"group": {"kind": "H3"}, "folner": {"shape": "heisenberg_box"},
          "sets": {"s": {"rule": "component", "rules": [[0, 2], None, None]}}}
    for overrides, task, message in [
        (z2, {"task": "cylinders", "radius": 100000}, "cylinder count at least"),
        (h3, {"task": "cylinders", "radius": 100000}, "cylinder count at least"),
        # the observed-pattern cap counts the ball no further than the cylinder cap
        (h3, {"task": "cylinders", "radius": 100000, "patterns": True}, "cylinder count at least"),
    ]:
        task = {**task, "set": "s", "depth": 1, "schedule": [4]}
        path = write_cfg(tmp_path, [task], **overrides)
        assert main(["run", "--config", path]) == 3, task
        assert message in capsys.readouterr().err


def test_table_caps_refused_before_any_task_runs(tmp_path, monkeypatch, capsys):
    # a density task ran first, then the table's own count exited 3 with no report;
    # an accordance query's 2^40 conjugation variants were counted by nothing
    def run_task(*a):
        raise AssertionError("a task ran")

    monkeypatch.setattr(runner, "run_task", run_task)
    query = [[1, False, g] for g in range(40)]
    for task, message in [
        ({"task": "spectrum", "set": "evens", "depth": 3, "radius": 200},
         "task 1: tuple count 1353601 exceeds cap 200000"),
        ({"task": "compare", "set1": "evens", "set2": "odds", "depth": 3, "radius": 200,
          "eps": 0.1}, "task 1: tuple count 1353601 exceeds cap 200000"),
        ({"task": "cylinders", "set": "evens", "depth": 3, "radius": 20},
         "task 1: cylinder count 88642 exceeds cap 20000"),
        ({"task": "accordance", "family": ["e1"], "scheme": "unit", "queries": [query],
          "eps": 0.1, "conj_depth": 40},
         "task 1: conjugation variant count 1099511627776 exceeds cap 200000"),
    ]:
        path = write_cfg(tmp_path, [{"task": "density", "set": "evens", "N": 10}, task])
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 3, task
        assert message in capsys.readouterr().err


H3_WINDOW = {"group": {"kind": "H3"}, "folner": {"shape": "heisenberg_box"},
             "sets": {"s": {"rule": "component", "rules": [[0, 2], None, None]}}}
Z2_WINDOW = {"group": {"kind": "Zd", "d": 2}, "folner": {"shape": "box", "anchor": [0, 0]},
             "sets": {"s": {"rule": "component", "rules": [[0, 2], None]}},
             "functions": {"ind": {"kind": "indicator", "set": "s"}}}
ORACLE = {"task": "moments", "family": ["e1"], "scheme": "unit", "queries": [[[1, False, 0]]],
          "N": 10, "oracle_thetas": [0.25]}


@pytest.mark.parametrize("task, overrides, message", [
    ({"task": "density", "set": "evens", "N": 10, "shifts": []}, {},
     "shifts must be a nonempty list of group elements, got []"),
    ({"task": "pair_correlation", "set": "s", "N": 2, "H": 1}, H3_WINDOW,
     "pair correlation needs an interval or box window"),
    ({"task": "moments", "family": ["e1"], "queries": [[[2, False, 0]]], "N": 10}, {},
     "function index 2 out of range for family of 1"),
    ({"task": "accordance", "family": ["e1"], "scheme": "unit", "queries": [[[2, False, 0]]],
      "schedule": [10, 20], "eps": 0.1}, {}, "function index 2 out of range for family of 1"),
    ({**ORACLE, "scheme": "lin"}, {}, "oracle undefined"),
    ({**ORACLE, "family": ["ind"], "queries": [[[1, False, [0, 0]]]]}, Z2_WINDOW,
     "oracle undefined"),
    ({**ORACLE, "oracle_thetas": []}, {}, "function index 1 out of range for 0 thetas"),
], ids=["empty-shifts", "paircorr-h3", "moments-index", "accordance-index",
        "oracle-weighted", "oracle-off-z", "oracle-index"])
def test_task_checks_made_at_validation(tmp_path, monkeypatch, capsys, task, overrides,
                                        message):
    # each used to be refused only when its task ran, after every earlier task had run
    def run_task(*a):
        raise AssertionError("a task ran")

    monkeypatch.setattr(runner, "run_task", run_task)
    path = write_cfg(tmp_path, [task], **overrides)
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert f"config error: task 0: {message}" in capsys.readouterr().err


def _run_report(tmp_path, tasks, **overrides) -> list:
    out = tmp_path / "out"
    assert main(["run", "--config", write_cfg(tmp_path, tasks, **overrides),
                 "--out", str(out), "--no-cache"]) == 0
    return [entry["result"] for entry in json.loads((out / "report.json").read_text())["tasks"]]


def test_complement_of_every_set_kind(tmp_path):
    # only the complement of an m = 2 congruence, itself a congruence, was ever run
    sets = {"rot": {"rule": "rotation", "alpha": 0.3, "beta": 0.4},
            "dy": {"rule": "dyadic"},
            "bm": {"rule": "bitmask", "lo": -5, "bits": "0110100111010" * 5},
            "orb": {"rule": "orbit", "system": "per", "lo": -5, "hi": 60, "x0": 1},
            "c3": {"rule": "congruence", "a": 1, "m": 3}}
    sets.update({f"not_{name}": {"rule": "complement", "of": name} for name in list(sets)})
    results = _run_report(tmp_path, [{"task": "density", "set": name, "N": 50}
                                      for name in sets], sets=sets)
    for set_, not_set in zip(results[:5], results[5:], strict=True):
        assert 0 < set_["count"] < 50 and set_["size"] == not_set["size"] == 50
        assert not_set["count"] == 50 - set_["count"]


def test_normcheck_float_normalization(tmp_path):
    schemes = {"decay": {"weight": {"kind": "exp_decay", "rate": 0.01}}}
    (result,) = _run_report(tmp_path, [{"task": "normcheck", "scheme": "decay", "N": 300}],
                            schemes=schemes)
    direct = math.fsum(math.exp(-0.01 * n) for n in range(300)) / 300
    assert set(result) == {"value"} and set(result["value"]) == {"dec"}
    assert float(result["value"]["dec"]) == pytest.approx(direct, rel=1e-11)


def test_cylinders_source_of_an_orbit_set(tmp_path):
    sets = {"orb": {"rule": "orbit", "system": "mark", "lo": -3, "hi": 197, "seed": 5}}
    (result,) = _run_report(tmp_path, [{"task": "cylinders", "set": "orb", "radius": 1,
                                        "depth": 1, "schedule": [50, 100]}], sets=sets)
    assert result["source"] == "orbit(markov(k=2, accept=[1]), start=seed=5, lo=-3, n=200)"


def test_cli_malformed_flags_usage_error(capsys):
    for argv, message in [
        (["density", "--set", "evens", "--shifts", "a,b", "-N", "10"],
         "argument --shifts: invalid shift_list value: 'a,b'"),
        (["verify", "--system", "per", "--queries", "a"],
         "argument --queries: invalid shift_lists value: 'a'"),
        (["moments", "--family", "e1", "--scheme", "unit", "--queries", "1:0", "-N", "10"],
         "argument --queries: invalid factor_lists value: '1:0'"),
    ]:
        with pytest.raises(SystemExit) as exit_:
            main(argv + ["--config", "unread.yaml"])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "usage: folnersys" in err and message in err


def test_cli_flags_fill_the_task(tmp_path, monkeypatch):
    # each direct subcommand builds the task its flags name, parsed once
    path = write_cfg(tmp_path, [])
    seen = []
    monkeypatch.setattr(cli, "run", lambda cfg, **kw: seen.append(cfg.tasks[0]) or
                        {"tasks": [], "exit_code": 0})
    cases = [
        ("density --set evens --shifts 0,2 -N 1000",
         {"task": "density", "set": "evens", "shifts": [0, 2], "N": 1000}),
        ("density --set evens -N 5", {"task": "density", "set": "evens", "shifts": [0], "N": 5}),
        ("spectrum --set evens", {"task": "spectrum", "set": "evens", "depth": 2, "radius": 4}),
        ("cylinders --set evens --radius 3",
         {"task": "cylinders", "set": "evens", "radius": 3, "depth": 2}),
        ("verify --system per --queries 0;0,1",
         {"task": "verify", "system": "per", "queries": [[0], [0, 1]]}),
        ("verify --system per", {"task": "verify", "system": "per", "queries": [[0]]}),
        ("compare --set1 evens --set2 odds --eps 1e-9",
         {"task": "compare", "set1": "evens", "set2": "odds", "depth": 2, "radius": 4,
          "eps": 1e-9}),
        ("moments --family e1,ind --scheme unit --queries 1:0:0,1:1:3;2:c:-1 -N 100",
         {"task": "moments", "family": ["e1", "ind"], "scheme": "unit",
          "queries": [[[1, False, 0], [1, True, 3]], [[2, True, -1]]], "N": 100}),
        ("normcheck --scheme lin -N 1000", {"task": "normcheck", "scheme": "lin", "N": 1000}),
    ]
    for argv, task in cases:
        assert main(argv.split() + ["--config", path]) == 0
        assert seen.pop() == task


def test_result_entry_with_a_list_value_is_a_miss(tmp_path, caplog):
    # an entry whose value is not a mapping used to be served as a hit, and the run
    # died in the runner with "'list' object has no attribute 'get'"
    caplog.set_level(logging.WARNING, logger="folnersys.cache")
    path = write_cfg(tmp_path, [{"task": "density", "set": "evens", "shifts": [0], "N": 100}])
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    cold = json.loads((out / "report.json").read_text())["tasks"][0]
    entry = out / ".cache" / f"{cold['key']}.result"
    entry.write_bytes(marshal.dumps({"key": cold["key"], "value": [1]}))
    caplog.clear()
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    assert [r.levelname for r in caplog.records] == ["WARNING"]
    assert "value is not a mapping" in caplog.records[0].getMessage()
    warm = json.loads((out / "report.json").read_text())["tasks"][0]
    assert not warm["cache_hit"] and warm["result"] == cold["result"]
    assert ResultCache(str(out / ".cache")).get(cold["key"]) == cold["result"]


def test_result_entry_round_trip_is_exact(tmp_path):
    # JSON gave back lists for tuples and strings for integer keys
    cache = ResultCache(str(tmp_path / "c"))
    value = {"counts": {3: 7, -1: 2}, "tuple": ((0, 1), (2,)), "nan": float("nan"),
             "big": 1 << 70, "neg": -(1 << 65)}
    cache.put("k" * 64, value)
    got = cache.get("k" * 64)
    assert list(got) == list(value) and list(got["counts"].items()) == [(3, 7), (-1, 2)]
    assert got["tuple"] == ((0, 1), (2,)) and type(got["tuple"][0]) is tuple
    assert math.isnan(got["nan"]) and got["big"] == 1 << 70 and got["neg"] == -(1 << 65)
    # a value marshal cannot write is not stored, and its task is recomputed
    cache.put("d" * 64, {"when": datetime.date(2020, 1, 1)})
    assert cache.get("d" * 64) is None
    assert sorted(p.suffix for p in (tmp_path / "c").iterdir()) == [".result"]


def _same(a, b) -> bool:
    """a == b with equal types all the way down, NaN equal to NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b or a != a and b != b


def test_every_task_result_round_trips_through_the_cache(tmp_path, monkeypatch):
    # marshal writes a numpy scalar as bytes without an error, so a result holding one
    # would be right on a cold run and come back as bytes on a warm hit
    stored = {}

    def put(self, key, value, _put=ResultCache.put):
        stored[key] = value
        _put(self, key, value)

    monkeypatch.setattr(ResultCache, "put", put)
    sets = {**BASE["sets"], "orb": {"rule": "orbit", "system": "mark", "lo": -3, "hi": 400}}
    schemes = {**BASE["schemes"], "decay": {"weight": {"kind": "exp_decay", "rate": 0.01}}}
    systems = {**BASE["systems"], "rot": {"kind": "rotation", "alpha": "golden", "beta": 0.5}}
    functions = {**BASE["functions"], "e2": {"kind": "exponential", "theta": 0.5}}
    queries = [[[1, False, 0]], [[1, False, 2], [2, True, 1]]]
    tasks = [
        {"task": "density", "set": "gold", "shifts": [0, 1], "N": 1000},
        {"task": "upper_density", "set": "gold", "schedule": [100, 1000]},
        {"task": "subsequence", "set": "gold", "queries": [[0], [0, 1]], "eps": 0.5},
        {"task": "pair_correlation", "set": "gold", "N": 500, "H": 3},
        {"task": "cylinders", "set": "orb", "radius": 1, "depth": 2, "schedule": [60, 300],
         "patterns": True},
        {"task": "additivity", "set": "evens", "element": 1, "N": 10},
        {"task": "invariance", "set": "gold", "shift": 1, "N": 100},
        *({"task": "verify", "system": s, "queries": [[0], [0, 1]], "schedule": [2000]}
          for s in ("per", "mark", "rot")),
        {"task": "spectrum", "set": "gold", "depth": 2, "radius": 2, "schedule": [60, 600]},
        {"task": "compare", "set1": "evens", "set2": "odds", "depth": 1, "radius": 2,
         "eps": 1e-9, "schedule": [60, 600], "expect": "CONSISTENT"},
        {"task": "moments", "family": ["e1", "e2"], "scheme": "unit", "queries": queries,
         "N": 500, "oracle_thetas": [0.25, 0.5]},
        {"task": "accordance", "family": ["e1", "ind"], "scheme": "unit", "queries": queries,
         "schedule": [100, 1000], "eps": 0.5},
        {"task": "normcheck", "scheme": "decay", "N": 300, "tol": 1.0},
    ]
    path = write_cfg(tmp_path, tasks, sets=sets, schemes=schemes, systems=systems,
                     functions=functions)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    cold = json.loads((out / "report.json").read_text())["tasks"]
    assert len(stored) == len(tasks) and not any(e["cache_hit"] for e in cold)
    cache = ResultCache(str(out / ".cache"))
    for entry in cold:
        assert _same(cache.get(entry["key"]), stored[entry["key"]]), entry["task"]
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    warm = json.loads((out / "report.json").read_text())["tasks"]
    assert all(e["cache_hit"] for e in warm)
    assert [e["result"] for e in warm] == [e["result"] for e in cold]


@pytest.fixture
def fresh_code_identity():
    """`source_digest` recomputed on its next call, and again after the test."""
    source_digest.cache_clear()
    yield
    source_digest.cache_clear()


def test_code_identity_covers_numpy_version(tmp_path, monkeypatch, fresh_code_identity):
    assert source_digest() is source_digest()  # computed once per process
    path = write_cfg(tmp_path, KEYED_TASKS, sets=KEYED_SETS)
    out = str(tmp_path / "out")
    assert main(["run", "--config", path, "--out", out]) == 0
    first = json.loads((tmp_path / "out" / "report.json").read_text())
    # numpy's version enters as the bytes of its version.py, read without importing numpy
    monkeypatch.setattr("folnersys.cache.version_bytes", lambda: b'version = "0.0.0"\n')
    source_digest.cache_clear()
    parsed = []
    load = yaml.load
    monkeypatch.setattr(yaml, "load", lambda *a, **kw: parsed.append(1) or load(*a, **kw))
    assert main(["run", "--config", path, "--out", out]) == 0
    other = json.loads((tmp_path / "out" / "report.json").read_text())
    assert parsed == [1]  # the parsed-config blob missed too
    for a, b in zip(first["tasks"], other["tasks"], strict=True):
        assert a["key"] != b["key"] and not b["cache_hit"] and a["result"] == b["result"]


def test_yaml_version_keys_the_blob_but_no_result(tmp_path, monkeypatch, fresh_code_identity):
    # a result's key hashes the parsed mapping, so another PyYAML that parses the same
    # mapping reparses the file and serves every result from the cache
    path = write_cfg(tmp_path, KEYED_TASKS, sets=KEYED_SETS)
    out = str(tmp_path / "out")
    assert main(["run", "--config", path, "--out", out]) == 0
    first = json.loads((tmp_path / "out" / "report.json").read_text())
    # PyYAML's identity is the bytes of its __init__.py, read without importing yaml
    monkeypatch.setattr(config, "yaml_identity", lambda: b"__version__ = '0.0.0'\n")
    source_digest.cache_clear()
    parsed = []
    load = yaml.load
    monkeypatch.setattr(yaml, "load", lambda *a, **kw: parsed.append(1) or load(*a, **kw))
    assert main(["run", "--config", path, "--out", out]) == 0
    other = json.loads((tmp_path / "out" / "report.json").read_text())
    assert parsed == [1]  # the parsed-config blob missed
    for a, b in zip(first["tasks"], other["tasks"], strict=True):
        assert a["key"] == b["key"] and b["cache_hit"] and a["result"] == b["result"]


def _report_bytes(out) -> bytes:
    """report.json with its timings taken out."""
    return re.sub(rb'"seconds": [0-9.e-]+', b"", (out / "report.json").read_bytes())


def _blobs(root) -> list:
    return sorted(p.name for p in root.rglob("*.marshal"))


def _warm_reports(tmp_path, path, argv=()) -> tuple:
    """The report of a warm run through YAML and that of the warm run after it through
    the blob the first one stored, yaml.load refused in the second."""
    out = tmp_path / "out"
    run_ = ["run", "--config", path, "--out", str(out), *argv]
    assert main(run_) == 0  # cold: every result and the blob stored
    for blob in (out / ".cache").glob("*.marshal"):
        blob.unlink()
    assert main(run_) == 0
    through_yaml = _report_bytes(out)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(yaml, "load", lambda *a, **kw: pytest.fail("yaml.load called"))
        assert main(run_) == 0
    return through_yaml, _report_bytes(out)


def test_blob_hit_never_calls_yaml(tmp_path):
    path = write_cfg(tmp_path, KEYED_TASKS, sets=KEYED_SETS)
    through_yaml, through_blob = _warm_reports(tmp_path, path)
    assert through_blob == through_yaml
    assert len(_blobs(tmp_path)) == 1


def test_blob_of_anchored_config_gives_the_same_report(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(
        "group: {kind: Z}\n"
        "folner: {shape: interval, start: 0}\n"
        "schedule: &sched [100, 1000]\n"
        "seed: 7\n"
        "sets:\n"
        "  evens: &ev {rule: congruence, a: 0, m: 2}\n"
        "  twin: *ev\n"
        "tasks:\n"
        "  - &t {task: density, set: evens, shifts: &sh [0, 2], N: 1000}\n"
        "  - *t\n"
        "  - {task: density, set: twin, shifts: *sh, N: 500}\n"
        "  - {task: upper_density, set: twin, schedule: *sched}\n")
    through_yaml, through_blob = _warm_reports(tmp_path, str(path))
    assert through_blob == through_yaml
    assert through_blob.count(b'"set": "twin"') == 2


def test_seed_override_applied_on_blob_hit(tmp_path):
    raw = {**BASE, "sets": {**BASE["sets"], "rnd": {"rule": "bitmask", "lo": 0, "n": 256}}}
    path = write_cfg(tmp_path, [{"task": "density", "set": "rnd", "shifts": [0], "N": 256}],
                     sets=raw["sets"])
    out = tmp_path / "out"
    counts = {}
    for seed, blob_hit in [(1, False), (2, True), (1, True)]:
        with pytest.MonkeyPatch.context() as mp:
            if blob_hit:
                mp.setattr(yaml, "load", lambda *a, **kw: pytest.fail("yaml.load called"))
            assert main(["run", "--config", path, "--out", str(out), "--seed", str(seed)]) == 0
        task = json.loads((out / "report.json").read_text())["tasks"][0]
        counts.setdefault(seed, task["result"]["count"])
        assert task["result"]["count"] == counts[seed]
        assert task["result"] == run(load_config(path, seed_override=seed))["tasks"][0]["result"]
    assert counts[1] != counts[2]


def test_unreadable_blob_is_a_miss(tmp_path, caplog):
    caplog.set_level(logging.WARNING, logger="folnersys.cache")
    path = write_cfg(tmp_path, KEYED_TASKS, sets=KEYED_SETS)
    through_yaml, _ = _warm_reports(tmp_path, path)
    out = tmp_path / "out"
    (blob,) = (out / ".cache").glob("*.marshal")
    good = blob.read_bytes()
    other = marshal.dumps({"key": "0" * 64, "value": {}})
    for damaged in (good[:len(good) // 2], b"\x00garbage", other,
                    marshal.dumps((blob.stem, {})), marshal.dumps({"key": blob.stem})):
        blob.write_bytes(damaged)
        caplog.clear()
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        assert [r.levelname for r in caplog.records] == ["WARNING"], damaged
        assert "corrupt cache entry" in caplog.records[0].getMessage()
        assert _report_bytes(out) == through_yaml
        assert blob.read_bytes() == good  # stored again once the config was accepted


def test_comment_line_misses_blob_but_hits_results(tmp_path, monkeypatch):
    path = write_cfg(tmp_path, KEYED_TASKS, sets=KEYED_SETS)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    with open(path, "a") as fh:
        fh.write("# one more line\n")
    parsed = []
    load = yaml.load
    monkeypatch.setattr(yaml, "load", lambda *a, **kw: parsed.append(1) or load(*a, **kw))
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    assert parsed == [1]
    report = json.loads((out / "report.json").read_text())
    assert all(e["cache_hit"] for e in report["tasks"])
    assert len(_blobs(tmp_path)) == 2


def test_no_blob_without_an_accepted_cached_run(tmp_path, capsys):
    # a set named by a date: marshal cannot write it, and the run exits 2 as before
    day = datetime.date(2020, 1, 2)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({**BASE, "sets": {**BASE["sets"], day: {"rule": "dyadic"}},
                                    "tasks": []}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert "cannot be written as a cache key" in capsys.readouterr().err
    assert _blobs(tmp_path) == []
    # a config validation refuses
    bad = write_cfg(tmp_path, [{"task": "density", "set": "evens", "shift": [0], "N": 10}])
    assert main(["run", "--config", bad, "--out", str(out)]) == 2
    assert "unknown key 'shift'" in capsys.readouterr().err
    assert _blobs(tmp_path) == []
    # no cache asked for, or no output directory
    good = write_cfg(tmp_path, [{"task": "density", "set": "evens", "shifts": [0], "N": 10}])
    assert main(["run", "--config", good, "--out", str(out), "--no-cache"]) == 0
    assert main(["run", "--config", good]) == 0
    assert main(["density", "--config", good, "--set", "odds", "-N", "10"]) == 0
    assert _blobs(tmp_path) == []


def test_report_file_is_dumps_in_bounded_parts(tmp_path, monkeypatch):
    # report.json is json.dumps of the report byte for byte, cold and served by the
    # cache, yet written in parts: one encode call over the whole report held all of
    # its fragments at once
    sets = {**BASE["sets"], "orb": {"rule": "orbit", "system": "mark", "lo": -3, "hi": 400}}
    schemes = {**BASE["schemes"], "decay": {"weight": {"kind": "exp_decay", "rate": 0.01}}}
    functions = {**BASE["functions"], "e2": {"kind": "exponential", "theta": 0.5}}
    queries = [[[1, False, 0]], [[1, False, 2], [2, True, 1]]]
    tasks = [
        {"task": "density", "set": "gold", "shifts": [0, 1], "N": 1000},
        {"task": "upper_density", "set": "gold", "schedule": [100, 1000]},
        {"task": "subsequence", "set": "gold", "queries": [[0], [0, 1]], "eps": 0.5},
        {"task": "pair_correlation", "set": "gold", "N": 500, "H": 3},
        {"task": "cylinders", "set": "orb", "radius": 1, "depth": 2, "schedule": [60, 300],
         "patterns": True},
        {"task": "cylinders", "set": "gold", "radius": 3, "depth": 3, "schedule": [60, 600]},
        {"task": "additivity", "set": "evens", "element": 1, "N": 10},
        {"task": "invariance", "set": "gold", "shift": 1, "N": 100},
        {"task": "verify", "system": "mark", "queries": [[0], [0, 1]], "schedule": [2000]},
        {"task": "spectrum", "set": "gold", "depth": 2, "radius": 2, "schedule": [60, 600]},
        {"task": "compare", "set1": "evens", "set2": "odds", "depth": 1, "radius": 2,
         "eps": 1e-9, "schedule": [60, 600], "expect": "CONSISTENT"},
        {"task": "moments", "family": ["e1", "e2"], "scheme": "unit", "queries": queries,
         "N": 500, "oracle_thetas": [0.25, 0.5]},
        {"task": "accordance", "family": ["e1", "ind"], "scheme": "unit", "queries": queries,
         "schedule": [100, 1000], "eps": 0.5},
        {"task": "normcheck", "scheme": "decay", "N": 300, "tol": 1.0},
    ]
    path = write_cfg(tmp_path, tasks, sets=sets, schemes=schemes, functions=functions)
    out = tmp_path / "out"
    out.mkdir()
    parts, open_ = [], open

    class Spy:
        def __init__(self, *args, **kwargs):
            self.fh = open_(*args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, part):
            parts.append(len(part))
            return self.fh.write(part)

    monkeypatch.setattr(cli, "open", Spy, raising=False)
    for hit in (False, True):
        cfg = load_config(path, cache_dir=str(out / ".cache"))
        report = run(cfg, cache_dir=str(out / ".cache"))
        assert [e["cache_hit"] for e in report["tasks"]] == [hit] * len(tasks)
        assert len(report["tasks"][5]["result"]["rows"]) > cli._SPLIT_ROWS
        parts.clear()
        cli._write_report(report, str(out), "json")
        text = (out / "report.json").read_text()
        assert text == json.dumps(report, sort_keys=True, default=str) + "\n"
        # the long cylinder table alone is over 64 KB
        assert len(json.dumps(report["tasks"][5])) > 1 << 16 >= max(parts)


def test_report_parts_encode_as_json(tmp_path):
    # the opened levels, the report, an entry with many rows and its result, write
    # their keys and rows as json does: escaped keys, and rows handed back as a tuple
    rows = tuple({"n": n, "x": [n / 3, None, True], "é": "\"q\""} for n in range(100))
    entry = {"index": 0, "task": {"task": "t"}, "cache_hit": True, "seconds": 0.5,
             "key": "k", "☃ \"odd\"\n": 1,
             "result": {"rows": rows, "z\\": float("nan"), "a": (1, 2), "date":
                        datetime.date(2024, 1, 2)}}
    report = {"version": "v", "tasks": [entry, {**entry, "index": 1, "result": {"rows": []}}],
              "exit_code": 0, "ü": {"2": 1, "10": 2}}
    cli._write_report(report, str(tmp_path), "json")
    assert (tmp_path / "report.json").read_text() == json.dumps(
        report, sort_keys=True, default=str) + "\n"


@pytest.mark.parametrize("rate", [math.inf, -1, math.nan])
def test_exp_decay_rate_is_finite_and_nonnegative(tmp_path, capsys, rate):
    # an infinite rate made a moments row of NaN that printed PASS; a negative rate
    # overflowed the weight
    schemes = {"d": {"weight": {"kind": "exp_decay", "rate": rate}}}
    tasks = [{"task": "moments", "family": ["e1"], "scheme": "d", "queries": [[[1, False, 0]]],
              "N": 1000}]
    assert main(["run", "--config", write_cfg(tmp_path, tasks, schemes=schemes)]) == 2
    assert (f"scheme d: weight: rate must be finite and at least 0, got {rate!r}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("scheme, message", [
    ({"weight": {"kind": "custom", "table": {0: 1, 1: -3, 2: 1, 3: 1}}},
     "custom weight table entry for 1 is negative"),
    ({"weight": {"kind": "custom", "table": {0: 1, 1: 1, 2: 1, 3: 1, 9: -0.5}}},
     "custom weight table entry for 9 is negative"),
    ({"normalizer": {"kind": "const", "c": -1}}, "degenerate normalizer: b(4) is negative"),
    ({"normalizer": {"kind": "custom", "table": {4: -2.5}}},
     "degenerate normalizer: b(4) is negative"),
])
def test_negative_weight_or_normalizer_refused(tmp_path, capsys, scheme, message):
    # a weight -3 under b(N) = -1 read a normalization of exactly 0 as a verdict failure
    tasks = [{"task": "normcheck", "scheme": "s", "N": 4}]
    path = write_cfg(tmp_path, tasks, schemes={"s": scheme})
    assert main(["run", "--config", path]) == 2
    assert f"task 0: {message}" in capsys.readouterr().err
