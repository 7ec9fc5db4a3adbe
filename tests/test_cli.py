import json

import pytest
import yaml

from folnersys import cli, runner
from folnersys.cache import ResultCache, digest
from folnersys.cli import main
from folnersys.config import load_config, parse_config
from folnersys.errors import ConfigError
from folnersys.runner import run

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


def write_cfg(tmp_path, tasks, **overrides):
    raw = {**BASE, **overrides, "tasks": tasks}
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


def test_parse_error_positions(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("group: {kind: Z\n")
    with pytest.raises(ConfigError, match="parse error"):
        load_config(str(path))


def test_dyadic_schedule():
    cfg = parse_config({**BASE, "schedule": {"dyadic": {"min_exp": 4, "max_exp": 6}},
                        "tasks": []})
    assert cfg.schedule == [16, 32, 64]


def test_determinism_and_cache(tmp_path):
    tasks = [
        {"task": "density", "set": "gold", "shifts": [0, 1], "N": 10000},
        {"task": "verify", "system": "mark", "queries": [[0], [0, 1]],
         "schedule": [10000]},
    ]
    path = write_cfg(tmp_path, tasks)
    out = str(tmp_path / "out")
    r1 = run(load_config(path), out_dir=out)
    r2 = run(load_config(path), out_dir=out)
    assert all(e["cache_hit"] for e in r2["tasks"])
    assert not any(e["cache_hit"] for e in r1["tasks"])

    def strip(rep):
        return json.dumps(
            [{k: v for k, v in e.items() if k not in ("seconds", "cache_hit")}
             for e in rep["tasks"]],
            sort_keys=True, default=str)

    assert strip(r1) == strip(r2)
    # no-cache recomputation is byte-identical
    r3 = run(load_config(path), out_dir=out, use_cache=False)
    assert strip(r1) == strip(r3)


def test_cache_key_changes_with_n(tmp_path):
    t1 = {"task": "density", "set": "evens", "shifts": [0], "N": 100}
    t2 = {**t1, "N": 200}
    assert digest({"task": t1}) != digest({"task": t2})


def test_cache_corruption_is_a_miss(tmp_path):
    cache = ResultCache(str(tmp_path / "c"))
    cache.put("k" * 64, {"x": 1})
    assert cache.get("k" * 64) == {"x": 1}
    with open(cache._path("k" * 64), "w") as fh:
        fh.write("{not json")
    assert cache.get("k" * 64) is None


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


def test_cli_tuple_cap_exit_code(tmp_path, capsys):
    # 559,736 tuples at depth 4, radius 60: refused before any is built
    path = write_cfg(tmp_path, [
        {"task": "compare", "set1": "evens", "set2": "odds", "depth": 4,
         "radius": 60, "eps": 1e-9, "schedule": [60, 600]},
    ])
    assert main(["run", "--config", path]) == 3
    assert "tuple count 559736 exceeds cap 200000" in capsys.readouterr().err


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
        ({"task": "density", "set": "b", "N": 10},
         {"sets": {"b": {"rule": "bitmask", "n": "abc"}}}, "invalid literal for int()"),
        ({"task": "density", "set": "c", "N": 10},
         {"sets": {"c": {"rule": "congruence", "a": 0, "m": 0}}}, "modulus must be positive"),
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
         "radius must be an integer, got inf"),
        ({"task": "spectrum", "set": "evens", "radius": 2, "depth": float("inf")}, {},
         "depth must be an integer, got inf"),
    ]
    for task, overrides, message in refused:
        path = write_cfg(tmp_path, [task], **overrides)
        assert main(["run", "--config", path]) == 2, (task, overrides)
        assert f"task 0: {message}" in capsys.readouterr().err
    # a complement of itself used to recurse until RecursionError
    for sets, message in [
        ({"a": {"rule": "complement", "of": "a"}}, "set a: complement cycle a -> a"),
        ({"a": {"rule": "complement", "of": "b"}, "b": {"rule": "complement", "of": "a"}},
         "set a: complement cycle a -> b -> a"),
    ]:
        path = write_cfg(tmp_path, [{"task": "density", "set": "a", "N": 10}], sets=sets)
        assert main(["run", "--config", path]) == 2, sets
        assert message in capsys.readouterr().err
    # PyYAML refuses an integer literal of over 4300 digits with a ValueError
    path = tmp_path / "huge.yaml"
    path.write_text(f"tasks: [{{task: density, set: evens, N: {'9' * 5000}}}]\n")
    assert main(["run", "--config", str(path)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_cache_miss_under_other_code(tmp_path, monkeypatch):
    path = write_cfg(tmp_path, [{"task": "density", "set": "evens", "shifts": [0], "N": 100}])
    out = str(tmp_path / "out")
    first = run(load_config(path), out_dir=out)
    assert run(load_config(path), out_dir=out)["tasks"][0]["cache_hit"]
    monkeypatch.setattr(runner, "source_digest", lambda: "0" * 64)
    other = run(load_config(path), out_dir=out)
    assert not other["tasks"][0]["cache_hit"]
    assert other["tasks"][0]["key"] != first["tasks"][0]["key"]
    assert other["config_digest"] == first["config_digest"]


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
    # a Markov orbit of n points over k states scans an n x k map table, so it is
    # refused at n*k: here 1000 points x 2 states over a cap of 1500
    orbit = {"rule": "orbit", "system": "mark", "lo": 0, "hi": 1000}
    for task, sets in [
        ({"task": "verify", "system": "mark", "queries": [[0]], "schedule": [1000]}, {}),
        ({"task": "density", "set": "o", "N": 10}, {"o": orbit}),
    ]:
        path = write_cfg(tmp_path, [task], caps={"window": 1500}, sets=sets)
        assert main(["run", "--config", path]) == 3, task
        assert "window of 1000 elements x 2 Markov states exceeds cap 1500" in \
            capsys.readouterr().err


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
    ]:
        task = {**task, "set": "s", "depth": 1, "schedule": [4]}
        path = write_cfg(tmp_path, [task], **overrides)
        assert main(["run", "--config", path]) == 3, task
        assert message in capsys.readouterr().err


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
