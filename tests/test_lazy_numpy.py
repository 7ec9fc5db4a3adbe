"""numpy is bound once, lazily (`folnersys._numpy`): importing the package and a rerun
served wholly from the result cache never load it.  Each run below is a fresh
interpreter, so the suite's own numpy import cannot hide a load; numpy counts as loaded
once `numpy._core` is in `sys.modules`."""
import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import yaml

from folnersys._numpy import version_bytes

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "folnersys"

# `folnersys run ...` in this interpreter, numpy imported first when argv[1] is
# "numpy-first"; the last line of stderr says whether numpy was loaded
PROBE = """
import sys
if sys.argv[1] == "numpy-first":
    import numpy
from folnersys.cli import main
code = main(sys.argv[2:])
print("numpy loaded:", "numpy._core" in sys.modules, file=sys.stderr)
sys.exit(code)
"""

# every kind of Z entry whose check needs no numpy (a Markov system checks its matrix
# with numpy when the config is validated)
CONFIG = {
    "group": {"kind": "Z"},
    "folner": {"shape": "interval", "start": 0},
    "schedule": [100, 1000],
    "seed": 7,
    "sets": {
        "evens": {"rule": "congruence", "a": 0, "m": 2},
        "odds": {"rule": "complement", "of": "evens"},
        "blocks": {"rule": "dyadic"},
        "gold": {"rule": "rotation", "alpha": "golden", "beta": 0.5},
        "noise": {"rule": "bitmask", "lo": 0, "n": 4096},
        "few": {"rule": "bitmask", "lo": -3, "bits": "0110100110010110" * 4},
        "orb": {"rule": "orbit", "system": "per", "lo": 0, "hi": 2000},
    },
    "systems": {"per": {"kind": "periodic", "pattern": "110"}},
    "schemes": {"unit": {},
                "lin": {"weight": {"kind": "linear"}, "normalizer": {"kind": "linear_mean"}}},
    "functions": {"e1": {"kind": "exponential", "theta": 0.25},
                  "ind": {"kind": "indicator", "set": "evens"},
                  "disk": {"kind": "random_disk"}},
    "tasks": [
        {"task": "density", "set": "gold", "shifts": [0, 1], "N": 1000},
        {"task": "density", "set": "noise", "shifts": [0, 3], "N": 1000},
        {"task": "density", "set": "few", "shifts": [-3, 0, 1], "N": 60},
        {"task": "upper_density", "set": "orb"},
        {"task": "verify", "system": "per", "queries": [[0], [0, 1]], "schedule": [999]},
        {"task": "cylinders", "set": "evens", "radius": 2, "depth": 2, "schedule": [60, 600]},
        {"task": "spectrum", "set": "blocks", "depth": 2, "radius": 3, "schedule": [64, 256]},
        {"task": "compare", "set1": "evens", "set2": "odds", "depth": 2, "radius": 3,
         "eps": 1e-6},
        {"task": "additivity", "set": "odds", "N": 500, "cylinder": [[0, 1]], "element": 5},
        {"task": "normcheck", "scheme": "unit", "N": 100, "tol": 1e-12},
        {"task": "moments", "family": ["e1", "ind", "disk"], "scheme": "unit", "N": 200,
         "queries": [[[1, False, 0], [2, True, 1]], [[3, False, 2]]]},
    ],
}


def _python(*args) -> subprocess.CompletedProcess:
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(p for p in (str(ROOT / "src"),
                                                     os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def _run(cfg, out, first="lazy") -> bool:
    """`folnersys run` of cfg into out in a fresh interpreter; whether it loaded numpy."""
    proc = _python("-c", PROBE, first, "run", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.splitlines()[-1] == "numpy loaded: True"


def _config(tmp_path) -> Path:
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(CONFIG))
    return path


def _report(out) -> dict:
    return json.loads((out / "report.json").read_text())


def _without(entry: dict, *keys) -> dict:
    return {k: v for k, v in entry.items() if k not in keys}


def test_import_does_not_load_numpy():
    proc = _python("-c", "import sys, folnersys; print('numpy._core' in sys.modules)")
    assert proc.stdout == "False\n", proc.stderr


def test_missing_numpy_raises_import_error():
    proc = _python("-c", "import sys; sys.modules['numpy'] = None; import folnersys")
    assert proc.returncode == 1
    assert "ModuleNotFoundError: No module named 'numpy'" in proc.stderr


def test_version_bytes_are_numpys_version():
    assert re.search(rb"\bversion = ['\"]" + re.escape(np.__version__.encode()),
                     version_bytes())


def test_all_hit_rerun_never_loads_numpy(tmp_path):
    cfg, out = _config(tmp_path), tmp_path / "out"
    assert _run(cfg, out)
    cold = _report(out)
    assert not _run(cfg, out)
    warm = _report(out)
    assert _without(warm, "tasks") == _without(cold, "tasks")
    for a, b in zip(cold["tasks"], warm["tasks"], strict=True):
        assert not a["cache_hit"] and b["cache_hit"]
        assert _without(a, "seconds", "cache_hit") == _without(b, "seconds", "cache_hit")


def test_comment_line_hits_every_result_without_numpy(tmp_path):
    cfg, out = _config(tmp_path), tmp_path / "out"
    assert _run(cfg, out)
    with open(cfg, "a") as fh:
        fh.write("# one more line\n")
    assert not _run(cfg, out)
    assert all(entry["cache_hit"] for entry in _report(out)["tasks"])
    assert len(list((out / ".cache").glob("*.marshal"))) == 2  # the blob missed


def test_cold_run_equal_with_numpy_imported_first(tmp_path):
    cfg = _config(tmp_path)
    lazy, first = tmp_path / "lazy", tmp_path / "first"
    assert _run(cfg, lazy) and _run(cfg, first, "numpy-first")

    def untimed(out):
        return re.sub(rb'"seconds": [0-9.e-]+', b"", (out / "report.json").read_bytes())

    assert untimed(lazy) == untimed(first)
    entries = sorted(p.name for p in (lazy / ".cache").iterdir())
    assert entries == sorted(p.name for p in (first / ".cache").iterdir())
    for name in entries:
        assert (lazy / ".cache" / name).read_bytes() == (first / ".cache" / name).read_bytes()


def _import_time(body):
    """The statements of body that run when the module is imported: nested blocks are
    entered, function bodies are not."""
    for node in body:
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _import_time(getattr(node, field, []))


def _imports(nodes, top: str):
    """The line of each of nodes that imports the package top or one of its modules."""
    for node in nodes:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(n == top or n.startswith(top + ".") for n in names):
            yield node.lineno


def _sources(skip: str):
    """(name, module tree) of each of the package's modules but skip."""
    trees = [(path.name, ast.parse(path.read_text(), str(path)))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != skip]
    assert {"groups.py", "cache.py", "cli.py"} <= {name for name, _ in trees}
    return trees


def test_only_the_binding_imports_numpy():
    # any other import of numpy at import time would load it with the package
    for name, tree in _sources("_numpy.py"):
        for line in _imports(_import_time(tree.body), "numpy"):
            raise AssertionError(f"{name}:{line} imports numpy")


def test_only_config_imports_yaml():
    # the config file is read in one place, and no other module's code depends on PyYAML
    for name, tree in _sources("config.py"):
        for line in _imports(ast.walk(tree), "yaml"):
            raise AssertionError(f"{name}:{line} imports yaml")


def test_each_scheme_refusal_has_one_site():
    # validation and the library refuse a scheme through the same check, so each
    # message is raised in exactly one place
    sites = {m: [] for m in ("degenerate normalizer", "weight is defined on Z only",
                             "linear weight needs", "custom weight table has no entry",
                             "custom normalizer table has no entry")}
    for name, tree in _sources(""):
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                text = [c.value for c in ast.walk(node.exc)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str)]
                for message, found in sites.items():
                    if any(message in t for t in text):
                        found.append(f"{name}:{node.lineno}")
    assert all(len(found) == 1 for found in sites.values()), sites


# `folnersys ...` in this interpreter; the last line of stderr says whether PyYAML
# was loaded
YAML_PROBE = """
import sys
from folnersys.cli import main
code = main(sys.argv[1:])
print("yaml loaded:", "yaml" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


def test_blob_hit_never_loads_yaml(tmp_path):
    # the blob's key reads PyYAML's identity from its __init__.py, so an all-hit rerun
    # never imports yaml
    cfg, out = _config(tmp_path), tmp_path / "out"
    loaded = []
    for _ in range(2):
        proc = _python("-c", YAML_PROBE, "run", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        loaded.append(proc.stderr.splitlines()[-1])
    assert loaded == ["yaml loaded: True", "yaml loaded: False"]
    assert all(entry["cache_hit"] for entry in _report(out)["tasks"])


def test_malformed_yaml_still_a_parse_error(tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("tasks: [\n")
    proc = _python("-c", YAML_PROBE, "run", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert f"config error: parse error in {cfg}" in proc.stderr
