"""The bench tracer patches package functions by name and reads their results
(`FolnerSpec.coords(N).shape[1]`, ...); a renamed or deleted one, or a result of
another shape, must fail the suite, not only a traced benchmark run."""
import json
import os
import subprocess
import sys

import yaml

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TRACED_RUNS = """
import json, sys
sys.path.insert(0, 'bench')
from tracer import Tracer
tracer = Tracer()
tracer.install()
from folnersys import cli
out = []
for path in sys.argv[1:]:
    code = cli.main(['run', '--config', path, '--no-cache', '--out', path + '.out'])
    out.append([code, dict(tracer.counters)])
    tracer.counters.clear()
print(json.dumps(out))
"""


def _traced(*args, timeout=120):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(p for p in (os.path.join(ROOT, "src"),
                                                     os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_bench_tracer_installs():
    _traced("-c", "import sys; sys.path.insert(0, 'bench'); from tracer import Tracer; "
                  "Tracer().install()")


def test_bench_tracer_runs_h3_and_z_configs(tmp_path):
    h3 = {"group": {"kind": "H3"}, "folner": {"shape": "heisenberg_box"}, "schedule": [2, 3],
          "sets": {"s": {"rule": "component", "rules": [[0, 2], None, [1, 3]]}},
          "tasks": [{"task": "cylinders", "set": "s", "radius": 1, "depth": 1},
                    {"task": "density", "set": "s", "shifts": [[0, 0, 0], [1, -1, 2]], "N": 3}]}
    z = {"folner": {"shape": "interval", "start": 0}, "schedule": [64, 128],
         "sets": {"evens": {"rule": "congruence", "a": 0, "m": 2}},
         "tasks": [{"task": "cylinders", "set": "evens", "radius": 2, "depth": 2},
                   {"task": "density", "set": "evens", "shifts": [0, 3], "N": 100}]}
    markov = {"folner": {"shape": "interval", "start": 0},
              "systems": {"m": {"kind": "markov", "P": [[0.7, 0.3], [0.4, 0.6]], "accept": [1]}},
              "tasks": [{"task": "verify", "system": "m", "queries": [[1, 3], [-2, 0]],
                         "schedule": [500, 1000], "seed": 3}]}
    paths = []
    for name, cfg in (("h3", h3), ("z", z), ("markov", markov)):
        paths.append(str(tmp_path / f"{name}.yaml"))
        (tmp_path / f"{name}.yaml").write_text(yaml.safe_dump(cfg))
    (code_h3, counters_h3), (code_z, _), (code_markov, counters_markov) = json.loads(
        _traced("-c", TRACED_RUNS, *paths).splitlines()[-1])
    assert code_h3 == 0 and code_z == 0 and code_markov == 0
    assert counters_h3["groups.coords_elems"] > 0
    # the verify orbit is the hull of its windows: the final index and shifts -2 to 3
    assert counters_markov["oracles.orbit_elems"] == 1000 + 3 - (-2)
