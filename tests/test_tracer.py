"""The bench tracer patches package functions by name; a renamed or deleted
one must fail the suite, not only a traced benchmark run."""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_tracer_installs():
    code = "import sys; sys.path.insert(0, 'bench'); from tracer import Tracer; Tracer().install()"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(p for p in (os.path.join(ROOT, "src"),
                                                     os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
