"""numpy, bound once for the whole package and loaded at its first use.

Every module takes `np` from here, so importing the package, and a rerun served
wholly from the result cache, never load numpy (Scientific Python SPEC 1, built on
`importlib.util.LazyLoader`).  Two traps on Python 3.11:
- an `import numpy` statement, or `find_spec("numpy")` once the lazy module is in
  `sys.modules`, reads its `__spec__` and so loads it: no module here imports numpy
  itself, and `version_bytes` reads the spec kept below, never a new lookup;
- `version_bytes` needs the spec, so it is kept also when numpy was imported first,
  as the tests do.
A library user who calls in from threads should import numpy first: `LazyLoader`'s
first attribute access takes no lock on older CPythons.
"""
import importlib.util
import sys
from pathlib import Path

SPEC = importlib.util.find_spec("numpy")
if SPEC is None:
    raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
if "numpy" in sys.modules:
    np = sys.modules["numpy"]
else:
    SPEC.loader = importlib.util.LazyLoader(SPEC.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(SPEC)
    SPEC.loader.exec_module(np)


def version_bytes() -> bytes:
    """The bytes of numpy's `version.py` (its version and git revision), read without
    loading numpy."""
    return Path(SPEC.origin).with_name("version.py").read_bytes()
