"""Content-addressed result cache.

Keys are sha256 digests of the canonical JSON of (digest of the shared config
sections, task, code identity).  Task results (`KEY.result`) and parsed config
blobs (`KEY.marshal`) are both marshal dumps of {"key": KEY, "value": mapping},
so a value comes back exactly as stored, tuples and integer dict keys included.
Anything unreadable is treated as a miss with a warning, never an error.  The
code identity reads numpy's version from its `version.py` without importing
numpy, so a run served wholly from here never loads it.
"""
from __future__ import annotations

import functools
import hashlib
import json
import logging
import marshal
import os
import sys
from pathlib import Path
from typing import Optional

from ._numpy import version_bytes

log = logging.getLogger(__name__)


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)


def digest(obj) -> str:
    """sha256 of the canonical JSON of `obj`."""
    return hashlib.sha256(_canonical(obj).encode()).hexdigest()


@functools.cache
def source_digest() -> str:
    """sha256 of the package's .py sources and of the Python and numpy versions they
    run on, so other code never shares a key; computed once per process.  numpy's
    version and git revision are the bytes of its `version.py`, read without importing
    numpy."""
    h = hashlib.sha256(repr((sys.version, version_bytes())).encode())
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _read(path: str, key: str) -> Optional[dict]:
    """The mapping `_write` stored at path under key, or None: silently when there is
    no entry, with a warning when it cannot be read or its value is not a mapping."""
    try:
        with open(path, "rb") as fh:
            entry = marshal.loads(fh.read())
        if not isinstance(entry, dict) or entry.get("key") != key:
            raise ValueError("key mismatch")
        if not isinstance(entry.get("value"), dict):
            raise ValueError("value is not a mapping")
        return entry["value"]
    except (FileNotFoundError, NotADirectoryError):  # no entry, or no directory to hold one
        return None
    except (OSError, EOFError, TypeError, ValueError) as e:
        log.warning("corrupt cache entry %s (%s); recomputing", os.path.basename(path), e)
        return None


def _write(path: str, key: str, mapping: dict) -> None:
    """Stores mapping under key at path through a temporary file, so no reader sees a
    part; nothing when marshal cannot write a value, such as a YAML date.  marshal
    writes an object with a buffer, such as a numpy scalar, as bytes: pass none."""
    try:
        blob = marshal.dumps({"key": key, "value": mapping})
    except ValueError:
        return
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, path)


def get_blob(root: str, key: str) -> Optional[dict]:
    """YAML's mapping of a config file that `put_blob` stored under key, or None."""
    return _read(os.path.join(root, key + ".marshal"), key)


def put_blob(root: str, key: str, mapping: dict) -> None:
    os.makedirs(root, exist_ok=True)
    _write(os.path.join(root, key + ".marshal"), key, mapping)


class ResultCache:
    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key + ".result")

    def get(self, key: str) -> Optional[dict]:
        """The stored value, or None, as `_read` gives it."""
        return _read(self._path(key), key)

    def put(self, key: str, value: dict) -> None:
        _write(self._path(key), key, value)
