"""Content-addressed result cache.

Keys are sha256 digests of the canonical JSON of (shared config sections,
task, digest of the package sources).  Entries are JSON files; anything
unreadable is treated as a miss with a warning, never an error.
"""
from __future__ import annotations

import hashlib
import json
import logging
import os
from pathlib import Path
from typing import Optional

log = logging.getLogger(__name__)


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def source_digest() -> str:
    """sha256 of the package's .py sources, so other code never shares a key."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class ResultCache:
    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key + ".json")

    def get(self, key: str) -> Optional[dict]:
        path = self._path(key)
        if not os.path.exists(path):
            return None
        try:
            with open(path) as fh:
                entry = json.load(fh)
            if entry.get("key") != key:
                raise ValueError("key mismatch")
            return entry["value"]
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
            log.warning("corrupt cache entry %s (%s); recomputing", key, e)
            return None

    def put(self, key: str, value: dict) -> None:
        tmp = self._path(key) + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({"key": key, "value": value}, fh, sort_keys=True)
        os.replace(tmp, self._path(key))
