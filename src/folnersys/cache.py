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


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)


def digest_prefix(head: dict):
    """A sha256 state over the canonical JSON of the nonempty mapping `head`, left open
    for further members; see `digest`."""
    return hashlib.sha256((_canonical(head)[:-1] + ",").encode())


def digest(obj, prefix=None) -> str:
    """sha256 of the canonical JSON of `obj`.  With `prefix = digest_prefix(head)`, the
    digest of `{**head, **obj}` without serializing `head` again; every key of the
    nonempty mapping `obj` must sort after every key of `head`."""
    blob = _canonical(obj)
    if prefix is None:
        return hashlib.sha256(blob.encode()).hexdigest()
    h = prefix.copy()
    h.update(blob[1:].encode())
    return h.hexdigest()


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
        """The stored value, or None: silently when there is no entry, with a warning
        when the entry cannot be read."""
        try:
            with open(self._path(key)) as fh:
                entry = json.load(fh)
            if not isinstance(entry, dict) or entry.get("key") != key:
                raise ValueError("key mismatch")
            return entry["value"]
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError) as e:
            log.warning("corrupt cache entry %s (%s); recomputing", key, e)
            return None

    def put(self, key: str, value: dict) -> None:
        tmp = self._path(key) + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({"key": key, "value": value}, fh, sort_keys=True)
        os.replace(tmp, self._path(key))
