"""Disk cache for CLI results: one JSON file per key under a cache directory.

The key hashes the command name, its parameters, and the package's own
source files, so results from any other version of the code simply never
match again (``__version__`` does not move when the numerics do).  Each
entry stores the sha256 of its payload's canonical JSON.  A corrupt or
unreadable file, or one whose payload no longer matches its digest, behaves
like a miss and is overwritten on store.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from functools import lru_cache
from pathlib import Path

from . import __version__

CACHE_ENV = "ACIRING_CACHE_DIR"


def cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "aciring"


@lru_cache(maxsize=None)
def _source_digest() -> str:
    """sha256 over the package's .py files, computed once per process on first use."""
    package = Path(__file__).resolve().parent
    h = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        h.update(path.relative_to(package).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def _digest(payload) -> str:
    """sha256 of the canonical JSON of the payload: sorted keys, no spaces."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def cache_key(command: str, **params) -> str:
    payload = {"command": command, "params": params, "version": __version__, "sources": _source_digest()}
    return _digest(payload)[:32]


def lookup(key: str):
    """The stored payload for the key, or None on miss/corruption."""
    path = cache_dir() / f"{key}.json"
    try:
        with open(path) as fh:
            entry = json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return None
    if not isinstance(entry, dict) or entry.get("version") != __version__:
        return None
    payload = entry.get("payload")
    return payload if entry.get("sha256") == _digest(payload) else None


def store(key: str, payload) -> None:
    """Write the entry atomically: a temp file of this writer's own, then os.replace.

    Raises OSError when the cache directory cannot be created or written.
    """
    directory = cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f"{key}.", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump({"version": __version__, "sha256": _digest(payload), "payload": payload}, fh)
        os.replace(tmp, directory / f"{key}.json")
    except BaseException:
        os.unlink(tmp)
        raise
