"""Optional on-disk cache for per-n pairing structures.

Caching is off unless the environment variable GENUS0_CACHE_DIR names a
directory.  Each label count n gets one JSON file holding named sections
(the sparse pairing rows); writers merge their section into the existing
file and replace it atomically, so a crash mid-write never leaves a
truncated file behind.  Payloads are keyed by a format version; stale
files are ignored rather than migrated.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

VERSION = "1"

_ENV = "GENUS0_CACHE_DIR"


def cache_dir() -> Path | None:
    root = os.environ.get(_ENV)
    if not root:
        return None
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _file(n: int) -> Path | None:
    root = cache_dir()
    if root is None:
        return None
    return root / f"n{n}.json"


def _read(path: Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return {}
    if not isinstance(data, dict) or data.get("version") != VERSION:
        return {}
    return data


def load(n: int, section: str, key: str):
    """The cached payload under (section, key) for this n, or None."""
    path = _file(n)
    if path is None or not path.exists():
        return None
    return _read(path).get(section, {}).get(key)


def store(n: int, section: str, key: str, payload) -> None:
    """Merge one payload into the per-n file; no-op when caching is off."""
    path = _file(n)
    if path is None:
        return
    data = _read(path) if path.exists() else {}
    data["version"] = VERSION
    data.setdefault(section, {})[key] = payload
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
