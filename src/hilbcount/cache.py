"""On-disk result cache: one JSON file per command fingerprint, written
atomically (temp file then rename).  The payload is a table: a dict whose
"columns" is a list of strings and whose "rows" is a list of lists of
strings.  Corrupted files, malformed tables included, are quarantined with a
warning and treated as misses.  The CLI keys each entry by a digest of the
package source too, so an edit to any byte of it, the version and this
entry format included, makes every old entry a miss.

This is the one module that hashes.  SHA-256 comes from the interpreter's
builtin module, so a cached run never loads `hashlib` and with it OpenSSL's
libcrypto; the digests are the same bytes either way.  `json` is imported by
the functions that use it, so importing this module loads none.
"""

from __future__ import annotations

import os
import tempfile

try:
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # Python <= 3.11
    except ImportError:
        from hashlib import sha256  # an interpreter built without them


def fingerprint(config: dict) -> str:
    """sha256 of the canonical JSON serialization of the run configuration."""
    import json

    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode("utf-8")).hexdigest()


def source_digest(pkg_dir: str) -> str:
    """sha256 over the names and bytes of the package's *.py files, read in
    sorted name order without importing them."""
    h = sha256()
    for name in sorted(f for f in os.listdir(pkg_dir) if f.endswith(".py")):
        with open(os.path.join(pkg_dir, name), "rb") as fh:
            data = fh.read()
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def _path(cache_dir: str, fp: str) -> str:
    return os.path.join(cache_dir, f"{fp}.json")


def store(cache_dir: str, config: dict, payload) -> str:
    """Write the payload table under the config's fingerprint; returns the
    path."""
    import json

    os.makedirs(cache_dir, exist_ok=True)
    fp = fingerprint(config)
    entry = {"fingerprint": fp, "payload": payload}
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(entry, fh)
        os.replace(tmp, _path(cache_dir, fp))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return _path(cache_dir, fp)


def _is_table(payload) -> bool:
    if not isinstance(payload, dict):
        return False
    columns, rows = payload.get("columns"), payload.get("rows")
    return (
        isinstance(columns, list)
        and all(isinstance(c, str) for c in columns)
        and isinstance(rows, list)
        and all(isinstance(r, list) and all(isinstance(v, str) for v in r) for r in rows)
    )


def load(cache_dir: str, config: dict):
    """Return the cached payload for this config, or None on miss.  A file
    that fails to parse or violates its invariants is renamed aside."""
    import json

    fp = fingerprint(config)
    path = _path(cache_dir, fp)
    if not os.path.exists(path):
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
        if not isinstance(entry, dict):
            raise ValueError("cache entry is not an object")
        if entry.get("fingerprint") != fp:
            raise ValueError("fingerprint mismatch")
        payload = entry["payload"]
        if not _is_table(payload):
            raise ValueError("payload is not a table of string columns and rows")
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        quarantine = path + ".corrupt"
        os.replace(path, quarantine)
        import logging

        logging.getLogger(__name__).warning(
            "quarantined corrupt cache file %s (%s)", quarantine, exc
        )
        return None
    return payload
