"""On-disk result cache: one file per command fingerprint, written
atomically (temp file then rename).  An entry is a header line, the
fingerprint and the SHA-256 of the body, then the body: the exact CSV text
the command prints.  An entry whose header does not match the
fingerprint and a fresh digest of its body (an edited cell, a dropped row,
a truncated or misplaced file) is quarantined with a warning and treated as
a miss.  The CLI keys each entry by a digest of the package source too, so
an edit to any byte of it, the version and this entry format included,
makes every old entry a miss.

This is the one module that hashes.  SHA-256 comes from the interpreter's
builtin module, so a cached run never loads `hashlib` and with it OpenSSL's
libcrypto; the digests are the same bytes either way.
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


def _digest(text: str) -> str:
    return sha256(text.encode("utf-8")).hexdigest()


def fingerprint(config: dict) -> str:
    """sha256 of the repr of the config's sorted items.  Its keys are
    strings and its values strings or lists of them, whose reprs quote and
    escape every character, so two configs share a form only when they are
    equal, whatever free text a value holds."""
    return _digest(repr(sorted(config.items())))


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
    return os.path.join(cache_dir, f"{fp}.csv")


def store(cache_dir: str, config: dict, payload: str) -> str:
    """Write the CSV text under the config's fingerprint, after a header of
    the fingerprint and the text's digest; returns the path."""
    fp = fingerprint(config)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"{fp} {_digest(payload)}\n{payload}")
        os.replace(tmp, _path(cache_dir, fp))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return _path(cache_dir, fp)


def load(cache_dir: str, config: dict):
    """Make the directory, then return the cached CSV text for this config,
    or None on miss.  A file whose header does not match the fingerprint
    and its body's digest is renamed aside."""
    os.makedirs(cache_dir, exist_ok=True)
    fp = fingerprint(config)
    path = _path(cache_dir, fp)
    if not os.path.exists(path):
        return None
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            header, _, body = fh.read().partition("\n")
        if header != f"{fp} {_digest(body)}":
            raise ValueError("header does not match the fingerprint and body digest")
    except ValueError as exc:  # a UnicodeDecodeError too
        quarantine = path + ".corrupt"
        os.replace(path, quarantine)
        import logging

        logging.getLogger(__name__).warning(
            "quarantined corrupt cache file %s (%s)", quarantine, exc
        )
        return None
    return body
