"""Hardened JSONL primitives shared by the on-disk stores.

The keyed record store (:mod:`repro.api.store`) and the campaign
journal both speak the same dialect: append-only JSON lines, one record
each, written by possibly-concurrent processes on a filesystem that
may lose power mid-append.  This module is the single implementation
of the durability mechanics they share:

* :func:`line_checksum` / :func:`verify_entry` — a per-line SHA-256
  digest over the canonical payload, so silent bit rot is detected on
  load instead of being served as a cached result.  Lines without a
  ``"sha"`` field (written before hardening) still verify, so old
  caches stay readable.
* :func:`locked_append` / :func:`locked_rewrite` — advisory
  ``flock``-style exclusive locking around writes, so concurrent
  ``repro batch --cache`` invocations interleave whole lines (no
  torn appends) and a compaction never races an appender.  On
  platforms without :mod:`fcntl` the lock degrades to a no-op, which
  is exactly the pre-hardening behaviour.
* :func:`read_entries` — the one line-reading loop: verified JSON
  objects out, every unparseable, non-object or checksum-failing line
  handed to the caller's ``on_bad`` hook.
* :func:`quarantine_line` — corrupt lines are moved aside into a
  ``<store>.quarantine`` sidecar (with a reason) rather than silently
  dropped, so a damaged cache is diagnosable after the fact.

:func:`locked_rewrite` replaces the file atomically (temp file +
``os.replace``) so a reader never observes a half-compacted store.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

try:  # pragma: no cover - platform probe
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

#: Length of the stored checksum prefix (hex chars).
CHECKSUM_LEN = 16


def line_checksum(payload: dict[str, Any]) -> str:
    """Digest of a line's payload (everything except ``"sha"``)."""
    body = {k: v for k, v in payload.items() if k != "sha"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:CHECKSUM_LEN]


def verify_entry(entry: dict[str, Any]) -> bool:
    """True when the entry's checksum matches (or predates hardening)."""
    sha = entry.get("sha")
    if sha is None:
        return True  # pre-hardening line: no digest to check
    return sha == line_checksum(entry)


def stamp_entry(payload: dict[str, Any]) -> dict[str, Any]:
    """The payload with its ``"sha"`` checksum field filled in."""
    stamped = dict(payload)
    stamped["sha"] = line_checksum(payload)
    return stamped


@contextmanager
def _locked(path: Path) -> Iterator[Any]:
    """Exclusive advisory lock on ``<path>.lock`` (no-op without fcntl).

    A sidecar lock file (not the store itself) is locked, so rewrites
    can atomically replace the store while the lock is held.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX
        yield None
        return
    lock_path = path.with_name(path.name + ".lock")
    with lock_path.open("a") as lock_fh:
        fcntl.flock(lock_fh.fileno(), fcntl.LOCK_EX)
        try:
            yield lock_fh
        finally:
            fcntl.flock(lock_fh.fileno(), fcntl.LOCK_UN)


def locked_append(path: Path, payload: dict[str, Any]) -> None:
    """Append one checksummed line under the store's advisory lock."""
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(stamp_entry(payload))
    with _locked(path):
        with path.open("a") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())


def locked_rewrite(
    path: Path, build: Callable[[], Iterable[dict[str, Any]]]
) -> None:
    """Atomically replace the store with checksummed payloads.

    ``build()`` runs under the lock, so it can re-read the file and
    merge what other writers appended before it is replaced.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with _locked(path):
        payloads = build()
        with tmp.open("w") as fh:
            for payload in payloads:
                fh.write(json.dumps(stamp_entry(payload)) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)


def read_entries(
    path: Path | str | os.PathLike,
    on_bad: Callable[[str, str], None] | None = None,
) -> Iterator[dict]:
    """Stream the verified entries of a JSONL file, one at a time.

    The single line reader behind the stores, the campaign journal and
    the streaming readers: yields each parsed, checksum-verified JSON
    object without holding more than one line in memory.  A line that
    does not parse, is not a JSON object, or fails its checksum is
    handed to ``on_bad(line, reason)`` -- the stores quarantine it, the
    journal counts it -- and skipped when ``on_bad`` is None (streaming
    readers must not mutate a file they do not own).  A missing file
    yields nothing.
    """
    path = Path(path)
    if not path.exists():
        return
    with path.open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError as exc:
                reason = str(exc)
            else:
                if not isinstance(entry, dict):
                    reason = "line is not a JSON object"
                elif not verify_entry(entry):
                    reason = "checksum mismatch"
                else:
                    yield entry
                    continue
            if on_bad is not None:
                on_bad(line, reason)


def quarantine_path(path: Path) -> Path:
    """The sidecar file corrupt lines of ``path`` are moved into."""
    return path.with_name(path.name + ".quarantine")


def quarantine_line(path: Path, raw_line: str, reason: str) -> None:
    """Append one corrupt line (with its reason) to the quarantine
    sidecar.  Never raises — quarantine is best-effort bookkeeping on
    an already-degraded store."""
    try:
        entry = json.dumps({"reason": reason, "line": raw_line})
        with quarantine_path(path).open("a") as fh:
            fh.write(entry + "\n")
    except OSError:  # pragma: no cover - quarantine must not crash loads
        pass
