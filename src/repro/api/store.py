"""On-disk record caches: one hardened, keyed JSONL store.

Repeated campaigns (load sweeps re-run with one extra point, CI jobs,
multi-process fan-outs) keep re-measuring operating points that have
already been simulated, and re-aggregating reports from them.  One
store implementation persists both kinds of result as JSON lines keyed
by ``(kind, content hash)``:

* :class:`RunRecordStore` — the ``"run"`` face: every
  :class:`~repro.api.records.RunRecord` keyed by the scenario's
  :meth:`~repro.api.scenario.Scenario.content_hash`, so any later run
  of a byte-identical scenario — in this process or another — is
  served from disk instead of re-simulated.  Because both engines are
  bit-identical and every scenario carries its seed, a cached record
  *is* the record the run would produce.
* :class:`DerivedRecordStore` — whole derived records
  (:class:`~repro.campaigns.comparison.ComparisonRecord` JSON keyed by
  ``Campaign.content_hash()``, :class:`~repro.network.power.
  NetworkRecord` JSON keyed by ``NetworkSpec.content_hash()``, ...),
  so ``repro campaign report --figures`` and ``repro network run
  --figures`` against a warm store need **no session at all**.  It is
  type-agnostic: the typed ``from_dict`` reconstruction happens at the
  caller, so the api layer imports neither campaigns nor network.

The record kind is the namespace, so both faces can share one file.
Run lines are ``{"key", "record", "sha"}`` with no ``kind`` field (a
line without one is a run line), derived lines are ``{"key", "kind",
"record", "sha"}``.

Durability contract (shared with the campaign journal via
:mod:`repro.api.jsonl`):

* append-only JSONL, whole lines, written under an advisory file lock
  and fsynced — concurrent ``repro batch --cache`` invocations
  interleave cleanly, and a kill mid-append tears at most the final
  line;
* every line carries a SHA-256 checksum over its payload; a line that
  fails to parse, to verify or (run lines) to decode is moved into the
  ``<store>.quarantine`` sidecar (with a reason) and counted, degrading
  to a cache miss instead of being served as a result;
* re-``put`` of a changed record for an existing key appends a new line
  (the loader is last-wins), so an updated record is never silently
  dropped on disk; :meth:`~_KeyedStore.compact` rewrites the file
  atomically to one line per ``(kind, key)``, every kind kept.

Lines written before hardening (no ``"sha"`` field) still load, so old
caches stay valid.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterator

from repro.errors import ConfigurationError

from repro.api.jsonl import (
    locked_append,
    locked_rewrite,
    quarantine_line,
    read_entries,
)
from repro.api.records import RunRecord
from repro.api.scenario import Scenario

#: The kind of scenario-run lines; they are written without a ``kind``.
RUN_KIND = "run"


def _line(kind: str, key: str, payload: dict[str, Any]) -> dict[str, Any]:
    """The on-disk line (before its checksum) of one store entry."""
    if kind == RUN_KIND:
        return {"key": key, "record": payload}
    return {"key": key, "kind": kind, "record": payload}


def iter_run_entries(
    path: str | os.PathLike,
) -> Iterator[tuple[str, dict]]:
    """Stream ``(key, record-dict)`` pairs of the run lines of a store.

    Unlike constructing a :class:`RunRecordStore` (which eagerly
    materializes every line as a :class:`RunRecord`), this yields the
    raw cache dicts one line at a time — the right primitive when a
    consumer (e.g. surrogate training) only needs a handful of scalar
    features per record.  Derived lines sharing the file are skipped.
    Duplicate keys are yielded in file order; last-wins deduplication,
    if wanted, is the consumer's fold.  Corrupt lines are skipped
    without quarantine side effects.
    """
    for entry in read_entries(path):
        key = entry.get("key")
        record = entry.get("record")
        if (
            entry.get("kind", RUN_KIND) == RUN_KIND
            and isinstance(key, str)
            and isinstance(record, dict)
        ):
            yield key, record


class _KeyedStore:
    """JSONL-backed ``(kind, key) -> record dict`` map.

    The one implementation of loading (quarantine-and-count, last
    wins), appending, hit/miss counting, :meth:`compact` and
    :meth:`stats`; the public faces add their typed ``get``/``put``.
    The file is created (with parents) on first put; an existing file
    is loaded eagerly, every kind in it.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._payloads: dict[tuple[str, str], dict[str, Any]] = {}
        self.hits = 0
        self.misses = 0
        self.skipped_lines = 0
        self.quarantined = 0
        for kind, key, payload in self._entries(self._quarantine):
            self._payloads[(kind, key)] = payload

    def _entries(self, on_bad) -> Iterator[tuple[str, str, dict[str, Any]]]:
        """The file's valid ``(kind, key, payload)`` entries, in order.

        Bad lines go to ``on_bad(line, reason)``, or are skipped when it
        is None.
        """
        for entry in read_entries(self.path, on_bad):
            try:
                kind = entry.get("kind", RUN_KIND)
                key = entry["key"]
                payload = entry["record"]
                if not isinstance(kind, str) or not isinstance(key, str):
                    raise TypeError("key and kind must be strings")
                if not isinstance(payload, dict):
                    raise TypeError("record payload must be an object")
                self._decode(kind, key, payload)
            except (
                KeyError,
                TypeError,
                ValueError,
                ConfigurationError,
            ) as exc:
                # Partial/corrupt/foreign line (a writer died
                # mid-append, or the line rotted on disk): a cache
                # must degrade to a miss, not an error — but the
                # damage is moved aside and counted, not silently
                # swallowed.
                if on_bad is not None:
                    on_bad(json.dumps(entry), str(exc))
                continue
            yield kind, key, payload

    def _quarantine(self, line: str, reason: str) -> None:
        self.skipped_lines += 1
        self.quarantined += 1
        quarantine_line(self.path, line, reason)

    def _decode(self, kind: str, key: str, payload: dict[str, Any]) -> None:
        """Load hook for one entry; raising quarantines the line."""

    def _count(self, found: Any) -> Any:
        """Count a lookup as a hit or a miss and return its result."""
        if found is None:
            self.misses += 1
        else:
            self.hits += 1
        return found

    def _put(self, kind: str, key: str, payload: dict[str, Any]) -> None:
        """Persist one entry (one appended, checksummed JSONL line).

        A payload identical to what is already stored for its key is a
        no-op; a *changed* payload appends a superseding line (the
        loader is last-wins) — it is never dropped from disk while only
        the in-memory copy updates.
        """
        if self._payloads.get((kind, key)) == payload:
            return
        self._payloads[(kind, key)] = payload
        locked_append(self.path, _line(kind, key, payload))

    def compact(self) -> int:
        """Atomically rewrite the file to one line per (kind, key)
        (latest wins), dropping superseded and corrupt lines and keeping
        every kind, not only this face's.  Returns the number of lines
        written.

        The file is re-read under the write lock and merged last-wins
        into this store, so lines other store objects appended after
        this one loaded survive (and become visible here).  Lines that
        fail to load are dropped without a second quarantine.
        """
        lines: list[dict[str, Any]] = []

        def merged() -> list[dict[str, Any]]:
            for kind, key, payload in self._entries(None):
                self._payloads[(kind, key)] = payload
            lines.extend(
                _line(kind, key, payload)
                for (kind, key), payload in self._payloads.items()
            )
            return lines

        locked_rewrite(self.path, merged)
        return len(lines)

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "skipped_lines": self.skipped_lines,
            "quarantined": self.quarantined,
        }


class DerivedRecordStore(_KeyedStore):
    """``(kind, content hash) -> record dict`` cache of derived records.

    Parameters
    ----------
    path:
        The JSONL file; it may be shared with a :class:`RunRecordStore`.
    """

    def __len__(self) -> int:
        return sum(kind != RUN_KIND for kind, _ in self._payloads)

    def get(self, key: str, kind: str) -> dict[str, Any] | None:
        """The cached record dict for (kind, key), or None (a miss)."""
        return self._count(self._payloads.get((kind, key)))

    def put(self, key: str, kind: str, record: dict[str, Any]) -> None:
        """Persist a derived record (see :meth:`_KeyedStore._put`)."""
        self._put(kind, key, record)


class RunRecordStore(_KeyedStore):
    """Scenario-hash -> :class:`RunRecord` cache (the ``"run"`` kind).

    Parameters
    ----------
    path:
        The JSONL file; it may be shared with a
        :class:`DerivedRecordStore`.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self._records: dict[str, RunRecord] = {}
        super().__init__(path)

    def _decode(self, kind: str, key: str, payload: dict[str, Any]) -> None:
        # A run line that verifies but no longer decodes raises here
        # and is quarantined like any other corrupt line.
        if kind == RUN_KIND:
            self._records[key] = RunRecord.from_cache_dict(payload)

    def __len__(self) -> int:
        return len(self._records)

    def get(self, scenario: Scenario) -> RunRecord | None:
        """The cached record for a scenario, or None (counted as miss)."""
        return self._count(self._records.get(scenario.content_hash()))

    def put(self, record: RunRecord) -> None:
        """Persist a record (see :meth:`_KeyedStore._put`)."""
        key = record.scenario.content_hash()
        self._records[key] = record
        self._put(RUN_KIND, key, record.to_cache_dict())
