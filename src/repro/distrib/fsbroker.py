"""A filesystem broker: one shared directory, many processes and hosts.

No server, no new dependencies: the broker *is* a directory (local for a
multi-process deployment, NFS/EFS-style for multi-host), and the POSIX
rename is the concurrency primitive.  :class:`FileBroker` is a record
store for the lifecycle that :class:`~repro.distrib.broker.Broker`
writes once; each record kind is one subdirectory.  Layout::

    <root>/jobs/<id>.json       immutable job record (payload, attempt budget)
    <root>/pending/<key>.json   deliverable tickets; the sorted file name
                                encodes delivery order (not-before ms, attempt)
    <root>/leased/<id>.json     live leases (worker, attempt, deadline, started)
    <root>/done/<id>.json       results — created with os.link, so exactly
                                one completion ever wins
    <root>/dead/<id>.json       dead-lettered jobs (last error, attempts)
    <root>/cancelled/<id>.json  cancelled-before-delivery markers
    <root>/workers/<id>.json    worker registrations + heartbeats
    <root>/spans/<id>.*.json    per-attempt trace spans, one file per
                                completion/failure report (re-delivered
                                attempts file siblings, never append)
    <root>/tmp/                 scratch for atomic writes and takeovers

Claiming a job is ``os.rename(pending/<ticket>, leased/<id>.json)`` —
atomic on every POSIX filesystem, so exactly one worker wins however
many race; the loser gets ``FileNotFoundError`` and moves on.
Completion writes a scratch file and ``os.link``\\ s it to
``done/<id>.json`` — the link fails with ``FileExistsError`` when a
re-delivered twin finished first, which is exactly the duplicate-
completion no-op the protocol requires.  Every other write is a
write-to-scratch + ``os.replace``.  Fields added to a record since the
layout was first written (``started``) are optional to every reader, so
workers of different versions can share one directory.

All state transitions are crash-safe: a worker that dies at any point
leaves either a pending ticket (never claimed) or a leased file whose
deadline lapses, and :meth:`~repro.distrib.broker.Broker.reap` (run
opportunistically by every ``lease`` call and by the front end's
watcher) re-queues it with backoff or dead-letters it once the attempt
budget is spent.
"""

from __future__ import annotations

import itertools
import json
import os
import re
from typing import Any

from repro.distrib.broker import JOB_STATES, Broker

__all__ = ["FileBroker"]

_SAFE_ID = re.compile(r"^[A-Za-z0-9._-]+$")
_DIRS = (*JOB_STATES, "jobs", "workers", "spans", "tmp")
#: Unique suffixes for scratch and span file names taken in this process.
_SCRATCH = itertools.count()


class FileBroker(Broker):
    """Shared-directory broker; see the module docstring for the layout."""

    def __init__(self, root: str, **policy: Any) -> None:
        super().__init__(**policy)
        self.root = os.path.abspath(root)
        for name in _DIRS:
            os.makedirs(os.path.join(self.root, name), exist_ok=True)

    def describe(self) -> str:
        return f"file:{self.root}"

    def _path(self, kind: str, key: str) -> str:
        if not _SAFE_ID.match(key):
            raise ValueError(f"invalid broker id {key!r}")
        return os.path.join(self.root, kind, f"{key}.json")

    def _scratch(self, path: str, record: dict) -> str:
        """Write ``record`` to a fresh scratch file; returns its path."""
        scratch = os.path.join(
            self.root, "tmp",
            f"{os.path.basename(path)}.{os.getpid()}.{next(_SCRATCH)}")
        with open(scratch, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
        return scratch

    # ------------------------------------------------------------------
    # Store primitives
    # ------------------------------------------------------------------

    def _create(self, kind: str, key: str, record: dict) -> bool:
        path = self._path(kind, key)
        scratch = self._scratch(path, record)
        try:
            os.link(scratch, path)
            return True
        except FileExistsError:
            return False
        finally:
            os.unlink(scratch)

    def _get(self, kind: str, key: str) -> dict | None:
        try:
            with open(self._path(kind, key), "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None

    def _put(self, kind: str, key: str, record: dict) -> None:
        path = self._path(kind, key)
        os.replace(self._scratch(path, record), path)

    def _remove(self, kind: str, key: str) -> bool:
        try:
            os.unlink(self._path(kind, key))
            return True
        except FileNotFoundError:
            return False

    def _move(self, kind: str, key: str, to_kind: str, to_key: str) -> bool:
        try:
            os.rename(self._path(kind, key), self._path(to_kind, to_key))
            return True
        except FileNotFoundError:
            return False

    def _exists(self, kind: str, key: str) -> bool:
        return os.path.exists(self._path(kind, key))

    def _keys(self, kind: str) -> list[str]:
        try:
            names = sorted(os.listdir(os.path.join(self.root, kind)))
        except OSError:
            return []
        return [name[:-5] for name in names
                if name.endswith(".json") and _SAFE_ID.match(name)]

    def _tickets(self) -> list[str]:
        # The sorted listing of pending/ IS the delivery order.
        return self._keys("pending")

    def _modified(self, kind: str, key: str) -> float | None:
        # The change time, not the modification time: a rename keeps the
        # mtime but (on Linux and most POSIX filesystems) sets the ctime,
        # so a just-claimed ticket reads as just written.
        try:
            return os.stat(self._path(kind, key)).st_ctime
        except OSError:
            return None

    def _file_spans(self, job_id: str, spans: list | None) -> None:
        # Each report gets its own uniquely-named file — no shared-file
        # append, so concurrent completions of an expired-lease twin file
        # as genuine siblings with zero coordination.
        if spans:
            self._put("spans", f"{job_id}.{os.getpid()}.{next(_SCRATCH)}",
                      {"spans": spans})

    def _job_spans(self, job_id: str) -> list:
        prefix = f"{job_id}."
        collected: list = []
        for key in self._keys("spans"):
            if key.startswith(prefix):
                entry = self._get("spans", key)
                if entry:
                    collected.extend(entry.get("spans", ()))
        return collected
