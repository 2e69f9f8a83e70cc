"""Pluggable result stores for finished jobs.

The service keeps only *live* (queued/running) jobs in its own tables;
once a job reaches a terminal state its document moves into a
:class:`ResultStore`.  Two implementations ship:

* :class:`MemoryResultStore` — a locked dict; results live and die with
  the process (the default for ``repro serve``),
* :class:`DiskResultStore` — one JSON file per job with the same
  atomic-replace discipline as :class:`~repro.pipeline.parallel.SuiteCache`,
  so documents survive restarts and a crashed writer never leaves a
  half-written file for readers.

Both are safe to call from the service's watcher thread and HTTP
handler threads concurrently.
"""

from __future__ import annotations

import json
import os
import re
import threading
from typing import Any

__all__ = ["DiskResultStore", "MemoryResultStore", "ResultStore"]

_SAFE_ID = re.compile(r"^[A-Za-z0-9._-]+$")


class ResultStore:
    """Interface: terminal job documents keyed by job id."""

    def put(self, job_id: str, document: dict[str, Any]) -> None:
        raise NotImplementedError

    def put_new(self, job_id: str, document: dict[str, Any]) -> bool:
        """Store only if absent; ``True`` when this call created the entry.

        The distributed path needs first-write-wins: several front ends
        (or a watcher re-observing a terminal broker job) may hand the
        same finished document to one shared store, and the first copy
        must not be clobbered.  The base implementation is
        check-then-put; subclasses with real concurrency override it
        with an atomic primitive.
        """
        if self.get(job_id) is not None:
            return False
        self.put(job_id, document)
        return True

    def get(self, job_id: str) -> dict[str, Any] | None:
        raise NotImplementedError

    def documents(self) -> list[dict[str, Any]]:
        """A snapshot of every stored document (unspecified order).

        Powers the ``/v2/runs`` listing and drain recovery — a restarted
        service scans for ``status == "queued"`` markers left by a
        graceful drain and re-adopts them.
        """
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def stats(self) -> dict[str, Any]:
        return {"kind": type(self).__name__, "entries": len(self)}


class MemoryResultStore(ResultStore):
    """In-process store; optionally bounded (oldest insertions dropped)."""

    def __init__(self, max_entries: int | None = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be at least 1, got {max_entries}")
        self.max_entries = max_entries
        self._documents: dict[str, dict[str, Any]] = {}
        self._lock = threading.Lock()

    def put(self, job_id: str, document: dict[str, Any]) -> None:
        with self._lock:
            self._documents[job_id] = document
            while self.max_entries is not None and len(self._documents) > self.max_entries:
                self._documents.pop(next(iter(self._documents)))

    def put_new(self, job_id: str, document: dict[str, Any]) -> bool:
        with self._lock:
            if job_id in self._documents:
                return False
            self._documents[job_id] = document
            while self.max_entries is not None and len(self._documents) > self.max_entries:
                self._documents.pop(next(iter(self._documents)))
            return True

    def get(self, job_id: str) -> dict[str, Any] | None:
        with self._lock:
            return self._documents.get(job_id)

    def documents(self) -> list[dict[str, Any]]:
        with self._lock:
            return list(self._documents.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._documents)


class DiskResultStore(ResultStore):
    """One ``<job-id>.json`` per document, written atomically.

    Job ids are validated against a conservative character set before
    touching the filesystem, so a hostile id can never escape the store
    directory.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self._lock = threading.Lock()

    def _path(self, job_id: str) -> str:
        if not _SAFE_ID.match(job_id):
            raise ValueError(f"invalid job id {job_id!r}")
        return os.path.join(self.directory, f"{job_id}.json")

    def put(self, job_id: str, document: dict[str, Any]) -> None:
        path = self._path(job_id)
        tmp = f"{path}.tmp.{os.getpid()}"
        with self._lock:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(document, handle)
            os.replace(tmp, path)

    def put_new(self, job_id: str, document: dict[str, Any]) -> bool:
        # os.link refuses to overwrite, so first-write-wins holds across
        # *processes* sharing the directory, not just threads — which is
        # the N-front-ends/one-store deployment this store exists for.
        path = self._path(job_id)
        tmp = f"{path}.tmp.{os.getpid()}"
        with self._lock:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(document, handle)
            try:
                os.link(tmp, path)
                return True
            except FileExistsError:
                return False
            finally:
                os.unlink(tmp)

    def get(self, job_id: str) -> dict[str, Any] | None:
        try:
            path = self._path(job_id)
        except ValueError:
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None

    def documents(self) -> list[dict[str, Any]]:
        try:
            names = sorted(
                name for name in os.listdir(self.directory) if name.endswith(".json")
            )
        except OSError:
            return []
        documents = []
        for name in names:
            try:
                with open(os.path.join(self.directory, name), "r", encoding="utf-8") as handle:
                    documents.append(json.load(handle))
            except (OSError, json.JSONDecodeError):
                continue  # a concurrent writer or deleted file; skip it
        return documents

    def __len__(self) -> int:
        try:
            return sum(1 for name in os.listdir(self.directory) if name.endswith(".json"))
        except OSError:
            return 0

    def stats(self) -> dict[str, Any]:
        stats = super().stats()
        stats["directory"] = self.directory
        return stats
