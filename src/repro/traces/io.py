"""Trace (de)serialisation.

Generating the full suite is deterministic but not free; experiments that
replay the same traces many times (e.g. the Figure 9 size sweep) can save
them once with :func:`save_trace` and reload them with :func:`load_trace`.

The format is a small JSON header followed by one line per branch in a
compact textual encoding — easy to inspect, diff and version.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.traces.trace import Trace

__all__ = ["save_trace", "load_trace"]

_FORMAT_VERSION = 1


def save_trace(trace: Trace, path: str | Path) -> None:
    """Write ``trace`` to ``path``.

    The file starts with a one-line JSON header (name, category, hardness,
    record count, format version) followed by one ``pc taken gap site``
    line per dynamic branch.
    """
    path = Path(path)
    header = {
        "format_version": _FORMAT_VERSION,
        "name": trace.name,
        "category": trace.category,
        "hard": trace.hard,
        "records": len(trace),
    }
    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(header) + "\n")
        for record in trace:
            handle.write(
                f"{record.pc:x} {1 if record.taken else 0} "
                f"{record.preceding_instructions} {record.site}\n"
            )


def load_trace(path: str | Path) -> Trace:
    """Read a trace previously written by :func:`save_trace`."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        header_line = handle.readline()
        if not header_line:
            raise ValueError(f"{path} is empty")
        header = json.loads(header_line)
        version = header.get("format_version")
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported trace format version {version!r}")
        pcs, taken, gaps, sites = [], [], [], []
        site_codes: dict[str, int] = {}
        for line_number, line in enumerate(handle, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(" ", 3)
            if len(parts) < 3:
                raise ValueError(f"{path}:{line_number}: malformed record {line!r}")
            pcs.append(int(parts[0], 16))
            taken.append(parts[1] == "1")
            gaps.append(int(parts[2]))
            sites.append(site_codes.setdefault(parts[3] if len(parts) > 3 else "", len(site_codes)))
        expected = header.get("records")
        if expected is not None and expected != len(pcs):
            raise ValueError(
                f"{path}: header announces {expected} records but {len(pcs)} were read"
            )
    return Trace(
        name=header.get("name", path.stem),
        category=header.get("category", ""),
        pcs=pcs,
        taken=taken,
        preceding=gaps,
        sites=sites,
        site_names=tuple(site_codes),
        hard=bool(header.get("hard", False)),
    )
