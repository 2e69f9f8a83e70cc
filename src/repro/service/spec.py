"""The machine-readable HTTP API surface, and the README drift check.

One list of endpoint rows is the single source of truth for the v2 API
table.  ``python -m repro.service.spec`` prints it as the exact
markdown block the README embeds between ``<!-- endpoints:begin -->``
and ``<!-- endpoints:end -->`` markers; ``python -m repro.service.spec
--check README.md`` exits non-zero when the two disagree — CI runs the
check so the documented surface cannot rot away from the implemented
one.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

__all__ = ["ENDPOINTS", "Endpoint", "render_table"]

BEGIN_MARKER = "<!-- endpoints:begin -->"
END_MARKER = "<!-- endpoints:end -->"


@dataclass(frozen=True)
class Endpoint:
    method: str
    path: str
    summary: str


#: The implemented surface, in routing order.  Keep in sync with
#: :mod:`repro.service.app` — a new route lands here and in the README
#: (via ``--check``) in the same change.
ENDPOINTS = (
    Endpoint("POST", "/v2/runs",
             "Submit one request or a batch; `202` + `Location`. "
             "`?wait=1&timeout=S` holds until terminal (`200`) or timeout (`202`)."),
    Endpoint("GET", "/v2/runs",
             "List known runs; `?status=&limit=&cursor=` paginates newest-first."),
    Endpoint("GET", "/v2/runs/{id}",
             "One job document (live or stored); `404` for unknown ids."),
    Endpoint("DELETE", "/v2/runs/{id}",
             "Cancel a queued job (`200`); `409` once running or terminal."),
    Endpoint("GET", "/v2/capabilities",
             "Live backends, lanes, auth mode, limits, server version."),
    Endpoint("GET", "/v2/healthz",
             "Liveness probe (auth-exempt); includes drain state."),
    Endpoint("GET", "/v2/stats",
             "Queue, lane, client-quota, pool and cache statistics."),
    Endpoint("GET", "/v2/metrics",
             "Prometheus text exposition (includes fleet snapshots)."),
    Endpoint("GET", "/v2/traces/{id}",
             "One trace's stitched span tree (flat spans + nested tree); "
             "`404` when unsampled or expired."),
    Endpoint("*", "/v1/...",
             "Removed: `410 Gone` with the error envelope naming the `/v2` path."),
)


def render_table() -> str:
    """The endpoint table as README-embeddable GitHub markdown."""
    lines = ["| Method | Path | Description |", "| --- | --- | --- |"]
    for endpoint in ENDPOINTS:
        lines.append(
            f"| `{endpoint.method}` | `{endpoint.path}` | {endpoint.summary} |")
    return "\n".join(lines)


def _extract_readme_table(text: str) -> str | None:
    try:
        start = text.index(BEGIN_MARKER) + len(BEGIN_MARKER)
        end = text.index(END_MARKER, start)
    except ValueError:
        return None
    return text[start:end].strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.spec",
        description="Dump the HTTP endpoint table, or diff it against the README.",
    )
    parser.add_argument(
        "--check", metavar="README",
        help=f"verify the table between {BEGIN_MARKER!r} and {END_MARKER!r} "
             f"in this file matches the implementation",
    )
    args = parser.parse_args(argv)
    table = render_table()
    if args.check is None:
        print(table)
        return 0
    with open(args.check, "r", encoding="utf-8") as handle:
        documented = _extract_readme_table(handle.read())
    if documented is None:
        print(f"{args.check}: endpoint markers not found "
              f"({BEGIN_MARKER} ... {END_MARKER})", file=sys.stderr)
        return 1
    if documented != table:
        print(f"{args.check}: endpoint table is out of date; "
              f"regenerate with 'python -m repro.service.spec':",
              file=sys.stderr)
        import difflib
        for line in difflib.unified_diff(
                documented.splitlines(), table.splitlines(),
                fromfile="README", tofile="implementation", lineterm=""):
            print(line, file=sys.stderr)
        return 1
    print(f"{args.check}: endpoint table matches the implementation")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
