"""Vector-file and JSON-report serialization.

Vector files are comma-separated decimals, one vector per row; '#' lines are
comments and may carry "key: value" metadata.  Partitioned files prepend a
nonnegative integer part id column.  Coordinates are written with 17
significant digits so a write/read round trip is exact for float64.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .vectorset import VectorSet


class FormatError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_vector_file(path: str, vs: VectorSet, part_ids=None,
                      metadata: dict | None = None) -> None:
    lines = []
    meta = dict(metadata or {})
    meta.setdefault("partitioned", "true" if part_ids is not None else "false")
    for key, value in meta.items():
        lines.append(f"# {key}: {value}")
    if part_ids is not None:
        ids = np.asarray(part_ids)
        if ids.shape != (len(vs),):
            raise FormatError("part ids must align with vectors")
        for pid, row in zip(ids, vs.vectors):
            lines.append(",".join([str(int(pid))] + [_fmt(x) for x in row]))
    else:
        for row in vs.vectors:
            lines.append(",".join(_fmt(x) for x in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_vector_file(path: str) -> tuple[VectorSet, np.ndarray | None, dict]:
    """Returns (vectors, part ids or None, metadata from header comments)."""
    metadata: dict[str, str] = {}
    rows: list[list[str]] = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if ":" in body:
                    key, _, value = body.partition(":")
                    metadata[key.strip()] = value.strip()
                continue
            rows.append(line.split(","))
    if not rows:
        raise FormatError(f"{path}: no data rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise FormatError(f"{path}: inconsistent row width")
    partitioned = metadata.get("partitioned", "false").lower() == "true"
    part_ids = None
    if partitioned:
        if width < 2:
            raise FormatError(f"{path}: partitioned file needs a part column")
        try:
            part_ids = np.array([int(r[0]) for r in rows], dtype=np.int64)
        except ValueError as exc:
            raise FormatError(f"{path}: bad part id ({exc})") from exc
        if np.any(part_ids < 0):
            raise FormatError(f"{path}: part ids must be nonnegative")
        data = [r[1:] for r in rows]
    else:
        data = rows
    try:
        vectors = np.array([[float(x) for x in r] for r in data], dtype=np.float64)
    except ValueError as exc:
        raise FormatError(f"{path}: bad coordinate ({exc})") from exc
    if not np.all(np.isfinite(vectors)):
        raise FormatError(f"{path}: non-finite coordinate")
    return VectorSet(vectors), part_ids, metadata


def report_json(report: dict) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def write_report(report: dict, path: str | None) -> None:
    text = report_json(report)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
