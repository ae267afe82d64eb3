"""Deterministic JSON and CSV emission.

Floats are written with 17 significant digits so results are byte-testable:
the same counts always produce the same bytes, and parsing the text back
recovers the exact float64, making serialize -> parse -> serialize an
identity. Dict keys are emitted sorted for the same reason.
"""

from __future__ import annotations

import json
import math

import numpy as np


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def dumps(obj, indent: int = 0, _level: int = 0) -> str:
    """Serialize to JSON with deterministic float formatting and sorted keys."""
    pad = " " * (indent * (_level + 1)) if indent else ""
    end_pad = " " * (indent * _level) if indent else ""
    sep = ",\n" if indent else ", "
    nl = "\n" if indent else ""
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}{json.dumps(str(k))}: {dumps(obj[k], indent, _level + 1)}'
                 for k in sorted(obj, key=str)]
        return "{" + nl + sep.join(items) + nl + end_pad + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}{dumps(v, indent, _level + 1)}" for v in obj]
        return "[" + nl + sep.join(items) + nl + end_pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def csv_cell(value) -> str:
    """One CSV cell: floats at 17 significant digits, None as an empty cell.

    Text holding a comma, quote or newline is quoted, its quotes doubled (RFC 4180).
    """
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return _fmt_float(float(value))
    text = str(value)
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_line(values) -> str:
    return ",".join(csv_cell(v) for v in values)


def write_csv(path: str, header: list[str], rows: list[list], append: bool = False) -> None:
    """Write (or append) rows under a fixed header.

    Appending to an existing file requires its header to match exactly, so a
    sweep file can only ever accumulate rows of one schema.
    """
    header_line = csv_line(header)
    first = ""  # the existing file's header; empty when there is none
    if append:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                first = fh.readline().rstrip("\n")
        except FileNotFoundError:
            pass
        if first and first != header_line:
            raise ValueError(f"existing CSV header does not match sweep schema in {path}")
    with open(path, "a" if append else "w", encoding="utf-8") as fh:
        if not first:
            fh.write(header_line + "\n")
        for row in rows:
            fh.write(csv_line(row) + "\n")
