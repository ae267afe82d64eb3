"""Deterministic JSON and CSV emission.

Floats are written as the shortest text that parses back to the same float64
(Python's float repr), so results are byte-testable: the same counts always
produce the same bytes, and parsing the text back recovers the exact float64,
making serialize -> parse -> serialize an identity. Dict keys are emitted
sorted for the same reason.
"""

from __future__ import annotations

import json
import math

import numpy as np


def _fmt_float(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    if math.isnan(x):
        return "NaN"
    return "Infinity" if x > 0 else "-Infinity"


def _plain(obj):
    """A numpy scalar or array as its Python value; anything else is refused."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj, indent: int = 0) -> str:
    """Serialize to JSON with sorted keys and floats as their shortest round-trip text."""
    return json.dumps(obj, indent=indent or None, sort_keys=True, default=_plain)


def _text_cell(text: str) -> str:
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


_CELLS = {type(None): lambda _: "", bool: lambda v: "true" if v else "false",
          float: _fmt_float, int: str, str: _text_cell}


def csv_cell(value) -> str:
    """One CSV cell: floats as in JSON, None as an empty cell.

    Text holding a comma, quote or newline is quoted, its quotes doubled (RFC 4180).
    """
    fmt = _CELLS.get(type(value))
    if fmt is not None:
        return fmt(value)
    if isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return _fmt_float(float(value))
    return _text_cell(str(value))


def csv_line(values) -> str:
    return ",".join([_CELLS.get(type(v), csv_cell)(v) for v in values])


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
