"""Deterministic JSON/CSV text rendering.

Output files must be byte-identical across reruns, so floats are rendered
with a fixed %.17g format (value-exact for float64) instead of relying on
library repr choices. The JSON renderer walks plain dict/list/scalar trees,
keeps dict insertion order (all producers build keys deterministically), and
maps None to null. Non-finite floats become the strings "inf"/"-inf"/"nan"
because JSON has no literals for them; absent metrics are passed as None.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .errors import IoError


def fmt_float(value: float) -> str:
    return format(float(value), ".17g")


def _render(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isfinite(x):
            out.append(fmt_float(x))
        else:
            out.append(json.dumps(repr(x) if math.isnan(x) else ("inf" if x > 0 else "-inf")))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        _render(list(obj), out)
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(", ")
            _render(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            _render(value, out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def to_json_text(obj) -> str:
    out: list[str] = []
    _render(obj, out)
    out.append("\n")
    return "".join(out)


def cell(value) -> str:
    """One CSV cell: floats via %.17g, None empty, everything else str()."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (float, np.floating)):
        return fmt_float(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def to_csv_text(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        rendered = []
        for value in row:
            text = cell(value)
            if any(ch in text for ch in ',"\n'):
                text = '"' + text.replace('"', '""') + '"'
            rendered.append(text)
        lines.append(",".join(rendered))
    return "\n".join(lines) + "\n"


def make_dirs(path: str) -> None:
    """Create directory ``path`` and its parents; IoError if impossible."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from None


def write_text(path: str, text: str) -> None:
    make_dirs(os.path.dirname(os.path.abspath(path)))
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from None
