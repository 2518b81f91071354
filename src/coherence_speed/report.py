"""CSV and JSON report writers.

Metadata (including the run timestamp) lives in '#'-prefixed header
lines (CSV) or a "metadata" object (JSON); the data body is a pure
function of config and seed, so identical runs produce byte-identical
bodies.  Floats are written with 17 significant digits, which
round-trips IEEE doubles exactly.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np


def _cell(value) -> str:
    if type(value) is float:    # most cells; checked before the isinstance chain
        return format(value, ".17g")
    if value is None:
        return "nan"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _meta_line(key: str, value) -> str:
    if isinstance(value, (list, tuple, np.ndarray)):
        value = " ".join(_cell(v) for v in value)
    else:
        value = _cell(value)
    return f"# {key}: {value}"


def format_csv(rows: list[dict], metadata: dict) -> str:
    """'#'-headed metadata, one unprefixed column row, then data rows.

    The columns are the keys of the first row.  Cells holding a comma or
    a quote are quoted, so every row has one cell per column.
    """
    columns = list(rows[0]) if rows else []
    buf = io.StringIO()
    buf.writelines(_meta_line(k, v) + "\n" for k, v in metadata.items())
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([str(c) for c in columns])
    writer.writerows([_cell(row.get(c)) for c in columns] for row in rows)
    return buf.getvalue()


def _json_default(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.complexfloating):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def format_json(rows: list[dict], metadata: dict) -> str:
    """Rows as an array of objects plus a metadata object.

    Complex numbers serialize as [re, im]; missing values as null.
    """
    doc = {"metadata": metadata, "rows": rows}
    return json.dumps(doc, indent=2, default=_json_default) + "\n"


def render_report(rows: list[dict], metadata: dict, fmt: str) -> str:
    if fmt == "json":
        return format_json(rows, metadata)
    return format_csv(rows, metadata)


def write_report(text: str, out: str | None) -> None:
    """Write to the path, or stdout when no path was given."""
    if out is None:
        print(text, end="")
    else:
        Path(out).write_text(text)
