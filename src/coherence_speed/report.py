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


def _column_cells(values) -> list[str]:
    """The cells of one column; an all-float column is formatted in one C-level map."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    if set(map(type, values)) <= {float}:
        return list(map("%.17g".__mod__, values))
    return list(map(_cell, values))


def format_csv(table, metadata: dict) -> str:
    """'#'-headed metadata, one unprefixed column row, then data rows.

    The table is a list of row dicts, whose columns are the keys of the
    first row, or a dict of equal-length columns (sequences or arrays).
    Cells holding a comma or a quote are quoted, so every row has one
    cell per column.
    """
    columns = table if isinstance(table, dict) else {
        c: [row.get(c) for row in table] for c in (table[0] if table else ())}
    buf = io.StringIO()
    buf.writelines(_meta_line(k, v) + "\n" for k, v in metadata.items())
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([str(c) for c in columns])
    writer.writerows(zip(*map(_column_cells, columns.values())))
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


def format_json(table, metadata: dict) -> str:
    """Rows as an array of objects plus a metadata object.

    The table is as for format_csv.  Complex numbers serialize as
    [re, im]; missing values as null.
    """
    if isinstance(table, dict):
        values = (c.tolist() if isinstance(c, np.ndarray) else c for c in table.values())
        table = [dict(zip(table, row)) for row in zip(*values)]
    doc = {"metadata": metadata, "rows": table}
    return json.dumps(doc, indent=2, default=_json_default) + "\n"


def render_report(table, metadata: dict, fmt: str) -> str:
    if fmt == "json":
        return format_json(table, metadata)
    return format_csv(table, metadata)


def write_report(text: str, out: str | None) -> None:
    """Write to the path, or stdout when no path was given."""
    if out is None:
        print(text, end="")
    else:
        Path(out).write_text(text)
