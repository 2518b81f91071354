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


def _column_values(columns: dict) -> list:
    return [c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()]


def _all_float(values) -> bool:
    return set(map(type, values)) <= {float}


def _column_cells(values) -> list[str]:
    """The cells of one column; an all-float column is formatted in one C-level map."""
    if _all_float(values):
        return list(map("%.17g".__mod__, values))
    return list(map(_cell, values))


def format_csv(columns: dict, metadata: dict) -> str:
    """'#'-headed metadata, one unprefixed column row, then data rows.

    The table is a dict of equal-length columns (sequences or arrays).
    Cells holding a comma or a quote are quoted, so every row has one
    cell per column.  A table of Python floats only is written through
    one row template, since a "%.17g" cell never needs quoting; any
    other table keeps csv's quoting rules.
    """
    buf = io.StringIO()
    buf.writelines(_meta_line(k, v) + "\n" for k, v in metadata.items())
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([str(c) for c in columns])
    values = _column_values(columns)
    if all(map(_all_float, values)):
        template = ",".join(["%.17g"] * len(values)) + "\n"
        buf.writelines(map(template.__mod__, zip(*values)))
    else:
        writer.writerows(zip(*map(_column_cells, values)))
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


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CELL_INDENT = "\n" + " " * 6       # a row's keys sit three levels deep


def _json_cells(values) -> list[str]:
    """The JSON texts of one column, each laid out as json.dumps(indent=2) lays it out in a row."""
    if _all_float(values):
        texts = list(map(float.__repr__, values))
        return list(map(_JSON_NONFINITE.get, texts, texts))
    return [json.dumps(v, indent=2, default=_json_default).replace("\n", _CELL_INDENT)
            for v in values]


def _json_key(key) -> str:
    """The key as json spells it, a non-str key converted as json converts it."""
    return json.dumps({key: 0})[1:-len(": 0}")]


def format_json(columns: dict, metadata: dict) -> str:
    """The rows of a dict of columns as an array of objects, plus a metadata object.

    Complex numbers serialize as [re, im]; missing values as null.  The
    text equals json.dumps(indent=2) of that document, but each row is
    filled into one template from its columns' cell texts.
    """
    meta = json.dumps(metadata, indent=2, default=_json_default).replace("\n", "\n  ")
    rows = list(zip(*map(_json_cells, _column_values(columns))))
    if not rows:
        return f'{{\n  "metadata": {meta},\n  "rows": []\n}}\n'
    slots = ",".join(f"\n      {_json_key(k).replace('%', '%%')}: %s" for k in columns)
    template = f"\n    {{{slots}\n    }}"
    return f'{{\n  "metadata": {meta},\n  "rows": [{",".join(map(template.__mod__, rows))}\n  ]\n}}\n'


def render_report(columns: dict, metadata: dict, fmt: str) -> str:
    if fmt == "json":
        return format_json(columns, metadata)
    return format_csv(columns, metadata)


def write_report(text: str, out: str | None) -> None:
    """Write to the path, or stdout when no path was given."""
    if out is None:
        print(text, end="")
    else:
        Path(out).write_text(text)
