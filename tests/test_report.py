"""CSV and JSON report bodies."""

import csv
import io
import json

import numpy as np

from coherence_speed.report import _cell, _json_default, format_csv, format_json


def _csv_writer_body(rows, columns):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def test_csv_body_equals_a_csv_writer_rendering():
    awkward = ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "", " padded ", "plain"]
    rows = [[x, y] for x in awkward for y in awkward]
    rows.append(["", ""])
    columns = ["first", "second"]
    text = format_csv(dict(zip(columns, zip(*rows))), {"command": "test"})
    assert text.startswith("# command: test\n")
    assert text.split("\n", 1)[1] == _csv_writer_body(rows, columns)
    # a lone empty cell is quoted, so the row is not read back as a blank line
    single = format_csv({"only": ["", "x,y", "z"]}, {})
    assert single == _csv_writer_body([[""], ["x,y"], ["z"]], ["only"])
    assert list(csv.reader(io.StringIO(single))) == [["only"], [""], ["x,y"], ["z"]]


def test_csv_cells_keep_their_formats():
    row = {"f": 0.1, "npf": np.float64(1.0) / 3.0, "i": np.int64(7), "b": True,
           "nb": np.bool_(False), "none": None, "s": "text"}
    body = format_csv({name: [value] for name, value in row.items()}, {}).splitlines()
    assert body == ["f,npf,i,b,nb,none,s",
                    "0.10000000000000001,0.33333333333333331,7,true,false,nan,text"]


def _cell_rendering(columns: dict) -> str:
    return _csv_writer_body([[_cell(v) for v in row] for row in zip(*columns.values())],
                            list(columns))


def test_a_float_table_is_written_as_its_cells():
    # 1,001 x 6 like a battery run, with the values whose formats differ most
    rng = np.random.default_rng(90)
    special = [0.0, -0.0, 1.0, -1.0, 0.1, 1e16, 1e-300, 5e-324, 1.7976931348623157e308,
               np.inf, -np.inf, np.nan, 123456789.125, -2.5e-17]
    names = ["t", "eta", "avg_work", "bound", "coherence", "cumulative_work"]
    columns = {}
    for j, name in enumerate(names):
        col = rng.normal(size=1001) * 10.0 ** rng.integers(-20, 20, size=1001)
        col[j:j + len(special)] = special
        columns[name] = col
    want = _cell_rendering({k: v.tolist() for k, v in columns.items()})
    assert format_csv(columns, {}) == want
    assert format_csv({k: v.tolist() for k, v in columns.items()}, {}) == want


def test_mixed_float_and_none_columns_keep_their_cells():
    # like qsl: an undefined minimum time is None and is written as nan
    columns = {"t": [0.1 * k for k in range(50)], "bures_angle": [0.05 * k for k in range(50)],
               "mt_time": [None if k % 3 == 0 else 0.1 * k for k in range(50)],
               "ml_time": [None if k % 4 == 0 else np.float64(0.1 * k) for k in range(50)]}
    text = format_csv(columns, {"command": "qsl"})
    assert text == "# command: qsl\n" + _cell_rendering(columns)
    assert "\n0,0,nan,nan\n" in text


def test_a_column_table_writes_the_json_of_its_rows():
    columns = {"t": np.linspace(0.0, 1.0, 5), "n": [1, 2, 3, 4, 5], "x": [0.5, None, 1.5, 2.0, 3.0]}
    doc = json.loads(format_json(columns, {"command": "test"}))
    assert doc["metadata"] == {"command": "test"}
    assert doc["rows"] == [{"t": t, "n": n, "x": x} for t, n, x in
                           zip([0.0, 0.25, 0.5, 0.75, 1.0], columns["n"], columns["x"])]


def _stdlib_json(columns, metadata):
    values = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()]
    rows = [dict(zip(columns, row)) for row in zip(*values)]
    return json.dumps({"metadata": metadata, "rows": rows}, indent=2, default=_json_default) + "\n"


_EVERY_CELL = [0.5, float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e16,
               np.float64(0.1), np.float32(0.1), 7, np.int64(-7), True, np.bool_(False), None,
               'say "hi"', "back\\slash", "two\nlines", "100% %s", "naïve ✓", "",
               1 - 2j, np.complex128(0.5j), [1.0, [2, None]], np.arange(3)]


def test_json_body_equals_json_dumps_for_every_kind_of_cell():
    meta = {"command": "test", "spectrum": np.array([0.0, 1.0]), "seed": np.int64(3), "p%": "1%"}
    n = len(_EVERY_CELL)
    columns = {"mixed": _EVERY_CELL, "a%b": [0.25 * k for k in range(n)],
               'q"uote': np.array([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324,
                                   1e16, 1e-300] + [1.0 / 3.0] * (n - 8)),
               "naïve": [None] * n, "%%s": list(reversed(_EVERY_CELL))}
    assert format_json(columns, meta) == _stdlib_json(columns, meta)
    for k, cell in enumerate(_EVERY_CELL):
        one = {"only": [cell]}
        assert format_json(one, {}) == _stdlib_json(one, {}), k


def test_json_body_of_an_empty_table_equals_json_dumps():
    for columns in ({}, {"t": []}, {"t": np.zeros(0), "x": []}):
        for meta in ({}, {"command": "test"}):
            assert format_json(columns, meta) == _stdlib_json(columns, meta)


def test_a_float_table_with_an_awkward_header_is_a_csv_writer_rendering():
    # the row-template side: every cell a Python float, a header that csv must quote
    columns = {"a%b,c": [0.1, -0.0, float("nan")], "%s": [1e16, 5e-324, float("inf")]}
    rows = [[format(v, ".17g") for v in row] for row in zip(*columns.values())]
    assert format_csv(columns, {}) == _csv_writer_body(rows, list(columns))


def test_a_float_and_text_table_is_a_csv_writer_rendering():
    # the csv.writer side: one text column sends the whole table through csv's quoting
    columns = {"t": [0.5, 1.0 / 3.0, float("-inf")], "note": ["a,b", 'q"x', "100%"]}
    rows = [[format(t, ".17g"), note] for t, note in zip(*columns.values())]
    assert format_csv(columns, {}) == _csv_writer_body(rows, list(columns))
