"""CSV and JSON report bodies."""

import csv
import io
import json

import numpy as np

from coherence_speed.report import _cell, format_csv, format_json


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
