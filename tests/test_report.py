"""CSV and JSON report bodies."""

import csv
import io

import numpy as np

from coherence_speed.report import format_csv


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
    text = format_csv([dict(zip(columns, r)) for r in rows], {"command": "test"})
    assert text.startswith("# command: test\n")
    assert text.split("\n", 1)[1] == _csv_writer_body(rows, columns)
    # a lone empty cell is quoted, so the row is not read back as a blank line
    single = format_csv([{"only": ""}, {"only": "x,y"}, {"only": "z"}], {})
    assert single == _csv_writer_body([[""], ["x,y"], ["z"]], ["only"])
    assert list(csv.reader(io.StringIO(single))) == [["only"], [""], ["x,y"], ["z"]]


def test_csv_cells_keep_their_formats():
    row = {"f": 0.1, "npf": np.float64(1.0) / 3.0, "i": np.int64(7), "b": True,
           "nb": np.bool_(False), "none": None, "s": "text"}
    body = format_csv([row], {}).splitlines()
    assert body == ["f,npf,i,b,nb,none,s",
                    "0.10000000000000001,0.33333333333333331,7,true,false,nan,text"]
