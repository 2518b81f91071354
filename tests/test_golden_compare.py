"""The keyed compare of two golden harness files (``tools/golden.py --compare``)."""

import copy
import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "golden", Path(__file__).resolve().parents[1] / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)

OLD = {"reports": {"qsl-default csv": {"exit": 0, "stdout": ["t,bures_angle"]}},
       "malformed": {"tol-nan": {"exit": 2, "stderr": ["error: --tol"]}},
       "suites": {"thm1 seed 0": [{"check": "thm1-equality", "worst": "0x1.8p-50"},
                                  {"check": "coefficient-grid", "worst": "0x0.0p+0"}]},
       "theorem3": {"qutrit-equality": {"outcome": "returned ('0x1p-1', '0x1p-1')"}}}


def _compare(tmp_path, new, moves=""):
    paths = [tmp_path / name for name in ("old.json", "new.json", "moves.txt")]
    for path, text in zip(paths, (json.dumps(OLD), json.dumps(new), moves)):
        path.write_text(text)
    return golden.compare(*paths)


def test_the_golden_compare_names_each_moved_key_and_checks_the_moves_file(tmp_path, capsys):
    assert _compare(tmp_path, copy.deepcopy(OLD)) == 0
    assert capsys.readouterr().out == ""
    new = copy.deepcopy(OLD)
    new["suites"]["thm1 seed 0"].reverse()          # a reorder moves both checks
    del new["reports"]["qsl-default csv"]           # a key on one side only
    new["malformed"]["tol-inf"] = {"exit": 2}
    new["theorem3"]["qutrit-equality"]["outcome"] = "returned ('0x1p-1', '0x1p-2')"
    moved = ["malformed/tol-inf", "reports/qsl-default csv",
             "suites/thm1 seed 0/coefficient-grid", "suites/thm1 seed 0/thm1-equality",
             "theorem3/qutrit-equality"]
    assert _compare(tmp_path, new) == 1             # moves that the file does not list
    out = capsys.readouterr()
    assert out.out.splitlines() == moved
    assert out.err.count("not listed") == 5
    listed = "".join(f"{key}\tthe reason\n" for key in moved)
    assert _compare(tmp_path, new, listed) == 0
    assert capsys.readouterr().out.splitlines() == moved
    assert _compare(tmp_path, new, listed[:-len(f"{moved[-1]}\tthe reason\n")]) == 1
    assert _compare(tmp_path, new, listed + "malformed/tol-nan\tstill the same\n") == 1
    assert "did not move: malformed/tol-nan" in capsys.readouterr().err
    assert _compare(tmp_path, new, "reports/qsl-default csv\n") == 1     # no reason
    assert "not a key<TAB>reason line" in capsys.readouterr().err
