"""Same-behaviour harness: one canonical JSON of what the package on the import path does.

It records

- every report body (CSV and JSON) at the default and the CI configs,
  and ``verify --out`` for three suites, each with its exit code, stdout
  and stderr;
- PASS/FAIL, trials, detail and the worst value (as ``float.hex``) of
  every check of every suite at seeds 0, 1, 34 and 83;
- the exit code and stderr, or the exception and warnings, for a fixed
  list of malformed inputs to the CLI and to the library.

Run it on two source trees back to back and diff the two files::

    PYTHONPATH=old/src python tools/golden.py > old.json
    PYTHONPATH=src python tools/golden.py > new.json
    diff old.json new.json

Timestamps (the ``generated`` metadata line) and per-check times are
dropped, and the scratch directory reads ``<tmp>``, so two runs of the
same code on one host give the same file.  The last bits of BLAS output
can differ between hosts: compare runs made on the same one.  A run
takes about 35 s on a 2-core host, most of it in the suites.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from coherence_speed import cli
from coherence_speed.battery import BatteryConfig, simulate_battery
from coherence_speed.channels import KrausChannel, random_channel, save_channel
from coherence_speed.dynamics import HamiltonianPath, energy_uncertainty, evolve, instantaneous_speed
from coherence_speed.linalg import SpectralHamiltonian
from coherence_speed.verification import SUITES, run_suite

SEEDS = (0, 1, 34, 83)
NAN, INF = float("nan"), float("inf")
_MARK = "@"         # where a case's non-finite token goes

# the report configs: the CLI defaults and the configs of the CI workflow
REPORTS = {
    "sweep-3-level": ("sweep", {"sweep": {"spectrum": [0.0, 0.7, 1.9], "t_steps": 21}}),
    "sweep-9-level": ("sweep", {"sweep": {"spectrum": list(range(9)), "t_steps": 5}}),
    "sweep-7-level": ("sweep", {"sweep": {"spectrum": [0.0, 0.7, 1.9, 2.6, 3.4, 4.1, 5.3]}}),
    "sweep-density-rank-2": ("sweep", {"sweep": {"spectrum": [0.0, 0.7, 1.9, 2.4],
                                                 "state": {"density_rank": 2}}}),
    "battery-default": ("battery", None),
    "battery-rotating": ("battery", {"battery": {"axis": "rotating-xy", "state": {
        "amplitudes": [[0.7071067811865476, 0], [0, 0.7071067811865476]]}}}),
    "channel-default": ("channel", None),
    "channel-saved": ("channel", {"channel": {"channel": {"path": "@/channel.json"},
                                              "env_dim": 3, "state": "plus"}}),
    "qsl-default": ("qsl", None),
    "qsl-ci": ("qsl", {"qsl": {"spectrum": [0.0, 0.4, 1.7], "t_steps": 21}}),
    "qsl-shifted-1e6": ("qsl", {"qsl": {"spectrum": [1000000.0, 1000000.001]}}),
    "qsl-degenerate-ground": ("qsl", {"qsl": {"spectrum": [0.0, 0.0, 1.0], "state": "ground"}}),
}
VERIFY_OUT = ("thm2", "qsl", "battery-bound")

# every number position of the two schemas: (command, document with the mark)
POSITIONS = {
    "$.tolerance": ("qsl", {"tolerance": _MARK}),
    "$.sweep.spectrum[1]": ("sweep", {"sweep": {"spectrum": [0, _MARK]}}),
    "$.sweep.t_start": ("sweep", {"sweep": {"spectrum": [0, 1], "t_start": _MARK}}),
    "$.sweep.t_stop": ("sweep", {"sweep": {"spectrum": [0, 1], "t_stop": _MARK}}),
    "$.qsl.spectrum[1]": ("qsl", {"qsl": {"spectrum": [0, _MARK, 1]}}),
    "$.qsl.t_start": ("qsl", {"qsl": {"spectrum": [0, 1], "t_start": _MARK}}),
    "$.qsl.t_stop": ("qsl", {"qsl": {"spectrum": [0, 1], "t_stop": _MARK}}),
    "$.battery.epsilon": ("battery", {"battery": {"epsilon": _MARK}}),
    "$.battery.eta_max": ("battery", {"battery": {"eta_max": _MARK}}),
    "$.battery.tau": ("battery", {"battery": {"tau": _MARK}}),
    "$.battery.dt": ("battery", {"battery": {"dt": _MARK}}),
    "$.battery.axis[0]": ("battery", {"battery": {"axis": [_MARK, 0, 0]}}),
    "$.battery.axis[2]": ("battery", {"battery": {"axis": [1, 0, _MARK]}}),
    "$.qsl.state.amplitudes[0][0]": ("qsl", {"qsl": {"spectrum": [0, 1], "state": {
        "amplitudes": [[_MARK, 0], [1, 0]]}}}),
    "$.qsl.state.amplitudes[1][1]": ("qsl", {"qsl": {"spectrum": [0, 1], "state": {
        "amplitudes": [[1, 0], [0, _MARK]]}}}),
    "$.kraus[0][0][0][0]": ("channel", {"kraus": [[[[_MARK, 0], [0, 0]], [[0, 0], [1, 0]]]]}),
}
TOKENS = ("NaN", "Infinity", "-Infinity", "1e999")

# other malformed CLI input: (argv, config document or JSON text, or None)
MALFORMED_CLI = {
    "ragged-kraus-file": (["channel"], {"kraus": [[[[1, 0], [0, 0]], [[0, 0]]]]}),
    "incomplete-kraus-file": (["channel"], {"kraus": [[[[1, 0], [0, 0]], [[0, 0], [0.5, 0]]]]}),
    "kraus-file-without-kraus": (["channel"], {"label": "empty"}),
    "missing-channel-file": (["channel"], None),
    "wrong-length-amplitudes": (["qsl"], {"qsl": {"spectrum": [0, 1], "state": {
        "amplitudes": [[1, 0], [0, 0], [0, 0]]}}}),
    "unnormalized-amplitudes": (["battery"], {"battery": {"state": {
        "amplitudes": [[1, 0], [1, 0]]}}}),
    "mixed-battery-state": (["battery"], {"battery": {"state": {"density_rank": 2}}}),
    "unknown-config-key": (["qsl"], {"qsl": {"spectrum": [0.0, 1.0], "steps": 3}}),
    "config-not-json": (["qsl"], "{\"qsl\": "),
    "zero-tolerance": (["qsl"], {"tolerance": 0}),
    "tol-inf": (["qsl", "--tol", "inf"], None),
    "tol-nan": (["qsl", "--tol", "nan"], None),
    "tol-zero": (["qsl", "--tol", "0"], None),
    "tol-negative": (["qsl", "--tol", "-1"], None),
    "seed-negative": (["qsl", "--seed", "-1"], None),
    "trials-zero": (["verify", "thm1", "--trials", "0"], None),
    "dim-zero": (["verify", "thm1", "--dim", "0"], None),
    # integer literals past the float range (the last also past int()'s digit limit)
    "battery-dt-401-digits": (["battery"], '{"battery": {"dt": 1%s}}' % ("0" * 400)),
    "qsl-level-401-digits": (["qsl"], '{"qsl": {"spectrum": [1%s, 1]}}' % ("0" * 400)),
    "battery-dt-5001-digits": (["battery"], '{"battery": {"dt": 1%s}}' % ("0" * 5000)),
    "seed-401-digits": (["qsl"], '{"seed": 1%s}' % ("0" * 400)),
}


def _library_cases():
    """Malformed library calls, each a thunk."""
    gapped = np.diag([0.0, 1.0])
    plus = np.full(2, 1.0 / np.sqrt(2.0), dtype=complex)

    def reassign(name, value):
        path = HamiltonianPath.constant(gapped, 1.0, steps=4)
        if name.endswith("]"):
            getattr(path, name[:-3])[0] = value
        else:
            setattr(path, name, value)

    def battery(tau, dt):
        return simulate_battery(BatteryConfig.default(tau=tau, dt=dt), [1.0, 0.0]).t.shape

    return {
        "evolve-3-entry-state-on-2-levels": lambda: evolve(
            np.ones(3) / np.sqrt(3.0), HamiltonianPath.constant(gapped, 1.0, steps=4)),
        "speed-3-entry-state-on-2-levels": lambda: instantaneous_speed(
            np.ones(3) / np.sqrt(3.0), SpectralHamiltonian.from_spectrum([0.0, 1.0])),
        "spread-3-entry-state-on-2-levels": lambda: energy_uncertainty(
            np.ones(3) / np.sqrt(3.0), gapped),
        "path-times-reassigned": lambda: reassign("times", np.zeros(5)),
        "path-times-written": lambda: reassign("times[0]", 0.5),
        "path-samples-written": lambda: reassign("samples[0]", 0.0),
        "path-nan-time": lambda: HamiltonianPath([0.0, NAN], np.zeros((2, 2, 2))),
        "path-nan-sample": lambda: HamiltonianPath([0.0, 1.0], [gapped, np.full((2, 2), NAN)]),
        "path-infinite-t-final": lambda: HamiltonianPath.constant(gapped, INF),
        "evolve-nan-state": lambda: evolve([NAN, 1.0], HamiltonianPath.constant(gapped, 1.0)),
        "spectrum-nan-level": lambda: SpectralHamiltonian.from_spectrum([0.0, NAN]),
        "kraus-nan-entry": lambda: KrausChannel([[[NAN, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]),
        "speed-plus-state": lambda: instantaneous_speed(
            plus, SpectralHamiltonian.from_spectrum([0.0, 1.0])),
        "battery-infinite-tau": lambda: battery(INF, 1e-3),
        "battery-nan-dt": lambda: battery(1.0, NAN),
        "battery-zero-dt": lambda: battery(1.0, 0.0),
        "battery-negative-dt": lambda: battery(1.0, -1e-3),
        "battery-negative-tau": lambda: battery(-1.0, 1e-3),
    }


def _canon(text: str, tmp: str) -> list[str]:
    """The lines of text without timestamps or per-check times, the scratch path as <tmp>."""
    lines = []
    for line in text.replace(tmp, "<tmp>").splitlines():
        if line.startswith("# generated: ") or line.lstrip().startswith('"generated": '):
            continue
        lines.append(re.sub(r", \d+\.\d+s\)", ")", line))
    return lines


def _write_config(tmp: Path, name: str, doc) -> str:
    path = tmp / name
    text = doc if isinstance(doc, str) else json.dumps(doc)
    path.write_text(text.replace('"@/', f'"{tmp}/'))
    return str(path)


def _cli(argv: list[str], tmp: Path) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:        # a traceback from the command line
            code = f"raised {type(exc).__name__}: {exc}"
    return {"exit": code, "stdout": _canon(out.getvalue(), str(tmp)),
            "stderr": _canon(err.getvalue(), str(tmp))}


def _call(thunk) -> dict:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = f"returned {thunk()!r}"
        except Exception as exc:
            outcome = f"raised {type(exc).__name__}: {exc}"
    return {"outcome": outcome,
            "warnings": [f"{w.category.__name__}: {w.message}" for w in caught]}


def reports(tmp: Path) -> dict:
    save_channel(random_channel(2, 2, 5), tmp / "channel.json")
    out = {}
    for name, (command, doc) in REPORTS.items():
        argv = [command, "--seed", "0"]
        if doc is not None:
            argv += ["--config", _write_config(tmp, f"{name}.json", doc)]
        for fmt in ("csv", "json"):
            out[f"{name} {fmt}"] = _cli(argv + ["--format", fmt], tmp)
    for suite in VERIFY_OUT:
        for fmt in ("csv", "json"):
            report = tmp / f"verify-{suite}.{fmt}"
            res = _cli(["verify", suite, "--seed", "0", "--format", fmt, "--out", str(report)], tmp)
            res["body"] = _canon(report.read_text(), str(tmp)) if report.exists() else None
            out[f"verify {suite} --out {fmt}"] = res
    return out


def suites() -> dict:
    return {f"{suite} seed {seed}": [
        {"check": r.name, "passed": bool(r.passed), "trials": int(r.trials), "detail": r.detail,
         "worst": float(r.worst).hex(), "tol": float(r.tol).hex()}
        for r in run_suite(suite, seed=seed)] for suite in sorted(SUITES) for seed in SEEDS}


def malformed(tmp: Path) -> dict:
    out = {}
    for path, (command, doc) in POSITIONS.items():
        for token in TOKENS:
            text = json.dumps(doc).replace(f'"{_MARK}"', token)
            report = tmp / "never.csv"
            if command == "channel":
                config = {"channel": {"channel": {"path": _write_config(tmp, "kraus.json", text)}}}
                argv = [command, "--config", _write_config(tmp, "channel-config.json", config)]
            else:
                argv = [command, "--config", _write_config(tmp, "config.json", text)]
            res = _cli(argv + ["--out", str(report)], tmp)
            res["out_written"] = report.exists()
            report.unlink(missing_ok=True)
            out[f"{path} {token}"] = res
    for name, (argv, doc) in MALFORMED_CLI.items():
        if argv == ["channel"]:
            kraus = str(tmp / "missing.json")
            if doc is not None:
                kraus = _write_config(tmp, f"{name}-kraus.json", doc)
            doc = {"channel": {"channel": {"path": kraus}}}
        if doc is not None:
            argv = argv + ["--config", _write_config(tmp, f"{name}.json", doc)]
        out[name] = _cli(argv, tmp)
    for name, thunk in _library_cases().items():
        out[name] = _call(thunk)
    return out


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        tmp = Path(scratch)
        doc = {"reports": reports(tmp), "malformed": malformed(tmp), "suites": suites()}
    json.dump(doc, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
