"""End-to-end runs of the command-line interface via main(argv)."""

import csv
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from coherence_speed import cli, dynamics, linalg, metrics
from coherence_speed.avgdist import avg_distance_closed, b_coefficient
from coherence_speed.battery import BatteryConfig, rotating_axis, simulate_battery, sin2_pulse
from coherence_speed.channels import dilate, qutrit_equality_channel
from coherence_speed.cli import main
from coherence_speed.coherence import c_half
from coherence_speed.linalg import (
    SpectralHamiltonian,
    haar_random_state,
    pure_density,
    random_density,
    unitary_exp,
)
from coherence_speed.metrics import qsl_bounds
from coherence_speed.schemas import load_schema


def body_lines(path):
    """Data lines of a CSV report (everything except '#' metadata)."""
    return [l for l in path.read_text().splitlines() if not l.startswith("#")]


def _cell(text):
    if text in ("true", "false"):
        return text == "true"
    return float(text)


def rows_of(path):
    lines = body_lines(path)
    header = lines[0].split(",")
    return [dict(zip(header, map(_cell, l.split(",")))) for l in lines[1:]]


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "verify" in capsys.readouterr().out


def test_verify_prints_one_line_per_check(capsys):
    assert main(["verify", "thm2", "--trials", "8"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1
    assert out[0].startswith("PASS thm2-equality")


def test_verify_unknown_suite_is_usage_error(tmp_path, capsys):
    assert main(["verify", "definitely-not-a-suite"]) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"verify": {"suite": "definitely-not-a-suite"}}))
    assert main(["verify", "--config", str(cfg)]) == 2
    assert "unknown suite 'definitely-not-a-suite'" in capsys.readouterr().err


def test_trial_threads_are_not_configurable(tmp_path, capsys):
    assert main(["verify", "thm2", "--jobs", "2"]) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"jobs": 2}))
    assert main(["verify", "thm2", "--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_failure_emits_machine_readable_list(capsys):
    assert main(["verify", "thm2", "--trials", "5", "--tol", "1e-30"]) == 1
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert payload["failed_checks"][0]["check"] == "thm2-equality"


def test_missing_config_file_is_usage_error(capsys):
    assert main(["sweep", "--config", "/nonexistent/nope.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_config_reports_json_path(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sweep": {"state": "plus"}}))
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "spectrum" in capsys.readouterr().err


def test_sweep_reproduces_the_qubit_identity(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "sweep": {"spectrum": [0.0, 1.0], "state": "plus",
                  "t_start": 0.0, "t_stop": 6.283185307179586, "t_steps": 89},
    }))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = rows_of(out)
    assert len(rows) == 89
    for r in rows:
        assert abs(r["sbar_closed"] - (1.0 - np.cos(r["t"]))) < 1e-12
        assert abs(r["gap"]) < 1e-12
        assert abs(r["c_half"] - 0.5) < 1e-12


def test_sweep_body_is_deterministic(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3,
                               "sweep": {"spectrum": [0.0, 0.9, 2.2],
                                         "state": {"haar": True},
                                         "t_steps": 40}}))
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(b)]) == 0
    assert body_lines(a) == body_lines(b)


def test_sweep_omits_brute_force_above_the_cap(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sweep": {"spectrum": list(range(9)),
                                         "t_steps": 4}}))
    out = tmp_path / "big.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    header = body_lines(out)[0].split(",")
    assert "sbar_brute" not in header and "gap" not in header
    assert "sbar_closed" in header


_SWEEP_COLUMNS = ["t", "sbar_brute", "sbar_closed", "coefficient", "c_half", "gap"]


def _point_by_point_sweep(spectrum, state, seed, steps):
    """The sweep body as one avg_distance_closed call per grid point, 17 digits per cell."""
    ham = SpectralHamiltonian.from_spectrum(np.asarray(spectrum, dtype=float))
    rng = np.random.default_rng(seed)
    if "density_rank" in state:
        rho = random_density(ham.dim, rank=state["density_rank"], seed=rng)
    else:
        rho = pure_density(haar_random_state(ham.dim, rng))
    lines = [",".join(_SWEEP_COLUMNS)]
    for t in np.linspace(0.0, 2.0 * np.pi, steps):
        res = avg_distance_closed(rho, ham, float(t), include_brute=True)
        cells = (res.t, res.brute_force, res.closed_form, res.coefficient, res.coherence, res.gap)
        lines.append(",".join(format(c, ".17g") for c in cells))
    return lines


def _run_sweep(tmp_path, spectrum, state, seed, steps, fmt="csv"):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sweep": {"spectrum": spectrum, "state": state,
                                         "t_steps": steps}}))
    out = tmp_path / f"sweep.{fmt}"
    assert main(["sweep", "--config", str(cfg), "--seed", str(seed), "--format", fmt,
                 "--out", str(out)]) == 0
    return out


@pytest.mark.bits
@pytest.mark.parametrize("spectrum, rank", [
    ([0.0, 0.7, 1.9, 2.4], 2), ([0.0, 0.7, 0.7, 2.4, 3.1], 3), ([0.0, 1.3], 1)])
def test_a_mixed_sweep_is_the_point_by_point_loop_byte_for_byte(tmp_path, spectrum, rank):
    state = {"density_rank": rank}
    out = _run_sweep(tmp_path, spectrum, state, 8, 41)
    assert body_lines(out) == _point_by_point_sweep(spectrum, state, 8, 41)


@pytest.mark.parametrize("spectrum", [[0.0, 0.7, 1.9, 2.4, 3.3], [0.0, 1.1, 1.1, 2.6]])
def test_a_pure_sweep_moves_only_its_oracle_columns_and_only_at_roundoff(tmp_path, spectrum):
    state = {"haar": True}
    got = [line.split(",") for line in body_lines(_run_sweep(tmp_path, spectrum, state, 5, 41))]
    want = [line.split(",") for line in _point_by_point_sweep(spectrum, state, 5, 41)]
    assert got[0] == want[0] == _SWEEP_COLUMNS
    assert len(got) == len(want) == 42
    for row, ref in zip(got[1:], want[1:]):
        assert row[0] == ref[0] and row[2:5] == ref[2:5]     # t, sbar_closed, coefficient, c_half
        for col in (1, 5):                                     # sbar_brute, gap
            assert abs(float(row[col]) - float(ref[col])) <= 1e-14


def _counting_states(monkeypatch):
    """The shape of every density checked as a state (``_Density.of``), in call order."""
    calls = []
    of = linalg._Density.of
    monkeypatch.setattr(linalg._Density, "of",
                        lambda rho, psi=None: calls.append(np.shape(rho)) or of(rho, psi))
    return calls


def test_a_mixed_sweep_roots_rho_once(tmp_path, monkeypatch):
    spectrum, state = [0.0, 0.7, 1.9, 2.4], {"density_rank": 2}
    want = _point_by_point_sweep(spectrum, state, 8, 41)
    # every root the package rebuilds, matrix_sqrt_psd's and a state's, goes through _rebuild
    roots = []
    rebuild = linalg._rebuild
    monkeypatch.setattr(linalg, "_rebuild", lambda w, v: roots.append(v.shape) or rebuild(w, v))
    states = _counting_states(monkeypatch)
    out = _run_sweep(tmp_path, spectrum, state, 8, 41)
    assert states == [(4, 4)] and roots == [(4, 4)]
    assert body_lines(out) == want


@pytest.mark.parametrize("env_dim, dim", [(None, 3), (2, 2), (3, 2)])
def test_the_channel_report_checks_its_state_once(tmp_path, monkeypatch, env_dim, dim):
    # the gap analysis and the bound share one checked state of the input; the
    # default is the qutrit channel, the others a saved 2 x 2 channel
    from coherence_speed.channels import random_channel, save_channel
    argv = ["channel", "--out", str(tmp_path / "out.csv")]
    if env_dim is not None:
        save_channel(random_channel(2, 2, 5), tmp_path / "chan.json")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"channel": {"channel": {"path": str(tmp_path / "chan.json")},
                                               "env_dim": env_dim, "state": "plus"}}))
        argv += ["--config", str(cfg)]
    states = _counting_states(monkeypatch)
    assert main(argv) == 0
    assert states == [(dim, dim)]


@pytest.mark.parametrize("state", [{"haar": True}, {"density_rank": 2}])
def test_a_json_sweep_holds_the_csv_values(tmp_path, state):
    csv_rows = rows_of(_run_sweep(tmp_path, [0.0, 0.6, 1.7], state, 3, 13))
    doc = json.loads(_run_sweep(tmp_path, [0.0, 0.6, 1.7], state, 3, 13, "json").read_text())
    assert doc["rows"] == csv_rows
    assert all(list(row) == _SWEEP_COLUMNS for row in doc["rows"])


def _in_qubit_range(row):
    """A ceiling >= 0, and a qubit's two-block c_half is at most 1/2."""
    return row["bound"] >= 0.0 and 0.0 <= row["coherence"] <= 0.5 + 1e-9


def test_battery_default_rows_and_bound(tmp_path):
    out = tmp_path / "bat.csv"
    assert main(["battery", "--out", str(out)]) == 0
    rows = rows_of(out)
    assert len(rows) == 1001
    for r in rows:
        assert abs(r["avg_work"]) <= r["bound"] + 1e-9 and _in_qubit_range(r)
    # default protocol starts in the ground state with the pulse off
    assert rows[0]["eta"] == 0.0 and rows[0]["avg_work"] == 0.0


def test_a_battery_axis_past_the_norm_range_gives_the_unit_axis_body(tmp_path):
    # |n| of [1e200, 1e200, 0] overflowed: a warning, then exit 2 on a zero axis
    bodies = []
    for axis in ([1e200, 1e200, 0], [1, 1, 0]):
        cfg, out = tmp_path / "cfg.json", tmp_path / "bat.csv"
        cfg.write_text(json.dumps({"battery": {"axis": axis}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["battery", "--config", str(cfg), "--out", str(out)]) == 0
        bodies.append("".join(line for line in out.read_text().splitlines(True)
                              if not line.startswith("#")))
    assert bodies[0] == bodies[1] and bodies[0].count("\n") == 1002


def test_battery_rejects_mixed_states(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"battery": {"state": {"density_rank": 2}}}))
    assert main(["battery", "--config", str(cfg)]) == 2
    assert "pure state" in capsys.readouterr().err


def test_channel_default_audit_is_equality_case(tmp_path):
    out = tmp_path / "chan.json"
    assert main(["channel", "--out", str(out), "--format", "json"]) == 0
    doc = json.loads(out.read_text())
    row = doc["rows"][0]
    assert row["witness"] == 0.0 and row["witness_is_zero"] is True
    assert abs(row["gap"]) < 1e-10
    assert row["completeness_residual"] < 1e-15
    # the joint Hamiltonian has too many levels for the orbit columns, but the
    # ceiling 2 (1 - B(T)) c_half(rho x |0><0|) needs no orbit
    assert "avg_channel_distance" not in row and "slack" not in row
    dilation = dilate(qutrit_equality_channel())
    joint = np.kron(pure_density([1.0, 0.0, 0.0]), pure_density(dilation.env_state))
    ceiling = (2.0 * (1.0 - b_coefficient(dilation.levels, dilation.duration))
               * c_half(joint, dilation.hamiltonian.decomposition))
    assert len(dilation.levels) == 12 and abs(row["coherence_ceiling"] - ceiling) < 1e-12


@pytest.mark.parametrize("seed, state", [(5, {"state": "plus"}), (7, {})],
                         ids=["plus", "default-state"])
def test_channel_from_file_reports_slack(tmp_path, seed, state):
    from coherence_speed.channels import random_channel, save_channel
    chan_path = tmp_path / "chan22.json"
    save_channel(random_channel(2, 2, seed), chan_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"channel": {"channel": {"path": str(chan_path)}, **state}}))
    bodies = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["channel", "--config", str(cfg), "--seed", "0", "--out", str(out)]) == 0
        bodies.append(body_lines(out))
    assert bodies[0] == bodies[1]
    (row,) = rows_of(out)
    avg, ceiling = row["avg_channel_distance"], row["coherence_ceiling"]
    assert avg <= ceiling and row["slack"] == ceiling - avg


@pytest.mark.parametrize("section, dilations", [
    (None, 1), ({}, 1), ({"env_dim": 2}, 1), ({"env_dim": 3}, 2)])
def test_channel_report_reuses_a_default_dilation(tmp_path, monkeypatch, section, dilations):
    from coherence_speed import channels, cli
    from coherence_speed.channels import random_channel, save_channel
    argv = ["channel"]
    if section is not None:
        # a 2-Kraus channel: env_dim 2 is the default environment, 3 is not
        chan_path = tmp_path / "chan22.json"
        save_channel(random_channel(2, 2, 5), chan_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"channel": dict(section, channel={"path": str(chan_path)},
                                                   state="plus")}))
        argv += ["--config", str(cfg)]
    # the reference body comes from the public gap analysis, which dilates on its own
    reference = tmp_path / "reference.csv"
    monkeypatch.setattr(cli, "_equality_gap", lambda channel, dilation, state:
                        channels.equality_gap_analysis(channel, state.rho))
    assert main(argv + ["--out", str(reference)]) == 0
    monkeypatch.undo()
    calls = []
    dilate = channels.dilate

    def counting(*args, **kwargs):
        calls.append(args)
        return dilate(*args, **kwargs)

    monkeypatch.setattr(channels, "dilate", counting)
    monkeypatch.setattr(cli, "dilate", counting)
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert len(calls) == dilations
    assert body_lines(out) == body_lines(reference)


def test_qsl_grid_hits_the_orthogonality_point(tmp_path):
    out = tmp_path / "qsl.csv"
    assert main(["qsl", "--out", str(out)]) == 0
    rows = rows_of(out)
    last = rows[-1]
    assert abs(last["t"] - np.pi) < 1e-12
    assert abs(last["mt_time"] - np.pi) < 1e-9
    assert abs(last["ml_time"] - np.pi) < 1e-9
    for r in rows:
        assert r["mt_time"] <= r["t"] + 1e-9


def test_qsl_weights_the_level_blocks_of_a_degenerate_spectrum_equally(tmp_path):
    # the uniform vector on [0, 0, 1] puts 2/3 of its weight on level 0 (energy mean 1/3);
    # one weight per level block, the state sweep resolves, puts 1/2 on each level
    cfg, out = tmp_path / "qsl.json", tmp_path / "qsl.csv"
    cfg.write_text(json.dumps({"qsl": {"spectrum": [0.0, 0.0, 1.0], "state": "maximally-coherent"}}))
    assert main(["qsl", "--config", str(cfg), "--out", str(out)]) == 0
    assert all(abs(row["energy_mean"] - 0.5) < 1e-15 for row in rows_of(out))


@pytest.mark.bits
def test_the_default_qsl_rows_are_the_unitary_exp_targets_bit_for_bit(tmp_path):
    # on the default spectrum [0, 1] the lowest level is 0, so dropping the
    # global phase exp(-i w_0 t) from the targets changes no bit
    out = tmp_path / "qsl.json"
    assert main(["qsl", "--format", "json", "--out", str(out)]) == 0
    ham = SpectralHamiltonian.from_spectrum([0.0, 1.0])
    psi0 = np.full(2, 1.0 / np.sqrt(2.0), dtype=complex)
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 101
    for row, t in zip(rows, np.linspace(0.0, np.pi, 101)):
        b = qsl_bounds(psi0, ham, unitary_exp(ham, float(t)) @ psi0)
        assert row == {"t": float(t), "bures_angle": b.bures_angle, "energy_mean": b.mean_energy,
                       "energy_stddev": b.energy_stddev, "mt_time": b.mt_time,
                       "ml_time": b.ml_time}


def test_a_qsl_report_validates_its_evolved_targets_not_at_all(tmp_path, monkeypatch):
    calls, validate = [], linalg.validate_state_vector

    def counting(psi, **kwargs):
        calls.append(1)
        return validate(psi, **kwargs)

    for module in (cli, dynamics, linalg, metrics):
        monkeypatch.setattr(module, "validate_state_vector", counting)
    state = {"amplitudes": [[0.5, 0.0], [0.0, 0.5], [-0.5, 0.0], [0.3, 0.4]]}
    per_grid = []
    for steps in (3, 1001):
        cfg = tmp_path / f"cfg-{steps}.json"
        cfg.write_text(json.dumps({"qsl": {"spectrum": [-0.4, 0.0, 0.7, 1.3], "state": state,
                                           "t_steps": steps}}))
        calls.clear()
        assert main(["qsl", "--config", str(cfg), "--out", str(tmp_path / "qsl.csv")]) == 0
        per_grid.append(len(calls))
    assert per_grid == [1, 1]      # the amplitudes, once where they enter


def test_an_undefined_qsl_bound_is_nan_in_csv_and_null_in_json(tmp_path):
    # a ground state on a degenerate ground level is stationary: no spread, no mean above ground
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"qsl": {"spectrum": [0.0, 0.0, 1.0], "state": "ground",
                                       "t_steps": 4}}))
    csv_out, json_out = tmp_path / "qsl.csv", tmp_path / "qsl.json"
    assert main(["qsl", "--config", str(cfg), "--out", str(csv_out)]) == 0
    assert main(["qsl", "--config", str(cfg), "--format", "json", "--out", str(json_out)]) == 0
    assert [line.split(",")[-2:] for line in body_lines(csv_out)[1:]] == [["nan", "nan"]] * 4
    rows = json.loads(json_out.read_text())["rows"]
    assert [(r["mt_time"], r["ml_time"], r["bures_angle"]) for r in rows] == [(None, None, 0.0)] * 4


@pytest.mark.parametrize("shift", [1e3, 1e4, 1e5, 1e6])
def test_qsl_holds_on_a_shifted_two_level_spectrum(tmp_path, shift):
    # the plus state has mean and spread both half the gap, whatever the shift
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"qsl": {"spectrum": [shift, shift + 0.001]}}))
    out = tmp_path / "qsl.json"
    assert main(["qsl", "--config", str(cfg), "--format", "json", "--out", str(out)]) == 0
    for row in json.loads(out.read_text())["rows"]:
        assert abs(row["energy_mean"] - row["energy_stddev"]) <= 1e-12 * row["energy_stddev"]
        assert row["mt_time"] <= row["t"] + 1e-9


def test_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("COHERENCE_SPEED_SEED", "99")
    out = tmp_path / "q.csv"
    assert main(["qsl", "--out", str(out)]) == 0
    meta = [l for l in out.read_text().splitlines() if l.startswith("# seed")]
    assert meta == ["# seed: 99"]
    monkeypatch.setenv("COHERENCE_SPEED_SEED", "not-a-number")
    assert main(["qsl"]) == 2


def test_json_report_structure(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sweep": {"spectrum": [0.0, 1.0], "t_steps": 5},
                               "format": "json"}))
    out = tmp_path / "r.json"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"metadata", "rows"}
    assert doc["metadata"]["command"] == "sweep"
    assert len(doc["rows"]) == 5


_SWEEP_3 = {"sweep": {"spectrum": [0.0, 0.7, 1.9], "t_steps": 21}}
_QSL_3 = {"qsl": {"spectrum": [0.0, 0.4, 1.7], "t_steps": 21}}


@pytest.mark.parametrize("argv, config, fmt", [
    (["battery"], None, "json"), (["sweep"], _SWEEP_3, "json"), (["qsl"], None, "json"),
    (["qsl"], _QSL_3, "json"), (["channel"], None, "json"), (["verify", "thm2"], None, "json"),
    (["battery"], None, "csv"), (["sweep"], _SWEEP_3, "csv")],
    ids=["battery-json", "sweep-json", "qsl-json", "qsl-3-level-json", "channel-json",
         "verify-thm2-json", "battery-csv", "sweep-csv"])
def test_a_report_body_is_the_stdlib_rendering_of_itself(tmp_path, argv, config, fmt):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    out = tmp_path / f"report.{fmt}"
    assert main(argv + ["--format", fmt, "--out", str(out)]) == 0
    text = out.read_text()
    if fmt == "json":
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
    else:
        body = "".join(line for line in text.splitlines(True) if not line.startswith("#"))
        again = io.StringIO()
        csv.writer(again, lineterminator="\n").writerows(csv.reader(io.StringIO(body)))
        assert body.count("\n") > 20 and again.getvalue() == body


def test_verify_report_written(tmp_path, capsys):
    out = tmp_path / "verify.csv"
    assert main(["verify", "qsl", "--trials", "10", "--out", str(out)]) == 0
    lines = body_lines(out)
    assert lines[0].startswith("check,passed,worst")
    assert len(lines) == 3   # header + two checks


@pytest.mark.parametrize("extra, value", [([], "none"), (["--dim", "3"], "3")])
def test_verify_metadata_records_dim_as_an_override(tmp_path, capsys, extra, value):
    # thm3 runs at d = 2 and 3 whatever --dim says, so the metadata names no dimension
    out = tmp_path / "thm3.csv"
    assert main(["verify", "thm3", "--trials", "1", "--out", str(out)] + extra) == 0
    meta = [l for l in out.read_text().splitlines() if l.startswith("# dim")]
    assert meta == [f"# dim_override: {value}"]


@pytest.mark.parametrize("kraus", [[[[[1, 0], [0, 0]], [[0, 0]]]],
                                   [[[[float("nan"), 0], [0, 0]], [[0, 0], [1, 0]]]]],
                         ids=["ragged", "nan"])
def test_a_malformed_channel_file_is_a_usage_error(tmp_path, capsys, kraus):
    chan_path = tmp_path / "kraus.json"
    chan_path.write_text(json.dumps({"kraus": kraus}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"channel": {"channel": {"path": str(chan_path)}}}))
    assert main(["channel", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: channel {chan_path}: ")
    assert "Traceback" not in captured.err


def test_amplitudes_within_the_norm_tolerance_are_normalized(tmp_path):
    # a norm of 1 + 8e-10 passes TOL_NORM, but its square, the trace of the
    # density, is 1 + 1.6e-9, past TOL_TRACE
    bodies = []
    for first in (1.0000000008, 1.0):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {"spectrum": [0.0, 1.0], "t_steps": 5,
                                             "state": {"amplitudes": [[first, 0], [0, 0]]}}}))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        bodies.append(body_lines(out))
    assert bodies[0] == bodies[1]


def test_nan_state_amplitude_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"qsl": {"spectrum": [0, 1], "t_steps": 3,
                                       "state": {"amplitudes": [[float("nan"), 0], [1, 0]]}}}))
    out = tmp_path / "qsl.csv"
    assert main(["qsl", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: config {cfg}: $.qsl.state.amplitudes[0][0]: "
                            "'NaN' is not of type 'number'\n")
    assert not out.exists()


@pytest.mark.parametrize("section, where", [
    ({"spectrum": [0.0, float("nan"), 1.0]}, "spectrum[1]: 'NaN'"),
    ({"spectrum": [0.0, 1.0], "t_stop": float("inf")}, "t_stop: 'Infinity'")],
    ids=["nan-level", "infinite-stop"])
def test_a_non_finite_sweep_input_is_a_usage_error(tmp_path, capsys, section, where):
    # the pure path takes no root that would fail on NaN, so the config read rejects it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sweep": {**section, "t_steps": 3}}))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: config {cfg}: $.sweep.{where} is not of type 'number'\n")
    assert not out.exists()


@pytest.mark.parametrize("section, where", [
    ({"spectrum": [0.0, float("nan"), 1.0]}, "spectrum[1]: 'NaN'"),
    ({"spectrum": [0.0, float("inf")]}, "spectrum[1]: 'Infinity'"),
    ({"spectrum": [0.0, 1.0], "t_stop": float("inf")}, "t_stop: 'Infinity'")],
    ids=["nan-level", "infinite-level", "infinite-stop"])
def test_a_non_finite_qsl_input_names_the_spectrum(tmp_path, capsys, section, where):
    # the state is valid: the error must not blame it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"qsl": {**section, "t_steps": 3}}))
    out = tmp_path / "qsl.csv"
    assert main(["qsl", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: config {cfg}: $.qsl.{where} is not of type 'number'\n")
    assert not out.exists()


_MARK = "@"     # where a case puts its non-finite token

# every number position of the two shipped schemas: the pointer of its schema
# node, the command that reads it, and a document holding the mark there
_NUMBER_POSITIONS = {
    "$.tolerance": ("config", "/properties/tolerance", "qsl", {"tolerance": _MARK}),
    "$.sweep.spectrum[1]": ("config", "/properties/sweep/properties/spectrum/items", "sweep",
                            {"sweep": {"spectrum": [0, _MARK]}}),
    "$.sweep.t_start": ("config", "/properties/sweep/properties/t_start", "sweep",
                        {"sweep": {"spectrum": [0, 1], "t_start": _MARK}}),
    "$.sweep.t_stop": ("config", "/properties/sweep/properties/t_stop", "sweep",
                       {"sweep": {"spectrum": [0, 1], "t_stop": _MARK}}),
    "$.qsl.spectrum[1]": ("config", "/properties/qsl/properties/spectrum/items", "qsl",
                          {"qsl": {"spectrum": [0, _MARK, 1]}}),
    "$.qsl.t_start": ("config", "/properties/qsl/properties/t_start", "qsl",
                      {"qsl": {"spectrum": [0, 1], "t_start": _MARK}}),
    "$.qsl.t_stop": ("config", "/properties/qsl/properties/t_stop", "qsl",
                     {"qsl": {"spectrum": [0, 1], "t_stop": _MARK}}),
    "$.battery.epsilon": ("config", "/properties/battery/properties/epsilon", "battery",
                          {"battery": {"epsilon": _MARK}}),
    "$.battery.eta_max": ("config", "/properties/battery/properties/eta_max", "battery",
                          {"battery": {"eta_max": _MARK}}),
    "$.battery.tau": ("config", "/properties/battery/properties/tau", "battery",
                      {"battery": {"tau": _MARK}}),
    "$.battery.dt": ("config", "/properties/battery/properties/dt", "battery",
                     {"battery": {"dt": _MARK}}),
    "$.battery.axis[0]": ("config", "/$defs/axis/oneOf/1/prefixItems/0", "battery",
                          {"battery": {"axis": [_MARK, 0, 0]}}),
    "$.battery.axis[1]": ("config", "/$defs/axis/oneOf/1/prefixItems/1", "battery",
                          {"battery": {"axis": [0, _MARK, 1]}}),
    "$.battery.axis[2]": ("config", "/$defs/axis/oneOf/1/prefixItems/2", "battery",
                          {"battery": {"axis": [1, 0, _MARK]}}),
    "$.qsl.state.amplitudes[0][0]": (
        "config", "/$defs/state/oneOf/1/properties/amplitudes/items/prefixItems/0", "qsl",
        {"qsl": {"spectrum": [0, 1], "state": {"amplitudes": [[_MARK, 0], [1, 0]]}}}),
    "$.qsl.state.amplitudes[1][1]": (
        "config", "/$defs/state/oneOf/1/properties/amplitudes/items/prefixItems/1", "qsl",
        {"qsl": {"spectrum": [0, 1], "state": {"amplitudes": [[1, 0], [0, _MARK]]}}}),
    "$.kraus[0][0][0][0]": ("channel", "/properties/kraus/items/items/items/prefixItems/0",
                            "channel", {"kraus": [[[[_MARK, 0], [0, 0]], [[0, 0], [1, 0]]]]}),
    "$.kraus[0][1][1][1]": ("channel", "/properties/kraus/items/items/items/prefixItems/1",
                            "channel", {"kraus": [[[[1, 0], [0, 0]], [[0, 0], [1, _MARK]]]]}),
}


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize("where", list(_NUMBER_POSITIONS))
def test_a_non_finite_number_fails_the_schema_at_its_path(tmp_path, capsys, where, token):
    schema, _, command, doc = _NUMBER_POSITIONS[where]
    text = json.dumps(doc).replace(f'"{_MARK}"', token)
    cfg = tmp_path / "cfg.json"
    if schema == "channel":
        (tmp_path / "kraus.json").write_text(text)
        text = json.dumps({"channel": {"channel": {"path": str(tmp_path / "kraus.json")}}})
    cfg.write_text(text)
    out = tmp_path / "report.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert not out.exists()
    assert f": {where}: '{token}' is not of type 'number'\n" in captured.err


def _number_nodes(node, pointer=""):
    """The JSON pointers of every schema node typed "number"."""
    if isinstance(node, dict):
        if node.get("type") == "number":
            yield pointer
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _number_nodes(child, f"{pointer}/{key}")


@pytest.mark.parametrize("schema", ["config", "channel"])
def test_every_number_of_the_schemas_has_a_non_finite_case(schema):
    # a numeric key added to a schema without a case here would skip the boundary check
    nodes = set(_number_nodes(load_schema(f"{schema}.schema.json")))
    covered = {pointer for kind, pointer, _, _ in _NUMBER_POSITIONS.values() if kind == schema}
    assert nodes and nodes == covered


def _digits(n, sign=""):
    return sign + "1" + "0" * (n - 1)


# 401 digits is past the float range; 5,001 is past int()'s default digit limit
@pytest.mark.parametrize("where, command, doc, literal, kind", [
    ("$.battery.dt", "battery", {"battery": {"dt": _MARK}}, _digits(401), "number"),
    ("$.qsl.spectrum[0]", "qsl", {"qsl": {"spectrum": [_MARK, 1]}}, _digits(401), "number"),
    ("$.qsl.spectrum[0]", "qsl", {"qsl": {"spectrum": [_MARK, 1]}}, _digits(401, "-"), "number"),
    ("$.battery.dt", "battery", {"battery": {"dt": _MARK}}, _digits(5001), "number"),
    ("$.seed", "qsl", {"seed": _MARK}, _digits(401), "integer"),
], ids=["dt-401-digits", "level-401-digits", "level-minus-401-digits", "dt-5001-digits",
        "seed-401-digits"])
def test_an_integer_past_the_float_range_fails_the_schema_at_its_path(
        tmp_path, capsys, where, command, doc, literal, kind):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc).replace(f'"{_MARK}"', literal))
    assert main([command, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f": {where}: '{literal}' is not of type '{kind}'\n" in captured.err


def test_an_integer_inside_the_float_range_is_still_an_int(tmp_path, capsys):
    # 1.7e308 written out in full: finite as a float, so parsed as the int it is
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": 17' + "0" * 307 + ', "qsl": {"spectrum": [0, 1], "t_steps": 2}}')
    assert main(["qsl", "--config", str(cfg)]) == 0
    assert f"seed: 17{'0' * 307}\n" in capsys.readouterr().out


def test_csv_details_with_commas_stay_in_one_cell(tmp_path, capsys):
    out = tmp_path / "thm3.csv"
    assert main(["verify", "thm3", "--trials", "2", "--out", str(out)]) == 0
    rows = list(csv.reader(body_lines(out)))
    assert all(len(row) == len(rows[0]) for row in rows)
    detail = {row[0]: row[-1] for row in rows[1:]}
    assert detail["qutrit-equality-construction"].startswith("completeness ")
    assert ", witness " in detail["qutrit-equality-construction"]


_NUM = r"-?\d\.\d{3}e[+-]\d\d"


@pytest.mark.parametrize("command, section, code, err", [
    ("sweep", {"sweep": {"spectrum": [0.0, 1.0], "t_steps": 5}}, 1,
     rf"sweep: worst identity gap {_NUM} exceeds -1\.0e\+00"),
    ("battery", None, 1, rf"battery: work exceeded its ceiling by {_NUM}"),
    ("channel", "saved", 1,
     rf"channel: averaged distance exceeds the coherence ceiling by {_NUM}"),
    ("qsl", None, 1, rf"qsl: spread-based minimum time exceeded the elapsed time by {_NUM}"),
    # no check applies: 9 levels are past the brute-force cap, and the default
    # channel's joint Hamiltonian has too many levels for the orbit columns
    ("sweep", {"sweep": {"spectrum": list(range(9)), "t_steps": 5}}, 0, ""),
    ("channel", None, 0, r"note: bound columns omitted: avg_channel_distance, slack "
                         r"\(12 levels exceed brute-force cap 8\)"),
])
def test_report_commands_exit_1_on_a_failed_check(tmp_path, capsys, monkeypatch, command,
                                                  section, code, err):
    from coherence_speed import cli
    from coherence_speed.channels import random_channel, save_channel
    # --tol must be positive, so a default of -1 is what forces each report's failure
    monkeypatch.setattr(cli, "TOL_REPORT", -1.0)
    argv = [command, "--out", str(tmp_path / "r.csv")]
    if section == "saved":
        save_channel(random_channel(2, 2, 5), tmp_path / "chan22.json")
        section = {"channel": {"channel": {"path": str(tmp_path / "chan22.json")}}}
    if section is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(section))
        argv += ["--config", str(cfg)]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == f"report written to {tmp_path / 'r.csv'}\n"
    assert re.fullmatch(err + ("\n" if err else ""), captured.err)


@pytest.mark.parametrize("argv, message", [
    (["verify", "thm1", "--dim", "0"], "argument --dim: invalid choice: 0"),
    (["verify", "thm1", "--dim", "-2"], "argument --dim: invalid choice: -2"),
    (["verify", "thm1", "--dim", "17"], "argument --dim: invalid choice: 17"),
    (["verify", "thm1", "--trials", "0"], "argument --trials: must be at least 1, got 0"),
    (["verify", "thm1", "--trials", "-1"], "argument --trials: must be at least 1, got -1"),
    (["verify", "thm1", "--seed", "-1"], "argument --seed: must be at least 0, got -1"),
    (["qsl", "--seed", "-1"], "argument --seed: must be at least 0, got -1"),
    (["qsl", "--tol", "0"], "argument --tol: must be finite and above 0, got 0"),
    (["qsl", "--tol", "-1"], "argument --tol: must be finite and above 0, got -1"),
    (["qsl", "--tol", "nan"], "argument --tol: must be finite and above 0, got nan"),
    (["verify", "thm1", "--trials", "two"], "argument --trials: invalid int value: 'two'"),
    (["qsl", "--tol", "inf"], "argument --tol: must be finite and above 0, got inf"),
])
def test_out_of_range_values_are_usage_errors(capsys, argv, message):
    # rejected while parsing: no check runs, and no traceback reaches the user
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and "usage:" in captured.err
    assert "Traceback" not in captured.err


def test_negative_seed_from_the_environment_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("COHERENCE_SPEED_SEED", "-1")
    assert main(["qsl"]) == 2
    assert capsys.readouterr().err == (
        "error: COHERENCE_SPEED_SEED must be a nonnegative integer, got '-1'\n")


def test_importing_the_command_line_leaves_scipy_unloaded(tmp_path):
    # scipy is never imported: channel without a config and verify thm3 dilate, read no
    # document, and load neither; jsonschema is imported only for a document the
    # package's own schema check does not accept, so valid config and channel files
    # do not load it either
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys; from coherence_speed.cli import main; "
             "code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0; "
             "print(code, sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('scipy', 'jsonschema')), file=sys.stderr)")

    def loaded(*argv):
        done = subprocess.run([sys.executable, "-c", probe, *argv], env=env, capture_output=True,
                              text=True, check=True)
        return done.stderr.splitlines()[-2:]

    def config(name, doc):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        return ["--config", str(path), "--out", str(tmp_path / f"{name}.out")]

    from coherence_speed.channels import random_channel, save_channel
    save_channel(random_channel(2, 2, 5), tmp_path / "kraus.json")
    for argv in ([], ["channel"], ["verify", "thm3"],
                 ["sweep", *config("sweep", {"sweep": {"spectrum": [0, 0.7, 1.9], "t_steps": 3}})],
                 ["battery", *config("battery", {"battery": {"tau": 1.0, "dt": 0.05}})],
                 ["qsl", *config("qsl", {"qsl": {"spectrum": [0, 1], "t_steps": 3}})],
                 ["verify", *config("verify", {"verify": {"suite": "qsl", "trials": 1}})],
                 ["channel", *config("channel", {"channel": {
                     "channel": {"path": str(tmp_path / "kraus.json")}, "state": "plus"}})]):
        assert loaded(*argv)[-1] == "0 []", argv
    bad = config("bad", {"qsl": {"spectrum": [0.0, 1.0], "steps": 3}})
    message, modules = loaded("qsl", *bad)
    assert message == (f"error: config {bad[1]}: $.qsl: Additional properties are not allowed "
                       "('steps' was unexpected)")
    assert modules.startswith("2 ['jsonschema'"), modules


def test_every_call_of_the_process_shares_one_parser():
    assert cli._build_parser() is cli._build_parser()


def _run(argv, capsys, out=None):
    """Exit code, stdout, stderr and report body of one in-process call, less the run
    timestamp of a JSON report and the check times of verify lines on stdout; the body is
    the --out file's or stdout's."""
    code = main(argv)
    captured = capsys.readouterr()
    stdout = re.sub(r"trials, \d+\.\d\ds\)", "trials)", "".join(
        l for l in captured.out.splitlines(True) if '"generated"' not in l))
    text = out.read_text() if out else stdout
    return code, stdout, captured.err, [l for l in text.splitlines() if not l.startswith("#")]


def test_a_reused_parser_gives_a_fresh_parser_s_calls(tmp_path, monkeypatch, capsys):
    # one parser serves the whole sequence; each call then runs again on a parser built
    # for it alone, and nothing it prints or writes differs
    cfg, out = tmp_path / "haar.json", tmp_path / "r.csv"
    cfg.write_text(json.dumps({"battery": {"state": {"haar": True}}}))
    monkeypatch.setenv("COHERENCE_SPEED_SEED", "7")
    calls = [(["battery", "--seed", "5", "--out", str(out)], out),
             (["battery", "--config", str(cfg), "--out", str(out)], out),
             (["verify", "thm1", "--dim", "0"], None),
             (["--help"], None),
             (["verify", "thm3", "--trials", "1"], None),
             (["qsl", "--format", "json"], None)]
    parser = cli._build_parser()
    reused = [_run(argv, capsys, path) for argv, path in calls]
    assert cli._build_parser() is parser
    fresh = []
    for argv, path in calls:
        cli._build_parser.cache_clear()
        fresh.append(_run(argv, capsys, path))
    assert reused == fresh
    assert [r[0] for r in reused] == [0, 0, 2, 0, 0, 0]
    assert "# seed: 7" in out.read_text().splitlines()
    assert "usage: coherence-speed" in reused[3][1]
    assert reused[4][1].startswith("PASS thm3-inequality: worst ") and "1 trials)" in reused[4][1]
    assert "argument --dim: invalid choice: 0" in reused[2][2]


@pytest.mark.parametrize("argv, doc, message", [
    (["qsl"], "{", "config {cfg} is not valid JSON: line 1 column 2: "
                   "Expecting property name enclosed in double quotes"),
    (["qsl"], {"qsl": {"spectrum": [0, 1], "state": {"amplitudes": [[1, 0], [0, 0], [0, 0]]}}},
     "state has 3 amplitudes, expected 2"),
    (["qsl"], {"qsl": {"spectrum": [0, 1], "state": {"amplitudes": [[2, 0], [0, 0]]}}},
     "state amplitudes: state norm 2.0 differs from 1 beyond 1.0e-09"),
    (["sweep"], {"sweep": {"spectrum": [0, 1], "state": {"density_rank": 3}}},
     "density_rank must be in 1..2"),
    (["battery"], {"battery": {"axis": [0, 0, 0]}}, "drive axis must be a nonzero 3-vector"),
    (["battery"], {"battery": {"axis": "w"}},     # the schema names every admitted axis
     "config {cfg}: $.battery.axis: 'w' is not valid under any of the given schemas"),
    (["verify"], None, "verify needs a suite name (argument or verify.suite in config)"),
    (["sweep"], None, "sweep needs a config file with a sweep section "
                      "(spectrum, optionally state and time grid)"),
], ids=["not-json", "amplitude-count", "amplitude-norm", "density-rank", "zero-axis",
        "unknown-axis", "verify-without-suite", "sweep-without-section"])
def test_a_rejected_config_prints_its_one_error_line(tmp_path, capsys, argv, doc, message):
    cfg = tmp_path / "cfg.json"
    if doc is not None:
        cfg.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        argv = [*argv, "--config", str(cfg)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.format(cfg=cfg)}\n"


_CIRCULAR = [[0.7071067811865476, 0], [0, 0.7071067811865476]]     # (|0> + i |1>) / sqrt 2


@pytest.mark.parametrize("section, psi", [
    ({"tau": 2.0, "dt": 0.01}, [1.0, 0.0]),
    ({"state": {"amplitudes": _CIRCULAR}}, [0.7071067811865476, 0.7071067811865476j])],
    ids=["ground-tau-2", "circular-default-grid"])
def test_a_rotating_battery_report_is_the_rotating_axis_run(tmp_path, section, psi):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"battery": {"axis": "rotating-xy", **section}}))
    bodies = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["battery", "--config", str(cfg), "--seed", "0", "--out", str(out)]) == 0
        bodies.append(body_lines(out))
    assert bodies[0] == bodies[1]
    assert bodies[0][0] == "t,eta,avg_work,bound,coherence,cumulative_work"
    tau, dt, psi = section.get("tau", 1.0), section.get("dt", 1e-3), np.array(psi)
    run = simulate_battery(BatteryConfig(epsilon=1.0, tau=tau, dt=dt,
                                         pulse=sin2_pulse(1.0, tau),
                                         drive_axis=rotating_axis(tau)),
                           psi / np.linalg.norm(psi))
    rows = rows_of(out)
    assert len(rows) == len(run.t) and all(_in_qubit_range(r) for r in rows)
    for name, column in [("t", run.t), ("eta", run.pulse_value), ("avg_work", run.avg_work),
                         ("bound", run.bound), ("coherence", run.coherence),
                         ("cumulative_work", run.cumulative_work)]:
        assert [r[name] for r in rows] == column.tolist(), name
