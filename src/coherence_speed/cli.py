"""Command-line front end for the verification suites and report runs.

Commands
--------
verify   run a named invariant suite, print one line per check
sweep    averaged-distance identity over a time grid (CSV/JSON report)
battery  two-level charging protocol time series
channel  dilation audit of a Kraus channel
qsl      speed-limit comparison along an exact evolution

Exit codes: 0 all checks pass, 1 a check failed, 2 usage/config error.
All quantities are dimensionless with hbar = 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np
from jsonschema import ValidationError

from . import __version__
from .avgdist import BRUTE_FORCE_CAP, _bruteforce, _bruteforce_pure, _closed_form
from .battery import (
    BatteryConfig,
    constant_axis,
    parabola_pulse,
    rotating_axis,
    simulate_battery,
    sin2_pulse,
    sin4_pulse,
)
from .channels import (
    _equality_gap,
    dilate,
    load_channel,
    qutrit_equality_channel,
    theorem3_bound,
)
from .errors import CoherenceSpeedError, TooManyLevels
from .linalg import (
    TOL_REPORT,
    TOL_ZERO,
    SpectralHamiltonian,
    dagger,
    haar_random_state,
    matrix_sqrt_psd,
    pure_density,
    random_density,
    validate_density,
    validate_state_vector,
)
from .metrics import _qsl_grid
from .report import render_report, write_report
from .schemas import _complex_array, parse_json, validate_document
from .verification import SUITES, failures_as_dicts, run_suite

_PULSES = {"sin2": sin2_pulse, "sin4": sin4_pulse, "parabola": parabola_pulse}
_UNIT_AXES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}


class UsageError(Exception):
    """Bad arguments or config; maps to exit code 2."""


def _checked(kind, ok, what: str):
    """An argparse type: ``kind(text)``, a usage error (exit 2) unless ``ok``."""
    def parse(text):
        if not ok(value := kind(text)):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value
    parse.__name__ = kind.__name__      # argparse names it in "invalid int value"
    return parse


_SEED = _checked(int, lambda n: n >= 0, "at least 0")
_TOL = _checked(float, lambda x: 0 < x < np.inf, "finite and above 0")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coherence-speed",
        description="Verification-grade checks of coherence/average-distance "
                    "identities, channel bounds, battery work ceilings, and "
                    "speed limits (hbar = 1).")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON config file (validated against the shipped schema)")
    common.add_argument("--seed", type=_SEED, metavar="N",
                        help="RNG seed (fallback: config, then COHERENCE_SPEED_SEED, then 0)")
    common.add_argument("--out", metavar="PATH",
                        help="report file (default: stdout for report commands)")
    common.add_argument("--format", choices=("csv", "json"), dest="fmt",
                        help="report format (default csv)")
    common.add_argument("--tol", type=_TOL, metavar="X",
                        help="tolerance override for pass/fail decisions")

    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run a named invariant suite")
    p_verify.add_argument("suite", nargs="?", choices=sorted(SUITES),
                          help="suite name (or set verify.suite in the config)")
    p_verify.add_argument("--dim", type=int, choices=range(2, 17), metavar="N",
                          help="dimension (2-16) of every check whose dimension varies")
    p_verify.add_argument("--trials", type=_checked(int, lambda n: n >= 1, "at least 1"),
                          metavar="N",
                          help="trial count override for every check of the suite")

    sub.add_parser("sweep", parents=[common],
                   help="averaged-distance identity over a time grid (needs config)")
    sub.add_parser("battery", parents=[common],
                   help="two-level charging protocol time series")
    sub.add_parser("channel", parents=[common],
                   help="dilation audit of a Kraus channel")
    sub.add_parser("qsl", parents=[common],
                   help="speed-limit comparison along an exact evolution")
    return parser


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = parse_json(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: "
                         f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    try:
        validate_document(doc, "config.schema.json")
    except ValidationError as exc:
        raise UsageError(f"config {path}: {exc.json_path}: {exc.message}") from exc
    return doc


def _resolve_seed(ns, config: dict) -> int:
    if ns.seed is not None:
        return int(ns.seed)
    if "seed" in config:
        return int(config["seed"])
    env = os.environ.get("COHERENCE_SPEED_SEED")
    if env is not None:
        try:
            return _SEED(env)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise UsageError(
                f"COHERENCE_SPEED_SEED must be a nonnegative integer, got {env!r}") from exc
    return 0


def _resolve_common(ns, config: dict, default_tol=None):
    seed = _resolve_seed(ns, config)
    tol = ns.tol if ns.tol is not None else config.get("tolerance")
    tol = default_tol if tol is None else tol
    out = ns.out if ns.out is not None else config.get("out")
    fmt = ns.fmt if ns.fmt is not None else config.get("format", "csv")
    return seed, tol, out, fmt


def _metadata(command: str, seed: int, tol, **extra) -> dict:
    meta = {
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "package": f"coherence-speed {__version__}",
        "command": command,
        "seed": seed,
        "tolerance": "default" if tol is None else tol,
        "units": "dimensionless, hbar=1",
    }
    meta.update(extra)
    return meta


def _state_label(spec) -> str:
    return spec if isinstance(spec, str) else json.dumps(spec, sort_keys=True)


def _pure_state(spec, dim: int, rng) -> np.ndarray:
    """Resolve a config state description to a normalized vector."""
    if spec == "ground":
        vec = np.zeros(dim, dtype=complex)
        vec[0] = 1.0
        return vec
    if spec in ("plus", "maximally-coherent"):
        return np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
    if isinstance(spec, dict) and "amplitudes" in spec:
        vec = _complex_array(spec["amplitudes"])
        if len(vec) != dim:
            raise UsageError(f"state has {len(vec)} amplitudes, expected {dim}")
        try:
            return validate_state_vector(vec)
        except CoherenceSpeedError as exc:
            raise UsageError(f"state amplitudes: {exc}") from exc
    if isinstance(spec, dict) and spec.get("haar"):
        return haar_random_state(dim, rng)
    raise UsageError("this command needs a pure state "
                     "(ground / plus / maximally-coherent / amplitudes / haar)")


def _state(spec, ham: SpectralHamiltonian, rng) -> tuple[np.ndarray, np.ndarray | None]:
    """Resolve a config state description to (rho, psi), psi None for a density_rank draw.

    'maximally-coherent' weights the Hamiltonian's level blocks equally,
    which for a nondegenerate spectrum reduces to the uniform
    superposition.
    """
    if spec == "maximally-coherent":
        # the first eigenvector column of each level block, equally weighted
        first = np.flatnonzero(np.diff(ham.level_of, prepend=-1))
        vec = (ham.eigenvectors[:, first] / np.sqrt(ham.level_count)).sum(axis=1)
        psi = validate_state_vector(vec / np.linalg.norm(vec))
    elif isinstance(spec, dict) and "density_rank" in spec:
        rank = int(spec["density_rank"])
        if not 1 <= rank <= ham.dim:
            raise UsageError(f"density_rank must be in 1..{ham.dim}")
        return random_density(ham.dim, rank=rank, seed=rng), None
    else:
        psi = _pure_state(spec, ham.dim, rng)
    return pure_density(psi), psi


def _axis(spec, tau: float):
    if isinstance(spec, str):
        if spec in _UNIT_AXES:
            return constant_axis(_UNIT_AXES[spec])
        if spec == "rotating-xy":
            return rotating_axis(tau)
        raise UsageError(f"unknown drive axis {spec!r}")
    vec = np.asarray(spec, dtype=float)
    norm = float(np.linalg.norm(vec))
    if norm < TOL_ZERO:
        raise UsageError("drive axis must be a nonzero 3-vector")
    return constant_axis(vec / norm)


def _finish(columns: dict, meta: dict, fmt: str, out, failure: str | None) -> int:
    """Write a report command's table; print its failure line, if any, and return the exit code."""
    write_report(render_report(columns, meta, fmt), out)
    if out:
        print(f"report written to {out}")
    if failure is None:
        return 0
    print(failure, file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_verify(ns, config: dict) -> int:
    seed, tol, out, fmt = _resolve_common(ns, config)
    section = config.get("verify", {})
    suite = ns.suite or section.get("suite")
    if suite is None:
        raise UsageError("verify needs a suite name (argument or verify.suite in config)")
    dim = ns.dim if ns.dim is not None else section.get("dim")
    trials = ns.trials if ns.trials is not None else section.get("trials")
    results = run_suite(suite, seed=seed, trials=trials, dim=dim, tol=tol)
    for res in results:
        print(res.line())
    if out:
        table = {"check": [r.name for r in results], "passed": [r.passed for r in results],
                 "worst": [r.worst for r in results], "tol": [r.tol for r in results],
                 "trials": [r.trials for r in results], "detail": [r.detail for r in results]}
        meta = _metadata("verify", seed, tol, suite=suite,
                         trials="default" if trials is None else trials,
                         dim_override="none" if dim is None else dim)
        write_report(render_report(table, meta, fmt), out)
        print(f"report written to {out}")
    failures = failures_as_dicts(results)
    if failures:
        print(json.dumps({"failed_checks": failures}), file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(ns, config: dict) -> int:
    seed, tol, out, fmt = _resolve_common(ns, config, TOL_REPORT)
    section = config.get("sweep")
    if section is None:
        raise UsageError("sweep needs a config file with a sweep section "
                         "(spectrum, optionally state and time grid)")
    spectrum = np.asarray(section["spectrum"], dtype=float)
    ham = SpectralHamiltonian.from_spectrum(spectrum)
    rng = np.random.default_rng(seed)
    state_spec = section.get("state", "maximally-coherent")
    rho, psi = _state(state_spec, ham, rng)
    rho = validate_density(rho)
    sqrt_rho = matrix_sqrt_psd(rho)         # one root serves c_half and the mixed-state oracle
    times = np.linspace(float(section.get("t_start", 0.0)),
                        float(section.get("t_stop", 2.0 * np.pi)), int(section.get("t_steps", 201)))
    include_brute = (section.get("brute_force", True)
                     and ham.level_count <= BRUTE_FORCE_CAP)
    coef, coh, closed = _closed_form(rho, ham, times, sqrt_rho)   # B(t) over the whole grid at once
    brute = gap = None
    if include_brute:
        brute = np.array([_bruteforce(rho, ham, t, sqrt_rho) if psi is None
                          else _bruteforce_pure(psi, ham, t) for t in times.tolist()])
        gap = np.abs(brute - closed)
    columns = {"t": times, "sbar_brute": brute, "sbar_closed": closed, "coefficient": coef,
               "c_half": coh, "gap": gap}
    columns = {k: np.broadcast_to(v, times.shape) for k, v in columns.items() if v is not None}
    worst_gap = 0.0 if gap is None else float(gap.max(initial=0.0))
    meta = _metadata("sweep", seed, tol,
                     spectrum=spectrum, dimension=ham.dim,
                     levels=ham.level_count, state=_state_label(state_spec),
                     brute_force=include_brute,
                     brute_force_cap=BRUTE_FORCE_CAP)
    return _finish(columns, meta, fmt, out,
                   f"sweep: worst identity gap {worst_gap:.3e} exceeds {tol:.1e}"
                   if gap is not None and worst_gap > tol else None)


def _cmd_battery(ns, config: dict) -> int:
    seed, tol, out, fmt = _resolve_common(ns, config, TOL_REPORT)
    section = config.get("battery", {})
    epsilon = float(section.get("epsilon", 1.0))
    eta_max = float(section.get("eta_max", 1.0))
    tau = float(section.get("tau", 1.0))
    dt = float(section.get("dt", 1e-3))
    pulse_name = section.get("pulse", "sin2")
    axis_spec = section.get("axis", "x")
    state_spec = section.get("state", "ground")
    rng = np.random.default_rng(seed)
    psi0 = _pure_state(state_spec, 2, rng)
    bat = BatteryConfig(epsilon=epsilon, tau=tau, dt=dt,
                        pulse=_PULSES[pulse_name](eta_max, tau),
                        drive_axis=_axis(axis_spec, tau))
    run = simulate_battery(bat, psi0)
    columns = {"t": run.t, "eta": run.pulse_value, "avg_work": run.avg_work,
               "bound": run.bound, "coherence": run.coherence,
               "cumulative_work": run.cumulative_work}
    worst = float(np.max(np.abs(run.avg_work) - run.bound))
    meta = _metadata("battery", seed, tol, epsilon=epsilon, eta_max=eta_max,
                     tau=tau, dt=dt, pulse=pulse_name,
                     axis=_state_label(axis_spec), state=_state_label(state_spec))
    return _finish(columns, meta, fmt, out,
                   f"battery: work exceeded its ceiling by {worst:.3e}" if worst > tol else None)


def _cmd_channel(ns, config: dict) -> int:
    seed, tol, out, fmt = _resolve_common(ns, config, TOL_REPORT)
    section = config.get("channel", {})
    channel_spec = section.get("channel", "qutrit-equality")
    if channel_spec == "qutrit-equality":
        channel = qutrit_equality_channel()
        label = "qutrit-equality"
    else:
        label = channel_spec["path"]
        try:
            channel = load_channel(label)
        except ValidationError as exc:
            raise UsageError(f"channel {label}: {exc.json_path}: {exc.message}") from exc
        except (OSError, json.JSONDecodeError, CoherenceSpeedError) as exc:
            raise UsageError(f"channel {label}: {exc}") from exc
    rng = np.random.default_rng(seed)
    psi0 = _pure_state(section.get("state", "ground"), channel.dim, rng)
    rho = pure_density(psi0)
    dilation = dilate(channel, section.get("env_dim"))
    # the gap is defined on the default dilation (one environment level per Kraus operator)
    default = dilation if dilation.env_dim == len(channel.operators) else dilate(channel)
    gap_report = _equality_gap(channel, default, rho)
    row = {"sys_dim": channel.dim, "env_dim": dilation.env_dim,
           "levels": len(dilation.levels),
           "completeness_residual": channel.completeness_residual,
           "system_distance": gap_report.system_distance,
           "dilated_distance": gap_report.dilated_distance,
           "gap": gap_report.gap, "witness": gap_report.witness,
           "witness_is_zero": gap_report.witness_is_zero}
    failure = None
    try:
        lhs, rhs = theorem3_bound(dilation, rho)
        row.update(avg_channel_distance=lhs, coherence_ceiling=rhs,
                   slack=rhs - lhs)
        if lhs > rhs + tol:
            failure = ("channel: averaged distance exceeds the coherence ceiling "
                       f"by {lhs - rhs:.3e}")
    except TooManyLevels as exc:
        print(f"note: bound columns omitted ({exc})", file=sys.stderr)
    meta = _metadata("channel", seed, tol, channel=label,
                     n_kraus=len(channel.operators),
                     state=_state_label(section.get("state", "ground")))
    return _finish({name: [value] for name, value in row.items()}, meta, fmt, out, failure)


def _cmd_qsl(ns, config: dict) -> int:
    seed, tol, out, fmt = _resolve_common(ns, config, TOL_REPORT)
    section = config.get("qsl", {})
    spectrum = np.asarray(section.get("spectrum", [0.0, 1.0]), dtype=float)
    ham = SpectralHamiltonian.from_spectrum(spectrum)
    rng = np.random.default_rng(seed)
    psi0 = _pure_state(section.get("state", "plus"), ham.dim, rng)
    times = np.linspace(float(section.get("t_start", 0.0)), float(section.get("t_stop", np.pi)),
                        int(section.get("t_steps", 101)))
    # exp(-i H t) psi0 but for the global phase exp(-i w_0 t), which the Bures
    # angle ignores; phases of w - w_0 keep their precision on a shifted spectrum
    v, w = ham.eigenvectors, ham.eigenvalues
    phases = np.exp(-1j * np.multiply.outer(times, w - w[0]))
    grid = _qsl_grid(psi0, ham, (phases * (dagger(v) @ psi0)) @ v.T)
    columns = {"t": times, "bures_angle": [b.bures_angle for b in grid],
               "energy_mean": [b.mean_energy for b in grid],
               "energy_stddev": [b.energy_stddev for b in grid],
               "mt_time": [b.mt_time for b in grid], "ml_time": [b.ml_time for b in grid]}
    worst = max((b.mt_time - t for t, b in zip(times.tolist(), grid) if b.mt_time is not None),
                default=-np.inf)
    meta = _metadata("qsl", seed, tol, spectrum=spectrum, dimension=ham.dim,
                     state=_state_label(section.get("state", "plus")))
    return _finish(columns, meta, fmt, out,
                   f"qsl: spread-based minimum time exceeded the elapsed time by {worst:.3e}"
                   if worst > tol else None)


_COMMANDS = {
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "battery": _cmd_battery,
    "channel": _cmd_channel,
    "qsl": _cmd_qsl,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:       # argparse already printed usage/help
        return int(exc.code or 0)
    try:
        config = _load_config(ns.config) if ns.config else {}
        return _COMMANDS[ns.command](ns, config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CoherenceSpeedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
