"""Same-behaviour harness: one canonical JSON of what the package on the import path does.

It records

- every report body (CSV and JSON) at the default and the CI configs,
  at three more battery protocols (sin^4 and parabola pulses, a 3-vector
  and the rotating axis, tau = 2.5), at the maximally coherent ``qsl``
  state on a degenerate and a 2-level spectrum, and ``verify --out`` for
  three suites, each with its exit code, stdout and stderr;
- PASS/FAIL, trials, detail and the worst value (as ``float.hex``) of
  every check of every suite at seeds 0, 1, 34 and 83, and at seed 0
  under ``--dim`` 2, 3 and 5;
- the exit code and stderr, or the exception and warnings, for a fixed
  list of malformed inputs to the CLI and to the library (among them
  non-finite times, pulse and axis samples, and a ``SpectralHamiltonian``
  built raw, written or reassigned, and a zero, NaN or 1e200 ``constant_axis``),
  and the outcome of each density entry on malformed, near-Hermitian and
  pure 3 x 3 states;
- three exact outputs: ``fidelity`` of a pair inside the dead band, and
  the bytes of ``unitary_exp`` and ``matrix()`` for three Hamiltonians;
- ``float.hex`` of (lhs, rhs) from direct ``theorem3_bound`` calls on
  random 2 x 2 and 3 x 2 channels at env_dim 2 and 3, on a unitary
  channel with the eigenvalue -1 (the -pi fold), and the outcome and
  dilated levels of the qutrit channel.

Run it on two source trees back to back and compare the two files key by key::

    PYTHONPATH=old/src python tools/golden.py > old.json
    PYTHONPATH=src python tools/golden.py > new.json
    python tools/golden.py --compare old.json new.json --moves tools/golden_moves.txt

The compare prints each moved key, one per line: ``suites/<suite seed
...>/<check>``, ``reports/<name fmt>``, ``malformed/<name>`` or
``theorem3/<name>``.  A key moves when its entry differs, when it exists
on one side only, or, for a check, when its place in the suite's run
changes.  The moves file lists the expected moves, one ``key<TAB>reason``
line each; the compare exits 1 when a moved key is not listed or a listed
key did not move, so with an empty file it fails on any change, as
``diff`` does.

Timestamps (the ``generated`` metadata line) and per-check times are
dropped, and the scratch directory reads ``<tmp>``, so two runs of the
same code on one host give the same file.  The last bits of BLAS output
can differ between hosts: compare runs made on the same one.  A run
takes about 35 s on a 2-core host, most of it in the suites.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import re
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from coherence_speed import cli
from coherence_speed.avgdist import avg_distance_bruteforce, avg_distance_closed
from coherence_speed.battery import (
    BatteryConfig,
    constant_axis,
    qudit_battery_bound,
    simulate_battery,
    spin_operator,
)
from coherence_speed.channels import (
    KrausChannel,
    apply_kraus,
    dilate,
    equality_gap_analysis,
    qutrit_equality_channel,
    random_channel,
    save_channel,
    theorem3_bound,
)
from coherence_speed.coherence import c_half, c_l1, closest_incoherent
from coherence_speed.dynamics import HamiltonianPath, energy_uncertainty, evolve, instantaneous_speed
from coherence_speed.linalg import (
    OrthogonalDecomposition,
    SpectralHamiltonian,
    hermitianize,
    pure_density,
    random_density,
    random_hermitian,
    random_unitary,
    unitary_exp,
)
from coherence_speed.metrics import fidelity, hellinger
from coherence_speed.verification import SUITES, run_suite

SEEDS = (0, 1, 34, 83)
DIMS = (2, 3, 5)        # verify --dim, each suite at seed 0
NAN, INF = float("nan"), float("inf")
_MARK = "@"         # where a case's non-finite token goes

# the report configs: the CLI defaults and the configs of the CI workflow
REPORTS = {
    "sweep-3-level": ("sweep", {"sweep": {"spectrum": [0.0, 0.7, 1.9], "t_steps": 21}}),
    "sweep-9-level": ("sweep", {"sweep": {"spectrum": list(range(9)), "t_steps": 5}}),
    "sweep-7-level": ("sweep", {"sweep": {"spectrum": [0.0, 0.7, 1.9, 2.6, 3.4, 4.1, 5.3]}}),
    "sweep-density-rank-2": ("sweep", {"sweep": {"spectrum": [0.0, 0.7, 1.9, 2.4],
                                                 "state": {"density_rank": 2}}}),
    # a pure state held as a vector (the pure oracle) and a rank-1 draw held as a matrix
    "sweep-haar": ("sweep", {"sweep": {"spectrum": [0.0, 0.7, 1.9, 2.4], "t_steps": 21,
                                       "state": {"haar": True}}}),
    "sweep-density-rank-1": ("sweep", {"sweep": {"spectrum": [0.0, 0.7, 1.9, 2.4], "t_steps": 21,
                                                 "state": {"density_rank": 1}}}),
    "battery-default": ("battery", None),
    "battery-rotating": ("battery", {"battery": {"axis": "rotating-xy", "state": {
        "amplitudes": [[0.7071067811865476, 0], [0, 0.7071067811865476]]}}}),
    # pulse and axis kinds past the defaults, and a tau that is not 1: the grid
    # and per-point samples of a pulse differ wherever array and libm power do
    "battery-sin4-vector-axis": ("battery", {"battery": {
        "pulse": "sin4", "axis": [0.3, -0.5, 0.8], "tau": 2.5, "dt": 0.02, "state": "plus"}}),
    "battery-parabola-rotating": ("battery", {"battery": {
        "pulse": "parabola", "axis": "rotating-xy", "tau": 2.5, "dt": 0.02, "eta_max": 1.5}}),
    "battery-sin2-tau-2.5": ("battery", {"battery": {"tau": 2.5, "state": "plus"}}),
    "channel-default": ("channel", None),
    "channel-saved": ("channel", {"channel": {"channel": {"path": "@/channel.json"},
                                              "env_dim": 3, "state": "plus"}}),
    "qsl-default": ("qsl", None),
    "qsl-ci": ("qsl", {"qsl": {"spectrum": [0.0, 0.4, 1.7], "t_steps": 21}}),
    "qsl-shifted-1e6": ("qsl", {"qsl": {"spectrum": [1000000.0, 1000000.001]}}),
    "qsl-degenerate-ground": ("qsl", {"qsl": {"spectrum": [0.0, 0.0, 1.0], "state": "ground"}}),
    "qsl-4-level-complex": ("qsl", {"qsl": {"spectrum": [-0.6, 0.2, 0.9, 1.5], "state": {
        "amplitudes": [[0.5, 0.0], [0.0, 0.5], [-0.5, 0.0], [0.3, 0.4]]}}}),
    "qsl-one-step": ("qsl", {"qsl": {"spectrum": [0.0, 0.4, 1.7], "t_steps": 1}}),
    # equal weight per level block, as sweep resolves it
    "qsl-degenerate-maximally-coherent": ("qsl", {"qsl": {"spectrum": [0.0, 0.0, 1.0],
                                                          "state": "maximally-coherent"}}),
    "qsl-2-level-maximally-coherent": ("qsl", {"qsl": {"spectrum": [0.0, 1.0],
                                                       "state": "maximally-coherent"}}),
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


def _densities() -> dict:
    """Malformed 3 x 3 densities, two Hermitian only to within 1e-9 whose
    Hermitian part and lower triangle disagree on positivity, and a pure state."""
    base = np.diag([0.5, 0.3, 0.2]).astype(complex)
    skew = base.copy()
    skew[0, 1] = 1e-3
    nan = base.copy()
    nan[0, 0] = NAN

    def edge(upper, lower):
        rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
        rho[1, 2], rho[2, 1] = upper, lower
        return rho

    return {"skew": skew, "negative-eigenvalue": np.diag([1.05, 0.0, -0.05]),
            "trace-1.5": 1.5 * base, "nan-entry": nan, "non-square": np.ones((3, 2)) / 3.0,
            "edge-upper-8e-10-lower-0": edge(8e-10, 0.0),
            "edge-upper-minus-4e-10-lower-5e-10": edge(-4e-10, 5e-10),
            "pure": pure_density(np.array([0.6, 0.48j, -0.64]))}


def _density_cases() -> dict:
    """Each of _densities through every entry that checks a density, roots it or both."""
    dec = OrthogonalDecomposition.computational(3)
    ham = SpectralHamiltonian.from_spectrum([0.0, 0.7, 1.9])
    chan = random_channel(3, 2, 5)
    dil = dilate(chan)
    h0, drive = np.diag([0.0, 1.0, 2.5]), random_hermitian(3, 4)
    sigma = np.diag([0.5, 0.3, 0.2]).astype(complex)
    entries = {"c_half": lambda rho: c_half(rho, dec),
               "closest_incoherent": lambda rho: closest_incoherent(rho, dec).tolist(),
               "avg_distance_closed": lambda rho: avg_distance_closed(rho, ham, 1.3),
               "avg_distance_bruteforce": lambda rho: avg_distance_bruteforce(rho, ham, 1.3),
               "qudit_battery_bound": lambda rho: qudit_battery_bound(rho, h0, drive, 0.3),
               "theorem3_bound": lambda rho: theorem3_bound(dil, rho),
               "equality_gap_analysis": lambda rho: equality_gap_analysis(chan, rho),
               "c_l1": c_l1,
               "apply_kraus": lambda rho: apply_kraus(chan, rho).tolist(),
               "fidelity": lambda rho: fidelity(rho, sigma),
               "hellinger-first": lambda rho: hellinger(rho, sigma),
               "hellinger-second": lambda rho: hellinger(sigma, rho)}
    return {f"{entry}-{name}": functools.partial(fn, rho)
            for entry, fn in entries.items() for name, rho in _densities().items()}


def _near_band_fidelity() -> float:
    """fidelity of rho with smallest eigenvalue 2.3e-9 and a full-rank sigma, d = 2.

    The first draw of default_rng(27) in test_metrics' near-rank-deficient
    fidelity test: sqrt(rho) sigma sqrt(rho) has an eigenvalue 5.8e-11,
    inside the dead band.
    """
    rng = np.random.default_rng(27)
    rng.integers(2, 5)                  # d = 2
    u = random_unitary(2, rng)
    rng.uniform(size=5)                 # that test's weight draws
    sigma = random_density(2, 2, rng)
    return fidelity(hermitianize((u * np.array([2.3e-9, 1.0 - 2.3e-9])) @ u.conj().T), sigma)


def _spectral_bytes() -> dict:
    """The bytes of unitary_exp(h, 0.7) and h.matrix() for three Hamiltonians, as hex."""
    def exact(h):
        return [unitary_exp(h, 0.7).tobytes().hex(), h.matrix().tobytes().hex()]

    hams = {"3-level": SpectralHamiltonian.from_spectrum([0.0, 0.7, 1.9]),
            "random-4": SpectralHamiltonian.from_matrix(random_hermitian(4, 4)),
            "degenerate-5-in-random-basis": SpectralHamiltonian.from_spectrum(
                [0.0, 1.0, 1.0, 2.5, -0.5], random_unitary(5, 3))}
    return {f"spectral-bytes-{name}": functools.partial(exact, h) for name, h in hams.items()}


def _library_cases():
    """Malformed library calls, each a thunk, and a few exact outputs."""
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

    def sampled(**fields):      # the grid 0, 0.25, ..., 1, with a NaN sample at t = 0.5
        config = replace(BatteryConfig.default(dt=0.25), **fields)
        return simulate_battery(config, [1.0, 0.0]).t.shape

    def spectral(change):       # Theorem 1 for the plus state on a Hamiltonian after change(h)
        h = SpectralHamiltonian.from_spectrum([0.0, 1.0, 2.0])
        h = change(h) or h
        return avg_distance_closed(pure_density(np.ones(3) / np.sqrt(3.0)), h, 0.7)

    def write(h):
        h.eigenvectors[:] = 2.0 * np.eye(3)

    mixed = random_density(3, 2, 7)
    three = SpectralHamiltonian.from_spectrum([0.0, 0.7, 1.9])

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
        "battery-nan-epsilon": lambda: sampled(epsilon=NAN),
        "battery-nan-pulse-sample": lambda: sampled(pulse=lambda t: np.where(t == 0.5, NAN, 0.0)),
        "battery-nan-axis-sample": lambda: sampled(
            drive_axis=lambda t: np.where((t == 0.5)[:, None], NAN, [1.0, 0.0, 0.0])),
        "spin-operator-nan-axis": lambda: spin_operator([NAN, 0.0, 0.0]).tolist(),
        "constant-axis-zero": lambda: constant_axis((0.0, 0.0, 0.0))(0.0).tolist(),
        "constant-axis-nan": lambda: constant_axis((NAN, 0.0, 0.0))(0.0).tolist(),
        "constant-axis-1e200": lambda: constant_axis((1e200, 1e200, 0.0))(0.0).tolist(),
        "fidelity-near-band-seed-27-d-2": _near_band_fidelity,
        "avg-distance-closed-nan-t": lambda: avg_distance_closed(mixed, three, NAN),
        "avg-distance-closed-nan-t-no-brute": lambda: avg_distance_closed(
            mixed, three, NAN, include_brute=False),
        "avg-distance-bruteforce-nan-t": lambda: avg_distance_bruteforce(mixed, three, NAN),
        "avg-distance-bruteforce-infinite-t": lambda: avg_distance_bruteforce(mixed, three, INF),
        "stinespring-nan-duration": lambda: theorem3_bound(
            replace(dilate(random_channel(2, 2, 0)), duration=NAN), random_density(2, 2, 0)),
        "qudit-battery-nan-dt": lambda: qudit_battery_bound(
            pure_density(np.ones(3) / np.sqrt(3.0)), np.diag([0.0, 1.0, 2.5]),
            random_hermitian(3, 4), NAN),
        "spectral-raw-constructor-2I": lambda: spectral(lambda h: SpectralHamiltonian(
            np.array([0.0, 1.0, 2.0]), 2.0 * np.eye(3, dtype=complex),
            np.array([0.0, 1.0, 2.0]), np.arange(3))),
        "spectral-eigenvectors-written": lambda: spectral(write),
        "spectral-eigenvalues-reassigned": lambda: spectral(
            lambda h: setattr(h, "eigenvalues", np.array([0.0, 0.0, 2.0]))),
        **_spectral_bytes(),
        **_density_cases(),
    }


def _theorem3_cases() -> dict:
    """Direct theorem3_bound calls, each a thunk giving (lhs, rhs) as float.hex."""
    def bound(channel, env_dim, rho):
        return tuple(float(x).hex() for x in theorem3_bound(dilate(channel, env_dim), rho))

    cases = {}
    for dim in (2, 3):
        for seed in (0, 1, 2):
            rank = 1 + seed % dim
            for env_dim in (2, 3):
                cases[f"random_channel({dim}, 2, {seed}) env_dim {env_dim} rank {rank}"] = (
                    functools.partial(bound, random_channel(dim, 2, seed), env_dim,
                                      random_density(dim, rank, seed)))
    v = random_unitary(3, 0)
    minus_one = KrausChannel(((v * np.array([-1.0, -1.0, 1.0])) @ v.conj().T,))
    cases["unitary with eigenvalues -1, -1, 1"] = functools.partial(
        bound, minus_one, None, random_density(3, 2, 0))
    qutrit = qutrit_equality_channel()
    cases["qutrit-equality"] = functools.partial(bound, qutrit, None,
                                                 pure_density([1.0, 0.0, 0.0]))
    cases["qutrit-equality levels"] = lambda: [float(x).hex() for x in dilate(qutrit).levels]
    return cases


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


def _results(suite: str, **kwargs) -> list[dict]:
    return [{"check": r.name, "passed": bool(r.passed), "trials": int(r.trials),
             "detail": r.detail, "worst": float(r.worst).hex(), "tol": float(r.tol).hex()}
            for r in run_suite(suite, **kwargs)]


def suites() -> dict:
    out = {f"{suite} seed {seed}": _results(suite, seed=seed)
           for suite in sorted(SUITES) for seed in SEEDS}
    out.update({f"{suite} seed 0 dim {dim}": _results(suite, seed=0, dim=dim)
                for suite in sorted(SUITES) for dim in DIMS})
    return out


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


def keyed(doc: dict) -> dict[str, str]:
    """Each harness key of a golden document and its entry as canonical JSON text; a check's
    entry holds its place in its suite's run, so a reorder moves it."""
    out = {}
    for group, entries in doc.items():
        for name, value in entries.items():
            if group == "suites":
                pairs = [(f"{group}/{name}/{result['check']}", [place, result])
                         for place, result in enumerate(value)]
            else:
                pairs = [(f"{group}/{name}", value)]
            for key, entry in pairs:
                if key in out:
                    raise ValueError(f"harness key {key} appears twice")
                out[key] = json.dumps(entry, sort_keys=True)
    return out


def compare(old: Path, new: Path, moves: Path) -> int:
    """Print each moved key of two golden files, one per line; 1 when a moved key is not
    listed in moves (one key<TAB>reason line per move) or a listed key did not move."""
    before, after = (keyed(json.loads(path.read_text())) for path in (old, new))
    moved = sorted(key for key in before.keys() | after.keys()
                   if before.get(key) != after.get(key))
    listed = set()
    for line in filter(str.strip, moves.read_text().splitlines()):
        key, tab, reason = line.partition("\t")
        if not tab or not reason.strip():
            print(f"{moves}: not a key<TAB>reason line: {line!r}", file=sys.stderr)
            return 1
        listed.add(key)
    for key in moved:
        print(key)
    unlisted, unmoved = [key for key in moved if key not in listed], sorted(listed - set(moved))
    for key in unlisted:
        print(f"moved, not listed in {moves}: {key}", file=sys.stderr)
    for key in unmoved:
        print(f"listed in {moves}, did not move: {key}", file=sys.stderr)
    return 1 if unlisted or unmoved else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write the golden harness JSON to stdout, "
                                     "or compare two such files key by key.")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    parser.add_argument("--moves", type=Path, help="expected moves, one key<TAB>reason a line")
    args = parser.parse_args(argv)
    if args.compare:
        if args.moves is None:
            parser.error("--compare needs --moves")
        return compare(*args.compare, args.moves)
    with tempfile.TemporaryDirectory() as scratch:
        tmp = Path(scratch)
        doc = {"reports": reports(tmp), "malformed": malformed(tmp), "suites": suites(),
               "theorem3": {name: _call(thunk) for name, thunk in _theorem3_cases().items()}}
    json.dump(doc, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
