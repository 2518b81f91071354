"""Output checks computed apart from the program under test.

Nothing here imports ``coherence_speed``: every reference value is built
from the benchmark's own numpy/scipy code or is a property the method
must have.  Each ``check_*`` function raises ``CheckFailed`` with a
short reason, or returns None when the output is right.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import scipy.linalg

SQRT2 = float(np.sqrt(2.0))
_P1 = np.diag([0.0, 1.0]).astype(complex)
_SIGMA = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


class CheckFailed(Exception):
    """A program output disagrees with its reference or property."""


def _close(name: str, got, want, tol: float, relative: bool = False) -> None:
    """|got - want| <= tol, or <= tol * max(1, |want|) when relative."""
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    if relative:
        err /= max(1.0, float(np.max(np.abs(want))))
    if not err <= tol:
        raise CheckFailed(f"{name}: off by {err:.3e} (tol {tol:.0e})")


# ---------------------------------------------------------------------------
# reference computations
# ---------------------------------------------------------------------------

def pair_cos_mean(levels, t: float) -> float:
    """B(t) = 2 / (M (M - 1)) * sum_{m<n} cos((l_m - l_n) t) over distinct levels."""
    lam = np.asarray(levels, dtype=float)
    m = len(lam)
    total = sum(np.cos((lam[a] - lam[b]) * t) for a, b in itertools.combinations(range(m), 2))
    return float(2.0 * total / (m * (m - 1)))


def sqrt_psd(rho, pure: bool = False) -> np.ndarray:
    """Square root of a density matrix: itself when pure, else scipy's sqrtm."""
    if pure:
        return np.asarray(rho, dtype=complex)
    return np.asarray(scipy.linalg.sqrtm(rho), dtype=complex)


def hellinger_ref(sqrt_a, sqrt_b) -> float:
    return float(2.0 * (1.0 - np.trace(sqrt_a @ sqrt_b).real))


def projectors(basis: np.ndarray, groups) -> list[np.ndarray]:
    return [basis[:, g] @ basis[:, g].conj().T for g in groups]


def spectral_levels(h: np.ndarray, tol: float = 1e-9):
    """Distinct eigenvalues of a Hermitian matrix and their eigenprojectors."""
    w, v = np.linalg.eigh(h)
    cuts = np.flatnonzero(np.diff(w) > tol) + 1
    groups = np.split(np.arange(len(w)), cuts)
    return np.array([w[g].mean() for g in groups]), projectors(v, groups)


def orbit_average_ref(rho, sqrt_rho, levels, projs, t: float) -> float:
    """Permutation average of D(rho, U_s rho U_s†), each U_s from expm, each root from sqrtm."""
    terms = []
    for s in itertools.permutations(range(len(levels))):
        h_s = sum(levels[m] * projs[b] for m, b in enumerate(s))
        u = scipy.linalg.expm(-1j * t * h_s)
        sigma = u @ rho @ u.conj().T
        terms.append(hellinger_ref(sqrt_rho, sqrt_psd((sigma + sigma.conj().T) / 2)))
    return float(np.mean(terms))


def trace_env(joint: np.ndarray, d_sys: int, d_env: int) -> np.ndarray:
    return np.einsum("ijkj->ik", joint.reshape(d_sys, d_env, d_sys, d_env))


def kraus_apply(ops, rho) -> np.ndarray:
    return sum(k @ rho @ k.conj().T for k in ops)


def spin(axis) -> np.ndarray:
    return sum(a * s for a, s in zip(axis, _SIGMA))


def battery_work_ref(times, dt: float, epsilon: float, eta, axis, psi0) -> float:
    """Summed branch-averaged work along a piecewise-expm trajectory on the given grid."""
    h0 = epsilon * _P1
    psi = np.asarray(psi0, dtype=complex)
    total = 0.0
    for k, t in enumerate(times):
        rho = np.outer(psi, psi.conj())
        v = eta(t) * spin(axis(t))
        for sign in (1.0, -1.0):
            u = scipy.linalg.expm(-1j * dt * (h0 + sign * v))
            total += 0.5 * epsilon * np.trace(_P1 @ (rho - u @ rho @ u.conj().T)).real
        if k + 1 < len(times):
            psi = scipy.linalg.expm(-1j * (times[k + 1] - t) * (h0 + v)) @ psi
    return float(total)


def expm_product(h_of_t, times, psi0) -> np.ndarray:
    """Left-point piecewise-constant propagation with scipy's expm."""
    psi = np.asarray(psi0, dtype=complex)
    for k in range(len(times) - 1):
        psi = scipy.linalg.expm(-1j * (times[k + 1] - times[k]) * h_of_t(times[k])) @ psi
    return psi


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------

def report_body(text: str) -> str:
    """Report text without its metadata: '#' lines (CSV) or the metadata object (JSON)."""
    if text.lstrip().startswith("{"):
        at = text.find('\n  "rows": ')
        if at < 0:
            raise CheckFailed("JSON report has no rows")
        return text[at:]
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("#"))


def csv_rows(text: str) -> list[dict]:
    lines = report_body(text).splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(_cell, line.split(",")))) for line in lines[1:]]


def json_rows(text: str) -> list[dict]:
    return json.loads(text)["rows"]


def _cell(text: str):
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def check_same_body(first: str, second: str) -> None:
    if report_body(first) != report_body(second):
        raise CheckFailed("report body differs between two invocations")


def check_verify(stdout: str, report: str) -> None:
    """Every printed check PASS, every report row passed."""
    lines = [ln for ln in stdout.splitlines() if ln.startswith(("PASS", "FAIL"))]
    if not lines:
        raise CheckFailed("no check lines printed")
    bad = [ln.split(":")[0] for ln in lines if not ln.startswith("PASS")]
    if bad:
        raise CheckFailed("failed checks: " + ", ".join(bad))
    rows = csv_rows(report)
    if len(rows) != len(lines) or not all(r["passed"] is True for r in rows):
        raise CheckFailed("report rows disagree with the printed PASS lines")


def check_sweep(rows: list[dict], levels) -> None:
    """sbar_brute and sbar_closed equal 2 (1 - B(t)) (1 - 1/M) for a maximally coherent state."""
    m = len(levels)
    if not rows:
        raise CheckFailed("sweep report has no rows")
    for row in rows:
        want = 2.0 * (1.0 - pair_cos_mean(levels, row["t"])) * (1.0 - 1.0 / m)
        _close(f"sbar_brute at t={row['t']:.4g}", row["sbar_brute"], want, 1e-9)
        _close(f"sbar_closed at t={row['t']:.4g}", row["sbar_closed"], want, 1e-9)


def check_channel(rows: list[dict]) -> None:
    if len(rows) != 1 or "avg_channel_distance" not in rows[0]:
        raise CheckFailed("channel report lacks the bound columns")
    row = rows[0]
    if not row["avg_channel_distance"] <= row["coherence_ceiling"] + 1e-9:
        raise CheckFailed("averaged channel distance exceeds the coherence ceiling")
    if not row["system_distance"] <= row["dilated_distance"] + 1e-10:
        raise CheckFailed("system distance exceeds the dilated distance")


def check_battery(rows: list[dict], reference_work: float) -> None:
    """Each row within its ceiling, running sum exact, final work equal to the expm integration."""
    running = 0.0
    for row in rows:
        if not abs(row["avg_work"]) <= row["bound"] + 1e-9:
            raise CheckFailed(f"work {row['avg_work']:.3e} exceeds bound {row['bound']:.3e} "
                              f"at t={row['t']:.4g}")
        running += row["avg_work"]
        _close(f"cumulative_work at t={row['t']:.4g}", row["cumulative_work"], running, 1e-12)
    _close("final cumulative work vs expm integration", rows[-1]["cumulative_work"],
           reference_work, 1e-9)


def check_qsl_report(rows: list[dict]) -> None:
    """Spectrum [0, 1] with the plus state: both minimum times equal t, the angle t/2."""
    if not rows:
        raise CheckFailed("qsl report has no rows")
    for row in rows:
        t = row["t"]
        _close(f"mt_time at t={t:.4g}", row["mt_time"], t, 1e-12)
        _close(f"ml_time at t={t:.4g}", row["ml_time"], t, 1e-12)
        _close(f"bures_angle at t={t:.4g}", row["bures_angle"], t / 2.0, 1e-12)


# ---------------------------------------------------------------------------
# library calls
# ---------------------------------------------------------------------------

def check_avg_distance(res, case: dict) -> None:
    """Pure states: the exact closed value.  Mixed: brute force equals closed form,
    and the sampled ones equal an expm/sqrtm permutation sum."""
    levels, projs, rho, t = case["levels"], case["projs"], case["rho"], case["t"]
    coef = pair_cos_mean(levels, t)
    _close("coefficient", res.coefficient, coef, 1e-12)
    if case["rank"] == 1:
        psi = case["psi"]
        r = np.array([np.vdot(psi, p @ psi).real for p in projs])
        want = 2.0 * (1.0 - coef) * (1.0 - float(r @ r))
        _close("closed form vs 2(1-B)(1-sum r^2)", res.closed_form, want, 1e-9)
        _close("brute force vs 2(1-B)(1-sum r^2)", res.brute_force, want, 1e-9)
        return
    _close("brute force vs closed form", res.brute_force, res.closed_form, 1e-9)
    if case["reference"]:
        want = orbit_average_ref(rho, sqrt_psd(rho), levels, projs, t)
        _close("brute force vs expm/sqrtm permutation sum", res.brute_force, want, 1e-9)


def check_theorem3(out, case: dict) -> None:
    """Dilation reproduces the Kraus map; lhs <= rhs; both equal expm/sqrtm references."""
    dilation, (lhs, rhs) = out
    ops, rho, pure = case["kraus"], case["rho"], case["rank"] == 1
    h = dilation.hamiltonian.matrix()
    d_env = dilation.env_dim
    env0 = np.zeros((d_env, d_env), dtype=complex)
    env0[0, 0] = 1.0
    joint = np.kron(rho, env0)
    u = scipy.linalg.expm(-1j * h)
    _close("dilated channel vs Kraus action", trace_env(u @ joint @ u.conj().T, 2, d_env),
           kraus_apply(ops, rho), 1e-10)
    if not lhs <= rhs + 1e-9:
        raise CheckFailed(f"channel average {lhs:.6g} exceeds ceiling {rhs:.6g}")
    levels, projs = spectral_levels(h)
    sqrt_rho = sqrt_psd(rho, pure)
    sqrt_joint = np.kron(sqrt_rho, env0)
    coh = 1.0 - sum(np.trace(np.linalg.matrix_power(p @ sqrt_joint @ p, 2)).real for p in projs)
    _close("ceiling vs 2(1-B)c_half", rhs, 2.0 * (1.0 - pair_cos_mean(levels, 1.0)) * coh, 1e-10)
    terms = []
    for s in itertools.permutations(range(len(levels))):
        u_s = scipy.linalg.expm(-1j * sum(levels[m] * projs[b] for m, b in enumerate(s)))
        out_s = trace_env(u_s @ joint @ u_s.conj().T, 2, d_env)
        terms.append(hellinger_ref(sqrt_rho, sqrt_psd((out_s + out_s.conj().T) / 2)))
    _close("channel average vs expm/sqrtm permutation sum", lhs, float(np.mean(terms)), 1e-9)


def check_evolve(traj, case: dict) -> None:
    """End state equals an expm product; speeds equal sqrt(2) times the energy spread."""
    times = np.asarray(traj.times)
    if len(times) != case["steps"] + 1:
        raise CheckFailed(f"grid has {len(times)} points, expected {case['steps'] + 1}")
    want = expm_product(case["h_of_t"], times, case["psi0"])
    _close("end state vs expm product", traj.states[-1], want, 1e-10)
    _close("speeds vs sqrt(2) * uncertainties", traj.speeds, SQRT2 * np.asarray(traj.uncertainties),
           1e-10)


def check_c_half(value, case: dict) -> None:
    projs = case["projs"]
    if case["rank"] == 1:
        psi = case["psi"]
        r = np.array([np.vdot(psi, p @ psi).real for p in projs])
        _close("c_half vs 1 - sum r^2", value, 1.0 - float(r @ r), 1e-10)
        return
    s = case["sqrt_rho"]
    want = 1.0 - sum(np.trace(np.linalg.matrix_power(p @ s @ p, 2)).real for p in projs)
    _close("c_half vs sqrtm evaluation", value, want, 1e-10)


def check_closest_incoherent(sigma, case: dict) -> None:
    """sigma* = sum_m (P_m sqrt(rho) P_m)^2 / N.  The program drops blocks whose weight is
    below 1e-10, as documented, which moves sigma* by up to M * 1e-10."""
    s = case["sqrt_rho"]
    blocks = [p @ s @ p for p in case["projs"]]
    acc = sum(b @ b for b in blocks)
    _close("closest incoherent state", sigma, acc / np.trace(acc).real, 1e-9)


def check_hellinger(value, case: dict) -> None:
    _close("hellinger vs 2(1 - Tr sqrt(rho) sqrt(sigma))", value,
           hellinger_ref(case["sqrt_rho"], case["sqrt_sigma"]), 1e-10)


def check_qsl_bounds(b, case: dict) -> None:
    psi0, psi1, lam, basis = case["psi0"], case["psi1"], case["levels"], case["basis"]
    angle = min(float(np.arccos(min(1.0, abs(np.vdot(psi0, psi1))))), np.pi / 2)
    amp = np.abs(basis.conj().T @ psi0) ** 2
    mean = float(amp @ lam)
    spread = float(np.sqrt(amp @ (lam - mean) ** 2))
    _close("bures_angle", b.bures_angle, angle, 1e-9)
    _close("energy_stddev", b.energy_stddev, spread, 1e-10)
    _close("mean_energy", b.mean_energy, mean - lam.min(), 1e-10)
    _close("mt_time", b.mt_time, angle / spread, 1e-9, relative=True)
    _close("ml_time", b.ml_time, angle / (mean - lam.min()), 1e-9, relative=True)


def check_hellinger_dead_band(values, eps) -> None:
    """hellinger(diag(1-e, e), diag(e, 1-e)) = 2 (1 - 2 sqrt(e (1 - e)))."""
    for e, got in zip(eps, values):
        _close(f"hellinger at e={e:.0e}", got, 2.0 * (1.0 - 2.0 * np.sqrt(e * (1.0 - e))), 1e-9)
