"""Work extraction from a driven qubit and its coherence ceiling.

A battery qubit with storage Hamiltonian H0 = eps |1><1| is driven
through a pulsed interaction eta(t) V(t), where V(t) = n(t).sigma has
eigenvalues +-1 and eta vanishes at both ends of the protocol.  Because
the sign of the drive is unknowable a priori, the extractable work over
a short window dt is averaged over the two drive branches

    H_(1,2)(t) = eps |1><1| +- eta(t) V(t),

    wbar(t) = (1/2) Tr[ eps |1><1| ((rho_t - rho_1) + (rho_t - rho_2)) ].

The branch average is controlled by the coherence of rho_t in the
instantaneous drive eigenbasis:

    |wbar(t)| <= 2 eps sin(eta(t) dt) sqrt(c_half_V(rho_t)).

A diagonal state in that basis therefore yields no branch-averaged
work, whatever the pulse does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .avgdist import BRUTE_FORCE_CAP, b_coefficient
from .coherence import c_half
from .dynamics import HamiltonianPath, evolve
from .errors import InvalidState, TooManyLevels, WindowTooWide
from .linalg import (
    SpectralHamiltonian,
    dagger,
    hermitian_eig,
    hermitianize,
    kahan_mean,
    orbit_operators,
    unitary_exp,
    validate_density,
    validate_state_vector,
)

_SIGMA = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

_P1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def spin_operator(axis) -> np.ndarray:
    """n.sigma for a unit 3-vector n (eigenvalues exactly +-1)."""
    n = np.asarray(axis, dtype=float).reshape(-1)
    if n.shape != (3,):
        raise InvalidState("axis must be a 3-vector")
    nrm = float(np.linalg.norm(n))
    if abs(nrm - 1.0) > 1e-9:
        raise InvalidState(f"axis norm {nrm!r} differs from 1")
    return n[0] * _SIGMA[0] + n[1] * _SIGMA[1] + n[2] * _SIGMA[2]


def sin2_pulse(eta_max: float, tau: float) -> Callable[[float], float]:
    """eta(t) = eta_max sin^2(pi t / tau)."""
    return lambda t: eta_max * np.sin(np.pi * t / tau) ** 2


def sin4_pulse(eta_max: float, tau: float) -> Callable[[float], float]:
    """eta(t) = eta_max sin^4(pi t / tau)."""
    return lambda t: eta_max * np.sin(np.pi * t / tau) ** 4


def parabola_pulse(eta_max: float, tau: float) -> Callable[[float], float]:
    """eta(t) = eta_max 4 t (tau - t) / tau^2."""
    return lambda t: eta_max * 4.0 * t * (tau - t) / (tau * tau)


def constant_axis(n) -> Callable[[float], np.ndarray]:
    v = np.asarray(n, dtype=float) / np.linalg.norm(n)
    return lambda t: v


def rotating_axis(period: float) -> Callable[[float], np.ndarray]:
    """Axis sweeping the x-y plane once per period."""
    def axis(t: float) -> np.ndarray:
        phi = 2.0 * np.pi * t / period
        return np.array([np.cos(phi), np.sin(phi), 0.0])
    return axis


@dataclass
class BatteryConfig:
    """Protocol parameters: storage gap, pulse, drive axis, and grid step.

    pulse must vanish at t = 0 and t = tau (checked to 1e-12 by
    simulate_battery); the drive axis must stay unit length.
    """

    epsilon: float
    tau: float
    dt: float
    pulse: Callable[[float], float]
    drive_axis: Callable[[float], np.ndarray]

    @classmethod
    def default(cls, epsilon: float = 1.0, tau: float = 1.0, dt: float = 1e-3,
                eta_max: float = 1.0) -> "BatteryConfig":
        return cls(epsilon=epsilon, tau=tau, dt=dt,
                   pulse=sin2_pulse(eta_max, tau),
                   drive_axis=constant_axis((1.0, 0.0, 0.0)))


@dataclass(frozen=True)
class WorkRecord:
    """One grid point of a battery protocol."""

    t: float
    pulse_value: float
    avg_work: float
    bound: float
    coherence: float
    cumulative_work: float


def _branch_work(rho, epsilon: float, h_branch: np.ndarray, dt: float) -> float:
    """Energy drop Tr[eps |1><1| (rho - U rho U†)] for one branch."""
    ham = SpectralHamiltonian.from_matrix(h_branch)
    u = unitary_exp(ham, dt)
    rho_next = u @ rho @ u.conj().T
    return float(epsilon * np.trace(_P1 @ (rho - rho_next)).real)


def avg_extracted_work(rho_t, epsilon: float, eta_t: float, v_t: np.ndarray,
                       dt: float) -> float:
    """Two-branch average work over the window [t, t + dt].

    Branches evolve under eps |1><1| + eta V and eps |1><1| - eta V,
    the two members of the drive's level-permutation family.
    """
    rho_t = validate_density(rho_t)
    h0 = epsilon * _P1
    w_plus = _branch_work(rho_t, epsilon, h0 + eta_t * v_t, dt)
    w_minus = _branch_work(rho_t, epsilon, h0 - eta_t * v_t, dt)
    return 0.5 * (w_plus + w_minus)


def drive_coherence(rho_t, v_t: np.ndarray) -> float:
    """c_half of the state in the instantaneous drive eigenbasis."""
    decomp = SpectralHamiltonian.from_matrix(v_t).decomposition
    return c_half(rho_t, decomp)


def work_bound(rho_t, epsilon: float, eta_t: float, v_t: np.ndarray,
               dt: float) -> float:
    """Ceiling 2 eps sin(eta dt) sqrt(c_half_V(rho)) on the branch-averaged work.

    Valid while eta * dt stays in [0, pi/2] (monotone sine window).
    """
    x = eta_t * dt
    if x > np.pi / 2.0:
        raise WindowTooWide(f"eta * dt = {x:.3g} exceeds pi/2")
    return float(2.0 * epsilon * np.sin(x) * np.sqrt(drive_coherence(rho_t, v_t)))


def simulate_battery(config: BatteryConfig, psi0) -> list[WorkRecord]:
    """Evolve psi0 under H(t) = eps |1><1| + eta(t) V(t) and record work/bound rows.

    The trajectory uses the piecewise-constant exponential on the
    uniform grid 0..tau step dt; each row reports the branch-averaged
    work over [t, t + dt], its coherence ceiling, and the running sum.
    """
    psi0 = validate_state_vector(psi0)
    if len(psi0) != 2:
        raise InvalidState("battery protocol is a qubit model")
    for edge in (0.0, config.tau):
        if abs(config.pulse(edge)) > 1e-12:
            raise InvalidState(f"pulse must vanish at t = {edge}")
    steps = max(1, int(round(config.tau / config.dt)))
    times = np.linspace(0.0, config.tau, steps + 1)

    def sampler(t: float) -> np.ndarray:
        v = spin_operator(config.drive_axis(t))
        return config.epsilon * _P1 + config.pulse(t) * v

    path = HamiltonianPath(times=times, sampler=sampler)
    traj = evolve(psi0, path)
    records: list[WorkRecord] = []
    cumulative = 0.0
    for k, t in enumerate(times):
        rho = np.outer(traj.states[k], traj.states[k].conj())
        eta = float(config.pulse(t))
        v = spin_operator(config.drive_axis(t))
        work = avg_extracted_work(rho, config.epsilon, eta, v, config.dt)
        coh = drive_coherence(rho, v)
        bound = float(2.0 * config.epsilon * np.sin(eta * config.dt) * np.sqrt(coh))
        cumulative += work
        records.append(WorkRecord(t=float(t), pulse_value=eta, avg_work=work,
                                  bound=bound, coherence=coh,
                                  cumulative_work=cumulative))
    return records


def qudit_battery_bound(rho, h0, v, dt: float,
                        *, cap: int = BRUTE_FORCE_CAP) -> tuple[float, float]:
    """Permutation-orbit average work and its ceiling for a d-level battery.

    The drive's distinct levels are reassigned to its eigenspaces in
    every order; each member evolves rho under H0 + V_s for a window
    dt.  Returns (avg_work, bound) with

        bound = ||H0||_F sqrt(2 (1 - B_V(dt)) c_half_V(rho)),

    which reduces to the qubit form for V with spectrum +-1.  Stated
    for pure rho (the trajectory states of the protocol).
    """
    rho = validate_density(rho)
    h0 = hermitianize(np.asarray(h0, dtype=complex))
    ham_v = SpectralHamiltonian.from_matrix(np.asarray(v, dtype=complex))
    m_count = ham_v.level_count
    if m_count > cap:
        raise TooManyLevels(f"{m_count} drive levels exceed cap {cap}")
    coh = c_half(rho, ham_v.decomposition)
    if m_count == 1:
        coef = 1.0
    else:
        coef = b_coefficient(ham_v.levels, dt)
    bound = float(np.linalg.norm(h0) * np.sqrt(max(0.0, 2.0 * (1.0 - coef) * coh)))
    works = []
    for v_s in orbit_operators(ham_v, lambda lam: lam):
        w, vecs = hermitian_eig(h0 + v_s)
        u = (vecs * np.exp(-1j * w * dt)[:, None, :]) @ dagger(vecs)
        rho_next = u @ rho @ dagger(u)
        works.append(np.trace(h0 @ (rho - rho_next), axis1=-2, axis2=-1).real)
    avg = kahan_mean(np.concatenate(works).tolist())
    return avg, bound
