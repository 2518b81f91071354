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

``simulate_battery`` samples eta(t_k), V(t_k) and H(t_k) once per grid
point and runs the whole protocol on the (N+1, 2) state vectors of the
trajectory, which is pure by construction, so it forms no density matrix
and no square root.  The trajectory comes from the stacked propagator of
``dynamics.evolve``, whose eigendecomposition (w, U) of H(t_k) = H_1 also
serves the plus branch; one stacked ``eigh`` gives the minus branch and
one the drive basis.  A branch moves psi to phi = U (exp(-i w dt) * U† psi)
and extracts eps (|psi_1|^2 - |phi_1|^2).  With a = V† psi in the drive
basis, c_half_V = 1 - sum_m |a_m|^4 / ||psi||^2, since
sqrt(rho) = rho / ||psi|| for rho = psi psi†.  The run comes back as
columns, a ``BatteryRun``.  The single-step functions below
(``avg_extracted_work``, ``drive_coherence``, ``work_bound``) compute
each row on its own from the density matrix, through U rho U† and the
square root inside ``c_half``, and serve as its oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .avgdist import _closed_form, _orbit_mean
from .coherence import c_half
from .dynamics import _propagate
from .errors import DimensionMismatch, InvalidState, WindowTooWide
from .linalg import (
    TOL_NORM,
    TOL_ZERO,
    SpectralHamiltonian,
    _eigenbasis_operators,
    dagger,
    hermitian_eig,
    hermitianize,
    require_hermitian,
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
    """n.sigma for a unit 3-vector n (eigenvalues exactly +-1).

    A stack of axes (k, 3) gives the stack (k, 2, 2); every axis must
    be unit length.
    """
    n = np.asarray(axis, dtype=float)
    if n.ndim not in (1, 2) or n.shape[-1] != 3:
        raise InvalidState("axis must be a 3-vector or a stack (k, 3) of them")
    nrm = np.linalg.norm(n, axis=-1)
    off = np.abs(nrm - 1.0) > TOL_NORM
    if off.any():
        raise InvalidState(f"axis norm {float(nrm[off].flat[0])!r} differs from 1")
    return (n[..., 0, None, None] * _SIGMA[0] + n[..., 1, None, None] * _SIGMA[1]
            + n[..., 2, None, None] * _SIGMA[2])


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

    pulse must vanish at t = 0 and t = tau (checked to TOL_ZERO by
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


def _stacked_branch_work(psi: np.ndarray, epsilon: float, w: np.ndarray,
                         vecs: np.ndarray, dt: float) -> np.ndarray:
    """_branch_work at every grid point from the states psi (k, 2) and branch eigendata.

    Only the |1> amplitude of phi = U (exp(-i w dt) * U† psi) enters
    Tr[|1><1| (rho - rho_next)] = |psi_1|^2 - |phi_1|^2.
    """
    a = np.einsum("kji,kj->ki", vecs.conj(), psi)
    phi1 = np.einsum("kj,kj->k", vecs[:, 1, :], np.exp(-1j * w * dt) * a)
    return epsilon * (np.abs(psi[:, 1]) ** 2 - np.abs(phi1) ** 2)


@dataclass(frozen=True)
class BatteryRun:
    """A battery protocol as columns, one read-only float array per grid quantity."""

    t: np.ndarray
    pulse_value: np.ndarray
    avg_work: np.ndarray
    bound: np.ndarray
    coherence: np.ndarray
    cumulative_work: np.ndarray

    def __post_init__(self) -> None:
        for f in fields(self):
            getattr(self, f.name).flags.writeable = False


def simulate_battery(config: BatteryConfig, psi0) -> BatteryRun:
    """Evolve psi0 under H(t) = eps |1><1| + eta(t) V(t) and record work/bound columns.

    The trajectory uses the piecewise-constant exponential on the
    uniform grid 0..tau step dt; each row reports the branch-averaged
    work over [t, t + dt], its coherence ceiling, and the running sum.
    ValueError unless tau and dt are finite and positive.
    """
    for name, value in (("tau", config.tau), ("dt", config.dt)):
        if not 0 < value < np.inf:
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    psi0 = validate_state_vector(psi0)
    if len(psi0) != 2:
        raise InvalidState("battery protocol is a qubit model")
    for edge in (0.0, config.tau):
        if abs(config.pulse(edge)) > TOL_ZERO:
            raise InvalidState(f"pulse must vanish at t = {edge}")
    steps = max(1, int(round(config.tau / config.dt)))
    times = np.linspace(0.0, config.tau, steps + 1)
    etas = np.array([float(config.pulse(t)) for t in times])
    drive = spin_operator([config.drive_axis(t) for t in times])
    h0 = config.epsilon * _P1
    psi, w, vecs = _propagate(psi0, times, require_hermitian(h0 + etas[:, None, None] * drive))
    w_minus, vecs_minus = hermitian_eig(h0 - etas[:, None, None] * drive)
    work = 0.5 * (_stacked_branch_work(psi, config.epsilon, w, vecs, config.dt)
                  + _stacked_branch_work(psi, config.epsilon, w_minus, vecs_minus, config.dt))
    # |a_m|^2 in the drive basis; their sum is ||psi||^2
    a2 = np.abs(np.einsum("kji,kj->ki", hermitian_eig(drive)[1].conj(), psi)) ** 2
    coh = np.maximum(0.0, 1.0 - (a2 * a2).sum(axis=1) / a2.sum(axis=1))
    bound = 2.0 * config.epsilon * np.sin(etas * config.dt) * np.sqrt(coh)
    return BatteryRun(times, etas, work, bound, coh, np.cumsum(work))


def qudit_battery_bound(rho, h0, v, dt: float) -> tuple[float, float]:
    """Permutation-orbit average work and its ceiling for a d-level battery.

    The drive's distinct levels are reassigned to its eigenspaces in
    every order; each member evolves rho under H0 + V_s for a window
    dt.  Returns (avg_work, bound) with

        bound = ||H0||_F sqrt(2 (1 - B_V(dt)) c_half_V(rho)),

    which reduces to the qubit form for V with spectrum +-1.  Stated
    for pure rho (the trajectory states of the protocol).  h0 and v
    must be Hermitian (NotHermitian otherwise) and share rho's
    dimension (DimensionMismatch otherwise).
    """
    rho = validate_density(rho)
    h0 = hermitianize(require_hermitian(h0))
    ham_v = SpectralHamiltonian.from_matrix(v)
    if not len(h0) == ham_v.dim == len(rho):
        raise DimensionMismatch(f"h0, v and rho have dimensions {len(h0)}, "
                                f"{ham_v.dim} and {len(rho)}")

    def works(lam):
        w, vecs = hermitian_eig(h0 + _eigenbasis_operators(ham_v, lam))     # h0 + V_s
        u = (vecs * np.exp(-1j * w * dt)[:, None, :]) @ dagger(vecs)
        return np.trace(h0 @ (rho - u @ rho @ dagger(u)), axis1=-2, axis2=-1).real

    avg = _orbit_mean(ham_v, lambda lam: lam, works)
    sbar = _closed_form(rho, ham_v, dt)[2]
    return avg, float(np.linalg.norm(h0) * np.sqrt(max(0.0, sbar)))
