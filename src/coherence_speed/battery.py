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

``simulate_battery`` calls the pulse and the drive axis once each, on
the whole (N+1,) grid of times: a pulse returns (N+1,) values or one
value for every point, an axis (N+1, 3) unit vectors or one 3-vector,
a fixed axis.  The package's pulses and axes take a time or an array of
times and give the same bits either way.  The whole protocol then runs
on the (N+1, 2) state vectors of the trajectory, which is pure by
construction, so it forms no density matrix and no square root.  The
trajectory comes from the stacked propagator of ``dynamics.evolve``,
whose eigendecomposition (w, U) of H(t_k) = H_1 also serves the plus
branch; one stacked ``eigh`` gives the minus branch, and the drive basis
comes from one ``eigh`` for a fixed axis or one stacked ``eigh`` per
grid otherwise.  A branch moves psi to phi = U (exp(-i w dt) * U† psi)
and extracts eps (|psi_1|^2 - |phi_1|^2).  With a = V† psi in the drive
basis, c_half_V = 1 - sum_m |a_m|^4 / ||psi||^2, since
sqrt(rho) = rho / ||psi|| for rho = psi psi†.  The run comes back as
columns, a ``BatteryRun``.  The single-step functions below
(``avg_extracted_work``, ``drive_coherence``, ``work_bound``) compute
each row on its own from the density matrix, through U rho U† and the
square root inside ``c_half``, and serve as its oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .avgdist import _closed_forms, _orbit_means
from .coherence import c_half
from .dynamics import _propagate
from .errors import DimensionMismatch, InvalidState, WindowTooWide
from .linalg import (
    TOL_NORM,
    TOL_ZERO,
    SpectralHamiltonian,
    _Density,
    _array,
    _eigenbasis_operators,
    _phases,
    _read_only,
    _require_finite,
    _square,
    _trusted,
    dagger,
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
    be finite and unit length (InvalidState otherwise).
    """
    n = _array(axis, float)
    if n.ndim not in (1, 2) or n.shape[-1] != 3:
        raise InvalidState("axis must be a 3-vector or a stack (k, 3) of them")
    nrm = np.linalg.norm(n, axis=-1)
    if np.isnan(nrm).any():         # a NaN entry; NaN fails the `>` test below
        raise InvalidState("axis entries are not all finite")
    off = np.abs(nrm - 1.0) > TOL_NORM
    if off.any():
        raise InvalidState(f"axis norm {float(nrm[off].flat[0])!r} differs from 1")
    return (n[..., 0, None, None] * _SIGMA[0] + n[..., 1, None, None] * _SIGMA[1]
            + n[..., 2, None, None] * _SIGMA[2])


def _libm_pow(x, p: int) -> np.ndarray:
    """x ** p entry by entry through libm pow (``math.pow``), for a scalar or an array.

    numpy's array power rounds differently from libm pow at some points
    (sin^4 on a 1,001-point grid at numpy 2.4: 55 of them), while a scalar
    ``np.float64 ** p`` is libm pow; this keeps a pulse on a grid equal
    to the pulse at each of its points.
    """
    x = np.asarray(x, dtype=float)
    return np.array([math.pow(v, p) for v in x.ravel().tolist()]).reshape(x.shape)


def sin2_pulse(eta_max: float, tau: float) -> Callable:
    """eta(t) = eta_max sin^2(pi t / tau), at a time t or on an array of times."""
    return lambda t: eta_max * _libm_pow(np.sin(np.pi * t / tau), 2)


def sin4_pulse(eta_max: float, tau: float) -> Callable:
    """eta(t) = eta_max sin^4(pi t / tau), at a time t or on an array of times."""
    return lambda t: eta_max * _libm_pow(np.sin(np.pi * t / tau), 4)


def parabola_pulse(eta_max: float, tau: float) -> Callable:
    """eta(t) = eta_max 4 t (tau - t) / tau^2, at a time t or on an array of times."""
    return lambda t: eta_max * 4.0 * t * (tau - t) / (tau * tau)


def constant_axis(n) -> Callable:
    """The fixed axis n / |n|: one read-only 3-vector, whether t is a time or an array of times.

    InvalidState unless n is finite and nonzero (``_unit``).
    """
    v = _read_only(_unit(n))     # shared by every call
    return lambda t: v


def _unit(n) -> np.ndarray:
    """n / |n| for a real vector n; InvalidState unless |n| is finite and above zero.

    n is first scaled by the power of two that puts max|n| in [1/2, 1).
    That is exact, so |n| cannot overflow and the quotient has the bits of
    the unscaled n / |n|.  A zero, NaN or infinite max|n| leaves n as it is.
    """
    n = np.asarray(n, dtype=float)
    n = np.ldexp(n, -np.frexp(np.max(np.abs(n), initial=0.0))[1])
    nrm = np.linalg.norm(n)
    if not 0.0 < nrm < np.inf:      # NaN fails this too
        raise InvalidState(f"axis norm {float(nrm)!r} is not finite and above zero")
    return n / nrm


def rotating_axis(period: float) -> Callable:
    """Axis sweeping the x-y plane once per period: a 3-vector at a time t, (..., 3) on an array."""
    def axis(t) -> np.ndarray:
        phi = 2.0 * np.pi * np.asarray(t) / period
        return np.stack((np.cos(phi), np.sin(phi), np.zeros_like(phi)), axis=-1)
    return axis


@dataclass(frozen=True)
class BatteryConfig:
    """Protocol parameters: storage gap, pulse, drive axis, and grid step; immutable.

    ``simulate_battery`` calls pulse and drive_axis once each, with the
    whole (N+1,) grid of times.  pulse returns (N+1,) values or one value
    for every point, and must vanish at t = 0 and t = tau (checked to
    TOL_ZERO on the first and last values); drive_axis returns (N+1, 3)
    unit vectors or one unit 3-vector, a fixed axis.  Any other shape
    raises DimensionMismatch, and a non-finite sample ValueError.
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


def _qubit(rho_t: np.ndarray, v_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rho_t and v_t; DimensionMismatch unless both are 2 x 2, the dimension of eps |1><1|."""
    if rho_t.shape != (2, 2) or v_t.shape != (2, 2):
        raise DimensionMismatch(f"rho_t and v_t are {rho_t.shape} and {v_t.shape}, not (2, 2)")
    return rho_t, v_t


def avg_extracted_work(rho_t, epsilon: float, eta_t: float, v_t: np.ndarray,
                       dt: float) -> float:
    """Two-branch average work over the window [t, t + dt].

    Branches evolve under eps |1><1| + eta V and eps |1><1| - eta V,
    the two members of the drive's level-permutation family.  v_t is checked Hermitian, then 2 x 2.
    """
    rho_t, v_t = _qubit(validate_density(rho_t), require_hermitian(v_t, stack=False))
    _require_finite("dt", dt)
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

    Valid while eta * dt stays in [0, pi/2] (monotone sine window); rho_t and v_t must be
    2 x 2 matrices, checked first, and dt finite.
    """
    rho_t, v_t = _qubit(_square(rho_t), _square(v_t))
    _require_finite("dt", dt)
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
    phi1 = np.einsum("kj,kj->k", vecs[:, 1, :], _phases(w, dt) * a)
    return epsilon * (np.abs(psi[:, 1]) ** 2 - np.abs(phi1) ** 2)


@dataclass(frozen=True, eq=False)
class BatteryRun:
    """A battery protocol as columns, one read-only float array per grid quantity.

    Each field is kept as a read-only view of the array given, not a copy, so a caller's
    arrays stay writeable; ``simulate_battery`` installs its own (``linalg._trusted``).
    """

    t: np.ndarray
    pulse_value: np.ndarray
    avg_work: np.ndarray
    bound: np.ndarray
    coherence: np.ndarray
    cumulative_work: np.ndarray

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, _read_only(np.asarray(getattr(self, f.name))))


def _sampled(values, grid_shape: tuple, name: str) -> np.ndarray:
    """A config callable's output on the grid: grid_shape, or one sample for every point.

    DimensionMismatch for any other shape; ValueError for a non-finite sample.
    """
    values = np.asarray(values, dtype=float)
    if values.shape not in (grid_shape, grid_shape[1:]):
        raise DimensionMismatch(f"{name} gave shape {values.shape} on a grid of "
                                f"{grid_shape[0]} points; expected {grid_shape} or {grid_shape[1:]}")
    if not np.isfinite(values).all():
        raise ValueError(f"{name} gave samples that are not all finite")
    return values


def simulate_battery(config: BatteryConfig, psi0) -> BatteryRun:
    """Evolve psi0 under H(t) = eps |1><1| + eta(t) V(t) and record work/bound columns.

    The trajectory uses the piecewise-constant exponential on the
    uniform grid 0..tau step dt; each row reports the branch-averaged
    work over [t, t + dt], its coherence ceiling, and the running sum.
    The pulse and the drive axis are called once each, with that grid
    (see ``BatteryConfig``).  ValueError unless tau and dt are finite
    and positive and epsilon is finite; the branch Hamiltonians built
    from these checked values are not checked again.
    """
    for name, value in (("tau", config.tau), ("dt", config.dt)):
        if not 0 < value < np.inf:
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    _require_finite("epsilon", config.epsilon)
    psi0 = validate_state_vector(psi0)
    if len(psi0) != 2:
        raise InvalidState("battery protocol is a qubit model")
    steps = max(1, int(round(config.tau / config.dt)))
    # linspace makes times[0] exactly 0 and times[-1] exactly tau
    times = np.linspace(0.0, config.tau, steps + 1)
    etas = np.empty_like(times)
    etas[...] = _sampled(config.pulse(times), times.shape, "pulse")
    for value, edge in ((etas[0], 0.0), (etas[-1], config.tau)):
        if abs(value) > TOL_ZERO:
            raise InvalidState(f"pulse must vanish at t = {edge}")
    # one axis gives one drive operator, broadcast along the grid
    drive = spin_operator(_sampled(config.drive_axis(times), times.shape + (3,), "drive_axis"))
    h0 = config.epsilon * _P1
    pulsed = etas[:, None, None] * drive
    psi, w, vecs = _propagate(psi0, times, h0 + pulsed)
    w_minus, vecs_minus = np.linalg.eigh(h0 - pulsed)
    work = 0.5 * (_stacked_branch_work(psi, config.epsilon, w, vecs, config.dt)
                  + _stacked_branch_work(psi, config.epsilon, w_minus, vecs_minus, config.dt))
    basis = np.broadcast_to(np.linalg.eigh(drive)[1].conj(), (len(times), 2, 2))
    # |a_m|^2 in the drive basis; their sum is ||psi||^2
    a2 = np.abs(np.einsum("kji,kj->ki", basis, psi)) ** 2
    coh = np.maximum(0.0, 1.0 - (a2 * a2).sum(axis=1) / a2.sum(axis=1))
    bound = 2.0 * config.epsilon * np.sin(etas * config.dt) * np.sqrt(coh)
    return _trusted(BatteryRun, times, etas, work, bound, coh, np.cumsum(work))


def qudit_battery_bound(rho, h0, v, dt: float) -> tuple[float, float]:
    """Permutation-orbit average work and its ceiling for a d-level battery.

    The drive's distinct levels are reassigned to its eigenspaces in
    every order; each member evolves rho under H0 + V_s for a window
    dt.  Returns (avg_work, bound) with

        bound = ||H0||_F sqrt(2 (1 - B_V(dt)) c_half_V(rho)),

    which reduces to the qubit form for V with spectrum +-1.  Stated
    for pure rho (the trajectory states of the protocol).  h0 and v
    must be Hermitian (NotHermitian otherwise) and share rho's
    dimension (DimensionMismatch otherwise), and dt be finite (ValueError
    otherwise); each member's h0 + V_s is not checked again.
    """
    state = _Density.of(rho)
    rho = state.rho
    h0 = hermitianize(require_hermitian(h0))
    ham_v = SpectralHamiltonian.from_matrix(v)
    if not len(h0) == ham_v.dim == len(rho):
        raise DimensionMismatch(f"h0, v and rho have dimensions {len(h0)}, "
                                f"{ham_v.dim} and {len(rho)}")
    _require_finite("dt", dt)

    def works(lam):
        w, vecs = np.linalg.eigh(h0 + _eigenbasis_operators(ham_v.eigenvectors, lam))  # h0 + V_s
        u = _eigenbasis_operators(vecs, _phases(w, dt))
        return np.trace(h0 @ (rho - u @ rho @ dagger(u)), axis1=-2, axis2=-1).real

    avg = _orbit_means([ham_v], works)[0]
    sbar = _closed_forms([state.root], [ham_v], [dt])[0][2]
    return avg, float(np.linalg.norm(h0) * np.sqrt(max(0.0, sbar)))
