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

    |wbar(t)| <= 2 |eps| sin(|eta(t)| dt) sqrt(c_half_V(rho_t)).

A diagonal state in that basis therefore yields no branch-averaged
work, whatever the pulse does.

``simulate_battery`` calls the pulse and the drive axis once each, on
the whole (N+1,) grid of times: a pulse returns (N+1,) values or one
value for every point, an axis (N+1, 3) unit vectors or one 3-vector,
a fixed axis.  The package's pulses and axes take a time or an array of
times and give the same bits either way.  The whole protocol then runs
on the (N+1, 2) state vectors of the trajectory, which is pure by
construction, so it forms no density matrix, no square root and no
eigendecomposition.  A qubit Hamiltonian is (eps / 2) I + b.sigma, with
b = eta n - (eps / 2) z for the branch with pulse eta (the other has
-eta), so a step is the SU(2) rotation

    exp(-i H dt) = exp(-i eps dt / 2) (cos(|b| dt) I - i S b.sigma),

with S = dt sinc(|b| dt / pi) (``np.sinc`` keeps |b| = 0 exact).  The
trajectory takes one such step per grid interval, on the grid's own
dt_k = t_(k+1) - t_k, under the step guard and the norm-drift check of
``dynamics.evolve`` (``_trajectory``).  Up to the global phase, a branch
moves psi_1 to

    phi_1 = cos(|b| dt) psi_1 - i S ((b_x + i b_y) psi_0 - b_z psi_1).

Its work eps (|psi_1|^2 - |phi_1|^2) is taken in closed form, free of the
cancellation of two nearly equal weights: with Y = (n_x - i n_y) psi_0* psi_1,

    eps S eta (2 cos(|b| dt) Im Y + S (2 b_z Re Y - eta (n_x^2 + n_y^2) D)),
    D = |psi_0|^2 - |psi_1|^2,

which is exactly 0 when eta or eps is.  The two eigenprojectors of
V = n.sigma give psi the weights (N +- s) / 2, with N = ||psi||^2 and
s = <psi|V|psi> = 2 Re Y + n_z D, and sqrt(rho) = rho / sqrt(N) for
rho = psi psi†, so c_half_V = 1 - (N^2 + s^2) / (2 N).  The run comes
back as columns, a ``BatteryRun``.  The single-step functions below
(``avg_extracted_work``, ``drive_coherence``, ``work_bound``) compute
each row on its own from the density matrix, through U rho U† and the
square root inside ``c_half``, and serve as its oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .avgdist import _closed_forms, _orbit_means
from .coherence import c_half
from .dynamics import _drift_check, _step_guard
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
    be finite and unit length (InvalidState otherwise, ``_unit_axes``).
    """
    n = _unit_axes(axis)
    return (n[..., 0, None, None] * _SIGMA[0] + n[..., 1, None, None] * _SIGMA[1]
            + n[..., 2, None, None] * _SIGMA[2])


def _unit_axes(axis) -> np.ndarray:
    """A 3-vector or a stack (k, 3) of them, as floats; InvalidState unless each is finite
    and of unit length."""
    n = _array(axis, float)
    if n.ndim not in (1, 2) or n.shape[-1] != 3:
        raise InvalidState("axis must be a 3-vector or a stack (k, 3) of them")
    nrm = np.linalg.norm(n, axis=-1)
    if np.isnan(nrm).any():         # a NaN entry; NaN fails the `>` test below
        raise InvalidState("axis entries are not all finite")
    off = np.abs(nrm - 1.0) > TOL_NORM
    if off.any():
        raise InvalidState(f"axis norm {float(nrm[off].flat[0])!r} differs from 1")
    return n


# The sine powers are products, s * s and (s * s) * (s * s) (``np.square``): one multiply
# rounds the same for a scalar and for an array, where numpy's array power and libm pow differ.

def sin2_pulse(eta_max: float, tau: float) -> Callable:
    """eta(t) = eta_max sin^2(pi t / tau), at a time t or on an array of times."""
    return lambda t: eta_max * np.square(np.sin(np.pi * t / tau))


def sin4_pulse(eta_max: float, tau: float) -> Callable:
    """eta(t) = eta_max sin^4(pi t / tau), at a time t or on an array of times."""
    return lambda t: eta_max * np.square(np.square(np.sin(np.pi * t / tau)))


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
    """Ceiling 2 |eps| sin(|eta| dt) sqrt(c_half_V(rho)) on the branch-averaged work.

    Valid while |eta| * dt stays in [0, pi/2] (monotone sine window); rho_t and v_t must be
    2 x 2 matrices, checked first, and dt finite.
    """
    rho_t, v_t = _qubit(_square(rho_t), _square(v_t))
    _require_finite("dt", dt)
    x = abs(eta_t) * dt
    if x > np.pi / 2.0:
        raise WindowTooWide(f"|eta| * dt = {x:.3g} exceeds pi/2")
    return float(2.0 * abs(epsilon) * np.sin(x) * np.sqrt(drive_coherence(rho_t, v_t)))


def _qubit_step(epsilon: float, eta, n: np.ndarray, dt) -> tuple:
    """b_z, |b| dt and S = dt sinc(|b| dt / pi) of the qubit step exp(-i b.sigma dt).

    The field is b = eta n - (eps / 2) z; eta, n (..., 3) and dt broadcast, and
    ``np.sinc`` keeps |b| = 0 exact.
    """
    nx, ny = n[..., 0], n[..., 1]
    bz = eta * n[..., 2] - 0.5 * epsilon
    x = np.sqrt(eta * eta * (nx * nx + ny * ny) + bz * bz) * dt
    return bz, x, dt * np.sinc(x / np.pi)


def _trajectory(psi0: np.ndarray, times: np.ndarray, epsilon: float, etas: np.ndarray,
                n: np.ndarray) -> np.ndarray:
    """The states (N+1, 2) under H_k = eps |1><1| + eta_k n_k.sigma on the grid times (N+1,).

    Each step is exp(-i H_k dt_k) = exp(-i eps dt_k / 2) (cos(|b| dt_k) I - i S b.sigma),
    from ``_qubit_step`` on the grid's own dt_k = t_(k+1) - t_k > 0.  n holds the axes
    (N+1, 3) or one axis (3,).  The step guard reads |b| dt_k, the half spectral width
    of H_k times dt_k, and the norm drift is checked as ``evolve`` checks it.
    """
    dts = times[1:] - times[:-1]
    eta, n = etas[:-1], n[:-1] if n.ndim == 2 else n
    bz, x, step = _qubit_step(epsilon, eta, n, dts)
    _step_guard(x, stacklevel=3)
    # U = (1 + c) I + s b.sigma, with c = exp(-i eps dt / 2) cos(|b| dt) - 1 formed from
    # exp(-i th) - 1 and cos(x) - 1 = -2 sin^2(x / 2): cos and exp rounded near 1 err alike
    # at every step of an even grid, and those errors would add up over the grid
    half = 0.5 * epsilon * dts
    phase = -2.0 * np.sin(0.5 * half) ** 2 - 1j * np.sin(half)         # exp(-i eps dt / 2) - 1
    c = phase * np.cos(x) - 2.0 * np.sin(0.5 * x) ** 2
    s = -1j * (phase + 1.0) * step
    bxy = eta * (n[..., 0] - 1j * n[..., 1])                    # b_x - i b_y
    p0, p1 = psi0.tolist()
    states = [p0, p1]       # flat: np.fromiter reads it far faster than a list of pairs
    # one loop over Python complex scalars: the cheapest product of N small steps
    for d00, u01, u10, d11 in zip((c + s * bz).tolist(), (s * bxy).tolist(),
                                  (s * bxy.conj()).tolist(), (c - s * bz).tolist()):
        p0, p1 = p0 + (d00 * p0 + u01 * p1), p1 + (u10 * p0 + d11 * p1)
        states += (p0, p1)
    return _drift_check(np.fromiter(states, complex, len(states)).reshape(-1, 2))


def _bloch_rows(psi: np.ndarray, epsilon: float, etas: np.ndarray, n: np.ndarray,
                dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Branch-averaged work and c_half_V at every grid point, from the Bloch vectors.

    psi holds the states (k, 2), etas the pulse (k,), and n the drive axes (k, 3) or
    one axis (3,); the module docstring gives the formulas.
    """
    nx, ny, nz = n[..., 0], n[..., 1], n[..., 2]
    eta = np.stack((etas, -etas))       # the two branches, one row each
    bz, x, step = _qubit_step(epsilon, eta, n, dt)
    x01 = psi[:, 0].conj() * psi[:, 1]
    p0, p1 = psi[:, 0].real ** 2 + psi[:, 0].imag ** 2, psi[:, 1].real ** 2 + psi[:, 1].imag ** 2
    d = p0 - p1
    # Y = (n_x - i n_y) conj(psi_0) psi_1
    re_y, im_y = nx * x01.real + ny * x01.imag, nx * x01.imag - ny * x01.real
    perp = nx * nx + ny * ny
    w_plus, w_minus = epsilon * step * eta * (
        2.0 * np.cos(x) * im_y + step * (2.0 * bz * re_y - eta * perp * d))
    norm2, s = p0 + p1, 2.0 * re_y + nz * d
    coh = np.maximum(0.0, 1.0 - (norm2 * norm2 + s * s) / (2.0 * norm2))
    return 0.5 * (w_plus + w_minus), coh


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

    The trajectory takes the exact step exp(-i H(t_k) dt_k) on the uniform
    grid 0..tau, about dt apart (``_trajectory``); each row reports the
    branch-averaged work over [t, t + dt], its coherence ceiling, and the
    running sum.  The pulse and the drive axis are called once each, with
    that grid (see ``BatteryConfig``).  ValueError unless tau and dt are
    finite and positive and epsilon is finite; the steps built from these
    checked values are not checked again.
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
    # one fixed axis (3,) serves every grid point
    axes = _unit_axes(_sampled(config.drive_axis(times), times.shape + (3,), "drive_axis"))
    psi = _trajectory(psi0, times, config.epsilon, etas, axes)
    work, coh = _bloch_rows(psi, config.epsilon, etas, axes, config.dt)
    bound = 2.0 * abs(config.epsilon) * np.sin(np.abs(etas) * config.dt) * np.sqrt(coh)
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
