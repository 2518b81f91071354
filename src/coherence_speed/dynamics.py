"""Pure-state evolution on a time grid and instantaneous distance speeds.

The short-time expansion of the squared-Hellinger distance along a
unitary trajectory gives an instantaneous speed that depends only on
the eigenspace weights r_m = ||P_m psi||^2 and the level gaps:

    v(t) = sqrt( sum_{p,q} r_p r_q (lambda_p - lambda_q)^2 )
         = sqrt(2) * DeltaH,

with DeltaH the energy spread of the state.  Both routes are computed
independently here so the identity can be checked rather than assumed.

A ``HamiltonianPath`` built by ``constant`` or ``linear`` carries its
(N+1, d, d) stack of samples H(t_k), built with one broadcast from the
checked endpoints and trusted from then on.  A caller's path
``HamiltonianPath(times, sampler)`` carries none: ``evolve`` samples it
at every grid point and checks the stack once.  ``evolve`` diagonalizes
the stack with one stacked ``eigh``; the step unitaries
V exp(-i w dt) V† are formed as a stack, so Python runs only the
sequential mat-vec.  Speeds and spreads along the trajectory come from
the same stacked eigendata and dense stack, by the rules of
``instantaneous_speed`` and ``energy_uncertainty`` (the single-step
oracles).  The stacks hold about 48 N d^2 bytes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, GridTooCoarse, InvalidState
from .linalg import (
    TOL_DRIFT,
    TOL_NORM,
    SpectralHamiltonian,
    _cluster_levels,
    dagger,
    hermitianize,
    require_hermitian,
    validate_state_vector,
)

_WARN_STEP = 0.1
_MAX_STEP = 1.0


def _half_width(h: np.ndarray) -> float:
    """Half spectral width (lambda_max - lambda_min) / 2 of a Hermitian matrix.

    It is max|lambda - c| minimized over the shift c, so a global shift
    of H, which changes only the phase, leaves it unchanged.  For a
    stack, the largest over its matrices.
    """
    if not h.size:
        return 0.0
    w = np.linalg.eigvalsh(h)
    return float((w[..., -1] - w[..., 0]).max()) / 2.0


@dataclass
class HamiltonianPath:
    """Time grid plus a sampler t -> H(t) (dense Hermitian matrix).

    ``constant`` and ``linear`` raise NotHermitian on a matrix that is
    not Hermitian within TOL_HERM, then keep its Hermitian part; the
    paths they build carry ``samples``, the (N+1, d, d) stack of H(t_k)
    on ``times``, and ``evolve`` trusts it (so a new grid needs a new
    path, not a reassigned ``times``).  A path built as
    ``HamiltonianPath(times, sampler)`` has ``samples`` None: ``evolve``
    samples it on its grid and checks the samples.
    """

    times: np.ndarray
    sampler: Callable[[float], np.ndarray]
    samples: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @staticmethod
    def _grid(t_final: float, steps: int | None, h: np.ndarray) -> np.ndarray:
        if steps is None:
            # default grid: half spectral width * dt <= 0.01; one step for a
            # flat spectrum, whatever the duration (dt = 0 when t_final is)
            half_width = _half_width(h)
            dt = 0.01 / half_width if half_width > 0 else t_final
            steps = max(1, int(np.ceil(t_final / dt))) if dt else 1
        return np.linspace(0.0, t_final, steps + 1)

    @classmethod
    def _trusted(cls, times: np.ndarray, sampler: Callable[[float], np.ndarray],
                 samples: np.ndarray) -> "HamiltonianPath":
        """A path whose samples on ``times`` the package built from checked matrices."""
        path = cls(times=times, sampler=sampler)
        path.samples = samples
        return path

    @classmethod
    def constant(cls, h, t_final: float, *, steps: int | None = None) -> "HamiltonianPath":
        h = hermitianize(require_hermitian(h))
        times = cls._grid(t_final, steps, h)
        return cls._trusted(times, lambda t: h, np.broadcast_to(h, (len(times),) + h.shape))

    @classmethod
    def linear(cls, h0, h1, t_final: float, *, steps: int | None = None) -> "HamiltonianPath":
        """Linear interpolation H(t) = (1 - t/T) H0 + (t/T) H1.

        The spectral width is convex in H, so the larger endpoint half
        width bounds it along the whole path.  The samples on the grid
        come from the sampler's expression, broadcast over the grid.
        """
        if np.shape(h0) != np.shape(h1):
            raise DimensionMismatch(f"endpoint shapes {np.shape(h0)} and {np.shape(h1)} differ")
        ends = hermitianize(require_hermitian([h0, h1]))
        h0, h1 = ends
        times = cls._grid(t_final, steps, ends)

        def sampler(t: float) -> np.ndarray:
            x = t / t_final if t_final > 0 else 0.0
            return (1.0 - x) * h0 + x * h1

        x = (times / t_final if t_final > 0 else np.zeros_like(times))[:, None, None]
        return cls._trusted(times, sampler, (1.0 - x) * h0 + x * h1)


@dataclass
class Trajectory:
    """States and closed-form speeds on the grid of a HamiltonianPath."""

    times: np.ndarray
    states: np.ndarray          # shape (len(times), d)
    speeds: np.ndarray          # instantaneous distance speed at each grid point
    uncertainties: np.ndarray   # energy spread DeltaH at each grid point

    def __len__(self) -> int:
        return len(self.times)


def gap_squared_matrix(levels) -> np.ndarray:
    """Symmetric zero-diagonal matrix of squared level gaps (lambda_p - lambda_q)^2."""
    lam = np.asarray(levels, dtype=float).reshape(-1)
    d = lam[:, None] - lam[None, :]
    return d * d


def instantaneous_speed(psi, ham: SpectralHamiltonian) -> float:
    """Distance speed sqrt(sum_{p,q} r_p r_q (lambda_p - lambda_q)^2).

    r_m are the eigenspace weights of psi; degenerate levels enter once.
    """
    psi = validate_state_vector(psi)
    r = ham.decomposition._weights(psi)
    a = gap_squared_matrix(ham.levels)
    return float(np.sqrt(max(0.0, r @ a @ r)))


def energy_uncertainty(psi, h) -> float:
    """Energy spread ||(H - <H>) psi|| computed from the dense matrix.

    Equals sqrt(<H^2> - <H>^2) without subtracting the two moments, which
    cancel when the spread is small against the mean energy.
    """
    psi = validate_state_vector(psi)
    mat = h.matrix() if isinstance(h, SpectralHamiltonian) else np.asarray(h, dtype=complex)
    return _energy_moments(psi, mat)[1]


def _energy_moments(psi: np.ndarray, mat: np.ndarray) -> tuple[float, float]:
    """Mean <H> and spread ||(H - <H>) psi|| of a validated unit vector under a dense H."""
    hpsi = mat @ psi
    e = float(np.vdot(psi, hpsi).real)
    return e, float(np.linalg.norm(hpsi - e * psi))


def _propagate(psi0: np.ndarray, times: np.ndarray,
               h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """States on the grid from the Hermitian samples h (N+1, d, d), with their eigendata (w, v).

    The callers check the samples.  One stacked eigh gives every step
    unitary V exp(-i w dt) V†.  The step guard is checked on
    the whole grid before any propagation: GridTooCoarse when the half
    spectral width (lambda_max - lambda_min) / 2 times dt exceeds 1, one
    warning above 0.1.  Raises InvalidState when the norm drifts by more
    than TOL_DRIFT over the grid.
    """
    w, v = np.linalg.eigh(h)
    dts = np.diff(times)
    steps = (w[:-1, -1] - w[:-1, 0]) / 2.0 * dts
    worst = float(steps.max()) if steps.size else 0.0
    if worst > _MAX_STEP:
        raise GridTooCoarse(f"half spectral width * dt = {worst:.3g} exceeds {_MAX_STEP}")
    if worst > _WARN_STEP:
        warnings.warn(f"half spectral width * dt = {worst:.3g} above {_WARN_STEP}; "
                      "grid may be coarse", stacklevel=3)
    u = (v[:-1] * np.exp(-1j * w[:-1] * dts[:, None])[:, None, :]) @ dagger(v[:-1])
    states = np.empty((len(times), len(psi0)), dtype=complex)
    states[0] = psi0
    for k in range(len(dts)):
        states[k + 1] = u[k] @ states[k]
    drift = float(np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)))
    if drift > TOL_DRIFT:
        raise InvalidState(f"norm drift {drift:.3e} over the grid")
    return states, w, v


def _stacked_speeds(w: np.ndarray, v: np.ndarray, states: np.ndarray) -> np.ndarray:
    """instantaneous_speed at every grid point from the stacked eigendata.

    Column weights |V† psi|^2 are summed per level, levels being
    grouped by the rule of SpectralHamiltonian (``_cluster_levels`` at
    TOL_DEGEN).  Unused level slots carry zero weight and drop out.
    """
    weights = np.abs(np.einsum("kji,kj->ki", v.conj(), states)) ** 2
    levels, level_of = _cluster_levels(w)
    member = level_of[:, :, None] == np.arange(levels.shape[1])   # (k, column, level)
    r = np.einsum("kj,kjm->km", weights, member)
    gaps = (levels[:, :, None] - levels[:, None, :]) ** 2
    return np.sqrt(np.maximum(0.0, np.einsum("kp,kpq,kq->k", r, gaps, r)))


def evolve(psi0, path: HamiltonianPath) -> Trajectory:
    """Piecewise-constant-exponential integrator over the path's grid.

    Each step applies exp(-i H(t_k) dt_k) exactly, from one stacked
    eigendecomposition of every sample.  A path from ``constant`` or
    ``linear`` brings its checked samples; a caller's path is sampled
    here, after psi0 is checked, and raises NotHermitian when a sample
    is not Hermitian within TOL_HERM (each sample is then used by its
    Hermitian part).  Raises GridTooCoarse when the
    half spectral width (lambda_max - lambda_min) / 2 times dt exceeds
    1, before any step is taken; warns once above 0.1.  A global shift
    of H changes only the phase and so does not move the guard.
    """
    psi0 = validate_state_vector(psi0)
    times = np.asarray(path.times, dtype=float)
    h = path.samples
    if h is None:
        h = hermitianize(require_hermitian([np.asarray(path.sampler(t), dtype=complex)
                                            for t in times]))
    states, w, v = _propagate(psi0, times, h)
    hpsi = np.einsum("kij,kj->ki", h, states)
    energy = np.einsum("ki,ki->k", states.conj(), hpsi).real
    uncerts = np.linalg.norm(hpsi - energy[:, None] * states, axis=1)
    return Trajectory(times=times, states=states, speeds=_stacked_speeds(w, v, states),
                      uncertainties=uncerts)


def finite_difference_speed(trajectory: Trajectory, k: int) -> float:
    """Frobenius difference quotient ||rho_{k+1} - rho_k||_F / dt at grid index k."""
    if not 0 <= k < len(trajectory) - 1:
        raise IndexError(f"index {k} has no successor on the grid")
    a = trajectory.states[k]
    b = trajectory.states[k + 1]
    rho_a = np.outer(a, a.conj())
    rho_b = np.outer(b, b.conj())
    dt = float(trajectory.times[k + 1] - trajectory.times[k])
    return float(np.linalg.norm(rho_b - rho_a) / dt)


def qubit_closed_form(alpha: complex, beta: complex, lam: float, gam: float,
                      t: float) -> float:
    """Squared-Hellinger distance for a qubit pure state under diag(lam, gam).

    For |psi> = alpha |0> + beta |1> evolving under H = lam |0><0| +
    gam |1><1|:  D(t) = 4 |alpha|^2 |beta|^2 (1 - cos((lam - gam) t)).
    """
    w = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(w - 1.0) > TOL_NORM:
        raise InvalidState("amplitudes are not normalized")
    return float(4.0 * (abs(alpha) ** 2) * (abs(beta) ** 2)
                 * (1.0 - np.cos((lam - gam) * t)))
