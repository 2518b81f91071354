"""Pure-state evolution on a time grid and instantaneous distance speeds.

The short-time expansion of the squared-Hellinger distance along a
unitary trajectory gives an instantaneous speed that depends only on
the eigenspace weights r_m = ||P_m psi||^2 and the level gaps:

    v(t) = sqrt( sum_{p,q} r_p r_q (lambda_p - lambda_q)^2 )
         = sqrt(2) * DeltaH,

with DeltaH the energy spread of the state.  Both routes are computed
independently here so the identity can be checked rather than assumed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GridTooCoarse, InvalidState
from .linalg import (
    SpectralHamiltonian,
    hermitianize,
    unitary_exp,
    validate_state_vector,
)

_WARN_STEP = 0.1
_MAX_STEP = 1.0


@dataclass
class HamiltonianPath:
    """Time grid plus a sampler t -> H(t) (dense Hermitian matrix)."""

    times: np.ndarray
    sampler: Callable[[float], np.ndarray]

    @staticmethod
    def _grid(t_final: float, dt: float | None, steps: int | None,
              lam_max: float) -> np.ndarray:
        if steps is None:
            if dt is None:
                # default grid: max|lambda| * dt <= 0.01
                dt = 0.01 / lam_max if lam_max > 0 else t_final
            steps = max(1, int(np.ceil(t_final / dt)))
        return np.linspace(0.0, t_final, steps + 1)

    @classmethod
    def constant(cls, h, t_final: float, *, dt: float | None = None,
                 steps: int | None = None) -> "HamiltonianPath":
        h = hermitianize(np.asarray(h, dtype=complex))
        lam_max = float(np.max(np.abs(np.linalg.eigvalsh(h)))) if h.size else 0.0
        times = cls._grid(t_final, dt, steps, lam_max)
        return cls(times=times, sampler=lambda t: h)

    @classmethod
    def linear(cls, h0, h1, t_final: float, *, dt: float | None = None,
               steps: int | None = None) -> "HamiltonianPath":
        """Linear interpolation H(t) = (1 - t/T) H0 + (t/T) H1."""
        h0 = hermitianize(np.asarray(h0, dtype=complex))
        h1 = hermitianize(np.asarray(h1, dtype=complex))
        lam_max = max(float(np.max(np.abs(np.linalg.eigvalsh(h0)))),
                      float(np.max(np.abs(np.linalg.eigvalsh(h1)))))
        times = cls._grid(t_final, dt, steps, lam_max)

        def sampler(t: float) -> np.ndarray:
            x = t / t_final if t_final > 0 else 0.0
            return (1.0 - x) * h0 + x * h1

        return cls(times=times, sampler=sampler)


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
    r = np.array([float(np.vdot(psi, p @ psi).real)
                  for p in ham.decomposition.projectors])
    a = gap_squared_matrix(ham.levels)
    return float(np.sqrt(max(0.0, r @ a @ r)))


def energy_uncertainty(psi, h) -> float:
    """Energy spread ||(H - <H>) psi|| computed from the dense matrix.

    Equals sqrt(<H^2> - <H>^2) without subtracting the two moments, which
    cancel when the spread is small against the mean energy.
    """
    psi = validate_state_vector(psi)
    mat = h.matrix() if isinstance(h, SpectralHamiltonian) else np.asarray(h, dtype=complex)
    hpsi = mat @ psi
    e = float(np.vdot(psi, hpsi).real)
    return float(np.linalg.norm(hpsi - e * psi))


def evolve(psi0, path: HamiltonianPath) -> Trajectory:
    """Piecewise-constant-exponential integrator over the path's grid.

    Each step applies exp(-i H(t_k) dt_k) exactly (via the spectral
    decomposition).  Raises GridTooCoarse when max|lambda| * dt exceeds
    1; warns once above 0.1.
    """
    psi0 = validate_state_vector(psi0)
    times = np.asarray(path.times, dtype=float)
    n = len(times) - 1
    d = len(psi0)
    states = np.empty((n + 1, d), dtype=complex)
    speeds = np.empty(n + 1)
    uncerts = np.empty(n + 1)
    states[0] = psi0
    warned = False
    for k in range(n + 1):
        h_k = hermitianize(np.asarray(path.sampler(times[k]), dtype=complex))
        ham_k = SpectralHamiltonian.from_matrix(h_k)
        speeds[k] = instantaneous_speed(states[k], ham_k)
        uncerts[k] = energy_uncertainty(states[k], h_k)
        if k < n:
            dt_k = times[k + 1] - times[k]
            lam_max = float(np.max(np.abs(ham_k.eigenvalues)))
            step = lam_max * dt_k
            if step > _MAX_STEP:
                raise GridTooCoarse(f"max|lambda| * dt = {step:.3g} exceeds {_MAX_STEP}")
            if step > _WARN_STEP and not warned:
                warnings.warn(f"max|lambda| * dt = {step:.3g} above {_WARN_STEP}; "
                              "grid may be coarse", stacklevel=2)
                warned = True
            states[k + 1] = unitary_exp(ham_k, dt_k) @ states[k]
    drift = float(np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)))
    if drift > 1e-10:
        raise InvalidState(f"norm drift {drift:.3e} over the grid")
    return Trajectory(times=times, states=states, speeds=speeds, uncertainties=uncerts)


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
    if abs(w - 1.0) > 1e-9:
        raise InvalidState("amplitudes are not normalized")
    return float(4.0 * (abs(alpha) ** 2) * (abs(beta) ** 2)
                 * (1.0 - np.cos((lam - gam) * t)))
