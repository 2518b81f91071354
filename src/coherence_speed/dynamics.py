"""Pure-state evolution on a time grid and instantaneous distance speeds.

The short-time expansion of the squared-Hellinger distance along a
unitary trajectory gives an instantaneous speed that depends only on
the eigenspace weights r_m = ||P_m psi||^2 and the level gaps:

    v(t) = sqrt( sum_{p,q} r_p r_q (lambda_p - lambda_q)^2 )
         = sqrt(2) * DeltaH,

with DeltaH the energy spread of the state.  Both routes are computed
independently here so the identity can be checked rather than assumed.

Energy mean and spread of spectral input have one rule, ``_moments``,
which reads only level gaps and so is exact under a constant shift;
the dense ||(H - <H>) psi|| stays for a dense matrix, as an oracle.

A ``HamiltonianPath`` is an immutable time grid and its (N+1, d, d)
stack of samples H(t_k), checked once where it is built.  ``evolve``
diagonalizes the stack with one stacked ``eigh``; the step unitaries
V exp(-i w dt) V† are formed as a stack, so Python runs only the
sequential mat-vec.  Speeds and spreads along the trajectory come from
the same stacked eigendata, by the rules of ``instantaneous_speed`` and
of ``energy_uncertainty`` on spectral input (the single-step oracles).
The stacks hold about 48 N d^2 bytes.

One ``linear`` (or ``constant``) call and one ``evolve`` call pay for
their checks (Hermitian and finite matrices, a finite duration, an
integer step count, the state's norm and dimension, the step guard and
the norm drift), the grid and the samples, the one stacked eigh, the
step unitaries, the N sequential mat-vecs and the stacked speeds and
spreads.  The grid is np.linspace's arithmetic without its wrapper, and
the paths and trajectories the package builds are installed unchecked
(``linalg._trusted``), their own arrays frozen in place; a caller's path
or trajectory is checked and keeps read-only views of the caller's arrays.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionMismatch, GridTooCoarse, InvalidState
from .linalg import (
    TOL_DRIFT,
    TOL_NORM,
    SpectralHamiltonian,
    _array,
    _cluster_levels,
    _eigenbasis_operators,
    _phases,
    _read_only,
    _trusted,
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
    w = np.linalg.eigvalsh(h)
    return float((w[..., -1] - w[..., 0]).max()) / 2.0


def _finite_times(times) -> np.ndarray:
    """A float copy of times; ValueError unless every entry is finite."""
    times = _array(times, float).copy()
    if not np.isfinite(times).all():
        raise ValueError("grid times are not all finite")
    return times


def _linear_samples(ends: np.ndarray, t_final: float, times: np.ndarray) -> np.ndarray:
    """(1 - t/T) H0 + (t/T) H1 at every t of times, in one broadcast (t/T = 0 when T <= 0)."""
    x = (times / t_final if t_final > 0 else np.zeros_like(times))[:, None, None]
    return (1.0 - x) * ends[0] + x * ends[1]


@dataclass(frozen=True, eq=False)
class HamiltonianPath:
    """A time grid ``times`` (N+1,) and the samples H(t_k) ``samples`` (N+1, d, d), read-only.

    ``HamiltonianPath(times, samples)`` checks a caller's input once:
    ValueError unless ``times`` is 1-D and finite, DimensionMismatch
    unless there is one square sample per grid point, NotHermitian when
    a sample is not Hermitian within TOL_HERM; the samples are kept by
    their Hermitian part.  ``constant`` and ``linear`` check their
    matrices the same way and do not check the stack they build.
    """

    times: np.ndarray
    samples: np.ndarray

    def __post_init__(self) -> None:
        times = _finite_times(self.times)
        if times.ndim != 1:
            raise ValueError(f"grid times must be one-dimensional, got shape {times.shape}")
        samples = require_hermitian(self.samples)
        if samples.shape[:-2] != times.shape:
            raise DimensionMismatch(f"samples {samples.shape} for a grid of {len(times)} points")
        object.__setattr__(self, "times", _read_only(times))
        object.__setattr__(self, "samples", _read_only(hermitianize(samples)))

    @staticmethod
    def _grid(t_final: float, steps: int | None, h: np.ndarray) -> np.ndarray:
        """np.linspace(0.0, t_final, steps + 1) bit for bit, zero signs included; ValueError
        for a non-finite t_final or a negative steps, TypeError for a non-integer one."""
        if not math.isfinite(t_final):
            raise ValueError("grid times are not all finite")
        if steps is None:
            # default grid: half spectral width * dt <= 0.01; one step for a
            # flat spectrum, whatever the duration (dt = 0 when t_final is)
            half_width = _half_width(h)
            dt = 0.01 / half_width if half_width > 0 else t_final
            steps = max(1, int(np.ceil(t_final / dt))) if dt else 1
        else:
            steps = operator.index(steps)
            if steps < 0:
                raise ValueError(f"steps must be a non-negative integer, got {steps}")
        times = np.arange(steps + 1.0)
        if steps:
            step = t_final / steps
            if step:
                times *= step
            else:           # t_final is zero or t_final / steps underflows
                times /= steps
                times *= t_final
            times += 0.0    # linspace adds its start: a zero entry reads +0.0
            times[-1] = t_final
        return times

    @classmethod
    def constant(cls, h, t_final: float, *, steps: int | None = None) -> "HamiltonianPath":
        h = hermitianize(require_hermitian(h))
        times = cls._grid(t_final, steps, h)
        return _trusted(cls, times, np.broadcast_to(h, (len(times),) + h.shape))

    @classmethod
    def linear(cls, h0, h1, t_final: float, *, steps: int | None = None) -> "HamiltonianPath":
        """Linear interpolation H(t) = (1 - t/T) H0 + (t/T) H1.

        The spectral width is convex in H, so the larger endpoint half
        width bounds it along the whole path.
        """
        h0, h1 = _array(h0), _array(h1)
        if h0.shape != h1.shape:
            raise DimensionMismatch(f"endpoint shapes {h0.shape} and {h1.shape} differ")
        ends = hermitianize(require_hermitian([h0, h1]))
        times = cls._grid(t_final, steps, ends)
        return _trusted(cls, times, _linear_samples(ends, t_final, times))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States and closed-form speeds on the grid of a HamiltonianPath; immutable.

    Each field is kept as a read-only view of the array given, not a copy.
    """

    times: np.ndarray
    states: np.ndarray          # shape (len(times), d)
    speeds: np.ndarray          # instantaneous distance speed at each grid point
    uncertainties: np.ndarray   # energy spread DeltaH at each grid point

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, _read_only(np.asarray(getattr(self, f.name))))

    def __len__(self) -> int:
        return len(self.times)


def gap_squared_matrix(levels) -> np.ndarray:
    """Squared gaps (lambda_p - lambda_q)^2 of levels (..., M): a zero-diagonal (M, M) per row."""
    lam = _array(levels, float)
    d = lam[..., :, None] - lam[..., None, :]
    return d * d


def _check_dims(psi: np.ndarray, shape: tuple) -> None:
    """DimensionMismatch unless the operator shape is (d, d) for the d entries of psi."""
    if tuple(shape) != (len(psi), len(psi)):
        raise DimensionMismatch("state/Hamiltonian dimensions differ")


def instantaneous_speed(psi, ham: SpectralHamiltonian) -> float:
    """Distance speed sqrt(sum_{p,q} r_p r_q (lambda_p - lambda_q)^2).

    r_m are the eigenspace weights of psi; degenerate levels enter once.
    Raises DimensionMismatch when psi and ham differ in dimension.
    """
    psi = validate_state_vector(psi)
    _check_dims(psi, ham.eigenvectors.shape)
    r = ham.decomposition._weights(psi)
    a = gap_squared_matrix(ham.levels)
    return float(np.sqrt(max(0.0, r @ a @ r)))


def energy_uncertainty(psi, h) -> float:
    """Energy spread DeltaH of psi under a SpectralHamiltonian or a dense Hermitian matrix.

    Spectral input goes through ``_moments``, exact under a constant
    shift.  A dense matrix gives ||(H - <H>) psi||, with an error of about
    eps ||H|| / DeltaH relative.  Raises DimensionMismatch when psi and h
    differ in dimension.
    """
    psi = validate_state_vector(psi)
    if isinstance(h, SpectralHamiltonian):
        _check_dims(psi, h.eigenvectors.shape)
        return float(_moments(np.abs(dagger(h.eigenvectors) @ psi) ** 2, h.eigenvalues)[1])
    mat = require_hermitian(h)
    _check_dims(psi, mat.shape)
    hpsi = mat @ psi
    return float(np.linalg.norm(hpsi - np.vdot(psi, hpsi).real * psi))


def _moments(a: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Energy mean and spread from weights a = |V† psi|^2 and ascending eigenvalues w (..., d).

    With x = w - w_0: mean = sum a x, spread = sqrt(sum a (x - mean)^2).
    Only gaps enter, so both are shift-exact, where the dense route errs
    by about eps ||H|| / DeltaH relative.  Levels are not clustered: a
    split below TOL_DEGEN adds its spread, as in the dense form.
    """
    x = w - w[..., :1]
    mean = np.add.reduce(a * x, axis=-1)
    dev = x - mean[..., None]
    return mean, np.sqrt(np.add.reduce(a * dev * dev, axis=-1))


def _propagate(psi0: np.ndarray, times: np.ndarray,
               h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """States on the grid from the Hermitian samples h (N+1, d, d), with their eigendata (w, v).

    The samples were checked where they entered, or built from checked
    values.  One stacked eigh gives every step unitary V exp(-i w dt) V†.
    The step guard is checked on the whole grid before any propagation:
    GridTooCoarse when the half spectral width (lambda_max - lambda_min) / 2
    times |dt| exceeds 1, one warning above 0.1.  Raises InvalidState when
    the norm drifts by more than TOL_DRIFT over the grid.
    """
    w, v = np.linalg.eigh(h)
    dts = times[1:] - times[:-1]
    steps = (w[:-1, -1] - w[:-1, 0]) / 2.0 * np.abs(dts)
    worst = float(np.maximum.reduce(steps)) if len(steps) else 0.0
    if worst > _MAX_STEP:
        raise GridTooCoarse(f"half spectral width * dt = {worst:.3g} exceeds {_MAX_STEP}")
    if worst > _WARN_STEP:
        warnings.warn(f"half spectral width * dt = {worst:.3g} above {_WARN_STEP}; "
                      "grid may be coarse", stacklevel=3)
    u = _eigenbasis_operators(v[:-1], _phases(w[:-1], dts[:, None]))
    states = np.empty((len(times), len(psi0)), dtype=complex)
    states[0] = psi0
    # row views taken once; ndarray.dot writes each step in place without a
    # ufunc call per step, and must stay bit for bit what np.matmul gives
    rows = list(states)
    for u_k, src, dst in zip(list(u), rows, rows[1:]):
        u_k.dot(src, dst)
    # np.linalg.norm(states, axis=1), by its own formula, without its wrapper
    norms = np.sqrt(np.add.reduce((states.conj() * states).real, axis=1))
    drift = float(np.maximum.reduce(np.abs(norms - 1.0)))
    if drift > TOL_DRIFT:
        raise InvalidState(f"norm drift {drift:.3e} over the grid")
    return states, w, v


def _stacked_speeds(w: np.ndarray, v: np.ndarray,
                    states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """instantaneous_speed and energy spread at every grid point from the stacked eigendata.

    Column weights |V† psi|^2 give the spread through ``_moments``; for
    the speed they are summed per level, levels being grouped by the
    rule of SpectralHamiltonian (``_cluster_levels`` at TOL_DEGEN).
    Unused level slots carry zero weight and drop out.
    """
    weights = np.abs(np.einsum("kji,kj->ki", v.conj(), states)) ** 2
    levels, level_of = _cluster_levels(w)
    member = level_of[:, :, None] == np.arange(levels.shape[1])   # (k, column, level)
    r = np.einsum("kj,kjm->km", weights, member)
    speeds = np.sqrt(np.maximum(0.0, np.einsum("kp,kpq,kq->k", r, gap_squared_matrix(levels), r)))
    return speeds, _moments(weights, w)[1]


def evolve(psi0, path: HamiltonianPath) -> Trajectory:
    """Piecewise-constant-exponential integrator over the path's grid.

    Each step applies exp(-i H(t_k) dt_k) exactly, from one stacked
    eigendecomposition of the path's samples.  Raises GridTooCoarse when
    the half spectral width (lambda_max - lambda_min) / 2 times dt
    exceeds 1, before any step is taken; warns once above 0.1.  A global
    shift of H changes only the phase and so does not move the guard,
    nor the speeds and spreads.  A state whose length is not the path's
    dimension raises DimensionMismatch first.
    """
    psi0 = validate_state_vector(psi0)
    _check_dims(psi0, path.samples.shape[1:])
    states, w, v = _propagate(psi0, path.times, path.samples)
    return _trusted(Trajectory, path.times, states, *_stacked_speeds(w, v, states))


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
