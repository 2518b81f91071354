"""Distances between quantum states and reference speed-limit bounds.

The workhorse is the squared-Hellinger distance

    D(rho, sigma) = Tr (sqrt(rho) - sqrt(sigma))^2 = 2 (1 - Tr sqrt(rho) sqrt(sigma)),

which ranges over [0, 2], vanishes iff the states coincide, and is
monotone (non-increasing) under completely positive trace-preserving
maps.  ``affinity`` is the overlap Tr sqrt(rho) sqrt(sigma) in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import _moments
from .errors import DimensionMismatch
from .linalg import (
    TOL_ZERO,
    SpectralHamiltonian,
    _band_sqrt,
    _checked_density,
    _rebuild,
    dagger,
    validate_state_vector,
)


def affinity(rho, sigma) -> float | np.ndarray:
    """Overlap Tr sqrt(rho) sqrt(sigma), clipped into [0, 1].

    Either state may be a stack (..., d, d), broadcast against the other; the result is then
    an array of overlaps, each clipped.  Each argument, rho first, passes the one density check
    (``_checked_density``), whose eigendata give the roots, with the dead band of matrix_sqrt_psd.
    sqrt(sigma) = W diag(sqrt w) W† is never formed: the overlap is
    sum_j sqrt(w_j) Re (W† sqrt(rho) W)_jj.
    """
    w, v = _checked_density(rho, stack=True)[2:]
    w_sigma, v_sigma = _checked_density(sigma, stack=True)[2:]
    return _overlap(_rebuild(_band_sqrt(w), v), _band_sqrt(w_sigma), v_sigma)


def _overlap(a: np.ndarray, roots: np.ndarray, w: np.ndarray) -> float | np.ndarray:
    """affinity from sqrt(rho) = a and the roots and eigenvectors of sigma (or each of a stack)."""
    if a.shape[-2:] != w.shape[-2:]:
        raise DimensionMismatch(f"shapes {a.shape} and {w.shape} differ")
    # (W† a W)_jj = sum_i conj(W_ij) (a W)_ij; np.add.reduce is .sum without its wrapper
    diag = np.add.reduce((a @ w) * w.conj(), -2).real
    val = np.add.reduce(roots * diag, -1).clip(0.0, 1.0)
    return float(val) if val.ndim == 0 else val


def hellinger(rho, sigma) -> float | np.ndarray:
    """Squared-Hellinger distance 2 (1 - Tr sqrt(rho) sqrt(sigma)) in [0, 2].

    Stacks of states give an array of distances, as for affinity.
    """
    return 2.0 * (1.0 - affinity(rho, sigma))


def _hellinger(a: np.ndarray, roots: np.ndarray, w: np.ndarray) -> float | np.ndarray:
    """hellinger from sqrt(rho) = a and the roots and eigenvectors of sigma."""
    return 2.0 * (1.0 - _overlap(a, roots, w))


def d_affinity_half(rho, sigma) -> float:
    """Affinity distance 1 - [Tr sqrt(rho) sqrt(sigma)]^2 in [0, 1]."""
    a = affinity(rho, sigma)
    return 1.0 - a * a


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity [Tr sqrt(sqrt(rho) sigma sqrt(rho))]^2, clipped into [0, 1], of two states
    (DimensionMismatch for a stack: its eigenvalues would be summed across its members)."""
    w, v = _checked_density(rho)[2:]
    sig = _checked_density(sigma)[0]
    s = _rebuild(_band_sqrt(w), v)
    if sig.shape != s.shape:
        raise DimensionMismatch(f"shapes {s.shape} and {sig.shape} differ")
    m = s @ sig @ s
    # the dead band of matrix_sqrt_psd: the sqrt of a ~1e-16
    # eigensolver ghost would otherwise contribute ~1e-8 to the sum
    val = float(np.sum(_band_sqrt(np.linalg.eigvalsh((m + m.conj().T) / 2.0)))) ** 2
    return float(np.clip(val, 0.0, 1.0))


def bures_angle(rho, sigma) -> float:
    """Bures angle arccos(sqrt(F)) in [0, pi/2]."""
    return float(np.arccos(np.sqrt(fidelity(rho, sigma))))


@dataclass(frozen=True)
class QslBounds:
    """Minimum-time bounds for traversing a given Bures angle.

    mt_time uses the energy spread, ml_time the mean energy above the
    ground level.  Either is None when the corresponding denominator
    vanishes (stationary state / ground state), meaning "no bound".
    The ml_time form is the familiar linear-in-angle expression; it is
    guaranteed as a floor only at orthogonality (angle pi/2), which is
    where the verification suite asserts it.
    """

    bures_angle: float
    mean_energy: float
    energy_stddev: float
    mt_time: float | None
    ml_time: float | None


def qsl_bounds(psi0, ham: SpectralHamiltonian, psi1) -> QslBounds:
    """Speed-limit times for evolving psi0 to psi1 under the given Hamiltonian.

    psi0 and psi1 are validated, in that order, before the dimensions
    are compared; the bounds are row 0 of ``_qsl_grid``.  mean_energy
    is measured from the bottom of the spectrum (H - lambda_min), the
    standard convention for the mean-energy bound.  It and
    energy_stddev come from the level gaps, so a constant shift of the
    spectrum leaves both unchanged.
    """
    psi0 = validate_state_vector(psi0)
    psi1 = validate_state_vector(psi1)
    if ham.dim != len(psi0) or len(psi1) != len(psi0):
        raise DimensionMismatch("state/Hamiltonian dimensions differ")
    angles, mean, stddev = _qsl_grid(psi0, ham, psi1[None])
    angle = angles.item()
    mt, ml = _limit_times(angle, mean, stddev)
    return QslBounds(bures_angle=angle, mean_energy=mean, energy_stddev=stddev,
                     mt_time=mt, ml_time=ml)


def _limit_times(angles, mean: float, stddev: float):
    """(mt_time, ml_time): angles / stddev and angles / mean, for one angle or an array.

    Either is None, "no bound", when its denominator is at most
    TOL_ZERO (a stationary state, the ground state).
    """
    return (angles / stddev if stddev > TOL_ZERO else None,
            angles / mean if mean > TOL_ZERO else None)


_SIGNS = np.array([[-1.0], [1.0]], dtype=complex)
_PAIR = np.dtype((np.float64, 2))       # a complex number viewed as (re, im)


def _qsl_grid(psi0: np.ndarray, ham: SpectralHamiltonian,
              targets: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Bures angles from psi0 to each row of targets (n, d) in one array pass, with the moments.

    Returns the angles and the energy mean above the ground level and the energy spread of
    psi0, which every row shares (``_moments``).  Nothing is validated: psi0 is a checked state
    of the Hamiltonian's dimension and the rows are unit vectors, such as states evolved from
    psi0 in the trusted eigenbasis.  Each angle equals, bit for bit, the one a loop over the rows
    takes from np.vdot, abs and np.linalg.norm: the conjugated overlaps come from the same zdotc
    with its arguments swapped, the phases from real divisions by the same hypot and the norms
    from the same ddot.  A single row, as every ``qsl_bounds`` call passes, takes its phase in
    Python scalars.  The masked division gives it the same bits (the ``test_qsl_grid_*`` cases
    pin both); the scalar path is kept for its cost, 0.13 us against 4.3 us, in a 22 us
    ``qsl_bounds`` call at d = 4 (one BLAS thread, one Xeon core), and ``qsl_bounds`` is a
    quarter of the library calls of perfbench's measure workload.
    """
    weights = np.abs(dagger(ham.eigenvectors) @ psi0) ** 2
    mean, stddev = _moments(weights, ham.eigenvalues)
    # arccos of the overlap magnitude loses half the working precision
    # near coinciding states (one ulp below 1 reads as a 2e-8 angle), so
    # evaluate the same angle in phase-aligned difference form instead:
    # rotate each row by conj(overlap) / |overlap| unless the overlap vanishes.
    conj = np.vecdot(targets, psi0)     # <psi1|psi0>, the conjugated overlap of each row
    if len(conj) == 1:
        c = conj.item()
        mag = abs(c)
        phase = c / mag if mag > TOL_ZERO else 1.0
    else:
        pairs = conj.view(_PAIR)
        mag = np.hypot(pairs[:, :1], pairs[:, 1:])
        phase = np.ones(len(conj), dtype=complex)
        np.divide(pairs, mag, out=phase.view(_PAIR), where=mag > TOL_ZERO)
        phase = phase[:, None]
    # (aligned - psi0, aligned + psi0) for each row, and their norms
    pair = (targets * phase)[:, None, :] + psi0 * _SIGNS
    norms = np.sqrt(np.vecdot(pair.real, pair.real) + np.vecdot(pair.imag, pair.imag))
    angles = np.arctan2(norms[:, 0], norms[:, 1])
    return np.minimum(angles + angles, np.pi / 2), float(mean), float(stddev)
