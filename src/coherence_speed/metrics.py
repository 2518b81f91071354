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

from .dynamics import _energy_moments
from .errors import DimensionMismatch
from .linalg import (
    TOL_PSD,
    TOL_ZERO,
    SpectralHamiltonian,
    _sqrt_eig,
    matrix_sqrt_psd,
    validate_state_vector,
)


def affinity(rho, sigma, *, sqrt_rho: np.ndarray | None = None) -> float | np.ndarray:
    """Overlap Tr sqrt(rho) sqrt(sigma), clipped into [0, 1].

    Either state may be a stack (..., d, d), broadcast against the
    other; the result is then an array of overlaps, each clipped.
    A precomputed sqrt(rho) may be supplied to avoid repeated
    diagonalizations in tight loops.  sqrt(sigma) = W diag(sqrt w) W†
    is never formed: sigma gets its own checked eigendecomposition
    (``_sqrt_eig``, with the checks and dead band of matrix_sqrt_psd)
    and the overlap is sum_j sqrt(w_j) Re (W† sqrt(rho) W)_jj.
    """
    a = matrix_sqrt_psd(rho) if sqrt_rho is None else sqrt_rho
    roots, w = _sqrt_eig(sigma)
    if a.shape[-2:] != w.shape[-2:]:
        raise DimensionMismatch(f"shapes {a.shape} and {w.shape} differ")
    # (W† a W)_jj = sum_i conj(W_ij) (a W)_ij
    diag = ((a @ w) * w.conj()).sum(axis=-2).real
    val = (roots * diag).sum(axis=-1).clip(0.0, 1.0)
    return float(val) if val.ndim == 0 else val


def hellinger(rho, sigma, *, sqrt_rho: np.ndarray | None = None) -> float | np.ndarray:
    """Squared-Hellinger distance 2 (1 - Tr sqrt(rho) sqrt(sigma)) in [0, 2].

    Stacks of states give an array of distances, as for affinity.
    """
    return 2.0 * (1.0 - affinity(rho, sigma, sqrt_rho=sqrt_rho))


def d_affinity_half(rho, sigma) -> float:
    """Affinity distance 1 - [Tr sqrt(rho) sqrt(sigma)]^2 in [0, 1]."""
    a = affinity(rho, sigma)
    return 1.0 - a * a


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity [Tr sqrt(sqrt(rho) sigma sqrt(rho))]^2, clipped into [0, 1]."""
    s = matrix_sqrt_psd(rho)
    _sqrt_eig(sigma)            # the checks affinity makes of sigma: NotHermitian, NotPSD
    sig = np.asarray(sigma, dtype=complex)
    if sig.shape != s.shape:
        raise DimensionMismatch(f"shapes {s.shape} and {sig.shape} differ")
    m = s @ sig @ s
    w = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    # the dead band of matrix_sqrt_psd: the sqrt of a ~1e-16
    # eigensolver ghost would otherwise contribute ~1e-8 to the sum
    w = np.where(w < TOL_PSD, 0.0, w)
    val = float(np.sum(np.sqrt(w))) ** 2
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

    mean_energy is measured from the bottom of the spectrum
    (H - lambda_min), the standard convention for the mean-energy bound.
    """
    return _qsl_grid(psi0, ham, [psi1])[0]


def _qsl_grid(psi0, ham: SpectralHamiltonian, targets) -> list[QslBounds]:
    """qsl_bounds(psi0, ham, psi1) for each psi1 of targets, in order.

    psi0 and every target are validated, in that order, before the
    dimensions are compared; the energy moments of psi0, which every
    target shares, are formed once.
    """
    psi0 = validate_state_vector(psi0)
    targets = [validate_state_vector(psi1) for psi1 in targets]
    if ham.dim != len(psi0) or any(len(psi1) != len(psi0) for psi1 in targets):
        raise DimensionMismatch("state/Hamiltonian dimensions differ")
    e, stddev = _energy_moments(psi0, ham.matrix())
    mean_shifted = e - float(ham.eigenvalues[0])
    out = []
    for psi1 in targets:
        # arccos of the overlap magnitude loses half the working precision
        # near coinciding states (one ulp below 1 reads as a 2e-8 angle), so
        # evaluate the same angle in phase-aligned difference form instead.
        overlap = complex(np.vdot(psi0, psi1))
        mag = abs(overlap)
        aligned = psi1 * (overlap.conjugate() / mag) if mag > TOL_ZERO else psi1
        half_chord = float(np.linalg.norm(aligned - psi0))
        half_sum = float(np.linalg.norm(aligned + psi0))
        angle = min(2.0 * float(np.arctan2(half_chord, half_sum)), float(np.pi / 2))
        mt = angle / stddev if stddev > TOL_ZERO else None
        ml = angle / mean_shifted if mean_shifted > TOL_ZERO else None
        out.append(QslBounds(bures_angle=angle, mean_energy=mean_shifted,
                             energy_stddev=stddev, mt_time=mt, ml_time=ml))
    return out
