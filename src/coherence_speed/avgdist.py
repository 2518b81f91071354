"""Permutation-averaged evolution distance: brute force and closed form.

Fix a Hamiltonian with distinct levels lambda_0 < ... < lambda_{M-1}
and eigenprojectors P_0..P_{M-1}.  Reassigning the level values to the
projector blocks in every possible order gives M! isospectral
Hamiltonians H_s = sum_m lambda_m P_{s(m)}.  The quantity of interest
is the average squared-Hellinger distance between a state and its
time-t evolutions across that family:

    sbar(t) = (1/M!) sum_s D(rho, exp(-i H_s t) rho exp(i H_s t)).

The closed form factorizes the average into a state-independent
oscillatory coefficient and the affinity coherence of the state with
respect to the eigenprojector decomposition:

    sbar(t) = 2 (1 - B(t)) c_half(rho),
    B(t)    = 2 / (M (M - 1)) * sum_{m<n} cos((lambda_m - lambda_n) t).

``avg_distance_bruteforce`` evaluates the sum literally and is kept as
an independent oracle for the closed form.  It works in the eigenbasis
V of H, where every U_s is the diagonal phase row
phi_s = exp(-i lambda_s t) of the orbit (``_orbit_diagonals``): it forms
R = V† rho V and Q = V† sqrt(rho) V once, builds every evolved state
S_s = phi_s R phi_s† elementwise (sigma_s = U_s rho U_s† in the basis V)
and takes each term from S_s's own checked eigendecomposition, one
stacked diagonalization per chunk of the orbit, as
``hellinger(R, S_s, sqrt_rho=Q)``.  It never uses
sqrt(S_s) = phi_s Q phi_s†, i.e. sqrt(sigma_s) = U_s sqrt(rho) U_s†,
which is the closed form's own derivation step; the change of basis V
is fixed and applies to rho as a whole, so it removes no dependence on
s.  ``_orbit_mean`` (capped at BRUTE_FORCE_CAP levels, averaged with the
correctly rounded ``math.fsum``) is the one loop over the orbit, and with
``_closed_form`` also serves ``channels.theorem3_bound`` and
``battery.qudit_battery_bound``, which build the full U_s from the same
phase rows (``_eigenbasis_operators``).

For a pure state rho = |psi><psi| every sigma_s is pure too, and its
affinity with rho is |<psi|U_s|psi>|^2, so ``_bruteforce_pure`` takes
each term from the state vector with no square root and no dead band.
It stays independent of the closed form: U_s is the full matrix built
from the same phase rows, psi is used as given, and
no eigenspace weight r_m = <psi|P_m|psi> enters, since
sum_m r_m exp(-i lambda_s(m) t) is one step from the closed form's own
derivation.  Mixed states keep the eigendecomposition of every S_s; the
path is chosen by what the caller holds (a vector or a matrix), never by
thresholding eigenvalues of rho.

``b_coefficient`` also takes an array of times and returns B at each of
them from one (T, pairs) cosine array, bit for bit the per-point value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .coherence import _c_half, _c_l1
from .errors import DegenerateSpectrum, DimensionMismatch, SingleLevel, TooManyLevels
from .linalg import (
    TOL_DEGEN,
    SpectralHamiltonian,
    _eigenbasis_operators,
    _orbit_diagonals,
    dagger,
    matrix_sqrt_psd,
    validate_density,
)
from .metrics import hellinger

BRUTE_FORCE_CAP = 8  # 8! = 40320 permutations


def avg_distance_bruteforce(rho, ham: SpectralHamiltonian, t: float) -> float:
    """Literal permutation average of D(rho, U_s rho U_s†) (correctly rounded sum).

    Permutations are enumerated in lexicographic order.  Raises
    TooManyLevels when the distinct level count exceeds BRUTE_FORCE_CAP.
    """
    return _bruteforce(validate_density(rho), ham, t)


def _bruteforce(rho: np.ndarray, ham: SpectralHamiltonian, t: float,
                sqrt_rho: np.ndarray | None = None) -> float:
    """avg_distance_bruteforce of a state that has passed validate_density, in the
    eigenbasis of ham (module docstring); sqrt_rho, when given, is matrix_sqrt_psd(rho)."""
    v = ham.eigenvectors
    vh = dagger(v)
    r = vh @ rho @ v
    q = vh @ (matrix_sqrt_psd(rho) if sqrt_rho is None else sqrt_rho) @ v
    return _orbit_mean(ham, lambda lam: np.exp(-1j * lam * t),
                       lambda phi: hellinger(r, phi[:, :, None] * r * phi.conj()[:, None, :],
                                             sqrt_rho=q))


def _bruteforce_pure(psi: np.ndarray, ham: SpectralHamiltonian, t: float) -> float:
    """_bruteforce of |psi><psi| from the unit vector psi: mean of 2 (1 - |<psi|U_s|psi>|^2).

    Each overlap is taken with the full U_s, built from the orbit's
    phase rows, and clipped into [0, 1], as affinity clips.  Raises
    TooManyLevels, before any orbit work, above BRUTE_FORCE_CAP.
    """
    def terms(phi):
        u = _eigenbasis_operators(ham, phi)
        return 2.0 * (1.0 - np.clip(np.abs((u @ psi) @ psi.conj()) ** 2, 0.0, 1.0))

    return _orbit_mean(ham, lambda lam: np.exp(-1j * lam * t), terms)


def _orbit_mean(ham: SpectralHamiltonian, fn, term) -> float:
    """Correctly rounded mean of one term per member of the permutation orbit.

    term maps each chunk of ``_orbit_diagonals(ham, fn)``, the members'
    diagonals in the eigenbasis of ham, to their terms; a term that needs
    the operators V diag(row) V† builds them with ``_eigenbasis_operators``.
    Raises TooManyLevels, before any orbit work, when the distinct level
    count exceeds BRUTE_FORCE_CAP.
    """
    if ham.level_count > BRUTE_FORCE_CAP:
        raise TooManyLevels(f"{ham.level_count} levels exceed brute-force cap {BRUTE_FORCE_CAP}")
    terms = np.concatenate([term(rows) for rows in _orbit_diagonals(ham, fn)])
    return math.fsum(terms) / len(terms)


def _closed_form(rho: np.ndarray, ham: SpectralHamiltonian, t,
                 sqrt_rho: np.ndarray | None = None) -> tuple[float, float, float]:
    """(B(t), c_half(rho), 2 (1 - B(t)) c_half(rho)) for a state that has passed
    validate_density; a single level has B = 1 and distance 0.  For an array
    of times, B and the distance are arrays, except on a single level.
    sqrt_rho, when given, is matrix_sqrt_psd(rho)."""
    coh = _c_half(rho, ham.decomposition, sqrt_rho)
    coef = 1.0 if ham.level_count == 1 else b_coefficient(ham.levels, t)
    return coef, coh, 2.0 * (1.0 - coef) * coh


def a_coefficient(eigenvalues, t):
    """Oscillatory coefficient for a nondegenerate spectrum.

    A(t) = 2 / (d (d - 1)) * sum_{m<n} cos((lambda_m - lambda_n) t);
    requires pairwise-distinct eigenvalues.  An array of times gives an
    array of coefficients of the same shape.
    """
    lam = np.sort(np.asarray(eigenvalues, dtype=float).reshape(-1))
    if len(lam) < 2:
        raise SingleLevel("need at least two eigenvalues")
    if np.min(np.diff(lam)) <= TOL_DEGEN:
        raise DegenerateSpectrum("eigenvalues are not pairwise distinct; "
                                 "group levels and use b_coefficient")
    return _pair_cos_mean(lam, t)


def b_coefficient(levels, t):
    """Oscillatory coefficient over the distinct levels of a degenerate spectrum.

    An array of times gives an array of coefficients of the same shape.
    """
    lam = np.sort(np.asarray(levels, dtype=float).reshape(-1))
    if len(lam) < 2:
        raise SingleLevel("one distinct level: the averaged distance is identically 0")
    return _pair_cos_mean(lam, t)


@functools.lru_cache(maxsize=64)
def _upper_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(d, k=1), the level pairs m < n in row order, built once per d (read-only)."""
    pairs = np.triu_indices(d, k=1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _pair_cos_mean(lam: np.ndarray, t):
    """Mean of cos((lambda_m - lambda_n) t) over the pairs m < n: float, or array for array t."""
    d = len(lam)
    m, n = _upper_pairs(d)
    mean = 2.0 * np.cos(np.multiply.outer(t, lam[m] - lam[n])).sum(axis=-1) / (d * (d - 1))
    return float(mean) if np.ndim(mean) == 0 else mean


@dataclass(frozen=True)
class AvgDistanceResult:
    """One grid point of the averaged-distance identity.

    brute_force is None when the permutation count was over the cap or
    the caller skipped it.
    """

    t: float
    brute_force: float | None
    closed_form: float
    coefficient: float
    coherence: float

    @property
    def gap(self) -> float | None:
        if self.brute_force is None:
            return None
        return abs(self.brute_force - self.closed_form)


def avg_distance_closed(rho, ham: SpectralHamiltonian, t: float,
                        *, include_brute: bool | None = None) -> AvgDistanceResult:
    """Closed form 2 (1 - B(t)) c_half(rho), optionally with the brute-force value.

    include_brute defaults to "when the level count is within the cap".
    A single-level Hamiltonian gives coefficient 1 and distance 0.
    """
    rho = validate_density(rho)
    sqrt_rho = matrix_sqrt_psd(rho)         # one root serves c_half and the oracle
    coef, coh, closed = _closed_form(rho, ham, t, sqrt_rho)
    if include_brute is None:
        include_brute = ham.level_count <= BRUTE_FORCE_CAP
    brute = _bruteforce(rho, ham, t, sqrt_rho) if include_brute else None
    return AvgDistanceResult(t=float(t), brute_force=brute, closed_form=closed,
                             coefficient=coef, coherence=coh)


def benchmark_overlap_check(eigenvalues, phases, t: float) -> tuple[float, float]:
    """Two routes to the oscillatory coefficient for a nondegenerate spectrum.

    Left: A(t) from the pairwise-cosine sum.  Right: the survival
    probability of the uniform superposition with arbitrary fixed
    phases, rescaled as d/(d-1) * (|<phi_0|phi_t>|^2 - 1/d).  The result
    does not depend on the phases.
    """
    lam = np.asarray(eigenvalues, dtype=float).reshape(-1)
    th = np.asarray(phases, dtype=float).reshape(-1)
    d = len(lam)
    if len(th) != d:
        raise DimensionMismatch("one phase per eigenvalue required")
    lhs = a_coefficient(lam, t)
    amp0 = np.exp(1j * th) / np.sqrt(d)
    ampt = amp0 * np.exp(-1j * lam * t)
    overlap = abs(np.vdot(amp0, ampt)) ** 2
    rhs = d / (d - 1.0) * (overlap - 1.0 / d)
    return lhs, float(rhs)


def l1_upper_bound_check(rho, ham: SpectralHamiltonian, t: float) -> tuple[float, float]:
    """Averaged distance vs its off-diagonal-sum ceiling for nondegenerate spectra.

    Returns (sbar, bound) with bound = 4 (1 - A(t)) / (d - 1) * c_l1(rho)
    in the Hamiltonian eigenbasis; sbar <= bound.
    """
    rho = validate_density(rho)
    d = ham.dim
    if ham.level_count != d:
        raise DegenerateSpectrum("bound stated for nondegenerate spectra only")
    if d < 2:
        raise SingleLevel("need at least two eigenvalues")
    coef, _, sbar = _closed_form(rho, ham, t)
    return sbar, 4.0 * (1.0 - coef) / (d - 1.0) * _c_l1(rho, ham.eigenvectors)
