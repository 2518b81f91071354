"""Coherence measures relative to an orthogonal decomposition.

The central quantity is the affinity-based coherence of a state rho
with respect to a complete projector family {P_m}:

    c_half(rho) = 1 - sum_m Tr[(P_m sqrt(rho) P_m)^2].

It vanishes exactly on block-diagonal (incoherent) states, is invariant
under unitaries that preserve each block, and equals the affinity
distance from rho to the closest incoherent state

    sigma* = (1/N) sum_m (P_m sqrt(rho) P_m)^2,   N = sum_m Tr[(P_m sqrt(rho) P_m)^2],

so that c_half(rho) = 1 - [Tr sqrt(rho) sqrt(sigma*)]^2.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInput, DimensionMismatch
from .linalg import (
    TOL_PSD,
    OrthogonalDecomposition,
    SpectralHamiltonian,
    hermitianize,
    matrix_sqrt_psd,
    validate_density,
    validate_state_vector,
)


def c_half(rho, decomposition: OrthogonalDecomposition) -> float:
    """Affinity coherence 1 - sum_m Tr[(P_m sqrt(rho) P_m)^2], in [0, 1)."""
    return _c_half(validate_density(rho), decomposition)


def _c_half(rho: np.ndarray, decomposition: OrthogonalDecomposition) -> float:
    """c_half of a state that has passed validate_density."""
    if rho.shape[0] != decomposition.dim:
        raise DimensionMismatch("state dimension does not match decomposition")
    s = matrix_sqrt_psd(rho)
    traces = np.empty(decomposition.size)
    for m, p in enumerate(decomposition.projectors):
        x = p @ s @ p
        traces[m] = np.vdot(x, x).real  # = Tr[X^2] for Hermitian X
    return max(0.0, 1.0 - float(np.sum(traces)))


def closest_incoherent(rho, decomposition: OrthogonalDecomposition) -> np.ndarray:
    """Block-diagonal state closest to rho in affinity distance.

    Blocks whose weight Tr[(P_m sqrt(rho) P_m)^2] falls below the PSD
    tolerance contribute nothing.
    """
    rho = validate_density(rho)
    if rho.shape[0] != decomposition.dim:
        raise DimensionMismatch("state dimension does not match decomposition")
    s = matrix_sqrt_psd(rho)
    d = rho.shape[0]
    total = 0.0
    acc = np.zeros((d, d), dtype=complex)
    for p in decomposition.projectors:
        x = p @ s @ p
        w = np.vdot(x, x).real
        if w < TOL_PSD:
            continue
        acc += x @ x
        total += w
    if total < TOL_PSD:
        raise DegenerateInput("all block weights vanish")
    return hermitianize(acc / total)


def c_l1(rho, basis: np.ndarray | None = None) -> float:
    """Sum of off-diagonal magnitudes sum_{i != j} |rho_ij| in the given basis.

    basis columns default to the computational basis.
    """
    return _c_l1(validate_density(rho), basis)


def _c_l1(rho: np.ndarray, basis: np.ndarray | None) -> float:
    """c_l1 of a state that has passed validate_density."""
    if basis is not None:
        v = np.asarray(basis, dtype=complex)
        if v.shape != rho.shape:
            raise DimensionMismatch("basis shape does not match state")
        rho = v.conj().T @ rho @ v
    a = np.abs(rho)
    return float(a.sum() - np.trace(a))


def coherence_vector(psi, ham: SpectralHamiltonian) -> np.ndarray:
    """Eigenspace weights ||P_m psi||^2 of a pure state, one per distinct level."""
    psi = validate_state_vector(psi)
    if ham.dim != len(psi):
        raise DimensionMismatch("state/Hamiltonian dimensions differ")
    return np.array([float(np.vdot(psi, p @ psi).real)
                     for p in ham.decomposition.projectors])


def is_maximally_coherent(psi, decomposition: OrthogonalDecomposition,
                          tol: float = 1e-9) -> bool:
    """True when every block norm ||P_m psi|| equals 1/sqrt(M) within tol."""
    psi = validate_state_vector(psi)
    if decomposition.dim != len(psi):
        raise DimensionMismatch("state dimension does not match decomposition")
    target = 1.0 / np.sqrt(decomposition.size)
    for p in decomposition.projectors:
        if abs(float(np.linalg.norm(p @ psi)) - target) > tol:
            return False
    return True


def is_refinement(fine: OrthogonalDecomposition, coarse: OrthogonalDecomposition,
                  tol: float = 1e-8) -> bool:
    """True when every coarse projector is a sum of a subset of fine projectors."""
    if fine.dim != coarse.dim:
        raise DimensionMismatch("decompositions live on different spaces")
    assigned: list[list[np.ndarray]] = [[] for _ in range(coarse.size)]
    for q in fine.projectors:
        home = None
        for m, p in enumerate(coarse.projectors):
            if np.max(np.abs(p @ q - q)) <= tol:
                home = m
                break
        if home is None:
            return False
        assigned[home].append(q)
    for m, p in enumerate(coarse.projectors):
        total = sum(assigned[m]) if assigned[m] else np.zeros_like(p)
        if np.linalg.norm(total - p) > tol:
            return False
    return True
