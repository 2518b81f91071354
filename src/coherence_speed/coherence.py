"""Coherence measures relative to an orthogonal decomposition.

The central quantity is the affinity-based coherence of a state rho
with respect to a complete projector family {P_m}:

    c_half(rho) = 1 - sum_m Tr[(P_m sqrt(rho) P_m)^2].

It vanishes exactly on block-diagonal (incoherent) states, is invariant
under unitaries that preserve each block, and equals the affinity
distance from rho to the closest incoherent state

    sigma* = (1/N) sum_m (P_m sqrt(rho) P_m)^2,   N = sum_m Tr[(P_m sqrt(rho) P_m)^2],

so that c_half(rho) = 1 - [Tr sqrt(rho) sqrt(sigma*)]^2.

Each function works on the decomposition's (M, d, d) projector stack
as a whole, never on one projector at a time.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInput, DimensionMismatch
from .linalg import (
    TOL_NORM,
    TOL_PSD,
    TOL_STRUCT,
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


def _c_half(rho: np.ndarray, decomposition: OrthogonalDecomposition,
            sqrt_rho: np.ndarray | None = None) -> float:
    """c_half of a state that has passed validate_density; sqrt_rho, when
    given, is matrix_sqrt_psd(rho)."""
    if rho.shape[0] != decomposition.dim:
        raise DimensionMismatch("state dimension does not match decomposition")
    s = matrix_sqrt_psd(rho) if sqrt_rho is None else sqrt_rho
    _, traces = _block_traces(s, decomposition.projectors)
    return max(0.0, 1.0 - float(np.sum(traces)))


def _block_traces(s: np.ndarray, projectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Blocks X_m = P_m S P_m of a Hermitian S and their weights Tr[X_m^2].

    projectors is a stack (..., M, d, d) and S broadcasts against it.
    Tr[X^2] = <X, X> for Hermitian X, taken as a row-by-column product
    of the flattened block, which rounds as np.vdot does.
    """
    x = projectors @ s @ projectors
    flat = x.reshape(x.shape[:-2] + (-1,))
    return x, (flat.conj()[..., None, :] @ flat[..., None])[..., 0, 0].real


def closest_incoherent(rho, decomposition: OrthogonalDecomposition) -> np.ndarray:
    """Block-diagonal state closest to rho in affinity distance.

    Blocks whose weight Tr[(P_m sqrt(rho) P_m)^2] falls below TOL_PSD
    contribute nothing.
    """
    rho = validate_density(rho)
    if rho.shape[0] != decomposition.dim:
        raise DimensionMismatch("state dimension does not match decomposition")
    x, weights = _block_traces(matrix_sqrt_psd(rho), decomposition.projectors)
    keep = weights >= TOL_PSD
    if not keep.any():
        raise DegenerateInput("all block weights vanish")
    x = x[keep]
    # running sum in block order: np.sum pairs terms differently from 8 on
    total = np.cumsum(weights[keep])[-1]
    return hermitianize((x @ x).sum(axis=0) / total)


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
    return ham.decomposition._weights(psi)


def is_maximally_coherent(psi, decomposition: OrthogonalDecomposition) -> bool:
    """True when every block norm ||P_m psi|| equals 1/sqrt(M) within TOL_NORM."""
    psi = validate_state_vector(psi)
    if decomposition.dim != len(psi):
        raise DimensionMismatch("state dimension does not match decomposition")
    norms = np.linalg.norm(decomposition.projectors @ psi, axis=-1)
    return not (np.abs(norms - 1.0 / np.sqrt(decomposition.size)) > TOL_NORM).any()


def is_refinement(fine: OrthogonalDecomposition, coarse: OrthogonalDecomposition) -> bool:
    """True when every coarse projector is a sum of a subset of fine projectors (to TOL_STRUCT)."""
    if fine.dim != coarse.dim:
        raise DimensionMismatch("decompositions live on different spaces")
    p, q = coarse.projectors, fine.projectors
    # inside[m, k]: fine block k lies in coarse block m; each goes to its first home
    inside = ~(np.abs(p[:, None] @ q - q).max(axis=(-2, -1)) > TOL_STRUCT)
    if not inside.any(axis=0).all():
        return False
    home = inside.argmax(axis=0)
    totals = np.einsum("mk,kij->mij", home == np.arange(len(p))[:, None], q)
    return not (np.linalg.norm(totals - p, axis=(-2, -1)) > TOL_STRUCT).any()
