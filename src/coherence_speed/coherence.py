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

from .errors import DimensionMismatch
from .linalg import (
    TOL_PSD,
    TOL_STRUCT,
    OrthogonalDecomposition,
    _Density,
    hermitianize,
    validate_density,
)


def c_half(rho, decomposition: OrthogonalDecomposition) -> float:
    """Affinity coherence 1 - sum_m Tr[(P_m sqrt(rho) P_m)^2], in [0, 1)."""
    root = _Density.of(rho).root
    if len(root) != decomposition.dim:
        raise DimensionMismatch("state dimension does not match decomposition")
    return _c_halves(root[None], decomposition.projectors[None])[0]


def _c_halves(roots: np.ndarray, projectors: np.ndarray) -> list[float]:
    """c_half of each root sqrt(rho) of a stack (n, d, d), each the root of a checked state or
    of a package-built joint, against its own family, projectors (n, M, d, d) of one level
    count: one ``_block_traces`` and one floor for the stack."""
    _, traces = _block_traces(roots[:, None], projectors)
    # the floor max(0, c) as np.maximum, which keeps a NaN where Python's max gives 0.0
    return np.maximum(1.0 - np.add.reduce(traces, -1), 0.0).tolist()


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
    contribute nothing; one always stays, since Tr sqrt(rho) >= 1 and Tr X^2 >=
    (Tr X)^2 / d put the largest weight at 1 / (M^2 d) or more.
    """
    state = _Density.of(rho)
    if len(state.rho) != decomposition.dim:
        raise DimensionMismatch("state dimension does not match decomposition")
    x, weights = _block_traces(state.root, decomposition.projectors)
    keep = weights >= TOL_PSD
    x = x[keep]
    # running sum in block order: np.sum pairs terms differently from 8 on
    total = np.cumsum(weights[keep])[-1]
    return hermitianize((x @ x).sum(axis=0) / total)


def c_l1(rho) -> float:
    """Sum of off-diagonal magnitudes sum_{i != j} |rho_ij| in the computational basis."""
    a = np.abs(validate_density(rho))
    return float(a.sum() - np.trace(a))


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
