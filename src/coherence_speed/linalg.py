"""Dense complex linear algebra for small Hilbert spaces.

Everything assumes square complex128 operators on spaces of dimension
d <= 16, where exact eigendecompositions are cheap and dense storage is
the right call.  Tensor products follow the convention that the first
factor is the outer (slow) index: ``kron(A, B)`` acts on basis vectors
``|a> x |b>`` ordered as ``a * dim_B + b``.  Units are hbar = 1
throughout the package.

Each numerical tolerance of the library is an absolute constant of this
table, sized for d <= 16 in double precision; none is an argument.  The
verification checks declare their own.  Columns: value, bound, sites.

  TOL_HERM    1e-9   max|A - A†|: is_hermitian, require_hermitian and callers, validate_density
  TOL_NORM    1e-9   a norm vs its target: states, env_state, qubit amplitudes, spin axes, blocks
  TOL_TRACE   1e-9   |Tr rho - 1|: validate_density
  TOL_ORTH    1e-9   max|U†U - I| of dilate's unitary completion
  TOL_PSD     1e-10  dead band: matrix_sqrt_psd, validate_density, fidelity, closest_incoherent
  TOL_DEGEN   1e-9   one level: _cluster_levels, a_coefficient, dilate's fold of -pi onto +pi
  TOL_STRUCT  1e-8   caller structure: projector families, bases, Kraus sums, refinement, purity
  TOL_DRIFT   1e-10  norm drift over an evolve grid
  TOL_ZERO    1e-12  read as zero: qsl overlap and spreads, witness, pulse ends, CLI drive axis
  TOL_REPORT  1e-9   pass tolerance of the sweep, battery, channel and qsl reports without --tol
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    BadPermutation,
    BadRank,
    DimensionMismatch,
    InvalidState,
    NotHermitian,
    NotPSD,
)

TOL_HERM = 1e-9
TOL_NORM = 1e-9
TOL_TRACE = 1e-9
TOL_ORTH = 1e-9
TOL_PSD = 1e-10
TOL_DEGEN = 1e-9
TOL_STRUCT = 1e-8
TOL_DRIFT = 1e-10
TOL_ZERO = 1e-12
TOL_REPORT = 1e-9


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack (..., d, d)."""
    return a.conj().swapaxes(-1, -2)


def hermitianize(a: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (A + A†)/2 (of each matrix, for a stack)."""
    return (a + dagger(a)) / 2.0


def is_hermitian(a: np.ndarray) -> bool:
    """True when max|A - A†| <= TOL_HERM (for every matrix, for a stack).

    A non-finite entry fails before the residual is formed, where
    inf - inf would make numpy warn next to the caller's error.  The
    ufunc reductions skip the Python wrappers of .all() and .max(), which
    offsets part of the cost of the finiteness pass.
    """
    return (bool(np.logical_and.reduce(np.isfinite(a), axis=None))
            and bool(np.maximum.reduce(np.abs(a - dagger(a)), axis=None) <= TOL_HERM))


def _square(a, *, stack: bool = False) -> np.ndarray:
    """a as complex128; a square matrix, or with stack=True also a stack (..., d, d)."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or (a.ndim > 2 and not stack) or a.shape[-2] != a.shape[-1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def require_hermitian(a) -> np.ndarray:
    """a as complex128, a square matrix or a stack (..., d, d), checked Hermitian.

    Raises DimensionMismatch on any other shape and NotHermitian when
    max|A - A†| exceeds TOL_HERM (for any matrix of a stack), or when
    an entry is not finite, which is_hermitian also fails.
    """
    a = _square(a, stack=True)
    if not is_hermitian(a):
        if not np.isfinite(a).all():
            raise NotHermitian("matrix entries are not all finite")
        dev = float(np.max(np.abs(a - dagger(a))))
        raise NotHermitian(f"max |H - H†| = {dev:.3e} exceeds {TOL_HERM:.1e}")
    return a


def hermitian_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a Hermitian matrix.

    A stack (..., d, d) is diagonalized matrix by matrix in one call; it
    raises NotHermitian when any of its matrices does.
    """
    return np.linalg.eigh(require_hermitian(h))


def _sqrt_eig(rho) -> tuple[np.ndarray, np.ndarray]:
    """Roots sqrt(w) of the eigenvalues and the eigenvectors of a PSD matrix or stack.

    Holds every check of matrix_sqrt_psd: NotHermitian (hermitian_eig),
    NotPSD for an eigenvalue below -TOL_PSD, and the dead band, which
    reads eigenvalues below TOL_PSD as exact zeros.
    """
    w, v = hermitian_eig(rho)
    low = w.min() if w.ndim > 1 else w[0]
    if low < -TOL_PSD:
        raise NotPSD(f"eigenvalue {low:.3e} below -{TOL_PSD:.1e}")
    return np.sqrt(np.where(w < TOL_PSD, 0.0, w)), v


def matrix_sqrt_psd(rho) -> np.ndarray:
    """Hermitian square root of a PSD matrix, or of each matrix in a stack (..., d, d).

    Rebuilt as W diag(sqrt w) W† from ``_sqrt_eig``, which holds the
    checks: eigenvalues within TOL_PSD of zero are treated as exact
    zeros (sqrt amplifies eigensolver noise on a singular matrix from
    1e-16 to 1e-8 otherwise); anything below -TOL_PSD raises NotPSD.
    Every matrix of a stack gets its own eigendecomposition and these
    checks.  Callers that only need a trace against the root, as
    ``metrics.affinity`` does, take ``_sqrt_eig`` and skip the rebuild.
    """
    roots, v = _sqrt_eig(rho)
    return hermitianize((v * roots[..., None, :]) @ dagger(v))


def validate_density(rho) -> np.ndarray:
    """Check Hermiticity, positivity, and unit trace; return the array."""
    rho = _square(rho)
    if not is_hermitian(rho):
        raise NotHermitian("density matrix is not Hermitian within tolerance")
    w = np.linalg.eigvalsh(hermitianize(rho))
    if w[0] < -TOL_PSD:
        raise NotPSD(f"density matrix has eigenvalue {w[0]:.3e}")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > TOL_TRACE:
        raise InvalidState(f"trace {tr!r} differs from 1 beyond {TOL_TRACE:.1e}")
    return rho


def validate_state_vector(psi) -> np.ndarray:
    """Check finite entries and unit norm; return the vector as complex128."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    nrm = float(np.linalg.norm(psi))
    if math.isnan(nrm):             # a NaN entry; NaN fails the `>` test below
        raise InvalidState("state entries are not all finite")
    if abs(nrm - 1.0) > TOL_NORM:
        raise InvalidState(f"state norm {nrm!r} differs from 1 beyond {TOL_NORM:.1e}")
    return psi


def pure_density(psi) -> np.ndarray:
    """Projector |psi><psi| for a unit vector."""
    psi = validate_state_vector(psi)
    return np.outer(psi, psi.conj())


def tensor(a, b) -> np.ndarray:
    """Kronecker product with the first factor as the outer (slow) index."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(rho, dims: tuple[int, int], over: int) -> np.ndarray:
    """Trace out one tensor factor of a bipartite operator.

    dims = (d_first, d_second) under the outer-first convention;
    over = 0 removes the first factor, over = 1 the second.  A stack
    (..., d, d) is traced matrix by matrix.
    """
    d0, d1 = int(dims[0]), int(dims[1])
    rho = _square(rho, stack=True)
    if rho.shape[-1] != d0 * d1:
        raise DimensionMismatch(f"shape {rho.shape} incompatible with dims {dims}")
    if over not in (0, 1):
        raise ValueError("over must be 0 (first factor) or 1 (second factor)")
    r = rho.reshape(rho.shape[:-2] + (d0, d1, d0, d1))
    if over == 1:
        return np.einsum("...ijkj->...ik", r)
    return np.einsum("...ijil->...jl", r)


def haar_random_state(dim: int, seed) -> np.ndarray:
    """Haar-distributed unit vector; deterministic given an integer seed."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density(dim: int, rank: int, seed) -> np.ndarray:
    """Random density matrix of the requested rank (Ginibre construction)."""
    if not 1 <= rank <= dim:
        raise BadRank(f"rank {rank} outside 1..{dim}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    a = g @ g.conj().T
    return hermitianize(a / np.trace(a).real)


def random_hermitian(dim: int, seed, scale: float = 1.0) -> np.ndarray:
    """Random Hermitian matrix with O(scale) entries (GUE-like)."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return hermitianize(g) * (scale / np.sqrt(2.0))


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary (QR of a Ginibre matrix with phase fix)."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _block_stack(vectors: np.ndarray, groups: Sequence[Sequence[int]]) -> np.ndarray:
    """V_g V_g† for each group g of columns of V, as one (M, d, d) stack.

    Groups of one size are multiplied as one stack.  Padding smaller
    groups with zero columns would make a single product, but one that
    rounds differently from V_g V_g† itself.
    """
    d = len(vectors)
    sizes = [len(g) for g in groups]
    stack = np.zeros((len(sizes), d, d), dtype=complex)
    for k in set(sizes) - {0}:
        same = [m for m, n in enumerate(sizes) if n == k]
        cols = vectors[:, np.concatenate([groups[m] for m in same])]
        blocks = cols.reshape(d, len(same), k).swapaxes(0, 1)
        stack[same] = blocks @ dagger(blocks)
    return stack


@dataclass
class OrthogonalDecomposition:
    """Complete family of orthogonal projectors P_0..P_{M-1}, stored as one stack.

    ``projectors`` is a complex (M, d, d) array whose m-th matrix is
    P_m, so iterating over it yields the projectors.  The constructor
    takes any sequence of d x d matrices.

    Invariants: each P_m is Hermitian and idempotent, distinct
    projectors annihilate each other, and the family sums to the
    identity.  A family built by a caller (the constructor,
    ``from_basis``, ``computational``) is checked on construction for
    finite entries, then, to TOL_STRUCT, from one matrix product of the
    stacked projectors, and last for empty blocks (trace below 1/2).
    Eigenspace families the package builds itself from an orthonormal
    eigenbasis (``SpectralHamiltonian.from_matrix``, ``from_spectrum``,
    ``permute_levels``) hold the invariants by construction and are not
    checked again.
    """

    projectors: np.ndarray

    def __post_init__(self) -> None:
        projs = tuple(np.asarray(p, dtype=complex) for p in self.projectors)
        if not projs:
            raise ValueError("decomposition needs at least one projector")
        d = projs[0].shape[0]
        # projectors before the first one of another shape are checked first
        m = next((k for k, p in enumerate(projs) if p.shape != (d, d)), len(projs))
        if m:
            rows = np.concatenate(projs[:m])
            # NaN fails no `> tol` residual test below, so reject it here
            if not np.isfinite(rows).all():
                raise ValueError("projector entries are not all finite")
            stack = rows.reshape(m, d, d)
            # every product P_a P_b from one matrix product, as blocks (a, :, b, :)
            prods = (rows @ np.concatenate(projs[:m], 1)).reshape(m, d, m, d)
            diag = np.arange(m)
            prods[diag, :, diag] -= stack
            # bad[a, b]: max|P_a P_b - delta_ab P_a| > tol
            bad = np.abs(prods).max(axis=(1, 3)) > TOL_STRUCT
            herm = np.abs(stack - dagger(stack)).max(axis=(1, 2)) > TOL_STRUCT
            first = np.flatnonzero(herm | bad.diagonal())
            if first.size:
                raise ValueError("projector is not Hermitian" if herm[first[0]]
                                 else "projector is not idempotent")
        if m < len(projs):
            raise DimensionMismatch("projectors must share one square shape")
        a, b = np.nonzero(bad)
        if (a < b).any():
            raise ValueError("projectors are not mutually orthogonal")
        if np.abs(stack.sum(axis=0) - np.eye(d)).max() > TOL_STRUCT:
            raise ValueError("projectors do not sum to the identity")
        # a zero block passes every test above but adds a block to the family
        if (np.einsum("mii->m", stack).real < 0.5).any():
            raise ValueError("projector is empty (trace below 1/2)")
        self.projectors = stack

    @classmethod
    def _trusted(cls, stack: np.ndarray) -> "OrthogonalDecomposition":
        """An (M, d, d) family built inside the package from an orthonormal eigenbasis."""
        dec = cls.__new__(cls)
        dec.projectors = stack
        return dec

    @property
    def dim(self) -> int:
        return self.projectors.shape[-1]

    @property
    def size(self) -> int:
        """Number of blocks M."""
        return len(self.projectors)

    @property
    def block_dims(self) -> tuple[int, ...]:
        ranks = np.trace(self.projectors, axis1=1, axis2=2).real
        return tuple(np.rint(ranks).astype(int).tolist())

    @classmethod
    def from_basis(cls, vectors: np.ndarray,
                   groups: Sequence[Sequence[int]] | None = None) -> "OrthogonalDecomposition":
        """Build projectors from orthonormal columns, optionally grouped into blocks."""
        v = np.asarray(vectors, dtype=complex)
        return cls(_block_stack(v, np.arange(v.shape[1])[:, None] if groups is None else groups))

    @classmethod
    def computational(cls, dim: int,
                      groups: Sequence[Sequence[int]] | None = None) -> "OrthogonalDecomposition":
        """Rank-1 projectors onto the computational basis (or grouped blocks of it)."""
        return cls.from_basis(np.eye(dim, dtype=complex), groups)

    def _weights(self, psi: np.ndarray) -> np.ndarray:
        """Block weights <psi|P_m|psi> = ||P_m psi||^2 of a unit vector, one per block."""
        x = (self.projectors @ psi)[:, :, None]
        # a contiguous copy: r @ A @ r on a strided view of .real rounds differently
        return (psi.conj() @ x)[:, 0].real.copy()

    def dephase(self, rho: np.ndarray) -> np.ndarray:
        """Block-diagonal part sum_m P_m rho P_m."""
        rho = _square(rho)
        if rho.shape[0] != self.dim:
            raise DimensionMismatch("state dimension does not match decomposition")
        return (self.projectors @ rho @ self.projectors).sum(axis=0)


def _cluster_levels(eigvals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group ascending eigenvalues (..., d) into distinct levels by consecutive gap > TOL_DEGEN.

    Each row is grouped on its own.  Returns levels (..., M), M the
    largest level count of any row (a row with fewer holds 0.0 in the
    rest), and level_of (..., d), the level of each eigenvalue.  A level
    is valued at the mean of its cluster; a singleton keeps its
    eigenvalue as is, which is what its mean gives.
    """
    split = eigvals[..., 1:] - eigvals[..., :-1] > TOL_DEGEN
    level_of = np.zeros(eigvals.shape, dtype=int)
    np.cumsum(split, axis=-1, out=level_of[..., 1:])
    levels = np.array(eigvals, dtype=float)     # each eigenvalue its own level ...
    if not split.all():                          # ... unless some clusters merge
        levels = np.zeros(eigvals.shape[:-1] + (int(level_of[..., -1].max()) + 1,))
        np.put_along_axis(levels, level_of, eigvals, axis=-1)
        # a merged cluster, found where its second member joins it, gets its mean
        joins = ~split
        joins[..., 1:] &= split[..., :-1]
        for *row, j in zip(*np.nonzero(joins)):
            row = tuple(row)
            m = level_of[row][j]
            levels[row + (m,)] = np.mean(eigvals[row][level_of[row] == m])
    return levels, level_of


@dataclass
class SpectralHamiltonian:
    """Hermitian operator carried as its full spectral data.

    eigenvalues   -- ascending, length d
    eigenvectors  -- orthonormal columns matching eigenvalues
    levels        -- distinct eigenvalues after degeneracy grouping, ascending
    level_of      -- level index of each eigenvector column
    decomposition -- eigenspace projectors, one per distinct level

    Input is validated where it enters: ``from_matrix`` checks
    Hermiticity, ``from_spectrum`` that the eigenvalues are finite and a
    caller's basis finite and orthonormal to TOL_STRUCT.  The eigenspace
    families built from such a basis, from an ``eigh`` eigenbasis, from
    the computational basis and by ``permute_levels`` are trusted.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    levels: np.ndarray
    level_of: np.ndarray
    decomposition: OrthogonalDecomposition

    @classmethod
    def from_matrix(cls, h) -> "SpectralHamiltonian":
        """Diagonalize a Hermitian matrix and group near-degenerate eigenvalues."""
        w, v = hermitian_eig(_square(h))
        return cls._build(w, v)

    @classmethod
    def from_spectrum(cls, eigenvalues, basis: np.ndarray | None = None) -> "SpectralHamiltonian":
        """Assemble from eigenvalues and an optional orthonormal eigenbasis.

        Defaults to the computational basis; the eigenvalues and a caller's
        basis must be finite (ValueError otherwise), and the basis orthonormal
        to TOL_STRUCT.  Eigenvalues are sorted ascending with the basis
        columns carried along.
        """
        w = np.asarray(eigenvalues, dtype=float).reshape(-1)
        if not np.isfinite(w).all():
            raise ValueError("eigenvalues are not all finite")
        d = len(w)
        if basis is None:
            v = np.eye(d, dtype=complex)
        else:
            v = np.asarray(basis, dtype=complex)
            if v.shape != (d, d):
                raise DimensionMismatch("basis shape does not match eigenvalue count")
            if not np.isfinite(v).all():
                raise ValueError("basis entries are not all finite")
            if np.max(np.abs(v.conj().T @ v - np.eye(d))) > TOL_STRUCT:
                raise ValueError("basis columns are not orthonormal")
        order = np.argsort(w, kind="stable")
        return cls._build(w[order], v[:, order])

    @classmethod
    def _build(cls, w: np.ndarray, v: np.ndarray) -> "SpectralHamiltonian":
        """From ascending eigenvalues and the orthonormal basis that carries them."""
        levels, level_of = _cluster_levels(w)
        stack = _block_stack(v, np.split(np.arange(len(w)), np.flatnonzero(np.diff(level_of)) + 1))
        return cls(eigenvalues=np.asarray(w, dtype=float), eigenvectors=v,
                   levels=levels, level_of=level_of,
                   decomposition=OrthogonalDecomposition._trusted(stack))

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[0]

    @property
    def level_count(self) -> int:
        return len(self.levels)

    def matrix(self) -> np.ndarray:
        """Reconstruct the dense Hermitian matrix."""
        v = self.eigenvectors
        return hermitianize((v * self.eigenvalues) @ v.conj().T)

    def permute_levels(self, assignment: Sequence[int]) -> "SpectralHamiltonian":
        """New operator with level value m attached to projector block assignment[m].

        assignment must be a permutation of 0..M-1.  Level values keep
        their ascending order; eigenvector columns are regrouped to the
        assigned blocks (block dimensions travel with the blocks).
        """
        s = tuple(int(i) for i in assignment)
        m_count = self.level_count
        if sorted(s) != list(range(m_count)):
            raise BadPermutation(f"{assignment!r} is not a permutation of 0..{m_count - 1}")
        level_of = np.argsort(s)[self.level_of]      # new level of each eigenvector column
        cols = np.argsort(level_of, kind="stable")   # regrouped by new level, in column order
        return SpectralHamiltonian(
            eigenvalues=self.levels[level_of[cols]],
            eigenvectors=self.eigenvectors[:, cols],
            levels=self.levels.copy(),
            level_of=level_of[cols],
            decomposition=OrthogonalDecomposition._trusted(self.decomposition.projectors[list(s)]),
        )


def unitary_exp(ham: SpectralHamiltonian, t: float) -> np.ndarray:
    """Evolution operator exp(-i H t) from spectral data (hbar = 1)."""
    v = ham.eigenvectors
    phases = np.exp(-1j * ham.eigenvalues * t)
    return (v * phases) @ v.conj().T


# Orbit members per stacked evaluation (5!): every orbit of up to 5
# levels is one chunk, and 8 levels at d = 16 hold chunks of 120 d x d
# complex matrices (0.5 MB each) instead of one of 40320 (165 MB).  The
# mixed-state oracle diagonalizes each chunk of evolved states in one
# stacked eigh, which is most of its time at 6 and 7 levels; larger
# chunks measured no faster there.
ORBIT_CHUNK = 120


@functools.lru_cache(maxsize=8)
def _orbit_table(m_count: int) -> np.ndarray:
    """Read-only (M!, M) table: row k is the inverse of the k-th assignment of
    itertools.permutations(range(M)), i.e. the level on each block."""
    perms = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(m_count))),
                        dtype=np.intp, count=math.factorial(m_count) * m_count)
    table = np.argsort(perms.reshape(-1, m_count), axis=1)
    table.flags.writeable = False
    return table


def orbit_levels(ham: SpectralHamiltonian) -> np.ndarray:
    """Level value on each eigenvector column for every member of the permutation orbit.

    Row k belongs to the k-th assignment s of
    itertools.permutations(range(M)) (lexicographic order), which puts
    level m on block s[m] as permute_levels does, so that
    H_s = V diag(row_k) V† with V = ham.eigenvectors.  Shape (M!, d).
    The permutation table is built once per level count.
    """
    return ham.levels[_orbit_table(ham.level_count)[:, ham.level_of]]


def _orbit_diagonals(ham: SpectralHamiltonian,
                     fn: Callable[[np.ndarray], np.ndarray]) -> Iterator[np.ndarray]:
    """fn of the orbit_levels rows, as lexicographic chunks of ORBIT_CHUNK rows.

    Each row is the diagonal of an orbit operator in the eigenbasis of ham:
    ``lambda lam: np.exp(-1j * lam * t)`` gives the phases of exp(-i H_s t).
    """
    rows = orbit_levels(ham)
    for start in range(0, len(rows), ORBIT_CHUNK):
        yield fn(rows[start:start + ORBIT_CHUNK])


def _eigenbasis_operators(ham: SpectralHamiltonian, diagonals: np.ndarray) -> np.ndarray:
    """V diag(row) V† for each row of diagonals (n, d), V = ham.eigenvectors."""
    v = ham.eigenvectors
    return (v * diagonals[:, None, :]) @ v.conj().T


def orbit_operators(ham: SpectralHamiltonian,
                    fn: Callable[[np.ndarray], np.ndarray]) -> Iterator[np.ndarray]:
    """V diag(fn(row)) V† for every orbit member, as lexicographic stacks of ORBIT_CHUNK.

    fn maps a block of orbit_levels rows elementwise: ``lambda lam: lam``
    gives the permuted Hamiltonians H_s, ``lambda lam: np.exp(-1j * lam * t)``
    their evolutions exp(-i H_s t).  Built from the chunks of _orbit_diagonals.
    """
    for diagonals in _orbit_diagonals(ham, fn):
        yield _eigenbasis_operators(ham, diagonals)
