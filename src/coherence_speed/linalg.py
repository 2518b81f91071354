"""Dense complex linear algebra for small Hilbert spaces.

Everything assumes square complex128 operators on spaces of dimension
d <= 16, where exact eigendecompositions are cheap and dense storage is
the right call.  Tensor products follow the convention that the first
factor is the outer (slow) index: ``kron(A, B)`` acts on basis vectors
``|a> x |b>`` ordered as ``a * dim_B + b``.  Units are hbar = 1
throughout the package.  Orbits of ``permute_levels`` are in ``avgdist``.

Each numerical tolerance of the library is an absolute constant of this
table, sized for d <= 16 in double precision; none is an argument.  The
verification checks declare their own.  Columns: value, bound, sites.

  TOL_HERM    1e-9   max|A - A†| of a caller's matrix, where it enters: is_hermitian, and
                     require_hermitian, the one NotHermitian of every entry; an operand the
                     package builds from checked values is trusted and not checked again
  TOL_NORM    1e-9   a norm vs its target: states, env_state, qubit amplitudes, spin axes, blocks
  TOL_TRACE   1e-9   |Tr rho - 1|: _Density.of (validate_density)
  TOL_ORTH    1e-9   max|U†U - I| of dilate's unitary completion, once U is checked finite
  TOL_PSD     1e-10  _psd_eigh, the one NotPSD (an eigenvalue below -TOL_PSD), and _band_sqrt,
                     the one dead band (below TOL_PSD reads as zero); closest_incoherent's weights
  TOL_DEGEN   1e-9   one level: _cluster_levels, a_coefficient, dilate's fold of -pi onto +pi
  TOL_STRUCT  1e-8   caller structure: projector families, bases, Kraus sums, refinement, purity
  TOL_DRIFT   1e-10  norm drift over an evolve grid
  TOL_ZERO    1e-12  read as zero: qsl overlap and spreads, witness, pulse ends, CLI drive axis
  TOL_REPORT  1e-9   pass tolerance of the sweep, battery, channel and qsl reports without --tol
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

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
    """True when max|A - A†| <= TOL_HERM (for every matrix, for a stack)."""
    return _hermitian_residual(a) <= TOL_HERM


def _hermitian_residual(a: np.ndarray) -> float:
    """max|A - A†| over a matrix or a stack, inf when an entry is not finite: the one
    Hermiticity pass of ``is_hermitian`` and of ``_require_hermitian``.

    A non-finite entry fails before the residual is formed, where
    inf - inf would make numpy warn next to the caller's error.  The
    ufunc reductions skip the Python wrappers of .all() and .max(), which
    offsets part of the cost of the finiteness pass.
    """
    return (float(np.maximum.reduce(np.abs(a - dagger(a)), axis=None))
            if np.logical_and.reduce(np.isfinite(a), axis=None) else math.inf)


def _array(a, dtype=complex) -> np.ndarray:
    """np.asarray(a, dtype), with DimensionMismatch where numpy refuses a ragged nesting."""
    try:
        return np.asarray(a, dtype=dtype)
    except ValueError as exc:       # numpy: "setting an array element with a sequence"
        raise DimensionMismatch("entries are not nested to one shape") from exc


def _square(a, *, stack: bool = False) -> np.ndarray:
    """a as complex128 (``_array``); a square matrix, or with stack=True also a stack
    (..., d, d); not empty."""
    a = _array(a)
    if a.ndim < 2 or (a.ndim > 2 and not stack) or a.shape[-2] != a.shape[-1] or not a.size:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def require_hermitian(a, *, stack: bool = True) -> np.ndarray:
    """a as complex128, a square matrix or (stack=True) a stack (..., d, d), checked Hermitian.

    Raises DimensionMismatch on any other shape or zero size, and NotHermitian when max|A - A†|
    exceeds TOL_HERM (for any matrix of a stack) or an entry is not finite (is_hermitian fails).
    """
    return _require_hermitian(a, stack)[0]


def _require_hermitian(a, stack: bool) -> tuple[np.ndarray, float]:
    """require_hermitian's array and the residual max|A - A†| its one Hermiticity pass read."""
    a = _square(a, stack=stack)
    skew = _hermitian_residual(a)
    if not skew <= TOL_HERM:
        if not np.isfinite(a).all():
            raise NotHermitian("matrix entries are not all finite")
        raise NotHermitian(f"max |H - H†| = {skew:.3e} exceeds {TOL_HERM:.1e}")
    return a, skew


def _psd_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a complex PSD matrix or stack (..., d, d).

    The one positivity check of the package: one eigh, which reads the
    lower triangle, and NotPSD for an eigenvalue below -TOL_PSD; no
    Hermiticity check.  A caller's matrix passes ``require_hermitian``
    first; an operand the package built from checked values comes as it is.
    """
    w, v = np.linalg.eigh(h)
    low = np.minimum.reduce(w, axis=None) if w.ndim > 1 else w[0]
    if low < -TOL_PSD:
        raise NotPSD(f"eigenvalue {low:.3e} below -{TOL_PSD:.1e}")
    return w, v


def _psd_sqrt_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots ``_band_sqrt(w)`` of the eigenvalues and the eigenvectors from ``_psd_eigh(h)``."""
    w, v = _psd_eigh(h)
    return _band_sqrt(w), v


def _band_sqrt(w: np.ndarray) -> np.ndarray:
    """sqrt(w) with the dead band: eigenvalues below TOL_PSD read as exact zeros."""
    return np.sqrt(np.where(w < TOL_PSD, 0.0, w))


def _eigenbasis_operators(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """V diag(x) V† for eigenvectors V (d, d) or a stack (k, d, d), and x (..., d).

    A stack of rows x (n, d) against one V gives the stack (n, d, d), as
    one (n d, d) @ V† product in place of n products of (d, d), with the
    same bytes.  Every product of this form in the package is this function.
    """
    if v.ndim == 2 and x.ndim == 2:
        n, d = x.shape
        return ((v * x[:, None, :]).reshape(-1, d) @ dagger(v)).reshape(n, d, d)
    return (v * x[..., None, :]) @ dagger(v)


def _rebuild(roots: np.ndarray, v: np.ndarray) -> np.ndarray:
    """W diag(roots) W†, Hermitian part, for one matrix or a stack."""
    return hermitianize(_eigenbasis_operators(v, roots))


def matrix_sqrt_psd(rho) -> np.ndarray:
    """Hermitian square root of a PSD matrix, or of each matrix in a stack (..., d, d).

    Rebuilt as W diag(sqrt w) W† from ``_psd_sqrt_eig`` of the checked
    matrix (NotHermitian from ``require_hermitian``): eigenvalues within
    TOL_PSD of zero are treated as exact zeros (sqrt amplifies eigensolver
    noise on a singular matrix from 1e-16 to 1e-8 otherwise); anything
    below -TOL_PSD raises NotPSD.  Every matrix of a stack gets its own
    eigendecomposition and these checks.  Callers that only need a trace
    against the root, as ``metrics.affinity`` does, skip the rebuild.
    """
    return _rebuild(*_psd_sqrt_eig(require_hermitian(rho)))


def validate_density(rho) -> np.ndarray:
    """The checks of ``_Density.of`` (Hermiticity, positivity, unit trace); return the array."""
    rho = _square(rho)
    _Density.of(rho)
    return rho


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of a, which itself stays as it is."""
    view = a.view()
    view.setflags(write=False)
    return view


@functools.lru_cache(maxsize=32)
def _eye(n: int, dtype=float) -> np.ndarray:
    """np.eye(n, dtype=dtype), built once per size and dtype, read-only."""
    eye = np.eye(n, dtype=dtype)
    eye.flags.writeable = False
    return eye


def _trusted(cls, *fields, **built):
    """An instance of the frozen dataclass cls from values the package built, unchecked.

    The one install of every package-built object: each ndarray among the fields is made
    read-only in place (the package holds no other reference to write through), the fields
    are set in cls's declaration order, and ``built`` pre-fills ``_lazy`` attributes.  A
    caller's array never comes here: its checked constructor keeps a read-only view of it.
    """
    obj, array = cls.__new__(cls), np.ndarray
    for value in fields:
        if type(value) is array:            # the package builds plain arrays, no subclass
            value.setflags(write=False)     # a third of the cost of flags.writeable = False
    installed = obj.__dict__
    installed.update(zip(cls.__dataclass_fields__, fields))
    if built:
        installed.update(built)
    return obj


class _lazy:
    """An attribute built by fn on its first read and stored in the instance ``__dict__``,
    where later reads find it first: ``functools.cached_property`` without the lock that
    Python 3.11 shares between all instances.  A value set there first is never built."""

    def __init__(self, fn: Callable) -> None:
        self.fn, self.__doc__ = fn, fn.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


@dataclass(frozen=True, eq=False)
class _Density:
    """A density matrix checked once, where it enters, and the eigendata of that check.

    ``of`` raises DimensionMismatch (not one square matrix, or zero size) and NotHermitian from
    one ``require_hermitian`` pass, NotPSD from ``_psd_eigh`` (one eigh, reading the lower
    triangle), then InvalidState (trace beyond TOL_TRACE), the messages every other entry gives.
    It keeps rho as given, w and V, all read-only, and psi only when the caller held a pure
    state's vector.  ``root``, built on first read, is matrix_sqrt_psd(rho) bit for bit, and
    ``hermitian`` is ``_lower_hermitian(rho)``: rho itself when the check's residual is zero.
    """

    rho: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    psi: np.ndarray | None = None

    @classmethod
    def of(cls, rho, psi: np.ndarray | None = None) -> "_Density":
        rho, skew = _require_hermitian(rho, stack=False)
        w, v = _psd_eigh(rho)
        tr = float(rho.trace().real)
        if abs(tr - 1.0) > TOL_TRACE:
            raise InvalidState(f"trace {tr!r} differs from 1 beyond {TOL_TRACE:.1e}")
        rho, psi = _read_only(rho), psi if psi is None else _read_only(psi)
        if skew:
            return _trusted(cls, rho, w, v, psi)
        # finite entries: |a - b| = 0 exactly when a == b
        return _trusted(cls, rho, w, v, psi, hermitian=rho)

    @classmethod
    def of_stack(cls, rhos: np.ndarray) -> list["_Density"]:
        """``of`` of each state of a stack (n, d, d) the package drew, bit for bit: one
        ``_psd_eigh`` (NotPSD, no other check) and one rebuild of the roots."""
        w, v = _psd_eigh(rhos)
        return [_trusted(cls, *arrays, None, root=root)     # what the lazy root would build
                for *arrays, root in zip(rhos, w, v, _read_only(_rebuild(_band_sqrt(w), v)))]

    @_lazy
    def root(self) -> np.ndarray:
        return _read_only(_rebuild(_band_sqrt(self.eigenvalues), self.eigenvectors))

    @_lazy
    def hermitian(self) -> np.ndarray:
        """The Hermitian matrix eigh read from rho's lower triangle (``_lower_hermitian``)."""
        return _lower_hermitian(self.rho)


def _lower_hermitian(rho: np.ndarray) -> np.ndarray:
    """The Hermitian matrix whose lower triangle eigh reads from rho, as ``_Density.of`` judged it.

    rho itself when it equals its conjugate transpose entry by entry; else rho's strictly
    lower triangle, its conjugate above the diagonal and the real part of rho's diagonal.
    """
    if np.logical_and.reduce(rho == dagger(rho), axis=None):
        return rho
    low = np.tril(rho, -1)
    h = low + dagger(low)
    np.fill_diagonal(h, rho.diagonal().real)
    return h


def _require_finite(name: str, value) -> None:
    """ValueError naming the argument unless the real value (or each of an array) is finite."""
    if isinstance(value, (np.ndarray, list, tuple)):
        value = next((x for x in np.ravel(value).tolist() if not math.isfinite(x)), 0.0)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _finite(a: np.ndarray, what: str) -> np.ndarray:
    """a, with ValueError("<what> are not all finite") unless every entry is finite."""
    if not np.logical_and.reduce(np.isfinite(a), axis=None):
        raise ValueError(f"{what} are not all finite")
    return a


def _levels(values) -> np.ndarray:
    """A caller's levels read flat (``_array``), as floats; ValueError unless finite and real."""
    w = _finite(_array(values).reshape(-1), "eigenvalues")
    if np.logical_or.reduce(w.imag, axis=None):
        raise ValueError("eigenvalues are not all real")
    return w.real


def validate_state_vector(psi) -> np.ndarray:
    """Check finite entries and unit norm; return the vector as complex128."""
    psi = _array(psi).reshape(-1)
    x = psi.ravel(order="K")        # np.linalg.norm(psi), by its own formula
    nrm = math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))
    if math.isnan(nrm):             # a NaN entry; NaN fails the `>` test below
        raise InvalidState("state entries are not all finite")
    if abs(nrm - 1.0) > TOL_NORM:
        raise InvalidState(f"state norm {nrm!r} differs from 1 beyond {TOL_NORM:.1e}")
    return psi


def pure_density(psi) -> np.ndarray:
    """Projector |psi><psi| for a unit vector."""
    psi = validate_state_vector(psi)
    return np.outer(psi, psi.conj())


def partial_trace(rho, dims: tuple[int, int], over: int) -> np.ndarray:
    """Trace out one factor of a bipartite operator.

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
    if over == 1:
        return _trace_second(rho, d0, d1)
    return np.einsum("...ijil->...jl", rho.reshape(rho.shape[:-2] + (d0, d1, d0, d1)))


def _trace_second(rho: np.ndarray, d0: int, d1: int) -> np.ndarray:
    """partial_trace(rho, (d0, d1), over=1) of a complex stack (..., d0 d1, d0 d1), unchecked."""
    return np.einsum("...ijkj->...ik", rho.reshape(rho.shape[:-2] + (d0, d1, d0, d1)))


def haar_random_state(dim: int, seed) -> np.ndarray:
    """Haar-distributed unit vector; deterministic given an integer seed."""
    v = _ginibre(np.random.default_rng(seed), dim)
    return v / np.linalg.norm(v)


def random_density(dim: int, rank: int, seed) -> np.ndarray:
    """Random density matrix of the requested rank (Ginibre construction)."""
    if not 1 <= rank <= dim:
        raise BadRank(f"rank {rank} outside 1..{dim}")
    g = _ginibre(np.random.default_rng(seed), (dim, rank))
    a = g @ g.conj().T
    return hermitianize(a / np.trace(a).real)


def random_hermitian(dim: int, seed, scale: float = 1.0) -> np.ndarray:
    """Random Hermitian matrix with O(scale) entries (GUE-like)."""
    g = _ginibre(np.random.default_rng(seed), (dim, dim))
    return hermitianize(g) * (scale / np.sqrt(2.0))


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary (QR of a Ginibre matrix with phase fix)."""
    return _haar_unitaries(_ginibre(np.random.default_rng(seed), (dim, dim)))


def _ginibre(rng, shape) -> np.ndarray:
    """A complex Ginibre draw of one shape: its real parts, then its imaginary parts."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _haar_unitaries(g: np.ndarray) -> np.ndarray:
    """random_unitary's QR and phase fix of a Ginibre matrix, or of each of a stack (..., d, d)."""
    q, r = np.linalg.qr(g)
    d = r.diagonal(0, -2, -1)
    return q * (d / np.abs(d))[..., None, :]


def _block_stacks(columns: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """V_g V_g† for each block g of consecutive columns of a (d, R) matrix (several bases
    side by side), block b the next sizes[b] columns, as one (B, d, d) stack.  Blocks of one
    size are one matmul, each laid out as ``V[:, g]`` is; zero-padding the smaller blocks
    would make one product, but one that rounds differently from V_g V_g† itself."""
    d = len(columns)
    if len(set(sizes.tolist())) == 1 and sizes[0]:      # one size: the loop below in one pass
        blocks = np.asfortranarray(columns).reshape(d, len(sizes), -1).swapaxes(0, 1)
        return blocks @ dagger(blocks)
    block_of = np.arange(len(sizes)).repeat(sizes)      # the block of each column
    stack = np.zeros((len(sizes), d, d), dtype=complex)
    for k in set(sizes.tolist()) - {0}:
        blocks = columns[:, (sizes == k)[block_of]].reshape(d, -1, k).swapaxes(0, 1)
        stack[sizes == k] = blocks @ dagger(blocks)
    return stack


def _families(hams: Sequence["SpectralHamiltonian"]) -> np.ndarray:
    """The decomposition projectors of Hamiltonians of one dimension and one level count, as
    one read-only (n, M, d, d) stack: one Hamiltonian's is its decomposition, and several are
    built in one ``_block_stacks`` call, the bytes each decomposition holds, and not kept."""
    if len(hams) == 1:
        return hams[0].decomposition.projectors[None]
    stack = _block_stacks(np.concatenate([ham.eigenvectors for ham in hams], axis=1),
                          np.concatenate([np.bincount(ham.level_of) for ham in hams]))
    return _read_only(stack.reshape(len(hams), -1, *stack.shape[1:]))


@dataclass(frozen=True, eq=False)
class OrthogonalDecomposition:
    """Complete family of orthogonal projectors P_0..P_{M-1}, stored as one stack.

    ``projectors`` is a read-only complex (M, d, d) array whose m-th
    matrix is P_m, so iterating over it yields the projectors.  The
    constructor takes any sequence of d x d matrices.  The class is
    frozen, so no family can be reassigned or written past its check.

    Invariants: each P_m is Hermitian and idempotent, distinct projectors annihilate each
    other, and the family sums to the identity.  A caller's family (the constructor,
    ``from_basis``, ``computational``) is copied into one stack, DimensionMismatch unless it is
    one non-empty (M, d, d) stack, then checked for finite entries, then to TOL_STRUCT from one
    matrix product (every P_a P_b, a != b included in either order), and last for empty blocks
    (trace below 1/2).  It is accepted on whole-family maxima; only a failure reads the
    per-projector ones, to name the first failing check.
    Eigenspace families the package builds itself from an orthonormal
    eigenbasis (``SpectralHamiltonian.from_matrix``, ``from_spectrum``,
    ``permute_levels``) hold the invariants by construction and are not
    checked again.
    """

    projectors: np.ndarray

    def __post_init__(self) -> None:
        stack = _array(self.projectors).copy()     # C-ordered, never a caller's array
        if stack.ndim != 3:
            raise DimensionMismatch(f"expected a stack (M, d, d), got shape {stack.shape}")
        m, d = _square(stack, stack=True).shape[:2]     # not square, or zero size
        _finite(stack, "projector entries")     # NaN fails no `> tol` residual test below
        # |P_a P_b - delta_ab P_a| from one matrix product, as blocks (a, :, b, :)
        prods = (stack.reshape(m * d, d) @ np.concatenate(stack, 1)).reshape(m, d, m, d)
        np.einsum("aiaj->aij", prods)[...] -= stack     # blocks (a, :, a, :), a writeable view
        prods, skew = np.abs(prods), np.abs(stack - dagger(stack))
        total = np.maximum.reduce(np.abs(np.add.reduce(stack, 0) - _eye(d)), axis=None)
        traces = np.einsum("mii->m", stack).real
        # accepted on whole-family maxima (ufunc reductions); per-projector ones name a failure
        if not (np.maximum.reduce(prods, axis=None) <= TOL_STRUCT
                and np.maximum.reduce(skew, axis=None) <= TOL_STRUCT
                and total <= TOL_STRUCT and np.minimum.reduce(traces) >= 0.5):
            herm = skew.max(axis=(1, 2)) > TOL_STRUCT
            bad = prods.max(axis=(1, 3)) > TOL_STRUCT      # bad[a, b]: P_a P_b beyond tol
            first = np.flatnonzero(herm | bad.diagonal())
            if first.size:
                raise ValueError("projector is not Hermitian" if herm[first[0]]
                                 else "projector is not idempotent")
            if bad.any():       # the diagonal passed above, so some P_a P_b with a != b
                raise ValueError("projectors are not mutually orthogonal")
            if total > TOL_STRUCT:
                raise ValueError("projectors do not sum to the identity")
            # a zero block passes every test above but adds a block to the family
            if (traces < 0.5).any():
                raise ValueError("projector is empty (trace below 1/2)")
        object.__setattr__(self, "projectors", _read_only(stack))

    @property
    def dim(self) -> int:
        return self.projectors.shape[-1]

    @classmethod
    def from_basis(cls, vectors: np.ndarray,
                   groups: Sequence[Sequence[int]] | None = None) -> "OrthogonalDecomposition":
        """Build projectors from the orthonormal columns of a square matrix (DimensionMismatch
        for any other shape or zero size), optionally grouped into blocks."""
        v = _finite(_square(vectors), "basis entries")     # before any product of it
        groups = np.arange(v.shape[1])[:, None] if groups is None else groups
        columns = np.concatenate([g for g in groups if len(g)] or [np.empty(0, dtype=int)])
        return cls(_block_stacks(v[:, columns], np.array([len(g) for g in groups], dtype=int)))

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
    eigenvalue as is, which is what its mean gives.  The merged clusters
    of one size k are averaged together, np.mean's sum and quotient
    without its wrapper: one add.reduce of their (n, k) rows, over k.
    """
    split = eigvals[..., 1:] - eigvals[..., :-1] > TOL_DEGEN
    level_of = np.zeros(eigvals.shape, dtype=int)
    np.add.accumulate(split, axis=-1, dtype=int, out=level_of[..., 1:])     # cumsum, unwrapped
    levels = np.array(eigvals, dtype=float)     # each eigenvalue its own level ...
    if not np.logical_and.reduce(split, axis=None):     # ... unless some clusters merge
        # the flat index of each cluster's first member, then the end: a row starts a cluster
        edges = np.ones(eigvals.size + 1, dtype=bool)
        edges[:-1].reshape(eigvals.shape)[..., 1:] = split
        edges = edges.nonzero()[0]
        first, sizes, flat = edges[:-1], edges[1:] - edges[:-1], levels.reshape(-1)
        values = flat[first]                    # a singleton's level is its eigenvalue
        for k in set(sizes.tolist()) - {1}:
            at = sizes == k
            values[at] = np.add.reduce(flat[first[at, None] + np.arange(k)], -1) / k
        last = level_of[..., -1:]               # the last level of each row
        width = int(np.maximum.reduce(last, axis=None)) + 1
        if len(values) == last.size * width:    # every row has that many levels
            return values.reshape(eigvals.shape[:-1] + (width,)), level_of
        levels = np.zeros(eigvals.shape[:-1] + (width,))
        levels[np.arange(width) <= last] = values
    return levels, level_of


@dataclass(frozen=True, eq=False, init=False)
class SpectralHamiltonian:
    """Hermitian operator carried as its full spectral data.

    eigenvalues   -- ascending, length d
    eigenvectors  -- orthonormal columns matching eigenvalues
    levels        -- distinct eigenvalues after degeneracy grouping, ascending
    level_of      -- level index of each eigenvector column
    decomposition -- eigenspace projectors, one per distinct level,
                     built on first read (most callers read only the
                     eigendata) and kept

    Input is validated where it enters: ``from_matrix`` checks
    Hermiticity, ``from_spectrum`` that the eigenvalues are finite and real and a
    caller's basis finite and orthonormal to TOL_STRUCT.  Calling the class
    raises TypeError: these two, ``permute_levels`` and the package's stacked
    ``_build`` install their own arrays read-only (``_trusted``), and the
    class is frozen, so its eigenspace families are trusted.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    levels: np.ndarray
    level_of: np.ndarray

    def __init__(self, *args, **kwargs) -> None:
        raise TypeError("build a SpectralHamiltonian with from_matrix or from_spectrum")

    @classmethod
    def from_matrix(cls, h) -> "SpectralHamiltonian":
        """Diagonalize a Hermitian matrix and group near-degenerate eigenvalues."""
        w, v = np.linalg.eigh(require_hermitian(h, stack=False))
        return _trusted(cls, w, v, *_cluster_levels(w))

    @classmethod
    def from_spectrum(cls, eigenvalues, basis: np.ndarray | None = None) -> "SpectralHamiltonian":
        """Assemble from eigenvalues and an optional orthonormal eigenbasis.

        Defaults to the computational basis; the eigenvalues must be finite
        and real and a caller's basis finite (ValueError otherwise), and the
        basis orthonormal to TOL_STRUCT.  Eigenvalues are sorted ascending with the basis
        columns carried along.
        """
        w = _levels(eigenvalues)
        d = len(w)
        if not d:
            raise DimensionMismatch("expected at least one eigenvalue, got none")
        if basis is None:
            v = _eye(d, complex)
        else:
            v = _array(basis)
            if v.shape != (d, d):
                raise DimensionMismatch("basis shape does not match eigenvalue count")
            _finite(v, "basis entries")
            if np.maximum.reduce(np.abs(v.conj().T @ v - _eye(d)), axis=None) > TOL_STRUCT:
                raise ValueError("basis columns are not orthonormal")
        order = np.argsort(w, kind="stable")
        w, v = w[order], v[:, order]
        return _trusted(cls, w, v, *_cluster_levels(w))

    @classmethod
    def _build(cls, w: np.ndarray, v: np.ndarray) -> list["SpectralHamiltonian"]:
        """One per row of ascending eigenvalues (n, d) and the orthonormal bases (n, d, d)
        that carry them, their levels grouped in one ``_cluster_levels`` call (the rule
        from_matrix and from_spectrum apply to their one row)."""
        levels, level_of = _cluster_levels(w)
        return [_trusted(cls, *row, row_levels[:row_of[-1] + 1], row_of)
                for *row, row_levels, row_of in zip(w, v, levels, level_of)]

    @_lazy
    def decomposition(self) -> OrthogonalDecomposition:
        """Eigenspace projectors V_m V_m†, one per level: level_of ascends, so the columns
        fill the levels in turn."""
        return _trusted(OrthogonalDecomposition,
                        _block_stacks(self.eigenvectors, np.bincount(self.level_of)))

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[0]

    @property
    def level_count(self) -> int:
        return len(self.levels)

    def matrix(self) -> np.ndarray:
        """Reconstruct the dense Hermitian matrix."""
        return hermitianize(_eigenbasis_operators(self.eigenvectors, self.eigenvalues))

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
        level_of = level_of[cols]
        # the parent's blocks, reordered, in place of the lazy build
        return _trusted(SpectralHamiltonian, self.levels[level_of], self.eigenvectors[:, cols],
                        self.levels, level_of, decomposition=_trusted(
                            OrthogonalDecomposition, self.decomposition.projectors[list(s)]))


def _phases(levels: np.ndarray, t) -> np.ndarray:
    """The evolution phases exp(-i lambda t) of levels at t (broadcast), the one rule by which
    the package forms them.  The operands keep this order: -1j * (levels * t) rounds the same
    but flips the sign of some zero imaginary parts."""
    return np.exp(-1j * levels * t)


def unitary_exp(ham: SpectralHamiltonian, t: float) -> np.ndarray:
    """Evolution operator exp(-i H t) from spectral data (hbar = 1), for a finite t."""
    _require_finite("t", t)
    return _eigenbasis_operators(ham.eigenvectors, _phases(ham.eigenvalues, t))
