"""Quantum channels, unitary dilations, and the open-system distance bound.

A channel given by Kraus operators {K_j} is lifted to a unitary U on
system x environment with U (|psi> x |0>) = sum_j (K_j |psi>) x |j>.
The generator H = i log U (principal branch, eigenphases in (-pi, pi]
with those at -pi folded onto +pi, unit duration) defines an
isospectral permuted family exactly as for closed systems; averaging
the channel-level distance over that family is bounded by the closed
form evaluated on the joint input:

    (1/M!) sum_s D(Phi_s(rho), rho)
        <= 2 (1 - B(T)) c_half(rho x |0><0|),

with equality whenever every permuted evolution leaves the environment
factor pure (in particular for product unitaries whose environment
factor fixes |0>).

A channel is one complex (K, d, d) stack of Kraus operators, built from
any sequence of d x d matrices and checked once; the Kraus action, the
dilation and the JSON form use it as a whole.

Finiteness is checked where data enters and trusted inside.  A
``KrausChannel`` rejects a non-finite entry on construction and is
frozen, with a read-only stack.  The channels ``random_channel`` draws
and the dilations ``dilate`` builds are installed unchecked
(``linalg._trusted``).  ``dilate`` needs numpy alone (an SVD for
the complement, a Cayley transform for the logarithm); it checks its
isometry finite before the SVD, since only a stack written past the
frozen dataclass can make it otherwise.
``theorem3_bound`` and the gap analysis check their state once
(``linalg._Density``); the channel outputs, the joint input and its
evolution are built from checked values and are rooted without a
further Hermiticity check.  Its orbit average is one ``avgdist._orbit_terms``
term, given the operands of a chunk's one dilation whole, else each row's.
"""

from __future__ import annotations

import bisect
import cmath
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .avgdist import _closed_forms, _orbit_means
from .errors import DimensionMismatch, IncompleteKraus, InvalidState, TooManyKraus
from .linalg import (
    TOL_DEGEN,
    TOL_ORTH,
    TOL_STRUCT,
    TOL_ZERO,
    SpectralHamiltonian,
    _Density,
    _array,
    _eigenbasis_operators,
    _eye,
    _ginibre,
    _haar_unitaries,
    _lazy,
    _phases,
    _psd_sqrt_eig,
    _read_only,
    _rebuild,
    _require_finite,
    _require_size,
    _trace_second,
    _trusted,
    dagger,
    hermitianize,
    partial_trace,
    unitary_exp,
    validate_density,
    validate_state_vector,
)
from .metrics import _hellinger
from .schemas import _complex_array, parse_json, validate_document

_EPS = np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """CPTP map as one (K, d, d) Kraus stack; completeness_residual is max|sum K†K - I|.

    Immutable: the stack is checked once, on construction, and kept as a
    read-only copy, so no field can be reassigned past the check.
    """

    operators: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        ops = _array(self.operators).copy(order="K")     # its own copy, in the given layout
        if ops.ndim and not len(ops):
            raise IncompleteKraus("need at least one Kraus operator")
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2] or not ops.size:
            raise DimensionMismatch("Kraus operators must share one square shape")
        # NaN fails no `> tol` residual test below, so reject it here
        if not np.logical_and.reduce(np.isfinite(ops), axis=None):
            raise IncompleteKraus("Kraus entries are not all finite")
        ops.flags.writeable = False         # the channel's own copy
        object.__setattr__(self, "operators", ops)
        if (defect := self.completeness_residual) > TOL_STRUCT:
            raise IncompleteKraus(f"sum K†K deviates from identity by {defect:.3e}")

    @_lazy
    def completeness_residual(self) -> float:
        total = np.add.reduce(dagger(self.operators) @ self.operators, 0)
        return float(np.maximum.reduce(np.abs(total - _eye(self.dim)), axis=None))

    @property
    def dim(self) -> int:
        return self.operators.shape[-1]


def apply_kraus(channel: KrausChannel, rho) -> np.ndarray:
    """sum_j K_j rho K_j†."""
    return _apply_kraus(channel, validate_density(rho))


def _apply_kraus(channel: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """apply_kraus for a state that has passed validate_density."""
    if rho.shape[0] != channel.dim:
        raise DimensionMismatch("state dimension does not match channel")
    return hermitianize((channel.operators @ rho @ dagger(channel.operators)).sum(axis=0))


def qutrit_equality_channel() -> KrausChannel:
    """Qutrit channel mapping |0><0| to an orthogonal mixed state.

    Kraus operators: |1><0|/sqrt2, |2><0|/sqrt2, |1><1|, |2><2|.  The
    output <0|Phi(|0><0|)|0> vanishes, which makes the dilated joint
    distance equal the channel-level distance (both maximal).
    """
    ops = np.zeros((4, 3, 3), dtype=complex)
    ops[[0, 1, 2, 3], [1, 2, 1, 2], [0, 0, 1, 2]] = [1.0 / np.sqrt(2.0)] * 2 + [1.0] * 2
    return KrausChannel(ops, label="qutrit-equality")


def random_channel(dim: int, n_kraus: int, seed) -> KrausChannel:
    """Random CPTP map: slices of a Haar-random unitary dilation."""
    dim, n_kraus = _require_size("dim", dim, 1), _require_size("n_kraus", n_kraus, 1)
    return _random_channels([np.random.default_rng(seed)], dim, n_kraus)[0]


def _random_channels(rngs, dim: int, n_kraus: int) -> list[KrausChannel]:
    """random_channel of each generator, its Ginibre draw in turn, then one stacked QR."""
    n = dim * n_kraus
    # <s|K_j|c> at [s K + j, c]
    iso = _haar_unitaries(np.array([_ginibre(rng, (n, n)) for rng in rngs]))[:, :, ::n_kraus]
    # each stack copied as the checked constructor copies it (np.array, same memory order);
    # its residual is built on first read
    return [_trusted(KrausChannel, np.array(k.reshape(dim, n_kraus, dim).swapaxes(0, 1)),
                     f"random-{dim}x{n_kraus}") for k in iso]


@dataclass(frozen=True, eq=False)
class StinespringDilation:
    """Unitary model of a channel: evolve rho x env under exp(-i H T), trace out env.

    Immutable: the environment state (``validate_state_vector``, kept as a
    read-only copy) and the duration (finite, ValueError otherwise) are
    checked once, on construction, and trusted from then on.
    """

    hamiltonian: SpectralHamiltonian
    sys_dim: int
    env_dim: int
    env_state: np.ndarray
    duration: float = 1.0

    def __post_init__(self) -> None:
        if self.hamiltonian.dim != self.sys_dim * self.env_dim:
            raise DimensionMismatch("Hamiltonian dimension is not sys_dim * env_dim")
        env = validate_state_vector(self.env_state).copy()
        if len(env) != self.env_dim:
            raise DimensionMismatch("environment state dimension mismatch")
        _require_finite("duration", self.duration)
        object.__setattr__(self, "env_state", _read_only(env))

    @property
    def levels(self) -> np.ndarray:
        return self.hamiltonian.levels

    def unitary(self) -> np.ndarray:
        return unitary_exp(self.hamiltonian, self.duration)

    def joint_input(self, rho) -> np.ndarray:
        return self._joint(validate_density(rho))

    def _joint(self, rho: np.ndarray) -> np.ndarray:
        """rho x |env><env| for a state that has passed validate_density.

        The products np.kron(rho, np.outer(env, env*)) forms, as one
        broadcast; env_state is the read-only state checked on construction.
        """
        if rho.shape[0] != self.sys_dim:
            raise DimensionMismatch("state dimension does not match system")
        env = self.env_state[:, None] * self.env_state.conj()
        n = self.sys_dim * self.env_dim
        return (rho[:, None, :, None] * env[:, None, :]).reshape(n, n)

    def apply(self, rho) -> np.ndarray:
        """Channel action Tr_env[U (rho x env) U†]."""
        u = self.unitary()
        joint = self.joint_input(rho)
        return partial_trace(u @ joint @ u.conj().T, (self.sys_dim, self.env_dim), over=1)


def dilate(channel: KrausChannel, env_dim: int | None = None) -> StinespringDilation:
    """Unitary dilation of a Kraus channel with env state |0>.

    The isometry V|psi> = sum_j (K_j|psi>) x |j> is completed to a
    unitary by an orthonormal basis of its column complement: the right
    singular vectors of V† past its rank d, from a full SVD, where
    singular values above max(s) * eps * d * d_env count toward the rank.
    The generator is the principal logarithm i log U (``_principal_log``)
    with unit duration.

    The isometry is checked finite before the SVD, which would raise
    LinAlgError on a NaN; only a stack set past the frozen dataclass can
    fail that check.  A rank other than d leaves the complement empty,
    and max|U†U - I| above TOL_ORTH then rejects the completion.
    """
    return _dilate([channel], env_dim)[0]


def _dilate(channels, env_dim: int | None = None) -> list[StinespringDilation]:
    """dilate of each channel of one shape: one SVD, rank rule, check and logarithm."""
    ops = np.array([channel.operators for channel in channels])
    n_ops, d = ops.shape[1:3]
    d_env = n_ops if env_dim is None else _require_size("env_dim", env_dim, 1)
    if n_ops > d_env:
        raise TooManyKraus(f"{n_ops} Kraus operators exceed environment dimension {d_env}")
    n = d * d_env
    iso = np.zeros((len(ops), n, d), dtype=complex)     # <s|K_j|c> at [s * d_env + j, c]
    iso.reshape(-1, d, d_env, d)[:, :, :n_ops] = ops.swapaxes(1, 2)
    if not np.logical_and.reduce(np.isfinite(iso), axis=None):
        raise InvalidState("unitary completion failed: entries are not all finite")
    u = np.zeros((len(ops), n, n), dtype=complex)   # column c * d_env + j; the complement at j >= 1
    u4 = u.reshape(-1, n, d, d_env)
    u4[..., 0] = iso
    _, s, vh = np.linalg.svd(dagger(iso))
    if np.logical_and.reduce(s > s[..., :1] * (_EPS * n), axis=None):    # rank d; s descends
        u4[..., 1:] = dagger(vh[:, d:]).reshape(len(u), n, d, d_env - 1)
    if np.maximum.reduce(np.abs(dagger(u) @ u - _eye(n)), axis=None) > TOL_ORTH:
        raise InvalidState("unitary completion failed")
    env = _eye(d_env, complex)[0]       # |0>, a row of the cached read-only identity
    return [_trusted(StinespringDilation, ham, d, d_env, env, 1.0)
            for ham in SpectralHamiltonian._build(*_principal_log(u))]


def _principal_log(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending levels (n, N) and orthonormal eigenvectors (n, N, N) of H = i log U, per U of
    a stack (n, N, N).

    The eigenphases are folded to (-pi + TOL_DEGEN, pi + TOL_DEGEN]: a
    phase within TOL_DEGEN of -pi is taken as its image near +pi, so that
    an eigenvalue -1 of U, which rounding puts on either side of the
    branch cut, gives one level.

    A Cayley transform, four stacked LAPACK calls.  U' = e^{i beta} U puts -1
    at the middle of the widest gap of U's eigenphases (``eigvals``); then
    C = i (I + U')^-1 (U' - I) is Hermitian with eigenvalues -tan(phi / 2)
    for the phases phi of U', which is one-to-one on the circle without -1.
    So distinct phases stay distinct, a cluster gets orthonormal vectors from
    ``eigh(C)``, and the levels, beta + 2 arctan of its ascending eigenvalues,
    ascend too; those above pi + TOL_DEGEN, a tail, lose 2 pi and move to the
    front.  C is diagonalized without a Hermiticity check; the bookkeeping is
    in Python scalars, row by row (``math.atan``: np.arctan may round apart).
    """
    betas = []
    for phases in map(sorted, np.angle(np.linalg.eigvals(u)).tolist()):
        gap, start = max(zip([b - a for a, b in zip(phases, phases[1:])] +
                             [phases[0] + 2.0 * math.pi - phases[-1]], phases))
        betas.append((math.pi - start - 0.5 * gap) % (2.0 * math.pi))
    eye = _eye(u.shape[-1])
    rotated = np.array([cmath.exp(1j * beta) for beta in betas])[:, None, None] * u
    taus, vs = np.linalg.eigh(1j * np.linalg.solve(eye + rotated, rotated - eye))
    levels, vecs = [], np.empty_like(vs)
    for beta, tau, v, out in zip(betas, taus.tolist(), vs, vecs):
        lam = [beta + 2.0 * math.atan(t) for t in tau]
        m = bisect.bisect_right(lam, math.pi + TOL_DEGEN)
        levels.append([x - 2.0 * math.pi for x in lam[m:]] + lam[:m])
        out[:, :len(lam) - m], out[:, len(lam) - m:] = v[:, m:], v[:, :m]
    return np.array(levels), vecs


def theorem3_bound(dilation: StinespringDilation, rho) -> tuple[float, float]:
    """Permutation-averaged channel distance and its closed-form ceiling.

    Returns (lhs, rhs) with
      lhs = (1/M!) sum_s D(Phi_s(rho), rho),
      rhs = 2 (1 - B(T)) c_half(rho x |0><0|).

    rho is checked once (``_Density.of``), and the joint input is built
    from the Hermitian matrix of its lower triangle, the one whose
    positivity that check read (``_Density.hermitian``: rho itself when
    exactly Hermitian).  Each orbit term is the squared-Hellinger
    distance of a channel output, made Hermitian by ``hermitianize``,
    from rho; it and the joint are rooted without a Hermiticity check.
    """
    average, rhs = _theorem3_bound([dilation], [_Density.of(rho)])
    return average()[0], rhs[0]


def _theorem3_bound(dilations, states) -> tuple[Callable[[], list[float]], list[float]]:
    """theorem3_bound of checked states on dilations of one shape: the ceilings, from one
    stacked joint root and ``_closed_forms``, and the orbit means (``avgdist._orbit_means``,
    one orbit at a time) as a later call, TooManyLevels past the cap."""
    dims = (dilations[0].sys_dim, dilations[0].env_dim)
    joints = np.array([dil._joint(state.hermitian)
                       for dil, state in zip(dilations, states)])
    hams, durations = [dil.hamiltonian for dil in dilations], [dil.duration for dil in dilations]
    rhs = [form[2] for form in _closed_forms(_rebuild(*_psd_sqrt_eig(joints)), hams, durations)]
    vecs, roots = np.array([h.eigenvectors for h in hams]), np.array([s.root for s in states])

    def distances(lam, vecs, t, joint, root):
        u = _eigenbasis_operators(vecs, _phases(lam, t))
        out = _trace_second(u @ joint @ dagger(u), *dims)
        return _hellinger(root, *_psd_sqrt_eig(hermitianize(out)))

    return lambda: _orbit_means(hams, distances, vecs, np.array(durations, complex)[:, None],
                                joints, roots), rhs


@dataclass(frozen=True)
class EqualityGapReport:
    """Distances at the identity permutation and the orthogonality witness.

    gap = dilated_distance - system_distance >= 0 by monotonicity;
    witness = <psi| Phi(|psi><psi|) |psi> must vanish for the gap to
    close at maximal distance.
    """

    system_distance: float
    dilated_distance: float
    gap: float
    witness: float

    @property
    def witness_is_zero(self) -> bool:
        return self.witness < TOL_ZERO


def equality_gap_analysis(channel: KrausChannel, rho) -> EqualityGapReport:
    """Compare the channel-level and dilated distances for a pure input."""
    return _equality_gap(channel, dilate(channel), _Density.of(rho))


def _equality_gap(channel: KrausChannel, dilation: StinespringDilation,
                  state: _Density) -> EqualityGapReport:
    """equality_gap_analysis of a checked state on a given unitary dilation of the channel;
    purity is read from its eigenvalues, rho taken by its lower triangle as in theorem3_bound."""
    if state.eigenvalues[-1] < 1.0 - TOL_STRUCT:
        raise InvalidState("equality analysis requires a pure input state")
    rho = state.hermitian
    out = _apply_kraus(channel, rho)
    d_sys = _hellinger(state.root, *_psd_sqrt_eig(out))
    u = dilation.unitary()
    joint0 = dilation._joint(rho)
    joint1 = u @ joint0 @ u.conj().T
    d_joint = _hellinger(_rebuild(*_psd_sqrt_eig(joint0)), *_psd_sqrt_eig(hermitianize(joint1)))
    witness = float(np.trace(rho @ out).real)
    return EqualityGapReport(system_distance=d_sys, dilated_distance=d_joint,
                             gap=d_joint - d_sys, witness=witness)


def channel_to_dict(channel: KrausChannel) -> dict:
    """JSON-ready dict: Kraus matrices as nested arrays of [re, im] pairs."""
    ops = channel.operators
    return {"label": channel.label, "kraus": ops.view(float).reshape(*ops.shape, 2).tolist()}


def channel_from_dict(doc: dict) -> KrausChannel:
    """Inverse of channel_to_dict; validates shape and completeness."""
    validate_document(doc, "channel.schema.json")
    return KrausChannel(_complex_array(doc["kraus"]), label=doc.get("label", ""))


def save_channel(channel: KrausChannel, path) -> None:
    Path(path).write_text(json.dumps(channel_to_dict(channel), indent=2) + "\n",
                          encoding="utf-8")


def load_channel(path) -> KrausChannel:
    """The channel saved at path; a non-finite entry fails the schema (see ``parse_json``)."""
    return channel_from_dict(parse_json(Path(path).read_text(encoding="utf-8")))
