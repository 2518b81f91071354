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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy.linalg

from .avgdist import _closed_form, _orbit_mean
from .errors import DimensionMismatch, IncompleteKraus, InvalidState, TooManyKraus
from .linalg import (
    TOL_DEGEN,
    TOL_NORM,
    TOL_ORTH,
    TOL_STRUCT,
    TOL_ZERO,
    SpectralHamiltonian,
    _eigenbasis_operators,
    dagger,
    hermitianize,
    matrix_sqrt_psd,
    partial_trace,
    pure_density,
    random_unitary,
    tensor,
    unitary_exp,
    validate_density,
)
from .metrics import hellinger
from .schemas import _complex_array, parse_json, validate_document


@dataclass
class KrausChannel:
    """CPTP map as one (K, d, d) Kraus stack; completeness_residual is max|sum K†K - I|."""

    operators: np.ndarray
    label: str = ""
    completeness_residual: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        try:
            ops = np.array(self.operators, dtype=complex)
        except ValueError as exc:       # a ragged nesting of matrices
            raise DimensionMismatch("Kraus operators must share one square shape") from exc
        if ops.ndim and not len(ops):
            raise IncompleteKraus("need at least one Kraus operator")
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise DimensionMismatch("Kraus operators must share one square shape")
        # NaN fails no `> tol` residual test below, so reject it here
        if not np.isfinite(ops).all():
            raise IncompleteKraus("Kraus entries are not all finite")
        total = (dagger(ops) @ ops).sum(axis=0)
        defect = float(np.max(np.abs(total - np.eye(ops.shape[1]))))
        if defect > TOL_STRUCT:
            raise IncompleteKraus(f"sum K†K deviates from identity by {defect:.3e}")
        self.operators = ops
        self.completeness_residual = defect

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


def dephasing_channel(decomposition) -> KrausChannel:
    """Full dephasing onto a projector family (Kraus operators = projectors)."""
    return KrausChannel(decomposition.projectors, label="dephasing")


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
    iso = random_unitary(dim * n_kraus, seed)[:, ::n_kraus]  # <s|K_j|c> at [s * n_kraus + j, c]
    return KrausChannel(iso.reshape(dim, n_kraus, dim).swapaxes(0, 1),
                        label=f"random-{dim}x{n_kraus}")


@dataclass
class StinespringDilation:
    """Unitary model of a channel: evolve rho x env under exp(-i H T), trace out env."""

    hamiltonian: SpectralHamiltonian
    sys_dim: int
    env_dim: int
    env_state: np.ndarray
    duration: float = 1.0

    def __post_init__(self) -> None:
        if self.hamiltonian.dim != self.sys_dim * self.env_dim:
            raise DimensionMismatch("Hamiltonian dimension is not sys_dim * env_dim")
        self.env_state = np.asarray(self.env_state, dtype=complex).reshape(-1)
        if len(self.env_state) != self.env_dim:
            raise DimensionMismatch("environment state dimension mismatch")
        if abs(np.linalg.norm(self.env_state) - 1.0) > TOL_NORM:
            raise InvalidState("environment state is not normalized")

    @property
    def levels(self) -> np.ndarray:
        return self.hamiltonian.levels

    def unitary(self) -> np.ndarray:
        return unitary_exp(self.hamiltonian, self.duration)

    def joint_input(self, rho) -> np.ndarray:
        return self._joint(validate_density(rho))

    def _joint(self, rho: np.ndarray) -> np.ndarray:
        """rho x |env><env| for a state that has passed validate_density."""
        if rho.shape[0] != self.sys_dim:
            raise DimensionMismatch("state dimension does not match system")
        return tensor(rho, pure_density(self.env_state))

    def apply(self, rho) -> np.ndarray:
        """Channel action Tr_env[U (rho x env) U†]."""
        u = self.unitary()
        joint = self.joint_input(rho)
        return partial_trace(u @ joint @ u.conj().T, (self.sys_dim, self.env_dim), over=1)


def dilate(channel: KrausChannel, env_dim: int | None = None) -> StinespringDilation:
    """Unitary dilation of a Kraus channel with env state |0>.

    The isometry V|psi> = sum_j (K_j|psi>) x |j> is completed to a
    unitary by an orthonormal basis of its column complement; the
    generator is the principal logarithm i log U with eigenphases
    folded to (-pi + TOL_DEGEN, pi + TOL_DEGEN] and unit duration: a
    phase within TOL_DEGEN of -pi is taken as its image near +pi, so
    that an eigenvalue -1 of U, which rounding puts on either side of
    the branch cut, gives one level.
    """
    d = channel.dim
    n_ops = len(channel.operators)
    d_env = n_ops if env_dim is None else int(env_dim)
    if n_ops > d_env:
        raise TooManyKraus(f"{n_ops} Kraus operators exceed environment dimension {d_env}")
    n = d * d_env
    iso = np.zeros((n, d), dtype=complex)     # <s|K_j|c> at [s * d_env + j, c]
    iso.reshape(d, d_env, d)[:, :n_ops] = channel.operators.swapaxes(0, 1)
    u = np.zeros((n, n), dtype=complex)       # column c * d_env + j; the complement at j >= 1
    u3 = u.reshape(n, d, d_env)
    u3[:, :, 0] = iso
    u3[:, :, 1:] = scipy.linalg.null_space(dagger(iso)).reshape(n, d, d_env - 1)
    if np.max(np.abs(u.conj().T @ u - np.eye(n))) > TOL_ORTH:
        raise InvalidState("unitary completion failed")
    # Principal logarithm via the Schur form (U is normal).
    t_mat, z = scipy.linalg.schur(u, output="complex")
    lam = np.angle(np.diagonal(t_mat).conj())  # in [-pi, pi]
    lam = np.where(lam <= -np.pi + TOL_DEGEN, lam + 2.0 * np.pi, lam)
    ham = SpectralHamiltonian.from_matrix(hermitianize((z * lam) @ z.conj().T))
    return StinespringDilation(hamiltonian=ham, sys_dim=d, env_dim=d_env,
                               env_state=np.eye(d_env)[0], duration=1.0)


def permuted_channel_apply(dilation: StinespringDilation, assignment, rho) -> np.ndarray:
    """Channel obtained by permuting the dilation's level assignment."""
    ham_s = dilation.hamiltonian.permute_levels(assignment)
    return replace(dilation, hamiltonian=ham_s).apply(rho)


def theorem3_bound(dilation: StinespringDilation, rho) -> tuple[float, float]:
    """Permutation-averaged channel distance and its closed-form ceiling.

    Returns (lhs, rhs) with
      lhs = (1/M!) sum_s D(Phi_s(rho), rho),
      rhs = 2 (1 - B(T)) c_half(rho x |0><0|).
    """
    rho = validate_density(rho)
    joint = dilation._joint(rho)
    sqrt_rho = matrix_sqrt_psd(rho)
    dims = (dilation.sys_dim, dilation.env_dim)

    def distances(phi):
        u = _eigenbasis_operators(dilation.hamiltonian, phi)
        out = partial_trace(u @ joint @ dagger(u), dims, over=1)
        return hellinger(rho, hermitianize(out), sqrt_rho=sqrt_rho)

    ham, duration = dilation.hamiltonian, dilation.duration
    lhs = _orbit_mean(ham, lambda lam: np.exp(-1j * lam * duration), distances)
    return lhs, _closed_form(joint, ham, duration)[2]


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
    return _equality_gap(channel, dilate(channel), rho)


def _equality_gap(channel: KrausChannel, dilation: StinespringDilation,
                  rho) -> EqualityGapReport:
    """equality_gap_analysis on a given unitary dilation of the channel."""
    rho = validate_density(rho)
    w = np.linalg.eigvalsh(hermitianize(rho))
    if w[-1] < 1.0 - TOL_STRUCT:
        raise InvalidState("equality analysis requires a pure input state")
    out = _apply_kraus(channel, rho)
    d_sys = hellinger(rho, out)
    u = dilation.unitary()
    joint0 = dilation._joint(rho)
    joint1 = u @ joint0 @ u.conj().T
    d_joint = hellinger(joint0, hermitianize(joint1))
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
