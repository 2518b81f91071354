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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from .avgdist import BRUTE_FORCE_CAP, b_coefficient
from .coherence import _c_half
from .errors import (
    DimensionMismatch,
    IncompleteKraus,
    InvalidState,
    TooManyKraus,
    TooManyLevels,
)
from .linalg import (
    TOL_DEGEN,
    SpectralHamiltonian,
    dagger,
    hermitianize,
    kahan_mean,
    matrix_sqrt_psd,
    orbit_operators,
    partial_trace,
    pure_density,
    tensor,
    unitary_exp,
    validate_density,
)
from .metrics import hellinger
from .schemas import validate_document


@dataclass
class KrausChannel:
    """Completely positive trace-preserving map as a tuple of Kraus operators."""

    operators: tuple[np.ndarray, ...]
    label: str = ""

    def __post_init__(self) -> None:
        ops = tuple(np.asarray(k, dtype=complex) for k in self.operators)
        if not ops:
            raise IncompleteKraus("need at least one Kraus operator")
        d = ops[0].shape[0]
        for k in ops:
            if k.shape != (d, d):
                raise DimensionMismatch("Kraus operators must share one square shape")
        total = sum(k.conj().T @ k for k in ops)
        defect = float(np.max(np.abs(total - np.eye(d))))
        if defect > 1e-8:
            raise IncompleteKraus(f"sum K†K deviates from identity by {defect:.3e}")
        self.operators = ops

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]


def apply_kraus(channel: KrausChannel, rho) -> np.ndarray:
    """sum_j K_j rho K_j†."""
    return _apply_kraus(channel, validate_density(rho))


def _apply_kraus(channel: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """apply_kraus for a state that has passed validate_density."""
    if rho.shape[0] != channel.dim:
        raise DimensionMismatch("state dimension does not match channel")
    out = np.zeros_like(rho)
    for k in channel.operators:
        out += k @ rho @ k.conj().T
    return hermitianize(out)


def dephasing_channel(decomposition) -> KrausChannel:
    """Full dephasing onto a projector family (Kraus operators = projectors)."""
    return KrausChannel(tuple(decomposition.projectors), label="dephasing")


def qutrit_equality_channel() -> KrausChannel:
    """Qutrit channel mapping |0><0| to an orthogonal mixed state.

    Kraus operators: |1><0|/sqrt2, |2><0|/sqrt2, |1><1|, |2><2|.  The
    output <0|Phi(|0><0|)|0> vanishes, which makes the dilated joint
    distance equal the channel-level distance (both maximal).
    """
    k0 = np.zeros((3, 3), dtype=complex)
    k0[1, 0] = 1.0 / np.sqrt(2.0)
    k1 = np.zeros((3, 3), dtype=complex)
    k1[2, 0] = 1.0 / np.sqrt(2.0)
    k2 = np.zeros((3, 3), dtype=complex)
    k2[1, 1] = 1.0
    k3 = np.zeros((3, 3), dtype=complex)
    k3[2, 2] = 1.0
    return KrausChannel((k0, k1, k2, k3), label="qutrit-equality")


def random_channel(dim: int, n_kraus: int, seed) -> KrausChannel:
    """Random CPTP map: slices of a Haar-random unitary dilation."""
    from .linalg import random_unitary

    w = random_unitary(dim * n_kraus, seed)
    iso = w[:, [c * n_kraus for c in range(dim)]]
    iso3 = iso.reshape(dim, n_kraus, dim)
    ops = tuple(np.ascontiguousarray(iso3[:, j, :]) for j in range(n_kraus))
    return KrausChannel(ops, label=f"random-{dim}x{n_kraus}")


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
        if abs(np.linalg.norm(self.env_state) - 1.0) > 1e-9:
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


def dilate(channel: KrausChannel, env_dim: int | None = None,
           tol_degen: float = TOL_DEGEN) -> StinespringDilation:
    """Unitary dilation of a Kraus channel with env state |0>.

    The isometry V|psi> = sum_j (K_j|psi>) x |j> is completed to a
    unitary by an orthonormal basis of its column complement; the
    generator is the principal logarithm i log U with eigenphases
    folded to (-pi + tol_degen, pi + tol_degen] and unit duration: a
    phase within tol_degen of -pi is taken as its image near +pi, so
    that an eigenvalue -1 of U, which rounding puts on either side of
    the branch cut, gives one level.
    """
    d = channel.dim
    n_ops = len(channel.operators)
    d_env = n_ops if env_dim is None else int(env_dim)
    if n_ops > d_env:
        raise TooManyKraus(f"{n_ops} Kraus operators exceed environment dimension {d_env}")
    n = d * d_env
    iso = np.zeros((n, d), dtype=complex)
    iso3 = iso.reshape(d, d_env, d)
    for j, k in enumerate(channel.operators):
        iso3[:, j, :] = k
    u = np.zeros((n, n), dtype=complex)
    u4 = u.reshape(n, d, d_env)
    u4[:, :, 0] = iso
    if n > d:
        comp = scipy.linalg.null_space(iso.conj().T)
        slots = [(c, j) for c in range(d) for j in range(1, d_env)]
        for col, (c, j) in enumerate(slots):
            u4[:, c, j] = comp[:, col]
    if np.max(np.abs(u.conj().T @ u - np.eye(n))) > 1e-9:
        raise InvalidState("unitary completion failed")
    # Principal logarithm via the Schur form (U is normal).
    t_mat, z = scipy.linalg.schur(u, output="complex")
    phases = np.diagonal(t_mat)
    lam = np.angle(phases.conj())  # in [-pi, pi]
    lam = np.where(lam <= -np.pi + tol_degen, lam + 2.0 * np.pi, lam)
    h = hermitianize((z * lam) @ z.conj().T)
    ham = SpectralHamiltonian.from_matrix(h, tol_degen)
    env0 = np.zeros(d_env, dtype=complex)
    env0[0] = 1.0
    return StinespringDilation(hamiltonian=ham, sys_dim=d, env_dim=d_env,
                               env_state=env0, duration=1.0)


def permuted_channel_apply(dilation: StinespringDilation, assignment, rho) -> np.ndarray:
    """Channel obtained by permuting the dilation's level assignment."""
    ham_s = dilation.hamiltonian.permute_levels(assignment)
    u = unitary_exp(ham_s, dilation.duration)
    joint = dilation.joint_input(rho)
    return partial_trace(u @ joint @ u.conj().T,
                         (dilation.sys_dim, dilation.env_dim), over=1)


def theorem3_bound(dilation: StinespringDilation, rho,
                   *, cap: int = BRUTE_FORCE_CAP) -> tuple[float, float]:
    """Permutation-averaged channel distance and its closed-form ceiling.

    Returns (lhs, rhs) with
      lhs = (1/M!) sum_s D(Phi_s(rho), rho),
      rhs = 2 (1 - B(T)) c_half(rho x |0><0|).
    """
    rho = validate_density(rho)
    ham = dilation.hamiltonian
    m_count = ham.level_count
    if m_count > cap:
        raise TooManyLevels(f"{m_count} levels exceed brute-force cap {cap}")
    joint = dilation._joint(rho)
    coh = _c_half(joint, ham.decomposition)
    if m_count == 1:
        coef = 1.0
    else:
        coef = b_coefficient(ham.levels, dilation.duration)
    rhs = 2.0 * (1.0 - coef) * coh
    sqrt_rho = matrix_sqrt_psd(rho)
    dims = (dilation.sys_dim, dilation.env_dim)
    terms = []
    for u in orbit_operators(ham, lambda lam: np.exp(-1j * lam * dilation.duration)):
        out = partial_trace(u @ joint @ dagger(u), dims, over=1)
        terms.append(hellinger(rho, hermitianize(out), sqrt_rho=sqrt_rho))
    lhs = kahan_mean(np.concatenate(terms).tolist())
    return lhs, rhs


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
        return self.witness < 1e-12


def equality_gap_analysis(channel: KrausChannel, rho) -> EqualityGapReport:
    """Compare the channel-level and dilated distances for a pure input."""
    rho = validate_density(rho)
    w = np.linalg.eigvalsh(hermitianize(rho))
    if w[-1] < 1.0 - 1e-8:
        raise InvalidState("equality analysis requires a pure input state")
    out = _apply_kraus(channel, rho)
    d_sys = hellinger(rho, out)
    dil = dilate(channel)
    u = dil.unitary()
    joint0 = dil._joint(rho)
    joint1 = u @ joint0 @ u.conj().T
    d_joint = hellinger(joint0, hermitianize(joint1))
    witness = float(np.trace(rho @ out).real)
    return EqualityGapReport(system_distance=d_sys, dilated_distance=d_joint,
                             gap=d_joint - d_sys, witness=witness)


def channel_to_dict(channel: KrausChannel) -> dict:
    """JSON-ready dict: Kraus matrices as nested arrays of [re, im] pairs."""
    return {
        "label": channel.label,
        "kraus": [[[[float(x.real), float(x.imag)] for x in row] for row in k]
                  for k in channel.operators],
    }


def channel_from_dict(doc: dict) -> KrausChannel:
    """Inverse of channel_to_dict; validates shape and completeness."""
    validate_document(doc, "channel.schema.json")
    ops = []
    for k in doc["kraus"]:
        mat = np.array([[complex(re, im) for re, im in row] for row in k], dtype=complex)
        ops.append(mat)
    return KrausChannel(tuple(ops), label=doc.get("label", ""))


def save_channel(channel: KrausChannel, path) -> None:
    Path(path).write_text(json.dumps(channel_to_dict(channel), indent=2) + "\n",
                          encoding="utf-8")


def load_channel(path) -> KrausChannel:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return channel_from_dict(doc)
