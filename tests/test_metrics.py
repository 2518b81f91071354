"""Distance functions and speed-limit bounds."""

import numpy as np
import pytest
import scipy.linalg

from coherence_speed import dynamics, linalg, metrics
from coherence_speed.dynamics import HamiltonianPath, energy_uncertainty, evolve
from coherence_speed.errors import DimensionMismatch, InvalidState
from coherence_speed.linalg import (
    OrthogonalDecomposition,
    SpectralHamiltonian,
    haar_random_state,
    pure_density,
    random_density,
    unitary_exp,
)
from coherence_speed.metrics import (
    affinity,
    bures_angle,
    d_affinity_half,
    fidelity,
    hellinger,
    qsl_bounds,
)


def test_hellinger_range_symmetry_identity():
    rng = np.random.default_rng(21)
    for _ in range(30):
        d = int(rng.integers(2, 7))
        rho = random_density(d, rank=int(rng.integers(1, d + 1)), seed=rng)
        sig = random_density(d, rank=int(rng.integers(1, d + 1)), seed=rng)
        val = hellinger(rho, sig)
        assert 0.0 <= val <= 2.0
        assert abs(val - hellinger(sig, rho)) < 1e-12
        assert hellinger(rho, rho) < 1e-12


def test_hellinger_two_for_orthogonal_pure_states():
    e = np.eye(3, dtype=complex)
    assert abs(hellinger(pure_density(e[0]), pure_density(e[1])) - 2.0) < 1e-12


def test_affinity_pure_states_is_squared_overlap():
    # sqrt(rho) = rho for pure states, so Tr sqrt(rho) sqrt(sigma) = |<a|b>|^2
    rng = np.random.default_rng(22)
    for _ in range(20):
        a = haar_random_state(4, rng)
        b = haar_random_state(4, rng)
        want = abs(np.vdot(a, b)) ** 2
        assert abs(affinity(pure_density(a), pure_density(b)) - want) < 1e-10


def test_affinity_and_hellinger_take_no_precomputed_root():
    rng = np.random.default_rng(23)
    rho = random_density(4, rank=3, seed=rng)
    sig = random_density(4, rank=2, seed=rng)
    for fn in (affinity, hellinger):
        for keyword in ("sqrt_rho", "sqrt_sigma"):
            with pytest.raises(TypeError, match=keyword):
                fn(rho, sig, **{keyword: linalg.matrix_sqrt_psd(rho)})


def _rebuilt_root_affinity(rho, sigma):
    """Tr sqrt(rho) sqrt(sigma) from both rebuilt roots, clipped into [0, 1]."""
    a, b = linalg.matrix_sqrt_psd(rho), linalg.matrix_sqrt_psd(sigma)
    return np.clip((a @ b).trace(axis1=-2, axis2=-1).real, 0.0, 1.0)


def _affinity_cases(rng):
    """(rho, sigma) at d = 2..8 over ranks 1..d, and with a 1e-8 eigenvalue."""
    for d in range(2, 9):
        for rank in range(1, d + 1):
            yield random_density(d, rank=rank, seed=rng), random_density(
                d, rank=int(rng.integers(1, d + 1)), seed=rng)
        u = linalg.random_unitary(d, rng)
        p = np.r_[1e-8, rng.uniform(0.2, 1.0, d - 1)]
        yield random_density(d, rank=d, seed=rng), (u * (p / p.sum())) @ u.conj().T


def test_affinity_from_eigendata_matches_the_rebuilt_root():
    rng = np.random.default_rng(25)
    cases = list(_affinity_cases(rng))
    for rho, sig in cases:
        d = len(rho)
        for a, b in ((rho, sig), (sig, rho)):
            assert abs(affinity(a, b) - _rebuilt_root_affinity(a, b)) < d * 1e-15
    for d in range(2, 9):
        rhos = np.stack([rho for rho, _ in cases if len(rho) == d])
        sigs = np.stack([sig for rho, sig in cases if len(rho) == d])
        for a, b in ((rhos, sigs), (rhos[0], sigs), (rhos, sigs[-1])):
            got = affinity(a, b)
            assert got.shape == (len(rhos),)
            assert np.max(np.abs(got - _rebuilt_root_affinity(a, b))) < d * 1e-15


def test_the_dead_band_pair_still_reads_exactly_two():
    # eigenvalues below TOL_PSD are exact zeros, so the overlap vanishes
    # (the true distance at e = 5e-11 is 1.99997172)
    e = 5e-11
    assert hellinger(np.diag([1.0 - e, e]), np.diag([e, 1.0 - e])) == 2.0


def test_affinity_never_forms_the_root_of_sigma(monkeypatch):
    calls = []
    monkeypatch.setattr(metrics, "matrix_sqrt_psd",
                        lambda rho: calls.append(np.shape(rho)) or linalg.matrix_sqrt_psd(rho))
    rng = np.random.default_rng(26)
    rho, sig = random_density(4, rank=3, seed=rng), random_density(4, rank=2, seed=rng)
    affinity(rho, sig)
    assert calls == [(4, 4)]                  # the root of rho only
    affinity(rho, np.stack([sig, rho]))
    fidelity(rho, sig)
    assert calls == [(4, 4)] * 3


def test_hellinger_contracts_under_dephasing():
    rng = np.random.default_rng(24)
    dec = OrthogonalDecomposition.computational(5, [[0, 1], [2], [3, 4]])
    for _ in range(20):
        rho = random_density(5, rank=2, seed=rng)
        sig = random_density(5, rank=3, seed=rng)
        assert (hellinger(dec.dephase(rho), dec.dephase(sig))
                <= hellinger(rho, sig) + 1e-10)


def test_d_affinity_half_follows_affinity():
    rng = np.random.default_rng(25)
    rho = random_density(3, rank=2, seed=rng)
    sig = random_density(3, rank=3, seed=rng)
    a = affinity(rho, sig)
    assert abs(d_affinity_half(rho, sig) - (1.0 - a * a)) < 1e-14


def test_fidelity_and_bures_angle_pure():
    rng = np.random.default_rng(26)
    a = haar_random_state(3, rng)
    b = haar_random_state(3, rng)
    ov = abs(np.vdot(a, b))
    assert abs(fidelity(pure_density(a), pure_density(b)) - ov ** 2) < 1e-10
    assert abs(fidelity(pure_density(a), pure_density(a)) - 1.0) < 1e-12
    ang = bures_angle(pure_density(a), pure_density(b))
    assert abs(ang - np.arccos(ov)) < 1e-7


def _density_with(u, p0, rng):
    """U diag(p) U† with p_0 = p0 and the other eigenvalues drawn from [0.2, 1], renormalized."""
    p = rng.uniform(0.2, 1.0, len(u))
    p[0] = p0
    p[1:] *= (1.0 - p0) / p[1:].sum()
    return linalg.hermitianize((u * p) @ u.conj().T), p


def test_fidelity_of_nearly_rank_deficient_states():
    # p_0 puts the smallest eigenvalue of sqrt(rho) sigma sqrt(rho), to first order
    # p_0 / (U† sigma^-1 U)_00 (p_0 q_0 when the states commute), at 1e-9..1e-7: above
    # the dead band TOL_PSD, and dropping it would cost about 2 sqrt(1e-9) = 6e-5
    rng = np.random.default_rng(27)
    for _ in range(40):
        d = int(rng.integers(2, 5))
        u = linalg.random_unitary(d, rng)
        small = 10.0 ** rng.uniform(-9.0, -7.0)
        q = rng.uniform(0.2, 1.0, d)
        q /= q.sum()
        rho, p = _density_with(u, small / q[0], rng)
        commuting = linalg.hermitianize((u * q) @ u.conj().T)
        assert abs(fidelity(rho, commuting) - np.sum(np.sqrt(p * q)) ** 2) <= 1e-9
        sigma = random_density(d, rank=d, seed=rng)
        rho, _ = _density_with(u, small * (u.conj().T @ np.linalg.inv(sigma) @ u)[0, 0].real, rng)
        s = scipy.linalg.sqrtm(rho)
        want = np.trace(scipy.linalg.sqrtm(s @ sigma @ s)).real ** 2
        assert abs(fidelity(rho, sigma) - want) <= 1e-9


def test_qsl_zero_elapsed_time_reads_as_zero_angle():
    # regression: one ulp of rounding in the evolved state must not turn
    # into a ~2e-8 angle through arccos at its singular endpoint
    ham = SpectralHamiltonian.from_spectrum(np.array([0.0, 1.0]))
    psi = np.full(2, 1.0 / np.sqrt(2.0), dtype=complex)
    b = qsl_bounds(psi, ham, unitary_exp(ham, 0.0) @ psi)
    assert b.bures_angle < 1e-12
    assert b.mt_time is not None and b.mt_time < 1e-12


def test_qsl_qubit_saturates_spread_bound():
    ham = SpectralHamiltonian.from_spectrum(np.array([0.0, 1.0]))
    psi = np.full(2, 1.0 / np.sqrt(2.0), dtype=complex)
    for t in np.linspace(0.1, np.pi, 16):
        b = qsl_bounds(psi, ham, unitary_exp(ham, float(t)) @ psi)
        assert b.mt_time <= t + 1e-9
        assert abs(b.mt_time - t) < 1e-7   # equal superposition is geodesic
    b = qsl_bounds(psi, ham, unitary_exp(ham, float(np.pi)) @ psi)
    assert abs(b.bures_angle - np.pi / 2.0) < 1e-9
    assert abs(b.ml_time - np.pi) < 1e-9   # mean-energy bound tight here too


def test_qsl_floor_on_random_evolutions():
    rng = np.random.default_rng(27)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        lam = np.sort(rng.uniform(0.0, 4.0, d))
        lam[1:] += 1e-3 * np.arange(1, d)
        ham = SpectralHamiltonian.from_spectrum(lam)
        psi = haar_random_state(d, rng)
        t = float(rng.uniform(0.05, 6.0))
        b = qsl_bounds(psi, ham, unitary_exp(ham, t) @ psi)
        if b.mt_time is not None:
            assert b.mt_time <= t + 1e-9


def test_energy_spread_survives_a_shifted_spectrum():
    # the plus state on levels (a, b) has mean (b - a) / 2 above a and spread
    # (b - a) / 2 exactly; routes through the dense H lose eps * shift to rounding
    psi = np.full(2, 1.0 / np.sqrt(2.0), dtype=complex)
    for shift in (0.0, 100.0, 1e4, 1e6):
        lam = shift + np.array([0.0, 1e-3])
        exact = (lam[1] - lam[0]) / 2.0
        ham = SpectralHamiltonian.from_spectrum(lam)
        assert abs(energy_uncertainty(psi, ham) - exact) <= 1e-12 * exact
        b = qsl_bounds(psi, ham, unitary_exp(ham, 1.0) @ psi)
        assert abs(b.energy_stddev - exact) <= 1e-12 * exact
        assert abs(b.mean_energy - exact) <= 1e-12 * exact
        traj = evolve(psi, HamiltonianPath.constant(np.diag(lam), 1.0, steps=10))
        assert np.max(np.abs(traj.uncertainties - exact)) <= 1e-12 * exact


def test_qsl_degenerate_denominators_give_none():
    ham = SpectralHamiltonian.from_spectrum(np.array([0.0, 1.0, 3.0]))
    excited = np.array([0.0, 1.0, 0.0], dtype=complex)
    b = qsl_bounds(excited, ham, excited)
    assert b.mt_time is None          # eigenstate: zero energy spread
    assert b.ml_time is not None      # mean above ground is 1
    ground = np.array([1.0, 0.0, 0.0], dtype=complex)
    g = qsl_bounds(ground, ham, ground)
    assert g.mt_time is None and g.ml_time is None


def test_qsl_bounds_validates_each_state_once(monkeypatch):
    calls = []

    def counting(psi, **kwargs):
        calls.append(1)
        return linalg.validate_state_vector(psi, **kwargs)

    for module in (metrics, dynamics):
        monkeypatch.setattr(module, "validate_state_vector", counting)
    rng = np.random.default_rng(31)
    ham = SpectralHamiltonian.from_spectrum([0.0, 0.4, 1.7])
    psi0 = haar_random_state(3, rng)
    bounds = qsl_bounds(psi0, ham, haar_random_state(3, rng))
    assert len(calls) == 2
    assert bounds.energy_stddev == energy_uncertainty(psi0, ham)
    # the dense route agrees within its rounding budget, about eps * ||H||
    h = ham.matrix()
    budget = 8.0 * np.finfo(float).eps * np.linalg.norm(h, 2)
    assert abs(bounds.energy_stddev - energy_uncertainty(psi0, h)) <= budget
    assert abs(bounds.mean_energy - (np.vdot(psi0, h @ psi0).real - ham.eigenvalues[0])) <= budget


def _qsl_angle_loop(psi0, targets) -> list[float]:
    """The angles target by target, as qsl_bounds once took them: the reference for _qsl_grid."""
    out = []
    for psi1 in targets:
        psi1 = linalg.validate_state_vector(psi1)
        overlap = complex(np.vdot(psi0, psi1))
        mag = abs(overlap)
        aligned = psi1 * (overlap.conjugate() / mag) if mag > linalg.TOL_ZERO else psi1
        half_chord = float(np.linalg.norm(aligned - psi0))
        half_sum = float(np.linalg.norm(aligned + psi0))
        out.append(min(2.0 * float(np.arctan2(half_chord, half_sum)), float(np.pi / 2)))
    return out


@pytest.mark.bits
def test_qsl_grid_equals_the_per_target_loop_bit_for_bit():
    rng = np.random.default_rng(32)
    for d in range(1, 9):
        for _ in range(6):
            ham = SpectralHamiltonian.from_spectrum(np.sort(rng.normal(size=d)))
            psi0 = haar_random_state(d, rng)
            times = rng.uniform(0.0, 6.0, 10)
            targets = np.array([unitary_exp(ham, float(t)) @ psi0 for t in times]
                               + [haar_random_state(d, rng) for _ in range(5)])
            angles, _, _ = metrics._qsl_grid(psi0, ham, targets)
            assert angles.tolist() == _qsl_angle_loop(psi0, targets)
            # a single row takes its phase in scalars, not through the masked division
            assert [metrics._qsl_grid(psi0, ham, row[None])[0].item()
                    for row in targets] == angles.tolist()


@pytest.mark.bits
def test_qsl_grid_edge_targets_equal_the_per_target_loop():
    rng = np.random.default_rng(33)
    ham = SpectralHamiltonian.from_spectrum([-0.3, 0.4, 0.4, 1.7])
    stationary = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
    ground = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    for psi0 in (haar_random_state(4, rng), stationary, ground):
        orthogonal = haar_random_state(4, rng)
        orthogonal -= np.vdot(psi0, orthogonal) * psi0
        orthogonal /= np.linalg.norm(orthogonal)
        # past orthogonal: the overlap -1e-13 is below TOL_ZERO, so the row is not
        # rotated, its chord outgrows its sum and the pi/2 cap binds
        beyond = np.sqrt(1.0 - 1e-26) * orthogonal - 1e-13 * psi0
        targets = np.array([psi0, orthogonal, -1j * psi0, beyond]
                           + [unitary_exp(ham, float(t)) @ psi0 for t in np.linspace(0.0, 4.0, 9)])
        assert abs(np.vdot(psi0, orthogonal)) <= linalg.TOL_ZERO
        angles, mean, stddev = metrics._qsl_grid(psi0, ham, targets)
        assert angles.tolist() == _qsl_angle_loop(psi0, targets)
        assert angles[0] == 0.0 and abs(angles[1] - np.pi / 2) < 1e-15 and angles[2] < 1e-15
        assert angles[3] == np.pi / 2
        assert [metrics._qsl_grid(psi0, ham, row[None])[0].item()
                for row in targets] == angles.tolist()
        bounds = qsl_bounds(psi0, ham, targets[-1])
        assert (bounds.bures_angle, bounds.mean_energy, bounds.energy_stddev) == (
            angles[-1], mean, stddev)
        empty, *moments = metrics._qsl_grid(psi0, ham, np.empty((0, 4), dtype=complex))
        assert empty.shape == (0,) and moments == [mean, stddev]
    assert qsl_bounds(stationary, ham, stationary).mt_time is None
    ground_bounds = qsl_bounds(ground, ham, ground)
    assert ground_bounds.mt_time is None and ground_bounds.ml_time is None


def test_qsl_bounds_validates_states_before_dimensions():
    ham = SpectralHamiltonian.from_spectrum([0.0, 1.0])
    good = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(InvalidState):
        qsl_bounds(np.ones(3), ham, good)                  # wrong norm and size
    with pytest.raises(InvalidState):
        qsl_bounds(good, ham, np.ones(3))
    with pytest.raises(DimensionMismatch):
        qsl_bounds(good, ham, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(DimensionMismatch):
        qsl_bounds(np.array([1.0, 0.0, 0.0]), ham, np.array([1.0, 0.0, 0.0]))
