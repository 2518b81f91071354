"""Piecewise-constant propagation and the instantaneous-speed identity."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from coherence_speed import dynamics
from coherence_speed.dynamics import (
    HamiltonianPath,
    energy_uncertainty,
    evolve,
    finite_difference_speed,
    gap_squared_matrix,
    instantaneous_speed,
    qubit_closed_form,
)
from coherence_speed.errors import DimensionMismatch, GridTooCoarse, InvalidState, NotHermitian
from coherence_speed.linalg import (
    TOL_DEGEN,
    SpectralHamiltonian,
    haar_random_state,
    hermitianize,
    pure_density,
    random_hermitian,
    random_unitary,
    unitary_exp,
)
from coherence_speed.metrics import hellinger


def test_constant_path_matches_exact_propagator():
    rng = np.random.default_rng(61)
    h = random_hermitian(3, rng)
    ham = SpectralHamiltonian.from_matrix(h)
    psi0 = haar_random_state(3, rng)
    traj = evolve(psi0, HamiltonianPath.constant(h, 2.0, steps=400))
    for k in (100, 250, 400):
        t = traj.times[k]
        exact = unitary_exp(ham, float(t)) @ psi0
        # piecewise-constant steps of a constant H compose exactly
        assert np.max(np.abs(traj.states[k] - exact)) < 1e-10
        assert abs(np.linalg.norm(traj.states[k]) - 1.0) < 1e-10


def test_speed_identity_sqrt2_delta_h():
    rng = np.random.default_rng(62)
    for trial in range(60):
        d = int(rng.integers(2, 8))
        if trial % 3 == 0:
            lam = np.sort(rng.uniform(0.0, 4.0, d))
            lam[d // 2:] = lam[d // 2]          # force a degenerate level
            ham = SpectralHamiltonian.from_spectrum(lam)
        else:
            ham = SpectralHamiltonian.from_matrix(random_hermitian(d, rng))
        psi = haar_random_state(d, rng)
        v = instantaneous_speed(psi, ham)
        dh = energy_uncertainty(psi, ham)
        assert abs(v - np.sqrt(2.0) * dh) < 1e-10


def test_gap_squared_matrix_symmetric_zero_diagonal():
    a = gap_squared_matrix([0.0, 1.0, 2.5])
    assert np.max(np.abs(a - a.T)) == 0.0
    assert np.max(np.abs(np.diag(a))) == 0.0
    assert abs(a[0, 2] - 6.25) < 1e-15


def test_finite_difference_speed_approaches_closed_form():
    rng = np.random.default_rng(63)
    h = random_hermitian(4, rng, scale=1.0)
    psi0 = haar_random_state(4, rng)
    errs = []
    for steps in (2000, 4000, 8000):
        traj = evolve(psi0, HamiltonianPath.constant(h, 1.0, steps=steps))
        k = steps // 2
        fd = finite_difference_speed(traj, k)
        errs.append(abs(fd - traj.speeds[k]))
    assert errs[0] < 1e-4
    assert errs[2] < errs[0]   # error shrinks with the step


def test_finite_difference_needs_a_successor():
    h = np.diag([0.0, 1.0]).astype(complex)
    traj = evolve(np.array([1, 0], dtype=complex),
                  HamiltonianPath.constant(h, 1.0, steps=20))
    with pytest.raises(IndexError):
        finite_difference_speed(traj, 20)


def test_grid_too_coarse_rejected():
    h = 50.0 * np.diag([-1.0, 1.0]).astype(complex)
    psi = np.array([1, 0], dtype=complex)
    with pytest.raises(GridTooCoarse):
        evolve(psi, HamiltonianPath(times=np.array([0.0, 0.5, 1.0]),
                                    sampler=lambda t: h))


def test_qubit_closed_form_matches_hellinger():
    rng = np.random.default_rng(64)
    for _ in range(40):
        alpha = rng.normal() + 1j * rng.normal()
        beta = rng.normal() + 1j * rng.normal()
        norm = np.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        alpha, beta = alpha / norm, beta / norm
        lam, gam = rng.uniform(0.0, 3.0, 2)
        t = float(rng.uniform(0.0, 9.0))
        psi0 = np.array([alpha, beta])
        psit = psi0 * np.exp(-1j * np.array([lam, gam]) * t)
        want = hellinger(pure_density(psi0), pure_density(psit))
        assert abs(qubit_closed_form(alpha, beta, lam, gam, t) - want) < 1e-12


def test_qubit_closed_form_validates_normalization():
    with pytest.raises(InvalidState):
        qubit_closed_form(1.0, 1.0, 0.0, 1.0, 0.5)


def test_linear_path_interpolates_endpoints():
    h0 = np.diag([0.0, 1.0]).astype(complex)
    h1 = np.diag([1.0, 0.0]).astype(complex)
    path = HamiltonianPath.linear(h0, h1, 2.0, steps=20)
    assert np.max(np.abs(path.sampler(0.0) - h0)) < 1e-15
    assert np.max(np.abs(path.sampler(2.0) - h1)) < 1e-15
    assert np.max(np.abs(path.sampler(1.0) - (h0 + h1) / 2.0)) < 1e-15


def test_trajectory_records_speeds_and_uncertainties():
    h = np.diag([0.0, 1.0]).astype(complex)
    psi = np.full(2, 1.0 / np.sqrt(2.0), dtype=complex)
    traj = evolve(psi, HamiltonianPath.constant(h, 1.0, steps=50))
    assert len(traj) == 51
    # equal superposition under a gap-1 qubit: Delta H = 1/2 throughout
    np.testing.assert_allclose(traj.uncertainties, 0.5, atol=1e-12)
    np.testing.assert_allclose(traj.speeds, np.sqrt(2.0) / 2.0, atol=1e-12)


def _literal_evolve(psi0, path):
    """Per-step oracle: one SpectralHamiltonian, exponential, speed and spread per grid point."""
    states, speeds, spreads = [np.asarray(psi0, dtype=complex)], [], []
    times = path.times
    for k, t in enumerate(times):
        h_k = hermitianize(np.asarray(path.sampler(t), dtype=complex))
        ham_k = SpectralHamiltonian.from_matrix(h_k)
        speeds.append(instantaneous_speed(states[k], ham_k))
        spreads.append(energy_uncertainty(states[k], h_k))
        if k + 1 < len(times):
            states.append(unitary_exp(ham_k, times[k + 1] - t) @ states[k])
    return np.array(states), np.array(speeds), np.array(spreads)


def _spectrum_path(rng, lam0, lam1, steps=30):
    """Linear path between two spectra in one random eigenbasis."""
    d = len(lam0)
    u = random_unitary(d, rng)
    h0 = u @ np.diag(lam0) @ u.conj().T
    h1 = u @ np.diag(lam1) @ u.conj().T
    return HamiltonianPath.linear(h0, h1, 1.0, steps=steps)


def _oracle_paths():
    rng = np.random.default_rng(65)
    for d in range(2, 7):
        yield f"random d={d}", d, HamiltonianPath.linear(
            random_hermitian(d, rng), random_hermitian(d, rng), 1.0, steps=30)
        degenerate = np.repeat(np.sort(rng.uniform(-2.0, 2.0, 2)), [d // 2, d - d // 2])
        yield f"degenerate d={d}", d, _spectrum_path(rng, degenerate, 1.5 * degenerate)
        close = np.sort(rng.uniform(-2.0, 2.0, d))
        close[1] = close[0] + 0.5 * TOL_DEGEN
        yield f"near-degenerate d={d}", d, _spectrum_path(rng, close, close + 0.25)


@pytest.mark.parametrize("label,d,path", list(_oracle_paths()),
                         ids=[label for label, _, _ in _oracle_paths()])
def test_stacked_evolve_matches_the_per_step_oracle(label, d, path):
    psi0 = haar_random_state(d, np.random.default_rng(66))
    traj = evolve(psi0, path)
    states, speeds, spreads = _literal_evolve(psi0, path)
    assert np.max(np.abs(traj.states - states)) <= 1e-13
    assert np.max(np.abs(traj.speeds - speeds)) <= 1e-13
    assert np.max(np.abs(traj.uncertainties - spreads)) <= 1e-13


def test_near_degenerate_levels_merge_in_the_stacked_speeds():
    # levels 0.5 TOL_DEGEN apart are one level: weight moving between them
    # adds no speed, so the plus state on them sits still
    lam = np.array([0.0, 0.5 * TOL_DEGEN])
    path = HamiltonianPath.constant(np.diag(lam).astype(complex), 1.0, steps=10)
    traj = evolve(np.full(2, 1.0 / np.sqrt(2.0), dtype=complex), path)
    np.testing.assert_array_equal(traj.speeds, 0.0)


def _expm_product(path, psi0):
    psi = np.asarray(psi0, dtype=complex)
    for t0, t1 in zip(path.times[:-1], path.times[1:]):
        psi = scipy.linalg.expm(-1j * (t1 - t0) * path.sampler(t0)) @ psi
    return psi


def test_twenty_step_evolve_matches_the_expm_product():
    rng = np.random.default_rng(67)
    for d in (2, 3, 4, 6):
        path = HamiltonianPath.linear(random_hermitian(d, rng, scale=0.5),
                                      random_hermitian(d, rng, scale=0.5), 1.0, steps=20)
        psi0 = haar_random_state(d, rng)
        traj = evolve(psi0, path)
        assert np.max(np.abs(traj.states[-1] - _expm_product(path, psi0))) < 1e-12


def test_step_guard_ignores_a_global_shift():
    # half width 1/2: 0.01 per step, although max|lambda| * dt = 2.02
    h = np.diag([100.0, 101.0]).astype(complex)
    psi0 = np.full(2, 1.0 / np.sqrt(2.0), dtype=complex)
    path = HamiltonianPath.constant(h, 1.0, steps=50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = evolve(psi0, path)
    assert np.max(np.abs(traj.states[-1] - _expm_product(path, psi0))) < 1e-10
    np.testing.assert_allclose(traj.uncertainties, 0.5, atol=1e-12)


def test_default_grid_does_not_depend_on_a_global_shift():
    rng = np.random.default_rng(68)
    h0, h1 = random_hermitian(3, rng), random_hermitian(3, rng)
    shift = 100.0 * np.eye(3)
    assert (len(HamiltonianPath.constant(h0 + shift, 1.0).times)
            == len(HamiltonianPath.constant(h0, 1.0).times))
    assert (len(HamiltonianPath.linear(h0 + shift, h1 + shift, 1.0).times)
            == len(HamiltonianPath.linear(h0, h1, 1.0).times))
    # half width 1 on the unit-interval default grid: 100 steps
    assert len(HamiltonianPath.constant(np.diag([-1.0, 1.0]), 1.0).times) == 101
    # the grid is set by steps= or by this default, never by a step size
    with pytest.raises(TypeError):
        HamiltonianPath.constant(np.diag([-1.0, 1.0]), 1.0, dt=0.1)


def test_coarse_grid_raises_before_any_step_and_warns_once():
    h = np.diag([-1.0, 1.0]).astype(complex)
    psi = np.array([1, 0], dtype=complex)
    calls = []

    def sampler(t):
        calls.append(t)
        return h if t < 0.5 else 40.0 * h

    with pytest.raises(GridTooCoarse, match="half spectral width"):
        evolve(psi, HamiltonianPath(times=np.linspace(0.0, 1.0, 11), sampler=sampler))
    assert len(calls) == 11          # the guard sees the whole grid, sampled once
    with pytest.warns(UserWarning, match="half spectral width") as record:
        evolve(psi, HamiltonianPath(times=np.linspace(0.0, 1.0, 6), sampler=lambda t: h))
    assert len(record) == 1          # five coarse steps, one warning


_SKEW = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


@pytest.mark.parametrize("build", [
    lambda: evolve(np.array([1.0, 0.0]),
                   HamiltonianPath(times=np.linspace(0.0, 1.0, 11), sampler=lambda t: _SKEW)),
    lambda: HamiltonianPath.constant(_SKEW, 1.0, steps=10),
    lambda: HamiltonianPath.linear(_SKEW, np.eye(2), 1.0, steps=10),
    lambda: HamiltonianPath.linear(np.eye(2), _SKEW, 1.0, steps=10),
], ids=["evolve", "constant", "linear-start", "linear-end"])
def test_non_hermitian_input_rejected_before_hermitianizing(build):
    # the Hermitian part of [[0, 1], [0, 0]] is a valid Hamiltonian, so
    # only a check on the raw matrix can see the fault
    with pytest.raises(NotHermitian, match=r"1\.000e\+00"):
        build()


def test_non_square_input_rejected():
    with pytest.raises(DimensionMismatch):
        evolve(np.array([1.0, 0.0]), HamiltonianPath(times=np.linspace(0.0, 1.0, 3),
                                                     sampler=lambda t: np.zeros((2, 3))))
    with pytest.raises(DimensionMismatch):
        HamiltonianPath.constant(np.zeros(2), 1.0, steps=2)
    with pytest.raises(DimensionMismatch):
        HamiltonianPath.linear(np.eye(2), np.eye(3), 1.0, steps=2)


def test_near_hermitian_samples_evolve_as_their_hermitian_part():
    rng = np.random.default_rng(67)
    h = random_hermitian(3, rng)
    h[0, 2] += 1e-12            # within TOL_HERM
    psi0 = haar_random_state(3, rng)
    times = np.linspace(0.0, 1.0, 21)
    raw = evolve(psi0, HamiltonianPath(times=times, sampler=lambda t: h))
    part = evolve(psi0, HamiltonianPath(times=times, sampler=lambda t: hermitianize(h)))
    assert np.array_equal(raw.states, part.states)
    const = evolve(psi0, HamiltonianPath.constant(h, 1.0, steps=20))
    assert np.array_equal(const.states, part.states)


def _package_paths():
    rng = np.random.default_rng(69)
    for d in range(1, 6):
        for t_final in (0.0, 0.3, 1.0, 2.7):
            for steps in (None, 1, 7, 20):
                h0 = random_hermitian(d, rng, scale=0.5)
                h1 = random_hermitian(d, rng, scale=0.5)
                yield HamiltonianPath.linear(h0, h1, t_final, steps=steps)
                yield HamiltonianPath.constant(h0, t_final, steps=steps)


def test_package_paths_carry_the_samplers_stack_bit_for_bit():
    for path in _package_paths():
        want = np.array([path.sampler(t) for t in path.times])
        assert path.samples.shape == want.shape == (len(path.times),) + want.shape[1:]
        # tobytes: the sign of a zero entry counts too
        assert path.samples.tobytes() == want.tobytes()


def test_evolve_reads_the_stack_of_a_package_path(monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn)
            return fn(*args)
        return wrapper

    rng = np.random.default_rng(70)
    h0, h1 = random_hermitian(3, rng, scale=0.5), random_hermitian(3, rng, scale=0.5)
    psi0 = haar_random_state(3, rng)
    paths = [HamiltonianPath.linear(h0, h1, 1.0, steps=20),
             HamiltonianPath.constant(h0, 1.0, steps=20)]
    monkeypatch.setattr(dynamics, "require_hermitian", counted(dynamics.require_hermitian))
    for path in paths:
        path.sampler = counted(path.sampler)
        evolve(psi0, path)
    assert calls == []
    # a caller's path is sampled once per grid point and checked once
    evolve(psi0, HamiltonianPath(times=paths[0].times, sampler=paths[0].sampler))
    assert len(calls) == len(paths[0].times) + 1


def test_a_given_step_count_needs_no_spectral_width(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    rng = np.random.default_rng(71)
    h0, h1 = random_hermitian(3, rng), random_hermitian(3, rng)
    HamiltonianPath.linear(h0, h1, 1.0, steps=20)
    HamiltonianPath.constant(h0, 1.0, steps=20)
    assert calls == []
    HamiltonianPath.linear(h0, h1, 1.0)     # the default grid reads the width
    assert len(calls) == 1


@pytest.mark.parametrize("build", [
    lambda h: HamiltonianPath.constant(h, 0.0),
    lambda h: HamiltonianPath.linear(h, 2.0 * h, 0.0),
], ids=["constant", "linear"])
@pytest.mark.parametrize("h", [np.eye(2), np.diag([0.0, 1.0])], ids=["flat", "gapped"])
def test_zero_duration_gets_the_one_step_grid(build, h):
    path = build(h)
    np.testing.assert_array_equal(path.times, [0.0, 0.0])
    psi0 = np.full(2, 1.0 / np.sqrt(2.0), dtype=complex)
    traj = evolve(psi0, path)
    np.testing.assert_array_equal(traj.states, [psi0, psi0])
