"""Closed form vs brute force for the permutation-averaged distance."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm, sqrtm

from coherence_speed.avgdist import (
    BRUTE_FORCE_CAP,
    a_coefficient,
    avg_distance_bruteforce,
    avg_distance_closed,
    b_coefficient,
    benchmark_overlap_check,
    l1_upper_bound_check,
)
from coherence_speed.battery import qudit_battery_bound
from coherence_speed.channels import StinespringDilation, dilate, random_channel, theorem3_bound
from coherence_speed.coherence import c_half
from coherence_speed.errors import SingleLevel, TooManyLevels
from coherence_speed import avgdist, channels, coherence, linalg, metrics
from coherence_speed.linalg import (
    SpectralHamiltonian,
    haar_random_state,
    pure_density,
    random_density,
    random_unitary,
)


def _spread_spectrum(rng, d):
    lam = np.sort(rng.uniform(0.0, 4.0, d))
    lam += 0.01 * np.arange(d)   # keep levels separated
    return lam


def test_qubit_closed_form_is_one_minus_cosine():
    ham = SpectralHamiltonian.from_spectrum(np.array([0.0, 1.0]))
    psi = np.full(2, 1.0 / np.sqrt(2.0), dtype=complex)
    rho = pure_density(psi)
    for t in np.linspace(0.0, 8.0, 40):
        res = avg_distance_closed(rho, ham, float(t))
        assert abs(res.closed_form - (1.0 - np.cos(t))) < 1e-12
        assert abs(res.gap) < 1e-12


def test_brute_force_matches_closed_form():
    rng = np.random.default_rng(41)
    for _ in range(25):
        d = int(rng.integers(2, 6))
        ham = SpectralHamiltonian.from_spectrum(_spread_spectrum(rng, d))
        rho = random_density(d, rank=int(rng.integers(1, d + 1)), seed=rng)
        t = float(rng.uniform(0.05, 8.0))
        res = avg_distance_closed(rho, ham, t)
        assert res.brute_force is not None
        assert abs(res.brute_force - res.closed_form) < 1e-9
        # and the closed form is coefficient * coherence, assembled
        want = 2.0 * (1.0 - res.coefficient) * res.coherence
        assert abs(res.closed_form - want) < 1e-12


def test_degenerate_spectrum_uses_projector_coherence():
    rng = np.random.default_rng(42)
    ham = SpectralHamiltonian.from_spectrum(np.array([0.0, 1.0, 1.0, 3.0]))
    for _ in range(10):
        rho = random_density(4, rank=2, seed=rng)
        t = float(rng.uniform(0.1, 6.0))
        res = avg_distance_closed(rho, ham, t)
        assert abs(res.brute_force - res.closed_form) < 1e-9
        assert abs(res.coherence - c_half(rho, ham.decomposition)) < 1e-14


def test_coefficients_qubit_reduce_to_cosine():
    for t in np.linspace(0.0, 7.0, 15):
        assert abs(a_coefficient(np.array([0.0, 1.0]), t) - np.cos(t)) < 1e-12
        assert abs(b_coefficient(np.array([0.0, 1.0]), t) - np.cos(t)) < 1e-12


def test_a_coefficient_rejects_degenerate_input():
    with pytest.raises(Exception):
        a_coefficient(np.array([1.0, 1.0, 2.0]), 0.5)


def test_benchmark_overlap_identity_phase_free():
    rng = np.random.default_rng(43)
    for _ in range(40):
        d = int(rng.integers(2, 7))
        lam = _spread_spectrum(rng, d)
        t = float(rng.uniform(0.0, 10.0))
        phases = rng.uniform(0.0, 2.0 * np.pi, d)
        lhs, rhs = benchmark_overlap_check(lam, phases, t)
        assert abs(lhs - rhs) < 1e-10
        # independent of the phase choice entirely
        lhs2, rhs2 = benchmark_overlap_check(lam, np.zeros(d), t)
        assert abs(rhs - rhs2) < 1e-10


def test_single_level_distance_is_zero():
    ham = SpectralHamiltonian.from_spectrum(np.array([2.0, 2.0, 2.0]))
    res = avg_distance_closed(np.eye(3) / 3.0, ham, 1.0)
    assert res.closed_form == 0.0 and res.coherence < 1e-12
    with pytest.raises(SingleLevel):
        b_coefficient(np.array([2.0]), 1.0)


def test_brute_force_capped():
    lam = np.arange(BRUTE_FORCE_CAP + 1, dtype=float)
    ham = SpectralHamiltonian.from_spectrum(lam)
    rho = random_density(len(lam), rank=2, seed=44)
    res = avg_distance_closed(rho, ham, 0.7)        # auto: omit brute force
    assert res.brute_force is None
    assert res.gap is None
    with pytest.raises(TooManyLevels):
        avg_distance_closed(rho, ham, 0.7, include_brute=True)
    with pytest.raises(TooManyLevels):
        avg_distance_bruteforce(rho, ham, 0.7)


def test_permuted_hamiltonian_swaps_levels():
    ham = SpectralHamiltonian.from_spectrum(np.array([0.0, 1.0, 5.0]))
    swapped = ham.permute_levels([1, 0, 2])
    # level values travel to the other eigenspaces; the set is unchanged
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(swapped.matrix())),
                               [0.0, 1.0, 5.0], atol=1e-12)
    assert np.max(np.abs(swapped.matrix() - np.diag([1.0, 0.0, 5.0]))) < 1e-12


def test_identity_permutation_leaves_distance_zero():
    ham = SpectralHamiltonian.from_spectrum(np.array([0.0, 1.3, 2.1]))
    psi = haar_random_state(3, 45)
    rho = pure_density(psi)
    same = ham.permute_levels([0, 1, 2])
    assert np.max(np.abs(same.matrix() - ham.matrix())) < 1e-12


def test_l1_upper_bound_check_holds():
    rng = np.random.default_rng(46)
    for _ in range(25):
        d = int(rng.integers(2, 7))
        ham = SpectralHamiltonian.from_spectrum(_spread_spectrum(rng, d))
        rho = random_density(d, rank=d, seed=rng)
        t = float(rng.uniform(0.0, 8.0))
        sbar, bound = l1_upper_bound_check(rho, ham, t)
        assert sbar <= bound + 1e-10


# Literal per-permutation references for the stacked orbit evaluations:
# scipy's expm for every U_s, and sqrtm for every root at full rank or
# the exact root V diag(sqrt p) V† of a known eigendecomposition when
# the state is rank-deficient.

def _root(basis, weights):
    if np.min(weights) > 0.0:
        return sqrtm((basis * weights) @ basis.conj().T)
    return (basis * np.sqrt(weights)) @ basis.conj().T


def _output_root(out):
    """sqrtm of a channel output at full rank; a pure output is its own exact root."""
    if np.max(np.abs(out @ out - out)) < 1e-12:
        return out
    return sqrtm(out)


def _distance(root_a, root_b):
    return 2.0 * (1.0 - float(np.clip(np.trace(root_a @ root_b).real, 0.0, 1.0)))


def _evolutions(ham, t):
    for s in itertools.permutations(range(ham.level_count)):
        yield expm(-1j * t * ham.permute_levels(s).matrix())


def _states(rng, d):
    """(basis, weights) of a rank-1, a nearly rank-deficient and a full-rank state."""
    for weights in ([1.0] + [0.0] * (d - 1), [1e-8] + [1.0] * (d - 1),
                    list(rng.uniform(0.2, 1.0, d))):
        p = np.asarray(weights)
        yield random_unitary(d, rng), p / p.sum()


def _hamiltonians(rng):
    """A nondegenerate and a degenerate spectrum in random eigenbases."""
    for values in (np.array([0.0, 0.7, 1.9, 3.2]), np.array([0.0, 1.1, 1.1, 2.6])):
        yield SpectralHamiltonian.from_spectrum(values, random_unitary(4, rng))


def test_brute_force_equals_literal_permutation_loop():
    rng = np.random.default_rng(47)
    for ham in _hamiltonians(rng):
        for basis, p in _states(rng, ham.dim):
            rho = (basis * p) @ basis.conj().T
            t = float(rng.uniform(0.05, 8.0))
            root = _root(basis, p)
            want = np.mean([_distance(root, _root(u @ basis, p)) for u in _evolutions(ham, t)])
            assert abs(avg_distance_bruteforce(rho, ham, t) - want) < 1e-12


def test_theorem3_bound_equals_literal_permutation_loop():
    rng = np.random.default_rng(48)
    eye2 = np.eye(2)
    h_sys = SpectralHamiltonian.from_spectrum(np.array([0.3, 1.4]), random_unitary(2, rng))
    product = SpectralHamiltonian.from_matrix(np.kron(h_sys.matrix(), eye2))   # doubled levels
    for dilation in (dilate(random_channel(2, 2, rng)),
                     StinespringDilation(product, sys_dim=2, env_dim=2, env_state=eye2[0])):
        for basis, p in _states(rng, 2):
            rho = (basis * p) @ basis.conj().T
            joint = dilation.joint_input(rho)
            root = _root(basis, p)
            terms = []
            for u in _evolutions(dilation.hamiltonian, dilation.duration):
                out = (u @ joint @ u.conj().T).reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
                terms.append(_distance(root, _output_root((out + out.conj().T) / 2.0)))
            lhs, _ = theorem3_bound(dilation, rho)
            assert abs(lhs - np.mean(terms)) < 1e-12


def test_qudit_battery_bound_equals_literal_permutation_loop():
    rng = np.random.default_rng(49)
    h0 = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
    for ham in _hamiltonians(rng):
        v = ham.matrix()
        for basis, p in _states(rng, 4):
            rho = (basis * p) @ basis.conj().T
            dt = float(rng.uniform(0.01, 0.5))
            works = []
            for s in itertools.permutations(range(ham.level_count)):
                u = expm(-1j * dt * (h0 + ham.permute_levels(s).matrix()))
                works.append(np.trace(h0 @ (rho - u @ rho @ u.conj().T)).real)
            avg, _ = qudit_battery_bound(rho, h0, v, dt)
            assert abs(avg - np.mean(works)) < 1e-12


def test_every_orbit_oracle_respects_the_cap(monkeypatch):
    n = BRUTE_FORCE_CAP + 1
    orbits = []
    monkeypatch.setattr(avgdist, "_orbit_diagonals", lambda *a: orbits.append(a) or iter(()))
    ham = SpectralHamiltonian.from_spectrum(np.arange(n, dtype=float), random_unitary(n, 50))
    rho = random_density(n, rank=2, seed=50)
    with pytest.raises(TooManyLevels, match=f"{n} levels exceed brute-force cap"):
        avg_distance_bruteforce(rho, ham, 0.7)
    with pytest.raises(TooManyLevels, match=f"{n} levels exceed brute-force cap"):
        qudit_battery_bound(rho, np.diag(np.arange(n, dtype=float)), ham.matrix(), 0.1)
    dilation = StinespringDilation(ham, sys_dim=3, env_dim=3, env_state=np.eye(3)[0])
    with pytest.raises(TooManyLevels, match=f"{n} levels exceed brute-force cap"):
        theorem3_bound(dilation, random_density(3, rank=2, seed=51))
    with pytest.raises(TooManyLevels, match=f"{n} levels exceed brute-force cap"):
        avgdist._bruteforce_pure(haar_random_state(n, 50), ham, 0.7)
    assert orbits == []


def test_eight_level_orbit_runs_in_chunks():
    # 8! = 40320 permutations at d = 9: one unchunked stack of 9 x 9
    # complex matrices alone would take 52 MB
    ham = SpectralHamiltonian.from_spectrum(np.r_[np.arange(8.0), 7.0],
                                            random_unitary(9, 52))
    rho = random_density(9, rank=3, seed=53)
    tracemalloc.start()
    try:
        brute = avg_distance_bruteforce(rho, ham, 0.9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    closed = avg_distance_closed(rho, ham, 0.9, include_brute=False).closed_form
    assert abs(brute - closed) < 1e-9


def test_each_entry_validates_its_state_once(monkeypatch):
    calls = []

    def counting(rho, **kwargs):
        calls.append(1)
        return linalg.validate_density(rho, **kwargs)

    for module in (avgdist, coherence, channels):
        monkeypatch.setattr(module, "validate_density", counting)
    rng = np.random.default_rng(29)
    ham = SpectralHamiltonian.from_spectrum(_spread_spectrum(rng, 4), random_unitary(4, rng))
    rho = random_density(4, rank=2, seed=rng)
    res = avg_distance_closed(rho, ham, 1.3, include_brute=True)
    assert len(calls) == 1
    calls.clear()
    l1_upper_bound_check(rho, ham, 1.3)
    assert len(calls) == 1
    calls.clear()
    dil = dilate(random_channel(2, 2, rng))
    theorem3_bound(dil, random_density(2, rank=2, seed=rng))
    assert len(calls) == 1
    # the private paths give the public values bit for bit
    assert res.coherence == c_half(rho, ham.decomposition)
    assert res.brute_force == avg_distance_bruteforce(rho, ham, 1.3)


def _computational_basis_brute(rho, ham, t):
    """The orbit average as formulated before the eigenbasis oracle: U_s from
    orbit_operators, sigma_s = U_s rho U_s†, matrix_sqrt_psd of each, one trace."""
    a = linalg.matrix_sqrt_psd(rho)
    terms = []
    for u in linalg.orbit_operators(ham, lambda lam: np.exp(-1j * lam * t)):
        b = linalg.matrix_sqrt_psd(u @ rho @ linalg.dagger(u))
        terms.extend(2.0 * (1.0 - np.clip((a @ b).trace(axis1=-2, axis2=-1).real, 0.0, 1.0)))
    return math.fsum(terms) / len(terms)


def _mixed_cases(rng):
    """(rho, ham) at 2-6 levels, with and without a doubled level, over ranks 1..d."""
    for m in range(2, 7):
        for extra in (0, 1):
            values = _spread_spectrum(rng, m)
            values = np.sort(np.r_[values, values[int(rng.integers(m))]]) if extra else values
            d = m + extra
            ham = SpectralHamiltonian.from_spectrum(values, random_unitary(d, rng))
            for rank in range(1, d + 1):
                yield random_density(d, rank=rank, seed=rng), ham


def test_eigenbasis_oracle_equals_the_computational_basis_orbit():
    rng = np.random.default_rng(99)
    for rho, ham in _mixed_cases(rng):
        t = float(rng.uniform(0.05, 8.0))
        assert abs(avgdist._bruteforce(rho, ham, t) - _computational_basis_brute(rho, ham, t)) < 1e-14


def test_eigenbasis_oracle_diagonalizes_every_evolved_state(monkeypatch):
    rng = np.random.default_rng(100)
    cases = [next(c for c in _mixed_cases(rng) if c[1].level_count == m) for m in (2, 4, 6)]
    shapes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *k: shapes.append(a.shape) or eigh(a, *k))
    for rho, ham in cases:
        shapes.clear()
        avg_distance_bruteforce(rho, ham, 1.3)
        d = ham.dim
        # one root of rho, then stacks of evolved states covering the whole orbit
        assert shapes[0] == (d, d)
        assert all(len(s) == 3 and s[1:] == (d, d) for s in shapes[1:])
        assert sum(s[0] for s in shapes[1:]) == math.factorial(ham.level_count)


def test_avg_distance_closed_roots_rho_once(monkeypatch):
    roots = []

    def counting(rho):
        roots.append(np.shape(rho))
        return linalg.matrix_sqrt_psd(rho)

    for module in (avgdist, coherence, metrics):
        monkeypatch.setattr(module, "matrix_sqrt_psd", counting)
    rng = np.random.default_rng(101)
    ham = SpectralHamiltonian.from_spectrum(_spread_spectrum(rng, 4), random_unitary(4, rng))
    rho = random_density(4, rank=3, seed=rng)
    res = avg_distance_closed(rho, ham, 1.3, include_brute=True)
    assert roots == [(4, 4)]
    assert res.brute_force == avgdist._bruteforce(rho, ham, 1.3)
    assert res.coherence == coherence._c_half(rho, ham.decomposition)


def _pairwise_cos_mean(lam, t):
    d = len(lam)
    gaps = np.array([lam[m] - lam[n] for m in range(d) for n in range(m + 1, d)])
    return float(2.0 * np.sum(np.cos(gaps * t)) / (d * (d - 1)))


def test_coefficients_equal_a_pairwise_sum_bit_for_bit():
    # level counts interleaved, so every call after the first of a count reuses its pair index
    rng = np.random.default_rng(95)
    spectra = [_spread_spectrum(rng, d) for d in (2, 5, 3, 8, 4, 2, 7, 5, 6, 3)]
    for t in np.linspace(-3.0, 11.0, 29):
        for lam in spectra:
            want = _pairwise_cos_mean(lam, float(t)).hex()
            assert a_coefficient(lam[::-1], float(t)).hex() == want
            assert b_coefficient(lam, float(t)).hex() == want


def _pure_path_cases(rng):
    """(psi, ham) at 2-7 levels, nondegenerate and with one doubled level, random bases."""
    for m in range(2, 8):
        for extra in (0, 1):
            values = _spread_spectrum(rng, m)
            values = np.sort(np.r_[values, values[int(rng.integers(m))]]) if extra else values
            d = m + extra
            yield haar_random_state(d, rng), SpectralHamiltonian.from_spectrum(
                values, random_unitary(d, rng))


def test_pure_path_equals_the_literal_oracle_on_pure_states():
    rng = np.random.default_rng(96)
    for psi, ham in _pure_path_cases(rng):
        rho = pure_density(psi)
        times = (1e-7, float(rng.uniform(0.05, 8.0))) if ham.level_count < 7 else (0.8,)
        for t in times:
            assert abs(avgdist._bruteforce_pure(psi, ham, t)
                       - avg_distance_bruteforce(rho, ham, t)) < 1e-14


def test_pure_path_takes_no_square_root(monkeypatch):
    rng = np.random.default_rng(97)
    cases = list(_pure_path_cases(rng))       # building a Hamiltonian may diagonalize
    calls = []

    def counting(fn):
        return lambda *a, **k: calls.append(fn.__name__) or fn(*a, **k)

    monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh))
    for module in (avgdist, linalg, metrics, coherence):
        monkeypatch.setattr(module, "matrix_sqrt_psd", counting(linalg.matrix_sqrt_psd),
                            raising=False)
    for psi, ham in cases[:8]:
        avgdist._bruteforce_pure(psi, ham, 1.3)
    assert calls == []
    avg_distance_bruteforce(pure_density(cases[0][0]), cases[0][1], 1.3)
    assert calls                              # the literal oracle is what was counted


def test_a_grid_of_times_gives_the_per_point_coefficients_bit_for_bit():
    rng = np.random.default_rng(98)
    times = np.r_[np.linspace(0.0, 2.0 * np.pi, 201), rng.uniform(-40.0, 40.0, 50)]
    for d in range(2, 9):
        lam = _spread_spectrum(rng, d)
        want = [_pairwise_cos_mean(lam, float(t)).hex() for t in times]
        assert [v.hex() for v in b_coefficient(lam, times).tolist()] == want
        assert [v.hex() for v in a_coefficient(lam, times).tolist()] == want
    assert b_coefficient(lam, times[:250].reshape(10, 25)).shape == (10, 25)
