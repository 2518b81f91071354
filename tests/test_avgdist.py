"""Closed form vs brute force for the permutation-averaged distance."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm, sqrtm

from coherence_speed.avgdist import (
    BRUTE_FORCE_CAP,
    ORBIT_CHUNK,
    a_coefficient,
    avg_distance_bruteforce,
    avg_distance_closed,
    b_coefficient,
    benchmark_overlap_check,
)
from coherence_speed.battery import qudit_battery_bound
from coherence_speed.channels import (
    StinespringDilation,
    dilate,
    equality_gap_analysis,
    qutrit_equality_channel,
    random_channel,
    theorem3_bound,
)
from coherence_speed.coherence import c_half, closest_incoherent
from coherence_speed.errors import SingleLevel, TooManyLevels
from coherence_speed import avgdist, coherence, linalg, metrics
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
    orbits = []         # every orbit the kernel builds starts from its permutation table
    monkeypatch.setattr(avgdist, "_orbit_table", lambda *a: orbits.append(a) or None)
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
        avgdist._bruteforce_pure(haar_random_state(n, 50), ham, [0.7])
    # a stack of states is refused when any one Hamiltonian in it is over the cap
    two_levels = SpectralHamiltonian.from_spectrum(np.r_[0.0, np.ones(n - 1)], random_unitary(n, 51))
    state = linalg._Density.of(rho)
    for hams in ([two_levels, ham], [ham, two_levels]):
        with pytest.raises(TooManyLevels, match=f"{n} levels exceed brute-force cap"):
            avgdist._bruteforces([state, state], hams, [0.7, 1.1])
    orbit = avgdist._orbit_terms([two_levels, ham], _rows)  # the check runs at the first next()
    with pytest.raises(TooManyLevels, match=f"{n} levels exceed brute-force cap"):
        next(orbit)
    assert orbits == []


def _rows(lam):
    """A term that returns its chunk of orbit rows as they came."""
    return lam


def test_orbit_levels_rebuild_every_permuted_hamiltonian():
    rng = np.random.default_rng(11)
    for m in range(1, 5):
        for doubled in (False, True):
            levels = np.sort(rng.uniform(0.0, 4.0, m)) + 0.1 * np.arange(m)
            values = np.concatenate((levels, levels[-1:])) if doubled else levels
            ham = SpectralHamiltonian.from_spectrum(values, random_unitary(len(values), rng))
            assert ham.level_count == m
            rows = next(avgdist._orbit_terms([ham], _rows))
            perms = list(itertools.permutations(range(m)))
            assert rows.shape == (len(perms), ham.dim)
            v = ham.eigenvectors
            stacked = linalg._eigenbasis_operators(v, rows)
            for k, s in enumerate(perms):
                want = ham.permute_levels(s).matrix()
                assert np.max(np.abs((v * rows[k]) @ v.conj().T - want)) < 1e-12
                assert np.max(np.abs(stacked[k] - want)) < 1e-12


def test_orbit_operators_chunk_in_lexicographic_order():
    ham = SpectralHamiltonian.from_spectrum(np.arange(7, dtype=float))
    chunks = []
    next(avgdist._orbit_terms([ham], lambda lam: chunks.append(
        linalg._eigenbasis_operators(ham.eigenvectors, lam)) or lam))
    assert [len(c) for c in chunks] == [ORBIT_CHUNK] * (5040 // ORBIT_CHUNK)
    diagonals = np.concatenate([np.diagonal(c, axis1=1, axis2=2).real for c in chunks])
    inverse = [np.argsort(s) for s in itertools.permutations(range(7))]
    assert np.array_equal(diagonals, np.asarray(inverse, dtype=float))


def test_several_orbits_follow_one_another_in_one_chunked_list_bit_for_bit():
    rng = np.random.default_rng(12)
    # orbits of 120, 6 and 120 rows: the first and last chunks have one owner each and get
    # its entry of the stack arange(3) whole; only the second, which holds the second orbit
    # and the start of the third, gets an entry per row, its owner
    hams = [SpectralHamiltonian.from_spectrum(rng.uniform(0.0, 4.0, 5), random_unitary(5, rng)),
            SpectralHamiltonian.from_spectrum([0.0, 1.0, 1.0, 2.5, 2.5]),
            SpectralHamiltonian.from_spectrum(np.arange(5.0))]
    chunks = []
    terms = list(avgdist._orbit_terms(hams, lambda lam, k: chunks.append((lam, k)) or lam,
                                      np.arange(len(hams))))
    assert [len(rows) for rows, _ in chunks] == [ORBIT_CHUNK, ORBIT_CHUNK, 6]
    assert [np.ndim(o) for _, o in chunks] == [0, 1, 0]
    rows = np.concatenate([r for r, _ in chunks])
    owner = np.concatenate([np.broadcast_to(o, len(r)) for r, o in chunks])
    assert owner.tolist() == [0] * 120 + [1] * 6 + [2] * 120
    for k, ham in enumerate(hams):
        alone = next(avgdist._orbit_terms([ham], _rows))
        assert rows[owner == k].tobytes() == alone.tobytes() == terms[k].tobytes()


def test_each_orbit_leaves_the_kernel_once_its_last_chunk_is_done_bit_for_bit():
    # three 6-level orbits of 720 rows, 6 chunks each: the first next() runs the first
    # orbit's 6 chunks and no more, and each orbit's terms are its own call's
    rng = np.random.default_rng(14)
    hams = [SpectralHamiltonian.from_spectrum(_spread_spectrum(rng, 6), random_unitary(6, rng))
            for _ in range(3)]
    vecs = np.array([ham.eigenvectors for ham in hams])
    t = rng.uniform(0.05, 8.0, (len(hams), 1)).astype(complex)
    calls = []

    def operators(lam, v, t):
        calls.append(len(lam))
        return linalg._eigenbasis_operators(v, np.exp(-1j * lam * t))

    orbits = avgdist._orbit_terms(hams, operators, vecs, t)
    terms = [next(orbits)]
    assert calls == [ORBIT_CHUNK] * 6
    terms += orbits
    assert calls == [ORBIT_CHUNK] * 18
    for k, ham in enumerate(hams):
        alone = next(avgdist._orbit_terms([ham], operators, vecs[k:k + 1], t[k:k + 1]))
        assert terms[k].tobytes() == alone.tobytes()


def _fresh_orbit_table(m):
    perms = np.array(list(itertools.permutations(range(m))), dtype=np.intp).reshape(-1, m)
    return np.argsort(perms, axis=1)


def test_the_cached_orbit_table_is_a_fresh_build_bit_for_bit_and_read_only():
    for m in range(1, 9):
        table = avgdist._orbit_table(m)
        fresh = _fresh_orbit_table(m)
        assert table.dtype == fresh.dtype and table.shape == fresh.shape
        assert table.tobytes() == fresh.tobytes()
        assert avgdist._orbit_table(m) is table
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1
    assert not any(index.flags.writeable for index in avgdist._upper_pairs(5))
    ham = SpectralHamiltonian.from_spectrum(np.array([0.0, 1.0, 1.0, 2.5]))
    rows = next(avgdist._orbit_terms([ham], _rows))
    rows[0, 0] = 9.0            # a copy, which leaves the cached table as it was
    assert avgdist._orbit_table(3).tobytes() == _fresh_orbit_table(3).tobytes()


def test_the_terms_of_many_orbits_equal_each_orbits_own_call_bit_for_bit():
    # level counts 2-6 at d = 6 (degenerate below 6), each with its own basis and time;
    # every U_s = V diag(phi_s) V†, stacked against each single call's broadcast operands
    rng = np.random.default_rng(13)
    hams = [SpectralHamiltonian.from_spectrum(np.repeat(_spread_spectrum(rng, m),
                                                        [7 - m] + [1] * (m - 1)),
                                              random_unitary(6, rng)) for m in range(2, 7)]
    vecs = np.array([ham.eigenvectors for ham in hams])
    t = rng.uniform(0.05, 8.0, (len(hams), 1))

    def operators(lam, v, t):
        return linalg._eigenbasis_operators(v, np.exp(-1j * lam * t))

    terms = list(avgdist._orbit_terms(hams, operators, vecs, t))
    assert [len(x) for x in terms] == [math.factorial(m) for m in range(2, 7)]
    for k, ham in enumerate(hams):
        alone = next(avgdist._orbit_terms([ham], operators, vecs[k:k + 1], t[k:k + 1]))
        assert terms[k].tobytes() == alone.tobytes()


def _grid_cases(rng):
    """(ham, times) at 2-6 levels, with and without a doubled level: below 5 levels each
    chunk spans several times, at 5 and 6 the chunks align with them."""
    for m in range(2, 7):
        for extra in (0, 1):
            values = _spread_spectrum(rng, m)
            values = np.sort(np.r_[values, values[int(rng.integers(m))]]) if extra else values
            ham = SpectralHamiltonian.from_spectrum(values, random_unitary(m + extra, rng))
            count = {5: 3, 6: 2}.get(m, 25)
            yield ham, np.r_[0.0, np.sort(rng.uniform(0.05, 8.0, count - 1))].tolist()


def test_a_grid_of_times_gives_the_per_time_oracle_bit_for_bit():
    rng = np.random.default_rng(14)
    for ham, times in _grid_cases(rng):
        d = ham.dim
        for rank in (1, 2):         # a pure density and a rank-2 one: the mixed oracle
            rho = random_density(d, rank=rank, seed=rng)
            got = avgdist._bruteforce(linalg._Density.of(rho), ham, times)
            assert [x.hex() for x in got] == [avg_distance_bruteforce(rho, ham, t).hex()
                                              for t in times]
        psi = haar_random_state(d, rng)     # a state that keeps its vector: the pure path
        state = linalg._Density.of(pure_density(psi), psi)
        got = avgdist._bruteforce(state, ham, times)
        assert [x.hex() for x in got] == [avgdist._bruteforce(state, ham, [t])[0].hex()
                                          for t in times]


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
    # a grid of 6 times holds its terms (2 MB) but never all its orbit rows (17 MB) at once
    psi = haar_random_state(9, 54)
    state = linalg._Density.of(pure_density(psi), psi)
    tracemalloc.start()
    try:
        grid = avgdist._bruteforce(state, ham, np.linspace(0.1, 1.2, 6).tolist())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20 and len(grid) == 6


def _counting_states(monkeypatch):
    """The shape of every density checked as a state (``_Density.of``), in call order."""
    calls = []
    of = linalg._Density.of
    monkeypatch.setattr(linalg._Density, "of",
                        lambda rho, psi=None: calls.append(np.shape(rho)) or of(rho, psi))
    return calls


def test_each_entry_validates_its_state_once(monkeypatch):
    states = _counting_states(monkeypatch)
    rng = np.random.default_rng(29)
    ham = SpectralHamiltonian.from_spectrum(_spread_spectrum(rng, 4), random_unitary(4, rng))
    rho = random_density(4, rank=2, seed=rng)
    dil = dilate(random_channel(2, 2, rng))
    rho2 = random_density(2, rank=2, seed=rng)
    pure4, pure3 = pure_density(haar_random_state(4, rng)), pure_density([1.0, 0.0, 0.0])
    h0, v = np.diag([0.0, 0.4, 1.1, 1.5]), ham.matrix()
    qutrit = qutrit_equality_channel()
    entries = {
        "avg_distance_closed": lambda: avg_distance_closed(rho, ham, 1.3, include_brute=True),
        "avg_distance_bruteforce": lambda: avg_distance_bruteforce(rho, ham, 1.3),
        "c_half": lambda: c_half(rho, ham.decomposition),
        "closest_incoherent": lambda: closest_incoherent(rho, ham.decomposition),
        "qudit_battery_bound": lambda: qudit_battery_bound(pure4, h0, v, 0.2),
        "theorem3_bound": lambda: theorem3_bound(dil, rho2),
        "equality_gap_analysis": lambda: equality_gap_analysis(qutrit, pure3),
    }
    for name, entry in entries.items():
        states.clear()
        entry()
        assert len(states) == 1, name
    # the private paths give the public values bit for bit
    res = avg_distance_closed(rho, ham, 1.3, include_brute=True)
    assert res.coherence == c_half(rho, ham.decomposition)
    assert res.brute_force == avg_distance_bruteforce(rho, ham, 1.3)


def _computational_basis_brute(rho, ham, t):
    """The orbit average as formulated before the eigenbasis oracle: U_s from
    the orbit's phase rows, sigma_s = U_s rho U_s†, matrix_sqrt_psd of each, one trace."""
    a = linalg.matrix_sqrt_psd(rho)

    def terms(lam):
        u = linalg._eigenbasis_operators(ham.eigenvectors, np.exp(-1j * lam * t))
        b = linalg.matrix_sqrt_psd(u @ rho @ linalg.dagger(u))
        return 2.0 * (1.0 - np.clip((a @ b).trace(axis1=-2, axis2=-1).real, 0.0, 1.0))

    terms = next(avgdist._orbit_terms([ham], terms)).tolist()
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
        assert abs(avgdist._bruteforce(linalg._Density.of(rho), ham, [t])[0]
                   - _computational_basis_brute(rho, ham, t)) < 1e-14


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
    # every root the package rebuilds, matrix_sqrt_psd's and a state's, goes through _rebuild
    roots = []
    rebuild = linalg._rebuild
    monkeypatch.setattr(linalg, "_rebuild", lambda w, v: roots.append(v.shape) or rebuild(w, v))
    states = _counting_states(monkeypatch)
    rng = np.random.default_rng(101)
    ham = SpectralHamiltonian.from_spectrum(_spread_spectrum(rng, 4), random_unitary(4, rng))
    rho = random_density(4, rank=3, seed=rng)
    res = avg_distance_closed(rho, ham, 1.3, include_brute=True)
    assert states == [(4, 4)] and roots == [(4, 4)]
    monkeypatch.undo()
    state = linalg._Density.of(rho)
    assert res.brute_force == avgdist._bruteforce(state, ham, [1.3])[0]
    assert res.coherence == _parent_c_half(linalg.matrix_sqrt_psd(rho), ham.decomposition)


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
            assert abs(avgdist._bruteforce_pure(psi, ham, [t])[0]
                       - avg_distance_bruteforce(rho, ham, t)) < 1e-14


def _parent_bruteforce_pure(psi, ham, t):
    """_bruteforce_pure as it was: every U_s psi a product of its own."""
    def terms(lam):
        phi = np.exp(-1j * lam * t)
        u = (ham.eigenvectors * phi[:, None, :]) @ linalg.dagger(ham.eigenvectors)
        return 2.0 * (1.0 - np.clip(np.abs((u @ psi) @ psi.conj()) ** 2, 0.0, 1.0))

    return avgdist._orbit_means([ham], terms)[0]


def test_pure_path_forms_every_evolved_vector_in_one_product_bit_for_bit(monkeypatch):
    # every term of every chunk, not only the correctly rounded mean, is the parent's
    rng = np.random.default_rng(98)
    chunks = []
    orbit_means = avgdist._orbit_means

    def recording(hams, term, *stacks):
        return orbit_means(hams, lambda *chunk: chunks.append(term(*chunk)) or chunks[-1], *stacks)

    monkeypatch.setattr(avgdist, "_orbit_means", recording)
    for d in range(2, 8):
        spectra = [_spread_spectrum(rng, d)]
        if d > 2:
            spectra.append(np.repeat(_spread_spectrum(rng, d - 1), [2] + [1] * (d - 2)))
        for lam in spectra:
            ham = SpectralHamiltonian.from_spectrum(lam, random_unitary(d, rng))
            for psi in (haar_random_state(d, rng), np.full(d, 1.0 / np.sqrt(d), dtype=complex)):
                t = float(rng.uniform(0.05, 8.0))
                chunks.clear()
                got = avgdist._bruteforce_pure(psi, ham, [t])[0]
                new = list(chunks)
                chunks.clear()
                assert got == _parent_bruteforce_pure(psi, ham, t)
                assert len(new) == len(chunks) == math.ceil(math.factorial(ham.level_count) / 120)
                assert all(a.tobytes() == b.tobytes() for a, b in zip(new, chunks))


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
        avgdist._bruteforce_pure(psi, ham, [1.3])
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


def test_near_hermitian_states_pass_the_mixed_oracle():
    # states Hermitian only to within 0.9e-9 pass the check; their evolved states,
    # rotated into the eigenbasis, were once checked again and failed beyond 1e-9
    rng = np.random.default_rng(0)
    ham = SpectralHamiltonian.from_spectrum(_spread_spectrum(rng, 4), random_unitary(4, rng))
    upper = np.triu_indices(4, 1)
    worst = 0.0
    for _ in range(200):
        rho = random_density(4, rank=4, seed=rng)
        rho[upper] += 0.9e-9 * np.exp(2j * np.pi * rng.random(6))
        worst = max(worst, avg_distance_closed(rho, ham, 0.7, include_brute=True).gap)
    assert worst <= 1e-12


def _stacked_cases(rng, d):
    """(rho, ham, t) at dimension d: level counts 2..min(d, 6), degenerate below d, ranks
    1..d in turn, and every third rho Hermitian only to within 0.9 TOL_HERM."""
    cases = []
    for k in range(2 * d):
        m = 2 + k % (min(d, 6) - 1)
        mult = np.ones(m, dtype=int)
        np.add.at(mult, rng.integers(0, m, d - m), 1)
        values = np.repeat(_spread_spectrum(rng, m), mult)
        rho = random_density(d, rank=1 + k % d, seed=rng)
        if k % 3 == 2:
            upper = np.triu_indices(d, 1)
            rho[upper] += 0.9 * linalg.TOL_HERM * np.exp(2j * np.pi * rng.random(len(upper[0])))
        cases.append((rho, SpectralHamiltonian.from_spectrum(values, random_unitary(d, rng)),
                      float(rng.uniform(0.05, 8.0))))
    return cases


@pytest.mark.parametrize("d", [2, 4, 6])
def test_stacked_oracle_equals_single_calls_bit_for_bit(d):
    cases = _stacked_cases(np.random.default_rng(60 + d), d)
    rhos, hams, ts = zip(*cases)
    assert sorted({ham.level_count for ham in hams}) == list(range(2, min(d, 6) + 1))
    assert any((rho != linalg.dagger(rho)).any() for rho in rhos)     # _lower_hermitian's case
    stacked = avgdist._bruteforces([linalg._Density.of(rho) for rho in rhos], hams, ts)
    assert [x.hex() for x in stacked] == [avg_distance_bruteforce(*case).hex() for case in cases]


def test_a_state_in_the_dead_band_reads_the_same_stacked_as_single_bit_for_bit():
    # a pure state plus d - 1 eigenvalues just below TOL_PSD, which every root reads as
    # zeros: the value is the kept dead-band fault (its gap to the closed form is 8e-11
    # to 5e-10 here, about 1e-15 without the small eigenvalues), pinned here only as the
    # same stacked and single, not mended
    rng = np.random.default_rng(5)
    for d in (4, 6):
        cases = []
        for _ in range(4):
            w = np.r_[1.0, rng.uniform(8.7e-11, 9.5e-11, d - 1)]
            u = random_unitary(d, rng)
            rho = linalg.hermitianize((u * (w / w.sum())) @ linalg.dagger(u))
            ham = SpectralHamiltonian.from_spectrum(_spread_spectrum(rng, d), random_unitary(d, rng))
            cases.append((rho, ham, 0.7))
        states = [linalg._Density.of(rho) for rho, _, _ in cases]
        assert all(np.sum((0 < s.eigenvalues) & (s.eigenvalues < linalg.TOL_PSD)) == d - 1
                   for s in states)
        stacked = avgdist._bruteforces(states, [ham for _, ham, _ in cases], [0.7] * len(cases))
        assert [x.hex() for x in stacked] == [avg_distance_bruteforce(*case).hex()
                                              for case in cases]


def _parent_c_half(root, decomposition):
    """coherence._c_half as it was: the floored coherence of one root against one family."""
    _, traces = coherence._block_traces(root, decomposition.projectors)
    return float(np.maximum(1.0 - np.add.reduce(traces, axis=None), 0.0))


def _parent_closed_form(root, ham, t):
    """avgdist._closed_form as it was: c_half of one root, B(t) from b_coefficient."""
    coh = _parent_c_half(root, ham.decomposition)
    coef = 1.0 if ham.level_count == 1 else b_coefficient(ham.levels, t)
    return coef, coh, 2.0 * (1.0 - coef) * coh


@pytest.mark.parametrize("d", [3, 8])
def test_stacked_closed_forms_equal_single_calls_bit_for_bit(d):
    # every level count 1..d in one call, degenerate levels below d, ranks 1..d; at d = 8
    # the level counts 5..8 are where np.cos over a whole (trials, pairs) array rounds apart
    rng = np.random.default_rng(70 + d)
    spectra, roots, ts = [], [], []
    for k in range(6 * d):
        m = 1 + k % d
        mult = np.ones(m, dtype=int)
        np.add.at(mult, rng.integers(0, m, d - m), 1)
        spectra.append((np.repeat(_spread_spectrum(rng, m), mult), random_unitary(d, rng)))
        roots.append(linalg._Density.of(random_density(d, rank=1 + k % d, seed=rng)).root)
        ts.append(float(rng.uniform(0.05, 8.0)))

    def hams():     # the same Hamiltonians, built anew: each keeps the family it builds
        return [SpectralHamiltonian.from_spectrum(values, basis) for values, basis in spectra]

    single = [tuple(float(x).hex() for x in _parent_closed_form(root, ham, t))
              for root, ham, t in zip(roots, hams(), ts)]
    assert [tuple(float(x).hex() for x in avgdist._closed_forms([root], [ham], [t])[0])
            for root, ham, t in zip(roots, hams(), ts)] == single
    stacked_hams = hams()
    assert sorted({ham.level_count for ham in stacked_hams}) == list(range(1, d + 1))
    for ham in stacked_hams[::4]:       # some families built beforehand, the rest stacked
        ham.decomposition
    stacked = avgdist._closed_forms(roots, stacked_hams, ts)
    assert [tuple(float(x).hex() for x in form) for form in stacked] == single
    for ham, (values, basis) in zip(stacked_hams, spectra):     # the families they kept
        alone = SpectralHamiltonian.from_spectrum(values, basis).decomposition.projectors
        assert ham.decomposition.projectors.tobytes() == alone.tobytes()


def test_a_closed_form_over_a_time_grid_is_the_parents_bit_for_bit():
    # the sweep report's call: one root, one Hamiltonian, B(t) over a whole grid at once
    rng = np.random.default_rng(102)
    times = np.linspace(0.0, 2.0 * np.pi, 201)
    for values in ([0.0, 0.7, 1.9], [0.0, 0.7, 0.7, 2.6], np.arange(9.0), [1.5, 1.5]):
        d = len(values)
        ham = SpectralHamiltonian.from_spectrum(values, random_unitary(d, rng))
        root = linalg._Density.of(random_density(d, rank=2, seed=rng)).root
        got = avgdist._closed_forms([root], [ham], [times])[0]
        for x, y in zip(got, _parent_closed_form(root, ham, times)):
            assert np.shape(x) == np.shape(y)
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes()
