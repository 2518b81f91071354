"""Unit tests for the dense linear-algebra layer."""

import itertools

import numpy as np
import pytest
from scipy.linalg import expm

from coherence_speed.errors import BadPermutation, DimensionMismatch, NotHermitian, NotPSD
from coherence_speed.linalg import (
    ORBIT_CHUNK,
    TOL_PSD,
    OrthogonalDecomposition,
    SpectralHamiltonian,
    haar_random_state,
    hermitian_eig,
    kahan_mean,
    matrix_sqrt_psd,
    orbit_levels,
    orbit_operators,
    partial_trace,
    pure_density,
    random_density,
    random_hermitian,
    random_unitary,
    tensor,
    unitary_exp,
)
from coherence_speed.metrics import affinity


def test_hermitian_eig_sorted_orthonormal_reconstructs():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = int(rng.integers(2, 9))
        h = random_hermitian(d, rng)
        w, v = hermitian_eig(h)
        assert np.all(np.diff(w) >= 0)
        assert np.max(np.abs(v.conj().T @ v - np.eye(d))) < 1e-9
        assert np.max(np.abs((v * w) @ v.conj().T - h)) < 1e-9


def test_matrix_sqrt_roundtrip():
    rng = np.random.default_rng(4)
    for _ in range(25):
        d = int(rng.integers(2, 8))
        rho = random_density(d, rank=int(rng.integers(1, d + 1)), seed=rng)
        s = matrix_sqrt_psd(rho)
        assert np.max(np.abs(s @ s - rho)) < 1e-10
        assert np.max(np.abs(s - s.conj().T)) < 1e-12


def test_matrix_sqrt_exact_on_singular_input():
    # sqrt of a projector is the projector itself; without the zero
    # dead band the eigensolver's ~1e-16 ghosts come out as sqrt ~ 1e-8
    for seed in range(5):
        proj = pure_density(haar_random_state(6, seed))
        s = matrix_sqrt_psd(proj)
        assert np.max(np.abs(s - proj)) < 1e-13


def test_matrix_sqrt_rejects_negative_eigenvalues():
    with pytest.raises(NotPSD):
        matrix_sqrt_psd(np.diag([1.0, -1e-6]))


def test_tensor_partial_trace_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = random_density(3, rank=2, seed=rng)
        b = random_density(2, rank=2, seed=rng)
        ab = tensor(a, b)
        assert abs(np.trace(ab).real - 1.0) < 1e-12
        assert np.max(np.abs(partial_trace(ab, (3, 2), over=1) - a)) < 1e-12
        assert np.max(np.abs(partial_trace(ab, (3, 2), over=0) - b)) < 1e-12


def test_decomposition_invariants_and_dephase():
    rng = np.random.default_rng(6)
    dec = OrthogonalDecomposition.from_basis(random_unitary(5, rng),
                                             [[0, 1], [2], [3, 4]])
    assert dec.size == 3
    assert dec.block_dims == (2, 1, 2)
    assert np.max(np.abs(sum(dec.projectors) - np.eye(5))) < 1e-10
    rho = random_density(5, rank=3, seed=rng)
    deph = dec.dephase(rho)
    # dephasing is a projection: idempotent, trace preserving, PSD output
    assert np.max(np.abs(dec.dephase(deph) - deph)) < 1e-12
    assert abs(np.trace(deph).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(deph)[0] > -1e-12


def test_decomposition_rejects_incomplete_family():
    e = np.eye(3, dtype=complex)
    with pytest.raises(ValueError):
        OrthogonalDecomposition((np.outer(e[0], e[0]), np.outer(e[1], e[1])))


def test_from_spectrum_clusters_degenerate_levels():
    ham = SpectralHamiltonian.from_spectrum(np.array([0.0, 1.0, 1.0, 2.0]))
    assert ham.dim == 4
    assert ham.level_count == 3
    assert ham.decomposition.block_dims == (1, 2, 1)
    np.testing.assert_allclose(ham.levels, [0.0, 1.0, 2.0])


def test_from_matrix_matches_dense_input():
    rng = np.random.default_rng(7)
    for _ in range(10):
        h = random_hermitian(5, rng)
        ham = SpectralHamiltonian.from_matrix(h)
        assert np.max(np.abs(ham.matrix() - h)) < 1e-9


def test_permute_levels_identity_and_isospectral():
    rng = np.random.default_rng(8)
    ham = SpectralHamiltonian.from_matrix(random_hermitian(5, rng))
    m = ham.level_count
    ident = ham.permute_levels(list(range(m)))
    assert np.max(np.abs(ident.matrix() - ham.matrix())) < 1e-9
    perm = list(rng.permutation(m))
    swapped = ham.permute_levels(perm)
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(swapped.matrix())),
                               np.sort(np.linalg.eigvalsh(ham.matrix())),
                               atol=1e-9)
    with pytest.raises(BadPermutation):
        ham.permute_levels([0] * m)


def test_unitary_exp_matches_expm():
    rng = np.random.default_rng(9)
    for _ in range(10):
        ham = SpectralHamiltonian.from_matrix(random_hermitian(4, rng))
        t = float(rng.uniform(0.0, 10.0))
        u = unitary_exp(ham, t)
        assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-9
        assert np.max(np.abs(u - expm(-1j * t * ham.matrix()))) < 1e-8


def test_random_generators_seed_deterministic():
    assert np.array_equal(haar_random_state(5, 42), haar_random_state(5, 42))
    assert np.array_equal(random_unitary(4, 9), random_unitary(4, 9))
    assert np.array_equal(random_density(4, rank=2, seed=13),
                          random_density(4, rank=2, seed=13))


def test_random_density_rank_and_trace():
    rng = np.random.default_rng(10)
    for rank in (1, 2, 4):
        rho = random_density(4, rank=rank, seed=rng)
        w = np.linalg.eigvalsh(rho)
        assert abs(np.sum(w) - 1.0) < 1e-10
        assert w[0] > -1e-12
        assert np.sum(w > 1e-10) == rank


def test_partial_trace_dimension_check():
    with pytest.raises(DimensionMismatch):
        partial_trace(np.eye(6) / 6.0, (4, 2), over=0)


def test_kahan_mean_compensates():
    # summing 0.1 ten million times drifts in naive fp; the compensated
    # mean should sit at 0.1 to the last ulp
    assert abs(kahan_mean(0.1 for _ in range(10 ** 6)) - 0.1) < 1e-15


def test_orbit_levels_rebuild_every_permuted_hamiltonian():
    rng = np.random.default_rng(11)
    for m in range(1, 5):
        for doubled in (False, True):
            levels = np.sort(rng.uniform(0.0, 4.0, m)) + 0.1 * np.arange(m)
            values = np.concatenate((levels, levels[-1:])) if doubled else levels
            ham = SpectralHamiltonian.from_spectrum(values, random_unitary(len(values), rng))
            assert ham.level_count == m
            rows = orbit_levels(ham)
            perms = list(itertools.permutations(range(m)))
            assert rows.shape == (len(perms), ham.dim)
            v = ham.eigenvectors
            stacked = np.concatenate(list(orbit_operators(ham, lambda lam: lam)))
            for k, s in enumerate(perms):
                want = ham.permute_levels(s).matrix()
                assert np.max(np.abs((v * rows[k]) @ v.conj().T - want)) < 1e-12
                assert np.max(np.abs(stacked[k] - want)) < 1e-12


def test_orbit_operators_chunk_in_lexicographic_order():
    ham = SpectralHamiltonian.from_spectrum(np.arange(7, dtype=float))
    chunks = list(orbit_operators(ham, lambda lam: lam))
    assert [len(c) for c in chunks] == [ORBIT_CHUNK] * (5040 // ORBIT_CHUNK)
    diagonals = np.concatenate([np.diagonal(c, axis1=1, axis2=2).real for c in chunks])
    inverse = [np.argsort(s) for s in itertools.permutations(range(7))]
    assert np.array_equal(diagonals, np.asarray(inverse, dtype=float))


def test_matrix_sqrt_psd_stack_matches_each_matrix():
    rng = np.random.default_rng(12)
    stack = np.stack([random_density(4, rank=r, seed=rng) for r in (1, 2, 4)]
                     + [np.diag([1.0 + 5e-11, -5e-11, 0.0, 0.0])])
    roots = matrix_sqrt_psd(stack)
    assert roots.shape == stack.shape
    for rho, root in zip(stack, roots):
        assert np.max(np.abs(root - matrix_sqrt_psd(rho))) < 1e-14
    # the dead band zeroes the -5e-11 eigenvalue of the last matrix only
    assert roots[-1][1, 1] == 0.0
    overlaps = affinity(stack, stack[::-1])
    for k, rho in enumerate(stack):
        assert abs(overlaps[k] - affinity(rho, stack[::-1][k])) < 1e-14
    # affinity of a state with itself reads 1 + roundoff and is clipped
    assert np.all(affinity(stack, stack) <= 1.0)


def test_matrix_sqrt_psd_stack_checks_every_matrix():
    good = np.stack([np.eye(2) / 2.0] * 3)
    bad_psd = good.copy()
    bad_psd[1] = np.diag([1.0 + 2 * TOL_PSD, -2 * TOL_PSD])
    with pytest.raises(NotPSD):
        matrix_sqrt_psd(bad_psd)
    bad_herm = good.astype(complex)
    bad_herm[2, 0, 1] = 1e-6
    with pytest.raises(NotHermitian):
        matrix_sqrt_psd(bad_herm)
    with pytest.raises(DimensionMismatch):
        matrix_sqrt_psd(np.zeros((3, 2, 3)))
    # a Hamiltonian is one matrix, never a stack
    with pytest.raises(DimensionMismatch):
        SpectralHamiltonian.from_matrix(good)
