"""Stacked projector consumers against the per-projector loops they replaced.

Each ``_loop_*`` function below is the loop the package ran while a
decomposition was a tuple of matrices; it is kept here as the
reference.  c_half and closest_incoherent must agree bit for bit (same
products, same summation order); the other consumers to 1e-15.
"""

import itertools

import numpy as np
import pytest

from coherence_speed.coherence import (
    c_half,
    closest_incoherent,
    is_refinement,
)
from coherence_speed.dynamics import gap_squared_matrix, instantaneous_speed
from coherence_speed.linalg import (
    TOL_DEGEN,
    TOL_PSD,
    OrthogonalDecomposition,
    SpectralHamiltonian,
    _cluster_levels,
    _families,
    haar_random_state,
    hermitianize,
    matrix_sqrt_psd,
    pure_density,
    random_density,
    random_unitary,
)


def _loop_c_half(rho, projectors):
    s = matrix_sqrt_psd(rho)
    traces = np.empty(len(projectors))
    for m, p in enumerate(projectors):
        x = p @ s @ p
        traces[m] = np.vdot(x, x).real
    return max(0.0, 1.0 - float(np.sum(traces)))


def _loop_closest_incoherent(rho, projectors):
    s = matrix_sqrt_psd(rho)
    d = rho.shape[0]
    total = 0.0
    acc = np.zeros((d, d), dtype=complex)
    for p in projectors:
        x = p @ s @ p
        w = np.vdot(x, x).real
        if w < TOL_PSD:
            continue
        acc += x @ x
        total += w
    if total < TOL_PSD:     # closest_incoherent's docstring: a checked state cannot get here
        raise AssertionError("all block weights vanish")
    return hermitianize(acc / total)


def _loop_dephase(rho, projectors):
    out = np.zeros_like(rho)
    for p in projectors:
        out += p @ rho @ p
    return out


def _loop_weights(psi, projectors):
    return np.array([float(np.vdot(psi, p @ psi).real) for p in projectors])


def _loop_speed(psi, ham):
    r = _loop_weights(psi, ham.decomposition.projectors)
    return float(np.sqrt(max(0.0, r @ gap_squared_matrix(ham.levels) @ r)))


def _loop_is_refinement(fine, coarse, tol=1e-8):
    assigned = [[] for _ in coarse]
    for q in fine:
        home = None
        for m, p in enumerate(coarse):
            if np.max(np.abs(p @ q - q)) <= tol:
                home = m
                break
        if home is None:
            return False
        assigned[home].append(q)
    for m, p in enumerate(coarse):
        total = sum(assigned[m]) if assigned[m] else np.zeros_like(p)
        if np.linalg.norm(total - p) > tol:
            return False
    return True


def _loop_permute_levels(ham, s):
    cols, vals, lev_of, projs = [], [], [], []
    for i in range(ham.level_count):
        block = np.flatnonzero(ham.level_of == s[i])
        cols.append(ham.eigenvectors[:, block])
        vals.extend([ham.levels[i]] * len(block))
        lev_of.extend([i] * len(block))
        projs.append(ham.decomposition.projectors[s[i]])
    return (np.asarray(vals, dtype=float), np.hstack(cols), np.asarray(lev_of, dtype=int),
            np.stack(projs))


def _loop_basis_projectors(vectors, groups):
    return np.stack([vectors[:, list(g)] @ vectors[:, list(g)].conj().T for g in groups])


def _groups(rng, d):
    """A random partition of 0..d-1 into blocks, shuffled, so blocks are degenerate."""
    m = int(rng.integers(1, d + 1))
    cuts = np.sort(rng.choice(np.arange(1, d), size=m - 1, replace=False)) if m > 1 else []
    return [list(g) for g in np.split(rng.permutation(d), cuts)]


def _cases(seed, n=120):
    """(basis, groups, decomposition, states) at d = 1..8.

    The states are a full-rank and a rank-1 density, and a pure state
    inside the first block plus a 1e-7 admixture of another block,
    whose other blocks weigh less than TOL_PSD.
    """
    rng = np.random.default_rng(seed)
    for k in range(n):
        d = 1 + k % 8
        basis = random_unitary(d, rng)
        groups = _groups(rng, d)
        dec = OrthogonalDecomposition.from_basis(basis, groups)
        inside = basis[:, groups[0][0]].copy()
        if len(groups) > 1:
            inside += 1e-7 * basis[:, groups[-1][0]]
        states = [random_density(d, rank=d, seed=rng), random_density(d, rank=1, seed=rng),
                  pure_density(inside / np.linalg.norm(inside))]
        yield basis, groups, dec, states


def test_the_stack_is_the_stored_form():
    rng = np.random.default_rng(60)
    basis = random_unitary(5, rng)
    groups = [[4, 0], [2], [1, 3]]
    checked = OrthogonalDecomposition.from_basis(basis, groups)
    built = SpectralHamiltonian.from_matrix((basis * [0.0, 1.0, 0.0, 2.0, 1.0]) @ basis.conj().T)
    for dec in (checked, OrthogonalDecomposition(list(checked.projectors)), built.decomposition,
                built.permute_levels([2, 0, 1]).decomposition):
        assert isinstance(dec.projectors, np.ndarray)
        assert dec.projectors.shape == (3, 5, 5) and dec.projectors.dtype == complex
    # the caller's matrices are copied into the stack, never aliased
    family = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    dec = OrthogonalDecomposition(family)
    family[0][0, 0] = 7.0
    assert dec.projectors[0, 0, 0] == 1.0


@pytest.mark.bits
def test_block_stack_is_bit_identical_to_each_block_product():
    rng = np.random.default_rng(61)
    for d in range(1, 9):
        for _ in range(20):
            basis = random_unitary(d, rng)
            groups = _groups(rng, d)
            dec = OrthogonalDecomposition.from_basis(basis, groups)
            assert np.array_equal(dec.projectors, _loop_basis_projectors(basis, groups))
            w = np.sort(np.repeat(rng.uniform(-2.0, 2.0, len(groups)), [len(g) for g in groups]))
            ham = SpectralHamiltonian.from_matrix((basis * w) @ basis.conj().T)
            cols = [np.flatnonzero(ham.level_of == m) for m in range(ham.level_count)]
            assert np.array_equal(ham.decomposition.projectors,
                                  _loop_basis_projectors(ham.eigenvectors, cols))


@pytest.mark.bits
def test_from_basis_installs_the_family_the_full_check_keeps_bit_for_bit():
    # from_basis checks the basis and its groups, then installs its blocks as built; the
    # constructor's full check of the same blocks keeps these bytes, C-ordered
    rng = np.random.default_rng(64)
    for k in range(600):
        d = 1 + k % 8
        basis, groups = random_unitary(d, rng), _groups(rng, d)
        for vectors in (basis, np.eye(d, dtype=complex)):
            got = OrthogonalDecomposition.from_basis(vectors, groups).projectors
            want = OrthogonalDecomposition(_loop_basis_projectors(vectors, groups)).projectors
            assert got.tobytes() == want.tobytes() and got.shape == want.shape
            assert got.flags.c_contiguous and not got.flags.writeable
        assert OrthogonalDecomposition.computational(d, groups).projectors.tobytes() == (
            want.tobytes())


@pytest.mark.bits
def test_c_half_and_closest_incoherent_match_the_loops_bit_for_bit():
    degenerate = dropped = 0
    for _, groups, dec, states in _cases(62):
        degenerate += any(len(g) > 1 for g in groups)
        for rho in states:
            assert c_half(rho, dec) == _loop_c_half(rho, dec.projectors)
            want = _loop_closest_incoherent(rho, dec.projectors)
            assert closest_incoherent(rho, dec).tobytes() == want.tobytes()
            s = matrix_sqrt_psd(rho)
            dropped += any(np.vdot(p @ s @ p, p @ s @ p).real < TOL_PSD for p in dec.projectors)
    assert degenerate > 50 and dropped > 50


@pytest.mark.bits
def test_more_than_eight_blocks_sum_their_weights_in_block_order():
    # np.sum pairs the terms of 8 or more weights; the loop added them in turn
    rng = np.random.default_rng(63)
    for d in (9, 12, 16):
        dec = OrthogonalDecomposition.from_basis(random_unitary(d, rng))
        for _ in range(20):
            rho = random_density(d, rank=d, seed=rng)
            assert c_half(rho, dec) == _loop_c_half(rho, dec.projectors)
            want = _loop_closest_incoherent(rho, dec.projectors)
            assert closest_incoherent(rho, dec).tobytes() == want.tobytes()


def test_dephase_and_block_weights_match_the_loops():
    rng = np.random.default_rng(64)
    for basis, groups, dec, states in _cases(65):
        for rho in states:
            assert np.max(np.abs(dec.dephase(rho) - _loop_dephase(rho, dec.projectors))) <= 1e-15
        psi = haar_random_state(len(basis), rng)
        block = basis[:, groups[0]] @ rng.standard_normal(len(groups[0]))
        for state in (psi, block / np.linalg.norm(block)):
            assert np.max(np.abs(dec._weights(state)
                                 - _loop_weights(state, dec.projectors))) <= 1e-15


def test_block_weights_and_speed_match_the_loops():
    rng = np.random.default_rng(66)
    for d in range(1, 9):
        for _ in range(10):
            basis = random_unitary(d, rng)
            groups = _groups(rng, d)
            w = np.sort(np.repeat(rng.uniform(-2.0, 2.0, len(groups)), [len(g) for g in groups]))
            for ham in (SpectralHamiltonian.from_matrix((basis * w) @ basis.conj().T),
                        SpectralHamiltonian.from_spectrum(w, basis)):
                psi = haar_random_state(d, rng)
                want = _loop_weights(psi, ham.decomposition.projectors)
                assert np.max(np.abs(ham.decomposition._weights(psi) - want)) <= 1e-15
                assert abs(instantaneous_speed(psi, ham) - _loop_speed(psi, ham)) <= 1e-15


def test_is_refinement_gives_the_loop_verdicts():
    rng = np.random.default_rng(67)
    verdicts = set()
    for d in range(1, 9):
        for _ in range(15):
            basis = random_unitary(d, rng)
            fine_groups = _groups(rng, d)
            # coarse: neighbouring fine blocks merged -> a refining pair
            cut = int(rng.integers(1, len(fine_groups) + 1))
            coarse_groups = [sum(fine_groups[:cut], [])] + fine_groups[cut:]
            straddle = list(rng.permutation(d))            # blocks that straddle
            halves = [straddle[:d // 2], straddle[d // 2:]] if d > 1 else [[0]]
            for fine_g, coarse_g in ((fine_groups, coarse_groups), (coarse_groups, fine_groups),
                                     (fine_groups, halves)):
                fine = OrthogonalDecomposition.from_basis(basis, fine_g)
                coarse = OrthogonalDecomposition.from_basis(basis, coarse_g)
                got = is_refinement(fine, coarse)
                assert got == _loop_is_refinement(fine.projectors, coarse.projectors)
                verdicts.add(got)
            # a pair in different bases
            other = OrthogonalDecomposition.from_basis(random_unitary(d, rng))
            fine = OrthogonalDecomposition.from_basis(basis)
            assert is_refinement(fine, other) == _loop_is_refinement(
                fine.projectors, other.projectors)
            assert is_refinement(fine, OrthogonalDecomposition.computational(d, [range(d)]))
    assert verdicts == {True, False}


@pytest.mark.bits
def test_permute_levels_matches_the_loop():
    rng = np.random.default_rng(68)
    for d in range(1, 9):
        basis = random_unitary(d, rng)
        groups = _groups(rng, d)
        w = np.repeat(rng.uniform(-2.0, 2.0, len(groups)), [len(g) for g in groups])
        ham = SpectralHamiltonian.from_matrix((basis * w) @ basis.conj().T)
        for s in itertools.islice(itertools.permutations(range(ham.level_count)), 30):
            got = ham.permute_levels(s)
            vals, vecs, lev_of, projs = _loop_permute_levels(ham, s)
            assert np.array_equal(got.eigenvalues, vals)
            assert np.array_equal(got.eigenvectors, vecs)
            assert np.array_equal(got.level_of, lev_of) and got.level_of.dtype == lev_of.dtype
            assert np.array_equal(got.decomposition.projectors, projs)
            assert np.array_equal(got.levels, ham.levels)


@pytest.mark.bits
@pytest.mark.parametrize("rows", [1, 5])
def test_cluster_levels_groups_each_row_of_a_stack(rows):
    rng = np.random.default_rng(69 + rows)
    for _ in range(50):
        d = int(rng.integers(1, 9))
        stack = np.sort(np.round(rng.uniform(-2.0, 2.0, (rows, d)), 1)
                        + rng.uniform(0.0, 0.4, (rows, d)) * TOL_DEGEN, axis=-1)
        levels, level_of = _cluster_levels(stack)
        assert level_of.shape == stack.shape
        width = max(len(_cluster_levels(w)[0]) for w in stack)
        assert levels.shape == (rows, width)
        for w, got_levels, got_of in zip(stack, levels, level_of):
            want_levels, want_of = _cluster_levels(w)
            assert np.array_equal(got_of, want_of)
            assert np.array_equal(got_levels[:len(want_levels)], want_levels)
            assert not got_levels[len(want_levels):].any()


@pytest.mark.bits
def test_the_families_of_several_hamiltonians_are_their_block_products_bit_for_bit():
    # one _block_stacks call over several bases of one dimension and level count, block
    # sizes mixed within and across the bases
    rng = np.random.default_rng(71)
    for d in range(1, 9):
        for m in range(1, d + 1):
            hams = []
            for _ in range(5):
                mult = np.ones(m, dtype=int)
                np.add.at(mult, rng.integers(0, m, d - m), 1)
                values = np.repeat(np.cumsum(rng.uniform(0.1, 1.0, m)), mult)
                hams.append(SpectralHamiltonian.from_spectrum(values, random_unitary(d, rng)))
            families = _families(hams)
            assert families.shape == (5, m, d, d) and not families.flags.writeable
            assert not any("decomposition" in vars(ham) for ham in hams)  # none installed
            for ham, family in zip(hams, families):
                cols = [np.flatnonzero(ham.level_of == k) for k in range(m)]
                want = _loop_basis_projectors(ham.eigenvectors, cols)
                assert family.tobytes() == want.tobytes()
                assert ham.decomposition.projectors.tobytes() == want.tobytes()
