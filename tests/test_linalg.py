"""Unit tests for the dense linear-algebra layer."""

import inspect
import itertools
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from coherence_speed import avgdist, battery, channels, coherence, dynamics, linalg, metrics
from coherence_speed.channels import dilate, qutrit_equality_channel, random_channel
from coherence_speed.errors import (
    BadPermutation,
    DimensionMismatch,
    InvalidState,
    NotHermitian,
    NotPSD,
)
from coherence_speed.linalg import (
    ORBIT_CHUNK,
    TOL_DEGEN,
    TOL_PSD,
    OrthogonalDecomposition,
    SpectralHamiltonian,
    _cluster_levels,
    haar_random_state,
    hermitian_eig,
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
    validate_state_vector,
)
from coherence_speed.metrics import affinity


def _tolerance_parameters():
    """Parameters named *tol* of the public functions, classes and methods of the library."""
    found = []
    for mod in (linalg, coherence, avgdist, channels, metrics, dynamics, battery):
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members += [(f"{name}.{m}", getattr(obj, m)) for m in vars(obj)
                            if not m.startswith("_") and callable(getattr(obj, m))]
            for label, fn in members:
                found += [f"{mod.__name__}.{label}({p})"
                          for p in inspect.signature(fn).parameters if "tol" in p]
    return found


def test_no_function_takes_a_tolerance():
    # every threshold is a constant of the linalg table, read where it applies
    assert _tolerance_parameters() == []


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


def _fresh_orbit_table(m):
    perms = np.array(list(itertools.permutations(range(m))), dtype=np.intp).reshape(-1, m)
    return np.argsort(perms, axis=1)


def test_the_cached_orbit_table_is_a_fresh_build_and_read_only():
    for m in range(1, 9):
        table = linalg._orbit_table(m)
        fresh = _fresh_orbit_table(m)
        assert table.dtype == fresh.dtype and table.shape == fresh.shape
        assert table.tobytes() == fresh.tobytes()
        assert linalg._orbit_table(m) is table
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1
    assert not any(index.flags.writeable for index in avgdist._upper_pairs(5))
    ham = SpectralHamiltonian.from_spectrum(np.array([0.0, 1.0, 1.0, 2.5]))
    rows = orbit_levels(ham)
    rows[0, 0] = 9.0            # a copy, which leaves the cached table as it was
    assert linalg._orbit_table(3).tobytes() == _fresh_orbit_table(3).tobytes()


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


def _old_loop_check(projectors, tol=1e-8):
    """The per-projector loop check that OrthogonalDecomposition made before its stacked check.

    Returns the error (type, message) it raised, or None when it accepted.
    """
    projs = tuple(np.asarray(p, dtype=complex) for p in projectors)
    if not projs:
        return ValueError, "decomposition needs at least one projector"
    d = projs[0].shape[0]
    for p in projs:
        if p.shape != (d, d):
            return DimensionMismatch, "projectors must share one square shape"
        if np.max(np.abs(p - p.conj().T)) > tol:
            return ValueError, "projector is not Hermitian"
        if np.max(np.abs(p @ p - p)) > tol:
            return ValueError, "projector is not idempotent"
    for pa, pb in itertools.combinations(projs, 2):
        if np.max(np.abs(pa @ pb)) > tol:
            return ValueError, "projectors are not mutually orthogonal"
    total = sum(projs)
    if np.max(np.abs(total - np.eye(d))) > tol:
        return ValueError, "projectors do not sum to the identity"
    return None


def _new_check(projectors):
    try:
        OrthogonalDecomposition(tuple(projectors))
    except (ValueError, DimensionMismatch) as exc:
        return type(exc), str(exc)
    return None


def _faults(projs, rng):
    """Perturbed copies of a valid family, one or two faults each, with a label."""
    d = projs[0].shape[0]
    m = len(projs)
    k = int(rng.integers(m))
    out = [("valid", list(projs))]
    skew = [p.copy() for p in projs]
    skew[k][0, d - 1] += 1e-6                          # not Hermitian
    out.append(("non-hermitian", skew))
    scaled = [p.copy() for p in projs]
    scaled[k] = 1.001 * scaled[k]                      # Hermitian, not idempotent
    out.append(("non-idempotent", scaled))
    within = [p.copy() for p in projs]
    within[k] = within[k] + 1e-10 * np.eye(d)          # every residual below 1e-8
    out.append(("within-tolerance", within))
    out.append(("incomplete", list(projs[:-1])))
    if m >= 2:
        # P_0 + P_1 and P_1 overlap; each is a projector
        merged = [projs[0] + projs[1]] + list(projs[1:])
        out.append(("overlapping", merged))
        both = [p.copy() for p in merged]
        both[-1] = 1.001 * both[-1]                    # overlap and a later non-idempotent
        out.append(("overlap-then-idempotence", both))
        both = [p.copy() for p in projs]
        both[m - 1][0, d - 1] += 1e-6                 # a later non-Hermitian ...
        both[0] = 1.001 * both[0]                      # ... behind an earlier non-idempotent
        out.append(("idempotence-before-hermiticity", both))
        shaped = list(projs)
        shaped[m - 1] = np.eye(d + 1)                  # wrong shape after a non-Hermitian
        shaped[0] = shaped[0] + 1e-6 * np.triu(np.ones((d, d)), 1)
        out.append(("hermiticity-before-shape", shaped))
        out.append(("shape", list(projs[:-1]) + [np.eye(d + 1)]))
    return out


def test_stacked_check_agrees_with_the_loop_check():
    rng = np.random.default_rng(13)
    seen = set()
    for _ in range(60):
        d = int(rng.integers(1, 9))
        m = int(rng.integers(1, d + 1))
        cuts = np.sort(rng.choice(np.arange(1, d), size=m - 1, replace=False)) if m > 1 else []
        groups = np.split(np.arange(d), cuts)
        projs = OrthogonalDecomposition.from_basis(random_unitary(d, rng), groups).projectors
        for label, family in _faults(projs, rng):
            want = _old_loop_check(family)
            assert _new_check(family) == want, (label, d, m)
            seen.add((label, want[1] if want else "accepted"))
    # every message and both verdicts came up
    messages = {msg for _, msg in seen}
    assert {"accepted", "projector is not Hermitian", "projector is not idempotent",
            "projectors are not mutually orthogonal", "projectors do not sum to the identity",
            "projectors must share one square shape"} <= messages


def _old_cluster_levels(eigvals, tol):
    """The per-level loop _cluster_levels ran before singletons skipped np.mean."""
    splits = np.flatnonzero(np.diff(eigvals) > tol)
    starts = np.concatenate(([0], splits + 1))
    ends = np.concatenate((splits + 1, [len(eigvals)]))
    level_of = np.zeros(len(eigvals), dtype=int)
    levels = np.empty(len(starts))
    for m, (a, b) in enumerate(zip(starts, ends)):
        level_of[a:b] = m
        levels[m] = float(np.mean(eigvals[a:b]))
    return levels, level_of


def test_cluster_levels_bit_identical_to_the_loop():
    rng = np.random.default_rng(14)
    for _ in range(400):
        sizes = rng.integers(1, 17, size=int(rng.integers(1, 6)))
        centres = np.cumsum(rng.uniform(0.1, 3.0, len(sizes))) - 4.0
        w = np.sort(np.concatenate([c + rng.uniform(0.0, 0.4, n) * TOL_DEGEN
                                    for c, n in zip(centres, sizes)]))
        levels, level_of = _cluster_levels(w)
        want_levels, want_of = _old_cluster_levels(w, TOL_DEGEN)
        assert levels.dtype == want_levels.dtype and level_of.dtype == want_of.dtype
        assert np.array_equal(levels, want_levels)
        assert np.array_equal(level_of, want_of)
        assert len(levels) == len(sizes)


def _assert_checked_family(dec: OrthogonalDecomposition):
    rebuilt = OrthogonalDecomposition(dec.projectors)   # raises on any broken invariant
    assert rebuilt.size == dec.size


def test_trusted_families_pass_the_full_check():
    rng = np.random.default_rng(15)
    for d in range(1, 9):
        for kind in ("random", "degenerate", "near-degenerate"):
            if kind == "random":
                h = random_hermitian(d, rng)
            else:
                lam = np.sort(rng.uniform(-2.0, 2.0, d))
                if d > 1:
                    lam[1] = lam[0] + (0.0 if kind == "degenerate" else 0.5 * TOL_DEGEN)
                u = random_unitary(d, rng)
                h = (u * lam) @ u.conj().T
            ham = SpectralHamiltonian.from_matrix(h)
            if kind != "random" and d > 1:
                assert ham.level_count < d
            _assert_checked_family(ham.decomposition)
            perm = rng.permutation(ham.level_count)
            _assert_checked_family(ham.permute_levels(perm).decomposition)
        levels = np.repeat(np.arange(d // 2 + 1, dtype=float), 2)[:d]
        _assert_checked_family(SpectralHamiltonian.from_spectrum(levels).decomposition)
    for channel in (qutrit_equality_channel(), random_channel(2, 2, rng),
                    random_channel(3, 2, rng)):
        dil = dilate(channel)
        _assert_checked_family(dil.hamiltonian.decomposition)
        _assert_checked_family(dil.hamiltonian.permute_levels(
            rng.permutation(dil.hamiltonian.level_count)).decomposition)


def test_only_caller_families_run_the_check(monkeypatch):
    calls = []
    check = OrthogonalDecomposition.__post_init__
    monkeypatch.setattr(OrthogonalDecomposition, "__post_init__",
                        lambda self: calls.append(1) or check(self))
    rng = np.random.default_rng(16)
    ham = SpectralHamiltonian.from_matrix(random_hermitian(4, rng))
    ham.permute_levels([3, 1, 0, 2])
    SpectralHamiltonian.from_spectrum([0.0, 1.0, 1.0])
    basis = random_unitary(3, rng)
    SpectralHamiltonian.from_spectrum([0.0, 1.0, 1.0], basis)   # checked as a basis
    assert calls == []
    OrthogonalDecomposition.from_basis(basis, [[0], [1, 2]])
    OrthogonalDecomposition.computational(3)
    assert len(calls) == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_families_are_rejected(bad):
    # every residual test reads `max|...| > tol`, which NaN never passes
    poisoned = np.eye(2, dtype=complex)
    poisoned[0, 1] = bad
    for family in ((np.full((2, 2), bad), np.eye(2)), (poisoned, np.zeros((2, 2)))):
        with pytest.raises(ValueError, match="not all finite"):
            OrthogonalDecomposition(family)
    # an infinite basis entry times zero makes NaN (and a warning) in V V†
    with pytest.raises(ValueError, match="not all finite"), np.errstate(invalid="ignore"):
        OrthogonalDecomposition.from_basis(poisoned)


def test_from_spectrum_rejects_a_nan_basis():
    # the orthonormality residual of a NaN basis is NaN, which passes `> 1e-8`
    basis = random_unitary(3, 17)
    basis[1, 2] = np.nan
    with pytest.raises(ValueError, match="not all finite"):
        SpectralHamiltonian.from_spectrum([0.0, 1.0, 2.0], basis)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_from_spectrum_rejects_non_finite_eigenvalues(bad):
    for basis in (None, random_unitary(3, 18)):
        with pytest.raises(ValueError, match="^eigenvalues are not all finite$"):
            SpectralHamiltonian.from_spectrum([0.0, bad, 1.0], basis)


@pytest.mark.parametrize("bad", [
    np.diag([np.inf, 0.0]), np.array([[0.0, np.inf], [np.inf, 0.0]]),
    np.array([[0.0, np.inf], [-np.inf, 0.0]]), np.diag([np.nan, 0.0])],
    ids=["inf-diagonal", "inf-symmetric", "inf-antisymmetric", "nan"])
def test_a_non_finite_matrix_fails_the_hermitian_check_without_a_warning(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not linalg.is_hermitian(bad.astype(complex))
        with pytest.raises(NotHermitian, match="^matrix entries are not all finite$"):
            SpectralHamiltonian.from_matrix(bad)
        with pytest.raises(NotHermitian):
            linalg.validate_density(bad)


@pytest.mark.parametrize("offset, accepted", [(2e-8, False), (5e-9, True)])
def test_from_spectrum_checks_the_basis_to_1e_8(offset, accepted):
    # V diag(sqrt(1 + offset), 1, 1) has V†V - I = diag(offset, 0, 0)
    basis = random_unitary(3, 18) * np.sqrt([1.0 + offset, 1.0, 1.0])
    residual = np.max(np.abs(basis.conj().T @ basis - np.eye(3)))
    assert abs(residual - offset) < 1e-15
    if accepted:
        ham = SpectralHamiltonian.from_spectrum([0.0, 1.0, 2.0], basis)
        _assert_checked_family(ham.decomposition)
    else:
        with pytest.raises(ValueError, match="not orthonormal"):
            SpectralHamiltonian.from_spectrum([0.0, 1.0, 2.0], basis)


@pytest.mark.parametrize("build", [
    lambda: OrthogonalDecomposition([np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
                                     np.zeros((2, 2))]),
    lambda: OrthogonalDecomposition.from_basis(np.eye(2), [[0], [1], []]),
], ids=["constructor", "from_basis"])
def test_empty_blocks_are_rejected(build):
    # a zero block is Hermitian, idempotent and orthogonal to every block,
    # and would make the uniform superposition read as not maximally coherent
    with pytest.raises(ValueError, match="projector is empty"):
        build()


@pytest.mark.parametrize("psi", [
    [np.nan, 1.0],
    [1.0, complex(0.0, np.nan)],
    [np.inf, 0.0],
    [complex(np.inf, np.nan), 0.0],
], ids=["nan", "nan-imag", "inf", "inf-nan"])
def test_non_finite_state_vector_is_rejected(psi):
    # a NaN norm fails no `> tol` test, so only a finiteness check sees it
    with pytest.raises(InvalidState):
        validate_state_vector(psi)
    with pytest.raises(InvalidState):
        pure_density(psi)
