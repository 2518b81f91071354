"""Unit tests for the dense linear-algebra layer."""

import dataclasses
import inspect
import itertools
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from coherence_speed import (
    avgdist,
    battery,
    channels,
    cli,
    coherence,
    dynamics,
    linalg,
    metrics,
    verification,
)
from coherence_speed.channels import dilate, qutrit_equality_channel, random_channel
from coherence_speed.errors import BadPermutation, DimensionMismatch, NotHermitian, NotPSD
from coherence_speed.linalg import (
    TOL_DEGEN,
    TOL_STRUCT,
    OrthogonalDecomposition,
    SpectralHamiltonian,
    _cluster_levels,
    haar_random_state,
    matrix_sqrt_psd,
    partial_trace,
    pure_density,
    random_density,
    random_hermitian,
    random_unitary,
    unitary_exp,
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


def test_from_matrix_sorted_orthonormal_reconstructs():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = int(rng.integers(2, 9))
        h = random_hermitian(d, rng)
        ham = SpectralHamiltonian.from_matrix(h)
        w, v = ham.eigenvalues, ham.eigenvectors
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


def test_tensor_partial_trace_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = random_density(3, rank=2, seed=rng)
        b = random_density(2, rank=2, seed=rng)
        ab = np.kron(a, b)
        assert abs(np.trace(ab).real - 1.0) < 1e-12
        assert np.max(np.abs(partial_trace(ab, (3, 2), over=1) - a)) < 1e-12
        assert np.max(np.abs(partial_trace(ab, (3, 2), over=0) - b)) < 1e-12


def test_decomposition_invariants_and_dephase():
    rng = np.random.default_rng(6)
    dec = OrthogonalDecomposition.from_basis(random_unitary(5, rng),
                                             [[0, 1], [2], [3, 4]])
    assert len(dec.projectors) == 3
    assert np.array_equal(np.trace(dec.projectors, axis1=1, axis2=2).real.round(), [2, 1, 2])
    assert np.max(np.abs(sum(dec.projectors) - np.eye(5))) < 1e-10
    rho = random_density(5, rank=3, seed=rng)
    deph = dec.dephase(rho)
    # dephasing is a projection: idempotent, trace preserving, PSD output
    assert np.max(np.abs(dec.dephase(deph) - deph)) < 1e-12
    assert abs(np.trace(deph).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(deph)[0] > -1e-12


def _decompositions():
    """A checked family and the two trusted ones: a lazy eigenspace build and a permuted one."""
    ham = SpectralHamiltonian.from_spectrum([0.0, 1.0, 1.0, 2.5], random_unitary(4, 70))
    return (OrthogonalDecomposition.computational(3), ham.decomposition,
            ham.permute_levels([2, 0, 1]).decomposition)


def test_a_decomposition_cannot_be_reassigned():
    for dec in _decompositions():
        with pytest.raises(dataclasses.FrozenInstanceError):
            dec.projectors = 2.0 * dec.projectors


def test_a_decomposition_stack_cannot_be_written_in_place():
    for dec in _decompositions():
        with pytest.raises(ValueError, match="read-only"):
            dec.projectors[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            dec.projectors *= 2.0


def _hamiltonians():
    """One operator from each entry: from a matrix, from a spectrum, and a permute_levels child."""
    ham = SpectralHamiltonian.from_spectrum([0.0, 1.0, 1.0, 2.5], random_unitary(4, 71))
    return (SpectralHamiltonian.from_matrix(random_hermitian(3, 71)), ham,
            ham.permute_levels([2, 0, 1]))


_SPECTRAL_FIELDS = ("eigenvalues", "eigenvectors", "levels", "level_of")


def test_a_hamiltonian_cannot_be_reassigned():
    for ham in _hamiltonians():
        for name in _SPECTRAL_FIELDS + ("decomposition",):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(ham, name, getattr(ham, name))


def test_a_hamiltonians_arrays_cannot_be_written_in_place():
    for ham in _hamiltonians():
        for name in _SPECTRAL_FIELDS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(ham, name)[0] = 0
            with pytest.raises(ValueError, match="read-only"):
                getattr(ham, name)[...] *= 2


def test_written_eigenvectors_cannot_reach_the_theorem_1_oracles():
    ham = SpectralHamiltonian.from_spectrum([0.0, 1.0, 2.0])
    plus = pure_density(np.ones(3) / np.sqrt(3.0))
    with pytest.raises(ValueError, match="read-only"):
        ham.eigenvectors[:] = 2.0 * np.eye(3)
    res = avgdist.avg_distance_closed(plus, ham, 0.7)
    assert res.coherence == pytest.approx(2.0 / 3.0)
    assert res.gap < 1e-12 and res.closed_form == pytest.approx(0.5779326589025698)


def test_from_spectrum_clusters_degenerate_levels():
    ham = SpectralHamiltonian.from_spectrum(np.array([0.0, 1.0, 1.0, 2.0]))
    assert ham.dim == 4
    assert ham.level_count == 3
    assert np.array_equal(np.trace(ham.decomposition.projectors, axis1=1, axis2=2).real.round(),
                          [1, 2, 1])
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


@pytest.mark.bits
def test_phases_are_the_inline_expression_bit_for_bit():
    # a 0.0 level, negative levels, t = 0.0, scalar times and the complex (n, 1) time
    # columns (and (1,) rows) the orbit terms pass; -1j * (levels * t) would flip the sign
    # of some zero imaginary parts
    rng = np.random.default_rng(45)
    levels = np.array([-2.5, -0.3, 0.0, 0.7, 1.9])
    rows = np.concatenate([levels[None], rng.permutation(np.tile(levels, (6, 1)), axis=1)])
    for lam, t in [(levels, 0.0), (levels, 0.7), (levels, -1.3), (levels[:1], 2.0),
                   (rows, np.array([0.7], dtype=complex)),
                   (rows, np.array([0.0, 0.7, 1.3, -0.2, 3.1, 8.0, 0.0], dtype=complex)[:, None]),
                   (rows, rng.uniform(0.0, 9.0, (7, 1)))]:
        assert linalg._phases(lam, t).tobytes() == np.exp(-1j * lam * t).tobytes()


def test_every_evolution_phase_comes_from_the_one_phase_rule(monkeypatch, tmp_path):
    calls = dict.fromkeys([linalg, avgdist, battery, channels, dynamics, verification, cli], 0)
    phases_rule = linalg._phases

    def counted(module):
        def phases(levels, t):
            calls[module] += 1
            return phases_rule(levels, t)
        return phases

    for module in calls:
        monkeypatch.setattr(module, "_phases", counted(module))
    ham = SpectralHamiltonian.from_spectrum([0.0, 0.7, 1.9])
    psi = np.array([0.6, 0.48j, -0.64])
    path = dynamics.HamiltonianPath.constant(np.diag([0.0, 1.0]), 1.0, steps=8)
    battery_config = battery.BatteryConfig.default(tau=0.5, dt=0.05)
    cases = {
        "unitary_exp": (linalg, lambda: unitary_exp(ham, 0.7)),
        "avg_distance_bruteforce": (avgdist, lambda: avgdist.avg_distance_bruteforce(
            random_density(3, 2, 1), ham, 0.7)),
        "_bruteforce of a vector": (avgdist, lambda: avgdist._bruteforce(
            linalg._Density.of(pure_density(psi), psi), ham, [0.7])),
        "benchmark_overlap_check": (avgdist, lambda: avgdist.benchmark_overlap_check(
            [0.0, 0.7, 1.9], [0.1, 0.2, 0.3], 0.7)),
        "theorem3_bound": (channels, lambda: channels.theorem3_bound(
            dilate(random_channel(2, 2, 0)), random_density(2, 2, 0))),
        "evolve": (dynamics, lambda: dynamics.evolve([1.0, 0.0], path)),
        "simulate_battery": (battery, lambda: battery.simulate_battery(battery_config,
                                                                      [1.0, 0.0])),
        "qudit_battery_bound": (battery, lambda: battery.qudit_battery_bound(
            pure_density(psi), np.diag([0.0, 1.0, 2.5]), random_hermitian(3, 4), 0.3)),
        "qsl report": (cli, lambda: cli.main(["qsl", "--out", str(tmp_path / "qsl.csv")])),
        **{check: (verification, lambda check=check: getattr(verification, check)(
            seed=0, trials=1)) for check in ("check_thm3_dpi", "check_thm3_dilation_consistency",
                                              "check_qubit_closed_form",
                                              "check_orthogonality_time")},
    }
    for name, (module, call) in cases.items():
        before = calls[module]
        call()
        assert calls[module] > before, name


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


def _old_loop_check(projectors, tol=1e-8):
    """The per-projector loop check that OrthogonalDecomposition made before its stacked check,
    with the checks added since: the family's shape comes first (one non-empty (M, d, d)
    stack), then finite entries; orthogonality reads every ordered pair P_a P_b (a != b), and
    empty blocks (trace below 1/2) come last.

    Returns the error (type, message) it raised, or None when it accepted.
    """
    try:
        stack = np.array(projectors, dtype=complex)
    except ValueError:                                  # ragged, or projectors of two shapes
        return DimensionMismatch, "entries are not nested to one shape"
    if stack.ndim != 3:
        return DimensionMismatch, f"expected a stack (M, d, d), got shape {stack.shape}"
    if stack.shape[1] != stack.shape[2] or not stack.size:
        return DimensionMismatch, f"expected a square matrix, got shape {stack.shape}"
    projs, d = tuple(stack), stack.shape[1]
    if not np.isfinite(stack).all():
        return ValueError, "projector entries are not all finite"
    for p in projs:
        if np.max(np.abs(p - p.conj().T)) > tol:
            return ValueError, "projector is not Hermitian"
        if np.max(np.abs(p @ p - p)) > tol:
            return ValueError, "projector is not idempotent"
    for pa, pb in itertools.permutations(projs, 2):
        if np.max(np.abs(pa @ pb)) > tol:
            return ValueError, "projectors are not mutually orthogonal"
    total = sum(projs)
    if np.max(np.abs(total - np.eye(d))) > tol:
        return ValueError, "projectors do not sum to the identity"
    if any(np.trace(p).real < 0.5 for p in projs):
        return ValueError, "projector is empty (trace below 1/2)"
    return None


def _new_check(projectors):
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # no numpy warning next to the verdict
        try:
            OrthogonalDecomposition(projectors)
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
    for label, bad in (("nan", np.nan), ("+inf", np.inf), ("-inf", -np.inf)):
        poisoned = [p.copy() for p in projs]
        poisoned[k][d - 1, 0] = bad
        out.append((label, poisoned))
    out.append(("zero-block", list(projs) + [np.zeros((d, d))]))
    out.append(("ragged", list(projs) + [[[1.0, 0.0], [0.0]]]))
    out.append(("nan-behind-shape", list(projs) + [np.full((d + 1, d + 1), np.nan)]))
    out.append(("empty", []))
    if m >= 2:
        # delta v v† moved from the next block P_j to P_k, v in P_j: the idempotence and
        # orthogonality residuals read delta max|v v†| = TOL_STRUCT -+ 5e-11, the sum none
        j = (k + 1) % m
        v = np.linalg.eigh(projs[j])[1][:, -1]
        vv = np.outer(v, v.conj())
        for label, edge in (("edge-below", -5e-11), ("edge-above", 5e-11)):
            near = [p.copy() for p in projs]
            near[k] = near[k] + (TOL_STRUCT + edge) / np.abs(vv).max() * vv
            near[j] = near[j] - (TOL_STRUCT + edge) / np.abs(vv).max() * vv
            out.append((label, near))
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
        shaped[m - 1] = np.eye(d + 1)                  # wrong shape, read before a non-Hermitian
        shaped[0] = shaped[0] + 1e-6 * np.triu(np.ones((d, d)), 1)
        out.append(("shape-before-hermiticity", shaped))
        out.append(("shape", list(projs[:-1]) + [np.eye(d + 1)]))
    return out


def _excess_only_in_a_later_product():
    """A 3 x 3 family whose only residual beyond TOL_STRUCT, 1.4e-8 at (P_1 P_0)[1, 0], lies
    in a product P_b P_a with b > a: every other residual stays within 0.9e-8 (each projector
    is Hermitian to 0.9e-8, the sum to 0.8e-8), so only orthogonality read in both orders
    rejects it."""
    e = np.zeros((3, 3, 3))
    e[0, 1, 0], e[0, 0, 1] = 1.4, 0.5
    e[1, 0, 1] = -0.9
    e[2, 1, 0], e[2, 0, 1] = -0.6, -0.1
    return list(np.eye(3)[:, None, :] * np.eye(3)[:, :, None] + 1e-8 * e)


def _sum_edge(edge):
    """The qubit family of the Hadamard basis with P_0 + delta (u_0 u_1† + u_1 u_0†): the sum
    residual reads delta = TOL_STRUCT + edge, orthogonality delta / 2, idempotence delta^2."""
    u = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    p0, p1 = np.outer(u[:, 0], u[:, 0]), np.outer(u[:, 1], u[:, 1])
    cross = np.outer(u[:, 0], u[:, 1])
    return [p0 + (TOL_STRUCT + edge) * (cross + cross.T), p1]


def _herm_edge(edge):
    """The computational qubit family with delta = TOL_STRUCT + edge added to P_0[0, 1] and
    taken from P_1[0, 1]: the Hermiticity residual reads delta, every other residual 0."""
    family = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    family[0][0, 1], family[1][0, 1] = TOL_STRUCT + edge, -(TOL_STRUCT + edge)
    return family


def _forms(family):
    """The family as a tuple of arrays, as nested lists and, when it stacks, as one array."""
    forms = [tuple(family), [p.tolist() if isinstance(p, np.ndarray) else p for p in family]]
    if family and all(isinstance(p, np.ndarray) and p.shape == family[0].shape for p in family):
        forms.append(np.array(family))
    return forms


def _parent_stack(family):
    """The stack the stacked check kept before it converted the family in one pass."""
    projs = [np.asarray(p, dtype=complex) for p in family]
    return np.concatenate(projs).reshape(len(projs), *projs[0].shape)


@pytest.mark.bits
def test_stacked_check_agrees_with_the_loop_check_bit_for_bit():
    rng = np.random.default_rng(13)
    seen = set()
    families = [("later-product", _excess_only_in_a_later_product()),
                ("sum-edge-below", _sum_edge(-5e-11)), ("sum-edge-above", _sum_edge(5e-11)),
                ("herm-edge-below", _herm_edge(-5e-11)), ("herm-edge-above", _herm_edge(5e-11))]
    for _ in range(60):
        d = int(rng.integers(1, 9))
        m = int(rng.integers(1, d + 1))
        cuts = np.sort(rng.choice(np.arange(1, d), size=m - 1, replace=False)) if m > 1 else []
        groups = np.split(np.arange(d), cuts)
        projs = OrthogonalDecomposition.from_basis(random_unitary(d, rng), groups).projectors
        families += [(label, family, d, m) for label, family in _faults(projs, rng)]
    for label, family, *shape in families:
        want = _old_loop_check(family)
        for form in _forms(family):
            assert _new_check(form) == want, (label, *shape, type(form))
            if want is None:
                stack = OrthogonalDecomposition(form).projectors
                assert stack.tobytes() == _parent_stack(family).tobytes()
                assert stack.dtype == complex and stack.flags.c_contiguous
                assert not any(np.shares_memory(stack, p) for p in (form, *form)
                               if isinstance(p, np.ndarray))
        seen.add((label, want[1] if want else "accepted"))
    # every message and both verdicts came up, and each edge family on its side
    messages = {msg for _, msg in seen}
    assert {"accepted", "projector is not Hermitian", "projector is not idempotent",
            "projectors are not mutually orthogonal", "projectors do not sum to the identity",
            "entries are not nested to one shape", "projector entries are not all finite",
            "projector is empty (trace below 1/2)",
            "expected a stack (M, d, d), got shape (0,)"} <= messages
    assert {("later-product", "projectors are not mutually orthogonal"),
            ("edge-below", "accepted"),
            ("edge-above", "projector is not idempotent"), ("herm-edge-below", "accepted"),
            ("herm-edge-above", "projector is not Hermitian"), ("sum-edge-below", "accepted"),
            ("sum-edge-above", "projectors do not sum to the identity"),
            ("ragged", "entries are not nested to one shape"),
            ("shape-before-hermiticity", "entries are not nested to one shape")} <= seen


def test_a_later_product_beyond_tolerance_is_read_only_for_the_message():
    family = _excess_only_in_a_later_product()
    prods = np.array([[np.abs(a @ b - (a if i == j else 0)).max()
                       for j, b in enumerate(family)] for i, a in enumerate(family)])
    assert prods[1, 0] > TOL_STRUCT >= max(prods[np.triu_indices(3)])
    assert np.abs(np.sum(family, axis=0) - np.eye(3)).max() <= TOL_STRUCT
    assert max(np.abs(p - p.conj().T).max() for p in family) <= TOL_STRUCT
    with pytest.raises(ValueError, match="^projectors are not mutually orthogonal$"):
        OrthogonalDecomposition(family)


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


@pytest.mark.bits
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


def _per_cluster_levels(eigvals):
    """_cluster_levels as it was before it averaged the clusters of one size together: a
    Python loop over the merged clusters, each np.mean'd where its second member joins."""
    split = eigvals[..., 1:] - eigvals[..., :-1] > TOL_DEGEN
    level_of = np.zeros(eigvals.shape, dtype=int)
    np.add.accumulate(split, axis=-1, dtype=int, out=level_of[..., 1:])
    levels = np.array(eigvals, dtype=float)
    if not np.logical_and.reduce(split, axis=None):
        levels = np.zeros(eigvals.shape[:-1] + (int(level_of[..., -1].max()) + 1,))
        np.put_along_axis(levels, level_of, eigvals, axis=-1)
        joins = ~split
        joins[..., 1:] &= split[..., :-1]
        for *row, j in zip(*np.nonzero(joins)):
            row = tuple(row)
            m = level_of[row][j]
            levels[row + (m,)] = np.mean(eigvals[row][level_of[row] == m])
    return levels, level_of


@pytest.mark.bits
def test_cluster_levels_equals_the_per_cluster_mean_loop_bit_for_bit():
    # one row or a stack, d = 1-16: clusters of every size up to 16 (pairwise summation
    # starts at 8 terms), rows of unequal level counts, a row of one level, and -0.0
    rng = np.random.default_rng(39)
    for _ in range(1500):
        d = int(rng.integers(1, 17))
        shape = (d,) if rng.random() < 0.4 else (int(rng.choice([1, 2, 5, 40])), d)
        w = np.round(rng.uniform(-3.0, 3.0, shape), int(rng.integers(0, 3)))
        w = np.sort(w + rng.uniform(0.0, 0.4, shape) * TOL_DEGEN * rng.integers(0, 2, shape),
                    axis=-1)
        if rng.random() < 0.1:
            w = np.sort(rng.uniform(-1.0, 1.0, shape), axis=-1) * TOL_DEGEN
        if rng.random() < 0.05:
            w = -np.zeros(shape)
        got, want = _cluster_levels(w), _per_cluster_levels(w)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_checked_family(dec: OrthogonalDecomposition):
    rebuilt = OrthogonalDecomposition(dec.projectors)   # raises on any broken invariant
    assert len(rebuilt.projectors) == len(dec.projectors)


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
    for d in range(1, 9):
        for _ in range(5):      # shuffled columns cut into blocks at random
            groups = np.split(rng.permutation(d), np.flatnonzero(rng.random(d - 1) < 0.5) + 1)
            _assert_checked_family(OrthogonalDecomposition.from_basis(random_unitary(d, rng),
                                                                      groups))
            _assert_checked_family(OrthogonalDecomposition.computational(d, groups))


def test_only_caller_families_run_the_check(monkeypatch):
    # a family built from a basis is installed as built; only a caller's projectors are checked
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
    OrthogonalDecomposition.from_basis(basis, [[0], [1, 2]])     # and so is this one
    OrthogonalDecomposition.computational(3)
    assert calls == []
    OrthogonalDecomposition(list(ham.decomposition.projectors))
    assert len(calls) == 1


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


_BASIS_ENTRIES = {
    "from_spectrum": lambda basis: SpectralHamiltonian.from_spectrum([0.0, 1.0, 2.0],
                                                                      basis).decomposition,
    "from_basis": OrthogonalDecomposition.from_basis}


@pytest.mark.parametrize("entry", list(_BASIS_ENTRIES))
@pytest.mark.parametrize("offset, accepted", [(2e-8, False), (5e-9, True)])
def test_from_spectrum_checks_the_basis_to_1e_8(offset, accepted, entry):
    # V diag(sqrt(1 + offset), 1, 1) has V†V - I = diag(offset, 0, 0); from_basis takes the rule
    basis = random_unitary(3, 18) * np.sqrt([1.0 + offset, 1.0, 1.0])
    residual = np.max(np.abs(basis.conj().T @ basis - np.eye(3)))
    assert abs(residual - offset) < 1e-15
    if accepted:
        _assert_checked_family(_BASIS_ENTRIES[entry](basis))
    else:
        with pytest.raises(ValueError, match="^basis columns are not orthonormal$"):
            _BASIS_ENTRIES[entry](basis)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _malformed_densities(d):
    base = random_density(d, rank=d, seed=d)
    skew = base.copy()
    skew[0, 1] += 1e-3
    u = random_unitary(d, d)
    w = np.full(d, 1.0 / (d - 1))
    w[0] = -0.05
    nan = base.copy()
    nan[0, 0] = np.nan
    negative = linalg.hermitianize((u * (w / w.sum())) @ u.conj().T)
    # the last two fail two checks each: the first in order must raise
    return [skew, negative, 1.5 * base, nan, base[:, :-1], np.full((d, d), np.inf),
            1.5 * negative, 1.5 * skew]


@pytest.mark.bits
def test_density_root_is_validate_density_then_matrix_sqrt_psd():
    rng = np.random.default_rng(18)
    for d in range(1, 9):
        for rank in range(1, d + 1):
            rho = random_density(d, rank=rank, seed=rng)
            # eigenvalues inside and just outside the dead band, then a state
            # Hermitian only to 1e-10 (eigh reads its lower triangle)
            u = random_unitary(d, rng)
            w = np.r_[np.ones(rank), np.geomspace(5e-11, 5e-10, d - rank)]
            banded = linalg.hermitianize((u * (w / w.sum())) @ u.conj().T)
            nudged = rho + np.triu(np.full((d, d), 1e-10), 1)
            for given in (rho, banded, nudged):
                state = linalg._Density.of(given)
                assert linalg.validate_density(given) is given
                assert state.rho.tobytes() == given.tobytes() and not state.rho.flags.writeable
                assert state.root.tobytes() == matrix_sqrt_psd(given).tobytes()
                assert state.root is state.root and state.psi is None
        for bad in _malformed_densities(max(d, 2)):
            want = _outcome(linalg.validate_density, bad)
            assert isinstance(want, str) and _outcome(linalg._Density.of, bad) == want


@pytest.mark.bits
def test_a_stack_of_drawn_states_equals_their_single_checks_bit_for_bit():
    rng = np.random.default_rng(19)
    for d in range(1, 9):
        # every rank, then eigenvalues inside and just outside the dead band
        rhos = [random_density(d, rank=rank, seed=rng) for rank in range(1, d + 1)]
        for rank in range(1, d + 1):
            u = random_unitary(d, rng)
            w = np.r_[np.ones(rank), np.geomspace(5e-11, 5e-10, d - rank)]
            rhos.append(linalg.hermitianize((u * (w / w.sum())) @ u.conj().T))
        for state, rho in zip(linalg._Density.of_stack(np.array(rhos)), rhos):
            single = linalg._Density.of(rho)
            for name in ("rho", "eigenvalues", "eigenvectors", "root"):
                got = getattr(state, name)
                assert got.tobytes() == getattr(single, name).tobytes(), (d, name)
                assert not got.flags.writeable
            assert state.psi is None
    negative = linalg.hermitianize(np.diag([1.05, -0.05]) + 0j)
    with pytest.raises(NotPSD, match="eigenvalue -5.000e-02 below"):
        linalg._Density.of_stack(np.array([np.eye(2) / 2.0, negative]))


def test_a_malformed_density_gets_one_message_from_every_entry():
    # one density check (_checked_density); matrix_sqrt_psd roots a PSD matrix of any trace
    raised = set()
    for d in range(2, 6):
        dec = OrthogonalDecomposition.computational(d)
        mixed = np.eye(d) / d
        entries = [linalg.validate_density, lambda bad: coherence.c_half(bad, dec),
                   lambda bad: affinity(mixed, bad), lambda bad: affinity(bad, mixed),
                   lambda bad: metrics.fidelity(bad, mixed), lambda bad: metrics.fidelity(mixed, bad)]
        for bad in _malformed_densities(d):
            want = _outcome(linalg.validate_density, bad)
            raised.add(want.split(":")[0])
            for fn in entries + [matrix_sqrt_psd] * (not want.startswith("InvalidState: ")):
                assert _outcome(fn, bad) == want
    assert raised == {"NotPSD", "NotHermitian", "InvalidState", "DimensionMismatch"}


_RHO = np.diag([0.5, 0.3, 0.2]).astype(complex)


def _poisoned(i, j, value):
    bad = _RHO.copy()
    bad[i, j] = value
    return bad


# (input, the error every density entry raised for it before the entry checks were
# merged into whole-array passes); each message is as the parent printed it
_BAD_DENSITIES = [
    (np.stack([_RHO, _RHO]), "DimensionMismatch: expected a square matrix, got shape (2, 3, 3)"),
    (np.ones(3), "DimensionMismatch: expected a square matrix, got shape (3,)"),
    (np.ones((2, 3)), "DimensionMismatch: expected a square matrix, got shape (2, 3)"),
    (_poisoned(1, 2, np.nan), "NotHermitian: matrix entries are not all finite"),
    (_poisoned(0, 0, np.inf), "NotHermitian: matrix entries are not all finite"),
    (_poisoned(0, 1, 1e-3), "NotHermitian: max |H - H†| = 1.000e-03 exceeds 1.0e-09"),
    (np.diag([1.05, -0.05, 0.0]), "NotPSD: eigenvalue -5.000e-02 below -1.0e-10"),
    (1.5 * _RHO, "InvalidState: trace 1.5 differs from 1 beyond 1.0e-09"),
]


@pytest.mark.bits
def test_density_entries_raise_the_parent_errors_bit_for_bit():
    for bad, want in _BAD_DENSITIES:
        for entry in (linalg._Density.of, linalg.validate_density,
                      lambda x: coherence.c_half(x, OrthogonalDecomposition.computational(3))):
            assert _outcome(entry, bad) == want
        # hellinger takes stacks; it raises the rest from either side
        if not want.startswith("DimensionMismatch: expected a square matrix, got shape (2, 3, 3)"):
            assert _outcome(metrics.hellinger, bad, _RHO) == want
            assert _outcome(metrics.hellinger, _RHO, bad) == want
    assert linalg._Density.of(_RHO).rho.tobytes() == _RHO.tobytes()
    assert metrics.hellinger(np.stack([_RHO, _RHO]), _RHO).tolist() == [0.0, 0.0]


@pytest.mark.bits
def test_from_spectrum_carries_the_basis_columns_with_the_sorted_levels():
    basis = random_unitary(3, 17)
    ham = SpectralHamiltonian.from_spectrum([2.0, 0.0, 1.0], basis)
    assert ham.eigenvectors.tobytes() == basis[:, [1, 2, 0]].tobytes()


@pytest.mark.bits
def test_eigendata_rebuilds_equal_the_parent_expressions_bit_for_bit():
    # every V diag(x) V† of the package is _eigenbasis_operators; here are the six
    # expressions it replaced, each written out on the arguments of its site
    dagger, herm = linalg.dagger, linalg.hermitianize
    rng = np.random.default_rng(30)

    def same(got, want):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    for d in range(1, 17):
        lam = rng.uniform(-np.pi, np.pi, d)
        for ham in (SpectralHamiltonian.from_matrix(random_hermitian(d, rng)),
                    SpectralHamiltonian.from_spectrum(lam, random_unitary(d, rng))):
            v, w = ham.eigenvectors, ham.eigenvalues
            same(ham.matrix(), herm((v * w) @ v.conj().T))                      # matrix()
            same(unitary_exp(ham, 0.7), (v * np.exp(-1j * w * 0.7)) @ v.conj().T)  # unitary_exp
            rows = np.exp(-1j * rng.uniform(-3.0, 3.0, (5, d)))                  # orbit operators
            same(linalg._eigenbasis_operators(v, rows), (v * rows[:, None, :]) @ v.conj().T)
        ws, vs = np.linalg.eigh(np.stack([random_hermitian(d, rng) for _ in range(4)]))
        roots = np.sqrt(rng.uniform(0.0, 1.0, (4, d)))
        for r, vv in ((roots[0], vs[0]), (roots, vs)):                          # _rebuild
            same(linalg._rebuild(r, vv), herm((vv * r[..., None, :]) @ dagger(vv)))
        x = np.exp(-1j * ws[:-1] * rng.uniform(0.01, 0.1, 3)[:, None])           # _propagate
        same(linalg._eigenbasis_operators(vs[:-1], x), (vs[:-1] * x[:, None, :]) @ dagger(vs[:-1]))
        x = np.exp(-1j * ws * 0.3)                                                # qudit battery
        same(linalg._eigenbasis_operators(vs, x), (vs * x[:, None, :]) @ dagger(vs))


@pytest.mark.bits
@pytest.mark.parametrize("d", range(2, 9))
def test_one_product_per_shared_eigenbasis_equals_the_per_matrix_products_bit_for_bit(d):
    # rows against one V are one (n d, d) @ V† product; the per-matrix expression it
    # replaced is kept here, with the 1-D row that still takes it
    rng = np.random.default_rng(40 + d)

    def per_matrix(v, x):
        return (v * x[..., None, :]) @ linalg.dagger(v)

    for ham in (SpectralHamiltonian.from_matrix(random_hermitian(d, rng)),
                SpectralHamiltonian.from_spectrum(rng.uniform(-2.0, 2.0, d),
                                                  random_unitary(d, rng))):
        v = ham.eigenvectors
        for n in (1, 2, 7, 24, 120, 720, 5040):
            for x in (np.exp(-1j * rng.uniform(-3.0, 3.0, (n, d))), rng.uniform(-2.0, 2.0, (n, d))):
                got, want = linalg._eigenbasis_operators(v, x), per_matrix(v, x)
                assert got.shape == want.shape == (n, d, d)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (n, x.dtype)
        x = np.exp(-1j * rng.uniform(-3.0, 3.0, d))
        got, want = linalg._eigenbasis_operators(v, x), per_matrix(v, x)
        assert got.shape == (d, d) and got.tobytes() == want.tobytes()


def _eager_stack(w, v):
    """The projector stack SpectralHamiltonian._build made for every operator
    before the stack was built on first read, with the _block_stack of then."""
    _, level_of = _cluster_levels(w)
    groups = np.split(np.arange(len(w)), np.flatnonzero(np.diff(level_of)) + 1)
    d = len(v)
    sizes = [len(g) for g in groups]
    stack = np.zeros((len(sizes), d, d), dtype=complex)
    for k in set(sizes) - {0}:
        same = [m for m, n in enumerate(sizes) if n == k]
        cols = v[:, np.concatenate([groups[m] for m in same])]
        blocks = cols.reshape(d, len(same), k).swapaxes(0, 1)
        stack[same] = blocks @ blocks.conj().swapaxes(-1, -2)
    return stack


def _spectra(rng, d):
    """Distinct, degenerate and nearly degenerate (merged and just split) levels."""
    lam = np.sort(rng.uniform(-2.0, 2.0, d))
    out = [lam]
    for gap in (0.0, 0.5 * TOL_DEGEN, 2.0 * TOL_DEGEN):
        near = lam.copy()
        near[1::2] = near[::2][:len(near[1::2])] + gap
        out.append(near)
    return out


@pytest.mark.bits
def test_lazy_projector_stack_matches_the_eager_build_bit_for_bit():
    rng = np.random.default_rng(19)
    merged = 0
    for d in range(1, 9):
        for lam in _spectra(rng, d):
            u = random_unitary(d, rng)
            hams = [SpectralHamiltonian.from_matrix((u * lam) @ u.conj().T),
                    SpectralHamiltonian.from_spectrum(rng.permutation(lam), u),
                    SpectralHamiltonian.from_spectrum(lam)]
            for ham in hams:
                merged += ham.level_count < d
                want = _eager_stack(ham.eigenvalues, ham.eigenvectors)
                assert ham.decomposition.projectors.tobytes() == want.tobytes()
                s = rng.permutation(ham.level_count)
                child = SpectralHamiltonian.from_spectrum(ham.eigenvalues, ham.eigenvectors)
                assert (child.permute_levels(s).decomposition.projectors.tobytes()
                        == want[list(s)].tobytes())
    assert merged > 30


def test_only_the_projector_readers_build_the_stack(monkeypatch):
    calls = []
    build = linalg._block_stacks
    monkeypatch.setattr(linalg, "_block_stacks", lambda *a: calls.append(1) or build(*a))
    rng = np.random.default_rng(20)
    psi0, psi1 = haar_random_state(4, rng), haar_random_state(4, rng)
    hams = [SpectralHamiltonian.from_matrix(random_hermitian(4, rng)),
            SpectralHamiltonian.from_spectrum([0.0, 1.0, 1.0, 2.5], random_unitary(4, rng)),
            SpectralHamiltonian.from_spectrum([0.0, 1.0, 1.0, 2.5])]
    for ham in hams:
        metrics.qsl_bounds(psi0, ham, psi1)
        dynamics.energy_uncertainty(psi0, ham)
        unitary_exp(ham, 0.7)
    assert calls == []
    for ham in hams:
        dec = ham.decomposition
        assert ham.decomposition is dec
        dynamics.instantaneous_speed(psi0, ham)
        ham.permute_levels(np.arange(ham.level_count)[::-1]).decomposition
    assert len(calls) == len(hams)


def _array_holders():
    """Two distinct instances of each package class that holds arrays, as thunks."""
    path = dynamics.HamiltonianPath.constant(np.diag([0.0, 1.0]), 1.0, steps=8)
    config = battery.BatteryConfig.default(tau=0.5, dt=0.05)
    return {
        "KrausChannel": lambda: random_channel(2, 2, 1),
        "StinespringDilation": lambda: dilate(random_channel(2, 2, 1)),
        "BatteryRun": lambda: battery.simulate_battery(config, [1.0, 0.0]),
        "Trajectory": lambda: dynamics.evolve([1.0, 0.0], path),
        "SpectralHamiltonian": lambda: SpectralHamiltonian.from_spectrum([0.0, 1.0]),
        "OrthogonalDecomposition": lambda: OrthogonalDecomposition.computational(2),
        "_Density": lambda: linalg._Density.of(np.eye(2) / 2.0),
    }


@pytest.mark.parametrize("name", list(_array_holders()))
def test_equality_of_array_holders_is_identity(name):
    # a generated __eq__ would compare the arrays and raise on their truth value
    make = _array_holders()[name]
    x, other = make(), make()
    assert type(x).__name__ == name
    assert (x == x) is True and (x != x) is False
    assert (x == other) is False and (x != other) is True
    assert len({x, other}) == 2


def _held_arrays(obj, prefix=""):
    """Every array an object holds: its fields and its lazy attributes, built first, and those
    of the package objects among them."""
    for lazy in ("decomposition", "root", "hermitian"):
        getattr(obj, lazy, None)
    for name, value in vars(obj).items():
        if isinstance(value, np.ndarray):
            yield prefix + name, value
        elif dataclasses.is_dataclass(value):
            yield from _held_arrays(value, f"{prefix}{name}.")


def _package_built():
    """The objects of _array_holders, and the other ways the package builds one unchecked."""
    ham = SpectralHamiltonian.from_matrix(random_hermitian(4, 3))
    rng = np.random.default_rng(4)
    stacked = SpectralHamiltonian._build(np.sort(rng.normal(size=(2, 3)), axis=-1),
                                         linalg._haar_unitaries(linalg._ginibre(rng, (2, 3, 3))))
    built = {name: make() for name, make in _array_holders().items()}
    built.update({
        "SpectralHamiltonian.from_matrix": ham,
        "SpectralHamiltonian.permute_levels": ham.permute_levels([3, 1, 0, 2]),
        "SpectralHamiltonian._build": stacked[1],
        "_Density.of_stack": linalg._Density.of_stack(np.array([np.eye(2) / 2.0]))[0],
        "HamiltonianPath.constant": dynamics.HamiltonianPath.constant(np.eye(2), 1.0, steps=3),
        "HamiltonianPath.linear": dynamics.HamiltonianPath.linear(np.eye(2), np.diag([0.0, 1.0]),
                                                                  1.0, steps=3),
    })
    return built


def _callers_arrays():
    """Each checked constructor that takes a caller's arrays, with writeable arrays of its own."""
    traj = dynamics.evolve([1.0, 0.0], dynamics.HamiltonianPath.constant(np.eye(2), 1.0, steps=4))
    run = battery.simulate_battery(battery.BatteryConfig.default(tau=0.5, dt=0.05), [1.0, 0.0])
    ham = SpectralHamiltonian.from_spectrum([0.0, 1.0, 2.0, 3.0])
    psi = np.array([0.6, 0.8j])
    return {
        "OrthogonalDecomposition": (OrthogonalDecomposition, [np.eye(2, dtype=complex)[:, :, None]
                                                              * np.eye(2)[:, None, :]]),
        "SpectralHamiltonian.from_spectrum": (SpectralHamiltonian.from_spectrum,
                                              [np.array([1.0, 0.0]), np.eye(2, dtype=complex)]),
        "KrausChannel": (channels.KrausChannel, [np.eye(2, dtype=complex)[None]]),
        "StinespringDilation": (lambda env: channels.StinespringDilation(ham, 2, 2, env),
                                [np.array([1.0, 0.0], dtype=complex)]),
        "HamiltonianPath": (dynamics.HamiltonianPath,
                            [np.linspace(0.0, 1.0, 3), np.zeros((3, 2, 2), dtype=complex)]),
        "Trajectory": (dynamics.Trajectory, [a.copy() for _, a in _held_arrays(traj)]),
        "BatteryRun": (battery.BatteryRun, [a.copy() for _, a in _held_arrays(run)]),
        "_Density.of": (linalg._Density.of, [np.outer(psi, psi.conj()), psi]),
    }


def test_package_built_arrays_are_read_only_and_a_callers_arrays_stay_writeable():
    for name, obj in _package_built().items():
        arrays = dict(_held_arrays(obj))
        assert arrays, name
        for label, array in arrays.items():
            assert not array.flags.writeable, (name, label)
    for name, (build, given) in _callers_arrays().items():
        obj = build(*given)
        for label, array in _held_arrays(obj):
            assert not array.flags.writeable, (name, label)
        for k, array in enumerate(given):
            assert array.flags.writeable, (name, k)
            array[...] = array          # and it can be written


@pytest.mark.bits
def test_a_stacked_build_equals_its_rows_built_one_by_one_bit_for_bit():
    # distinct levels, merged clusters (gaps below TOL_DEGEN), a single level and a row with
    # fewer levels than the widest, in one _cluster_levels call
    rng = np.random.default_rng(72)
    d = 6
    lam = np.sort(rng.uniform(-2.0, 2.0, (4, d)), axis=-1)
    lam[1, 1::2] = lam[1, ::2] + 0.4 * TOL_DEGEN          # three merged pairs
    lam[2, 1:4] = lam[2, 0] + np.array([0.2, 0.5, 0.9]) * TOL_DEGEN    # one merged cluster
    lam[3] = 0.7 + np.arange(d) * 0.1 * TOL_DEGEN          # one level
    vecs = linalg._haar_unitaries(linalg._ginibre(rng, (4, d, d)))
    stacked = SpectralHamiltonian._build(lam, vecs)
    assert [ham.level_count for ham in stacked] == [6, 3, 3, 1]
    for ham, w, v in zip(stacked, lam, vecs):
        alone = SpectralHamiltonian.from_spectrum(w, v)
        for name in ("eigenvalues", "eigenvectors", "levels", "level_of"):
            got, want = getattr(ham, name), getattr(alone, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
            assert not got.flags.writeable, name
        assert ham.decomposition.projectors.tobytes() == alone.decomposition.projectors.tobytes()
