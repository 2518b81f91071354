"""Properties of the affinity-based coherence measure."""

import numpy as np
import pytest
from scipy.linalg import block_diag

from coherence_speed import coherence, linalg
from coherence_speed.coherence import (
    c_half,
    c_l1,
    closest_incoherent,
    is_refinement,
)
from coherence_speed.errors import NotPSD
from coherence_speed.linalg import (
    OrthogonalDecomposition,
    SpectralHamiltonian,
    pure_density,
    random_density,
    random_unitary,
)
from coherence_speed.metrics import affinity


def rank1(d):
    return OrthogonalDecomposition.computational(d)


def test_range_and_faithfulness():
    rng = np.random.default_rng(31)
    for _ in range(40):
        d = int(rng.integers(2, 7))
        dec = rank1(d)
        rho = random_density(d, rank=int(rng.integers(1, d + 1)), seed=rng)
        c = c_half(rho, dec)
        assert -1e-12 <= c <= 1.0
        assert c_half(dec.dephase(rho), dec) < 1e-12


def test_uniform_superposition_hits_maximum():
    for d in (2, 3, 5):
        psi = np.full(d, 1.0 / np.sqrt(d), dtype=complex)
        c = c_half(pure_density(psi), rank1(d))
        assert abs(c - (1.0 - 1.0 / d)) < 1e-12


def test_closest_incoherent_is_the_variational_minimizer():
    rng = np.random.default_rng(32)
    for _ in range(30):
        d = int(rng.integers(2, 6))
        dec = rank1(d)
        rho = random_density(d, rank=int(rng.integers(1, d + 1)), seed=rng)
        sigma = closest_incoherent(rho, dec)
        assert abs(np.trace(sigma).real - 1.0) < 1e-10
        assert np.max(np.abs(sigma - dec.dephase(sigma))) < 1e-10
        a = affinity(rho, sigma)
        assert abs(c_half(rho, dec) - (1.0 - a * a)) < 1e-10
        # every other dephased candidate does worse
        for _ in range(5):
            other = dec.dephase(random_density(d, rank=d, seed=rng))
            other /= np.trace(other).real
            b = affinity(rho, other)
            assert 1.0 - b * b >= c_half(rho, dec) - 1e-10


def test_block_unitary_invariance():
    rng = np.random.default_rng(33)
    dec = OrthogonalDecomposition.computational(5, [[0, 1], [2], [3, 4]])
    for _ in range(20):
        rho = random_density(5, rank=3, seed=rng)
        u = block_diag(random_unitary(2, rng), random_unitary(1, rng),
                       random_unitary(2, rng))
        assert abs(c_half(u @ rho @ u.conj().T, dec) - c_half(rho, dec)) < 1e-10


def test_direct_sum_additivity():
    rng = np.random.default_rng(34)
    for _ in range(15):
        p = float(rng.uniform(0.05, 0.95))
        rho_a = random_density(2, rank=2, seed=rng)
        rho_b = random_density(3, rank=2, seed=rng)
        joint = block_diag(p * rho_a, (1.0 - p) * rho_b)
        c = c_half(joint, rank1(5))
        want = p * c_half(rho_a, rank1(2)) + (1.0 - p) * c_half(rho_b, rank1(3))
        assert abs(c - want) < 1e-10


def test_refinement_only_raises_coherence():
    rng = np.random.default_rng(35)
    fine = OrthogonalDecomposition.computational(6)
    coarse = OrthogonalDecomposition.computational(6, [[0, 1, 2], [3, 4, 5]])
    assert is_refinement(fine, coarse)
    assert not is_refinement(coarse, fine)
    for _ in range(20):
        rho = random_density(6, rank=3, seed=rng)
        assert c_half(rho, coarse) <= c_half(rho, fine) + 1e-10


def test_l1_bound():
    rng = np.random.default_rng(36)
    for _ in range(30):
        d = int(rng.integers(2, 7))
        rho = random_density(d, rank=d, seed=rng)
        assert c_half(rho, rank1(d)) <= 2.0 / (d - 1.0) * c_l1(rho) + 1e-10


def test_c_half_and_closest_incoherent_diagonalize_rho_once(monkeypatch):
    calls = []

    def counting(owner, name):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(name) or fn(*a, **k))

    rng = np.random.default_rng(32)
    cases = [(random_density(d, rank=r, seed=rng), rank1(d)) for d, r in ((2, 1), (4, 4), (7, 3))]
    counting(linalg, "_hermitian_residual")
    counting(np.linalg, "eigh")
    counting(np.linalg, "eigvalsh")
    for rho, dec in cases:
        for fn in (c_half, closest_incoherent):
            calls.clear()
            fn(rho, dec)
            assert sorted(calls) == ["_hermitian_residual", "eigh"]


def _edge(upper, lower):
    """diag(1, 0, 0) with one off-diagonal pair, Hermitian to within TOL_HERM."""
    rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
    rho[1, 2], rho[2, 1] = upper, lower
    return rho


def test_the_lower_triangle_alone_decides_positivity():
    # every entry checks a density as validate_density does, from one eigh, which
    # reads the lower triangle: each edge density has one outcome across all of them
    from coherence_speed.avgdist import (
        avg_distance_bruteforce,
        avg_distance_closed,
    )
    from coherence_speed.battery import qudit_battery_bound
    from coherence_speed.channels import (
        dilate,
        equality_gap_analysis,
        random_channel,
        theorem3_bound,
    )
    dec = rank1(3)
    ham = SpectralHamiltonian.from_spectrum([0.0, 0.7, 1.9])
    chan = random_channel(3, 2, 5)
    dil = dilate(chan)
    entries = [linalg.validate_density, lambda rho: c_half(rho, dec),
               lambda rho: closest_incoherent(rho, dec),
               lambda rho: avg_distance_closed(rho, ham, 1.3),
               lambda rho: avg_distance_bruteforce(rho, ham, 1.3),
               lambda rho: qudit_battery_bound(rho, np.diag([0.0, 1.0, 2.5]), ham.matrix(), 0.3),
               lambda rho: theorem3_bound(dil, rho),
               lambda rho: equality_gap_analysis(chan, rho)]
    upper_only = _edge(8e-10, 0.0)      # Hermitian part: eigenvalue -4e-10
    for fn in entries:                  # lower triangle: diag(1, 0, 0), a pure state
        fn(upper_only)
    assert c_half(upper_only, dec) == 0.0
    assert np.array_equal(closest_incoherent(upper_only, dec), np.diag([1.0, 0.0, 0.0]))
    lower_negative = _edge(-4e-10, 5e-10)   # lower triangle: eigenvalue -5e-10
    for fn in entries:
        with pytest.raises(NotPSD, match="eigenvalue -5.000e-10 below -1.0e-10"):
            fn(lower_negative)
    with pytest.raises(NotPSD, match="eigenvalue -5.000e-10 below -1.0e-10"):
        linalg.matrix_sqrt_psd(lower_negative)


def _parent_c_half(root, decomposition):
    """coherence._c_half as it was: the floored coherence of one root against one family."""
    _, traces = coherence._block_traces(root, decomposition.projectors)
    return float(np.maximum(1.0 - np.add.reduce(traces, axis=None), 0.0))


def test_the_coherence_floor_keeps_nan_and_finite_bits():
    # max(0.0, x) turned a NaN coherence into 0.0; the floor now passes NaN through
    dec = rank1(2)
    nan_root = np.full((2, 2), np.nan, dtype=complex)
    assert np.isnan(coherence._c_halves(nan_root[None], dec.projectors[None])[0])
    rng = np.random.default_rng(33)
    roots = [linalg._Density.of(random_density(3, rank=r, seed=rng)).root for r in (1, 2, 3)]
    roots += [linalg._Density.of(np.diag([0.2, 0.3, 0.5]).astype(complex)).root]  # incoherent
    family = OrthogonalDecomposition.computational(3)
    got = coherence._c_halves(np.array([np.full((3, 3), np.nan, dtype=complex)] + roots),
                              np.array([family.projectors] * (len(roots) + 1)))
    assert np.isnan(got[0])
    for root, c in zip(roots, got[1:]):
        _, traces = coherence._block_traces(root, family.projectors)
        want = max(0.0, 1.0 - float(np.sum(traces)))      # the former floor, on finite values
        assert c.hex() == want.hex() == _parent_c_half(root, family).hex()
