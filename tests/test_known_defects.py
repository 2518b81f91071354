"""Known defects of the package, each a strict expected failure.

Every test asserts the correct value, taken from a route that does not
share the defect, within a tolerance no looser than the check it
mirrors.  ``strict=True`` turns a fix into an unexpected pass, which
fails the suite: the change that fixes a defect drops its mark, and the
test becomes that fix's guard.  The reasons name the ROADMAP items that
plan each fix.
"""

import numpy as np
import pytest

from coherence_speed import cli
from coherence_speed.avgdist import avg_distance_bruteforce
from coherence_speed.dynamics import instantaneous_speed
from coherence_speed.linalg import SpectralHamiltonian, random_density
from coherence_speed.metrics import hellinger

# The shift and scale cases: one mixed state on four levels at t = 0.7.
_LEVELS = np.array([0.0, 0.37, 1.21, 2.05])
_T = 0.7


def _rho():
    return random_density(4, 4, np.random.default_rng(3))


def _known(reason):
    """Strict: an unexpected pass fails the suite; an error other than the assertion too."""
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


@_known("item 4: the PSD dead band zeroes eigenvalues of "
        "5e-11, so hellinger of two nearly orthogonal diagonal states reads 2.0")
def test_hellinger_of_nearly_orthogonal_diagonal_states():
    e = 5e-11
    p, q = np.array([1.0 - e, e]), np.array([e, 1.0 - e])
    want = 2.0 * (1.0 - np.sum(np.sqrt(p * q)))     # commuting states: 1.99997172
    got = hellinger(np.diag(p).astype(complex), np.diag(q).astype(complex))
    assert abs(got - want) <= 1e-12    # qubit-closed-form's, the tightest hellinger check


@_known("item 4: the degeneracy merge joins levels 5e-10 "
        "apart, so the speed reads 0 where sqrt(2) DeltaH is 3.5e-10")
def test_speed_of_the_plus_state_on_a_sub_merge_gap():
    gap = 5e-10
    psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
    want = gap / np.sqrt(2.0)          # sqrt(2) DeltaH, with DeltaH = gap / 2 for equal weights
    got = instantaneous_speed(psi, SpectralHamiltonian.from_spectrum([0.0, gap]))
    assert abs(got - want) <= 1e-10    # speed-identity's tolerance


@_known("item 14: orbit phases are taken from the raw levels, "
        "so a shift by 1e10 moves the brute force by about 2e-7")
def test_the_brute_force_is_unchanged_by_a_constant_shift():
    rho = _rho()
    want = avg_distance_bruteforce(rho, SpectralHamiltonian.from_spectrum(_LEVELS), _T)
    got = avg_distance_bruteforce(rho, SpectralHamiltonian.from_spectrum(_LEVELS + 1e10), _T)
    assert abs(got - want) <= 1e-9     # thm1-equality's tolerance


@_known("items 4 and 14: the absolute merge scale joins a "
        "spectrum scaled by 1e-9 into one level, and the distance reads 0")
def test_the_brute_force_is_unchanged_by_a_rescale_of_levels_and_time():
    rho, scale = _rho(), 1e-9
    want = avg_distance_bruteforce(rho, SpectralHamiltonian.from_spectrum(_LEVELS), _T)
    got = avg_distance_bruteforce(rho, SpectralHamiltonian.from_spectrum(_LEVELS * scale),
                                  _T / scale)
    assert abs(got - want) <= 1e-9     # thm1-equality's tolerance


@_known("item 6: a check past the brute-force cap stops the "
        "suite with exit 2 instead of saying it cannot run")
def test_verify_past_the_cap_prints_a_line_for_each_check(capsys):
    cli.main(["verify", "thm1", "--dim", "9"])
    names = [line.split()[1].rstrip(":") for line in capsys.readouterr().out.splitlines()]
    assert names == ["thm1-equality", "benchmark-identity", "coefficient-independence",
                     "max-coherent-dominance", "coefficient-grid"]
