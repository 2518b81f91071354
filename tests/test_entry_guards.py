"""Guard lines of the library's entries, each by its exception type and message or its value.

One row per guard: the call that reaches it and what it must give.  The
suite-level guards (a misclassified refinement pair, a state that misses
orthogonality) are reached by patching the name the check calls.
"""

import re

import numpy as np
import pytest

from coherence_speed import dynamics, verification
from coherence_speed.avgdist import a_coefficient, benchmark_overlap_check
from coherence_speed.battery import spin_operator
from coherence_speed.channels import StinespringDilation, apply_kraus, dilate, random_channel
from coherence_speed.coherence import closest_incoherent, is_refinement
from coherence_speed.errors import DimensionMismatch, InvalidState, SingleLevel
from coherence_speed.linalg import OrthogonalDecomposition, SpectralHamiltonian, partial_trace
from coherence_speed.metrics import fidelity
from coherence_speed.report import _json_default

_QUBIT, _QUTRIT = np.eye(2) / 2.0, np.eye(3) / 3.0


def _four_levels():
    return SpectralHamiltonian.from_spectrum([0.0, 1.0, 2.0, 3.0])


_GUARDS = {
    "apply_kraus, a state of another dimension": (
        lambda: apply_kraus(random_channel(2, 2, 0), _QUTRIT),
        DimensionMismatch, "state dimension does not match channel"),
    "StinespringDilation, a Hamiltonian of another dimension": (
        lambda: StinespringDilation(SpectralHamiltonian.from_spectrum([0.0, 1.0, 2.0]), 2, 2,
                                    [1.0, 0.0]),
        DimensionMismatch, "Hamiltonian dimension is not sys_dim * env_dim"),
    "StinespringDilation, an environment state of another dimension": (
        lambda: StinespringDilation(_four_levels(), 2, 2, [1.0, 0.0, 0.0]),
        DimensionMismatch, "environment state dimension mismatch"),
    "StinespringDilation.joint_input, a state of another dimension": (
        lambda: dilate(random_channel(2, 2, 0)).joint_input(_QUTRIT),
        DimensionMismatch, "state dimension does not match system"),
    "closest_incoherent, a family of another dimension": (
        lambda: closest_incoherent(_QUBIT, OrthogonalDecomposition.computational(3)),
        DimensionMismatch, "state dimension does not match decomposition"),
    "is_refinement, families of two dimensions": (
        lambda: is_refinement(OrthogonalDecomposition.computational(2),
                              OrthogonalDecomposition.computational(3)),
        DimensionMismatch, "decompositions live on different spaces"),
    "partial_trace, a factor other than 0 and 1": (
        lambda: partial_trace(np.eye(4) / 4.0, (2, 2), over=2),
        ValueError, "over must be 0 (first factor) or 1 (second factor)"),
    "OrthogonalDecomposition, a first projector that is not square": (
        lambda: OrthogonalDecomposition([np.zeros((2, 3))]),
        DimensionMismatch, "projectors must share one square shape"),
    "OrthogonalDecomposition.dephase, a state of another dimension": (
        lambda: OrthogonalDecomposition.computational(2).dephase(_QUTRIT),
        DimensionMismatch, "state dimension does not match decomposition"),
    "a_coefficient, one eigenvalue": (
        lambda: a_coefficient([0.5], 1.0), SingleLevel, "need at least two eigenvalues"),
    "benchmark_overlap_check, one phase short": (
        lambda: benchmark_overlap_check([0.0, 1.0, 2.0], [0.0, 0.0], 1.0),
        DimensionMismatch, "one phase per eigenvalue required"),
    "fidelity, states of two dimensions": (
        lambda: fidelity(_QUBIT, _QUTRIT), DimensionMismatch, "shapes (2, 2) and (3, 3) differ"),
    "spin_operator, a 2-vector": (
        lambda: spin_operator([1.0, 0.0]),
        InvalidState, "axis must be a 3-vector or a stack (k, 3) of them"),
    # every public entry checks the state's norm first, and the steps are unitary to
    # rounding: the step function itself takes a start state off the unit sphere
    "_propagate, a start state of norm 1.001": (
        lambda: dynamics._propagate(np.array([1.001, 0.0], dtype=complex),
                                    np.linspace(0.0, 1.0, 3), np.zeros((3, 2, 2), dtype=complex)),
        InvalidState, "norm drift 1.000e-03 over the grid"),
    "_json_default, an object JSON has no form for": (
        lambda: _json_default(object()), TypeError, "cannot serialize object"),
}


@pytest.mark.parametrize("name", list(_GUARDS))
def test_a_guard_raises_its_type_and_message(name):
    call, error, message = _GUARDS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_a_numpy_complex_scalar_serializes_as_a_real_imaginary_pair():
    # np.complex128 is a Python complex and takes the first branch; complex64 is not
    got = _json_default(np.complex64(1.5 - 2.0j))
    assert got == [1.5, -2.0] and all(type(x) is float for x in got)


@pytest.mark.parametrize("answer", [False, True])
def test_refinement_order_fails_when_the_predicate_misclassifies(monkeypatch, answer):
    # False: a built pair read as no refinement; True: two random bases read as one (trial 0)
    monkeypatch.setattr(verification, "is_refinement", lambda fine, coarse: answer)
    res = verification.check_refinement_order(seed=0, trials=1)
    assert not res.passed and res.worst == np.inf


def test_qsl_ml_orthogonality_fails_when_the_state_misses_orthogonality(monkeypatch):
    # no evolution: the state stays where it started, at Bures angle 0, not pi/2
    monkeypatch.setattr(verification, "unitary_exp", lambda ham, t: np.eye(ham.dim))
    res = verification.check_qsl_ml_orthogonality(seed=0, trials=1)
    assert not res.passed and res.worst == np.inf
