"""The entry contract of the package, declared once, and the guard lines of each entry's domain.

``KINDS`` states the contract once per input kind: a valid value and, for each input class
of ``CLASSES``, a malformed value with its outcome, or a plain string saying why the class
does not apply.  An outcome is ``Raises``, that exception type exactly with the given text in
its message (``{}`` stands for the argument's name) and no warning before it, or ``Passes``:
the call returns.
``ENTRIES`` declares which argument of each public callable and checked constructor takes
which kind; an entry that deviates spells out its own cell (``Kind.but``).  A new entry is
one more row; a new class is one more name in ``CLASSES`` and a cell in each kind.

``_GUARDS`` holds the guards of one entry's own domain, one row each: the call that reaches
it, and the exception type and message it must give.  The suite-level guards are reached by
patching the name the check calls.
"""

import inspect
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
import pytest
from jsonschema import ValidationError

import coherence_speed as cs
from coherence_speed import dynamics, linalg, verification
from coherence_speed.channels import channel_from_dict
from coherence_speed.errors import (
    BadRank,
    DegenerateSpectrum,
    DimensionMismatch,
    GridTooCoarse,
    IncompleteKraus,
    InvalidState,
    NotHermitian,
    NotPSD,
    SingleLevel,
    TooManyKraus,
    TooManyLevels,
    UnknownSuite,
    WindowTooWide,
)
from coherence_speed.report import _json_default

NAN, INF = float("nan"), float("inf")
CLASSES = ("nan", "inf", "zero_size", "ragged", "wrong_shape", "non_hermitian", "non_psd",
           "wrong_trace", "non_orthonormal", "incomplete_kraus")


class Raises(NamedTuple):
    error: type
    message: str


class Passes(str):
    """The entry takes the value as it is and returns; the text says why."""


@dataclass(frozen=True)
class Kind:
    good: object
    cells: dict         # class: (malformed value, outcome), or why the class does not apply

    def but(self, good=..., **cells) -> "Kind":
        """The kind as one entry takes it: an outcome keeps the kind's value, a pair sets both."""
        assert cells.keys() <= set(CLASSES)
        cells = {c: v if type(v) is tuple else (self.cells[c][0], v) for c, v in cells.items()}
        return Kind(self.good if good is ... else good, {**self.cells, **cells})


def kind(good, na: str, **cells) -> Kind:
    return Kind(good, dict.fromkeys(CLASSES, na)).but(**cells)


def _square(shape):
    return Raises(DimensionMismatch, f"expected a square matrix, got shape {shape}")


FINITE = Raises(NotHermitian, "matrix entries are not all finite")
RAGGED = Raises(DimensionMismatch, "entries are not nested to one shape")
KRAUS_SHAPE = Raises(DimensionMismatch, "Kraus operators must share one square shape")

DENSITY = kind(
    np.eye(2) / 2.0, "a density holds no basis and is no Kraus set",
    nan=(np.diag([NAN, 0.5]), FINITE), inf=(np.diag([INF, -INF]), FINITE),
    zero_size=(np.zeros((0, 0)), _square("(0, 0)")), ragged=([[0.5, 0.0], [0.5]], RAGGED),
    wrong_shape=(np.ones((2, 3)) / 2.0, _square("(2, 3)")),
    non_hermitian=(np.array([[0.5, 0.1], [0.0, 0.5]]),
                   Raises(NotHermitian, "max |H - H†| = 1.000e-01 exceeds 1.0e-09")),
    non_psd=(np.diag([1.5, -0.5]), Raises(NotPSD, "eigenvalue -5.000e-01 below -1.0e-10")),
    wrong_trace=(np.eye(2), Raises(InvalidState, "trace 2.0 differs from 1 beyond 1.0e-09")))
HERMITIAN = kind(
    np.diag([0.0, 1.0]), "every Hermitian matrix is a Hamiltonian, of any sign and trace",
    nan=(np.diag([NAN, 0.0]), FINITE), inf=(np.diag([INF, -INF]), FINITE),
    zero_size=(np.zeros((0, 0)), _square("(0, 0)")), ragged=([[0.0, 0.0], [1.0]], RAGGED),
    wrong_shape=(np.zeros(2), _square("(2,)")),
    # its Hermitian part is a valid Hamiltonian: only a check of the matrix as given sees it
    non_hermitian=(np.array([[0.0, 1.0], [0.0, 1.0]]),
                   Raises(NotHermitian, "max |H - H†| = 1.000e+00 exceeds 1.0e-09")))
VECTOR = kind(
    np.array([1.0, 0.0]), "a vector is no operator, basis or Kraus set; its norm is its trace",
    nan=([1.0, complex(0.0, NAN)], Raises(InvalidState, "state entries are not all finite")),
    inf=([INF, 0.0], Raises(InvalidState, "state norm inf differs from 1 beyond 1.0e-09")),
    zero_size=([], Raises(InvalidState, "state norm 0.0 differs from 1 beyond 1.0e-09")),
    ragged=([[1.0], [0.0, 0.0]], RAGGED), wrong_shape=([[1.0], [0.0]], Passes("read flat")),
    wrong_trace=([1.0, 1.0], Raises(InvalidState, "state norm 1.4142135623730951 differs")))
SPECTRUM = kind(
    np.array([0.0, 1.0]), "real levels, of any sign and sum, with no basis or Kraus set",
    nan=([0.0, NAN], Raises(ValueError, "eigenvalues are not all finite")),
    inf=([0.0, INF], Raises(ValueError, "eigenvalues are not all finite")),
    zero_size=([], Raises(DimensionMismatch, "expected at least one eigenvalue, got none")),
    ragged=([[0.0], [1.0, 2.0]], RAGGED), wrong_shape=([[0.0, 1.0]], Passes("read flat")),
    # the spectrum of a non-Hermitian operator
    non_hermitian=(np.array([0.0, 1j]), Raises(ValueError, "eigenvalues are not all real")))
BASIS = kind(
    np.eye(2), "a basis is any unitary, and no Kraus set",
    nan=(np.diag([NAN, 1.0]), Raises(ValueError, "basis entries are not all finite")),
    inf=(np.diag([INF, 1.0]), Raises(ValueError, "basis entries are not all finite")),
    zero_size=(np.zeros((0, 0)), _square("(0, 0)")), ragged=([[1.0, 0.0], [0.0]], RAGGED),
    wrong_shape=(np.array([1.0, 0.0]), _square("(2,)")),
    non_orthonormal=(2.0 * np.eye(2), Raises(ValueError, "basis columns are not orthonormal")))
FAMILY = kind(
    [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], "a Hermitian idempotent is PSD; no Kraus set",
    nan=([np.diag([NAN, 0.0]), np.eye(2)], Raises(ValueError, "projector entries are not all")),
    inf=([np.diag([INF, -INF]), np.eye(2)], Raises(ValueError, "projector entries are not all")),
    zero_size=([np.zeros((0, 0))], _square("(1, 0, 0)")),
    ragged=([np.eye(2), [[0.0, 0.0], [1.0]]], RAGGED),
    wrong_shape=([np.zeros((2, 3))], _square("(1, 2, 3)")),
    non_hermitian=([[[1.0, 1.0], [0.0, 0.0]], [[0.0, -1.0], [0.0, 1.0]]],
                   Raises(ValueError, "projector is not Hermitian")),
    wrong_trace=([np.diag([1.0, 0.0])], Raises(ValueError, "projectors do not sum to the")),
    non_orthonormal=([np.diag([1.0, 0.0]), np.full((2, 2), 0.5)],
                     Raises(ValueError, "projectors are not mutually orthogonal")))
KRAUS = kind(
    [np.eye(2)], "Kraus operators need not be Hermitian or PSD; completeness is their trace",
    nan=([np.diag([NAN, 1.0])], Raises(IncompleteKraus, "Kraus entries are not all finite")),
    inf=([np.diag([INF, -INF])], Raises(IncompleteKraus, "Kraus entries are not all finite")),
    zero_size=([np.zeros((0, 0))], KRAUS_SHAPE), ragged=([np.eye(2), np.eye(3)], RAGGED),
    wrong_shape=([np.ones((2, 3))], KRAUS_SHAPE),
    incomplete_kraus=([0.5 * np.eye(2)], Raises(IncompleteKraus, "from identity by 7.500e-01")))
GRID = kind(
    np.linspace(0.0, 1.0, 3), "real times",
    nan=([0.0, NAN, 1.0], Raises(ValueError, "grid times are not all finite")),
    inf=([0.0, 0.5, INF], Raises(ValueError, "grid times are not all finite")),
    zero_size=([], Raises(DimensionMismatch, "for a grid of 0 points")),
    ragged=([[0.0], [0.5, 1.0]], RAGGED),
    wrong_shape=([[0.0, 0.5, 1.0]], Raises(ValueError, "one-dimensional, got shape (1, 3)")))
TIME = kind(0.5, "one real number", nan=(NAN, Raises(ValueError, "{} must be finite, got nan")),
            inf=(INF, Raises(ValueError, "{} must be finite, got inf")))
KINDS = (DENSITY, HERMITIAN, VECTOR, SPECTRUM, BASIS, FAMILY, KRAUS, GRID, TIME)

# the two rules by which entries take a density's value without its checks
PSD_ROOT = DENSITY.but(wrong_trace=Passes("the root of any PSD matrix, of any trace"))
LINEAR = {c: Passes("a linear map of any square operator")
          for c in ("nan", "inf", "non_hermitian", "non_psd", "wrong_trace")}


def _endpoint(first: bool):
    def shapes(shape):      # the message names the first endpoint's shape first
        pair = (shape, "(2, 2)") if first else ("(2, 2)", shape)
        return Raises(DimensionMismatch, "endpoint shapes %s and %s differ" % pair)
    return HERMITIAN.but(zero_size=shapes("(0, 0)"), wrong_shape=shapes("(2,)"))


HAM, FAM = cs.SpectralHamiltonian.from_spectrum([0, 1]), cs.OrthogonalDecomposition.computational(2)
CHANNEL, DILATION = cs.KrausChannel([np.eye(2)]), cs.dilate(cs.random_channel(2, 2, 0))
PATH = cs.HamiltonianPath.constant(np.diag([0.0, 1.0]), 1.0, steps=10)

ENTRIES = {
    "require_hermitian": (linalg.require_hermitian, HERMITIAN),
    "validate_density": (linalg.validate_density, DENSITY),
    "validate_state_vector": (linalg.validate_state_vector, VECTOR),
    "matrix_sqrt_psd": (cs.matrix_sqrt_psd, PSD_ROOT),
    "pure_density": (cs.pure_density, VECTOR),
    "partial_trace": (cs.partial_trace, DENSITY.but(**LINEAR), (1, 2), 1),
    "unitary_exp": (cs.unitary_exp, HAM, TIME),
    "OrthogonalDecomposition": (cs.OrthogonalDecomposition, FAMILY),
    "OrthogonalDecomposition.from_basis": (cs.OrthogonalDecomposition.from_basis, BASIS),
    "SpectralHamiltonian.from_matrix": (cs.SpectralHamiltonian.from_matrix, HERMITIAN),
    "SpectralHamiltonian.from_spectrum": (cs.SpectralHamiltonian.from_spectrum, SPECTRUM,
                                          BASIS.but(good=None)),
    "a_coefficient": (cs.a_coefficient, SPECTRUM.but(
        zero_size=Raises(SingleLevel, "need at least two")), TIME),
    "b_coefficient": (cs.b_coefficient, SPECTRUM.but(
        zero_size=Raises(SingleLevel, "one distinct level")), TIME),
    "benchmark_overlap_check": (cs.benchmark_overlap_check, *[SPECTRUM.but(zero_size=Raises(
        DimensionMismatch, "one phase per eigenvalue required"))] * 2, TIME),
    "avg_distance_bruteforce": (cs.avg_distance_bruteforce, DENSITY, HAM, TIME),
    "avg_distance_closed": (cs.avg_distance_closed, DENSITY, HAM, TIME),
    "avg_extracted_work": (cs.avg_extracted_work, DENSITY, 1.0, 0.5, HERMITIAN, TIME),
    "drive_coherence": (cs.drive_coherence, DENSITY, HERMITIAN),
    "work_bound": (cs.work_bound, DENSITY, 1.0, 0.5, HERMITIAN, TIME),
    "qudit_battery_bound": (cs.qudit_battery_bound, DENSITY, HERMITIAN, HERMITIAN, TIME),
    "simulate_battery": (cs.simulate_battery, cs.BatteryConfig.default(dt=0.05), VECTOR),
    "spin_operator": (cs.spin_operator, VECTOR.but(
        good=[1.0, 0.0, 0.0],
        nan=([NAN, 0.0, 0.0], Raises(InvalidState, "axis entries are not all finite")),
        inf=([INF, 0.0, 0.0], Raises(InvalidState, "axis norm inf differs from 1")),
        zero_size=Raises(InvalidState, "axis must be a 3-vector or a stack (k, 3) of them"),
        wrong_shape=([[1.0], [0.0], [0.0]], Raises(InvalidState, "axis must be a 3-vector")),
        wrong_trace=([1.0, 1.0, 0.0], Raises(InvalidState, "axis norm 1.4142135623730951")))),
    "KrausChannel": (cs.KrausChannel, KRAUS),
    "StinespringDilation": (cs.StinespringDilation, DILATION.hamiltonian, 2, 2, VECTOR, TIME),
    "apply_kraus": (cs.apply_kraus, CHANNEL, DENSITY),
    "equality_gap_analysis": (cs.equality_gap_analysis, CHANNEL, DENSITY),
    "theorem3_bound": (cs.theorem3_bound, DILATION, DENSITY),
    "c_half": (cs.c_half, DENSITY, FAM),
    "c_l1": (cs.c_l1, DENSITY),
    "closest_incoherent": (cs.closest_incoherent, DENSITY, FAM),
    "HamiltonianPath": (cs.HamiltonianPath, GRID, HERMITIAN.but(good=np.zeros((3, 2, 2)))),
    "HamiltonianPath.constant": (cs.HamiltonianPath.constant, HERMITIAN, TIME),
    "HamiltonianPath.linear": (cs.HamiltonianPath.linear, _endpoint(True), _endpoint(False), TIME),
    "energy_uncertainty": (cs.energy_uncertainty, VECTOR, HERMITIAN),
    "evolve": (cs.evolve, VECTOR, PATH),
    "gap_squared_matrix": (cs.gap_squared_matrix, SPECTRUM.but(zero_size=Passes("no gaps"))),
    "instantaneous_speed": (cs.instantaneous_speed, VECTOR, HAM),
    "qubit_closed_form": (cs.qubit_closed_form, 0.6, 0.8, 0.0, 1.0, TIME),
    **{name: (getattr(cs, name), DENSITY, DENSITY)
       for name in ("affinity", "bures_angle", "d_affinity_half", "fidelity", "hellinger")},
    "qsl_bounds": (cs.qsl_bounds, VECTOR, HAM, VECTOR),
}

# every class is n/a for each of these names, for the reason given
NOT_APPLICABLE = {
    "no array: sizes (each a guard row), seeds, names, paths, tables, or objects checked when "
    "they were built": (
        "haar_random_state", "random_density", "random_hermitian", "random_unitary",
        "OrthogonalDecomposition.computational", "random_channel", "qutrit_equality_channel",
        "dilate", "load_channel", "save_channel", "is_refinement", "finite_difference_speed",
        "BatteryConfig.default", "format_csv", "format_json", "render_report", "run_suite"),
    "a record of results: it checks nothing and keeps what it is given": (
        "AvgDistanceResult", "BatteryConfig", "BatteryRun", "CheckResult", "EqualityGapReport",
        "QslBounds", "Trajectory"),
    "no constructor: any call is a TypeError (a guard row)": ("SpectralHamiltonian",),
}


def test_every_public_callable_and_constructor_has_a_row_of_ten_cells():
    public = {"require_hermitian", "validate_density", "validate_state_vector"}   # linalg's checks
    for name, obj in vars(cs).items():
        if callable(obj) and not name.startswith("_"):
            public |= {name, *(f"{name}.{m}" for m, _ in inspect.getmembers(obj, inspect.ismethod)
                               if not m.startswith("_"))}
    declared = [*ENTRIES, *(name for names in NOT_APPLICABLE.values() for name in names)]
    assert sorted(declared) == sorted(public)
    assert all(list(k.cells) == list(CLASSES) for k in KINDS)


def _cells():
    for name, (call, *args) in ENTRIES.items():
        params = list(inspect.signature(call).parameters)
        for slot, arg in enumerate(args):
            for cls, cell in getattr(arg, "cells", {}).items():
                if type(cell) is tuple:
                    yield pytest.param(name, slot, cls, id=f"{name}-{params[slot]}-{cls}")


@pytest.mark.parametrize("name, slot, cls", list(_cells()))
def test_an_entry_gives_its_cell_for_a_malformed_argument(name, slot, cls):
    call, *args = ENTRIES[name]
    value, outcome = args[slot].cells[cls]
    args = [getattr(arg, "good", arg) for arg in args]
    args[slot] = value
    if isinstance(outcome, Passes):
        with np.errstate(all="ignore"):     # a value that passes may make NaN on its way
            call(*args)
        return
    with warnings.catch_warnings(), pytest.raises(Exception) as info:
        warnings.simplefilter("error")      # the entry's error comes with no numpy warning
        call(*args)
    assert type(info.value) is outcome.error, info.value
    assert outcome.message.format(list(inspect.signature(call).parameters)[slot]) in str(info.value)


_QUBIT, _QUTRIT, _WIDE = np.eye(2) / 2.0, np.eye(3) / 3.0, np.diag([-50.0, 50.0])
_GROUND, _FAMILY3 = [1.0, 0.0], cs.OrthogonalDecomposition.computational(3)
_HAM4 = cs.SpectralHamiltonian.from_spectrum([0.0, 0.7, 1.9, 2.6], cs.random_unitary(4, 103))
_OTHER = "state dimension does not match decomposition"
_RAW = "build a SpectralHamiltonian with from_matrix or from_spectrum"


def _battery(psi=_GROUND, **fields):
    return cs.simulate_battery(replace(cs.BatteryConfig.default(dt=0.05), **fields), psi)


_GUARDS = {
    "apply_kraus, a state of another dimension": (
        lambda: cs.apply_kraus(CHANNEL, _QUTRIT), DimensionMismatch,
        "state dimension does not match channel"),
    "StinespringDilation, a Hamiltonian of another dimension": (
        lambda: cs.StinespringDilation(cs.SpectralHamiltonian.from_spectrum([0, 1, 2]), 2, 2,
                                       [1.0, 0.0]),
        DimensionMismatch, "Hamiltonian dimension is not sys_dim * env_dim"),
    "StinespringDilation, an environment state of another dimension": (
        lambda: cs.StinespringDilation(DILATION.hamiltonian, 2, 2, [1.0, 0.0, 0.0]),
        DimensionMismatch, "environment state dimension mismatch"),
    "StinespringDilation.joint_input, a state of another dimension": (
        lambda: DILATION.joint_input(_QUTRIT), DimensionMismatch,
        "state dimension does not match system"),
    **{f"{call.__name__}, a state of another dimension": (
        lambda call=call: call(_QUBIT, _FAMILY3), DimensionMismatch, _OTHER)
       for call in (cs.c_half, cs.closest_incoherent)},
    **{f"{call.__name__}, a rank-{rank} state of another dimension": (
        lambda call=call, rank=rank: call(cs.random_density(3, rank, 103), _HAM4, 0.7),
        DimensionMismatch, _OTHER)
       for call in (cs.avg_distance_bruteforce, cs.avg_distance_closed) for rank in (1, 2)},
    **{f"{call.__name__}, t = -inf": (lambda call=call: call(_QUBIT, HAM, -INF), ValueError,
                                      "t must be finite, got -inf")
       for call in (cs.avg_distance_bruteforce, cs.avg_distance_closed)},
    "OrthogonalDecomposition.dephase, a state of another dimension": (
        lambda: FAM.dephase(_QUTRIT), DimensionMismatch, _OTHER),
    "is_refinement, families of two dimensions": (
        lambda: cs.is_refinement(FAM, _FAMILY3), DimensionMismatch,
        "decompositions live on different spaces"),
    "partial_trace, a factor other than 0 and 1": (
        lambda: cs.partial_trace(np.eye(4) / 4.0, (2, 2), over=2), ValueError,
        "over must be 0 (first factor) or 1 (second factor)"),
    "partial_trace, dimensions of another product": (
        lambda: cs.partial_trace(np.eye(6) / 6.0, (4, 2), over=0), DimensionMismatch,
        "shape (6, 6) incompatible with dims (4, 2)"),
    # one conversion of the whole family: no projector is read before the family's shape
    "OrthogonalDecomposition, one matrix where a stack goes": (
        lambda: cs.OrthogonalDecomposition(np.eye(2)), DimensionMismatch,
        "expected a stack (M, d, d), got shape (2, 2)"),
    "OrthogonalDecomposition, one empty projector of two": (
        lambda: cs.OrthogonalDecomposition([np.zeros((0, 0)), np.eye(2)]), *RAGGED),
    # a zero block is Hermitian, idempotent and orthogonal to every block
    "OrthogonalDecomposition, an empty block": (
        lambda: cs.OrthogonalDecomposition([*FAMILY.good, 0 * _QUBIT]), ValueError,
        "projector is empty (trace below 1/2)"),
    "from_basis, an empty group": (
        lambda: cs.OrthogonalDecomposition.from_basis(np.eye(2), [[0], [1], []]), ValueError,
        "projector is empty (trace below 1/2)"),
    **{f"from_basis, groups with {name} column": (
        lambda groups=groups: cs.OrthogonalDecomposition.from_basis(np.eye(3), groups), ValueError,
        "groups do not hold each column 0..2 once") for name, groups in [
            ("a repeated", [[0, 1], [1, 2]]), ("a missing", [[0], [2]]),
            ("an out-of-range", [[0, 1], [2, 3]])]},
    # zero size, or a stack where one matrix goes: numpy's reductions used to meet it first
    **{name: (call, *_square(shape)) for name, call, shape in [
        ("OrthogonalDecomposition, two empty projectors",
         lambda: cs.OrthogonalDecomposition(np.zeros((2, 0, 0))), "(2, 0, 0)"),
        ("from_basis, no columns", lambda: cs.OrthogonalDecomposition.from_basis(np.zeros((3, 0))),
         "(3, 0)"),
        ("computational(0)", lambda: cs.OrthogonalDecomposition.computational(0), "(0, 0)"),
        ("require_hermitian, no matrices", lambda: linalg.require_hermitian(np.zeros((0, 2, 2))),
         "(0, 2, 2)"),
        ("HamiltonianPath.linear, two empty endpoints",
         lambda: cs.HamiltonianPath.linear(np.zeros((0, 0)), np.zeros((0, 0)), 1.0), "(2, 0, 0)"),
        ("from_matrix, a stack", lambda: cs.SpectralHamiltonian.from_matrix([_QUBIT] * 3),
         "(3, 2, 2)"),
        ("matrix_sqrt_psd, a stack of non-square matrices",
         lambda: cs.matrix_sqrt_psd(np.zeros((3, 2, 3))), "(3, 2, 3)")]},
    "from_spectrum, a basis of another dimension": (
        lambda: cs.SpectralHamiltonian.from_spectrum([0.0, 1.0], np.eye(3)), DimensionMismatch,
        "basis shape does not match eigenvalue count"),
    "from_spectrum, no eigenvalues and a 0 x 0 basis": (
        lambda: cs.SpectralHamiltonian.from_spectrum([], np.zeros((0, 0))), DimensionMismatch,
        "expected at least one eigenvalue, got none"),
    # the unchecked eigenvectors 2 I gave coherence, closed form and brute force 0.0
    "SpectralHamiltonian, called with its fields": (
        lambda: cs.SpectralHamiltonian(np.arange(2.0), 2 * np.eye(2), np.arange(2.0), np.arange(2)),
        TypeError, _RAW),
    "SpectralHamiltonian, called bare": (
        cs.SpectralHamiltonian, TypeError, _RAW),
    "matrix_sqrt_psd, one negative eigenvalue in a stack": (
        lambda: cs.matrix_sqrt_psd([_QUBIT, np.diag([1.0 + 2e-10, -2e-10]), _QUBIT]), NotPSD,
        "eigenvalue -2.000e-10 below -1.0e-10"),
    "matrix_sqrt_psd, one non-Hermitian matrix in a stack": (
        lambda: cs.matrix_sqrt_psd([_QUBIT, _QUBIT, [[0.5, 1e-6], [0.0, 0.5]]]), NotHermitian,
        "max |H - H†| = 1.000e-06 exceeds 1.0e-09"),
    **{f"random_density, rank {rank} of 3": (
        lambda rank=rank: cs.random_density(3, rank=rank, seed=0), BadRank,
        f"rank {rank} outside 1..3") for rank in (0, 4)},
    "run_suite, an unknown name": (
        lambda: cs.run_suite("not-a-suite"), UnknownSuite,
        "unknown suite 'not-a-suite'; choose from " + ", ".join(sorted(cs.SUITES))),
    # a size is an integer (TypeError) in its range (ValueError naming it), checked before any
    # draw: trials 0 passed with worst -inf, 2.5 ran 2 trials, dim 0 was ignored
    **{f"{name}, {arg} {value!r}": (
        lambda call=call, arg=arg, value=value: call(**{arg: value}), *outcome)
       for name, call in [("run_suite", lambda **kw: cs.run_suite("thm1", **kw)),
                          ("check_thm1_equality", verification.check_thm1_equality)]
       for arg, value, outcome in [
           ("trials", 0, (ValueError, "trials must be an integer >= 1, got 0")),
           ("trials", -1, (ValueError, "trials must be an integer >= 1, got -1")),
           ("trials", 2.5, (TypeError, "'float' object cannot be interpreted as an integer")),
           ("dim", 0, (ValueError, "dim must be an integer >= 2, got 0")),
           ("dim", 1, (ValueError, "dim must be an integer >= 2, got 1")),
           ("seed", -1, (ValueError, "seed must be an integer >= 0, got -1"))]},
    **{f"{call.__name__}, dim 0": (lambda call=call: call(0, 0), ValueError,
                                    "dim must be an integer >= 1, got 0")
       for call in (cs.haar_random_state, cs.random_unitary, cs.random_hermitian)},
    "random_density, dim 0": (lambda: cs.random_density(0, 1, 0), ValueError,
                              "dim must be an integer >= 1, got 0"),
    # numpy's "slice step cannot be zero", and a (1, 0, 0) channel installed unchecked
    "random_channel, no Kraus operators": (lambda: cs.random_channel(2, 0, 0), ValueError,
                                           "n_kraus must be an integer >= 1, got 0"),
    "random_channel, dim 0": (lambda: cs.random_channel(0, 1, 0), ValueError,
                              "dim must be an integer >= 1, got 0"),
    # int() took 2.5 as 2
    "dilate, env_dim 2.5": (lambda: cs.dilate(CHANNEL, 2.5), TypeError,
                            "'float' object cannot be interpreted as an integer"),
    "a_coefficient, a repeated eigenvalue": (
        lambda: cs.a_coefficient([1.0, 1.0, 2.0], 0.5), DegenerateSpectrum,
        "eigenvalues are not pairwise distinct; group levels and use b_coefficient"),
    "a_coefficient, one eigenvalue": (
        lambda: cs.a_coefficient([0.5], 1.0), SingleLevel, "need at least two eigenvalues"),
    "benchmark_overlap_check, one phase short": (
        lambda: cs.benchmark_overlap_check([0.0, 1.0, 2.0], [0.0, 0.0], 1.0), DimensionMismatch,
        "one phase per eigenvalue required"),
    **{f"{call.__name__}, a NaN in an array of times": (
        lambda call=call: call([0.0, 1.0], np.array([0.5, NAN])), ValueError,
        "t must be finite, got nan") for call in (cs.a_coefficient, cs.b_coefficient)},
    **{f"{call.__name__}, a stack of states": (
        lambda call=call: call(np.stack([_QUBIT, _QUBIT]), _QUBIT), *_square("(2, 2, 2)"))
       for call in (cs.fidelity, cs.bures_angle)},
    **{f"{call.__name__}, states of two dimensions": (
        lambda call=call: call(_QUBIT, _QUTRIT), DimensionMismatch,
        "shapes (2, 2) and (3, 3) differ") for call in (cs.fidelity, cs.hellinger)},
    "spin_operator, a 2-vector": (
        lambda: cs.spin_operator([1.0, 0.0]), InvalidState,
        "axis must be a 3-vector or a stack (k, 3) of them"),
    "spin_operator, a NaN in a stack of axes": (
        lambda: cs.spin_operator([[1.0, 0.0, 0.0], [0.0, NAN, 1.0]]), InvalidState,
        "axis entries are not all finite"),
    **{f"qudit_battery_bound, dimensions {dims}": (
        lambda dims=dims: cs.qudit_battery_bound(np.eye(dims[2]) / dims[2], np.diag(
            np.arange(dims[0], dtype=float)), np.diag(np.linspace(-1.0, 1.0, dims[1])), 1e-2),
        DimensionMismatch, "h0, v and rho have dimensions %d, %d and %d" % dims)
       for dims in [(2, 3, 3), (3, 2, 2), (2, 2, 3)]},
    # eps |1><1| is 2 x 2: numpy's broadcast met the drive first, and work_bound returned 1e-9
    **{f"{call.__name__}, a qutrit {what}": (
        lambda call=call, rho=rho: call(rho, 1.0, 0.5, np.eye(3), 0.1), DimensionMismatch,
        f"rho_t and v_t are {shape} and (3, 3), not (2, 2)")
       for call, what, rho, shape in [(cs.avg_extracted_work, "drive", _QUBIT, "(2, 2)"),
                                      (cs.work_bound, "state and drive", _QUTRIT, "(3, 3)")]},
    # the window is |eta| dt: a negative pulse past pi/2 passed and gave a negative ceiling
    **{f"work_bound, {name}eta dt above pi/2": (
        lambda eta=eta: cs.work_bound(_QUBIT, 1.0, eta, cs.spin_operator((1.0, 0.0, 0.0)), 1.0),
        WindowTooWide, "|eta| * dt = 2 exceeds pi/2")
       for name, eta in (("", 2.0), ("a negative ", -2.0))},
    "simulate_battery, a pulse that does not vanish at the edges": (
        lambda: _battery(pulse=lambda t: 0.3), InvalidState, "pulse must vanish at t = 0.0"),
    "simulate_battery, a qutrit": (
        lambda: _battery(psi=cs.haar_random_state(3, 0)), InvalidState,
        "battery protocol is a qubit model"),
    **{f"simulate_battery, {name}": (lambda kw=kw: _battery(**kw), error, message)
       for name, kw, error, message in [
           ("a pulse one sample short", {"pulse": lambda t: np.zeros(20)}, DimensionMismatch,
            "pulse gave shape (20,) on a grid of 21 points; expected (21,) or ()"),
           ("a column of pulse samples", {"pulse": lambda t: np.zeros((21, 1))}, DimensionMismatch,
            "pulse gave shape (21, 1) on a grid of 21 points; expected (21,) or ()"),
           ("a 2-vector axis", {"drive_axis": lambda t: np.array([1.0, 0.0])}, DimensionMismatch,
            "drive_axis gave shape (2,) on a grid of 21 points; expected (21, 3) or (3,)"),
           ("an axis one sample short", {"drive_axis": lambda t: np.zeros((20, 3))},
            DimensionMismatch,
            "drive_axis gave shape (20, 3) on a grid of 21 points; expected (21, 3) or (3,)"),
           # each reached the drive Hamiltonians, and only their Hermiticity check stopped it
           ("a NaN pulse sample", {"pulse": lambda t: np.where(t == 0.5, NAN, 0.0)}, ValueError,
            "pulse gave samples that are not all finite"),
           ("an infinite pulse", {"pulse": lambda t: INF}, ValueError,
            "pulse gave samples that are not all finite"),
           ("a NaN axis sample",
            {"drive_axis": lambda t: np.where(t[:, None] == 0.5, NAN, [1.0, 0.0, 0.0])},
            ValueError, "drive_axis gave samples that are not all finite"),
           ("a NaN epsilon", {"epsilon": NAN}, ValueError, "epsilon must be finite, got nan")]},
    **{f"simulate_battery, tau {tau!r} and dt {dt!r}": (
        lambda tau=tau, dt=dt: _battery(tau=tau, dt=dt),
        ValueError, "%s must be finite and positive, got %r" % bad)
       for tau, dt in [(INF, 1e-3), (NAN, 1e-3), (-1.0, 1e-3), (1.0, NAN), (1.0, INF), (1.0, 0.0),
                       (1.0, -1e-3)]
       for bad in [("tau", tau) if not 0 < tau < INF else ("dt", dt)]},
    "dilate, more Kraus operators than environment levels": (
        lambda: cs.dilate(cs.random_channel(2, 3, 7), env_dim=2), TooManyKraus,
        "3 Kraus operators exceed environment dimension 2"),
    "theorem3_bound, a dilation of 12 levels": (
        lambda: cs.theorem3_bound(cs.dilate(cs.qutrit_equality_channel()), np.diag([1.0, 0, 0])),
        TooManyLevels, "12 levels exceed brute-force cap 8"),
    "equality_gap_analysis, a mixed state": (
        lambda: cs.equality_gap_analysis(cs.qutrit_equality_channel(), _QUTRIT), InvalidState,
        "equality analysis requires a pure input state"),
    "channel_from_dict, no kraus key": (
        lambda: channel_from_dict({"operators": "nope"}), ValidationError,
        "'kraus' is a required property"),
    # the schema admits a Kraus matrix whose second row is one entry short
    "channel_from_dict, a ragged Kraus matrix": (
        lambda: channel_from_dict({"kraus": [[[[1, 0], [0, 0]], [[0, 0]]]]}), DimensionMismatch,
        "[re, im] pairs are not nested to one shape"),
    **{f"{name}, a 3-entry state on 2 levels": (
        lambda call=call, h=h: call(np.full(3, 1.0 / np.sqrt(3.0)), h), DimensionMismatch,
        "state/Hamiltonian dimensions differ") for name, call, h in [
            ("instantaneous_speed", cs.instantaneous_speed, HAM),
            ("energy_uncertainty", cs.energy_uncertainty, HAM),
            ("energy_uncertainty of a matrix", cs.energy_uncertainty, HAM.matrix())]},
    "qubit_closed_form, amplitudes of norm 2": (
        lambda: cs.qubit_closed_form(1.0, 1.0, 0.0, 1.0, 0.5), InvalidState,
        "amplitudes are not normalized"),
    "finite_difference_speed, the last grid point": (
        lambda: cs.finite_difference_speed(cs.evolve([1.0, 0.0], PATH), 10), IndexError,
        "index 10 has no successor on the grid"),
    "HamiltonianPath, a sampler": (
        lambda: cs.HamiltonianPath(times=GRID.good, sampler=lambda t: np.eye(2)), TypeError,
        "HamiltonianPath.__init__() got an unexpected keyword argument 'sampler'"),
    "HamiltonianPath, one non-Hermitian sample of three": (
        lambda: cs.HamiltonianPath(GRID.good, [np.eye(2), [[0.0, 1.0], [0.0, 0.0]], np.eye(2)]),
        NotHermitian, "max |H - H†| = 1.000e+00 exceeds 1.0e-09"),
    **{f"HamiltonianPath, samples {shape} on 3 points": (
        lambda shape=shape: cs.HamiltonianPath(GRID.good, np.zeros(shape)), DimensionMismatch,
        f"samples {shape} for a grid of 3 points")
       for shape in [(2, 2, 2), (4, 2, 2), (2, 2), (3, 1, 2, 2)]},
    "HamiltonianPath, a column of times": (
        lambda: cs.HamiltonianPath(GRID.good[:, None], np.zeros((3, 1, 2, 2))), ValueError,
        "grid times must be one-dimensional, got shape (3, 1)"),
    "HamiltonianPath.linear, endpoints of two dimensions": (
        lambda: cs.HamiltonianPath.linear(np.eye(2), np.eye(3), 1.0, steps=2), DimensionMismatch,
        "endpoint shapes (2, 2) and (3, 3) differ"),
    # half spectral width 50 times |dt| is 25, and 50 on a decreasing grid of unit steps
    **{f"evolve, a {name} grid": (
        lambda path=path: cs.evolve([1.0, 0.0], path()), GridTooCoarse,
        f"half spectral width * dt = {width} exceeds 1.0") for name, path, width in [
            ("coarse", lambda: cs.HamiltonianPath([0.0, 0.5, 1.0], [_WIDE] * 3), 25),
            ("reversed", lambda: cs.HamiltonianPath([0.0, -1.0, -2.0], [_WIDE] * 3), 50),
            ("negative-duration", lambda: cs.HamiltonianPath.constant(_WIDE, -2.0, steps=2), 50)]},
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
    with pytest.raises(Exception) as info:
        call()
    # the first line: a schema error goes on with the schema and the document
    assert type(info.value) is error and str(info.value).splitlines()[0] == message, info.value


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
