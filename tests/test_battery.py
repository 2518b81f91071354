"""Branch-averaged work extraction and its coherence ceiling."""

import dataclasses
import itertools

import numpy as np
import pytest

from coherence_speed.battery import (
    BatteryConfig,
    BatteryRun,
    avg_extracted_work,
    constant_axis,
    drive_coherence,
    parabola_pulse,
    qudit_battery_bound,
    rotating_axis,
    simulate_battery,
    sin2_pulse,
    sin4_pulse,
    spin_operator,
    work_bound,
)
from coherence_speed.dynamics import HamiltonianPath, evolve
from coherence_speed.errors import DimensionMismatch, InvalidState, NotHermitian, WindowTooWide
from coherence_speed.linalg import (
    haar_random_state,
    pure_density,
    random_density,
    random_unitary,
)
from coherence_speed.verification import _battery_grid

GROUND = np.array([1.0, 0.0], dtype=complex)
PLUS = np.full(2, 1.0 / np.sqrt(2.0), dtype=complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def test_spin_operator_algebra():
    rng = np.random.default_rng(71)
    for _ in range(10):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        s = spin_operator(n)
        assert np.max(np.abs(s - s.conj().T)) < 1e-12
        assert abs(np.trace(s)) < 1e-12
        assert np.max(np.abs(s @ s - np.eye(2))) < 1e-12
    with pytest.raises(InvalidState):
        spin_operator((1.0, 1.0, 0.0))   # not unit length


def test_spin_operator_stack_equals_one_axis_at_a_time():
    rng = np.random.default_rng(76)
    axes = rng.normal(size=(7, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    stack = spin_operator(axes)
    assert stack.shape == (7, 2, 2)
    for n, s in zip(axes, stack):
        np.testing.assert_array_equal(s, spin_operator(n))
    axes[4] *= 1.01
    with pytest.raises(InvalidState):
        spin_operator(axes)


def test_pulses_vanish_at_endpoints():
    tau = 0.8
    for make in (sin2_pulse, sin4_pulse, parabola_pulse):
        pulse = make(1.3, tau)
        assert abs(pulse(0.0)) < 1e-12
        assert abs(pulse(tau)) < 1e-12
        assert pulse(tau / 2.0) > 0.5


def test_default_run_respects_the_ceiling():
    run = simulate_battery(BatteryConfig.default(), GROUND)
    assert run.t.shape == (1001,)
    assert np.all(np.abs(run.avg_work) <= run.bound + 1e-9)
    assert np.all(run.coherence >= -1e-14)
    # cumulative column is the running sum of the work column
    np.testing.assert_allclose(run.cumulative_work, np.cumsum(run.avg_work), atol=1e-14)


def test_commuting_drive_extracts_nothing():
    # V = sigma_z commutes with the storage term and the ground state is
    # an eigenstate: every row must be a zero-coherence row with no work
    config = BatteryConfig(epsilon=1.0, tau=1.0, dt=1e-3,
                           pulse=sin2_pulse(1.0, 1.0),
                           drive_axis=constant_axis((0.0, 0.0, 1.0)))
    run = simulate_battery(config, GROUND)
    assert np.all(run.coherence < 1e-14)
    assert np.all(np.abs(run.avg_work) < 1e-10)


def test_drive_eigenstate_starts_with_zero_coherence():
    config = BatteryConfig(epsilon=1.0, tau=1.0, dt=1e-3,
                           pulse=sin4_pulse(1.0, 1.0),
                           drive_axis=constant_axis((1.0, 0.0, 0.0)))
    run = simulate_battery(config, PLUS)
    assert run.coherence[0] < 1e-14
    assert abs(run.avg_work[0]) < 1e-10


def test_rotating_axis_run_respects_the_ceiling():
    config = BatteryConfig(epsilon=1.0, tau=1.0, dt=1e-3,
                           pulse=parabola_pulse(1.0, 1.0),
                           drive_axis=rotating_axis(1.0))
    run = simulate_battery(config, PLUS)
    assert np.all(np.abs(run.avg_work) <= run.bound + 1e-9)


def test_pulse_must_vanish_at_the_edges():
    bad = BatteryConfig(epsilon=1.0, tau=1.0, dt=1e-3,
                        pulse=lambda t: 0.3,
                        drive_axis=constant_axis((1.0, 0.0, 0.0)))
    with pytest.raises(InvalidState):
        simulate_battery(bad, GROUND)


def test_qubit_only():
    with pytest.raises(InvalidState):
        simulate_battery(BatteryConfig.default(), haar_random_state(3, 0))


def test_work_bound_formula_and_window():
    rng = np.random.default_rng(72)
    v = spin_operator((1.0, 0.0, 0.0))
    for _ in range(10):
        rho = random_density(2, rank=2, seed=rng)
        eta, dt, eps = 0.7, 1e-3, 1.4
        want = 2.0 * eps * np.sin(eta * dt) * np.sqrt(drive_coherence(rho, v))
        assert abs(work_bound(rho, eps, eta, v, dt) - want) < 1e-14
    with pytest.raises(WindowTooWide):
        work_bound(np.eye(2) / 2.0, 1.0, 2.0, v, 1.0)   # eta dt > pi/2


def test_bound_dominates_work_pointwise():
    rng = np.random.default_rng(73)
    for _ in range(50):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        v = spin_operator(n)
        rho = pure_density(haar_random_state(2, rng))
        eta = float(rng.uniform(0.0, 2.0))
        dt = float(rng.uniform(1e-4, 5e-3))
        eps = float(rng.uniform(0.2, 3.0))
        w = avg_extracted_work(rho, eps, eta, v, dt)
        assert abs(w) <= work_bound(rho, eps, eta, v, dt) + 1e-9


def test_qudit_bound_reduces_to_qubit_form():
    rng = np.random.default_rng(74)
    eps, dt = 1.3, 1e-3
    h0 = eps * np.diag([0.0, 1.0]).astype(complex)
    for _ in range(20):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        v = spin_operator(n)
        eta = float(rng.uniform(0.1, 2.0))
        rho = pure_density(haar_random_state(2, rng))
        avg, bound = qudit_battery_bound(rho, h0, eta * v, dt)
        assert abs(avg - avg_extracted_work(rho, eps, eta, v, dt)) < 1e-12
        assert abs(bound - work_bound(rho, eps, eta, v, dt)) < 1e-12


def test_qudit_bound_holds_and_vanishes_for_incoherent_states():
    rng = np.random.default_rng(75)
    d = 3
    for _ in range(15):
        h0 = np.diag(np.sort(rng.uniform(0.0, 2.0, d))).astype(complex)
        w = random_unitary(d, rng)
        v = w @ np.diag(np.linspace(-1.0, 1.0, d)) @ w.conj().T
        rho = pure_density(haar_random_state(d, rng))
        avg, bound = qudit_battery_bound(rho, h0, v, 1e-3)
        assert abs(avg) <= bound + 1e-9
        # a V-eigenbasis-diagonal state is a zero-coherence state
        diag = w @ np.diag(rng.dirichlet(np.ones(d))) @ w.conj().T
        avg0, _ = qudit_battery_bound(diag, h0, v, 1e-3)
        assert abs(avg0) < 1e-10


def test_qudit_bound_rejects_a_non_hermitian_storage_hamiltonian():
    # the 0.5 off-diagonal defect used to be averaged away by hermitianizing
    h0 = np.array([[0.0, 0.5], [0.0, 1.0]], dtype=complex)
    with pytest.raises(NotHermitian):
        qudit_battery_bound(pure_density(PLUS), h0, spin_operator([1.0, 0.0, 0.0]), 1e-2)


@pytest.mark.parametrize("h0_dim, v_dim, rho_dim", [(2, 3, 3), (3, 2, 2), (2, 2, 3)])
def test_qudit_bound_rejects_mismatched_dimensions(h0_dim, v_dim, rho_dim):
    h0 = np.diag(np.arange(h0_dim, dtype=float))
    v = np.diag(np.linspace(-1.0, 1.0, v_dim))
    rho = np.eye(rho_dim) / rho_dim
    with pytest.raises(DimensionMismatch, match="h0, v and rho have dimensions"):
        qudit_battery_bound(rho, h0, v, 1e-2)


def test_battery_rows_match_the_single_step_oracles():
    # every 25th row of the 18 scenarios of the battery-bound suite
    tau, pulses, states, axes = _battery_grid()
    eps, dt = 1.0, 1e-3
    for (_, pulse), (_, psi0), (_, axis) in itertools.product(pulses, states, axes):
        config = BatteryConfig(epsilon=eps, tau=tau, dt=dt, pulse=pulse, drive_axis=axis)
        run = simulate_battery(config, psi0)
        times = np.linspace(0.0, tau, len(run.t))
        traj = evolve(psi0, HamiltonianPath(
            times, [eps * P1 + pulse(t) * spin_operator(axis(t)) for t in times]))
        for k in range(0, len(times), 25):
            t = times[k]
            rho = np.outer(traj.states[k], traj.states[k].conj())
            eta, v = float(pulse(t)), spin_operator(axis(t))
            assert run.t[k] == t and run.pulse_value[k] == eta
            assert abs(run.avg_work[k] - avg_extracted_work(rho, eps, eta, v, dt)) <= 1e-14
            assert abs(run.coherence[k] - drive_coherence(rho, v)) <= 1e-14
            assert abs(run.bound[k] - work_bound(rho, eps, eta, v, dt)) <= 1e-14
        np.testing.assert_array_equal(run.cumulative_work, np.cumsum(run.avg_work))


@pytest.mark.parametrize("state, axis", [(GROUND, constant_axis((1.0, 0.0, 0.0))),
                                         (np.array([1.0, 1.0j]) / np.sqrt(2.0), rotating_axis(1.0))],
                         ids=["x-ground", "rotating-xy-circular"])
def test_every_row_matches_the_density_matrix_oracles(state, axis):
    # the default pulse; the oracles take rho = psi psi† through U rho U† and c_half's sqrt
    config = BatteryConfig(epsilon=1.0, tau=1.0, dt=1e-3, pulse=sin2_pulse(1.0, 1.0),
                           drive_axis=axis)
    run = simulate_battery(config, state)
    traj = evolve(state, HamiltonianPath(
        run.t, [P1 + config.pulse(t) * spin_operator(axis(t)) for t in run.t]))
    for k, psi in enumerate(traj.states):
        rho = np.outer(psi, psi.conj())
        eta, v = float(config.pulse(run.t[k])), spin_operator(axis(run.t[k]))
        assert run.pulse_value[k] == eta
        assert abs(run.avg_work[k] - avg_extracted_work(rho, 1.0, eta, v, 1e-3)) <= 1e-14
        assert abs(run.coherence[k] - drive_coherence(rho, v)) <= 1e-14
        assert abs(run.bound[k] - work_bound(rho, 1.0, eta, v, 1e-3)) <= 1e-14


def test_rows_without_drive_extract_no_work():
    # the pulse vanishes at both ends (exactly or to 1e-30); both branches are then the bare storage term
    tau, pulses, states, axes = _battery_grid()
    for (_, pulse), (_, psi0), (_, axis) in itertools.product(pulses, states, axes):
        run = simulate_battery(BatteryConfig(1.0, tau, 1e-3, pulse, axis), psi0)
        for k in (0, -1):
            assert run.pulse_value[k] < 1e-30
            assert abs(run.avg_work[k]) <= 1e-15
            assert run.bound[k] <= 1e-30


def test_battery_run_is_read_only_columns():
    run = simulate_battery(BatteryConfig(1.0, 1.0, 0.05, sin2_pulse(1.0, 1.0),
                                         rotating_axis(1.0)), PLUS)
    names = ["t", "pulse_value", "avg_work", "bound", "coherence", "cumulative_work"]
    assert [f.name for f in dataclasses.fields(BatteryRun)] == names
    for name in names:
        column = getattr(run, name)
        assert column.shape == (21,) and column.dtype == float
        with pytest.raises(ValueError):
            column[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        run.avg_work = np.zeros(21)


@pytest.mark.parametrize("tau, dt, message", [
    (np.inf, 1e-3, "tau must be finite and positive, got inf"),
    (np.nan, 1e-3, "tau must be finite and positive, got nan"),
    (-1.0, 1e-3, "tau must be finite and positive, got -1.0"),
    (1.0, np.nan, "dt must be finite and positive, got nan"),
    (1.0, np.inf, "dt must be finite and positive, got inf"),
    (1.0, 0.0, "dt must be finite and positive, got 0.0"),
    (1.0, -1e-3, "dt must be finite and positive, got -0.001")],
    ids=["inf-tau", "nan-tau", "negative-tau", "nan-dt", "inf-dt", "zero-dt", "negative-dt"])
def test_a_grid_that_is_not_finite_and_positive_is_rejected(tau, dt, message):
    with pytest.raises(ValueError) as info:
        simulate_battery(BatteryConfig.default(tau=tau, dt=dt), GROUND)
    assert str(info.value) == message
