"""Branch-averaged work extraction and its coherence ceiling."""

import dataclasses
import itertools
import warnings

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
from coherence_speed.errors import InvalidState, WindowTooWide
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


@pytest.mark.parametrize("tau", [1.0, 2.5, 0.7])
def test_package_pulses_and_axes_on_a_grid_equal_their_points_bit_for_bit(tau):
    # the per-point forms are those of a scalar time: a scalar np.float64 power is libm pow
    for dt in (1e-3, 0.02):
        times = np.linspace(0.0, tau, int(round(tau / dt)) + 1)
        per_point = {
            sin2_pulse: lambda t: 1.3 * np.sin(np.pi * t / tau) ** 2,
            sin4_pulse: lambda t: 1.3 * np.sin(np.pi * t / tau) ** 4,
            parabola_pulse: lambda t: 1.3 * 4.0 * t * (tau - t) / (tau * tau),
        }
        for make, form in per_point.items():
            pulse = make(1.3, tau)
            points = np.array([pulse(t) for t in times])
            assert points.tobytes() == np.array([form(t) for t in times]).tobytes()
            assert pulse(times).shape == times.shape
            assert pulse(times).tobytes() == points.tobytes()
        for axis in (constant_axis((1.0, 0.0, 0.0)), constant_axis((0.3, -0.5, 0.8)),
                     rotating_axis(tau)):
            points = np.array([axis(t) for t in times])
            assert np.broadcast_to(axis(times), points.shape).tobytes() == points.tobytes()
        phi = [2.0 * np.pi * t / tau for t in times]
        want = np.array([[np.cos(p), np.sin(p), 0.0] for p in phi])
        assert rotating_axis(tau)(times).tobytes() == want.tobytes()
        assert constant_axis((0.3, -0.5, 0.8))(times).shape == (3,)


def test_a_fixed_axis_cannot_be_written_through_a_call():
    # every call hands out the same 3-vector, so a write would move the axis for later calls
    axis = constant_axis((1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="read-only"):
        axis(0.0)[:] = (0.0, 0.0, 2.0)
    with pytest.raises(ValueError, match="read-only"):
        axis(np.linspace(0.0, 1.0, 5))[0] = 2.0
    assert axis(0.5).tolist() == [1.0, 0.0, 0.0]
    run = simulate_battery(BatteryConfig(1.0, 1.0, 0.05, sin2_pulse(1.0, 1.0), axis), PLUS)
    assert np.isfinite(run.avg_work).all()


@pytest.mark.parametrize("n", [(1.0, 0.0, 0.0), (0.3, -0.5, 0.8)], ids=["x", "vector"])
def test_a_fixed_axis_run_equals_the_per_point_axis_run_bit_for_bit(n):
    # one 3-vector gives one drive eigenbasis; the same axis repeated per point gives 2,501
    fixed = constant_axis(n)
    for state in (GROUND, PLUS):
        runs = [simulate_battery(BatteryConfig(1.0, 2.5, 1e-3, sin4_pulse(1.0, 2.5), axis), state)
                for axis in (fixed, lambda t: np.tile(fixed(t), (len(t), 1)))]
        for f in dataclasses.fields(BatteryRun):
            assert getattr(runs[0], f.name).tobytes() == getattr(runs[1], f.name).tobytes()


def test_the_pulse_and_the_axis_are_called_once_with_the_grid():
    calls = []

    def pulse(t):
        calls.append(("pulse", np.shape(t)))
        return sin2_pulse(1.0, 1.0)(t)

    def axis(t):
        calls.append(("axis", np.shape(t)))
        return rotating_axis(1.0)(t)

    run = simulate_battery(BatteryConfig(1.0, 1.0, 0.05, pulse, axis), PLUS)
    assert calls == [("pulse", (21,)), ("axis", (21,))]
    np.testing.assert_array_equal(run.pulse_value, sin2_pulse(1.0, 1.0)(run.t))


def test_a_scalar_pulse_value_holds_for_every_point():
    run = simulate_battery(BatteryConfig(1.0, 1.0, 0.05, lambda t: 0.0,
                                         constant_axis((1.0, 0.0, 0.0))), PLUS)
    assert run.pulse_value.shape == (21,) and not run.pulse_value.any()
    assert np.all(np.abs(run.avg_work) <= 1e-15) and not run.bound.any()


@pytest.mark.parametrize("n, norm", [((0.0, 0.0, 0.0), "0.0"), ((np.nan, 0.0, 0.0), "nan"),
                                     ((0.0, np.inf, 0.0), "inf")], ids=["zero", "nan", "inf"])
def test_a_zero_or_non_finite_fixed_axis_is_rejected_where_it_enters(n, norm):
    # n / |n| came back as a NaN axis, with a divide warning for the zero vector
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidState, match=f"^axis norm {norm} is not finite and above zero$"):
            constant_axis(n)


def test_a_fixed_axis_past_the_norm_range_keeps_its_direction():
    # |n| overflowed to inf for entries above about 1e154, and n / |n| to the zero axis;
    # scaling by a power of two first is exact, so an ordinary axis keeps n / |n| bit for bit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for big, ordinary in (((1e200, 1e200, 0.0), (1.0, 1.0, 0.0)),
                              ((0.0, -1e300, 0.0), (0.0, -1.0, 0.0)),
                              ((3.0 * 2.0 ** 1000, 0.0, 2.0 ** 1001), (3.0, 0.0, 2.0)),
                              ((3.0 * 2.0 ** -1040, 0.0, 2.0 ** -1039), (3.0, 0.0, 2.0))):
            assert constant_axis(big)(0.0).tobytes() == constant_axis(ordinary)(0.0).tobytes()
    rng = np.random.default_rng(71)
    for n in rng.normal(size=(200, 3)) * np.exp2(rng.integers(-60, 60, size=(200, 1))):
        assert constant_axis(n)(0.0).tobytes() == (n / np.linalg.norm(n)).tobytes()


def test_a_config_cannot_be_reassigned():
    config = BatteryConfig.default()
    for name, value in (("dt", 0.5), ("tau", 2.0), ("pulse", lambda t: 0.3)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, name, value)
    assert config.dt == 1e-3 and config.tau == 1.0
