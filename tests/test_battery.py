"""Branch-averaged work extraction and its coherence ceiling."""

import dataclasses
import itertools
import warnings

import mpmath as mp
import numpy as np
import pytest

from coherence_speed import battery
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
from coherence_speed.errors import GridTooCoarse, InvalidState, WindowTooWide
from coherence_speed.linalg import (
    haar_random_state,
    pure_density,
    random_density,
    random_unitary,
    validate_state_vector,
)
from coherence_speed.verification import _battery_grid

GROUND = np.array([1.0, 0.0], dtype=complex)
PLUS = np.full(2, 1.0 / np.sqrt(2.0), dtype=complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def _run_states(config, run, psi0):
    """The states the run's rows were taken on: its own trajectory, rebuilt from its columns."""
    return battery._trajectory(validate_state_vector(psi0), run.t, config.epsilon,
                               run.pulse_value, np.asarray(config.drive_axis(run.t), float))


def _evolve_states(config, run, psi0):
    """The same protocol through evolve: one stacked eigh of the samples eps |1><1| + eta V."""
    axes = np.broadcast_to(config.drive_axis(run.t), run.t.shape + (3,))
    drives = [spin_operator(n) for n in axes]
    return evolve(psi0, HamiltonianPath(run.t, [config.epsilon * P1 + eta * v for eta, v in
                                                zip(run.pulse_value, drives)])).states


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


@pytest.mark.bits
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
        own = _run_states(config, run, psi0)
        for k in range(0, len(times), 25):
            t = times[k]
            rho = np.outer(own[k], own[k].conj())
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
    for k, psi in enumerate(_run_states(config, run, state)):
        rho = np.outer(psi, psi.conj())
        eta, v = float(config.pulse(run.t[k])), spin_operator(axis(run.t[k]))
        assert run.pulse_value[k] == eta
        assert abs(run.avg_work[k] - avg_extracted_work(rho, 1.0, eta, v, 1e-3)) <= 1e-14
        assert abs(run.coherence[k] - drive_coherence(rho, v)) <= 1e-14
        assert abs(run.bound[k] - work_bound(rho, 1.0, eta, v, 1e-3)) <= 1e-14


def _tilted_axis(theta: float, period: float):
    """An axis at polar angle theta sweeping once per period: b_z mixes eta n_z with eps / 2."""
    def axis(t):
        phi = 2.0 * np.pi * np.asarray(t) / period
        return np.stack((np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                         np.full_like(phi, np.cos(theta))), axis=-1)
    return axis


_AXES_WITH_Z = [constant_axis(n) for n in np.random.default_rng(77).normal(size=(2, 3))] + [
    _tilted_axis(0.6, 0.8)]


@pytest.mark.filterwarnings("ignore:half spectral width")
@pytest.mark.parametrize("eps", [1.3, -0.8, 1e-9, 0.0],
                         ids=["positive", "negative", "small", "zero"])
def test_every_row_matches_the_oracles_over_signs_axes_and_the_step_guard(eps):
    # eta_max at the step guard: |b| dt <= (|eta| + |eps| / 2) dt = 0.99 < 1.  There
    # 2 |eps| sin(|eta| dt) reaches 1.6, and work_bound's sqrt(c) turns the error of the
    # oracle's own c (up to 3.9e-15 against 40-digit arithmetic; the column's 3.2e-16) into
    # 2.3e-14 (the column's 2.6e-15), so the bound column is held to the oracle on the
    # moderate pulse and to its formula on both
    dt, tau = 0.02, 1.0
    rng = np.random.default_rng(78)
    for eta_max, make, axis in itertools.product(
            (1.0, 0.99 / dt - abs(eps) / 2.0), (sin2_pulse, sin4_pulse, parabola_pulse),
            _AXES_WITH_Z):
        for sign in (1.0, -1.0):
            config = BatteryConfig(eps, tau, dt, make(sign * eta_max, tau), axis)
            psi0 = haar_random_state(2, rng)
            run = simulate_battery(config, psi0)
            drives = [spin_operator(n) for n in np.broadcast_to(axis(run.t), (len(run.t), 3))]
            for k, (psi, eta, v) in enumerate(zip(_run_states(config, run, psi0),
                                                  run.pulse_value, drives)):
                rho = np.outer(psi, psi.conj())
                assert abs(run.avg_work[k] - avg_extracted_work(rho, eps, eta, v, dt)) <= 1e-14
                assert abs(run.coherence[k] - drive_coherence(rho, v)) <= 1e-14
                if eta_max == 1.0:
                    assert abs(run.bound[k] - work_bound(rho, eps, eta, v, dt)) <= 1e-14
            ceiling = 2.0 * abs(eps) * np.sin(np.abs(run.pulse_value) * dt)
            np.testing.assert_array_equal(run.bound, ceiling * np.sqrt(run.coherence))
            assert np.all(np.abs(run.avg_work) <= run.bound + 1e-9)
            # a row without drive or without gap extracts exactly nothing
            assert not run.avg_work[run.pulse_value == 0.0].any()
            assert eps != 0.0 or not run.avg_work.any()


@pytest.mark.filterwarnings("ignore:half spectral width")
def test_the_trajectory_equals_evolves_to_rounding():
    # the closed-form SU(2) steps against evolve's stacked eigh, on the battery-bound grid, on
    # two grids whose step is not dt (tau / dt is no integer) and on the guard-grid runs of
    # the test above
    tau, pulses, states, axes = _battery_grid()
    configs = [(BatteryConfig(1.0, tau, 1e-3, pulse, axis), psi0)
               for (_, pulse), (_, psi0), (_, axis) in itertools.product(pulses, states, axes)]
    configs += [(BatteryConfig(1.0, 1.0, 0.03, sin2_pulse(20.0, 1.0), rotating_axis(1.0)), PLUS),
                (BatteryConfig(-0.8, 2.5, 0.07, sin4_pulse(9.0, 2.5), _AXES_WITH_Z[0]), GROUND)]
    rng = np.random.default_rng(78)
    for eps in (1.3, -0.8, 1e-9, 0.0):
        for eta_max, make, axis in itertools.product(
                (1.0, 0.99 / 0.02 - abs(eps) / 2.0), (sin2_pulse, sin4_pulse, parabola_pulse),
                _AXES_WITH_Z):
            configs += [(BatteryConfig(eps, 1.0, 0.02, make(sign * eta_max, 1.0), axis),
                         haar_random_state(2, rng)) for sign in (1.0, -1.0)]
    for config, psi0 in configs:
        run = simulate_battery(config, psi0)
        own = _run_states(config, run, psi0)
        assert np.max(np.abs(own - _evolve_states(config, run, psi0))) <= 5e-14


def test_the_step_guard_reads_the_battery_grid_as_evolve_reads_it():
    # |b| dt is the half spectral width times dt: the same error, or the same one warning
    # attributed to the caller
    times = np.linspace(0.0, 1.0, 21)
    for eta_max, coarse in ((60.0, True), (9.0, False)):     # worst |b| dt 3.0 and 0.45
        config = BatteryConfig(1.0, 1.0, 0.05, sin2_pulse(eta_max, 1.0), rotating_axis(1.0))
        path = HamiltonianPath(times, [P1 + eta * spin_operator(n) for eta, n in
                                       zip(config.pulse(times), config.drive_axis(times))])
        outcomes = []
        for call in (lambda: simulate_battery(config, PLUS), lambda: evolve(PLUS, path)):
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                try:
                    call()
                except GridTooCoarse as exc:
                    outcomes.append(str(exc))
                else:
                    outcomes.append([(str(w.message), w.filename) for w in record])
        assert outcomes[0] == outcomes[1]
        if coarse:
            assert outcomes[0].startswith("half spectral width * dt = 3")
        else:
            assert [w[1] for w in outcomes[0]] == [__file__]


def _expm_states(config, run, psi0):
    """The trajectory as a 40-digit product of mp.expm steps, one state per grid point."""
    with mp.workdps(40):
        axes = np.broadcast_to(config.drive_axis(run.t), run.t.shape + (3,))
        psi = mp.matrix([[mp.mpc(complex(z))] for z in psi0])
        out = [psi]
        for k, (eta, n) in enumerate(zip(run.pulse_value[:-1].tolist(), axes[:-1].tolist())):
            eta, (nx, ny, nz) = mp.mpf(eta), (mp.mpf(c) for c in n)
            h = mp.matrix([[eta * nz, eta * mp.mpc(nx, -ny)],
                           [eta * mp.mpc(nx, ny), mp.mpf(config.epsilon) - eta * nz]])
            dt = mp.mpf(float(run.t[k + 1])) - mp.mpf(float(run.t[k]))
            psi = mp.expm(h * mp.mpc(0, -dt)) * psi
            out.append(psi)
        return out


@pytest.mark.filterwarnings("ignore:half spectral width")
@pytest.mark.parametrize("config, psi0", [
    (BatteryConfig(1.3, 1.0, 0.02, sin4_pulse(0.99 / 0.02 - 0.65, 1.0), _tilted_axis(0.6, 0.8)),
     haar_random_state(2, 80)),
    (BatteryConfig(-0.8, 1.0, 0.02, parabola_pulse(-(0.99 / 0.02 - 0.4), 1.0),
                   constant_axis((0.3, -0.5, 0.8))), haar_random_state(2, 81)),
    (BatteryConfig.default(), np.array([1.0, 1.0j]) / np.sqrt(2.0)),
], ids=["guard-grid-tilted", "guard-grid-negative-pulse", "default"])
def test_the_trajectory_is_no_less_accurate_than_evolves_in_40_digits(config, psi0):
    # two 50-step grids at |b| dt = 0.99 and the default grid; evolve's error here is
    # 2.9e-15 to 8.1e-15, the closed form's 3.4e-16 to 2.2e-15
    run = simulate_battery(config, psi0)
    exact = _expm_states(config, run, psi0)

    def error(states):
        return max(float(abs(mp.mpc(complex(z)) - e)) for psi, x in zip(states, exact)
                   for z, e in zip(psi, x))

    assert error(_run_states(config, run, psi0)) <= error(_evolve_states(config, run, psi0))


def test_the_ceiling_takes_the_magnitudes_of_eps_and_eta():
    # a negative pulse or gap flipped the sign of 2 eps sin(eta dt) sqrt(c): a ceiling below 0
    rng = np.random.default_rng(79)
    for _ in range(10):
        n = rng.normal(size=3)
        v = spin_operator(n / np.linalg.norm(n))
        rho = pure_density(haar_random_state(2, rng))
        eps, eta = float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.1, 2.0))
        bound = work_bound(rho, eps, eta, v, 1e-3)
        for e, h in ((-eps, eta), (eps, -eta), (-eps, -eta)):
            assert work_bound(rho, e, h, v, 1e-3) == bound
            assert abs(avg_extracted_work(rho, e, h, v, 1e-3)) <= bound + 1e-9


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


@pytest.mark.bits
@pytest.mark.parametrize("tau", [1.0, 2.5, 0.7])
def test_package_pulses_and_axes_on_a_grid_equal_their_points_bit_for_bit(tau):
    # the per-point forms are those of a scalar time: the sine powers are products
    def sine(t):
        return np.sin(np.pi * t / tau)

    for dt in (1e-3, 0.02):
        times = np.linspace(0.0, tau, int(round(tau / dt)) + 1)
        per_point = {
            sin2_pulse: lambda t: 1.3 * (sine(t) * sine(t)),
            sin4_pulse: lambda t: 1.3 * ((sine(t) * sine(t)) * (sine(t) * sine(t))),
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


@pytest.mark.bits
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
