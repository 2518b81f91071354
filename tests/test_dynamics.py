"""Piecewise-constant propagation and the instantaneous-speed identity."""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg

from coherence_speed import dynamics, linalg
from coherence_speed.dynamics import (
    HamiltonianPath,
    Trajectory,
    energy_uncertainty,
    evolve,
    finite_difference_speed,
    gap_squared_matrix,
    instantaneous_speed,
    qubit_closed_form,
)
from coherence_speed.errors import DimensionMismatch, GridTooCoarse, NotHermitian
from coherence_speed.linalg import (
    TOL_DEGEN,
    SpectralHamiltonian,
    haar_random_state,
    hermitianize,
    pure_density,
    random_hermitian,
    random_unitary,
    unitary_exp,
)
from coherence_speed.metrics import hellinger


def test_constant_path_matches_exact_propagator():
    rng = np.random.default_rng(61)
    h = random_hermitian(3, rng)
    ham = SpectralHamiltonian.from_matrix(h)
    psi0 = haar_random_state(3, rng)
    traj = evolve(psi0, HamiltonianPath.constant(h, 2.0, steps=400))
    for k in (100, 250, 400):
        t = traj.times[k]
        exact = unitary_exp(ham, float(t)) @ psi0
        # piecewise-constant steps of a constant H compose exactly
        assert np.max(np.abs(traj.states[k] - exact)) < 1e-10
        assert abs(np.linalg.norm(traj.states[k]) - 1.0) < 1e-10


def test_speed_identity_sqrt2_delta_h():
    rng = np.random.default_rng(62)
    for trial in range(60):
        d = int(rng.integers(2, 8))
        if trial % 3 == 0:
            lam = np.sort(rng.uniform(0.0, 4.0, d))
            lam[d // 2:] = lam[d // 2]          # force a degenerate level
            ham = SpectralHamiltonian.from_spectrum(lam)
        else:
            ham = SpectralHamiltonian.from_matrix(random_hermitian(d, rng))
        psi = haar_random_state(d, rng)
        v = instantaneous_speed(psi, ham)
        dh = energy_uncertainty(psi, ham.matrix())     # the dense route, independent of the weights
        assert abs(v - np.sqrt(2.0) * dh) < 1e-10


def test_spectral_spread_is_the_speed_over_sqrt2_at_any_shift():
    # both routes read the same stored eigenvalues and take only their gaps,
    # so a constant shift costs neither any precision
    rng = np.random.default_rng(67)
    worst = 0.0
    for trial in range(300):
        d = int(rng.integers(2, 7))
        shift = (0.0, 1e2, 1e4, 1e6)[trial % 4]
        ham = SpectralHamiltonian.from_spectrum(shift + rng.uniform(0.0, 4.0, d),
                                                random_unitary(d, rng))
        psi = haar_random_state(d, rng)
        half_v = instantaneous_speed(psi, ham) / np.sqrt(2.0)
        worst = max(worst, abs(energy_uncertainty(psi, ham) - half_v) / half_v)
    assert worst <= 1e-12


def test_evolve_rejects_a_state_of_the_wrong_length_before_stepping():
    # dt = 0.25 on a unit gap is above the warning threshold, so stepping would warn first
    path = HamiltonianPath.constant(np.diag([0.0, 1.0]), 1.0, steps=4)
    psi = np.full(3, 1.0 / np.sqrt(3.0), dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatch, match="state/Hamiltonian dimensions differ"):
            evolve(psi, path)


def test_gap_squared_matrix_symmetric_zero_diagonal():
    a = gap_squared_matrix([0.0, 1.0, 2.5])
    assert np.max(np.abs(a - a.T)) == 0.0
    assert np.max(np.abs(np.diag(a))) == 0.0
    assert abs(a[0, 2] - 6.25) < 1e-15


def test_finite_difference_speed_approaches_closed_form():
    rng = np.random.default_rng(63)
    h = random_hermitian(4, rng, scale=1.0)
    psi0 = haar_random_state(4, rng)
    errs = []
    for steps in (2000, 4000, 8000):
        traj = evolve(psi0, HamiltonianPath.constant(h, 1.0, steps=steps))
        k = steps // 2
        fd = finite_difference_speed(traj, k)
        errs.append(abs(fd - traj.speeds[k]))
    assert errs[0] < 1e-4
    assert errs[2] < errs[0]   # error shrinks with the step


def test_qubit_closed_form_matches_hellinger():
    rng = np.random.default_rng(64)
    for _ in range(40):
        alpha = rng.normal() + 1j * rng.normal()
        beta = rng.normal() + 1j * rng.normal()
        norm = np.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        alpha, beta = alpha / norm, beta / norm
        lam, gam = rng.uniform(0.0, 3.0, 2)
        t = float(rng.uniform(0.0, 9.0))
        psi0 = np.array([alpha, beta])
        psit = psi0 * np.exp(-1j * np.array([lam, gam]) * t)
        want = hellinger(pure_density(psi0), pure_density(psit))
        assert abs(qubit_closed_form(alpha, beta, lam, gam, t) - want) < 1e-12


def test_linear_path_interpolates_endpoints():
    h0 = np.diag([0.0, 1.0]).astype(complex)
    h1 = np.diag([1.0, 0.0]).astype(complex)
    path = HamiltonianPath.linear(h0, h1, 2.0, steps=20)
    assert path.times[10] == 1.0
    assert np.max(np.abs(path.samples[0] - h0)) < 1e-15
    assert np.max(np.abs(path.samples[20] - h1)) < 1e-15
    assert np.max(np.abs(path.samples[10] - (h0 + h1) / 2.0)) < 1e-15


def test_trajectory_records_speeds_and_uncertainties():
    h = np.diag([0.0, 1.0]).astype(complex)
    psi = np.full(2, 1.0 / np.sqrt(2.0), dtype=complex)
    traj = evolve(psi, HamiltonianPath.constant(h, 1.0, steps=50))
    assert len(traj) == 51
    # equal superposition under a gap-1 qubit: Delta H = 1/2 throughout
    np.testing.assert_allclose(traj.uncertainties, 0.5, atol=1e-12)
    np.testing.assert_allclose(traj.speeds, np.sqrt(2.0) / 2.0, atol=1e-12)


def _literal_evolve(psi0, path):
    """Per-step oracle: one SpectralHamiltonian, exponential, speed and spread per grid point."""
    states, speeds, spreads = [np.asarray(psi0, dtype=complex)], [], []
    times = path.times
    for k, t in enumerate(times):
        h_k = path.samples[k]
        ham_k = SpectralHamiltonian.from_matrix(h_k)
        speeds.append(instantaneous_speed(states[k], ham_k))
        spreads.append(energy_uncertainty(states[k], h_k))
        if k + 1 < len(times):
            states.append(unitary_exp(ham_k, times[k + 1] - t) @ states[k])
    return np.array(states), np.array(speeds), np.array(spreads)


def _spectrum_path(rng, lam0, lam1, steps=30):
    """Linear path between two spectra in one random eigenbasis."""
    d = len(lam0)
    u = random_unitary(d, rng)
    h0 = u @ np.diag(lam0) @ u.conj().T
    h1 = u @ np.diag(lam1) @ u.conj().T
    return HamiltonianPath.linear(h0, h1, 1.0, steps=steps)


def _oracle_paths():
    rng = np.random.default_rng(65)
    for d in range(2, 7):
        yield f"random d={d}", d, HamiltonianPath.linear(
            random_hermitian(d, rng), random_hermitian(d, rng), 1.0, steps=30)
        degenerate = np.repeat(np.sort(rng.uniform(-2.0, 2.0, 2)), [d // 2, d - d // 2])
        yield f"degenerate d={d}", d, _spectrum_path(rng, degenerate, 1.5 * degenerate)
        close = np.sort(rng.uniform(-2.0, 2.0, d))
        close[1] = close[0] + 0.5 * TOL_DEGEN
        yield f"near-degenerate d={d}", d, _spectrum_path(rng, close, close + 0.25)


@pytest.mark.parametrize("label,d,path", list(_oracle_paths()),
                         ids=[label for label, _, _ in _oracle_paths()])
def test_stacked_evolve_matches_the_per_step_oracle(label, d, path):
    psi0 = haar_random_state(d, np.random.default_rng(66))
    traj = evolve(psi0, path)
    states, speeds, spreads = _literal_evolve(psi0, path)
    assert np.max(np.abs(traj.states - states)) <= 1e-13
    assert np.max(np.abs(traj.speeds - speeds)) <= 1e-13
    assert np.max(np.abs(traj.uncertainties - spreads)) <= 1e-13


def test_near_degenerate_levels_merge_in_the_stacked_speeds():
    # levels 0.5 TOL_DEGEN apart are one level: weight moving between them
    # adds no speed, so the plus state on them sits still
    lam = np.array([0.0, 0.5 * TOL_DEGEN])
    path = HamiltonianPath.constant(np.diag(lam).astype(complex), 1.0, steps=10)
    traj = evolve(np.full(2, 1.0 / np.sqrt(2.0), dtype=complex), path)
    np.testing.assert_array_equal(traj.speeds, 0.0)


def _expm_product(path, psi0):
    psi = np.asarray(psi0, dtype=complex)
    for t0, t1, h in zip(path.times[:-1], path.times[1:], path.samples):
        psi = scipy.linalg.expm(-1j * (t1 - t0) * h) @ psi
    return psi


def test_twenty_step_evolve_matches_the_expm_product():
    rng = np.random.default_rng(67)
    for d in (2, 3, 4, 6):
        path = HamiltonianPath.linear(random_hermitian(d, rng, scale=0.5),
                                      random_hermitian(d, rng, scale=0.5), 1.0, steps=20)
        psi0 = haar_random_state(d, rng)
        traj = evolve(psi0, path)
        assert np.max(np.abs(traj.states[-1] - _expm_product(path, psi0))) < 1e-12


def test_step_guard_ignores_a_global_shift():
    # half width 1/2: 0.01 per step, although max|lambda| * dt = 2.02
    h = np.diag([100.0, 101.0]).astype(complex)
    psi0 = np.full(2, 1.0 / np.sqrt(2.0), dtype=complex)
    path = HamiltonianPath.constant(h, 1.0, steps=50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = evolve(psi0, path)
    assert np.max(np.abs(traj.states[-1] - _expm_product(path, psi0))) < 1e-10
    np.testing.assert_allclose(traj.uncertainties, 0.5, atol=1e-12)


def test_default_grid_does_not_depend_on_a_global_shift():
    rng = np.random.default_rng(68)
    h0, h1 = random_hermitian(3, rng), random_hermitian(3, rng)
    shift = 100.0 * np.eye(3)
    assert (len(HamiltonianPath.constant(h0 + shift, 1.0).times)
            == len(HamiltonianPath.constant(h0, 1.0).times))
    assert (len(HamiltonianPath.linear(h0 + shift, h1 + shift, 1.0).times)
            == len(HamiltonianPath.linear(h0, h1, 1.0).times))
    # half width 1 on the unit-interval default grid: 100 steps
    assert len(HamiltonianPath.constant(np.diag([-1.0, 1.0]), 1.0).times) == 101
    # the grid is set by steps= or by this default, never by a step size
    with pytest.raises(TypeError):
        HamiltonianPath.constant(np.diag([-1.0, 1.0]), 1.0, dt=0.1)


def test_coarse_grid_raises_before_any_step_and_warns_once():
    h = np.diag([-1.0, 1.0]).astype(complex)
    psi = np.array([1, 0], dtype=complex)
    times = np.linspace(0.0, 1.0, 11)
    # only the last samples are coarse: the guard sees the whole grid first
    path = HamiltonianPath(times, [h if t < 0.5 else 40.0 * h for t in times])
    with pytest.raises(GridTooCoarse, match="half spectral width"):
        evolve(psi, path)
    with pytest.warns(UserWarning, match="half spectral width") as record:
        evolve(psi, HamiltonianPath(np.linspace(0.0, 1.0, 6), np.broadcast_to(h, (6, 2, 2))))
    assert len(record) == 1          # five coarse steps, one warning


def test_near_hermitian_samples_evolve_as_their_hermitian_part():
    rng = np.random.default_rng(67)
    h = random_hermitian(3, rng)
    h[0, 2] += 1e-12            # within TOL_HERM
    psi0 = haar_random_state(3, rng)
    times = np.linspace(0.0, 1.0, 21)
    raw = evolve(psi0, HamiltonianPath(times, [h] * 21))
    part = evolve(psi0, HamiltonianPath(times, [hermitianize(h)] * 21))
    assert np.array_equal(raw.states, part.states)
    const = evolve(psi0, HamiltonianPath.constant(h, 1.0, steps=20))
    assert np.array_equal(const.states, part.states)


def _package_paths():
    """Package paths, each with a scalar rebuild of its stack, one grid point at a time."""
    rng = np.random.default_rng(69)
    for d in range(1, 6):
        for t_final in (0.0, 0.3, 1.0, 2.7):
            for steps in (None, 1, 7, 20):
                h0 = random_hermitian(d, rng, scale=0.5)
                h1 = random_hermitian(d, rng, scale=0.5)
                e0, e1 = hermitianize(h0), hermitianize(h1)
                path = HamiltonianPath.linear(h0, h1, t_final, steps=steps)
                xs = [t / t_final if t_final > 0 else 0.0 for t in path.times]
                yield path, np.array([(1.0 - x) * e0 + x * e1 for x in xs])
                path = HamiltonianPath.constant(h0, t_final, steps=steps)
                yield path, np.array([e0 for _ in path.times])


def test_package_paths_carry_the_samplers_stack_bit_for_bit():
    # one broadcast gives (1 - t/T) H0 + (t/T) H1 exactly as the scalar rebuild does
    for path, want in _package_paths():
        assert path.samples.shape == want.shape == (len(path.times),) + want.shape[1:]
        # tobytes: the sign of a zero entry counts too
        assert path.samples.tobytes() == want.tobytes()


def test_only_a_callers_stack_is_checked_and_only_once(monkeypatch):
    checked = []
    require_hermitian = dynamics.require_hermitian
    monkeypatch.setattr(dynamics, "require_hermitian",
                        lambda a: checked.append(np.shape(a)) or require_hermitian(a))
    rng = np.random.default_rng(70)
    h0, h1 = random_hermitian(3, rng, scale=0.5), random_hermitian(3, rng, scale=0.5)
    psi0 = haar_random_state(3, rng)
    paths = [HamiltonianPath.linear(h0, h1, 1.0, steps=20),
             HamiltonianPath.constant(h0, 1.0, steps=20)]
    assert checked == [(2, 3, 3), (3, 3)]       # the endpoints, never the stacks
    paths.append(HamiltonianPath(paths[0].times, paths[0].samples))
    assert checked[2:] == [(21, 3, 3)]          # a caller's stack, at construction
    for path in paths:
        evolve(psi0, path)
    assert len(checked) == 3                    # evolve checks no stack


def test_a_callers_copy_of_a_package_stack_evolves_bit_for_bit():
    rng = np.random.default_rng(72)
    for d in range(1, 6):
        h0, h1 = random_hermitian(d, rng, scale=0.5), random_hermitian(d, rng, scale=0.5)
        psi0 = haar_random_state(d, rng)
        for path in (HamiltonianPath.linear(h0, h1, 1.0, steps=20),
                     HamiltonianPath.constant(h0, 1.0)):
            want = evolve(psi0, path)
            got = evolve(psi0, HamiltonianPath(path.times, path.samples))
            for name in ("times", "states", "speeds", "uncertainties"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_a_given_step_count_needs_no_spectral_width(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    rng = np.random.default_rng(71)
    h0, h1 = random_hermitian(3, rng), random_hermitian(3, rng)
    HamiltonianPath.linear(h0, h1, 1.0, steps=20)
    HamiltonianPath.constant(h0, 1.0, steps=20)
    assert calls == []
    HamiltonianPath.linear(h0, h1, 1.0)     # the default grid reads the width
    assert len(calls) == 1


@pytest.mark.parametrize("build", [
    lambda h: HamiltonianPath.constant(h, 0.0),
    lambda h: HamiltonianPath.linear(h, 2.0 * h, 0.0),
], ids=["constant", "linear"])
@pytest.mark.parametrize("h", [np.eye(2), np.diag([0.0, 1.0])], ids=["flat", "gapped"])
def test_zero_duration_gets_the_one_step_grid(build, h):
    path = build(h)
    np.testing.assert_array_equal(path.times, [0.0, 0.0])
    psi0 = np.full(2, 1.0 / np.sqrt(2.0), dtype=complex)
    traj = evolve(psi0, path)
    np.testing.assert_array_equal(traj.states, [psi0, psi0])


def test_a_path_cannot_be_reassigned_or_written():
    times = np.linspace(0.0, 1.0, 11)
    paths = [HamiltonianPath.linear(np.diag([0.0, 1.0]), [[0.0, 2.0], [2.0, 3.0]], 1.0, steps=10),
             HamiltonianPath.constant(np.diag([0.0, 1.0]), 1.0, steps=10),
             HamiltonianPath(times, np.broadcast_to(np.eye(2), (11, 2, 2)))]
    for path in paths:
        with pytest.raises(dataclasses.FrozenInstanceError):
            path.times = times ** 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            path.samples = path.samples[::-1]
        with pytest.raises(ValueError, match="read-only"):
            path.times[3] = 0.09
        with pytest.raises(ValueError, match="read-only"):
            path.samples[3] = 0.0
    assert [f.name for f in dataclasses.fields(HamiltonianPath)] == ["times", "samples"]


def test_a_callers_arrays_are_copied_not_frozen():
    times = np.linspace(0.0, 1.0, 5)
    samples = np.array([np.diag([0.0, t]) for t in times])
    path = HamiltonianPath(times, samples)
    times[1], samples[1] = 0.9, 0.0             # the caller's arrays stay writeable
    assert path.times[1] == 0.25 and path.samples[1, 1, 1] == 0.25


def test_a_reversed_grid_warns_and_evolves_backwards():
    h = np.array([[0.3, 0.4], [0.4, -0.3]], dtype=complex)
    psi = np.array([1.0, 0.0], dtype=complex)
    with pytest.warns(UserWarning, match="half spectral width") as record:
        back = evolve(psi, HamiltonianPath.constant(h, -1.0, steps=4))
    assert len(record) == 1
    want = scipy.linalg.expm(1j * h) @ psi
    assert np.max(np.abs(back.states[-1] - want)) < 1e-12


@pytest.mark.parametrize("build", [
    lambda: HamiltonianPath([0.0, 1.0], [np.diag([np.nan, 0.0])] * 2),
    lambda: HamiltonianPath([0.0, 1.0], [np.array([[0.0, np.inf], [0.0, 0.0]])] * 2),
    lambda: HamiltonianPath.constant(np.diag([np.nan, 0.0]), 1.0, steps=4),
    lambda: HamiltonianPath.linear(np.eye(2), np.diag([0.0, np.inf]), 1.0, steps=4),
    lambda: HamiltonianPath.linear(np.diag([np.nan, 0.0]), np.eye(2), 1.0),
    lambda: HamiltonianPath([0.0, 1.0], [np.diag([np.inf, 0.0])] * 2),
], ids=["caller-nan", "caller-inf", "constant-nan", "linear-inf-end", "linear-nan-start",
        "caller-inf-diagonal"])
def test_non_finite_samples_are_named_as_such(build):
    # warnings as errors: inf - inf in the Hermiticity residual would warn first
    with pytest.raises(NotHermitian, match="^matrix entries are not all finite$"), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        build()


def test_a_trajectory_cannot_be_reassigned_or_written_and_copies_nothing():
    path = HamiltonianPath.linear(np.diag([0.0, 1.0]), [[0.0, 0.2], [0.2, 0.3]], 1.0, steps=10)
    traj = evolve(np.array([1.0, 0.0]), path)
    assert np.shares_memory(traj.times, path.times)     # a view of the path's grid, not a copy
    for name in ("times", "states", "speeds", "uncertainties"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(traj, name, getattr(traj, name).copy())
        with pytest.raises(ValueError, match="read-only"):
            getattr(traj, name)[0] = 0.0
    # a caller's arrays are viewed, not frozen: they stay writeable
    speeds = np.zeros(11)
    view = Trajectory(traj.times, traj.states, speeds, speeds)
    speeds[0] = 1.0
    assert view.speeds[0] == 1.0 and np.shares_memory(view.speeds, speeds)


@pytest.mark.parametrize("steps,outcome", [
    (-1, "ValueError: steps must be a non-negative integer, got -1"),
    (-5, "ValueError: steps must be a non-negative integer, got -5"),
    (2.5, "TypeError"),
    (0, None),
], ids=["minus-1", "minus-5", "non-integer", "zero"])
def test_a_step_count_is_checked_where_it_enters(steps, outcome):
    h = np.diag([0.0, 1.0]).astype(complex)
    for build in (lambda: HamiltonianPath.constant(h, 1.0, steps=steps),
                  lambda: HamiltonianPath.linear(h, 2.0 * h, 1.0, steps=steps)):
        if outcome is None:         # no step: the one-point grid, and the state as given
            path = build()
            assert path.times.tolist() == [0.0] and path.samples.shape == (1, 2, 2)
            traj = evolve(np.array([1.0, 0.0]), path)
            assert traj.states.tolist() == [[1.0, 0.0]] and traj.speeds.tolist() == [0.0]
            continue
        with pytest.raises((ValueError, TypeError)) as info:
            build()
        assert f"{type(info.value).__name__}: {info.value}".startswith(outcome)


# The parent's grid, propagation, speeds and Trajectory build, kept as they were, so one
# evolve call and its path can be compared with them by bytes.

def _parent_grid(t_final, steps, h):
    dynamics._finite_times(t_final)
    if steps is None:
        half_width = dynamics._half_width(h)
        dt = 0.01 / half_width if half_width > 0 else t_final
        steps = max(1, int(np.ceil(t_final / dt))) if dt else 1
    return np.linspace(0.0, t_final, steps + 1)


def _parent_propagate(psi0, times, h):
    w, v = np.linalg.eigh(h)
    dts = np.diff(times)
    steps = (w[:-1, -1] - w[:-1, 0]) / 2.0 * np.abs(dts)
    worst = float(steps.max()) if steps.size else 0.0
    assert worst <= dynamics._WARN_STEP             # every case here is below the warning
    u = linalg._eigenbasis_operators(v[:-1], np.exp(-1j * w[:-1] * dts[:, None]))
    states = np.empty((len(times), len(psi0)), dtype=complex)
    states[0] = psi0
    rows = list(states)
    for u_k, src, dst in zip(list(u), rows, rows[1:]):
        u_k.dot(src, dst)
    drift = float(np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)))
    assert drift <= linalg.TOL_DRIFT
    return states, w, v


def _parent_stacked_speeds(w, v, states):
    weights = np.abs(np.einsum("kji,kj->ki", v.conj(), states)) ** 2
    levels, level_of = linalg._cluster_levels(w)
    member = level_of[:, :, None] == np.arange(levels.shape[1])
    r = np.einsum("kj,kjm->km", weights, member)
    speeds = np.sqrt(np.maximum(0.0, np.einsum("kp,kpq,kq->k", r, gap_squared_matrix(levels), r)))
    x = w - w[..., :1]
    mean = (weights * x).sum(axis=-1)
    dev = x - mean[..., None]
    return speeds, np.sqrt((weights * dev * dev).sum(axis=-1))


def _parent_evolve(psi0, times, samples):
    """times, states, speeds, uncertainties as the parent's evolve built its Trajectory."""
    psi0 = np.asarray(psi0, dtype=complex).reshape(-1)
    states, w, v = _parent_propagate(psi0, times, samples)
    return (times, states) + _parent_stacked_speeds(w, v, states)


def _parent_cases():
    """(label, built path, the parent's times and samples, psi0) over d = 1..6, the step
    counts, zero and negative durations, package and caller paths, and the oracle paths."""
    rng = np.random.default_rng(73)
    for d in range(1, 7):
        for steps in (None, 0, 1, 7, 20):
            for t_final in (1.0, 0.0, -0.4):
                # below the warning's step size on every grid
                h0 = random_hermitian(d, rng, scale=0.01)
                h1 = random_hermitian(d, rng, scale=0.01)
                psi0 = haar_random_state(d, rng)
                label = f"d={d} steps={steps} T={t_final}"
                ends = hermitianize(np.array([h0, h1]))
                times = _parent_grid(t_final, steps, ends)
                linear = dynamics._linear_samples(ends, t_final, times)
                yield f"linear {label}", HamiltonianPath.linear(h0, h1, t_final, steps=steps), \
                    times, linear, psi0
                yield f"caller {label}", HamiltonianPath(times.copy(), list(linear)), \
                    times, linear, psi0
                e0 = hermitianize(h0)
                times = _parent_grid(t_final, steps, e0)
                yield f"constant {label}", HamiltonianPath.constant(h0, t_final, steps=steps), \
                    times, np.broadcast_to(e0, (len(times), d, d)), psi0
    for label, d, path in _oracle_paths():
        yield label, path, np.array(path.times), np.array(path.samples), \
            haar_random_state(d, np.random.default_rng(74))


def test_one_evolve_call_equals_the_parents_bit_for_bit():
    labels = []
    for label, path, times, samples, psi0 in _parent_cases():
        if label.startswith("caller"):          # its check, then its Hermitian part
            samples = hermitianize(samples)
        # tobytes: the sign of a zero entry counts too
        assert path.times.tobytes() == times.tobytes(), label
        assert path.samples.tobytes() == np.ascontiguousarray(samples).tobytes(), label
        traj = evolve(psi0, path)
        want = _parent_evolve(psi0, times, samples)
        for name, array in zip(("times", "states", "speeds", "uncertainties"), want):
            got = getattr(traj, name)
            assert got.tobytes() == array.tobytes() and got.dtype == array.dtype, (label, name)
            assert not got.flags.writeable, (label, name)
        labels.append(label)
    assert len(labels) == 6 * 5 * 3 * 3 + 15


def test_a_callers_trajectory_views_its_arrays_read_only_and_leaves_them_writeable():
    path = HamiltonianPath.linear(np.diag([0.0, 1.0]), [[0.0, 0.2], [0.2, 0.3]], 1.0, steps=10)
    traj = evolve(np.array([1.0, 0.0]), path)
    given = {name: getattr(traj, name).copy() for name in ("times", "states", "speeds",
                                                           "uncertainties")}
    view = Trajectory(**given)
    for name, array in given.items():
        got = getattr(view, name)
        assert np.shares_memory(got, array) and not got.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            got[0] = 0.0
        array[0] = 7.0                  # the caller's array stays writeable, and is viewed
        assert got[0].tolist() == array[0].tolist(), name


def test_the_checked_constructor_takes_fd_convergences_8001_point_path_bit_for_bit():
    # fd-convergence's grid and midpoint samples: Hermitian ends and a real x give exactly
    # Hermitian samples, so the checked path (a copy of times, the samples' Hermitian part)
    # holds the bytes the check installs unchecked
    rng = np.random.default_rng(52)
    times = np.linspace(0.0, 0.2, 8001)
    for d in (2, 3, 4):
        ends = hermitianize(np.array([random_hermitian(d, rng) for _ in range(2)]))
        samples = dynamics._linear_samples(ends, 0.2, times + 2.5e-5 / 2.0)
        checked = HamiltonianPath(times, samples)
        installed = linalg._trusted(HamiltonianPath, times.copy(), samples.copy())
        for name in ("times", "samples"):
            got, want = getattr(checked, name), getattr(installed, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (d, name)
        assert times.flags.writeable and samples.flags.writeable
