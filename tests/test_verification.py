"""The check registry itself: determinism, overrides, registry."""

import dataclasses
import functools
import inspect
import itertools

import numpy as np
import pytest
import scipy.linalg

import coherence_speed.verification as verification
from coherence_speed.avgdist import _orbit_terms, avg_distance_closed
from coherence_speed.channels import (
    KrausChannel,
    StinespringDilation,
    _dilate,
    _theorem3_bound,
    apply_kraus,
    dilate,
    random_channel,
    theorem3_bound,
)
from coherence_speed.coherence import c_half
from coherence_speed.linalg import (
    SpectralHamiltonian,
    _Density,
    _eigenbasis_operators,
    dagger,
    partial_trace,
    random_density,
    random_unitary,
)
from coherence_speed.metrics import hellinger
from coherence_speed.verification import (
    SUITES,
    CheckResult,
    _block_diag,
    _spectrum,
    check_additivity,
    check_battery_trajectories,
    check_benchmark_identity,
    check_coefficient_grid,
    check_coefficient_independence,
    check_faithfulness,
    check_fd_convergence,
    check_max_coherent_dominance,
    check_qsl_mt_floor,
    check_qudit_battery,
    check_qutrit_equality_construction,
    check_thm1_equality,
    check_thm2_equality,
    check_thm3_dilation_consistency,
    check_thm3_dpi,
    check_thm3_inequality,
    check_thm3_product_equality,
    check_variational_identity,
    failures_as_dicts,
    run_suite,
)


# reported trial counts at a --trials 4 override, where they differ from 4
_OWN_COUNTS = {"qutrit-equality-construction": 1,
               "battery-trajectories": 18,      # 3 pulses x 3 states x 2 axes
               "max-coherent-dominance": 5,     # 5 x max(1, trials // 5)
               "qudit-battery": 8}              # two passes of trials each


def test_every_suite_runs_and_passes_at_small_trial_counts():
    for name in SUITES:
        for res in run_suite(name, seed=1, trials=4):
            assert isinstance(res, CheckResult)
            assert res.passed, f"{name}: {res.line()}"
            assert res.line().startswith("PASS ")
            assert res.trials == _OWN_COUNTS.get(res.name, 4), res.line()


def test_same_seed_reproduces_worst_values():
    a = check_thm1_equality(seed=5, trials=12)
    b = check_thm1_equality(seed=5, trials=12)
    c = check_thm1_equality(seed=6, trials=12)
    assert a.worst == b.worst
    assert a.worst != c.worst


def test_failures_serialize_only_failed_checks():
    good = check_benchmark_identity(seed=1, trials=5)
    bad = check_benchmark_identity(seed=1, trials=5, tol=1e-30)
    assert not bad.passed
    out = failures_as_dicts([good, bad])
    assert len(out) == 1
    assert out[0]["check"] == bad.name
    assert out[0]["worst"] == bad.worst


def test_a_nan_in_a_later_trial_of_a_per_trial_body_fails_and_names_it(monkeypatch):
    # max(figures) skips a NaN after the first element: trial 3's NaN used to print PASS
    calls = itertools.count()
    overlap = verification.benchmark_overlap_check

    def nan_at_three(*args):
        lhs, rhs = overlap(*args)
        return (float("nan"), rhs) if next(calls) == 3 else (lhs, rhs)

    monkeypatch.setattr(verification, "benchmark_overlap_check", nan_at_three)
    res = check_benchmark_identity(seed=1, trials=6)
    assert not res.passed and np.isnan(res.worst)
    assert res.detail == "trial 3: non-finite figure nan"
    assert res.line().startswith("FAIL benchmark-identity: worst nan ")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_a_non_finite_figure_in_a_later_trial_of_a_stacked_body_fails_and_names_it(
        monkeypatch, bad):
    bound = verification._theorem3_bound

    def spoiled(dilations, states):
        average, rhs = bound(dilations, states)
        return (lambda: [bad if k == 2 else lhs for k, lhs in enumerate(average())]), rhs

    monkeypatch.setattr(verification, "_theorem3_bound", spoiled)
    res = check_thm3_inequality(seed=1, trials=5)
    assert not res.passed and str(res.worst) == str(bad)
    assert res.detail == f"trial 2: non-finite figure {bad}"


def _nan_at_call(monkeypatch, name, call, spoil):
    """Patch ``verification.<name>`` so that its call number ``call`` returns spoil(result)."""
    calls, real = itertools.count(), getattr(verification, name)

    def patched(*args, **kwargs):
        out = real(*args, **kwargs)
        return spoil(out) if next(calls) == call else out

    monkeypatch.setattr(verification, name, patched)


def _nan_work(run):
    return dataclasses.replace(run, avg_work=np.full_like(run.avg_work, np.nan))


# running maxima and minima in the check bodies skipped these NaNs and printed PASS
@pytest.mark.parametrize("check, name, call, spoil, trials, detail", [
    (check_battery_trajectories, "simulate_battery", 2, _nan_work, None,
     "trial 2: non-finite figure nan"),
    (check_faithfulness, "c_half", 3, lambda c: float("nan"), 8,      # coherent side: odd calls
     "min coherent-side value [1]: non-finite figure nan"),
    (check_qudit_battery, "avg_extracted_work", 2, lambda w: float("nan"), 5,
     "reduction [2]: non-finite figure nan"),
])
def test_a_nan_in_any_column_of_a_check_body_fails_and_names_it(monkeypatch, check, name, call,
                                                                spoil, trials, detail):
    plain = check(seed=1, trials=trials)
    _nan_at_call(monkeypatch, name, call, spoil)
    res = check(seed=1, trials=trials)
    assert not res.passed and res.detail == detail
    assert res.trials == plain.trials
    # a NaN in a side column leaves the headline's worst as it was
    assert np.isnan(res.worst) if detail.startswith("trial") else res.worst == plain.worst


def test_a_trial_without_a_spread_bound_passes(monkeypatch):
    # the "no bound" of a stationary state is a floor of 0, not a non-finite figure
    _nan_at_call(monkeypatch, "qsl_bounds", 2, lambda b: dataclasses.replace(b, mt_time=None))
    res = check_qsl_mt_floor(seed=1, trials=5)
    assert res.passed and res.detail == "" and np.isfinite(res.worst), res.line()


def test_tolerance_override_propagates():
    res = check_thm1_equality(seed=1, trials=5, tol=0.5)
    assert res.tol == 0.5 and res.passed


def test_every_check_is_in_one_suite_and_has_its_own_salt():
    checks = [fn for name, fn in vars(verification).items() if name.startswith("check_")]
    registered = [fn for fns in SUITES.values() for fn in fns]
    assert sorted(registered, key=id) == sorted(checks, key=id)
    assert len({fn.salt for fn in registered}) == len(registered)


def test_every_check_declares_its_dimension_rule():
    # thm2-equality alone derives its dimension (from its level multiplicities)
    for fns in SUITES.values():
        for fn in fns:
            assert (fn.dims is None) == (fn.__name__ == "check_thm2_equality"), fn.__name__
    # the decorator is the only place that applies a caller's dim
    assert "dim if dim" not in inspect.getsource(verification)


def test_only_the_decorator_reduces_and_judges_figures():
    source = inspect.getsource(verification)
    assert "max(worst" not in source and "min(min_" not in source
    for fns in SUITES.values():
        for fn in fns:
            assert "tol" not in inspect.signature(fn.body).parameters, fn.__name__


def test_every_check_takes_the_same_keywords():
    for fns in SUITES.values():
        for fn in fns:
            assert list(inspect.signature(fn).parameters) == ["seed", "trials", "dim", "tol"]


@pytest.mark.parametrize("check, trials, reported_trials, reported_tol", [
    (check_fd_convergence, 1, 1, 0.5),               # tol bounds |ratio - 2|
    (check_qutrit_equality_construction, 7, 1, 0.5),
    (check_max_coherent_dominance, 12, 10, 0.5),     # 5 x (trials // 5)
    (check_qudit_battery, 3, 6, 0.5),                # two passes of trials each
    (check_coefficient_grid, 50, 50, 0.5),           # trials is the grid size
])
def test_irregular_checks_report_their_own_counts(check, trials, reported_trials,
                                                  reported_tol):
    res = check(seed=1, trials=trials, tol=0.5)
    assert (res.trials, res.tol) == (reported_trials, reported_tol)
    assert res.passed, res.line()


@pytest.mark.parametrize("seed, trials", [(34, 4), (42, 4), (70, 4), (136, 1)])
def test_fd_convergence_skips_draws_without_a_first_order_term(seed, trials):
    # without the slope floor, the last of these trials kept a draw whose
    # speed slope at t_mid was 0.012-0.035 and whose ratios read 0.55 to 35
    res = check_fd_convergence(seed=seed, trials=trials)
    assert res.passed and res.worst < 0.1, res.line()


def test_spread_floor_holds_for_close_levels_far_from_zero():
    # seed 83 draws two levels 1.4e-3 apart near 2.83, where the moment form
    # sqrt(<H^2> - <H>^2) of the spread overstated the minimum time by 1.3e-9
    assert check_qsl_mt_floor(seed=83).passed


def _recorded(monkeypatch, name, position, check, **kwargs):
    """Argument ``position`` of every call that ``check`` makes to ``verification.<name>``."""
    seen = []
    real = getattr(verification, name)

    def recording(*args, **kw):
        seen.append(args[position])
        return real(*args, **kw)

    monkeypatch.setattr(verification, name, recording)
    res = check(**kwargs)
    assert res.passed, res.line()
    assert "dim fixed" not in res.detail and "ran d" not in res.detail
    return seen


def _drawn_dims(monkeypatch, **overrides):
    return _recorded(monkeypatch, "random_density", 0, check_variational_identity,
                     trials=6, **overrides)


def test_dimension_cycle_and_dim_override(monkeypatch):
    assert _drawn_dims(monkeypatch) == [2, 3, 4, 5, 6, 2]
    assert _drawn_dims(monkeypatch, dim=4) == [4] * 6


# reported trials, worst values and details at seed 3, recorded before these
# checks took their Generator from the declaration instead of seeding it
# themselves (the last three rows before their bodies returned figures for the
# decorator to reduce); the worst values hold to the last bit for one numpy and
# BLAS build (numpy 2.4 with its bundled OpenBLAS), a changed stream moves the details
@pytest.mark.parametrize("check, trials, reported, worst, detail", [
    (check_max_coherent_dominance, 10, 10, -0.2893723824787102, ""),
    (check_coefficient_grid, 200, 200, -0.06973987283173555,
     "random-spectrum excess over 1: -4.4e-06"),
    (check_faithfulness, 20, 20, 1.7763568394002505e-15, "min coherent-side value 5.8e-02"),
    (check_fd_convergence, 2, 2, 1.4762331097761816e-05, "ratios 2.00, 2.00, 2.00, 2.00"),
    (check_qudit_battery, 5, 10, -0.00044927678989116433,
     "reduction 3.2e-16, bound margin -4.5e-04, diagonal work 2.9e-15"),
    (check_battery_trajectories, None, 18, 1.1102230246251565e-16,
     "zero-coherence worst work 0.0e+00"),
    (check_qutrit_equality_construction, None, 1, 2.220446049250313e-16,
     "completeness 2.2e-16, output 1.1e-16, witness 0.0e+00"),
    (check_faithfulness, 1, 1, 0.0, "min coherent-side value inf"),   # no coherent-side trial
])
def test_irregular_checks_keep_their_seeded_streams(check, trials, reported, worst, detail):
    res = check(seed=3, trials=trials)
    assert (res.passed, res.trials, float(res.worst).hex(), res.detail) == (
        True, reported, worst.hex(), detail)



@pytest.mark.parametrize("check, name, position", [
    pytest.param(check_thm1_equality, "random_density", 0, id="cycled-by-trial"),
    pytest.param(check_faithfulness, "random_density", 0, id="cycled-by-loop-pass"),
    pytest.param(check_additivity, "random_density", 0, id="drawn-twice-per-trial"),
    pytest.param(check_coefficient_grid, "_spectrum", 1, id="drawn-per-loop-pass"),
])
def test_a_callers_dim_replaces_cycled_and_drawn_dimensions(monkeypatch, check, name, position):
    assert len(set(_recorded(monkeypatch, name, position, check, trials=40))) > 1
    assert set(_recorded(monkeypatch, name, position, check, trials=40, dim=3)) == {3}


_FIXED = [fn for fns in SUITES.values() for fn in fns if isinstance(fn.dims, int)]


def test_the_fixed_dimension_checks():
    assert {fn.__name__: fn.dims for fn in _FIXED} == {
        "check_thm3_inequality": 2, "check_thm3_dpi": 2,
        "check_thm3_dilation_consistency": 2, "check_thm3_product_equality": 2,
        "check_qutrit_equality_construction": 3, "check_qubit_closed_form": 2,
        "check_orthogonality_time": 2, "check_battery_trajectories": 2,
        "check_battery_interaction_invariance": 2}


@pytest.mark.parametrize("check", _FIXED, ids=lambda fn: fn.__name__)
def test_a_fixed_check_ignores_a_callers_dim_and_says_so(check):
    plain, pinned = check(seed=0, trials=3), check(seed=0, trials=3, dim=3)
    note = f"dim fixed at {check.dims}"
    assert pinned.detail == (f"{plain.detail}; {note}" if plain.detail else note)
    assert (pinned.passed, pinned.worst, pinned.trials) == (plain.passed, plain.worst,
                                                            plain.trials)


@pytest.mark.parametrize("dim, low", [(2, 3), (5, 5)])
def test_thm2_takes_a_callers_dim_as_a_floor_and_names_the_dimensions_it_ran(dim, low):
    # at seed 0 the 300 default trials run every dimension from the floor to 10
    res = check_thm2_equality(seed=0, dim=dim)
    assert res.passed, res.line()
    assert res.detail == f"ran d = {list(range(low, 11))}"
    assert check_thm2_equality(seed=0, trials=20).detail == ""


def test_block_diag_equals_scipy_for_mixed_sizes_and_dtypes():
    rng = np.random.default_rng(96)
    complex_block = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    blocks = [rng.normal(size=(2, 2)), complex_block, np.arange(4, dtype=np.int32).reshape(1, 4),
              np.ones((3, 1), dtype=np.float32), np.zeros((2, 2))]
    for k in range(1, len(blocks) + 1):
        for chosen in itertools.permutations(blocks, k):
            want = scipy.linalg.block_diag(*chosen)
            got = _block_diag(*chosen)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


# The four theorem-3 checks as per-trial bodies, one trial from its own generator through
# the single-call library functions: the bodies the stacked checks replaced, as they were.
def _qubit_env_case(rng):
    channel = random_channel(2, 2, rng)
    dilation = dilate(channel)
    rho = random_density(2, rank=int(rng.integers(1, 3)), seed=rng)
    return channel, dilation, rho


def _one_inequality(i, rng):
    _, dilation, rho = _qubit_env_case(rng)
    lhs, rhs = theorem3_bound(dilation, rho)
    return lhs - rhs


def _one_dpi(i, rng):
    _, dilation, rho = _qubit_env_case(rng)
    joint = dilation.joint_input(rho)
    dims = (dilation.sys_dim, dilation.env_dim)
    ham = dilation.hamiltonian

    def excess(lam):
        u = _eigenbasis_operators(ham.eigenvectors, np.exp(-1j * lam * dilation.duration))
        joint_s = u @ joint @ dagger(u)
        return hellinger(partial_trace(joint_s, dims, over=1), rho) - hellinger(joint_s, joint)

    return float(np.max(next(_orbit_terms([ham], excess))))


def _one_dilation_consistency(i, rng):
    channel, dilation, rho = _qubit_env_case(rng)
    direct = hellinger(apply_kraus(channel, rho), rho)
    identity = tuple(range(len(dilation.levels)))
    permuted = dataclasses.replace(dilation,
                                   hamiltonian=dilation.hamiltonian.permute_levels(identity))
    via_dilation = hellinger(permuted.apply(rho), rho)
    return abs(direct - via_dilation)


def _one_product_equality(i, rng):
    eye2 = np.eye(2)
    while True:
        ham_a = SpectralHamiltonian.from_spectrum(
            _spectrum(rng, 2, min_gap=1e-2), random_unitary(2, rng))
        h_env = (np.zeros((2, 2)) if i % 4 == 0
                 else np.diag(_spectrum(rng, 2, min_gap=1e-2)))
        h_joint = np.kron(ham_a.matrix(), eye2) + np.kron(eye2, h_env)
        gaps = np.diff(np.sort(np.linalg.eigvalsh(h_joint)))
        # keep only exactly-degenerate or safely-separated joint spectra
        if not np.any((gaps > 1e-12) & (gaps < 1e-6)):
            break
    dilation = StinespringDilation(
        hamiltonian=SpectralHamiltonian.from_matrix(h_joint),
        sys_dim=2, env_dim=2,
        env_state=np.array([1.0, 0.0], dtype=complex),
        duration=float(rng.uniform(0.2, 2.0)))
    rho = random_density(2, rank=int(rng.integers(1, 3)), seed=rng)
    lhs, rhs = theorem3_bound(dilation, rho)
    return abs(lhs - rhs)


_PER_TRIAL = {check_thm3_inequality: _one_inequality, check_thm3_dpi: _one_dpi,
              check_thm3_dilation_consistency: _one_dilation_consistency,
              check_thm3_product_equality: _one_product_equality}


def _per_trial_figures(check, seed, trials):
    children = np.random.default_rng([seed, check.salt]).spawn(trials)
    return [_PER_TRIAL[check](i, rng) for i, rng in enumerate(children)]


@pytest.mark.parametrize("trials", [1, 7])
@pytest.mark.parametrize("seed", [0, 1, 34, 83])
@pytest.mark.parametrize("check", list(_PER_TRIAL), ids=lambda fn: fn.__name__)
def test_stacked_thm3_checks_equal_their_per_trial_bodies_bit_for_bit(check, seed, trials):
    # at 7 trials product-equality mixes degenerate draws (trials 0 and 4) with the rest
    want = _per_trial_figures(check, seed, trials)
    rngs = np.random.default_rng([seed, check.salt]).spawn(trials)
    got = check.body(rngs, verification._Dims(check.dims, None))     # the picker, as declared
    assert [float(x).hex() for x in got] == [x.hex() for x in want]
    res = check(seed=seed, trials=trials)
    assert (res.passed, res.trials, res.worst.hex()) == (True, trials, max(want).hex())


@pytest.mark.parametrize("check", list(_PER_TRIAL), ids=lambda fn: fn.__name__)
def test_a_stacked_check_under_dim_notes_it_and_keeps_its_figures_bit_for_bit(check):
    res = check(seed=0, trials=7, dim=3)
    assert res.detail == "dim fixed at 2"
    assert res.worst.hex() == max(_per_trial_figures(check, 0, 7)).hex()


# The thm1 and thm2 checks of the mixed-state oracle as per-trial bodies, one trial from its
# own generator through the single-call library functions: the bodies the stacked checks
# replaced, as they were.
def _one_thm1_equality(i, rng, d):
    ham = SpectralHamiltonian.from_spectrum(_spectrum(rng, d), random_unitary(d, rng))
    rho = random_density(d, rank=int(rng.integers(1, d + 1)), seed=rng)
    res = avg_distance_closed(rho, ham, float(rng.uniform(0.05, 8.0)),
                              include_brute=True)
    return res.gap


def _recovered_coefficient(rho, ham, t):
    res = avg_distance_closed(rho, ham, t, include_brute=True)
    return 1.0 - res.brute_force / (2.0 * res.coherence)


def _one_coefficient_independence(i, rng, d):
    ham = SpectralHamiltonian.from_spectrum(_spectrum(rng, d), random_unitary(d, rng))
    t = float(rng.uniform(0.3, 6.0))
    states = []
    while len(states) < 2:
        rho = random_density(d, rank=int(rng.integers(1, d + 1)), seed=rng)
        if c_half(rho, ham.decomposition) > 1e-3:
            states.append(rho)
    return abs(_recovered_coefficient(states[0], ham, t)
               - _recovered_coefficient(states[1], ham, t))


def _one_thm2_equality(i, rng, dims):
    m = 2 + i % 4
    mult = rng.integers(1, 3, m)
    if not np.any(mult > 1):
        mult[int(rng.integers(m))] = 2
    # a caller's dim is a floor: stretch multiplicities until the total reaches it
    while int(mult.sum()) < (dims.dim or 0):
        mult[int(rng.integers(m))] += 1
    levels = _spectrum(rng, m)
    vals = np.repeat(levels, mult)
    d = len(vals)
    dims.used.add(d)
    ham = SpectralHamiltonian.from_spectrum(vals, random_unitary(d, rng))
    rho = random_density(d, rank=int(rng.integers(1, d + 1)), seed=rng)
    res = avg_distance_closed(rho, ham, float(rng.uniform(0.05, 8.0)),
                              include_brute=True)
    return res.gap


# each check's per-trial body and default trial count
_ORACLE_PER_TRIAL = {check_thm1_equality: (_one_thm1_equality, 300),
                     check_coefficient_independence: (_one_coefficient_independence, 200),
                     check_thm2_equality: (_one_thm2_equality, 300)}


@functools.lru_cache(maxsize=None)
def _oracle_per_trial(check, seed, dim=None):
    """Per-trial figures at the default trial count (trial i draws from child i whatever the
    count, so a smaller count runs a prefix) and the dimensions they ran."""
    body, trials = _ORACLE_PER_TRIAL[check]
    dims = verification._Dims(check.dims, dim)
    children = np.random.default_rng([seed, check.salt]).spawn(trials)
    figures = [body(i, rng, dims if check.dims is None else dims(i))
               for i, rng in enumerate(children)]
    return figures, sorted(dims.used)


def _stacked_run(monkeypatch, check, **kwargs):
    """check(**kwargs) and the per-trial figures its stacked body returned on the way."""
    seen = []
    by_dim = verification._by_dim
    monkeypatch.setattr(verification, "_by_dim",
                        lambda *args: seen.append(by_dim(*args)) or seen[-1])
    res = check(**kwargs)
    assert len(seen) == 1
    return res, seen[0]


@pytest.mark.parametrize("trials", [1, 7, None])
@pytest.mark.parametrize("seed", [0, 1, 34, 83])
@pytest.mark.parametrize("check", list(_ORACLE_PER_TRIAL), ids=lambda fn: fn.__name__)
def test_stacked_oracle_checks_equal_their_per_trial_bodies_bit_for_bit(monkeypatch, check,
                                                                        seed, trials):
    n = _ORACLE_PER_TRIAL[check][1] if trials is None else trials
    want = _oracle_per_trial(check, seed)[0][:n]
    res, got = _stacked_run(monkeypatch, check, seed=seed, trials=trials)
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert (res.passed, res.trials, res.worst.hex(), res.detail) == (True, n, max(want).hex(), "")


@pytest.mark.parametrize("dim", [2, 5])
def test_stacked_thm2_under_dim_keeps_its_figures_and_note_bit_for_bit(monkeypatch, dim):
    want, used = _oracle_per_trial(check_thm2_equality, 0, dim)
    res, got = _stacked_run(monkeypatch, check_thm2_equality, seed=0, dim=dim)
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert res.worst.hex() == max(want).hex()
    assert res.detail == f"ran d = {used}" == f"ran d = {list(range(max(dim, 3), 11))}"


def _eigendata(dilation):
    ham = dilation.hamiltonian
    return (ham.eigenvalues.tobytes(), ham.eigenvectors.tobytes(), ham.levels.tobytes(),
            ham.level_of.tobytes(), dilation.env_dim)


def test_stacked_dilate_equals_single_calls_bit_for_bit():
    rng = np.random.default_rng(97)
    flip = np.diag([1.0, -1.0]).astype(complex)        # an eigenvalue -1: the fold of -pi
    basis = random_unitary(2, rng)
    unitary = [KrausChannel([u]) for u in (random_unitary(2, rng), flip,
                                           basis @ flip @ dagger(basis), np.eye(2), -np.eye(2))]
    stacks = [unitary] + [[random_channel(d, k, rng) for _ in range(5)]
                          for d, k in ((2, 2), (2, 3), (3, 2))]
    for channels in stacks:
        for env_dim in (None, len(channels[0].operators) + 1):       # K and K + 1
            stacked = [_eigendata(dil) for dil in _dilate(channels, env_dim)]
            assert stacked == [_eigendata(dilate(c, env_dim)) for c in channels]
    # one stack of 2, 2 (folded), 2 (folded), 1 and 1 (folded) levels
    assert [len(dil.levels) for dil in _dilate(unitary)] == [2, 2, 2, 1, 1]


def test_stacked_theorem3_bound_equals_single_calls_bit_for_bit():
    rng = np.random.default_rng(98)
    eye2 = np.eye(2)
    # product dilations as product-equality draws them, whose degenerate environment gives
    # 2 joint levels and a split one 4, and random channels' dilations, with 4
    hams = [np.kron(SpectralHamiltonian.from_spectrum(_spectrum(rng, 2, min_gap=1e-2),
                                                      random_unitary(2, rng)).matrix(), eye2)
            + np.kron(eye2, np.zeros((2, 2)) if k % 2 else np.diag(_spectrum(rng, 2)))
            for k in range(4)]
    dilations = [StinespringDilation(SpectralHamiltonian.from_matrix(h), 2, 2, eye2[0],
                                     float(rng.uniform(0.2, 2.0))) for h in hams]
    channels = [random_channel(2, 2, rng) for _ in range(4)]
    dilations += _dilate(channels)
    assert sorted({len(dil.levels) for dil in dilations}) == [2, 4]
    rhos = [random_density(2, rank=1 + k % 2, seed=rng) for k in range(len(dilations))]
    average, rhs = _theorem3_bound(dilations, [_Density.of(rho) for rho in rhos])
    stacked = [(lhs.hex(), bound.hex()) for lhs, bound in zip(average(), rhs)]
    assert stacked == [tuple(x.hex() for x in theorem3_bound(dil, rho))
                       for dil, rho in zip(dilations, rhos)]
    # one call as the benchmark makes it: a fresh dilation of a caller's tuple of Kraus
    # matrices, its family not built yet, at ranks 1 and 2
    for chan, rho, want in zip(channels, rhos[4:], stacked[4:]):
        fresh = dilate(KrausChannel(tuple(np.array(k) for k in chan.operators)))
        assert "decomposition" not in fresh.hamiltonian.__dict__
        assert tuple(x.hex() for x in theorem3_bound(fresh, rho)) == want
    assert {np.linalg.matrix_rank(rho) for rho in rhos[4:]} == {1, 2}


def test_rounds_draw_from_each_generator_what_its_own_loop_would_bit_for_bit():
    def own_loop(rng):
        while (x := rng.random()) <= 0.8:
            pass
        return x

    loops = np.random.default_rng(5).spawn(20)
    want = [own_loop(rng) for rng in loops]
    rngs, rounds = np.random.default_rng(5).spawn(20), []

    def judge(trials, xs):      # each round judged in one call
        rounds.append(list(trials))
        return [x if x > 0.8 else None for x in xs]

    assert verification._rounds(rngs, lambda k, rng: rng.random(), judge) == want
    assert rounds[0] == list(range(20)) and len(rounds) > 2
    assert all(set(later) <= set(earlier) for earlier, later in zip(rounds, rounds[1:]))
    assert [rng.random() for rng in rngs] == [rng.random() for rng in loops]
