"""The check registry itself: determinism, overrides, registry."""

import inspect
import itertools

import numpy as np
import pytest
import scipy.linalg

import coherence_speed.verification as verification
from coherence_speed.errors import UnknownSuite
from coherence_speed.verification import (
    SUITES,
    CheckResult,
    _block_diag,
    check_additivity,
    check_benchmark_identity,
    check_coefficient_grid,
    check_faithfulness,
    check_fd_convergence,
    check_max_coherent_dominance,
    check_qsl_mt_floor,
    check_qudit_battery,
    check_qutrit_equality_construction,
    check_thm1_equality,
    check_thm2_equality,
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


def test_unknown_suite_lists_the_valid_names():
    with pytest.raises(UnknownSuite) as err:
        run_suite("not-a-suite")
    assert "thm1" in str(err.value)


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


# worst values and details at seed 3, recorded before these checks took
# their Generator from the declaration instead of seeding it themselves;
# the worst values hold to the last bit for one numpy and BLAS build
# (numpy 2.4 with its bundled OpenBLAS), a changed stream moves the details
@pytest.mark.parametrize("check, trials, worst, detail", [
    (check_max_coherent_dominance, 10, -0.2893723824787102, ""),
    (check_coefficient_grid, 200, -0.06973987283173555,
     "random-spectrum excess over 1: -4.4e-06"),
    (check_faithfulness, 20, 1.7763568394002505e-15, "min coherent-side value 5.8e-02"),
    (check_fd_convergence, 2, 1.4762331097761816e-05, "ratios 2.00, 2.00, 2.00, 2.00"),
    (check_qudit_battery, 5, -0.00044927678989116433,
     "reduction 3.2e-16, bound margin -4.5e-04, diagonal work 2.9e-15"),
])
def test_irregular_checks_keep_their_seeded_streams(check, trials, worst, detail):
    res = check(seed=3, trials=trials)
    assert (res.worst, res.detail) == (worst, detail)



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
