"""The check registry itself: determinism, overrides, registry."""

import inspect

import numpy as np
import pytest

import coherence_speed.verification as verification
from coherence_speed.errors import UnknownSuite
from coherence_speed.verification import (
    SUITES,
    CheckResult,
    check_benchmark_identity,
    check_coefficient_grid,
    check_faithfulness,
    check_fd_convergence,
    check_max_coherent_dominance,
    check_qsl_mt_floor,
    check_qudit_battery,
    check_qutrit_equality_construction,
    check_thm1_equality,
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


def test_dim_override_is_respected():
    res = check_thm1_equality(seed=2, trials=6, dim=3)
    assert res.passed


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


def _drawn_dims(monkeypatch, **overrides):
    drawn = []
    real = verification.random_density

    def recording(d, *args, **kwargs):
        drawn.append(d)
        return real(d, *args, **kwargs)

    monkeypatch.setattr(verification, "random_density", recording)
    check_variational_identity(trials=6, **overrides)
    return drawn


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
