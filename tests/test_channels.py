"""Kraus channels, unitary dilations, and the open-system bound."""

import dataclasses
import json
import warnings

import numpy as np
import pytest
import scipy.linalg
from jsonschema import ValidationError

from coherence_speed import avgdist, channels, coherence, linalg, metrics
from coherence_speed.avgdist import b_coefficient
from coherence_speed.channels import (
    EqualityGapReport,
    KrausChannel,
    apply_kraus,
    dilate,
    equality_gap_analysis,
    load_channel,
    qutrit_equality_channel,
    random_channel,
    save_channel,
    theorem3_bound,
)
from coherence_speed.errors import DimensionMismatch, IncompleteKraus, InvalidState, NotPSD
from coherence_speed.linalg import (
    OrthogonalDecomposition,
    haar_random_state,
    pure_density,
    random_density,
    random_unitary,
)


def test_completeness_enforced():
    good = KrausChannel((np.eye(2, dtype=complex) / np.sqrt(2.0),
                         np.eye(2, dtype=complex) / np.sqrt(2.0)))
    assert good.dim == 2
    with pytest.raises(IncompleteKraus):
        KrausChannel((np.eye(2, dtype=complex),
                      0.5 * np.eye(2, dtype=complex)))


def test_completeness_residual_is_kept_from_the_check():
    rng = np.random.default_rng(52)
    for chan in (qutrit_equality_channel(), random_channel(2, 2, rng), random_channel(3, 2, rng)):
        total = sum(k.conj().T @ k for k in chan.operators)
        assert chan.completeness_residual == float(np.max(np.abs(total - np.eye(chan.dim))))


@pytest.mark.bits
def test_drawn_channels_skip_the_check_and_read_its_residual_bit_for_bit(monkeypatch):
    # a channel cut from a drawn unitary is trusted: no second copy, finiteness pass or K†K
    # sum at construction; its residual, built on first read, is the float the check keeps
    calls = []
    check = KrausChannel.__post_init__
    monkeypatch.setattr(KrausChannel, "__post_init__", lambda self: calls.append(1) or check(self))
    rng = np.random.default_rng(53)
    drawn = [random_channel(d, k, rng) for d, k in ((1, 1), (2, 1), (2, 2), (3, 2), (4, 3))]
    drawn += channels._random_channels([np.random.default_rng(s) for s in range(3)], 3, 3)
    assert not calls
    for chan in drawn:
        assert "completeness_residual" not in vars(chan)
        checked = KrausChannel(chan.operators, label=chan.label)
        assert chan.completeness_residual == checked.completeness_residual
        assert chan.operators.tobytes() == checked.operators.tobytes()
        assert chan.operators.strides == checked.operators.strides
        assert not chan.operators.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            chan.completeness_residual = 0.0
    assert len(calls) == len(drawn)


def test_apply_kraus_is_cptp():
    rng = np.random.default_rng(51)
    for _ in range(15):
        d = int(rng.integers(2, 5))
        chan = random_channel(d, int(rng.integers(1, d + 1)), rng)
        rho = random_density(d, rank=int(rng.integers(1, d + 1)), seed=rng)
        out = apply_kraus(chan, rho)
        assert abs(np.trace(out).real - 1.0) < 1e-10
        assert np.linalg.eigvalsh(out)[0] > -1e-10
        assert np.max(np.abs(out - out.conj().T)) < 1e-10


def test_dephasing_channel_kills_off_diagonals():
    rng = np.random.default_rng(52)
    chan = KrausChannel(OrthogonalDecomposition.computational(4).projectors)
    rho = random_density(4, rank=4, seed=rng)
    out = apply_kraus(chan, rho)
    assert np.max(np.abs(out - np.diag(np.diag(out)))) < 1e-12
    np.testing.assert_allclose(np.diag(out), np.diag(rho), atol=1e-12)


def test_qutrit_equality_channel_exact_outputs():
    chan = qutrit_equality_channel()
    total = sum(k.conj().T @ k for k in chan.operators)
    assert np.max(np.abs(total - np.eye(3))) < 1e-15
    e0 = np.zeros(3, dtype=complex)
    e0[0] = 1.0
    out = apply_kraus(chan, pure_density(e0))
    assert np.max(np.abs(out - np.diag([0.0, 0.5, 0.5]))) < 1e-15
    # the image has no support on |0>, so the witness vanishes exactly
    assert out[0, 0] == 0.0


def test_dilation_reproduces_the_channel():
    rng = np.random.default_rng(53)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(1, d + 1))
        chan = random_channel(d, n, rng)
        dil = dilate(chan)
        rho = random_density(d, rank=d, seed=rng)
        direct = apply_kraus(chan, rho)
        via_env = dil.apply(rho)
        assert np.max(np.abs(direct - via_env)) < 1e-10


def test_identity_assignment_matches_plain_dilation():
    rng = np.random.default_rng(54)
    chan = random_channel(2, 2, rng)
    dil = dilate(chan)
    rho = random_density(2, rank=2, seed=rng)
    m = dil.hamiltonian.level_count
    same = dataclasses.replace(dil, hamiltonian=dil.hamiltonian.permute_levels(range(m))).apply(rho)
    assert np.max(np.abs(same - dil.apply(rho))) < 1e-10


def test_theorem3_bound_holds_on_random_qubit_channels():
    rng = np.random.default_rng(55)
    for _ in range(20):
        chan = random_channel(2, 2, rng)
        dil = dilate(chan)
        rho = pure_density(haar_random_state(2, rng))
        lhs, rhs = theorem3_bound(dil, rho)
        assert lhs <= rhs + 1e-9


def test_equality_gap_analysis_on_the_equality_channel():
    report = equality_gap_analysis(qutrit_equality_channel(),
                                   pure_density(np.array([1, 0, 0], dtype=complex)))
    assert isinstance(report, EqualityGapReport)
    assert report.witness == 0.0
    assert report.witness_is_zero
    assert abs(report.gap) < 1e-10
    assert abs(report.system_distance - 2.0) < 1e-12


def test_save_load_roundtrip(tmp_path):
    chan = random_channel(3, 2, 11)
    path = tmp_path / "chan.json"
    save_channel(chan, path)
    back = load_channel(path)
    assert back.dim == 3
    assert len(back.operators) == len(chan.operators)
    assert back.operators.tobytes() == chan.operators.tobytes()
    assert back.completeness_residual == chan.completeness_residual


def test_dilation_eigenphases_at_pi_form_one_level():
    # an eigenvalue -1 of U sits on the branch cut of the logarithm, where
    # rounding gives -pi or +pi: it must still be one level, so B(1) = -1
    for s in range(200):
        v = random_unitary(3, s)
        u = (v * np.array([-1.0, -1.0, 1.0])) @ v.conj().T
        dil = dilate(KrausChannel((u,)))
        assert len(dil.levels) == 2, s
        assert abs(b_coefficient(dil.levels, dil.duration) + 1.0) < 1e-12, s
        assert np.max(np.abs(dil.unitary() - u)) < 1e-12, s


def test_equality_gap_analysis_validates_rho_once(monkeypatch):
    # one checked state, whose eigenvalues give purity and whose root the system distance
    states, sqrt_shapes = [], []
    of, psd_sqrt_eig = linalg._Density.of, linalg._psd_sqrt_eig
    monkeypatch.setattr(linalg._Density, "of",
                        lambda rho, psi=None: states.append(np.shape(rho)) or of(rho, psi))
    monkeypatch.setattr(channels, "_psd_sqrt_eig",
                        lambda h: sqrt_shapes.append(np.shape(h)) or psd_sqrt_eig(h))
    monkeypatch.setattr(linalg, "matrix_sqrt_psd", None)
    monkeypatch.setattr(metrics, "_checked_density", None)     # no public metric is called
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    report = equality_gap_analysis(qutrit_equality_channel(),
                                   pure_density(np.array([1, 0, 0], dtype=complex)))
    assert states == [(3, 3)]
    # the output and the joint before and after the unitary, never rho
    assert sqrt_shapes == [(3, 3), (12, 12), (12, 12)]
    assert report.witness == 0.0 and abs(report.system_distance - 2.0) < 1e-12


# The loops below are the ones the package ran while a channel was a tuple of
# Kraus matrices; each stacked path must agree with its loop bit for bit.

def _loop_apply_kraus(ops, rho):
    out = np.zeros_like(rho)
    for k in ops:
        out += k @ rho @ k.conj().T
    return linalg.hermitianize(out)


def _loop_residual(ops):
    total = sum(k.conj().T @ k for k in ops)
    return float(np.max(np.abs(total - np.eye(len(ops[0])))))


def _loop_random_ops(dim, n_kraus, seed):
    w = random_unitary(dim * n_kraus, seed)
    iso3 = w[:, [c * n_kraus for c in range(dim)]].reshape(dim, n_kraus, dim)
    return tuple(np.ascontiguousarray(iso3[:, j, :]) for j in range(n_kraus))


def _loop_unitary(ops, d_env):
    d = ops[0].shape[0]
    n = d * d_env
    iso = np.zeros((n, d), dtype=complex)
    iso3 = iso.reshape(d, d_env, d)
    for j, k in enumerate(ops):
        iso3[:, j, :] = k
    u = np.zeros((n, n), dtype=complex)
    u4 = u.reshape(n, d, d_env)
    u4[:, :, 0] = iso
    if n > d:
        comp = scipy.linalg.null_space(iso.conj().T)
        slots = [(c, j) for c in range(d) for j in range(1, d_env)]
        for col, (c, j) in enumerate(slots):
            u4[:, c, j] = comp[:, col]
    return u


def _loop_to_dict(label, ops):
    return {"label": label,
            "kraus": [[[[float(x.real), float(x.imag)] for x in row] for row in k] for k in ops]}


def _channels(seed, count):
    """(d, K, seed) for random channels with d in 2..4 and K in 1..3."""
    rng = np.random.default_rng(seed)
    return [(int(rng.integers(2, 5)), int(rng.integers(1, 4)), int(rng.integers(10 ** 6)))
            for _ in range(count)]


@pytest.mark.bits
def test_stacked_operators_match_the_loop_draw():
    for d, k, s in _channels(61, 40):
        chan = random_channel(d, k, s)
        ops = _loop_random_ops(d, k, s)
        assert chan.operators.shape == (k, d, d) and chan.operators.dtype == complex
        assert chan.operators.tobytes() == np.stack(ops).tobytes()
        assert chan.completeness_residual == _loop_residual(ops)


@pytest.mark.bits
def test_stacked_apply_kraus_matches_the_loop():
    rng = np.random.default_rng(62)
    for d, k, s in _channels(62, 40):
        chan = random_channel(d, k, s)
        rho = random_density(d, rank=int(rng.integers(1, d + 1)), seed=rng)
        assert apply_kraus(chan, rho).tobytes() == _loop_apply_kraus(chan.operators, rho).tobytes()
    chan = KrausChannel(OrthogonalDecomposition.computational(3).projectors)
    rho = random_density(3, rank=3, seed=rng)
    assert apply_kraus(chan, rho).tobytes() == _loop_apply_kraus(chan.operators, rho).tobytes()


def _loop_dilation(chan, env):
    """_loop_unitary's completion U and its generator from scipy.linalg.schur and a checked eigh."""
    u = _loop_unitary(tuple(chan.operators), env)
    t_mat, z = scipy.linalg.schur(u, output="complex")
    lam = np.angle(np.diagonal(t_mat).conj())
    lam = np.where(lam <= -np.pi + linalg.TOL_DEGEN, lam + 2.0 * np.pi, lam)
    return u, linalg.SpectralHamiltonian.from_matrix(linalg.hermitianize((z * lam) @ z.conj().T))


@pytest.mark.bits
def test_stacked_dilation_equals_the_loop_completion_bit_for_bit(monkeypatch):
    # U is the loop's completion bit for bit; its logarithm, a Cayley transform, is held
    # to scipy's Schur form: the same levels to 1e-13, grouped the same, and U rebuilt
    completions = []
    log = channels._principal_log
    monkeypatch.setattr(channels, "_principal_log", lambda u: completions.append(u) or log(u))
    cases = [(random_channel(d, k, s), k) for d, k, s in _channels(63, 30)]
    # the qutrit channel and the unitary channels have an eigenvalue -1 of U on the branch cut
    cases += [(qutrit_equality_channel(), 4)] + [(_minus_one_channel(s), 1) for s in range(5)]
    for chan, k in cases:
        for env in (k, k + 1):
            u, want = _loop_dilation(chan, env)
            got = dilate(chan, env).hamiltonian
            assert completions.pop().tobytes() == u.tobytes(), (chan.label, env)
            assert got.level_of.tobytes() == want.level_of.tobytes(), (chan.label, env)
            assert len(got.levels) == len(want.levels), (chan.label, env)
            assert np.max(np.abs(got.levels - want.levels)) <= 1e-13, (chan.label, env)
            rebuilt = linalg._eigenbasis_operators(got.eigenvectors, np.exp(-1j * got.eigenvalues))
            assert np.max(np.abs(rebuilt - u)) <= 1e-13, (chan.label, env)


@pytest.mark.bits
def test_channel_to_dict_matches_the_loop():
    for d, k, s in _channels(64, 20):
        chan = random_channel(d, k, s)
        assert channels.channel_to_dict(chan) == _loop_to_dict(chan.label, chan.operators)
    chan = qutrit_equality_channel()
    doc = channels.channel_to_dict(chan)
    assert json.dumps(doc) == json.dumps(_loop_to_dict(chan.label, chan.operators))


def test_constructor_takes_any_sequence_of_matrices():
    chan = random_channel(3, 2, 9)
    for ops in (tuple(chan.operators), list(chan.operators), chan.operators,
                [k.tolist() for k in chan.operators]):
        again = KrausChannel(ops)
        assert again.operators.tobytes() == chan.operators.tobytes()
        assert again.completeness_residual == chan.completeness_residual
    with pytest.raises(IncompleteKraus):
        KrausChannel(())
    for bad in ((np.eye(2), np.eye(3)), (np.eye(2), np.ones(2)), np.eye(2), (np.ones((2, 3)),)):
        with pytest.raises(DimensionMismatch):
            KrausChannel(bad)


@pytest.mark.parametrize("bad, where", [(np.nan, "$.kraus[0][0][0][0]"),
                                        (np.inf, "$.kraus[0][0][0][0]"),
                                        (complex(0.0, np.nan), "$.kraus[0][0][0][1]")],
                         ids=["nan", "inf", "nan-imag"])
def test_non_finite_kraus_entries_are_rejected(bad, where, tmp_path):
    # a NaN completeness residual fails no `> tol` test, and dilate would
    # then end in numpy's LinAlgError
    ops = np.array([[[bad, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], dtype=complex)
    with pytest.raises(IncompleteKraus, match="not all finite"):
        KrausChannel(ops)
    # in a file, json's NaN or Infinity token fails the schema's "number" at its path
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"kraus": ops.view(float).reshape(2, 2, 2, 2).tolist()}))
    with pytest.raises(ValidationError) as info:
        load_channel(path)
    assert info.value.json_path == where
    assert info.value.message.endswith("is not of type 'number'")


def _theorem3_composition(dilation, rho):
    """theorem3_bound as the package once composed it from checked parts: the reference.

    validate_density and matrix_sqrt_psd of rho, np.kron for the joint,
    partial_trace and the overlap with the root of rho, from a Hermiticity-checked
    eigh (``require_hermitian``, then ``_psd_sqrt_eig``), for every orbit term, and
    matrix_sqrt_psd of the joint for the closed form as it was (c_half of one root against
    one family, B(t) from b_coefficient).
    """
    rho = linalg.validate_density(rho)
    sqrt_rho = linalg.matrix_sqrt_psd(rho)
    joint = np.kron(rho, pure_density(dilation.env_state))
    dims = (dilation.sys_dim, dilation.env_dim)
    ham, duration = dilation.hamiltonian, dilation.duration

    def distances(lam):
        u = linalg._eigenbasis_operators(ham.eigenvectors, np.exp(-1j * lam * duration))
        out = linalg.partial_trace(u @ joint @ linalg.dagger(u), dims, over=1)
        out = linalg.require_hermitian(linalg.hermitianize(out))
        return 2.0 * (1.0 - metrics._overlap(sqrt_rho, *linalg._psd_sqrt_eig(out)))

    lhs = avgdist._orbit_means([ham], distances)[0]
    _, traces = coherence._block_traces(linalg.matrix_sqrt_psd(joint),
                                        ham.decomposition.projectors)
    coh = float(np.maximum(1.0 - np.add.reduce(traces, axis=None), 0.0))
    coef = 1.0 if ham.level_count == 1 else b_coefficient(ham.levels, duration)
    return lhs, 2.0 * (1.0 - coef) * coh


def _outcome(fn, *args):
    """(lhs, rhs) as float.hex, or the exception's type and message."""
    try:
        return tuple(float(x).hex() for x in fn(*args))
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _minus_one_channel(seed):
    """A unitary channel whose U has eigenvalues -1, -1, 1: the -pi fold with 2 levels."""
    v = random_unitary(3, seed)
    return KrausChannel(((v * np.array([-1.0, -1.0, 1.0])) @ v.conj().T,))


@pytest.mark.bits
def test_theorem3_bound_equals_the_checked_composition_bit_for_bit():
    rng = np.random.default_rng(65)
    # (d, K, env_dim): env_dim K and K + 1, up to 6 joint levels, and 9 for 3 x 2 at env 3
    shapes = [(2, 1, 1), (2, 1, 2), (2, 2, 2), (2, 2, 3), (2, 3, 3),
              (3, 1, 1), (3, 1, 2), (3, 2, 2), (3, 2, 3)]
    cases = [(random_channel(d, k, rng), env) for d, k, env in shapes]
    cases += [(qutrit_equality_channel(), None), (_minus_one_channel(3), None)]
    outcomes = []
    for chan, env in cases:
        dil = dilate(chan, env)
        for rank in range(1, chan.dim + 1):
            rho = random_density(chan.dim, rank=rank, seed=rng)
            got = _outcome(theorem3_bound, dil, rho)
            assert got == _outcome(_theorem3_composition, dil, rho), (chan.label, env, rank)
            outcomes.append(got[0])
    # 9 and 12 levels (3 x 2 at env 3, the qutrit channel) pass the cap: both raise
    assert outcomes.count("TooManyLevels") == 6 and len(outcomes) == 28


def test_theorem3_bound_reads_rho_as_its_lower_triangle():
    dil = dilate(random_channel(3, 2, 5))
    diag = np.diag([1.0, 0.0, 0.0]).astype(complex)
    # Hermitian part: eigenvalue -4e-10; the lower triangle is diag(1, 0, 0)
    upper_only = diag.copy()
    upper_only[1, 2] = 8e-10
    assert linalg._lower_hermitian(upper_only).tobytes() == diag.tobytes()
    assert theorem3_bound(dil, upper_only) == theorem3_bound(dil, diag)
    # lower triangle: eigenvalue -5e-10, which the entry check names
    lower_negative = diag.copy()
    lower_negative[1, 2], lower_negative[2, 1] = -4e-10, 5e-10
    with pytest.raises(NotPSD, match="eigenvalue -5.000e-10 below -1.0e-10"):
        theorem3_bound(dil, lower_negative)
    # an exactly Hermitian state is used as given, not copied
    rho = random_density(3, rank=2, seed=66)
    assert linalg._lower_hermitian(rho) is rho
    skew = rho + 1e-10j * np.diag([1.0, 0.0, 0.0])
    completed = linalg._lower_hermitian(skew)
    assert completed.tobytes() == rho.tobytes() and not np.array_equal(skew, completed)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)],
                         ids=["nan", "inf", "nan-imag"])
def test_dilate_rejects_non_finite_operators_reassigned_after_the_check(bad):
    # KrausChannel checks finiteness on construction and is frozen; a stack set
    # past the frozen dataclass must still be named before the SVD, which would
    # raise LinAlgError on a NaN
    for k, env in ((2, None), (2, 3), (1, None)):
        for where in (np.s_[:], np.s_[0, 1, 0]):
            chan = random_channel(2, k, 67)
            ops = chan.operators.copy()
            ops[where] = bad
            object.__setattr__(chan, "operators", ops)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvalidState, match="entries are not all finite"):
                    dilate(chan, env)


def test_dilate_rejects_a_stack_that_completes_to_no_unitary():
    # reached only past the frozen dataclass: a finite stack scaled by 1.5 completes
    # to a matrix that is not unitary, and two equal singular Kraus operators leave V
    # of rank 1, so no complement is formed
    scaled = random_channel(2, 2, 70)
    object.__setattr__(scaled, "operators", 1.5 * scaled.operators)
    damping = KrausChannel((np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [0.0, 0.0]])))
    object.__setattr__(damping, "operators", damping.operators[[0, 0]])
    for chan in (scaled, damping):
        for env in (None, 3):
            with pytest.raises(InvalidState, match="^unitary completion failed$"):
                dilate(chan, env)


@pytest.mark.bits
def test_a_bound_call_checks_hermiticity_once(monkeypatch):
    calls = []

    def counting(owner, name):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(name) or fn(*a, **k))

    rng = np.random.default_rng(68)
    # up to 5 joint levels: the orbit is one stacked eigh
    cases = [(random_channel(d, k, rng), random_density(d, rank=r, seed=rng))
             for d, k, r in ((2, 2, 1), (2, 2, 2), (3, 1, 3))]
    counting(linalg, "_hermitian_residual")
    for name in ("svd", "eigvals", "solve", "eigh"):
        counting(np.linalg, name)
    for chan, rho in cases:
        calls.clear()
        dil = dilate(chan)
        # the completion's SVD and the logarithm's eigvals, solve and eigh, nothing else
        assert sorted(calls) == ["eigh", "eigvals", "solve", "svd"]
        calls.clear()
        theorem3_bound(dil, rho)
        assert sorted(calls) == ["_hermitian_residual"] + ["eigh"] * 3


def test_a_dilation_checks_its_environment_state_once_and_keeps_it():
    # the joint input trusts env_state, so it cannot change after the check
    ham = dilate(random_channel(2, 2, 69)).hamiltonian
    given = np.array([1.0, 0.0])
    dil = channels.StinespringDilation(ham, 2, 2, given)
    given[0] = 2.0
    assert dil.env_state.tolist() == [1.0, 0.0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        dil.env_state = np.array([2.0, 0.0])
    with pytest.raises(ValueError, match="read-only"):
        dil.env_state[0] = 2.0
    rho = random_density(2, rank=2, seed=69)
    want = np.kron(rho, pure_density([1.0, 0.0]))
    assert dil.joint_input(rho).tobytes() == want.tobytes()


def test_a_channel_cannot_be_reassigned_or_written():
    # a stack doubled after construction used to give outputs of trace 4
    chan = random_channel(2, 2, 1)
    rho = random_density(2, rank=2, seed=3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        chan.operators = 2.0 * chan.operators
    with pytest.raises(ValueError, match="read-only"):
        chan.operators *= 2.0
    with pytest.raises(ValueError, match="read-only"):
        chan.operators[0] = 0.0
    for name in ("label", "completeness_residual"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(chan, name, getattr(chan, name))
    assert abs(np.trace(apply_kraus(chan, rho)).real - 1.0) < 1e-12
    # a caller's stack is copied, and stays writeable
    ops = chan.operators.copy()
    again = KrausChannel(ops)
    ops[0] = 0.0
    assert again.operators.tobytes() == chan.operators.tobytes()
