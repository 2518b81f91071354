"""Kraus channels, unitary dilations, and the open-system bound."""

import json

import numpy as np
import pytest
import scipy.linalg
from jsonschema import ValidationError

from coherence_speed import channels, linalg
from coherence_speed.avgdist import b_coefficient
from coherence_speed.channels import (
    EqualityGapReport,
    KrausChannel,
    apply_kraus,
    dephasing_channel,
    dilate,
    equality_gap_analysis,
    load_channel,
    permuted_channel_apply,
    qutrit_equality_channel,
    random_channel,
    save_channel,
    theorem3_bound,
)
from coherence_speed.errors import (
    DimensionMismatch,
    IncompleteKraus,
    InvalidState,
    TooManyKraus,
    TooManyLevels,
)
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
    chan = dephasing_channel(OrthogonalDecomposition.computational(4))
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


def test_dilate_rejects_small_environment():
    chan = random_channel(2, 3, 7)
    with pytest.raises(TooManyKraus):
        dilate(chan, env_dim=2)


def test_identity_assignment_matches_plain_dilation():
    rng = np.random.default_rng(54)
    chan = random_channel(2, 2, rng)
    dil = dilate(chan)
    rho = random_density(2, rank=2, seed=rng)
    m = dil.hamiltonian.level_count
    same = permuted_channel_apply(dil, list(range(m)), rho)
    assert np.max(np.abs(same - dil.apply(rho))) < 1e-10


def test_theorem3_bound_holds_on_random_qubit_channels():
    rng = np.random.default_rng(55)
    for _ in range(20):
        chan = random_channel(2, 2, rng)
        dil = dilate(chan)
        rho = pure_density(haar_random_state(2, rng))
        lhs, rhs = theorem3_bound(dil, rho)
        assert lhs <= rhs + 1e-9


def test_theorem3_bound_respects_cap():
    chan = qutrit_equality_channel()
    dil = dilate(chan)   # 12 joint levels, over the default cap of 8
    with pytest.raises(TooManyLevels):
        theorem3_bound(dil, pure_density(np.array([1, 0, 0], dtype=complex)))


def test_equality_gap_analysis_on_the_equality_channel():
    report = equality_gap_analysis(qutrit_equality_channel(),
                                   pure_density(np.array([1, 0, 0], dtype=complex)))
    assert isinstance(report, EqualityGapReport)
    assert report.witness == 0.0
    assert report.witness_is_zero
    assert abs(report.gap) < 1e-10
    assert abs(report.system_distance - 2.0) < 1e-12


def test_equality_gap_analysis_needs_pure_input():
    with pytest.raises(InvalidState):
        equality_gap_analysis(qutrit_equality_channel(), np.eye(3) / 3.0)


def test_save_load_roundtrip(tmp_path):
    chan = random_channel(3, 2, 11)
    path = tmp_path / "chan.json"
    save_channel(chan, path)
    back = load_channel(path)
    assert back.dim == 3
    assert len(back.operators) == len(chan.operators)
    assert back.operators.tobytes() == chan.operators.tobytes()
    assert back.completeness_residual == chan.completeness_residual


def test_load_rejects_malformed_document(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"operators": "nope"}))
    with pytest.raises(Exception):
        load_channel(path)


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
    calls = []

    def counting(rho, **kwargs):
        calls.append(1)
        return linalg.validate_density(rho, **kwargs)

    monkeypatch.setattr(channels, "validate_density", counting)
    report = equality_gap_analysis(qutrit_equality_channel(),
                                   pure_density(np.array([1, 0, 0], dtype=complex)))
    assert len(calls) == 1
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


def test_stacked_operators_match_the_loop_draw():
    for d, k, s in _channels(61, 40):
        chan = random_channel(d, k, s)
        ops = _loop_random_ops(d, k, s)
        assert chan.operators.shape == (k, d, d) and chan.operators.dtype == complex
        assert chan.operators.tobytes() == np.stack(ops).tobytes()
        assert chan.completeness_residual == _loop_residual(ops)


def test_stacked_apply_kraus_matches_the_loop():
    rng = np.random.default_rng(62)
    for d, k, s in _channels(62, 40):
        chan = random_channel(d, k, s)
        rho = random_density(d, rank=int(rng.integers(1, d + 1)), seed=rng)
        assert apply_kraus(chan, rho).tobytes() == _loop_apply_kraus(chan.operators, rho).tobytes()
    chan = dephasing_channel(OrthogonalDecomposition.computational(3))
    rho = random_density(3, rank=3, seed=rng)
    assert apply_kraus(chan, rho).tobytes() == _loop_apply_kraus(chan.operators, rho).tobytes()


def test_stacked_dilation_matches_the_loop_completion():
    for d, k, s in _channels(63, 30):
        chan = random_channel(d, k, s)
        for env in (k, k + 1):
            u = _loop_unitary(tuple(chan.operators), env)
            t_mat, z = scipy.linalg.schur(u, output="complex")
            lam = np.angle(np.diagonal(t_mat).conj())
            lam = np.where(lam <= -np.pi + linalg.TOL_DEGEN, lam + 2.0 * np.pi, lam)
            want = linalg.SpectralHamiltonian.from_matrix(
                linalg.hermitianize((z * lam) @ z.conj().T))
            got = dilate(chan, env).hamiltonian.matrix()
            assert got.tobytes() == want.matrix().tobytes(), (d, k, env)


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


def test_ragged_channel_file_is_a_dimension_mismatch(tmp_path):
    path = tmp_path / "ragged.json"
    # the second row of the Kraus matrix is one entry short; the schema allows it
    path.write_text(json.dumps({"kraus": [[[[1, 0], [0, 0]], [[0, 0]]]]}))
    with pytest.raises(DimensionMismatch):
        load_channel(path)


@pytest.mark.parametrize("bad, where", [(np.nan, "$.kraus[0][0][0][0]"),
                                        (np.inf, "$.kraus[0][0][0][0]"),
                                        (complex(0.0, np.nan), "$.kraus[0][0][0][1]")],
                         ids=["nan", "inf", "nan-imag"])
def test_non_finite_kraus_entries_are_rejected(bad, where, tmp_path):
    # a NaN completeness residual fails no `> tol` test, and dilate would
    # then end in scipy's ValueError
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
