import numpy as np
import pytest

from qkdattack.information import (
    ConditionalDistribution,
    Povm,
    binary_entropy,
    conditional_entropy_k_given_theta,
    conditional_entropy_k_given_x,
    conditional_entropy_k_given_x_theta,
    conditional_probs,
    lambda_fn,
    mutual_info_ae,
)
from qkdattack.states import BB84, SIX_STATE, purified_state


def test_lambda_fn_anchor_values():
    assert lambda_fn(0.0) == 0.0
    assert lambda_fn(1.0) == 0.0
    assert lambda_fn(0.5) == pytest.approx(0.5)
    assert lambda_fn(1 / np.e) == pytest.approx(np.log2(np.e) / np.e, abs=1e-12)
    out = lambda_fn([0.0, 0.25, 1.0])
    assert np.allclose(out, [0.0, 0.5, 0.0])
    with pytest.raises(ValueError):
        lambda_fn(-0.1)


def test_binary_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.11) == pytest.approx(0.499915958165, abs=1e-10)
    assert binary_entropy(0.25) == pytest.approx(0.811278124459, abs=1e-10)
    with pytest.raises(ValueError):
        binary_entropy(1.2)


def test_povm_validation():
    good = Povm(np.stack([np.eye(4) / 2, np.eye(4) / 2]).astype(complex))
    assert good.n_outcomes == 2 and good.dim == 4
    with pytest.raises(ValueError, match="identity"):
        Povm(np.stack([np.eye(4), np.eye(4)]).astype(complex))
    with pytest.raises(ValueError, match="Hermitian"):
        bad = np.stack([np.eye(4), np.eye(4)]).astype(complex) / 2
        bad[0, 0, 1] = 1.0
        Povm(bad)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        m = np.diag([1.5, 1.0, 1.0, 1.0])
        Povm(np.stack([m, np.eye(4) - m]).astype(complex))


def test_conditional_distribution_validation():
    p = np.full((4, 2, 2), 0.25)
    cd = ConditionalDistribution(p)
    assert cd.probs.shape[0] == 4 and cd.basis_count == 2
    with pytest.raises(ValueError, match="sum"):
        ConditionalDistribution(np.full((4, 2, 2), 0.3))
    with pytest.raises(ValueError, match="shape"):
        ConditionalDistribution(np.full((4, 3, 2), 0.25))


def test_conditional_probs_computational_baseline():
    # measuring the register index reads the Bell weight regardless of (x, theta)
    ps = purified_state(SIX_STATE, 0.1, 0.85)
    eye = np.eye(4, dtype=complex)
    povm = Povm(np.stack([np.outer(eye[k], eye[k]) for k in range(4)]))
    cd = conditional_probs(povm, ps, basis_count=SIX_STATE.basis_count)
    assert cd.probs.shape == (4, 2, 3)
    for x in (0, 1):
        for theta in range(3):
            assert np.allclose(cd.probs[:, x, theta], [0.85, 0.05, 0.05, 0.05], atol=1e-10)
    assert mutual_info_ae(cd) == pytest.approx(0.0, abs=1e-12)


def test_conditional_probs_default_attack_bases():
    ps = purified_state(SIX_STATE, 0.1, 0.85)
    eye = np.eye(4, dtype=complex)
    povm = Povm(np.stack([np.outer(eye[k], eye[k]) for k in range(4)]))
    cd = conditional_probs(povm, ps)
    assert cd.basis_count == SIX_STATE.attack_basis_count == 2
    with pytest.raises(ValueError, match="basis_count"):
        conditional_probs(povm, ps, basis_count=4)


def test_entropies_uniform_table():
    cd = ConditionalDistribution(np.full((4, 2, 2), 0.25))
    assert conditional_entropy_k_given_x_theta(cd) == pytest.approx(2.0)
    assert conditional_entropy_k_given_theta(cd) == pytest.approx(2.0)
    assert conditional_entropy_k_given_x(cd) == pytest.approx(2.0)
    assert mutual_info_ae(cd) == pytest.approx(0.0)
    assert mutual_info_ae(cd, key_on_basis=True) == pytest.approx(0.0)


def test_mutual_info_perfect_bit_readout():
    # outcome equals the bit: one full bit about x, nothing about theta
    p = np.zeros((2, 2, 2))
    for x in (0, 1):
        p[x, x, :] = 1.0
    cd = ConditionalDistribution(p)
    assert mutual_info_ae(cd) == pytest.approx(1.0)
    assert mutual_info_ae(cd, key_on_basis=True) == pytest.approx(0.0)


def test_mutual_info_perfect_basis_readout():
    # outcome equals the basis: the conventions disagree by a full bit
    p = np.zeros((2, 2, 2))
    for theta in (0, 1):
        p[theta, :, theta] = 1.0
    cd = ConditionalDistribution(p)
    assert mutual_info_ae(cd) == pytest.approx(0.0)
    assert mutual_info_ae(cd, key_on_basis=True) == pytest.approx(1.0)


def test_mutual_info_from_bb84_attack_state():
    # measure-in-place oracle: a projective measurement of the register in
    # its computational basis gives exactly zero information
    ps = purified_state(BB84, 0.15, 0.75)
    eye = np.eye(4, dtype=complex)
    povm = Povm(np.stack([np.outer(eye[k], eye[k]) for k in range(4)]))
    cd = conditional_probs(povm, ps)
    assert mutual_info_ae(cd) == pytest.approx(0.0, abs=1e-12)
