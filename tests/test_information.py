import numpy as np
import pytest

from povm_helpers import every_basis_probs, random_povm
from qkdattack.information import (
    ConditionalDistribution,
    Povm,
    binary_entropy,
    conditional_probs,
    holevo_chi,
    key_side_table,
    lambda_fn,
    mutual_info_ae,
    plugin_mutual_info,
)
from qkdattack.simulator import JointDistribution
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


def test_holevo_chi_anchor_values():
    # rho[key, side]: orthogonal pure states per side carry one bit, equal
    # states none; a stack of groups gives one value per group
    e = np.eye(4)
    pure = np.stack([np.outer(e[i], e[i]) for i in range(4)]).astype(complex)
    orthogonal = np.stack([[pure[0], pure[2]], [pure[1], pure[3]]])
    equal = np.stack([[pure[0], pure[0]], [pure[0], pure[0]]])
    # one side distinguishes the key, the other does not: half a bit on average
    mixed = np.stack([[pure[0], pure[0]], [pure[1], pure[0]]])
    assert holevo_chi(np.stack([orthogonal, equal, mixed])) == pytest.approx([1.0, 0.0, 0.5], abs=1e-12)
    assert holevo_chi(np.full((2, 3, 4, 4), np.eye(4) / 4, dtype=complex)) == pytest.approx(0.0, abs=1e-12)


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


def _with_nan(table: np.ndarray) -> np.ndarray:
    table.flat[1] = np.nan
    return table


# a NaN slips past every comparison-based check (NaN < x and NaN > x are both False)
@pytest.mark.parametrize(
    "build",
    [
        lambda: Povm(_with_nan(np.stack([np.eye(4), np.eye(4)]).astype(complex) / 2)),
        lambda: ConditionalDistribution(_with_nan(np.full((4, 2, 2), 0.25))),
        lambda: JointDistribution(_with_nan(np.full((2, 2, 2, 4), 1 / 32)), BB84),
    ],
    ids=["povm", "conditional", "joint"],
)
def test_tables_reject_nan(build):
    with pytest.raises(ValueError, match="finite"):
        build()


def test_conditional_distribution_validation():
    p = np.full((4, 2, 2), 0.25)
    cd = ConditionalDistribution(p)
    assert cd.probs.shape == (4, 2, 2)
    with pytest.raises(ValueError, match="sum"):
        ConditionalDistribution(np.full((4, 2, 2), 0.3))
    with pytest.raises(ValueError, match="shape"):
        ConditionalDistribution(np.full((4, 3, 2), 0.25))


def test_conditional_probs_computational_baseline():
    # measuring the register index reads the Bell weight regardless of (x, theta)
    ps = purified_state(SIX_STATE, 0.1, 0.85)
    eye = np.eye(4, dtype=complex)
    povm = Povm(np.stack([np.outer(eye[k], eye[k]) for k in range(4)]))
    probs = every_basis_probs(povm, ps)
    assert probs.shape == (4, 2, 3)
    for x in (0, 1):
        for theta in range(3):
            assert np.allclose(probs[:, x, theta], [0.85, 0.05, 0.05, 0.05], atol=1e-10)
    assert mutual_info_ae(ConditionalDistribution(probs), key_on_basis=False) == pytest.approx(0.0, abs=1e-12)
    assert mutual_info_ae(conditional_probs(povm, ps), key_on_basis=False) == pytest.approx(0.0, abs=1e-12)


def test_conditional_probs_default_attack_bases():
    # the table covers the attack bases: the first two of six-state's three
    ps = purified_state(SIX_STATE, 0.1, 0.85)
    povm = random_povm(4, 4, 11)
    cd = conditional_probs(povm, ps)
    assert cd.probs.shape == (4, 2, SIX_STATE.attack_basis_count) == (4, 2, 2)
    assert np.max(np.abs(cd.probs - every_basis_probs(povm, ps)[:, :, :2])) <= 1e-15


def test_entropies_uniform_table():
    # every cell of the (key, k side) table equals the product of its marginals
    cd = ConditionalDistribution(np.full((4, 2, 2), 0.25))
    assert mutual_info_ae(cd, key_on_basis=False) == 0.0
    assert mutual_info_ae(cd, key_on_basis=True) == 0.0
    assert plugin_mutual_info(np.full((2, 8), 3)) == 0.0


def test_key_side_table_layout():
    # table[x, theta, k] -> table[key, k * n_side + side]
    t = np.arange(2 * 3 * 4).reshape(2, 3, 4)
    by_bit = key_side_table(t, key_on_basis=False)
    by_basis = key_side_table(t, key_on_basis=True)
    assert by_bit.shape == (2, 12) and by_basis.shape == (3, 8)
    for x, theta, k in np.ndindex(t.shape):
        assert by_bit[x, k * 3 + theta] == t[x, theta, k]
        assert by_basis[theta, k * 2 + x] == t[x, theta, k]


def test_mutual_info_perfect_bit_readout():
    # outcome equals the bit: one full bit about x, nothing about theta
    p = np.zeros((2, 2, 2))
    for x in (0, 1):
        p[x, x, :] = 1.0
    cd = ConditionalDistribution(p)
    assert mutual_info_ae(cd, key_on_basis=False) == pytest.approx(1.0)
    assert mutual_info_ae(cd, key_on_basis=True) == pytest.approx(0.0)


def test_mutual_info_counts_rounding_noise_as_zero():
    # an entry of trace noise size would move the plug-in sum by 3.7e-14; like
    # lambda_fn, the reference counts entries at or below the floor as zero
    p = np.zeros((2, 2, 2))
    for x in (0, 1):
        p[x, x, :] = 1.0
    p[0, 1, 0], p[1, 1, 0] = 3e-15, 1.0 - 3e-15
    assert mutual_info_ae(ConditionalDistribution(p), key_on_basis=False) == 1.0


def test_mutual_info_perfect_basis_readout():
    # outcome equals the basis: the conventions disagree by a full bit
    p = np.zeros((2, 2, 2))
    for theta in (0, 1):
        p[theta, :, theta] = 1.0
    cd = ConditionalDistribution(p)
    assert mutual_info_ae(cd, key_on_basis=False) == pytest.approx(0.0)
    assert mutual_info_ae(cd, key_on_basis=True) == pytest.approx(1.0)


def test_mutual_info_from_bb84_attack_state():
    # measure-in-place oracle: a projective measurement of the register in
    # its computational basis gives exactly zero information
    ps = purified_state(BB84, 0.15, 0.75)
    eye = np.eye(4, dtype=complex)
    povm = Povm(np.stack([np.outer(eye[k], eye[k]) for k in range(4)]))
    cd = conditional_probs(povm, ps)
    assert mutual_info_ae(cd, key_on_basis=False) == pytest.approx(0.0, abs=1e-12)
