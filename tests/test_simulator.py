import numpy as np
import pytest

from qkdattack.information import conditional_probs
from qkdattack.optimizer import OptimizerConfig, optimize_attack, random_povm
from qkdattack.simulator import (
    ROUND_DTYPE,
    JointDistribution,
    empirical_stats,
    joint_distribution,
    sample_rounds,
)
from qkdattack.states import BB84, PROTOCOLS, alpha_range, purified_state, qber_in_basis, rho_ab


def _jd(protocol_name: str, q: float, seed: int = 17) -> JointDistribution:
    proto = PROTOCOLS[protocol_name]
    ps = purified_state(proto, q, sum(alpha_range(proto, q)) / 2)
    return joint_distribution(ps, random_povm(4, 4, seed))


def test_joint_distribution_normalization_and_uniform_marginal():
    for name in PROTOCOLS:
        jd = _jd(name, 0.1)
        assert abs(jd.probs.sum() - 1.0) < 1e-10
        marg = jd.probs.sum(axis=(2, 3))
        assert np.max(np.abs(marg - 1.0 / (2 * jd.basis_count))) < 1e-10
        assert jd.sifted_fraction == pytest.approx(1.0 / jd.basis_count)


def test_joint_distribution_matches_eve_only_trace():
    # the Bob-and-Eve trace path must marginalize to the Eve-only path
    for name, proto in PROTOCOLS.items():
        jd = _jd(name, 0.12)
        ps = purified_state(proto, 0.12, sum(alpha_range(proto, 0.12)) / 2)
        cd = conditional_probs(random_povm(4, 4, 17), ps, basis_count=proto.basis_count)
        recovered = jd.probs.sum(axis=2).transpose(2, 0, 1) * (2 * jd.basis_count)
        assert np.max(np.abs(recovered - cd.probs)) < 1e-10


def test_joint_distribution_receiver_error_rates():
    # marginalizing the adversary outcome leaves the state-implied error in
    # each announced basis
    for name, proto in PROTOCOLS.items():
        q = 0.08
        lo, hi = alpha_range(proto, q)
        alpha = (lo + hi) / 2
        jd = joint_distribution(purified_state(proto, q, alpha), random_povm(4, 4, 23))
        rho, _ = rho_ab(proto, q, alpha)
        per_basis = [qber_in_basis(rho, proto, theta) for theta in range(proto.basis_count)]
        for theta, expected in enumerate(per_basis):
            err = (jd.probs[0, theta, 1].sum() + jd.probs[1, theta, 0].sum()) * jd.basis_count
            assert err == pytest.approx(expected, abs=1e-10)
        # the round-averaged error weighs every announced basis equally
        assert jd.qber == pytest.approx(np.mean(per_basis), abs=1e-10)


def test_joint_distribution_zero_noise():
    ps = purified_state(BB84, 0.0, 1.0)
    jd = joint_distribution(ps, random_povm(4, 4, 5))
    # no receiver errors, and the adversary outcome is independent of x
    assert jd.qber == pytest.approx(0.0, abs=1e-12)
    k_given_x = jd.probs.sum(axis=2)
    assert np.max(np.abs(k_given_x[0] - k_given_x[1])) < 1e-12


def test_joint_distribution_dimension_mismatch():
    ps = purified_state(BB84, 0.1, 0.85)
    with pytest.raises(ValueError, match="dim"):
        joint_distribution(ps, random_povm(2, 2, 1))


def test_sample_rounds_deterministic_and_typed():
    jd = _jd("bb84", 0.1)
    a = sample_rounds(jd, 1000, seed=42)
    b = sample_rounds(jd, 1000, seed=42)
    assert a.dtype == ROUND_DTYPE
    assert np.array_equal(a, b)
    assert set(np.unique(sample_rounds(_jd("sixstate", 0.15), 5000, seed=8)["theta"])) <= {0, 1, 2}
    c = sample_rounds(jd, 1000, seed=43)
    assert not np.array_equal(a, c)
    single = sample_rounds(jd, 1, seed=0)
    assert single.shape == (1,)
    with pytest.raises(ValueError):
        sample_rounds(jd, 0, seed=0)


def test_sample_rounds_zero_noise_no_errors():
    ps = purified_state(BB84, 0.0, 1.0)
    jd = joint_distribution(ps, random_povm(4, 4, 5))
    s = sample_rounds(jd, 10_000, seed=1)
    assert np.all(s["y"] == s["x"])


def test_empirical_qber_binomial_band():
    # 20 seeds at n = 1e5: at most one outside the 3-sigma band
    q = 0.1
    jd = _jd("bb84", q)
    n = 100_000
    band = 3 * np.sqrt(q * (1 - q) / n)
    outside = 0
    for seed in range(20):
        s = sample_rounds(jd, n, seed=seed)
        qhat, _, _ = empirical_stats(s, 2)
        outside += abs(qhat - q) > band
    assert outside <= 1


def test_empirical_stats_requires_volume():
    jd = _jd("bb84", 0.1)
    s = sample_rounds(jd, 999, seed=0)
    with pytest.raises(ValueError, match="1000"):
        empirical_stats(s, 2)


@pytest.mark.parametrize("drop_cell", [False, True], ids=["numpy-error", "silent"])
def test_empirical_stats_rejects_theta_beyond_basis_count(drop_cell):
    # six-state rounds not filtered to the attack bases; without the (x=1, k=3, theta=2) cell
    # the bincount happens to reshape and theta=2 rounds would fold into neighbouring cells
    rng = np.random.default_rng(0)
    s = np.zeros(30_000, dtype=ROUND_DTYPE)
    s["x"], s["theta"], s["y"], s["k"] = (rng.integers(0, m, len(s)) for m in (2, 3, 2, 4))
    if drop_cell:
        s = s[~((s["x"] == 1) & (s["k"] == 3) & (s["theta"] == 2))]
    with pytest.raises(ValueError, match="theta must lie below basis_count=2; filter rounds to the attack bases"):
        empirical_stats(s, 2)
    assert empirical_stats(s, 3)[1] > 0.0


def test_empirical_stats_perfect_correlation():
    n = 4000
    s = np.zeros(n, dtype=ROUND_DTYPE)
    s["x"] = np.arange(n) % 2
    s["k"] = s["x"]
    s["y"] = s["x"]
    qhat, ihat, acc = empirical_stats(s, 1)
    assert qhat == 0.0
    assert ihat == pytest.approx(1.0, abs=1e-12)
    assert acc == 1.0


def test_empirical_stats_independent_samples():
    rng = np.random.default_rng(3)
    n = 100_000
    s = np.zeros(n, dtype=ROUND_DTYPE)
    s["x"] = rng.integers(0, 2, n)
    s["theta"] = rng.integers(0, 2, n)
    s["k"] = rng.integers(0, 4, n)
    s["y"] = s["x"]
    _, ihat, acc = empirical_stats(s, 2)
    assert ihat <= 0.01
    assert acc == pytest.approx(0.5, abs=0.02)


def test_empirical_stats_key_on_basis_readout():
    # outcome encodes theta exactly: one full bit in the basis-keyed
    # convention, and the bit-x-of-k rule recovers theta for every x
    rng = np.random.default_rng(4)
    n = 50_000
    s = np.zeros(n, dtype=ROUND_DTYPE)
    s["x"] = rng.integers(0, 2, n)
    s["theta"] = np.arange(n) % 2  # exactly balanced key variable
    s["k"] = 3 * s["theta"]  # binary 00 or 11, so bit x reads theta for any x
    s["y"] = s["x"]
    _, ihat, acc = empirical_stats(s, 2, key_on_basis=True)
    assert ihat == pytest.approx(1.0, abs=1e-12)
    assert acc == 1.0


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_sampled_guess_accuracy_matches_table(name):
    # the guess is bit `side` of k against the key; the exact accuracy sums
    # the table over the attack bases, renormalized to them
    proto = PROTOCOLS[name]
    jd = _jd(name, 0.1, seed=29)
    b, n = proto.attack_basis_count, 200_000
    x, theta, _, k = np.ix_(range(2), range(jd.basis_count), range(2), range(jd.probs.shape[3]))
    key, side = (theta, x) if proto.key_on_basis else (x, theta)
    hit = (((k >> side) & 1) == key) & (theta < b)
    exact = (jd.probs * hit).sum() / jd.probs[:, :b].sum()
    s = sample_rounds(jd, n, seed=31)
    rounds = s[s["theta"] < b]
    _, _, acc = empirical_stats(rounds, b, proto.key_on_basis)
    assert abs(acc - exact) <= 4 * np.sqrt(exact * (1 - exact) / len(rounds))


def test_guess_accuracy_uninformed_at_zero_noise():
    ps = purified_state(BB84, 0.0, 1.0)
    jd = joint_distribution(ps, random_povm(4, 4, 5))
    s = sample_rounds(jd, 10_000, seed=2)
    _, _, acc = empirical_stats(s, 2)
    assert acc == pytest.approx(0.5, abs=0.02)


def test_guess_accuracy_nondecreasing_in_q(light_config):
    # analytic accuracy from the joint table, optimized attack at each q
    accs = []
    for q in (0.0, 0.05, 0.10, 0.15, 0.20, 0.25):
        result = optimize_attack(BB84, q, light_config)
        ps = purified_state(BB84, q, result.best_alpha)
        jd = joint_distribution(ps, result.best_povm)
        k = np.arange(jd.probs.shape[3])
        acc = sum(
            jd.probs[x, theta, :, ((k >> theta) & 1) == x].sum()
            for x in (0, 1)
            for theta in (0, 1)
        )
        accs.append(acc)
    assert accs[0] == pytest.approx(0.5, abs=1e-9)
    assert all(b >= a - 1e-6 for a, b in zip(accs, accs[1:]))


def test_monte_carlo_matches_analytic_bb84(light_config):
    result = optimize_attack(BB84, 0.1, light_config)
    ps = purified_state(BB84, 0.1, result.best_alpha)
    jd = joint_distribution(ps, result.best_povm)
    s = sample_rounds(jd, 10**6, seed=77)
    qhat, ihat, _ = empirical_stats(s, 2)
    assert abs(qhat - 0.1) <= 3 * np.sqrt(0.1 * 0.9 / 10**6)
    assert abs(ihat - result.i_ae) <= 0.01
