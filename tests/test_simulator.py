import tracemalloc

import numpy as np
import pytest

from povm_helpers import every_basis_probs, random_povm
from qkdattack.information import Povm, conditional_probs, mutual_info_ae, plugin_mutual_info
from qkdattack.optimizer import optimize_attack
from qkdattack.simulator import (
    _BUCKETS,
    _CHUNK,
    ROUND_DTYPE,
    JointDistribution,
    _GuideTable,
    check_attack_rounds,
    empirical_stats,
    joint_distribution,
    sample_rounds,
    sampled_estimates,
)
from qkdattack.states import (
    BB84,
    PROTOCOLS,
    SARG04,
    BellDiagonalParams,
    alpha_range,
    bob_bit_projector,
    bob_eve_conditional_state,
    purified_state,
    purify,
    qber_in_basis,
    rho_ab,
)


def _jd(protocol_name: str, q: float, seed: int = 17) -> JointDistribution:
    proto = PROTOCOLS[protocol_name]
    ps = purified_state(proto, q, sum(alpha_range(proto, q)) / 2)
    return joint_distribution(ps, random_povm(4, 4, seed))


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_joint_distribution_matches_the_kron_trace_formula(name):
    # p(x, theta, y, k) = Tr[(P_y^theta (x) M_k) rho_BE^(x,theta)] / (2 B), one y at a time
    proto = PROTOCOLS[name]
    povm = random_povm(4, 4, 23)
    for q in (0.0, 0.1, 0.3):
        ps = purified_state(proto, q, sum(alpha_range(proto, q)) / 2)
        expected = np.empty((2, proto.basis_count, 2, 4))
        for x in (0, 1):
            for theta in range(proto.basis_count):
                rho_be = bob_eve_conditional_state(ps, x, theta)
                for y in (0, 1):
                    ops = np.kron(bob_bit_projector(proto, y, theta)[None], povm.elements)
                    expected[x, theta, y] = np.real(np.einsum("kij,ji->k", ops, rho_be))
        expected = np.clip(expected, 0.0, None) / (2 * proto.basis_count)
        assert np.max(np.abs(joint_distribution(ps, povm).probs - expected)) <= 1e-15


def _one_shot_sample(jd: JointDistribution, n: int, seed: int) -> np.ndarray:
    """Reference sampler: one uniform draw of n, searched and unravelled whole."""
    cdf = np.cumsum(jd.probs.ravel())
    cdf /= cdf[-1]
    flat = np.searchsorted(cdf, np.random.default_rng(seed).random(n), side="right")
    out = np.empty(n, dtype=ROUND_DTYPE)
    out["x"], out["theta"], out["y"], out["k"] = np.unravel_index(flat, jd.probs.shape)
    return out


def _one_shot_stats(samples: np.ndarray, basis_count: int, key_on_basis: bool) -> tuple[float, float, float]:
    """Reference estimates: every field cast and binned in one pass over all rounds."""
    x = samples["x"].astype(np.int64)
    theta = samples["theta"].astype(np.int64)
    k = samples["k"].astype(np.int64)
    qber_hat = float(np.mean(samples["y"] != samples["x"]))
    n_out = int(k.max()) + 1
    key, side, side_size = (theta, x, 2) if key_on_basis else (x, theta, basis_count)
    counts = np.bincount(
        key * (n_out * side_size) + k * side_size + side,
        minlength=(int(key.max()) + 1) * n_out * side_size,
    ).reshape(int(key.max()) + 1, n_out * side_size)
    # the best guess in each (k, side) column scores that column's largest count
    accuracy = float(counts.max(axis=0).sum() / len(samples))
    return qber_hat, plugin_mutual_info(counts), accuracy


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
        probs = every_basis_probs(random_povm(4, 4, 17), ps)
        recovered = jd.probs.sum(axis=2).transpose(2, 0, 1) * (2 * jd.basis_count)
        assert np.max(np.abs(recovered - probs)) < 1e-10


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
    # numpy also calls a bare uint32 equal to ROUND_DTYPE, so compare the fields too
    assert a.dtype == ROUND_DTYPE and a.dtype.names == ROUND_DTYPE.names
    assert ROUND_DTYPE.itemsize == 4
    assert a.nbytes == 4 * len(a)
    assert np.array_equal(a, b)
    assert set(np.unique(sample_rounds(_jd("sixstate", 0.15), 5000, seed=8)["theta"])) <= {0, 1, 2}
    c = sample_rounds(jd, 1000, seed=43)
    assert not np.array_equal(a, c)
    single = sample_rounds(jd, 1, seed=0)
    assert single.shape == (1,)
    with pytest.raises(ValueError):
        sample_rounds(jd, 0, seed=0)


def test_sample_rounds_rejects_outcomes_k_cannot_label():
    # numpy wraps a label past k's signed-byte range silently, so the sampler refuses the table instead
    ps = purified_state(BB84, 0.1, 0.85)
    too_many = joint_distribution(ps, random_povm(4, 128, 53))
    with pytest.raises(ValueError, match="k labels at most 127 adversary outcomes, got 128"):
        sample_rounds(too_many, 1000, seed=0)
    with pytest.raises(ValueError, match="127"):
        sampled_estimates(too_many, 1000, seed=0)
    widest = joint_distribution(ps, random_povm(4, 127, 53))
    s = sample_rounds(widest, 20_000, seed=59)
    assert np.array_equal(s["k"], _one_shot_sample(widest, 20_000, seed=59)["k"])
    assert s["k"].max() == 126


_CHUNK_EDGES = [1, 999, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 1]


# q = 0 adds empty (y != x) cells; the q = 0.1 cases keep their plain n ids
@pytest.mark.parametrize(
    ("q", "n"),
    [pytest.param(0.1, n, id=str(n)) for n in _CHUNK_EDGES] + [pytest.param(0.0, n, id=f"q0-{n}") for n in _CHUNK_EDGES],
)
@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_chunked_sampling_and_counting_equal_one_shot(name, q, n):
    jd = _jd(name, q, seed=11)
    s = sample_rounds(jd, n, seed=n)
    assert np.array_equal(s, _one_shot_sample(jd, n, seed=n))
    if n >= 1000:
        for key_on_basis in (False, True):
            assert empirical_stats(s, jd.basis_count, key_on_basis) == _one_shot_stats(s, jd.basis_count, key_on_basis)


def _cdf(probs: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(probs.ravel())
    cdf /= cdf[-1]
    return cdf


_GUIDE_TABLES = {
    # zero cells: every y != x cell is empty at q = 0
    "q0-table": lambda: _jd("bb84", 0.0).probs,
    # flat runs at the start, in the middle and at the end
    "zero-cells": lambda: np.array([0.0, 0.0, 0.3, 0.0, 0.0, 0.2, 0.5, 0.0, 0.0]),
    # five cell edges inside bucket 0
    "crowded-bucket": lambda: np.array([1e-5] * 5 + [1.0 - 5e-5]),
    "one-cell": lambda: np.array([1.0]),
}


@pytest.mark.parametrize("table", sorted(_GUIDE_TABLES))
def test_guide_table_equals_binary_search(table):
    cdf = _cdf(_GUIDE_TABLES[table]())
    # each cell's word is its index, so the draw is the cell
    guide = _GuideTable(cdf, np.arange(cdf.size, dtype=np.uint32))
    edges = np.arange(_BUCKETS) / _BUCKETS
    u = np.concatenate(
        [
            [0.0, np.nextafter(1.0, 0.0)],
            edges,
            np.nextafter(edges, 0.0),
            cdf,
            np.nextafter(cdf, 0.0),
            np.nextafter(cdf, 2.0),
        ]
    )
    u = u[(u >= 0.0) & (u < 1.0)]
    assert np.array_equal(guide.draw(u), np.searchsorted(cdf, u, side="right"))
    if table == "crowded-bucket":
        assert np.flatnonzero(guide.edge).tolist() == [0]
    if table == "one-cell":
        assert not guide.edge.any()


@pytest.mark.parametrize(
    ("field", "value", "message"),
    [
        ("x", 2, "x must be 0 or 1, got 2"),
        ("theta", 2, "theta must lie below basis_count=2; filter rounds to the attack bases, got 2"),
        ("y", -1, "y must be 0 or 1, got -1"),
        ("k", -3, "k must be non-negative, got -3"),
    ],
    ids=["x", "theta", "y", "k"],
)
def test_round_checks_see_the_last_chunk(field, value, message):
    s = sample_rounds(_jd("bb84", 0.1), 3 * _CHUNK + 1, seed=5)
    s[field][-1] = value
    with pytest.raises(ValueError, match=f"^{message}$"):
        empirical_stats(s, 2, key_on_basis=False)


def test_theta_check_below_four_bases():
    # theta = 1 sets no bit a word may not set, so only the count table sees it at basis_count = 1
    s = sample_rounds(_jd("bb84", 0.1), 3 * _CHUNK + 1, seed=5)
    s["theta"][:-1] = 0
    with pytest.raises(ValueError, match="^theta must lie below basis_count=1; filter rounds to the attack bases, got 1$"):
        empirical_stats(s, 1, key_on_basis=False)
    s["theta"][-1] = 0
    assert empirical_stats(s, 1, key_on_basis=False)[0] == np.mean(s["y"] != s["x"])


@pytest.mark.parametrize("basis_count", [0, 5])
def test_empirical_stats_rejects_basis_counts_a_word_cannot_count(basis_count):
    s = sample_rounds(_jd("bb84", 0.1), 2000, seed=0)
    with pytest.raises(ValueError, match=rf"^basis_count must lie in \[1, 4\], got {basis_count}$"):
        empirical_stats(s, basis_count, key_on_basis=False)


def test_round_copies_keep_every_field():
    s = sample_rounds(_jd("sixstate", 0.1), 20_000, seed=6)
    mask = s["theta"] < 2
    copies = {
        "mask": (s[mask], mask),
        "stride": (s[::3], slice(None, None, 3)),
        "copy": (s.copy(), slice(None)),
        "concatenate": (np.concatenate([s[:7], s[7:]], dtype=ROUND_DTYPE), slice(None)),
    }
    for name, (copy, index) in copies.items():
        assert copy.dtype.names == ROUND_DTYPE.names, name
        for field in ROUND_DTYPE.names:
            assert np.array_equal(copy[field], s[field][index]), (name, field)
    # np.concatenate without a dtype returns bare words, which carry no fields
    bare = np.concatenate([s[:7], s[7:]])
    assert bare.dtype.names is None
    with pytest.raises(ValueError, match="ROUND_DTYPE"):
        empirical_stats(bare, 3, key_on_basis=False)
    assert np.array_equal(bare.view(ROUND_DTYPE), s)


def test_empirical_stats_read_other_one_byte_layouts():
    # np.save and np.load give the rounds back as a plain struct of four one-byte fields
    s = sample_rounds(_jd("sixstate", 0.1), 3 * _CHUNK + 1, seed=9)
    plain = np.dtype([(f, "i1") for f in ROUND_DTYPE.names])
    reordered = np.dtype([(f, "i1") for f in ("k", "y", "x", "theta")])
    flipped = np.empty(len(s), dtype=reordered)
    for field in ROUND_DTYPE.names:
        flipped[field] = s[field]
    expected = empirical_stats(s, 3, key_on_basis=False)
    assert empirical_stats(s.view(plain), 3, key_on_basis=False) == expected
    assert empirical_stats(flipped, 3, key_on_basis=False) == expected
    # unsigned bytes label up to 256 outcomes: k = 200 is a label, not a negative k
    wide = np.empty(len(s), dtype=[(f, "u1") for f in ROUND_DTYPE.names])
    for field in ROUND_DTYPE.names:
        wide[field] = s[field]
    wide["k"][wide["k"] == 3] = 200
    assert empirical_stats(wide, 3, key_on_basis=False) == expected
    assert empirical_stats(wide, 3, key_on_basis=True) == empirical_stats(s, 3, key_on_basis=True)


def test_sampling_and_counting_memory_is_bounded():
    # temporaries stay O(chunk): 2e6 rounds in one pass would take about 76 MB
    jd = _jd("bb84", 0.1)
    tracemalloc.start()
    try:
        s = sample_rounds(jd, 2_000_000, seed=3)
        sample_peak = tracemalloc.get_traced_memory()[1] - s.nbytes
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        empirical_stats(s, 2, key_on_basis=False)
        stats_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert sample_peak < 16 * 2**20
    assert stats_peak < 16 * 2**20


def test_sampled_estimates_never_hold_the_rounds():
    # 1e7 rounds as 4-byte words would take 40 MB
    jd = _jd("sixstate", 0.1)
    tracemalloc.start()
    try:
        sampled_estimates(jd, 10**7, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


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
        qhat, _, _ = empirical_stats(s, 2, key_on_basis=False)
        outside += abs(qhat - q) > band
    assert outside <= 1


def test_empirical_stats_requires_volume():
    jd = _jd("bb84", 0.1)
    s = sample_rounds(jd, 999, seed=0)
    with pytest.raises(ValueError, match="1000"):
        empirical_stats(s, 2, key_on_basis=False)


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
        empirical_stats(s, 2, key_on_basis=False)
    assert empirical_stats(s, 3, key_on_basis=False)[1] > 0.0


@pytest.mark.parametrize(
    ("field", "value"), [pytest.param(f, v, id=f"{f}={v}") for f, v in (("y", 2), ("theta", -1), ("x", 3), ("k", -1))]
)
def test_empirical_stats_rejects_malformed_rounds(field, value):
    # unchecked, y = 2 is counted in another cell and moves qber_hat; the other
    # three fail inside numpy without naming the field
    s = sample_rounds(_jd("bb84", 0.1), 2000, seed=0)
    s[field][np.flatnonzero(s["x"] == 0)[:500]] = value
    with pytest.raises(ValueError, match=f"^{field} must .*, got {value}$"):
        empirical_stats(s, 2, key_on_basis=False)


@pytest.mark.parametrize("wide", [{"x": "i8", "theta": "i8", "y": "i8", "k": "i8"}, {"k": "i2"}], ids=["int64", "k-i2"])
def test_empirical_stats_rejects_fields_wider_than_a_byte(wide):
    # the counting loop reads each field through a one-byte unsigned view,
    # which numpy cannot lay over a wider field
    s = np.zeros(30_000, dtype=[(f, wide.get(f, "i1")) for f in ROUND_DTYPE.names])
    with pytest.raises(ValueError, match="ROUND_DTYPE"):
        empirical_stats(s, 2, key_on_basis=False)


def test_empirical_stats_perfect_correlation():
    n = 4000
    s = np.zeros(n, dtype=ROUND_DTYPE)
    s["x"] = np.arange(n) % 2
    s["k"] = s["x"]
    s["y"] = s["x"]
    qhat, ihat, acc = empirical_stats(s, 1, key_on_basis=False)
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
    _, ihat, acc = empirical_stats(s, 2, key_on_basis=False)
    assert ihat <= 0.01
    assert acc == pytest.approx(0.5, abs=0.02)


def test_empirical_stats_key_on_basis_readout():
    # outcome encodes theta exactly: one full bit in the basis-keyed
    # convention, and the best guess recovers theta for every x
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


@pytest.mark.parametrize("key_on_basis", [False, True])
@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_empirical_stats_equal_the_reference_on_exact_counts(name, key_on_basis):
    # rounds whose (x, theta, k) counts are 256 times a dyadic table of p(k | x, theta):
    # the sampled estimate and the exact reference read the same (key, k side) table,
    # and six-state's third basis, filtered out of the rounds, stays out of both
    proto = PROTOCOLS[name]
    ps = purify(BellDiagonalParams(proto, 0.1, 3 / 8, 3 / 8, 1 / 8, 1 / 8))
    v = np.array([[1, 1, 0, 0], [1, -1, 0, 0], [0, 0, 1, 1], [0, 0, 1, -1]]) / np.sqrt(2)
    povm = Povm(np.einsum("ki,kj->kij", v, v).astype(complex))
    table = 256 * every_basis_probs(povm, ps)  # [k, x, theta]
    counts = np.round(table).astype(np.int64)
    assert np.max(np.abs(counts - table)) < 1e-9 and counts.min() == 0
    k, x, theta = (np.repeat(idx.ravel(), counts.ravel()) for idx in np.indices(counts.shape))
    s = np.zeros(len(k), dtype=ROUND_DTYPE)
    s["x"], s["theta"], s["y"], s["k"] = x, theta, x, k
    attack = s[s["theta"] < proto.attack_basis_count]
    _, i_ae_hat, _ = empirical_stats(attack, proto.attack_basis_count, key_on_basis)
    i_ae = mutual_info_ae(conditional_probs(povm, ps), key_on_basis)
    assert i_ae > 0.3
    assert i_ae_hat == pytest.approx(i_ae, abs=1e-12)


def _best_guess_accuracy(jd: JointDistribution, basis_count: int) -> tuple[float, int]:
    """Exact accuracy of argmax_key p(k | key, side) over the first bases, and its column count T."""
    p = jd.probs[:, :basis_count].sum(axis=2)  # p[x, theta, k]
    best = p.max(axis=1 if jd.protocol.key_on_basis else 0)
    return float(best.sum() / p.sum()), best.size


def _guess_tolerance(exact: float, columns: int, n: int) -> float:
    """4 sigma of the binomial hit count plus the plug-in's resubstitution bias bound."""
    return 4 * np.sqrt(exact * (1 - exact) / n) + np.sqrt(columns / n) / 2


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_sampled_guess_accuracy_matches_table(name):
    # the exact best-guess accuracy over the attack bases, renormalized to them
    proto = PROTOCOLS[name]
    jd = _jd(name, 0.1, seed=29)
    b, n = proto.attack_basis_count, 200_000
    exact, columns = _best_guess_accuracy(jd, b)
    s = sample_rounds(jd, n, seed=31)
    rounds = s[s["theta"] < b]
    _, _, acc = empirical_stats(rounds, b, proto.key_on_basis)
    assert abs(acc - exact) <= _guess_tolerance(exact, columns, len(rounds))


def test_sampled_guess_accuracy_of_optimized_sarg04(light_config):
    # sarg04's optimal outcomes guess (0, 1), (1, 0), (0, 1) and (1, 0) per
    # side value: no bit code of k can carry them all, but the best guess can
    result = optimize_attack(SARG04, 0.1, light_config)
    jd = joint_distribution(purified_state(SARG04, 0.1, result.best_alpha), result.best_povm)
    exact, columns = _best_guess_accuracy(jd, SARG04.attack_basis_count)
    assert exact == pytest.approx(0.731, abs=0.01)
    n = 200_000
    _, _, acc = empirical_stats(sample_rounds(jd, n, seed=37), SARG04.attack_basis_count, key_on_basis=True)
    assert abs(acc - exact) <= _guess_tolerance(exact, columns, n)


@pytest.mark.parametrize("n_outcomes", [4, 8])
@pytest.mark.parametrize("key_on_basis", [False, True], ids=["bit-keyed", "basis-keyed"])
def test_empirical_stats_ignore_outcome_labels(n_outcomes, key_on_basis):
    # relabeling the adversary's outcomes is the same measurement
    ps = purified_state(BB84, 0.1, 0.85)
    s = sample_rounds(joint_distribution(ps, random_povm(4, n_outcomes, 41)), 50_000, seed=43)
    relabeled = s.copy()
    relabeled["k"] = np.random.default_rng(47).permutation(n_outcomes)[s["k"]]
    assert empirical_stats(relabeled, 2, key_on_basis) == empirical_stats(s, 2, key_on_basis)


def test_guess_accuracy_uninformed_at_zero_noise():
    ps = purified_state(BB84, 0.0, 1.0)
    jd = joint_distribution(ps, random_povm(4, 4, 5))
    s = sample_rounds(jd, 10_000, seed=2)
    _, _, acc = empirical_stats(s, 2, key_on_basis=False)
    assert acc == pytest.approx(0.5, abs=0.02)


def test_guess_accuracy_nondecreasing_in_q(light_config):
    # exact best-guess accuracy from the joint table, optimized attack at each q
    accs = []
    for q in (0.0, 0.05, 0.10, 0.15, 0.20, 0.25):
        result = optimize_attack(BB84, q, light_config)
        jd = joint_distribution(purified_state(BB84, q, result.best_alpha), result.best_povm)
        accs.append(_best_guess_accuracy(jd, BB84.basis_count)[0])
    assert accs[0] == pytest.approx(0.5, abs=1e-9)
    assert all(b >= a - 1e-6 for a, b in zip(accs, accs[1:]))


def test_monte_carlo_matches_analytic_bb84(light_config):
    result = optimize_attack(BB84, 0.1, light_config)
    ps = purified_state(BB84, 0.1, result.best_alpha)
    jd = joint_distribution(ps, result.best_povm)
    s = sample_rounds(jd, 10**6, seed=77)
    qhat, ihat, _ = empirical_stats(s, 2, key_on_basis=False)
    assert abs(qhat - 0.1) <= 3 * np.sqrt(0.1 * 0.9 / 10**6)
    assert abs(ihat - result.i_ae) <= 0.01


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_sampled_estimates_score_errors_on_every_round_and_the_adversary_on_attack_rounds(name):
    jd = _jd(name, 0.1)
    proto = jd.protocol
    s = sample_rounds(jd, 30_000, seed=4)
    attack = s[s["theta"] < proto.attack_basis_count]
    _, i_ae_hat, accuracy = empirical_stats(attack, proto.attack_basis_count, proto.key_on_basis)
    expected = (np.mean(s["y"] != s["x"]), i_ae_hat, accuracy, len(attack))
    assert sampled_estimates(jd, 30_000, seed=4) == expected


@pytest.mark.parametrize(("name", "minimum"), [("bb84", 1000), ("sarg04", 1000), ("sixstate", 1614)])
def test_check_attack_rounds_minimum(name, minimum):
    # six-state's attack-round count is binomial(n, 2/3), and four standard deviations below
    # its mean must reach 1000; bb84 and sarg04 score every round, so their count has no spread
    check_attack_rounds(PROTOCOLS[name], minimum)
    for n in (minimum - 1, -5):
        with pytest.raises(ValueError, match="raise n_rounds"):
            check_attack_rounds(PROTOCOLS[name], n)
