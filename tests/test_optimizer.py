import itertools
import multiprocessing
import os

import numpy as np
import pytest

import qkdattack.optimizer as op
from batch_reference import ReferenceBatch
from povm_helpers import random_povm
from qkdattack.information import Povm, conditional_probs, mutual_info_ae
from qkdattack.keyrate import bb84_closed_form_iae
from qkdattack.optimizer import AttackResult, OptimizerConfig, optimize_attack
from qkdattack.states import BB84, SARG04, SIX_STATE, alpha_range, purified_state


def _optimize_povm(ps, n_outcomes, config):
    """(best POVM elements, value) of config.restarts ascents at one state."""
    m, f, _, _ = op._ascend([ps], n_outcomes, config)[0]
    return m, f


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        OptimizerConfig(seed=-1)
    with pytest.raises(ValueError, match="alpha_refine_iters must be non-negative"):
        OptimizerConfig(alpha_refine_iters=-1)
    assert OptimizerConfig(seed=0, alpha_refine_iters=0).alpha_refine_iters == 0
    cfg = OptimizerConfig()
    assert cfg.restarts == 32 and cfg.alpha_grid_points == 41


def test_random_povm_valid_and_deterministic():
    a = random_povm(4, 4, seed=3)
    b = random_povm(4, 4, seed=3)
    assert np.array_equal(a.elements, b.elements)
    assert np.max(np.abs(a.elements.sum(axis=0) - np.eye(4))) < 1e-9
    c = random_povm(4, 4, seed=4)
    assert not np.allclose(a.elements, c.elements)


def test_random_povm_single_outcome_is_identity():
    povm = random_povm(4, 1, seed=0)
    assert np.allclose(povm.elements[0], np.eye(4), atol=1e-9)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    for proto in (BB84, SARG04):
        ps = purified_state(proto, 0.1, sum(alpha_range(proto, 0.1)) / 2)
        rho_rows = op._state_rows(op._conditional_stack(ps)[None], np.zeros(1, dtype=int))
        m = random_povm(4, 4, seed=5).elements[None]
        h = rng.standard_normal((4, 4, 4)) + 1j * rng.standard_normal((4, 4, 4))
        h = (h + h.conj().transpose(0, 2, 1)) / 2
        g = op._gradient(op._objective(op._probs(m, rho_rows))[1], rho_rows)
        analytic = float(np.einsum("rkij,kji->", g, h).real)
        eps = 1e-6
        f_plus = op._objective(op._probs(m + eps * h[None], rho_rows))[0][0]
        f_minus = op._objective(op._probs(m - eps * h[None], rho_rows))[0][0]
        numeric = (f_plus - f_minus) / (2 * eps)
        assert analytic == pytest.approx(numeric, abs=2e-6)


def test_local_search_monotone_and_complete():
    # every row of a lockstep batch is its own accept/reject ascent: two
    # alphas, two seeded restarts each
    rho = np.stack([op._conditional_stack(purified_state(BB84, 0.1, a)) for a in (0.8, 0.85)])
    group = np.array([0, 0, 1, 1])
    factors = np.stack([op._random_factors(np.random.default_rng(9 + r), 4, 4) for r in range(group.size)])
    batch = op._Batch(factors, rho, group)
    trace = [batch.f.copy()]
    for step in range(1, 121):
        batch.step_once()
        trace.append(batch.f.copy())
        assert np.max(np.abs(batch.m.sum(axis=1) - np.eye(4))) < 1e-9
        assert batch.iters == step
    trace = np.array(trace)
    assert np.all(np.diff(trace, axis=0) >= 0)
    assert np.all(trace[-1] > trace[0])
    assert np.array_equal(batch.row_iters, np.full(group.size, 120))


def test_optimize_povm_zero_noise():
    for proto, alpha in ((BB84, 1.0), (SIX_STATE, 1.0), (SARG04, 1.0)):
        ps = purified_state(proto, 0.0, alpha)
        _, f = _optimize_povm(ps, 4, OptimizerConfig(restarts=4, max_iters=300))
        assert f <= 1e-8


def test_optimize_povm_deterministic():
    ps = purified_state(BB84, 0.1, 0.8)
    cfg = OptimizerConfig(restarts=6)
    m_a, f_a = _optimize_povm(ps, 4, cfg)
    m_b, f_b = _optimize_povm(ps, 4, cfg)
    assert f_a == f_b
    assert np.array_equal(m_a, m_b)


def test_optimize_povm_beats_fixed_reference():
    ps = purified_state(BB84, 0.1, 0.8)
    _, f = _optimize_povm(ps, 4, OptimizerConfig(restarts=6))
    eye = np.eye(4, dtype=complex)
    reference = Povm(np.stack([np.outer(eye[k], eye[k]) for k in range(4)]))
    f_ref = mutual_info_ae(conditional_probs(reference, ps))
    assert f >= f_ref - 1e-12


def test_outcome_doubling_does_not_help():
    ps = purified_state(BB84, 0.1, 0.8)
    _, f4 = _optimize_povm(ps, 4, OptimizerConfig(restarts=10))
    _, f8 = _optimize_povm(ps, 8, OptimizerConfig(restarts=10))
    assert f8 - f4 <= 1e-5


def test_restart_calibration_bb84():
    # empirical calibration, frozen at first measurement: from Gaussian
    # starts at the optimal alpha, 45 of 64 seeded restarts reach the
    # closed-form optimum within 1e-4 (the rest sit at a lower critical
    # point near 0.2567); the multi-start maximum is what ships
    ps = purified_state(BB84, 0.1, 0.8)
    target = bb84_closed_form_iae(0.1)
    rho = op._conditional_stack(ps)[None]
    factors = np.stack([op._random_factors(np.random.default_rng(7 + r), 4, 4) for r in range(32)])
    batch = op._Batch(factors, rho, np.zeros(32, dtype=int))
    batch.run(2000)
    hits = int(np.sum(np.abs(batch.f - target) <= 1e-4))
    assert hits >= 19  # 6/10 of restarts, with margin below the measured 70%
    assert np.max(batch.f) == pytest.approx(target, abs=1e-6)


def test_optimize_attack_result_invariants(light_config):
    result = optimize_attack(BB84, 0.1, light_config)
    assert isinstance(result, AttackResult)
    assert 0.0 <= result.i_ae <= 1.0
    lo, hi = alpha_range(BB84, 0.1)
    assert lo - 1e-12 <= result.best_alpha <= hi + 1e-12
    assert 1 <= result.restarts_agreeing <= light_config.restarts
    assert result.best_povm.n_outcomes == 4
    assert result.converged
    assert result.robust == (4 * result.restarts_agreeing >= light_config.restarts)


def test_optimize_attack_matches_closed_form(light_config):
    result = optimize_attack(BB84, 0.1, light_config)
    assert result.i_ae == pytest.approx(bb84_closed_form_iae(0.1), abs=1e-6)
    assert result.best_alpha == pytest.approx(0.8, abs=1e-9)


def test_optimize_attack_monotone_in_q(light_config):
    values = [optimize_attack(BB84, q, light_config).i_ae for q in (0.05, 0.15, 0.25)]
    assert values[0] < values[1] < values[2]


def test_optimize_attack_sixstate_alpha_degenerate(light_config):
    result = optimize_attack(SIX_STATE, 0.12, light_config)
    assert result.best_alpha == pytest.approx(1 - 1.5 * 0.12, abs=1e-12)


def test_optimize_attack_rejects_bad_q(light_config):
    with pytest.raises(ValueError, match="q must lie"):
        optimize_attack(BB84, 0.7, light_config)


def _best_guess_accuracy(result: AttackResult) -> float:
    """Exact accuracy of the guess argmax_key p(k | key, side), uniform key and side."""
    protocol = result.protocol
    p = conditional_probs(result.best_povm, purified_state(protocol, result.q, result.best_alpha)).probs
    # p[k, x, theta]: the key is theta for a basis-keyed protocol, else x
    best = p.max(axis=2 if protocol.key_on_basis else 1)
    return float(best.sum()) / (p.shape[1] * p.shape[2])


def test_optimized_attack_best_guess_accuracy(light_config):
    # read off the probabilities, so no outcome labelling enters
    assert _best_guess_accuracy(optimize_attack(BB84, 0.1, light_config)) == pytest.approx(0.70, abs=0.02)
    assert _best_guess_accuracy(optimize_attack(SARG04, 0.1, light_config)) >= 0.72


def _einsum_probs(m, rho):
    # reference: the pre-GEMM formula, one shared (key, side, d, d) stack
    flat = rho.reshape(-1, 4, 4)
    p = np.einsum("rkij,cji->rkc", m, flat).real
    return np.clip(p.reshape(m.shape[0], m.shape[1], *rho.shape[:2]), 0.0, 1.0)


def _einsum_gradient(p, rho):
    pbar = p.mean(axis=2)[:, :, None, :]
    ratio = np.log2(np.maximum(p, 1e-18)) - np.log2(np.maximum(pbar, 1e-18))
    return np.einsum("rkas,asij->rkij", ratio / (p.shape[2] * p.shape[3]), rho)


@pytest.mark.parametrize("proto", [BB84, SIX_STATE, SARG04], ids=lambda p: p.name)
def test_objective_matches_reference_estimator(proto):
    # the optimizer's (key, side) objective against information.py's
    # independent estimator, which reads key_on_basis itself
    lo, hi = alpha_range(proto, 0.1)
    ps = purified_state(proto, 0.1, lo + 0.4 * (hi - lo))
    rho_xt = op._conditional_stack(ps)[None]
    b = proto.attack_basis_count
    assert rho_xt.shape[1:3] == ((b, 2) if proto.key_on_basis else (2, b))
    rho_rows = op._state_rows(rho_xt, np.zeros(1, dtype=int))
    for seed in range(5):
        povm = random_povm(4, proto.povm_outcomes, seed=40 + seed)
        f = op._objective(op._probs(povm.elements[None], rho_rows))[0][0]
        reference = mutual_info_ae(conditional_probs(povm, ps), proto.key_on_basis)
        assert abs(f - reference) <= 1e-12


def test_kernels_match_einsum_on_shared_and_grouped_stacks():
    group, shared = np.array([0, 2, 1, 0, 1, 2]), np.zeros(6, dtype=int)
    m = np.stack([random_povm(4, 4, seed=30 + r).elements for r in range(group.size)])
    for proto in (BB84, SARG04, SIX_STATE):
        lo, hi = alpha_range(proto, 0.1)
        rhos = np.stack([op._conditional_stack(purified_state(proto, 0.1, a)) for a in (lo, (lo + hi) / 2, hi)])
        shared_rows, rho_rows = op._state_rows(rhos[1:2], shared), op._state_rows(rhos, group)
        p_shared = op._probs(m, shared_rows)
        assert np.max(np.abs(p_shared - _einsum_probs(m, rhos[1]))) <= 1e-14
        g_shared = op._gradient(op._objective(p_shared)[1], shared_rows)
        assert np.max(np.abs(g_shared - _einsum_gradient(p_shared, rhos[1]))) <= 1e-14
        p = op._probs(m, rho_rows)
        assert np.array_equal(op._key_marginal(p), p.mean(axis=2))
        g = op._gradient(op._objective(p)[1], rho_rows)
        for i, grp in enumerate(group):
            assert np.max(np.abs(p[i] - _einsum_probs(m[i : i + 1], rhos[grp])[0])) <= 1e-14
            assert np.max(np.abs(g[i] - _einsum_gradient(p[i : i + 1], rhos[grp])[0])) <= 1e-14


@pytest.mark.parametrize("proto", [BB84, SARG04], ids=lambda p: p.name)
def test_row_trajectory_independent_of_batch(proto):
    # the same seeded restarts alone, among 32, as the middle group of a
    # three-alpha batch and interleaved with the other two alphas' rows must
    # follow bit-identical trajectories
    n, iters = 32, 300
    lo, hi = alpha_range(proto, 0.1)
    rhos = np.stack([op._conditional_stack(purified_state(proto, 0.1, a)) for a in (lo, (lo + hi) / 2, hi)])
    starts = np.stack([op._random_factors(np.random.default_rng(7 + r), 4, 4) for r in range(n)])
    alone = [op._Batch(starts[r : r + 1], rhos[1:2], np.zeros(1, dtype=int)) for r in range(n)]
    for batch in alone:
        batch.run(iters)
    among = op._Batch(starts, rhos[1:2], np.zeros(n, dtype=int))
    among.run(iters)
    multi = op._Batch(np.tile(starts, (3, 1, 1, 1)), rhos, np.repeat(np.arange(3), n))
    multi.run(iters)
    interleaved = op._Batch(np.repeat(starts, 3, axis=0), rhos, np.tile(np.arange(3), n))
    interleaved.run(iters)
    mid = slice(n, 2 * n)
    for attr in ("f", "m", "converged", "row_iters"):
        single = np.stack([getattr(batch, attr)[0] for batch in alone])
        assert np.array_equal(single, getattr(among, attr)), attr
        assert np.array_equal(single, getattr(multi, attr)[mid]), attr
        assert np.array_equal(single, getattr(interleaved, attr)[1::3]), attr
    assert among.iters == multi.row_iters[mid].max() == max(batch.iters for batch in alone)


def _compaction_batch(proto, rows_per_group=6):
    """(factors, rho_xt, group) of four row groups sharing seeded starts.

    The second group sits at q = 0, where no step improves the value
    significantly, so all its rows finish together at the stall limit while
    the groups around it, at q = 0.10 and 0.05, still run.
    """
    lo, hi = alpha_range(proto, 0.1)
    points = [(0.1, lo), (0.0, 1.0), (0.1, (lo + hi) / 2), (0.05, sum(alpha_range(proto, 0.05)) / 2)]
    rho = np.stack([op._conditional_stack(purified_state(proto, q, a)) for q, a in points])
    starts = np.stack([op._random_factors(np.random.default_rng(7 + r), 4, 4) for r in range(rows_per_group)])
    return np.tile(starts, (len(points), 1, 1, 1)), rho, np.repeat(np.arange(len(points)), rows_per_group)


def _run_both(factors, rho, group, max_iters):
    """The reference batch after run(max_iters), checked row for row against _Batch."""
    ref, batch = ReferenceBatch(factors, rho, group), op._Batch(factors, rho, group)
    ref.run(max_iters)
    batch.run(max_iters)
    for attr in ("f", "m", "active", "converged", "row_iters"):
        assert np.array_equal(getattr(batch, attr), getattr(ref, attr)), attr
    assert batch.iters == ref.iters
    return ref


@pytest.mark.parametrize("proto", [BB84, SARG04, SIX_STATE], ids=lambda p: p.name)
def test_compacting_batch_matches_reference(proto):
    factors, rho, group = _compaction_batch(proto)
    ref = _run_both(factors, rho, group, 400)
    # the cases compaction must handle all occur in this batch
    middle, outer = group == 1, group != 1
    assert ref.converged[middle].all() and ref.row_iters[middle].max() < ref.row_iters[outer].min()
    assert np.bincount(ref.row_iters[ref.converged]).max() >= 2
    assert (~ref.converged).any() and (ref.row_iters[~ref.converged] == 400).all()
    # a one-row batch whose row finishes
    assert _run_both(factors[4:5], rho, group[4:5], 300).converged.all()
    # a cap below the stall window, where no row finishes
    cap = op._STALL_LIMIT - 30
    ref = _run_both(factors, rho, group, cap)
    assert ref.active.all() and ref.iters == cap


def test_batch_fields_read_after_every_step():
    # the fields a caller reads after each step keep one entry per row of
    # the batch, finished rows keep their value, and f rises exactly where
    # the reference accepted a step
    factors, rho, group = _compaction_batch(SARG04)
    n = group.size
    ref, batch = ReferenceBatch(factors, rho, group), op._Batch(factors, rho, group)
    final_f = {}
    while batch.active.any() and batch.iters < 400:
        f_before, ref_before = batch.f, ref.f.copy()
        batch.step_once()
        ref.step_once()
        f = batch.f
        assert all(x.shape == (n,) for x in (f, batch.active, batch.converged, batch.row_iters))
        assert np.array_equal(f > f_before, ref.f > ref_before)
        assert np.array_equal(f != f_before, f > f_before)
        for row in np.flatnonzero(~batch.active):
            assert f[row] == final_f.setdefault(row, f[row])
    assert 0 < len(final_f) < n
    assert np.array_equal(batch.f, ref.f)


@pytest.mark.parametrize("proto", [BB84, SARG04], ids=lambda p: p.name)
def test_grid_batching_changes_no_result(proto, light_config, monkeypatch):
    batched = optimize_attack(proto, 0.1, light_config)
    batch_ascend = op._ascend
    monkeypatch.setattr(op, "_ascend", lambda states, *args: [batch_ascend([ps], *args)[0] for ps in states])
    single = optimize_attack(proto, 0.1, light_config)
    assert batched.i_ae == single.i_ae
    assert batched.best_alpha == single.best_alpha
    assert batched.restarts_agreeing == single.restarts_agreeing
    assert batched.converged == single.converged
    assert np.array_equal(batched.best_povm.elements, single.best_povm.elements)


@pytest.mark.parametrize(
    ("proto", "most"), [pytest.param(p, most, id=p.name) for p, most in ((BB84, 19), (SARG04, 19), (SIX_STATE, 1))]
)
def test_golden_section_evaluates_each_alpha_once(proto, most, monkeypatch):
    # grid 15 plus 3 refinement steps: the first step evaluates its pair, each
    # later step carries one interior point and evaluates one new alpha;
    # six-state's point interval runs one ascent of one alpha
    seen = []

    def recording(protocol, q, alpha):
        seen.append(alpha)
        return purified_state(protocol, q, alpha)

    monkeypatch.setattr(op, "purified_state", recording)
    cfg = OptimizerConfig(restarts=2, max_iters=100, alpha_grid_points=15, alpha_refine_iters=3)
    optimize_attack(proto, 0.1, cfg)
    alphas = np.sort(seen)
    assert 1 <= len(alphas) <= most
    assert np.all(np.diff(alphas) > 1e-12)


def _alone_and_shared(monkeypatch, run):
    """run() in one process, then in two: this one and a forked worker."""
    monkeypatch.setattr(op, "_process_count", lambda: 1)
    alone = run()
    opened, real_pool = [], op._pool

    def recording_pool(workers):
        pool = real_pool(workers)
        # queued ahead of the shards, so it runs in the worker that runs them
        opened.append((workers, pool.submit(os.getpid)))
        return pool

    monkeypatch.setattr(op, "_pool", recording_pool)
    monkeypatch.setattr(op, "_process_count", lambda: 2)
    shared = run()
    assert opened, "no shard was sent to a worker pool"
    assert all(workers == 1 and pid.result(timeout=120) != os.getpid() for workers, pid in opened)
    return alone, shared


def test_shard_layout():
    row_counts = [1, 4, 15, 16, 31, 32, 36, 72, 129, 257, 480, 1000]
    for rows, processes in itertools.product(row_counts, [1, 2, 3, 8]):
        shards = op._shards(rows, processes)
        assert len(shards) == max(1, min(processes, rows // op._MIN_SHARD_ROWS))
        assert shards[0][0] == 0 and shards[-1][1] == rows
        assert all(e == s for (_, e), (s, _) in zip(shards, shards[1:]))
        sizes = [e - s for s, e in shards]
        assert max(sizes) - min(sizes) <= 1
        assert min(sizes) >= min(rows, op._MIN_SHARD_ROWS)


@pytest.mark.parametrize("proto", [BB84, SARG04], ids=lambda p: p.name)
def test_sharding_changes_no_attack_result(proto, light_config, monkeypatch):
    alone, shared = _alone_and_shared(monkeypatch, lambda: optimize_attack(proto, 0.1, light_config))
    assert shared.i_ae == alone.i_ae
    assert shared.best_alpha == alone.best_alpha
    assert shared.restarts_agreeing == alone.restarts_agreeing
    assert shared.converged == alone.converged
    assert np.array_equal(shared.best_povm.elements, alone.best_povm.elements)


def test_sharding_changes_no_povm_result(monkeypatch):
    # 32 restarts of one state: with two processes the group is cut in half
    ps, cfg = purified_state(BB84, 0.1, 0.8), OptimizerConfig(restarts=32, max_iters=600)
    alone, shared = _alone_and_shared(monkeypatch, lambda: _optimize_povm(ps, 4, cfg))
    assert shared[1] == alone[1]
    assert np.array_equal(shared[0], alone[0])


def test_group_straddling_a_shard_boundary(monkeypatch):
    # three alphas of 12 restarts: the two shards meet at row 18, inside the middle group
    cfg = OptimizerConfig(restarts=12, max_iters=600)
    lo, hi = alpha_range(SARG04, 0.1)
    states = [purified_state(SARG04, 0.1, a) for a in (lo, (lo + hi) / 2, hi)]
    assert op._shards(36, 2) == [(0, 18), (18, 36)]
    alone, shared = _alone_and_shared(monkeypatch, lambda: op._ascend(states, 4, cfg))
    for (m_a, f_a, agree_a, conv_a), (m_s, f_s, agree_s, conv_s) in zip(alone, shared):
        assert (f_s, agree_s, conv_s) == (f_a, agree_a, conv_a)
        assert np.array_equal(m_s, m_a)


def test_sharded_ascent_leaves_no_worker(monkeypatch):
    # the pool lives for one ascent: its workers are joined before _ascend returns
    monkeypatch.setattr(op, "_process_count", lambda: 2)
    cfg = OptimizerConfig(restarts=32, max_iters=20)
    assert len(op._shards(cfg.restarts, 2)) == 2
    op._ascend([purified_state(BB84, 0.1, 0.8)], 4, cfg)
    assert multiprocessing.active_children() == []


def test_small_call_builds_no_pool(monkeypatch):
    def no_pool(workers):
        raise AssertionError("a call below the minimum shard size built the worker pool")

    monkeypatch.setattr(op, "_process_count", lambda: 2)
    monkeypatch.setattr(op, "_pool", no_pool)
    assert op._shards(4, 2) == [(0, 4)]
    # the benchmark's warm-up: two alphas of two restarts
    cfg = OptimizerConfig(restarts=2, alpha_grid_points=2, alpha_refine_iters=0, max_iters=20)
    assert optimize_attack(BB84, 0.1, cfg).i_ae > 0


def _povm_value(seed: int) -> float:
    cfg = OptimizerConfig(restarts=32, max_iters=50, seed=seed)
    return _optimize_povm(purified_state(BB84, 0.1, 0.8), 4, cfg)[1]


def test_ascent_in_a_daemonic_worker(monkeypatch):
    # multiprocessing.Pool workers are daemonic and may not start processes,
    # so a 32-row ascent, which two CPUs would shard, stays in the worker
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply_async(_povm_value, (7,)).get(timeout=120) == _povm_value(7)
