import dataclasses
import itertools
import multiprocessing
import os

import numpy as np
import pytest

import qkdattack.optimizer as op
from batch_reference import ReferenceBatch
from povm_helpers import random_povm
from qkdattack.information import Povm, conditional_probs, holevo_chi, mutual_info_ae
from qkdattack.keyrate import bb84_closed_form_iae
from qkdattack.optimizer import AttackResult, OptimizerConfig, optimize_attack
from qkdattack.states import BB84, SARG04, SIX_STATE, alpha_range, purified_state


def _optimize_povm(ps, n_outcomes, config):
    """(best POVM elements, value) of config.restarts ascents at one state."""
    povms, f, _ = op._ascend([ps], n_outcomes, config)[0]
    return povms[0], f


def _state_rows(rho_xt, group):
    """Row i's state rows as _Batch lays them out: rho_xt[group[i]], matrices flattened to d^2 entries."""
    return rho_xt.reshape(*rho_xt.shape[:3], -1)[group]


def _batch(factors, rho_xt, group):
    """A _Batch of row i at stack rho_xt[group[i]], with no bound on any row, so no row retires."""
    return op._Batch(factors, _state_rows(rho_xt, group), np.full(group.size, np.inf))


def _real_povm(n_outcomes, seed):
    """Re of a random complex POVM: again a POVM, and real like the optimizer's."""
    return Povm(random_povm(4, n_outcomes, seed).elements.real)


@pytest.mark.parametrize("proto", [BB84, SIX_STATE, SARG04], ids=lambda p: p.name)
def test_conditional_stacks_are_real(proto):
    # the attack bases are real, so every stack the optimizer reads is real
    for q in (0.0, 0.02, 0.1, 0.175, 0.25, 0.4):
        lo, hi = alpha_range(proto, q)
        for alpha in np.linspace(lo, hi, 5):
            rho = op._conditional_stack(purified_state(proto, q, alpha))
            assert rho.dtype == np.float64
            assert np.array_equal(rho, rho.mT)


def test_circular_attack_basis_is_rejected():
    # an estimator reading six-state's circular basis would need complex POVMs
    circular = dataclasses.replace(SIX_STATE, attack_basis_count=3)
    with pytest.raises(ValueError, match="real conditional states"):
        op._conditional_stack(purified_state(circular, 0.1, 1 - 1.5 * 0.1))


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        OptimizerConfig(seed=-1)
    with pytest.raises(ValueError, match="alpha_refine_iters must be non-negative"):
        OptimizerConfig(alpha_refine_iters=-1)
    # a one-point grid has no cell to refine, so its search would stop at alpha_lo
    with pytest.raises(ValueError, match="alpha_grid_points at least 2"):
        OptimizerConfig(alpha_grid_points=1)
    assert OptimizerConfig(alpha_grid_points=2).alpha_grid_points == 2
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
        rho_rows = _state_rows(op._conditional_stack(ps)[None], np.zeros(1, dtype=int))
        m = _real_povm(4, seed=5).elements[None]
        h = rng.standard_normal((4, 4, 4))
        h = (h + h.mT) / 2
        g = op._gradient(op._objective(op._probs(m, rho_rows))[1], rho_rows)
        analytic = float(np.einsum("rkij,kji->", g, h))
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
    batch = _batch(factors, rho, group)
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
    # real arithmetic throughout: no array of the batch is complex
    arrays = [x for x in (factors, batch.f, batch.m, *vars(batch).values()) if isinstance(x, np.ndarray)]
    assert all(x.dtype.kind in "biu" or x.dtype == np.float64 for x in arrays)


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
    f_ref = mutual_info_ae(conditional_probs(reference, ps), key_on_basis=False)
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
    batch = _batch(factors, rho, np.zeros(32, dtype=int))
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
    rho_rows = _state_rows(rho_xt, np.zeros(1, dtype=int))
    for seed in range(5):
        povm = _real_povm(proto.povm_outcomes, seed=40 + seed)
        f = op._objective(op._probs(povm.elements[None], rho_rows))[0][0]
        reference = mutual_info_ae(conditional_probs(povm, ps), proto.key_on_basis)
        assert abs(f - reference) <= 1e-12


def test_kernels_match_einsum_on_shared_and_grouped_stacks():
    group, shared = np.array([0, 2, 1, 0, 1, 2]), np.zeros(6, dtype=int)
    m = np.stack([_real_povm(4, seed=30 + r).elements for r in range(group.size)])
    for proto in (BB84, SARG04, SIX_STATE):
        lo, hi = alpha_range(proto, 0.1)
        rhos = np.stack([op._conditional_stack(purified_state(proto, 0.1, a)) for a in (lo, (lo + hi) / 2, hi)])
        shared_rows, rho_rows = _state_rows(rhos[1:2], shared), _state_rows(rhos, group)
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
    alone = [_batch(starts[r : r + 1], rhos[1:2], np.zeros(1, dtype=int)) for r in range(n)]
    for batch in alone:
        batch.run(iters)
    among = _batch(starts, rhos[1:2], np.zeros(n, dtype=int))
    among.run(iters)
    multi = _batch(np.tile(starts, (3, 1, 1, 1)), rhos, np.repeat(np.arange(3), n))
    multi.run(iters)
    interleaved = _batch(np.repeat(starts, 3, axis=0), rhos, np.tile(np.arange(3), n))
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
    ref, batch = ReferenceBatch(factors, rho, group), _batch(factors, rho, group)
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
    # a one-row batch whose row finishes: a row of the q = 0 group
    assert _run_both(factors[middle][:1], rho, group[middle][:1], 300).converged.all()
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
    ref, batch = ReferenceBatch(factors, rho, group), _batch(factors, rho, group)
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


def test_momentum_restarts_on_every_rejected_step():
    # after each step a live row's velocity is _MOMENTUM times the move it
    # accepted, and exactly zero where its value did not rise, also across
    # the step on which the q = 0 group finishes and the batch compacts
    factors, rho, group = _compaction_batch(SARG04)
    batch = _batch(factors, rho, group)
    compacted = accepted = rejected = 0
    while batch.active.any() and batch.iters < 400:
        rows_before, a_before, f_before = batch._rows.copy(), batch._a.copy(), batch.f
        batch.step_once()
        live = np.isin(rows_before, batch._rows)
        compacted += not live.all()
        rose = batch.f[batch._rows] > f_before[batch._rows]
        moved = op._MOMENTUM * (batch._a - a_before[live])
        assert np.array_equal(batch._v[rose], moved[rose])
        assert not batch._v[~rose].any()
        accepted, rejected = accepted + rose.sum(), rejected + (~rose).sum()
    assert compacted and accepted and rejected


def test_one_alpha_work_count():
    # a fixed sarg04 ascent at q = 0.10 and its interior optimum alpha: the
    # row-step count is deterministic, so a change that slows convergence
    # fails here (20713 row-steps without momentum, 12231 with it)
    rho = op._conditional_stack(purified_state(SARG04, 0.1, 0.7588))[None]
    factors = np.stack([op._random_factors(np.random.default_rng(7 + r), 4, 4) for r in range(32)])
    batch = _batch(factors, rho, np.zeros(32, dtype=int))
    batch.run(2000)
    assert batch.row_iters.sum() <= 14000
    assert batch.f.max() >= 0.1996008822


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


def _recording_alphas(monkeypatch):
    """Record the alphas of every state the search builds, and the (alphas, values) of each ascent.

    Returns (asked, ascents): every alpha passed to purified_state, ascent
    and slope stencil alike, and per ascent its alphas and values, -inf
    where retired.
    """
    asked, ascents, alpha_of = [], [], {}
    build, ascend = op.purified_state, op._ascend

    def building(protocol, q, alpha):
        ps = build(protocol, q, alpha)
        asked.append(alpha)
        alpha_of[id(ps)] = alpha
        return ps

    def ascending(states, *args):
        results = ascend(states, *args)
        ascents.append(([alpha_of[id(ps)] for ps in states], [-np.inf if r is None else r[1] for r in results]))
        return results

    monkeypatch.setattr(op, "purified_state", building)
    monkeypatch.setattr(op, "_ascend", ascending)
    return asked, ascents


@pytest.mark.parametrize("proto", [BB84, SARG04, SIX_STATE], ids=lambda p: p.name)
def test_secant_evaluates_each_alpha_once(proto, monkeypatch):
    # the grid shares one ascent, then each secant step runs one ascent of a
    # new alpha, at most alpha_refine_iters of them; a point interval
    # (six-state's, and every protocol's at q = 0) runs one ascent of one
    # alpha.  Every alpha the search asks for, slope stencils included, lies
    # in the interval, and every refinement alpha strictly inside a grid
    # cell beside the best grid point, so the search needs no clamp
    asked, ascents = _recording_alphas(monkeypatch)
    for q, grid in itertools.product((0.0, 0.1), (2, 3, 15)):
        lo, hi = alpha_range(proto, q)
        assert (lo == hi) == (q == 0.0 or proto is SIX_STATE)
        asked.clear()
        ascents.clear()
        cfg = OptimizerConfig(restarts=2, max_iters=100, alpha_grid_points=grid, alpha_refine_iters=3)
        result = optimize_attack(proto, q, cfg)
        assert all(lo <= a <= hi for a in asked)
        points = list(dict.fromkeys(np.linspace(lo, hi, grid).tolist()))
        (first, values), *steps = ascents
        assert first == points
        refined = [alphas[0] for alphas, _ in steps]
        assert all(len(alphas) == 1 for alphas, _ in steps)
        assert len(refined) <= cfg.alpha_refine_iters
        assert len(set(points + refined)) == len(points) + len(refined)
        best = int(np.argmax(values))
        cell = points[max(best - 1, 0)], points[min(best + 1, len(points) - 1)]
        assert all(cell[0] < a < cell[1] for a in refined)
        assert result.alpha_stop in ("bound", "stationary", "budget")
        if lo == hi:
            assert ascents == [([lo], values)]
            assert (result.alpha_stop, result.alpha_slope) == ("bound", None)


def test_bb84_certifies_alpha_lo_in_one_ascent(light_config, monkeypatch):
    # bb84's value falls away from alpha_lo, with slopes near -2.7 at both
    # steps, so the grid's ascent is the only one
    calls = _recording_ascend(monkeypatch)
    result = optimize_attack(BB84, 0.1, light_config)
    assert calls == [(light_config.alpha_grid_points, calls[0][1])]
    assert result.best_alpha == alpha_range(BB84, 0.1)[0]
    assert result.alpha_stop == "bound"
    assert -3.0 < result.alpha_slope[0] <= result.alpha_slope[1] < -2.5


def test_singular_slope_at_a_bound_certifies_nothing():
    # sarg04 at q = 0.10 on a grid of 3: the best grid point is alpha_lo,
    # where a Bell weight vanishes.  I* rises into the interval like
    # sqrt(alpha - alpha_lo), but the fixed-POVM slope of the best restart
    # points out of it, ten times as steeply at a hundredth of the step;
    # other agreeing restarts point in.  Certifying alpha_lo by that slope
    # would report its value, 0.18288; the secant reaches 0.19932
    cfg = OptimizerConfig(restarts=8, alpha_grid_points=3, alpha_refine_iters=3)
    lo, _ = alpha_range(SARG04, 0.1)
    povms = op._ascend([purified_state(SARG04, 0.1, lo)], 4, cfg)[0][0]
    f = op._fixed_povm_info(povms, [purified_state(SARG04, 0.1, a) for a in (lo, lo + 1e-6, lo + 1e-8)])
    coarse, fine = (f[:, 1] - f[:, 0]) / 1e-6, (f[:, 2] - f[:, 0]) / 1e-8
    assert fine[0] < 5 * coarse[0] < 0
    assert coarse.min() < 0 < coarse.max()
    assert op._alpha_slope(SARG04, 0.1, lo, povms) is None
    assert op._alpha_slope(SARG04, 0.1, lo, povms[:1]) is None
    result = optimize_attack(SARG04, 0.1, cfg)
    assert result.best_alpha > lo
    assert result.alpha_stop != "bound"
    assert result.i_ae > 0.199


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
    # three states of 12 restarts, at two error rates, laid out
    # state-fastest: the two shards meet at row 18, so each holds six
    # restarts of every state; no state retires, so every state's reduction
    # spans both shards.  Each state's result is also that of an ascent of
    # it alone, so rows at different q share one batch bit for bit
    _unpruned(monkeypatch)
    cfg = OptimizerConfig(restarts=12, max_iters=600)
    lo, hi = alpha_range(SARG04, 0.1)
    points = [(0.1, lo), (0.05, sum(alpha_range(SARG04, 0.05)) / 2), (0.1, hi)]
    states = [purified_state(SARG04, q, a) for q, a in points]
    assert op._shards(36, 2) == [(0, 18), (18, 36)]
    alone, shared = _alone_and_shared(monkeypatch, lambda: op._ascend(states, 4, cfg))
    monkeypatch.setattr(op, "_process_count", lambda: 1)
    single = [op._ascend([ps], 4, cfg)[0] for ps in states]
    for (m_a, f_a, conv_a), (m_s, f_s, conv_s), (m_1, f_1, conv_1) in zip(alone, shared, single):
        assert (f_s, conv_s) == (f_a, conv_a) == (f_1, conv_1)
        # the agreeing restarts' POVMs, in the same order
        assert np.array_equal(m_s, m_a) and np.array_equal(m_1, m_a)


def _unpruned(monkeypatch):
    """Disable the grid pruning: every Holevo bound reads +inf."""
    monkeypatch.setattr(op, "holevo_chi", lambda rho: np.full(len(rho), np.inf))


def _recording_ascend(monkeypatch):
    """Wrap _ascend; returns the list of (alphas' count, retired states) of each call."""
    calls, ascend = [], op._ascend

    def recording(states, *args):
        results = ascend(states, *args)
        calls.append((len(states), [i for i, r in enumerate(results) if r is None]))
        return results

    monkeypatch.setattr(op, "_ascend", recording)
    return calls


@pytest.mark.parametrize("proto", [BB84, SIX_STATE, SARG04], ids=lambda p: p.name)
def test_holevo_bounds_every_searched_value(proto, light_config, monkeypatch):
    # Holevo's bound, averaged over side values, caps the value of every
    # restart at every alpha the search visits, grid and secant
    ascend, gaps = op._ascend, []
    _unpruned(monkeypatch)

    def checking(states, *args):
        results = ascend(states, *args)
        chi = holevo_chi(np.stack([op._conditional_stack(ps) for ps in states]))
        gaps.extend(f - c for (_, f, _), c in zip(results, chi))
        return results

    monkeypatch.setattr(op, "_ascend", checking)
    optimize_attack(proto, 0.1, light_config)
    assert gaps and max(gaps) <= 1e-9


@pytest.mark.parametrize("proto", [BB84, SARG04], ids=lambda p: p.name)
def test_pruning_changes_no_attack_result(proto, light_config, monkeypatch):
    calls = _recording_ascend(monkeypatch)
    pruned = optimize_attack(proto, 0.1, light_config)
    assert calls[0][1], "the grid ascent retired no alpha"
    _unpruned(monkeypatch)
    for full in _alone_and_shared(monkeypatch, lambda: optimize_attack(proto, 0.1, light_config)):
        for field in ("i_ae", "best_alpha", "restarts_agreeing", "converged", "robust"):
            assert getattr(full, field) == getattr(pruned, field), field
        assert np.array_equal(full.best_povm.elements, pruned.best_povm.elements)


def test_retired_rows_leave_the_other_rows_unchanged():
    # bb84 at q = 0.10: the two top alphas' bounds (0.097 and 0) lie below
    # the best value (0.2655), so their rows retire; every other row must
    # follow the unpruned batch bit for bit
    alphas = (0.8, 0.85, 0.8929, 0.9)
    rho = np.stack([op._conditional_stack(purified_state(BB84, 0.1, a)) for a in alphas])
    group = np.tile(np.arange(len(alphas)), 6)
    factors = np.stack([op._random_factors(np.random.default_rng(7 + r), 4, 4) for r in range(group.size)])
    bound = holevo_chi(rho)
    pruned, full = op._Batch(factors, _state_rows(rho, group), bound[group]), _batch(factors, rho, group)
    while pruned.active.any() and pruned.iters < 600:
        pruned.step_once()
        full.step_once()
        assert not (pruned.retired & pruned.converged).any()
        assert not (pruned.active & pruned.retired).any()
        retired_groups = np.unique(group[pruned.retired])
        # a row retires only once the batch's best value has passed its bound
        assert (bound[retired_groups] + 1e-9 < pruned.f.max()).all()
        assert np.array_equal(pruned.retired, np.isin(group, retired_groups) & ~pruned.converged)
    assert np.array_equal(np.unique(group[pruned.retired]), [2, 3])
    full.run(600)
    kept = ~np.isin(group, [2, 3])
    for attr in ("f", "m", "converged", "row_iters"):
        assert np.array_equal(getattr(pruned, attr)[kept], getattr(full, attr)[kept]), attr
    assert (pruned.row_iters[~kept] < full.row_iters[~kept]).all()
    assert (pruned.f[~kept] <= full.f[~kept]).all()


def test_secant_never_reads_a_retired_neighbour(monkeypatch):
    # sarg04's best grid point at q = 0.10 is interior, and the first secant
    # step is the root of its slope and that of the neighbour on the rising
    # side.  Retired in the grid ascent, that neighbour is an end
    # without a slope: the first step is the cell's midpoint, and the
    # neighbour is never read from the cache or run again
    cfg = OptimizerConfig(restarts=8, alpha_grid_points=15, alpha_refine_iters=2)
    _unpruned(monkeypatch)
    _, ascents = _recording_alphas(monkeypatch)
    optimize_attack(SARG04, 0.1, cfg)
    (grid, values), ([first], _), *_ = ascents
    best = int(np.argmax(values))
    k = best + (1 if first > grid[best] else -1)
    assert 0 < best < len(grid) - 1 and first != 0.5 * (grid[best] + grid[k])
    ascents.clear()
    monkeypatch.setattr(
        op, "holevo_chi", lambda rho: np.where((len(rho) == len(grid)) & (np.arange(len(rho)) == k), -1.0, np.inf)
    )
    result = optimize_attack(SARG04, 0.1, cfg)
    assert ascents[0][1][k] == -np.inf
    assert ascents[1][0] == [0.5 * (grid[best] + grid[k])]
    assert all(grid[k] not in alphas for alphas, _ in ascents[1:])
    assert result.best_alpha != grid[k]


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
