import dataclasses
import math
import multiprocessing

import numpy as np
import pytest

import qkdattack.optimizer as op
from batch_reference import ReferenceBatch
from povm_helpers import random_povm
from qkdattack.information import Povm, conditional_probs, holevo_chi, mutual_info_ae
from qkdattack.keyrate import bb84_closed_form_iae
from qkdattack.optimizer import AttackResult, OptimizerConfig, optimize_attack
from qkdattack.states import BB84, SARG04, SIX_STATE, alpha_at, alpha_range, amplitude_map, amplitudes, purified_state


def _flat_rows(rho_xt, group):
    """Row i's state rows as the kernels read them: rho_xt[group[i]], matrices flattened to d^2 entries."""
    return rho_xt.reshape(*rho_xt.shape[:3], -1)[group]


def _seeded(n, seed=7, n_outcomes=4):
    """Factors and angles of n seeded restarts, each drawn from its own stream seed + r as _ascend draws them."""
    rngs = [np.random.default_rng(seed + r) for r in range(n)]
    factors = np.stack([op._random_factors(rng, n_outcomes, 4) for rng in rngs])
    return factors, np.arcsin(np.sqrt([rng.uniform() for rng in rngs]))


def _maps(proto, qs, group):
    """Row i's amplitude map: that of qs[group[i]]."""
    return np.stack([amplitude_map(proto, q) for q in qs])[group]


def _batch(proto, factors, coeffs, u=None):
    return op._Batch(factors, op._conditional_tensor(proto), coeffs, u)


def _fixed_batch(proto, q, alpha, factors):
    """A batch whose rows carry no angle and all hold the family state at (q, alpha)."""
    w = purified_state(proto, q, alpha).params.weights
    point = np.stack([np.clip(w, 0.0, None), *np.zeros((3, 4))], axis=-1)
    return _batch(proto, factors, np.broadcast_to(point, (len(factors), 4, 4)))


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
    with pytest.raises(ValueError, match="real conditional states"):
        op._conditional_tensor(circular)


@pytest.mark.parametrize("proto", [BB84, SIX_STATE, SARG04], ids=lambda p: p.name)
def test_state_rows_are_the_conditional_stack(proto):
    # rho = sum_ij s_i s_j T_ij along the amplitude map reproduces the state
    # layer's conditional states at alpha(u): at lo, at 30% of the range and
    # at hi, up to sarg04's lo clipped to 0 at q = 0.45
    tensor = op._conditional_tensor(proto)
    for q in (0.0, 0.05, 0.1, 0.175, 0.3, 0.45):
        coeffs = amplitude_map(proto, q)[None]
        for frac in (0.0, 0.3, 1.0):
            u = math.asin(math.sqrt(frac))
            rows, _ = op._state_rows(tensor, coeffs, np.array([u]))
            ref = op._conditional_stack(purified_state(proto, q, alpha_at(proto, q, u)))
            assert np.max(np.abs(rows[0] - _flat_rows(ref[None], [0])[0])) <= 1e-14, (q, frac)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        OptimizerConfig(seed=-1)
    with pytest.raises(ValueError, match="alpha_refine_iters must be non-negative"):
        OptimizerConfig(alpha_refine_iters=-1)
    # kept and checked as before, though neither changes a result
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
        rho_rows = _flat_rows(op._conditional_stack(ps)[None], np.zeros(1, dtype=int))
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


@pytest.mark.parametrize("proto", [BB84, SARG04], ids=lambda p: p.name)
def test_angle_slope_matches_finite_differences(proto):
    # dI/du with the POVM held, at both bounds (where a signed amplitude
    # crosses zero), inside, and past the interval on either side
    tensor, coeffs = op._conditional_tensor(proto), amplitude_map(proto, 0.1)[None]
    m = _real_povm(4, seed=5).elements[None]

    def info(u):
        rows, d_rows = op._state_rows(tensor, coeffs, np.array([u]))
        f, w = op._objective(op._probs(m, rows))
        return f[0], op._angle_slope(m, w, d_rows)[0]

    for u in (0.0, 0.4, math.pi / 2, -0.3, 2.0):
        eps = 1e-6
        numeric = (info(u + eps)[0] - info(u - eps)[0]) / (2 * eps)
        assert info(u)[1] == pytest.approx(numeric, abs=1e-7), u


def test_local_search_monotone_and_complete():
    # every row of a lockstep batch is its own accept/reject ascent in its
    # factors and its angle: two error rates, two seeded restarts each
    factors, u = _seeded(2, seed=9)
    group = np.array([0, 0, 1, 1])
    batch = _batch(BB84, np.tile(factors, (2, 1, 1, 1)), _maps(BB84, (0.1, 0.05), group), np.tile(u, 2))
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
    assert not np.array_equal(batch.u, np.tile(u, 2))
    # real arithmetic throughout: no array of the batch is complex
    arrays = [x for x in (factors, batch.f, batch.m, batch.u, *vars(batch).values()) if isinstance(x, np.ndarray)]
    assert all(x.dtype.kind in "biu" or x.dtype == np.float64 for x in arrays)


def test_optimize_povm_zero_noise():
    # at q = 0 every protocol's alpha interval is a point, so no row carries an angle
    for proto in (BB84, SIX_STATE, SARG04):
        batch = op._ascend(proto, 0.0, OptimizerConfig(restarts=4, max_iters=300))
        assert not batch.u.any()
        assert batch.f.max() <= 1e-8


def test_optimize_povm_deterministic():
    cfg = OptimizerConfig(restarts=6)
    a, b = op._ascend(BB84, 0.1, cfg), op._ascend(BB84, 0.1, cfg)
    for attr in ("f", "m", "u", "converged", "row_iters"):
        assert np.array_equal(getattr(a, attr), getattr(b, attr)), attr


def test_optimize_povm_beats_fixed_reference():
    # the ascent over (POVM, alpha) reaches at least what a fixed POVM reads at a fixed alpha
    f = op._ascend(BB84, 0.1, OptimizerConfig(restarts=6)).f.max()
    eye = np.eye(4, dtype=complex)
    reference = Povm(np.stack([np.outer(eye[k], eye[k]) for k in range(4)]))
    f_ref = mutual_info_ae(conditional_probs(reference, purified_state(BB84, 0.1, 0.8)), key_on_basis=False)
    assert f >= f_ref - 1e-12


def test_outcome_doubling_does_not_help():
    values = []
    for n_outcomes in (4, 8):
        batch = _fixed_batch(BB84, 0.1, 0.8, _seeded(10, n_outcomes=n_outcomes)[0])
        batch.run(2000)
        values.append(batch.f.max())
    assert values[1] - values[0] <= 1e-5


def test_restart_calibration_bb84():
    # empirical calibration, frozen at first measurement: from Gaussian
    # starts at the optimal alpha, 45 of 64 seeded restarts reach the
    # closed-form optimum within 1e-4 (the rest sit at a lower critical
    # point near 0.2567); the multi-start maximum is what ships
    target = bb84_closed_form_iae(0.1)
    batch = _fixed_batch(BB84, 0.1, 0.8, _seeded(32)[0])
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
    rho_rows = _flat_rows(rho_xt, np.zeros(1, dtype=int))
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
        shared_rows, rho_rows = _flat_rows(rhos[1:2], shared), _flat_rows(rhos, group)
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
    # the same seeded restarts alone, among 32, as the middle block of a
    # batch whose other rows sit at two other error rates, and interleaved
    # with those rows must follow bit-identical trajectories
    n, iters = 32, 300
    qs = (0.05, 0.1, 0.175)
    factors, u = _seeded(n)
    coeffs = amplitude_map(proto, 0.1)
    alone = [_batch(proto, factors[r : r + 1], coeffs[None], u[r : r + 1]) for r in range(n)]
    for batch in alone:
        batch.run(iters)
    among = _batch(proto, factors, np.broadcast_to(coeffs, (n, 4, 4)), u)
    among.run(iters)
    multi = _batch(proto, np.tile(factors, (3, 1, 1, 1)), _maps(proto, qs, np.repeat(np.arange(3), n)), np.tile(u, 3))
    multi.run(iters)
    interleaved = _batch(proto, np.repeat(factors, 3, axis=0), _maps(proto, qs, np.tile(np.arange(3), n)), np.repeat(u, 3))
    interleaved.run(iters)
    mid = slice(n, 2 * n)
    for attr in ("f", "m", "u", "converged", "row_iters"):
        single = np.stack([getattr(batch, attr)[0] for batch in alone])
        assert np.array_equal(single, getattr(among, attr)), attr
        assert np.array_equal(single, getattr(multi, attr)[mid]), attr
        assert np.array_equal(single, getattr(interleaved, attr)[1::3]), attr
    assert among.iters == multi.row_iters[mid].max() == max(batch.iters for batch in alone)


def test_rows_at_different_q_share_one_batch():
    # the restarts of two attacks' ascents, sarg04 at q = 0.05 and 0.10,
    # stepped as one batch end the same bits as each attack's own ascent
    cfg = OptimizerConfig(restarts=12, max_iters=600)
    factors, u = _seeded(cfg.restarts)
    group = np.repeat([0, 1], cfg.restarts)
    shared = _batch(SARG04, np.tile(factors, (2, 1, 1, 1)), _maps(SARG04, (0.05, 0.1), group), np.tile(u, 2))
    shared.run(cfg.max_iters)
    for i, q in enumerate((0.05, 0.1)):
        own, rows = op._ascend(SARG04, q, cfg), group == i
        for attr in ("f", "m", "u", "converged", "row_iters"):
            assert np.array_equal(getattr(own, attr), getattr(shared, attr)[rows]), attr


def _compaction_batch(proto, rows_per_group=6):
    """(factors, coeffs, u, group) of four row groups sharing seeded starts.

    The second group sits at q = 0, where no step improves the value
    significantly, so all its rows finish together at the stall limit while
    the groups around it, at q = 0.10 (the first from alpha_lo, u = 0) and
    0.05, still run.
    """
    qs = (0.1, 0.0, 0.1, 0.05)
    factors, u = _seeded(rows_per_group)
    group = np.repeat(np.arange(len(qs)), rows_per_group)
    u = np.tile(u, len(qs))
    u[group == 0] = 0.0
    return np.tile(factors, (len(qs), 1, 1, 1)), _maps(proto, qs, group), u, group


def _run_both(proto, factors, coeffs, u, max_iters):
    """The reference batch after run(max_iters), checked row for row against _Batch."""
    tensor = op._conditional_tensor(proto)
    ref, batch = ReferenceBatch(factors, tensor, coeffs, u), op._Batch(factors, tensor, coeffs, u)
    ref.run(max_iters)
    batch.run(max_iters)
    for attr in ("f", "m", "u", "active", "converged", "row_iters"):
        assert np.array_equal(getattr(batch, attr), getattr(ref, attr)), attr
    assert batch.iters == ref.iters
    return ref


@pytest.mark.parametrize("proto", [BB84, SARG04, SIX_STATE], ids=lambda p: p.name)
def test_compacting_batch_matches_reference(proto):
    factors, coeffs, u, group = _compaction_batch(proto)
    ref = _run_both(proto, factors, coeffs, u, 250)
    # the cases compaction must handle all occur in this batch
    middle, outer = group == 1, group != 1
    assert ref.converged[middle].all() and ref.row_iters[middle].max() < ref.row_iters[outer].min()
    assert np.bincount(ref.row_iters[ref.converged]).max() >= 2
    assert (~ref.converged).any() and (ref.row_iters[~ref.converged] == 250).all()
    # rows that carry no angle
    _run_both(proto, factors, coeffs, None, 250)
    # a one-row batch whose row finishes: a row of the q = 0 group
    assert _run_both(proto, factors[middle][:1], coeffs[middle][:1], u[middle][:1], 300).converged.all()
    # a cap below the stall window, where no row finishes
    cap = op._STALL_LIMIT - 30
    ref = _run_both(proto, factors, coeffs, u, cap)
    assert ref.active.all() and ref.iters == cap


def test_batch_fields_read_after_every_step():
    # the fields a caller reads after each step keep one entry per row of
    # the batch, finished rows keep their value and angle, and f rises
    # exactly where the reference accepted a step
    factors, coeffs, u, group = _compaction_batch(SARG04)
    n = group.size
    tensor = op._conditional_tensor(SARG04)
    ref, batch = ReferenceBatch(factors, tensor, coeffs, u), op._Batch(factors, tensor, coeffs, u)
    final = {}
    while batch.active.any() and batch.iters < 400:
        f_before, ref_before = batch.f, ref.f.copy()
        batch.step_once()
        ref.step_once()
        f = batch.f
        assert all(x.shape == (n,) for x in (f, batch.u, batch.active, batch.converged, batch.row_iters))
        assert np.array_equal(f > f_before, ref.f > ref_before)
        assert np.array_equal(f != f_before, f > f_before)
        for row in np.flatnonzero(~batch.active):
            assert (f[row], batch.u[row]) == final.setdefault(row, (f[row], batch.u[row]))
    assert 0 < len(final) < n
    assert np.array_equal(batch.f, ref.f)


def test_momentum_restarts_on_every_rejected_step():
    # after each step a live row's velocities are _MOMENTUM times the move it
    # accepted, in its factors and in its angle, and exactly zero where its
    # value did not rise, also across the step on which the q = 0 group
    # finishes and the batch compacts
    factors, coeffs, u, group = _compaction_batch(SARG04)
    batch = _batch(SARG04, factors, coeffs, u)
    compacted = accepted = rejected = 0
    while batch.active.any() and batch.iters < 400:
        rows_before, a_before, u_before, f_before = batch._rows.copy(), batch._a.copy(), batch._u.copy(), batch.f
        batch.step_once()
        live = np.isin(rows_before, batch._rows)
        compacted += not live.all()
        rose = batch.f[batch._rows] > f_before[batch._rows]
        moved = op._MOMENTUM * (batch._a - a_before[live])
        assert np.array_equal(batch._v[rose], moved[rose])
        assert np.array_equal(batch._vu[rose], op._MOMENTUM * (batch._u - u_before[live])[rose])
        assert not batch._v[~rose].any() and not batch._vu[~rose].any()
        accepted, rejected = accepted + rose.sum(), rejected + (~rose).sum()
    assert compacted and accepted and rejected


def test_one_alpha_work_count():
    # a fixed sarg04 ascent at q = 0.10 and its interior optimum alpha: the
    # row-step count is deterministic, so a change that slows convergence
    # fails here (20713 row-steps without momentum, 12231 with it)
    batch = _fixed_batch(SARG04, 0.1, 0.7588, _seeded(32)[0])
    batch.run(2000)
    assert batch.row_iters.sum() <= 14000
    assert batch.f.max() >= 0.1996008822
    # with alpha folded into their ascent, the same restarts find the peak
    # over alpha in about as many row-steps (13409)
    folded = op._ascend(SARG04, 0.1, OptimizerConfig(restarts=32))
    assert folded.row_iters.sum() <= 15000
    assert folded.f.max() >= 0.1996330


@pytest.mark.parametrize("proto", [BB84, SARG04], ids=lambda p: p.name)
def test_alpha_grid_options_change_no_result(proto):
    # alpha_grid_points and alpha_refine_iters are accepted but inert
    a = optimize_attack(proto, 0.1, OptimizerConfig(restarts=8, alpha_grid_points=9, alpha_refine_iters=2))
    b = optimize_attack(proto, 0.1, OptimizerConfig(restarts=8, alpha_grid_points=41, alpha_refine_iters=0))
    for field in dataclasses.fields(AttackResult):
        if field.name != "best_povm":
            assert getattr(a, field.name) == getattr(b, field.name), field.name
    assert np.array_equal(a.best_povm.elements, b.best_povm.elements)


def test_benchmark_monte_carlo_config_reaches_the_sarg04_reference():
    # the Monte Carlo workload's attack budget: 4 restarts of 400 steps.  The
    # alpha search it replaced read 0.19135 here, 8e-3 below the reference
    cfg = OptimizerConfig(restarts=4, max_iters=400)
    assert optimize_attack(SARG04, 0.1, cfg).i_ae >= 0.1996329806 - 1e-4


def _recording_ascend(monkeypatch):
    """Wrap _ascend; returns the list of the batches it returned."""
    batches, ascend = [], op._ascend

    def recording(*args):
        batches.append(ascend(*args))
        return batches[-1]

    monkeypatch.setattr(op, "_ascend", recording)
    return batches


@pytest.mark.parametrize("proto", [BB84, SARG04, SIX_STATE], ids=lambda p: p.name)
def test_one_ascent_per_attack(proto, monkeypatch):
    # an attack is one ascent; a point interval (six-state's, and every
    # protocol's at q = 0) carries no angle, reports no slope and ends at its
    # bound, and every reported alpha lies in the interval
    batches = _recording_ascend(monkeypatch)
    for q in (0.0, 0.1):
        lo, hi = alpha_range(proto, q)
        point = q == 0.0 or proto is SIX_STATE
        assert (lo == hi) == point
        batches.clear()
        result = optimize_attack(proto, q, OptimizerConfig(restarts=2, max_iters=100))
        [batch] = batches
        assert lo <= result.best_alpha <= hi
        assert result.alpha_stop in ("bound", "stationary", "budget")
        if point:
            assert not batch._moves and not batch.u.any()
            assert (result.alpha_stop, result.alpha_slope) == ("bound", None)
        else:
            assert batch._moves and isinstance(result.alpha_slope, float)


@pytest.mark.parametrize("proto", [BB84, SARG04, SIX_STATE], ids=lambda p: p.name)
def test_reported_attack_is_rescored_at_its_alpha(proto, light_config):
    # the reported POVM, read by the reference estimator at
    # purified_state(best_alpha), gives i_ae: the best row's angle and sign
    # frame are mapped back into the state every reader rebuilds, and
    # bb84's alpha snaps to alpha_lo exactly
    for q in (0.0, 0.02, 0.10, 0.175, 0.25):
        r = optimize_attack(proto, q, light_config)
        value = mutual_info_ae(conditional_probs(r.best_povm, purified_state(proto, q, r.best_alpha)), proto.key_on_basis)
        assert abs(value - r.i_ae) <= 1e-9, q
        if proto is BB84:
            assert r.best_alpha == alpha_range(BB84, q)[0], q
            assert r.alpha_stop == "bound", q


@pytest.mark.parametrize("turn", [lambda u: u + math.pi, lambda u: -u, lambda u: math.pi - u], ids=["u+pi", "-u", "pi-u"])
def test_reported_attack_is_the_same_from_every_quadrant(turn, light_config, monkeypatch):
    # turning an angle to another quadrant flips the signs of sarg04's
    # amplitudes that vanish at lo (sin u) and at hi (cos u): a reflection D
    # of the register E.  With every row's factors reflected to match
    # (M -> D M D), each row is the same attack, and the report, mapped back
    # into [0, pi/2] with its own reflection, must not change
    coeffs, ascend, plain = amplitude_map(SARG04, 0.1), op._ascend, optimize_attack(SARG04, 0.1, light_config)

    def turned(*args):
        batch = ascend(*args)
        s, s_turned = amplitudes(coeffs, batch.u)[0], amplitudes(coeffs, turn(batch.u))[0]
        d = np.where(s * s_turned < 0.0, -1.0, 1.0)[:, None, None, :]
        batch._a, batch._done_a = batch._a * d[batch._rows], batch._done_a * d
        batch._u, batch._done_u = turn(batch._u), turn(batch._done_u)
        return batch

    monkeypatch.setattr(op, "_ascend", turned)
    result = optimize_attack(SARG04, 0.1, light_config)
    assert plain.alpha_stop != "bound" and result.alpha_stop == plain.alpha_stop
    for field in ("i_ae", "best_alpha", "alpha_slope"):
        assert getattr(result, field) == pytest.approx(getattr(plain, field), abs=1e-10), field
    assert np.max(np.abs(result.best_povm.elements - plain.best_povm.elements)) <= 1e-12


@pytest.mark.parametrize("proto", [BB84, SIX_STATE, SARG04], ids=lambda p: p.name)
def test_holevo_bounds_every_searched_value(proto, light_config):
    # Holevo's bound, averaged over side values, caps the value of every
    # restart at the alpha of its angle
    batch = op._ascend(proto, 0.1, light_config)
    states = [purified_state(proto, 0.1, alpha_at(proto, 0.1, u)) for u in batch.u]
    chi = holevo_chi(np.stack([op._conditional_stack(ps) for ps in states]))
    assert (batch.f <= chi + 1e-9).all()


def test_bb84_certifies_alpha_lo_in_one_ascent(light_config, monkeypatch):
    # bb84's value falls away from alpha_lo like u^2, so the best row stops a
    # hair inside it with a small negative dI/du, and its POVM, which scores
    # no lower at alpha_lo, reports alpha_lo exactly
    batches = _recording_ascend(monkeypatch)
    result = optimize_attack(BB84, 0.1, light_config)
    assert len(batches) == 1
    assert result.best_alpha == alpha_range(BB84, 0.1)[0]
    assert result.alpha_stop == "bound"
    assert -1e-5 < result.alpha_slope <= 0.0


def test_singular_slope_at_a_bound_certifies_nothing():
    # sarg04 at q = 0.10: at alpha_lo a Bell weight vanishes, and I* rises
    # into the interval like sqrt(alpha - alpha_lo), with a singular slope in
    # alpha.  Its signed amplitude makes that linear in u, so rows started at
    # alpha_lo (u = 0) leave it; certifying alpha_lo would report 0.18288
    lo, hi = alpha_range(SARG04, 0.1)
    batch = _batch(SARG04, _seeded(8)[0], np.broadcast_to(amplitude_map(SARG04, 0.1), (8, 4, 4)), np.zeros(8))
    batch.run(2000)
    best = int(np.argmax(batch.f))
    assert alpha_at(SARG04, 0.1, batch.u[best]) > lo + 1e-3
    assert batch.f[best] > 0.199
    result = optimize_attack(SARG04, 0.1, OptimizerConfig(restarts=8))
    assert result.best_alpha > lo
    assert result.alpha_stop != "bound"
    assert result.i_ae > 0.199


def _ascent_value(seed: int) -> float:
    return float(op._ascend(BB84, 0.1, OptimizerConfig(restarts=32, max_iters=50, seed=seed)).f.max())


def test_ascent_in_a_daemonic_worker():
    # multiprocessing.Pool workers are daemonic and may not start processes;
    # an ascent runs in the process that calls it, so it runs in one too
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply_async(_ascent_value, (7,)).get(timeout=120) == _ascent_value(7)
