"""Multi-start search for the adversary's optimal measurement.

The adversary measures at once and learns the side information only at
sifting, so the objective is I(Key : K, Side): the information her outcome K
and the revealed side value carry about the key.  The protocol decides which
of the sender's bit x and basis theta is the key (x for bb84 and sixstate,
theta for sarg04, which reveals x); _conditional_stack lays the conditional
states out in (key, side) order, and every kernel after it is written once
in those terms.  The objective is not concave in the POVM, so a single ascent
can stall in a local maximum.  Each restart parameterizes the measurement by
factors A_k with M_k = A_k^dag A_k (PSD by construction), takes a gradient
step on the factors, renormalizes with the S^(-1/2) sandwich where
S = sum_k M_k, and keeps the step only if the objective improved.  Step sizes
adapt multiplicatively (x1.2 on accept, x0.5 on reject, floor 1e-12).
Restart r draws its starting point from seed + r, so every reported number is
reproducible bit for bit and stable under restart-count changes.

Restarts advance in lockstep through stacked (rows, n_outcomes, d, d) arrays,
and so do the restarts of several source weights alpha: optimize_attack hands
the alphas it already knows it needs (the grid, then the first golden-section
pair) to one ascent, where the restarts of each alpha form a contiguous row
group with its own conditional-state stack.  The step kernels (one real GEMM
per row group for the probabilities and the gradient, stacked matmuls and
eigh for the retraction) compute every row independently of the others, so
each restart's trajectory depends only on its own start and its own alpha.

That independence lets one ascent split its rows over processes.  The rows
are cut into one contiguous shard per process used, which may cut through a
group: one process per CPU in the process's affinity mask, but only as many
as leave every shard _MIN_SHARD_ROWS rows.  The calling process steps the
first shard as one lockstep batch while a forked pool, opened for this
ascent only, steps the others; best value, restart agreement and convergence
are then reduced per group over the reassembled rows.  Results are therefore
the same bits for any CPU count, and a one-CPU mask (``taskset -c 0``) runs
everything in the calling process.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .information import Povm
from .linalg import dagger
from .states import Protocol, PurifiedState, alpha_range, eve_conditional_state, purified_state

_INIT_STEP = 0.1
_STEP_FLOOR = 1e-12
_EIG_FLOOR = 1e-12
_STALL_LIMIT = 80
# improvements below this (plus 1e-7 |f|) do not reset a restart's stall window
_STEP_TOLERANCE = 1e-9
_AGREE_TOL = 1e-6
# fewest rows worth a process: a step costs a fixed ~0.2 ms plus ~14 us per
# row, so a smaller shard would spend most of its time on the fixed part
_MIN_SHARD_ROWS = 16
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 32
    max_iters: int = 2000
    seed: int = 7
    alpha_grid_points: int = 41
    alpha_refine_iters: int = 3

    def __post_init__(self) -> None:
        if self.restarts < 1 or self.max_iters < 1 or self.alpha_grid_points < 1:
            raise ValueError("restarts, max_iters and alpha_grid_points must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.alpha_refine_iters < 0:
            raise ValueError(f"alpha_refine_iters must be non-negative, got {self.alpha_refine_iters}")


@dataclass
class AttackResult:
    q: float
    protocol: Protocol
    i_ae: float
    best_alpha: float
    best_povm: Povm
    restarts_agreeing: int
    converged: bool
    # a quarter of the restarts reaching the best value marks a consensus optimum
    robust: bool


def _lam(t: np.ndarray) -> np.ndarray:
    # unvalidated fast path of lambda_fn for internal arrays
    return np.where(t > 1e-14, -t * np.log2(np.maximum(t, 1e-300)), 0.0)


def _conditional_stack(ps: PurifiedState) -> np.ndarray:
    """Adversary states rho_E^(x,theta) stacked in (key, side, d, d) order.

    That is (x, theta) for a bit-keyed protocol and (theta, x) for a
    basis-keyed one; theta runs over the protocol's attack bases, the bases
    entering the adversary's estimator.  This is the one place the optimizer
    reads ``key_on_basis``.
    """
    b = ps.protocol.attack_basis_count
    out = np.empty((2, b, 4, 4), dtype=complex)
    for x in (0, 1):
        for theta in range(b):
            out[x, theta], _ = eve_conditional_state(ps, x, theta)
    return out.transpose(1, 0, 2, 3) if ps.protocol.key_on_basis else out


def _real_rows(x: np.ndarray) -> np.ndarray:
    """Complex (..., d, d) stacks as real rows: re and im of the flattened matrices interleaved."""
    return np.ascontiguousarray(x).reshape(-1, x.shape[-1] ** 2).view(np.float64)


def _row_groups(group: np.ndarray) -> list[tuple[int, int, int]]:
    """(stack, first row, end row) of each run of rows sharing a conditional-state stack."""
    cuts = [0, *(np.flatnonzero(group[1:] != group[:-1]) + 1).tolist(), group.size]
    return [(int(group[s]), s, e) for s, e in zip(cuts, cuts[1:])]


def _renormalize(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map factor stacks (r, k, d, d) onto the completeness manifold.

    Returns (normalized factors, their POVM elements).  Gram eigenvalues are
    floored at 1e-12 before inversion; random factor stacks are full rank
    almost surely, so the floor only guards degenerate proposals.
    """
    r, k, d = a.shape[0], a.shape[1], a.shape[-1]
    stacked = a.reshape(r, k * d, d)
    w, v = np.linalg.eigh(dagger(stacked) @ stacked)
    inv_sqrt = 1.0 / np.sqrt(np.clip(w, _EIG_FLOOR, None))
    a_n = (stacked @ ((v * inv_sqrt[:, None, :]) @ dagger(v))).reshape(a.shape)
    return a_n, dagger(a_n) @ a_n


def _probs(m: np.ndarray, rho_xt: np.ndarray, group: np.ndarray) -> np.ndarray:
    """p[r, k, key, side] = p(k | key, side) for POVM stacks m (r, k, d, d).

    ``rho_xt`` holds per-group conditional-state stacks (G, key, side, d, d)
    from _conditional_stack and ``group[i]`` is the stack of row i; the rows
    of a group are contiguous.  Tr(M rho) is the real dot product of M and
    rho^dag, so each run of rows is one (rows * k, 2 d^2) @ (2 d^2, key * side)
    GEMM.
    """
    r, k = m.shape[:2]
    n_key, n_side = rho_xt.shape[-4:-2]
    mv = _real_rows(m)
    rv = _real_rows(dagger(rho_xt)).reshape(-1, n_key * n_side, mv.shape[1])
    p = np.empty((r * k, n_key * n_side))
    for grp, s, e in _row_groups(group):
        np.matmul(mv[s * k : e * k], rv[grp].T, out=p[s * k : e * k])
    return np.clip(p.reshape(r, k, n_key, n_side), 0.0, 1.0)


def _key_marginal(p: np.ndarray) -> np.ndarray:
    """p(k | side) from stacks p[r, k, key, side]: the mean over the key axis.

    Summed slice by slice: numpy's reduction over this middle axis of small
    stacks costs about three times as much for the same bits.
    """
    n_key = p.shape[2]
    return sum(p[:, :, i] for i in range(n_key)) / n_key


def _objective(p: np.ndarray) -> np.ndarray:
    """I(Key : K, Side) per restart from probability stacks p[r, k, key, side].

    Key and side values are uniform and independent, so the information is
    H(K | Side) - H(K | Key, Side); the first term marginalizes the key axis.
    """
    n_key, n_side = p.shape[2:]
    h_k_key_side = _lam(p).sum(axis=(1, 2, 3)) / (n_key * n_side)
    h_marg = _lam(_key_marginal(p)).sum(axis=(1, 2)) / n_side
    return h_marg - h_k_key_side


def _gradient(p: np.ndarray, rho_xt: np.ndarray, group: np.ndarray) -> np.ndarray:
    """d I / d M_k evaluated at the current probabilities p[r, k, key, side].

    The derivative is sum over (key, side) of (log2 p - log2 pbar) rho / n,
    with pbar the key-marginal of p and n the number of (key, side) cells.
    ``rho_xt`` and ``group`` as in _probs; each run of rows is one
    (rows * k, n) @ (n, 2 d^2) GEMM on the real view.
    """
    r, k, n_key, n_side = p.shape
    n, d = n_key * n_side, rho_xt.shape[-1]
    pbar = _key_marginal(p)[:, :, None, :]
    ratio = (np.log2(np.maximum(p, 1e-18)) - np.log2(np.maximum(pbar, 1e-18))) / n
    ratio = ratio.reshape(r * k, n)
    rv = _real_rows(rho_xt).reshape(-1, n, 2 * d * d)
    g = np.empty((r * k, 2 * d * d))
    for grp, s, e in _row_groups(group):
        np.matmul(ratio[s * k : e * k], rv[grp], out=g[s * k : e * k])
    return g.view(np.complex128).reshape(r, k, d, d)


class _Batch:
    """Lockstep state of several independent local searches.

    ``rho_xt`` and ``group`` as in _probs: one conditional-state stack per
    contiguous row group.
    """

    def __init__(self, factors: np.ndarray, rho_xt: np.ndarray, group: np.ndarray):
        self.rho_xt = rho_xt
        self.group = group
        self.a, self.m = _renormalize(factors)
        self.p = _probs(self.m, rho_xt, group)
        self.f = _objective(self.p)
        n = factors.shape[0]
        self.step = np.full(n, _INIT_STEP)
        self.stall = np.zeros(n, dtype=int)
        self.active = np.ones(n, dtype=bool)
        self.converged = np.zeros(n, dtype=bool)
        self.iters = 0
        self.row_iters = np.zeros(n, dtype=int)

    def step_once(self) -> None:
        idx = np.flatnonzero(self.active)
        if idx.size == 0:
            return
        group = self.group[idx]
        a = self.a[idx]
        g = _gradient(self.p[idx], self.rho_xt, group)
        cand = a + self.step[idx][:, None, None, None] * (a @ g)
        a_n, m_n = _renormalize(cand)
        p_n = _probs(m_n, self.rho_xt, group)
        f_n = _objective(p_n)
        improved = f_n > self.f[idx]
        # small improvements do not reset the stall window, otherwise
        # asymptotic creep keeps slow restarts alive to max_iters
        significant = f_n > self.f[idx] + _STEP_TOLERANCE + 1e-7 * np.abs(f_n)
        up = idx[improved]
        self.a[up], self.m[up] = a_n[improved], m_n[improved]
        self.p[up], self.f[up] = p_n[improved], f_n[improved]
        self.step[up] *= 1.2
        self.step[idx[~improved]] *= 0.5
        np.maximum(self.step, _STEP_FLOOR, out=self.step)
        self.stall[idx] += 1
        self.stall[idx[significant]] = 0
        done = idx[self.stall[idx] >= _STALL_LIMIT]
        self.converged[done] = True
        self.active[done] = False
        self.row_iters[idx] += 1
        self.iters += 1

    def run(self, max_iters: int) -> None:
        while self.iters < max_iters and self.active.any():
            self.step_once()


def _random_factors(rng: np.random.Generator, n_outcomes: int, dim: int) -> np.ndarray:
    return rng.standard_normal((n_outcomes, dim, dim)) + 1j * rng.standard_normal((n_outcomes, dim, dim))


def random_povm(dim: int, n_outcomes: int, seed: int) -> Povm:
    """Haar-unstructured random POVM: Gaussian factors, sandwich-normalized."""
    if dim < 1 or n_outcomes < 1:
        raise ValueError("dim and n_outcomes must be positive")
    rng = np.random.default_rng(seed)
    factors = _random_factors(rng, n_outcomes, dim)[None]
    _, m = _renormalize(factors)
    return Povm(m[0])


def _canonical_order(m: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Relabel outcomes so bit s of index k guesses the key given side value s.

    ``p`` is p[k, key, side] as from _probs; with a bit-keyed protocol bit
    theta of k guesses x given basis theta, with a basis-keyed one bit x of k
    guesses theta given the revealed bit x.  The objective is invariant under
    outcome permutations, so the optimizer returns labels in arbitrary
    order.  The relabeling maximizes the expected guess accuracy over all
    bijections; a per-outcome argmax is not enough because optimal
    measurements carry exact posterior ties (an outcome can be informative
    in one side value and uniform in the other), which must be broken
    jointly to keep the labeling a bijection.
    """
    n, n_side = p.shape[0], p.shape[2]
    if n != 2**n_side:
        return m
    # score[k, s]: guess-accuracy mass if outcome k is relabeled to slot s
    bits = (np.arange(n)[:, None] >> np.arange(n_side)[None, :]) & 1
    score = np.zeros((n, n))
    for s in range(n):
        score[:, s] = sum(p[:, bits[s, t], t] for t in range(n_side))
    best_perm, best_val = None, -np.inf
    for perm in itertools.permutations(range(n)):
        val = score[np.arange(n), perm].sum()
        if val > best_val + 1e-15:
            best_perm, best_val = perm, val
    out = np.empty_like(m)
    out[list(best_perm)] = m
    return out


def _process_count() -> int:
    """Processes one ascent may use: the CPUs in this process's affinity mask.

    1 where the platform has no affinity mask or cannot fork, and in a
    daemonic multiprocessing worker (a ``multiprocessing.Pool`` worker, say),
    which may not start processes of its own.
    """
    mp = sys.modules.get("multiprocessing")
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")) or (mp and mp.current_process().daemon):
        return 1
    return len(os.sched_getaffinity(0))


def _pool(workers: int):
    """A pool of ``workers`` forked processes for one ascent, which shuts it down.

    Workers are forked, not spawned: they inherit the loaded modules, and a
    script that calls the library needs no ``__main__`` guard.  The workers
    run only _run_shard, and none outlives the ascent that forked it.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))


def _shards(rows: int, processes: int) -> list[tuple[int, int]]:
    """Contiguous (start, end) row shards for one ascent, one per process used.

    Every shard holds at least _MIN_SHARD_ROWS rows (or all rows of a smaller
    call), so fewer than ``processes`` may be used; sizes differ by at most 1.
    """
    used = max(1, min(processes, rows // _MIN_SHARD_ROWS))
    cuts = [rows * j // used for j in range(used + 1)]
    return list(zip(cuts, cuts[1:]))


def _run_shard(
    factors: np.ndarray, rho_xt: np.ndarray, group: np.ndarray, max_iters: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(f, m, p, converged) of every row after one lockstep ascent."""
    batch = _Batch(factors, rho_xt, group)
    batch.run(max_iters)
    return batch.f, batch.m, batch.p, batch.converged


def _ascend(
    states: list[PurifiedState], n_outcomes: int, config: OptimizerConfig
) -> list[tuple[np.ndarray, float, int, bool]]:
    """(best POVM, its value, agreeing restarts, converged) at each state.

    Every state gets the same config.restarts seeded starts, as one row
    group per state.  This process steps the first shard (see _shards) and a
    pool opened for this ascent steps the others; results are reduced per
    group.
    """
    n = config.restarts
    starts = np.stack(
        [_random_factors(np.random.default_rng(config.seed + r), n_outcomes, 4) for r in range(n)]
    )
    rho = np.stack([_conditional_stack(ps) for ps in states])
    group = np.repeat(np.arange(len(states)), n)

    def shard_args(s: int, e: int) -> tuple:
        first, last = group[s], group[e - 1]
        factors, rho_xt = starts[np.arange(s, e) % n], rho[first : last + 1]
        return factors, rho_xt, group[s:e] - first, config.max_iters

    own, *others = _shards(group.size, _process_count())
    if others:
        with _pool(len(others)) as pool:
            # submit the workers' shards first, so that they run while this process runs its own
            futures = [pool.submit(_run_shard, *shard_args(*shard)) for shard in others]
            parts = [_run_shard(*shard_args(*own))] + [future.result() for future in futures]
    else:
        parts = [_run_shard(*shard_args(*own))]
    f, m, p, converged = (np.concatenate(a) for a in zip(*parts))

    results = []
    for rows in range(0, group.size, n):
        f_group = f[rows : rows + n]
        best = rows + int(np.argmax(f_group))
        f_best = float(f[best])
        agreeing = int(np.count_nonzero(f_group >= f_best - _AGREE_TOL))
        m_best = _canonical_order(m[best], p[best])
        results.append((m_best, max(f_best, 0.0), agreeing, bool(converged[best])))
    return results


def optimize_povm(ps: PurifiedState, n_outcomes: int, config: OptimizerConfig) -> tuple[Povm, float]:
    """Best measurement found over config.restarts independent ascents."""
    m, f, _, _ = _ascend([ps], n_outcomes, config)[0]
    return Povm(m), f


def optimize_attack(protocol: Protocol, q: float, config: OptimizerConfig) -> AttackResult:
    """Maximize the adversary's information jointly over the source weight alpha and the POVM.

    Coarse grid over the admissible alpha interval, then golden-section
    refinement around the best grid point; the measurement is re-optimized
    from the seeded starts at every probed alpha.  Alphas known together run
    together: the grid points share one ascent, sharded over the available
    CPUs, then the first golden-section pair shares one.  Each later
    refinement step carries the surviving interior point and its value, so
    alpha_refine_iters steps cost at most alpha_refine_iters + 1
    evaluations.  Grouping and sharding change no result: every restart's
    trajectory depends only on its own start and alpha.
    """
    lo, hi = alpha_range(protocol, q)
    n_out = protocol.povm_outcomes
    cache: dict[float, tuple[np.ndarray, float, int, bool]] = {}

    def evaluate(alphas) -> list[float]:
        alphas = [min(max(float(a), lo), hi) for a in alphas]
        new = [a for a in dict.fromkeys(alphas) if a not in cache]
        if new:
            cache.update(zip(new, _ascend([purified_state(protocol, q, a) for a in new], n_out, config)))
        return [cache[a][1] for a in alphas]

    grid = np.linspace(lo, hi, 1 if hi - lo < 1e-12 else config.alpha_grid_points)
    best_i = int(np.argmax(evaluate(grid)))

    if len(grid) > 1:
        a_lo = grid[max(best_i - 1, 0)]
        a_hi = grid[min(best_i + 1, len(grid) - 1)]
        x1 = x2 = None
        for _ in range(config.alpha_refine_iters):
            if x1 is None:
                x1 = a_hi - _INVPHI * (a_hi - a_lo)
            if x2 is None:
                x2 = a_lo + _INVPHI * (a_hi - a_lo)
            f1, f2 = evaluate([x1, x2])
            if f1 >= f2:
                a_hi, x1, x2 = x2, None, x1
            else:
                a_lo, x1, x2 = x1, x2, None

    best_alpha = max(cache, key=lambda a: cache[a][1])
    m, f, agreeing, converged = cache[best_alpha]
    return AttackResult(
        q=q,
        protocol=protocol,
        i_ae=f,
        best_alpha=float(best_alpha),
        best_povm=Povm(m),
        restarts_agreeing=agreeing,
        converged=converged,
        robust=4 * agreeing >= config.restarts,
    )
