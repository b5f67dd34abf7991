"""Multi-start search for the adversary's optimal measurement.

The adversary measures at once and learns the side information only at
sifting, so the objective is I(Key : K, Side): the information her outcome K
and the revealed side value carry about the key.  The protocol decides which
of the sender's bit x and basis theta is the key (x for bb84 and sixstate,
theta for sarg04, which reveals x); _conditional_stack lays the conditional
states out in (key, side) order, and every kernel after it is written once
in those terms.  The objective is not concave in the POVM, so a single ascent
can stall in a local maximum.  Each restart parameterizes the measurement by
factors A_k with M_k = A_k^T A_k (PSD by construction), takes a gradient
step on the factors, renormalizes with the S^(-1/2) sandwich where
S = sum_k M_k, and keeps the step only if the objective improved.  Step sizes
adapt multiplicatively (x1.2 on accept, x0.5 on reject, floor 1e-12).  The
candidate also carries heavy-ball momentum (Polyak): a + h (a @ g) + v, where
v = _MOMENTUM (a_new - a_old) after an accepted step and v = 0 after a
rejected one, a restart on every rejection (O'Donoghue and Candes), so a
row's value still only rises.
Restart r draws its starting point from seed + r, so every reported number is
reproducible bit for bit and stable under restart-count changes.  Every array
is real float64: the conditional states are real symmetric (the Bell vectors,
the purification and the attack bases theta = 0, 1 are real), and for real
symmetric rho, Re M_k is again a POVM with the same p(k | key, side), so the
best real POVM is as good as any complex one.

Restarts advance in lockstep through stacked (rows, n_outcomes, d, d) arrays,
and so do the restarts of several source weights alpha: optimize_attack hands
the alphas it already knows it needs (the grid, then the first golden-section
pair) to one ascent, where the restarts of each alpha form a row group with
its own conditional-state stack, and every row carries its own copy of that
stack.  The step kernels (batched per-row matmuls for the probabilities and
the gradient, stacked matmuls and eigh for the retraction) compute every row
independently of the others, so each restart's trajectory depends only on
its own start and its own alpha.

That independence lets one ascent split its rows over processes.  The rows
are laid out alpha-fastest, so that every shard holds every alpha and its
best value rises like the whole batch's, and cut into one contiguous shard
per process used: one process per CPU in the process's affinity mask, but
only as many as leave every shard _MIN_SHARD_ROWS rows.  The calling process
steps the first shard as one lockstep batch while a forked pool, opened for
this ascent only, steps the others; best value, restart agreement and
convergence are then reduced per group over the reassembled rows.  Results
are therefore the same bits for any CPU count, and a one-CPU mask
(``taskset -c 0``) runs everything in the calling process.

An ascent drops alphas that cannot win: a row's value only rises, so an
alpha whose Holevo bound (holevo_chi) + 1e-9 falls below the best value in
its batch retires its rows and is left out of the results, which keep their
bits.  A retired alpha's value lies below that of another alpha in the same
ascent, so neither the grid argmax nor a golden-section comparison changes,
and an ascent of one alpha never retires it.

info_slope, the slope dI_AE/dq that keyrate's threshold search steers by,
runs the same kernels at the reported POVM, so only this module knows their
state-row layout.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .information import Povm, holevo_chi
from .linalg import TOL
from .states import Protocol, PurifiedState, alpha_range, eve_conditional_state, purified_state

_INIT_STEP = 0.1
_MOMENTUM = 0.5
_STEP_FLOOR = 1e-12
_EIG_FLOOR = 1e-12
_STALL_LIMIT = 80
# improvements below this (plus 1e-7 |f|) do not reset a restart's stall window
_STEP_TOLERANCE = 1e-9
_AGREE_TOL = 1e-6
# fewest rows worth a process: a step costs a fixed ~0.08 ms plus ~4-5 us
# per row (one CPU), so a smaller shard would spend most of its time on the
# fixed part
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


def _lam(t: np.ndarray, log_t: np.ndarray) -> np.ndarray:
    """-t log2 t from t and its floored log, zero at probabilities below the floor."""
    return np.where(t > TOL.probability_floor, -t * log_t, 0.0)


def _conditional_stack(ps: PurifiedState) -> np.ndarray:
    """Adversary states rho_E^(x,theta) stacked in (key, side, d, d) order.

    That is (x, theta) for a bit-keyed protocol and (theta, x) for a
    basis-keyed one; theta runs over the protocol's attack bases, the bases
    entering the adversary's estimator.  This is the one place the optimizer
    reads ``key_on_basis``.  Raises ValueError unless every state is real.
    """
    out, _ = eve_conditional_state(ps, [[0], [1]], np.arange(ps.protocol.attack_basis_count))
    if out.imag.any():
        raise ValueError(f"{ps.protocol.name}: the optimizer needs real conditional states, and these are complex")
    return out.real.transpose(1, 0, 2, 3) if ps.protocol.key_on_basis else out.real


def _renormalize(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map factor stacks (r, k, d, d) onto the completeness manifold.

    Returns (normalized factors, their POVM elements).  Gram eigenvalues are
    floored at 1e-12 before inversion; random factor stacks are full rank
    almost surely, so the floor only guards degenerate proposals.
    """
    r, k, d = a.shape[0], a.shape[1], a.shape[-1]
    stacked = a.reshape(r, k * d, d)
    w, v = np.linalg.eigh(stacked.mT @ stacked)
    inv_sqrt = 1.0 / np.sqrt(np.clip(w, _EIG_FLOOR, None))
    a_n = (stacked @ ((v * inv_sqrt[:, None, :]) @ v.mT)).reshape(a.shape)
    return a_n, a_n.mT @ a_n


def _probs(m: np.ndarray, rho_rows: np.ndarray) -> np.ndarray:
    """p[r, k, key, side] = p(k | key, side) for POVM stacks m (r, k, d, d).

    ``rho_rows`` holds each row's state rows (see _Batch).  Tr(M rho) is
    the dot product of M and rho^T, which is rho for these symmetric stacks,
    so each row is one (k, d^2) @ (d^2, key * side) product, batched over the
    rows.
    """
    r, k = m.shape[:2]
    n_key, n_side, width = rho_rows.shape[1:]
    p = m.reshape(r, k, width) @ rho_rows.reshape(r, -1, width).mT
    return np.clip(p.reshape(r, k, n_key, n_side), 0.0, 1.0)


def _key_marginal(p: np.ndarray) -> np.ndarray:
    """p(k | side) from stacks p[r, k, key, side]: the mean over the key axis.

    Summed slice by slice: numpy's reduction over this middle axis of small
    stacks costs about three times as much for the same bits.
    """
    n_key = p.shape[2]
    return sum(p[:, :, i] for i in range(n_key)) / n_key


def _objective(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """I(Key : K, Side) per restart, and its gradient weights, from probability stacks p[r, k, key, side].

    Key and side values are uniform and independent, so the information is
    H(K | Side) - H(K | Key, Side); the first term marginalizes the key axis.
    The derivative d I / d M_k is the sum over (key, side) of
    (log2 p - log2 pbar) rho / n, with pbar the key-marginal of p and n the
    number of (key, side) cells; the weights w[r, k, (key, side)] are its
    coefficients.  Each log is taken once, floored at 1e-18: the entropy
    terms read it only where p exceeds the probability floor, far above
    1e-18, so the floor changes no entropy.
    """
    r, k, n_key, n_side = p.shape
    n = n_key * n_side
    pbar = _key_marginal(p)
    log_p = np.log2(np.maximum(p, 1e-18))
    log_pbar = np.log2(np.maximum(pbar, 1e-18))
    h_k_key_side = _lam(p, log_p).sum(axis=(1, 2, 3)) / n
    h_marg = _lam(pbar, log_pbar).sum(axis=(1, 2)) / n_side
    w = ((log_p - log_pbar[:, :, None, :]) / n).reshape(r, k, n)
    return h_marg - h_k_key_side, w


def _gradient(w: np.ndarray, rho_rows: np.ndarray) -> np.ndarray:
    """d I / d M_k (r, k, d, d) from the gradient weights w[r, k, (key, side)] of _objective.

    ``rho_rows`` holds each row's state rows (see _Batch); each row is
    one (k, n) @ (n, d^2) product, batched over the rows.
    """
    r, k, n = w.shape
    d = math.isqrt(rho_rows.shape[-1])
    return (w @ rho_rows.reshape(r, n, -1)).reshape(r, k, d, d)


class _Batch:
    """Lockstep state of several independent local searches.

    ``group[i]`` picks row i's conditional-state stack from ``rho_xt``, and
    each row carries its own copy of that stack's state rows, so groups need
    not be contiguous.  A step works on dense arrays of the rows still
    running, the live rows: their accepted factors, the gradient weights and
    value at those factors, velocities, step sizes, stall counts and state
    rows.  These are compacted only on a step where rows finish or retire; a
    finished or retired row's factors and value are kept in full-length
    arrays.  ``f``, ``m`` and ``row_iters`` give every row in the batch's
    order, like ``active``, ``converged`` and ``retired``.  Given an upper
    ``bound`` on each stack's value, a live row retires, neither active nor
    converged, once its stack's bound + 1e-9 falls below the best value in
    the batch.
    """

    def __init__(self, factors: np.ndarray, rho_xt: np.ndarray, group: np.ndarray, bound: np.ndarray):
        self._rho = rho_xt.reshape(*rho_xt.shape[:3], -1)[group]
        self._a, m = _renormalize(factors)
        self._f, self._w = _objective(_probs(m, self._rho))
        n = factors.shape[0]
        self._rows = np.arange(n)
        self._v = np.zeros_like(self._a)
        self._step = np.full(n, _INIT_STEP)
        self._stall = np.zeros(n, dtype=int)
        self._bound = bound[group] + 1e-9
        self._best = -np.inf
        self._done_a = np.empty_like(self._a)
        self._done_f = np.empty(n)
        self._done_iters = np.zeros(n, dtype=int)
        self.converged = np.zeros(n, dtype=bool)
        self.retired = np.zeros(n, dtype=bool)
        self.iters = 0

    def _merged(self, done: np.ndarray, live) -> np.ndarray:
        out = done.copy()
        out[self._rows] = live
        return out

    @property
    def active(self) -> np.ndarray:
        return ~(self.converged | self.retired)

    @property
    def f(self) -> np.ndarray:
        return self._merged(self._done_f, self._f)

    @property
    def m(self) -> np.ndarray:
        a = self._merged(self._done_a, self._a)
        return a.mT @ a

    @property
    def row_iters(self) -> np.ndarray:
        return self._merged(self._done_iters, self.iters)

    def step_once(self) -> None:
        if self._rows.size == 0:
            return
        a, v = self._a, self._v
        cand = a @ _gradient(self._w, self._rho)
        cand *= self._step[:, None, None, None]
        cand += a
        cand += v
        a_n, m_n = _renormalize(cand)
        f_n, w_n = _objective(_probs(m_n, self._rho))
        improved = f_n > self._f
        # small improvements do not reset the stall window, otherwise
        # asymptotic creep keeps slow restarts alive to max_iters
        significant = f_n > self._f + _STEP_TOLERANCE + 1e-7 * np.abs(f_n)
        # the next step's momentum: the accepted move, and none after a rejection
        np.subtract(a_n, a, out=v)
        v *= _MOMENTUM
        v[~improved] = 0.0
        np.copyto(a, a_n, where=improved[:, None, None, None])
        np.copyto(self._w, w_n, where=improved[:, None, None])
        np.copyto(self._f, f_n, where=improved)
        self._step = np.maximum(np.where(improved, self._step * 1.2, self._step * 0.5), _STEP_FLOOR)
        self._stall = np.where(significant, 0, self._stall + 1)
        self.iters += 1
        # values only rise, so this running best never exceeds the batch's final best
        self._best = max(self._best, self._f.max())
        done = self._stall >= _STALL_LIMIT
        retire = ~done & (self._bound < self._best)
        if done.any() or retire.any():
            self._finish(done, retire)

    def _finish(self, done: np.ndarray, retire: np.ndarray) -> None:
        """Mark the live rows ``done`` converged and ``retire`` retired, keep their results and compact the rest."""
        gone = done | retire
        rows = self._rows[gone]
        self._done_a[rows], self._done_f[rows], self._done_iters[rows] = self._a[gone], self._f[gone], self.iters
        self.converged[self._rows[done]] = True
        self.retired[self._rows[retire]] = True
        live = ~gone
        self._rows, self._rho, self._bound = self._rows[live], self._rho[live], self._bound[live]
        self._a, self._v, self._w, self._f = self._a[live], self._v[live], self._w[live], self._f[live]
        self._step, self._stall = self._step[live], self._stall[live]

    def run(self, max_iters: int) -> None:
        while self.iters < max_iters and self._rows.size:
            self.step_once()


def _random_factors(rng: np.random.Generator, n_outcomes: int, dim: int) -> np.ndarray:
    return rng.standard_normal((n_outcomes, dim, dim))


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
    factors: np.ndarray, rho_xt: np.ndarray, group: np.ndarray, max_iters: int, bound: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(f, m, converged, retired) of every row after one lockstep ascent."""
    batch = _Batch(factors, rho_xt, group, bound)
    batch.run(max_iters)
    return batch.f, batch.m, batch.converged, batch.retired


def _ascend(
    states: list[PurifiedState], n_outcomes: int, config: OptimizerConfig
) -> list[tuple[np.ndarray, float, int, bool] | None]:
    """(best POVM, its value, agreeing restarts, converged) at each state, or None where retired.

    Every state gets the same config.restarts seeded starts, as one row
    group per state; restart r of state i is row r * len(states) + i.  This
    process steps the first shard (see _shards) and a pool opened for this
    ascent steps the others; results are reduced per group.  Rows retire
    against holevo_chi (see _Batch).  Outcomes keep the order the ascent left
    them in: the objective is invariant under relabeling, and no caller
    reads meaning into a label.
    """
    n, n_states = config.restarts, len(states)
    starts = np.stack(
        [_random_factors(np.random.default_rng(config.seed + r), n_outcomes, 4) for r in range(n)]
    )
    rho = np.stack([_conditional_stack(ps) for ps in states])
    bound = holevo_chi(rho)
    rows = np.arange(n * n_states)

    def shard_args(s: int, e: int) -> tuple:
        return starts[rows[s:e] // n_states], rho, rows[s:e] % n_states, config.max_iters, bound

    own, *others = _shards(rows.size, _process_count())
    if others:
        with _pool(len(others)) as pool:
            # submit the workers' shards first, so that they run while this process runs its own
            futures = [pool.submit(_run_shard, *shard_args(*shard)) for shard in others]
            parts = [_run_shard(*shard_args(*own))] + [future.result() for future in futures]
    else:
        parts = [_run_shard(*shard_args(*own))]
    f, m, converged, retired = (np.concatenate(a) for a in zip(*parts))

    results = []
    for i in range(n_states):
        if retired[i::n_states].any():
            results.append(None)
            continue
        f_group = f[i::n_states]
        best = int(np.argmax(f_group)) * n_states + i
        f_best = float(f[best])
        agreeing = int(np.count_nonzero(f_group >= f_best - _AGREE_TOL))
        results.append((m[best], max(f_best, 0.0), agreeing, bool(converged[best])))
    return results


def optimize_attack(protocol: Protocol, q: float, config: OptimizerConfig) -> AttackResult:
    """Maximize the adversary's information jointly over the source weight alpha and the POVM.

    Coarse grid over the admissible alpha interval, then golden-section
    refinement around the best grid point; the measurement is re-optimized
    from the seeded starts at every probed alpha.  Alphas known together run
    together: the grid points share one ascent, sharded over the available
    CPUs, then the first golden-section pair shares one.  Each later
    refinement step carries the surviving interior point and its value, so
    alpha_refine_iters steps cost at most alpha_refine_iters + 1
    evaluations, and a repeated alpha costs none: six-state's point interval
    runs one ascent.  Grouping and sharding change no result: every restart's
    trajectory depends only on its own start and alpha, and an ascent
    retires only alphas that cannot hold the maximum.
    """
    lo, hi = alpha_range(protocol, q)
    n_out = protocol.povm_outcomes
    cache: dict[float, tuple[np.ndarray, float, int, bool]] = {}

    def evaluate(alphas) -> list[float]:
        alphas = [min(max(float(a), lo), hi) for a in alphas]
        new = [a for a in dict.fromkeys(alphas) if a not in cache]
        if new:
            results = _ascend([purified_state(protocol, q, a) for a in new], n_out, config)
            # a retired alpha stays out of the cache, so evaluating it again runs it in full
            cache.update((a, r) for a, r in zip(new, results) if r is not None)
        return [cache[a][1] if a in cache else -math.inf for a in alphas]

    grid = np.linspace(lo, hi, config.alpha_grid_points)
    best_i = int(np.argmax(evaluate(grid)))
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


def info_slope(result: AttackResult) -> float:
    """dI_AE/dq at an optimized attack, by the envelope theorem (Milgrom and Segal, 2002).

    At the optimum, I_AE moves with q as I does with the attack's POVM held
    fixed: a central difference at q +/- 1e-6 through the step kernels,
    alpha held at an interior best_alpha or following its bound.
    """
    protocol, q, alpha = result.protocol, result.q, result.best_alpha
    lo, hi = alpha_range(protocol, q)
    m = result.best_povm.elements.real[None]

    def info(q_side: float) -> float:
        lo_side, hi_side = alpha_range(protocol, q_side)
        a = lo_side if alpha <= lo else hi_side if alpha >= hi else min(max(alpha, lo_side), hi_side)
        rho = _conditional_stack(purified_state(protocol, q_side, a))
        return float(_objective(_probs(m, rho.reshape(1, *rho.shape[:2], -1)))[0][0])

    return (info(q + 1e-6) - info(q - 1e-6)) / 2e-6
