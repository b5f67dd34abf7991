"""Multi-start search for the adversary's optimal attack: the source weight and the measurement together.

The adversary measures at once and learns the side information only at
sifting, so the objective is I(Key : K, Side): the information her outcome K
and the revealed side value carry about the key.  The protocol decides which
of the sender's bit x and basis theta is the key (x for bb84 and sixstate,
theta for sarg04, which reveals x); _key_side lays the conditional states out
in (key, side) order, and every kernel after it is written once in those
terms.  The objective is not concave in the POVM, so a single ascent can
stall in a local maximum.  Each restart parameterizes the measurement by
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

The source weight alpha is one more coordinate of every restart.  Each
conditional state is quadratic in the purification's amplitudes s,
rho = sum_ij s_i s_j T_ij with the protocol-only tensor T
(states.conditional_tensor), and along alpha = lo + (hi - lo) sin^2 u the
amplitudes are smooth in the angle u for every real u
(states.amplitude_map).  So a restart carries (A, u) and steps u by
h dI/du, with its own momentum, under the factors' step size, accept/reject
and stall rules, where dI/du = sum_{k, cell} W[k, cell] <M_k, d rho_cell/du>
and W are the gradient weights of _objective.  A point interval of alpha
(six-state's, and every protocol's at q = 0) carries no u.

Restarts advance in lockstep through stacked (rows, n_outcomes, d, d) arrays,
in the calling process.  Every row carries its own amplitude map, and the
step kernels (batched per-row matmuls for the probabilities and the
gradient, stacked matmuls and eigh for the retraction) compute every row
independently of the others, so each restart's trajectory depends only on
its own start and its own map, and rows at different q can share a batch.

The envelope theorem turns the optimized value's slope in q into a
fixed-POVM difference through the same kernels (_fixed_povm_info), for
info_slope, the slope dI_AE/dq that keyrate's threshold search steers by.  So
only this module knows the kernels' state-row layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .information import Povm
from .linalg import TOL
from .states import (
    Protocol,
    PurifiedState,
    alpha_at,
    alpha_range,
    amplitude_map,
    amplitudes,
    conditional_tensor,
    eve_conditional_state,
    purified_state,
)

_INIT_STEP = 0.1
_MOMENTUM = 0.5
_STEP_FLOOR = 1e-12
_EIG_FLOOR = 1e-12
_STALL_LIMIT = 80
# improvements below this (plus 1e-7 |f|) do not reset a restart's stall window
_STEP_TOLERANCE = 1e-9
_AGREE_TOL = 1e-6


@dataclass(frozen=True)
class OptimizerConfig:
    """Restarts, iteration cap and seed of one attack search.

    ``alpha_grid_points`` and ``alpha_refine_iters`` are accepted and
    validated but change no result: alpha is a coordinate of every
    restart's ascent, not an outer search.
    """

    restarts: int = 32
    max_iters: int = 2000
    seed: int = 7
    alpha_grid_points: int = 41
    alpha_refine_iters: int = 3

    def __post_init__(self) -> None:
        if self.restarts < 1 or self.max_iters < 1 or self.alpha_grid_points < 2:
            raise ValueError("restarts and max_iters must be positive, and alpha_grid_points at least 2")
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
    # a quarter of the restarts at the best value; always true at 4 restarts or fewer (the best alone)
    robust: bool
    # dI/du of the best row at its angle mapped into [0, pi/2], before alpha snaps to a bound; dalpha/du
    # is non-negative there, so this has the sign of dI/dalpha.  None at a point interval
    alpha_slope: float | None
    # "bound" (alpha at an interval end, or a point interval), "stationary" (interior, the best row
    # converged) or "budget" (interior, the best row ran to max_iters)
    alpha_stop: str


def _lam(t: np.ndarray, log_t: np.ndarray) -> np.ndarray:
    """-t log2 t from t and its floored log, zero at probabilities below the floor."""
    return np.where(t > TOL.probability_floor, -t * log_t, 0.0)


def _key_side(stack: np.ndarray, protocol: Protocol) -> np.ndarray:
    """An (x, theta, ...) stack over the attack bases, in (key, side) order and real.

    That is (x, theta) for a bit-keyed protocol and (theta, x) for a
    basis-keyed one; theta runs over the protocol's attack bases, the bases
    entering the adversary's estimator.  This is the one place the optimizer
    reads ``key_on_basis``.  Raises ValueError unless the stack is real.
    """
    if stack.imag.any():
        raise ValueError(f"{protocol.name}: the optimizer needs real conditional states, and these are complex")
    return stack.real.transpose(1, 0, 2, 3) if protocol.key_on_basis else stack.real


def _conditional_stack(ps: PurifiedState) -> np.ndarray:
    """Adversary states rho_E^(x,theta) of one purified state, stacked in (key, side, d, d) order."""
    out, _ = eve_conditional_state(ps, [[0], [1]], np.arange(ps.protocol.attack_basis_count))
    return _key_side(out, ps.protocol)


def _conditional_tensor(protocol: Protocol) -> np.ndarray:
    """The tensor T of states.conditional_tensor in (key, side) order, each matrix flattened: (key, side, d^2)."""
    t = _key_side(conditional_tensor(protocol, [[0], [1]], np.arange(protocol.attack_basis_count)), protocol)
    return t.reshape(*t.shape[:2], -1)


def _state_rows(tensor: np.ndarray, coeffs: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """State rows (r, key, side, d^2) at each row's angle, and their derivative in it.

    Row i is T * s s^T at the amplitudes s = amplitudes(coeffs[i], u[i]),
    and its derivative T * (s' s^T + s s'^T).
    """
    s, ds = amplitudes(coeffs, u)
    r = len(s)
    d_outer = ds[:, :, None] * s[:, None, :]
    d_outer += d_outer.mT
    return tensor * (s[:, :, None] * s[:, None, :]).reshape(r, 1, 1, -1), tensor * d_outer.reshape(r, 1, 1, -1)


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


def _angle_slope(m: np.ndarray, w: np.ndarray, d_rows: np.ndarray) -> np.ndarray:
    """dI/du of each row: the sum over (k, cell) of w[r, k, cell] <M_k, d rho_cell/du>.

    ``w`` are the gradient weights of _objective, dI/dp exactly, and
    ``d_rows`` the state rows' derivatives from _state_rows.
    """
    r, k, n = w.shape
    dp = m.reshape(r, k, -1) @ d_rows.reshape(r, n, -1).mT
    return (w * dp).sum(axis=(1, 2))


class _Batch:
    """Lockstep state of several independent local searches.

    Row i ascends from ``factors[i]`` and, unless ``u`` is None, from the
    angle ``u[i]``.  Its state rows, its conditional states in (key, side)
    order with each matrix flattened, are those of _state_rows at its
    amplitude map ``coeffs[i]`` and its angle, on the shared ``tensor``
    (key, side, d^2); with ``u`` None they stay at angle 0, a point
    interval's one state.  A step works on dense arrays of the rows still
    running, the live rows: their accepted factors and angles, the state
    rows, gradient weights, value and dI/du there, velocities, step sizes and
    stall counts.  These are compacted only on a step where rows finish; a
    finished row's factors, angle and value are kept in full-length arrays.
    ``f``, ``m``, ``u`` and ``row_iters`` give every row in the batch's
    order, like ``active`` and ``converged``.
    """

    def __init__(self, factors: np.ndarray, tensor: np.ndarray, coeffs: np.ndarray, u: np.ndarray | None = None):
        n = factors.shape[0]
        self._tensor, self._moves, self._coeffs = tensor, u is not None, coeffs
        self._u = np.zeros(n) if u is None else np.array(u, dtype=float)
        self._rho, self._drho = _state_rows(tensor, coeffs, self._u)
        self._a, m = _renormalize(factors)
        self._f, self._w = _objective(_probs(m, self._rho))
        self._dfdu = _angle_slope(m, self._w, self._drho)
        self._rows = np.arange(n)
        self._v = np.zeros_like(self._a)
        self._vu = np.zeros(n)
        self._step = np.full(n, _INIT_STEP)
        self._stall = np.zeros(n, dtype=int)
        self._done_a = np.empty_like(self._a)
        self._done_u = np.empty(n)
        self._done_f = np.empty(n)
        self._done_iters = np.zeros(n, dtype=int)
        self.converged = np.zeros(n, dtype=bool)
        self.iters = 0

    def _merged(self, done: np.ndarray, live) -> np.ndarray:
        out = done.copy()
        out[self._rows] = live
        return out

    @property
    def active(self) -> np.ndarray:
        return ~self.converged

    @property
    def f(self) -> np.ndarray:
        return self._merged(self._done_f, self._f)

    @property
    def m(self) -> np.ndarray:
        a = self._merged(self._done_a, self._a)
        return a.mT @ a

    @property
    def u(self) -> np.ndarray:
        return self._merged(self._done_u, self._u)

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
        u_n, rho_n, drho_n = self._u, self._rho, self._drho
        if self._moves:
            u_n = self._u + self._step * self._dfdu + self._vu
            rho_n, drho_n = _state_rows(self._tensor, self._coeffs, u_n)
        f_n, w_n = _objective(_probs(m_n, rho_n))
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
        if self._moves:
            self._vu = np.where(improved, _MOMENTUM * (u_n - self._u), 0.0)
            self._u = np.where(improved, u_n, self._u)
            np.copyto(self._rho, rho_n, where=improved[:, None, None, None])
            np.copyto(self._drho, drho_n, where=improved[:, None, None, None])
            self._dfdu = np.where(improved, _angle_slope(m_n, w_n, drho_n), self._dfdu)
        self._step = np.maximum(np.where(improved, self._step * 1.2, self._step * 0.5), _STEP_FLOOR)
        self._stall = np.where(significant, 0, self._stall + 1)
        self.iters += 1
        done = self._stall >= _STALL_LIMIT
        if done.any():
            self._finish(done)

    def _finish(self, done: np.ndarray) -> None:
        """Mark the live rows ``done`` converged, keep their results and compact the rest."""
        rows = self._rows[done]
        self._done_a[rows], self._done_u[rows], self._done_f[rows] = self._a[done], self._u[done], self._f[done]
        self._done_iters[rows] = self.iters
        self.converged[rows] = True
        live = ~done
        self._rows, self._coeffs, self._u, self._vu = self._rows[live], self._coeffs[live], self._u[live], self._vu[live]
        self._rho, self._drho, self._dfdu = self._rho[live], self._drho[live], self._dfdu[live]
        self._a, self._v, self._w, self._f = self._a[live], self._v[live], self._w[live], self._f[live]
        self._step, self._stall = self._step[live], self._stall[live]

    def run(self, max_iters: int) -> None:
        while self.iters < max_iters and self._rows.size:
            self.step_once()


def _random_factors(rng: np.random.Generator, n_outcomes: int, dim: int) -> np.ndarray:
    return rng.standard_normal((n_outcomes, dim, dim))


def _ascend(protocol: Protocol, q: float, config: OptimizerConfig) -> _Batch:
    """The lockstep ascent of config.restarts rows at q, run to config.max_iters.

    Restart r draws its factors and then, unless alpha's interval is a
    point, its angle from the stream seed + r, with sin^2 u uniform on
    [0, 1], so that alpha starts uniform on the interval.
    """
    lo, hi = alpha_range(protocol, q)
    rngs = [np.random.default_rng(config.seed + r) for r in range(config.restarts)]
    factors = np.stack([_random_factors(rng, protocol.povm_outcomes, 4) for rng in rngs])
    u = None if lo == hi else np.arcsin(np.sqrt([rng.uniform() for rng in rngs]))
    coeffs = np.broadcast_to(amplitude_map(protocol, q), (config.restarts, 4, 4))
    batch = _Batch(factors, _conditional_tensor(protocol), coeffs, u)
    batch.run(config.max_iters)
    return batch


def _fixed_povm_info(m: np.ndarray, states: list[PurifiedState]) -> np.ndarray:
    """I(Key : K, Side) of each POVM in m (r, k, d, d), held fixed, at each state: an (r, len(states)) table.

    One _probs and one _objective call over every (POVM, state) pair.
    """
    rho = np.stack([_conditional_stack(ps) for ps in states])
    rows = np.tile(rho.reshape(*rho.shape[:3], -1), (len(m), 1, 1, 1))
    f, _ = _objective(_probs(np.repeat(m, len(states), axis=0), rows))
    return f.reshape(len(m), len(states))


def optimize_attack(protocol: Protocol, q: float, config: OptimizerConfig) -> AttackResult:
    """Maximize the adversary's information jointly over the source weight alpha and the POVM.

    One ascent (_ascend), in every restart's factors and angle at once, is
    the whole search; config.alpha_grid_points and alpha_refine_iters change
    no result.  The best row is reported once, in the frame every reader
    rebuilds from best_alpha: its angle is mapped into [0, pi/2], where every
    amplitude is non-negative like purified_state's, and its POVM through the
    matching reflection D M D of the E register (D diagonal, +-1), which
    scores the same on the mapped state.  alpha then snaps to a bound where
    that POVM scores no lower, within _STEP_TOLERANCE (bb84 reports alpha_lo
    exactly), and i_ae is the POVM's value at purified_state(best_alpha).
    """
    lo, hi = alpha_range(protocol, q)
    batch = _ascend(protocol, q, config)
    f = batch.f
    best = int(np.argmax(f))
    m, alpha, slope = batch.m[best], lo, None
    if lo != hi:
        coeffs = amplitude_map(protocol, q)
        sin, cos = math.sin(batch.u[best]), math.cos(batch.u[best])
        # the signs sin u and cos u give the amplitudes that vanish at lo and at hi
        d = np.where(coeffs[:, 2] > 0.0, math.copysign(1.0, sin), 1.0)
        d *= np.where(coeffs[:, 3] > 0.0, math.copysign(1.0, cos), 1.0)
        m = m * np.outer(d, d)
        u = math.atan2(abs(sin), abs(cos))
        rho, d_rho = _state_rows(_conditional_tensor(protocol), coeffs[None], np.array([u]))
        slope = float(_angle_slope(m[None], _objective(_probs(m[None], rho))[1], d_rho)[0])
        alpha = alpha_at(protocol, q, u)
    candidates = (alpha, lo, hi)
    values = _fixed_povm_info(m[None], [purified_state(protocol, q, a) for a in candidates])[0]
    # within the ascent's resolution: a signed amplitude's linear term can lift a POVM by rounding-sized
    # amounts just inside a bound (bb84 at q = 0.25: 2.9e-12 at alpha_lo + 2.6e-13)
    snap = [i for i in (1, 2) if values[i] >= values[0] - _STEP_TOLERANCE]
    pick = snap[0] if snap else 0
    agreeing = int(np.count_nonzero(f >= f[best] - _AGREE_TOL))
    return AttackResult(
        q=q,
        protocol=protocol,
        i_ae=max(float(values[pick]), 0.0),
        best_alpha=candidates[pick],
        best_povm=Povm(m),
        restarts_agreeing=agreeing,
        converged=bool(batch.converged[best]),
        robust=4 * agreeing >= config.restarts,
        alpha_slope=slope,
        alpha_stop="bound" if snap else "stationary" if batch.converged[best] else "budget",
    )


def info_slope(result: AttackResult) -> float:
    """dI_AE/dq at an optimized attack, by the envelope theorem (Milgrom and Segal, 2002).

    At the optimum, I_AE moves with q as I does with the attack's POVM held
    fixed: a central difference at q +/- 1e-6 through the step kernels,
    alpha held at an interior best_alpha or following its bound.  Holding
    an interior alpha is exact only where dI/dalpha is 0; ``alpha_slope``,
    the best row's dI/du, says how far from 0 the ascent stopped.
    """
    protocol, q, alpha = result.protocol, result.q, result.best_alpha
    lo, hi = alpha_range(protocol, q)

    def state(q_side: float) -> PurifiedState:
        lo_side, hi_side = alpha_range(protocol, q_side)
        a = lo_side if alpha <= lo else hi_side if alpha >= hi else min(max(alpha, lo_side), hi_side)
        return purified_state(protocol, q_side, a)

    up, down = _fixed_povm_info(result.best_povm.elements.real[None], [state(q + 1e-6), state(q - 1e-6)])[0]
    return (float(up) - float(down)) / 2e-6
