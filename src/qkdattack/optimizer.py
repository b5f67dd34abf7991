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
in the calling process.  The kernels work in T's flat frame: a cell's state
is T_cell * s s^T, so p[k, cell] = <M_k * s s^T, T_cell>, dI/dM_k =
G_k * s s^T with G = w @ T, and dI/du = sum_k <M_k * G_k, d(s s^T)/du>.  A
row carries s s^T, its derivative in u and G, never its states, and the
value is read as I = sum p w from the weights w the gradient needs, the
plug-in form of information.plugin_mutual_info.  Every row carries its own
amplitude map, and the step kernels (batched per-row matmuls for the
probabilities and G, stacked matmuls and eigh for the retraction) compute
every row independently of the others, so each restart's trajectory
depends only on its own start and its own map, and rows at different q can
share a batch.

The attack report reads states the way the ascent does, through T and an
angle: optimize_attack scores the best POVM at its own angle and at both
bounds in one kernel call, and info_slope, the slope dI_AE/dq that keyrate's
threshold search steers by, differences the best POVM at its angle on the
amplitude maps at q +/- 1e-6 (the envelope theorem).  So only this module
knows the kernels' flat-frame layout.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .information import Povm
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
        for field in ("restarts", "max_iters", "seed", "alpha_grid_points", "alpha_refine_iters"):
            value = getattr(self, field)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{field} must be an integer, got {value!r}")
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


def _outer(coeffs: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s s^T (r, d^2) at each row's angle, each flattened, and its derivative s' s^T + s s'^T in it.

    Row i's amplitudes are s = amplitudes(coeffs[i], u[i]); its conditional
    states are T * s s^T, which no kernel builds.
    """
    s, ds = amplitudes(coeffs, u)
    r, d = s.shape
    outer = s[:, :, None] * s[:, None, :]
    d_outer = ds[:, :, None] * s[:, None, :]
    d_outer += d_outer.mT
    return outer.reshape(r, d * d), d_outer.reshape(r, d * d)


def _planar(coeffs: np.ndarray) -> np.ndarray:
    """Amplitude maps (r, 4, 4) as a view whose coefficient planes coeffs[..., i] are contiguous, as amplitudes reads them."""
    return np.ascontiguousarray(np.moveaxis(coeffs, -1, 0)).transpose(1, 2, 0)


def _renormalize(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map factor stacks (r, k, d, d) onto the completeness manifold.

    Returns (normalized factors, their POVM elements).  Gram eigenvalues are
    floored at 1e-12 before inversion; random factor stacks are full rank
    almost surely, so the floor only guards degenerate proposals.
    """
    r, k, d = a.shape[0], a.shape[1], a.shape[-1]
    stacked = a.reshape(r, k * d, d)
    w, v = np.linalg.eigh(stacked.mT @ stacked)
    np.maximum(w, _EIG_FLOOR, out=w)
    np.sqrt(w, out=w)
    np.divide(1.0, w, out=w)
    v_scaled = v * w[:, None, :]
    a_n = (stacked @ (v_scaled @ v.mT)).reshape(a.shape)
    return a_n, np.ascontiguousarray(a_n.mT) @ a_n


def _probs(m: np.ndarray, outer: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """p[r, k, key, side] = p(k | key, side) for POVM stacks m (r, k, d, d).

    ``outer`` holds each row's s s^T (r, d^2) from _outer and ``tensor`` is
    T (key, side, d^2).  A cell's state is T_cell * s s^T and symmetric, so
    Tr(M rho) = <M * s s^T, T_cell>, and each row is one
    (k, d^2) @ (d^2, key * side) product, batched over the rows.
    """
    r, k = m.shape[:2]
    p = (m.reshape(r, k, -1) * outer[:, None, :]) @ tensor.reshape(-1, tensor.shape[-1]).T
    np.maximum(p, 0.0, out=p)
    np.minimum(p, 1.0, out=p)
    return p.reshape(r, k, *tensor.shape[:2])


def _key_marginal(p: np.ndarray) -> np.ndarray:
    """p(k | side) from stacks p[r, k, key, side]: the mean over the key axis.

    Summed slice by slice: numpy's reduction over this middle axis of small
    stacks costs about three times as much for the same bits.
    """
    n_key = p.shape[2]
    return sum((p[:, :, i] for i in range(1, n_key)), p[:, :, 0]) / n_key


def _objective(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """I(Key : K, Side) per restart, and its gradient weights, from probability stacks p[r, k, key, side].

    Key and side values are uniform and independent.  The derivative
    d I / d p[k, key, side] is w = (log2 p - log2 pbar) / n, with pbar the
    key-marginal of p and n the number of (key, side) cells, and I itself
    is sum p w: that is H(K | Side) - H(K | Key, Side), the plug-in form
    of information.plugin_mutual_info.  Each log is floored at 1e-18, where
    p log2 p is below 1e-16, so the floor changes no value beyond rounding.
    Returns (I, w) with w[r, k, (key, side)].
    """
    r, k, n_key, n_side = p.shape
    pbar = _key_marginal(p)
    np.maximum(pbar, 1e-18, out=pbar)
    np.log2(pbar, out=pbar)
    w = np.maximum(p, 1e-18)
    np.log2(w, out=w)
    w -= pbar[:, :, None, :]
    w /= n_key * n_side
    w = w.reshape(r, k, -1)
    return np.vecdot(p.reshape(r, -1), w.reshape(r, -1)), w


def _gradient(w: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """G = w @ T (r, k, d^2) from the gradient weights w[r, k, (key, side)] of _objective.

    d I / d M_k = G_k * s s^T: the weighted sum of the cells' states, each
    T_cell * s s^T, is G_k * s s^T, so G is what a row carries between
    steps.  Each row is one (k, n) @ (n, d^2) product, batched over the rows.
    """
    return w @ tensor.reshape(-1, tensor.shape[-1])


def _angle_slope(m: np.ndarray, g: np.ndarray, d_outer: np.ndarray) -> np.ndarray:
    """dI/du of each row: the sum over (k, cell) of w[r, k, cell] <M_k, d rho_cell/du>.

    d rho_cell/du = T_cell * d(s s^T)/du, so with G = _gradient(w, T) that is
    sum_k <M_k * G_k, d(s s^T)/du>; ``d_outer`` is the derivative from _outer.
    """
    r, k = g.shape[:2]
    return np.vecdot(m.reshape(r, k, -1) * g, d_outer[:, None, :]).sum(axis=1)


class _Batch:
    """Lockstep state of several independent local searches.

    Row i ascends from ``factors[i]`` and, unless ``u`` is None, from the
    angle ``u[i]``.  Its conditional states are T * s s^T on the shared
    ``tensor`` T (key, side, d^2), at the amplitudes of its amplitude map
    ``coeffs[i]`` and its angle; with ``u`` None they stay at angle 0, a
    point interval's one state.  A row carries s s^T and its derivative in
    the angle (see _outer), never the states.  A step works on dense arrays
    of the rows still running, the live rows: their accepted factors and
    angles, s s^T and its derivative, G = w @ T of their gradient weights,
    value and dI/du there, velocities, step sizes and stall counts.  These
    are compacted only on a step where rows finish; a finished row's
    factors, angle and value are kept in full-length arrays.  ``f``, ``m``,
    ``u`` and ``row_iters`` give every row in the batch's order, like
    ``active`` and ``converged``.
    """

    def __init__(self, factors: np.ndarray, tensor: np.ndarray, coeffs: np.ndarray, u: np.ndarray | None = None):
        n = factors.shape[0]
        self._tensor, self._moves, self._coeffs = tensor, u is not None, _planar(coeffs)
        self._u = np.zeros(n) if u is None else np.array(u, dtype=float)
        self._s, self._ds = _outer(coeffs, self._u)
        self._a, m = _renormalize(factors)
        self._f, w = _objective(_probs(m, self._s, tensor))
        self._g = _gradient(w, tensor)
        self._dfdu = _angle_slope(m, self._g, self._ds)
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
        a, v, h = self._a, self._v, self._step
        cand = a @ (self._g * self._s[:, None, :]).reshape(a.shape)
        cand *= h[:, None, None, None]
        cand += a
        cand += v
        a_n, m_n = _renormalize(cand)
        u_n, s_n, ds_n = self._u, self._s, self._ds
        if self._moves:
            u_n = h * self._dfdu
            u_n += self._u
            u_n += self._vu
            s_n, ds_n = _outer(self._coeffs, u_n)
        f_n, w_n = _objective(_probs(m_n, s_n, self._tensor))
        g_n = _gradient(w_n, self._tensor)
        improved = f_n > self._f
        # small improvements do not reset the stall window, otherwise
        # asymptotic creep keeps slow restarts alive to max_iters
        significant = f_n > self._f + _STEP_TOLERANCE + 1e-7 * np.abs(f_n)
        # the next step's momentum: the accepted move, and none after a rejection
        scale = np.where(improved, _MOMENTUM, 0.0)
        np.subtract(a_n, a, out=v)
        v *= scale[:, None, None, None]
        np.copyto(a, a_n, where=improved[:, None, None, None])
        np.copyto(self._g, g_n, where=improved[:, None, None])
        np.copyto(self._f, f_n, where=improved)
        if self._moves:
            np.subtract(u_n, self._u, out=self._vu)
            self._vu *= scale
            np.copyto(self._u, u_n, where=improved)
            np.copyto(self._s, s_n, where=improved[:, None])
            np.copyto(self._ds, ds_n, where=improved[:, None])
            np.copyto(self._dfdu, _angle_slope(m_n, g_n, ds_n), where=improved)
        h *= np.where(improved, 1.2, 0.5)
        np.maximum(h, _STEP_FLOOR, out=h)
        self._stall += 1
        self._stall[significant] = 0
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
        self._rows, self._coeffs, self._u, self._vu = self._rows[live], _planar(self._coeffs[live]), self._u[live], self._vu[live]
        self._s, self._ds, self._g, self._dfdu = self._s[live], self._ds[live], self._g[live], self._dfdu[live]
        self._a, self._v, self._f = self._a[live], self._v[live], self._f[live]
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


def optimize_attack(protocol: Protocol, q: float, config: OptimizerConfig) -> AttackResult:
    """Maximize the adversary's information jointly over the source weight alpha and the POVM.

    One ascent (_ascend), in every restart's factors and angle at once, is
    the whole search; config.alpha_grid_points and alpha_refine_iters change
    no result.  The best row is reported once, in the frame every reader
    rebuilds from best_alpha: its angle u is mapped into [0, pi/2], where
    every amplitude is non-negative like purified_state's, and its POVM
    through the matching reflection D M D of the E register (D diagonal,
    +-1), which scores the same on the mapped state.  One kernel call scores
    that POVM at the angles (u, 0, pi/2), alpha and its two bounds, and
    gives alpha_slope at u; alpha then snaps to a bound where the POVM scores
    no lower, within _STEP_TOLERANCE (bb84 reports alpha_lo exactly), and
    i_ae is the POVM's value at purified_state(best_alpha).
    """
    lo, hi = alpha_range(protocol, q)
    batch = _ascend(protocol, q, config)
    f = batch.f
    best = int(np.argmax(f))
    m, u = batch.m[best], 0.0
    coeffs = amplitude_map(protocol, q)
    if lo != hi:
        sin, cos = math.sin(batch.u[best]), math.cos(batch.u[best])
        # the signs sin u and cos u give the amplitudes that vanish at lo and at hi
        d = np.where(coeffs[:, 2] > 0.0, math.copysign(1.0, sin), 1.0)
        d *= np.where(coeffs[:, 3] > 0.0, math.copysign(1.0, cos), 1.0)
        m = m * np.outer(d, d)
        u = math.atan2(abs(sin), abs(cos))
    tensor = _conditional_tensor(protocol)
    outer, d_outer = _outer(np.stack([coeffs] * 3), np.array([u, 0.0, math.pi / 2]))
    values, w = _objective(_probs(np.stack([m] * 3), outer, tensor))
    candidates = (alpha_at(protocol, q, u), lo, hi)
    # within the ascent's resolution: a signed amplitude's linear term can lift a POVM by rounding-sized
    # amounts just inside a bound (bb84 at q = 0.25: 2.9e-12 at alpha_lo + 2.6e-13)
    snap = [i for i in (1, 2) if values[i] >= values[0] - _STEP_TOLERANCE]
    pick = snap[0] if snap else 0
    rho_e = _conditional_stack(purified_state(protocol, q, candidates[pick]))
    # a stack of states is a tensor whose s s^T is all ones
    i_ae = float(_objective(_probs(m[None], np.ones((1, m[0].size)), rho_e.reshape(*rho_e.shape[:2], -1)))[0][0])
    agreeing = int(np.count_nonzero(f >= f[best] - _AGREE_TOL))
    return AttackResult(
        q=q,
        protocol=protocol,
        i_ae=max(i_ae, 0.0),
        best_alpha=candidates[pick],
        best_povm=Povm(m),
        restarts_agreeing=agreeing,
        converged=bool(batch.converged[best]),
        robust=4 * agreeing >= config.restarts,
        alpha_slope=None if lo == hi else float(_angle_slope(m[None], _gradient(w[:1], tensor), d_outer[:1])[0]),
        alpha_stop="bound" if snap else "stationary" if batch.converged[best] else "budget",
    )


def info_slope(result: AttackResult) -> float:
    """dI_AE/dq at an optimized attack, by the envelope theorem (Milgrom and Segal, 2002).

    At the optimum, I_AE moves with q as I does with the attack's POVM held
    fixed: a central difference at q +/- 1e-6 through the step kernels, at
    the angle u = asin sqrt((best_alpha - lo) / (hi - lo)) (0 at a point
    interval) on both sides' amplitude maps.  At q = 0 and q = 0.5 the
    difference is one-sided, over the 1e-6 inside [0, 0.5].  A held angle follows a bound
    by itself (u = 0 or pi/2) and moves an interior alpha with its interval.
    Holding the angle is exact only where dI/du is 0; ``alpha_slope``, the
    best row's dI/du, says how far from 0 the ascent stopped.
    """
    protocol, q = result.protocol, result.q
    lo, hi = alpha_range(protocol, q)
    # an alpha off its interval (a result built by hand) holds the nearer bound's angle
    u = math.asin(math.sqrt(min(max((result.best_alpha - lo) / (hi - lo), 0.0), 1.0))) if lo != hi else 0.0
    above, below = min(1e-6, 0.5 - q), min(1e-6, q)
    coeffs = np.stack([amplitude_map(protocol, q + above), amplitude_map(protocol, q - below)])
    outer, _ = _outer(coeffs, np.full(2, u))
    m = result.best_povm.elements.real
    (up, down), _ = _objective(_probs(np.stack([m, m]), outer, _conditional_tensor(protocol)))
    return (float(up) - float(down)) / (above + below)
