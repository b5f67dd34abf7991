"""Protocol definitions, Bell-diagonal source states and their purifications.

Conventions
-----------
Qubit pairs live on A (sender) tensor B (receiver); the adversary register E
is a 4-dimensional system purifying the pair, ordering A x B x E with
dimensions [2, 2, 4].  Bell vectors are indexed 0..3 as
phi+ = (|00> + |11>)/sqrt2, phi- = (|00> - |11>)/sqrt2,
psi+ = (|01> + |10>)/sqrt2, psi- = (|01> - |10>)/sqrt2.

Measurement bases are indexed by theta: 0 is the computational basis,
1 is the Hadamard basis |+->, 2 (three-basis protocol only) is the circular
basis (|0> +- i|1>)/sqrt2 with x = 0 mapped to the +i state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import TOL, is_psd, partial_trace

_S = 1.0 / np.sqrt(2.0)
# _BASIS_VECTORS[theta, x] is the sender's state for bit x, theta as above
_BASIS_VECTORS = np.array(
    [[[1.0, 0.0], [0.0, 1.0]], [[_S, _S], [_S, -_S]], [[_S, 1j * _S], [_S, -1j * _S]]], dtype=complex
)


@dataclass(frozen=True)
class Protocol:
    """A prepare-and-measure protocol seen through its entanglement picture.

    ``basis_count`` is the number of announced bases (sifting keeps a
    1/basis_count fraction of rounds and the error rate is checked in each).
    ``attack_basis_count`` is the number of bases entering the adversary's
    information estimator.  The three-basis source is basis-symmetric, so the
    published attack curves evaluate the estimator on a basis pair; the pair
    choice does not change the value.  ``key_on_basis`` marks the encoding
    where the secret bit is the basis choice and the prepared bit value is
    the revealed side information.

    The source family is data, affine in the error rate q and the free
    weight alpha.  ``bell_weights`` holds one row (c0, c_q, c_alpha) per
    Bell weight, in the order phi+, phi-, psi+, psi-; the weight at
    (q, alpha) is c0 + c_q q + c_alpha alpha.  ``alpha_bounds`` is
    ((lo0, lo_q), (hi0, hi_q)): alpha ranges over [lo0 + lo_q q, hi0 + hi_q q]
    clipped to [0, 1].  The optimal attack's information at q is
    ``keyrate.bb84_closed_form_iae(closed_form_q_scale * q)``, if not None.
    """

    name: str
    basis_count: int
    bell_weights: tuple[tuple[float, float, float], ...]
    alpha_bounds: tuple[tuple[float, float], tuple[float, float]]
    attack_basis_count: int = 2
    key_on_basis: bool = False
    closed_form_q_scale: float | None = None

    @property
    def povm_outcomes(self) -> int:
        """One adversary outcome per joint guess, one guess per revealed value."""
        return 2**self.attack_basis_count


BB84 = Protocol(
    "bb84",
    2,
    bell_weights=((0.0, 0.0, 1.0), (1.0, -1.0, -1.0), (1.0, -1.0, -1.0), (-1.0, 2.0, 1.0)),
    alpha_bounds=((1.0, -2.0), (1.0, -1.0)),
    closed_form_q_scale=1.0,
)
# the three-basis constraints fix every weight, so alpha enters with coefficient 0
SIX_STATE = Protocol(
    "sixstate",
    3,
    bell_weights=((1.0, -1.5, 0.0), (0.0, 0.5, 0.0), (0.0, 0.5, 0.0), (0.0, 0.5, 0.0)),
    alpha_bounds=((1.0, -1.5), (1.0, -1.5)),
    closed_form_q_scale=0.5,
)
SARG04 = Protocol(
    "sarg04",
    2,
    bell_weights=((0.0, 0.0, 1.0), (1.0, -1.0, -1.0), (1.0, -1.5, -1.0), (-1.0, 2.5, 1.0)),
    alpha_bounds=((1.0, -2.5), (1.0, -1.5)),
    key_on_basis=True,
)

PROTOCOLS = {p.name: p for p in (BB84, SIX_STATE, SARG04)}

_BELL_LABELS = ("phi+", "phi-", "psi+", "psi-")


@dataclass(frozen=True)
class BellDiagonalParams:
    """Bell weights (alpha, beta, gamma, delta) of a source state at error rate q."""

    protocol: Protocol
    q: float
    alpha: float
    beta: float
    gamma: float
    delta: float

    def __post_init__(self) -> None:
        w = self.weights
        if np.min(w) < -1e-12:
            i = int(np.argmin(w))
            raise ValueError(
                f"Bell weight {_BELL_LABELS[i]} = {w[i]:.3e} is negative "
                f"(protocol {self.protocol.name}, q={self.q}, alpha={self.alpha})"
            )
        if abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise ValueError(f"Bell weights sum to {np.sum(w)}, expected 1")

    @property
    def weights(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, self.gamma, self.delta])

    @property
    def rho(self) -> np.ndarray:
        """The Bell-diagonal state sum_i w_i |bell_i><bell_i|."""
        bell = bell_basis()
        return (bell.T * np.clip(self.weights, 0.0, None)) @ bell.conj()


@dataclass
class PurifiedState:
    """Pure state |psi> on A x B x E carrying its source parameters.

    Plain container; ``purify`` is the validating constructor.
    """

    psi: np.ndarray
    params: BellDiagonalParams

    @property
    def protocol(self) -> Protocol:
        return self.params.protocol


def bell_basis() -> np.ndarray:
    """The four Bell vectors as rows, in the fixed order documented above."""
    return np.array(
        [
            [_S, 0, 0, _S],
            [_S, 0, 0, -_S],
            [0, _S, _S, 0],
            [0, _S, -_S, 0],
        ],
        dtype=complex,
    )


def basis_projector(protocol: Protocol, x, theta) -> np.ndarray:
    """Rank-1 projector onto the sender's state for bit x in basis theta.

    x and theta broadcast against each other, so x=[[0], [1]] and
    theta=np.arange(b) give the (2, b, 2, 2) stack of every (x, theta).
    """
    x, theta = np.asarray(x), np.asarray(theta)
    bad_x, bad_theta = (x != 0) & (x != 1), (theta < 0) | (theta >= protocol.basis_count)
    if bad_x.any():
        raise ValueError(f"x={x[bad_x][0]} is not a bit")
    if bad_theta.any():
        raise ValueError(f"theta={theta[bad_theta][0]} out of range for {protocol.name} ({protocol.basis_count} bases)")
    v = _BASIS_VECTORS[theta, x]
    return v[..., :, None] * v[..., None, :].conj()


def bob_bit_projector(protocol: Protocol, y, theta) -> np.ndarray:
    """Receiver-side projector announcing bit y in basis theta, broadcast like basis_projector.

    The entanglement picture correlates the receiver with the complex
    conjugate of the sender's state, so announced bits use the conjugated
    basis.  Real bases (0, 1) are unaffected; the circular basis swaps.
    """
    return basis_projector(protocol, y, theta).conj()


def alpha_range(protocol: Protocol, q: float) -> tuple[float, float]:
    """Admissible range of the free Bell weight alpha at error rate q."""
    if not 0.0 <= q <= 0.5:
        raise ValueError(f"q={q} is outside [0, 0.5]: q must lie in that interval")
    (lo0, lo_q), (hi0, hi_q) = protocol.alpha_bounds
    lo, hi = max(lo0 + lo_q * q, 0.0), min(hi0 + hi_q * q, 1.0)
    if lo > hi + 1e-12:
        raise ValueError(f"empty alpha range for {protocol.name} at q={q}")
    return lo, hi


def _family_params(protocol: Protocol, q: float, alpha: float) -> BellDiagonalParams:
    """Bell weights of the protocol family at (q, alpha), alpha checked against its range."""
    lo, hi = alpha_range(protocol, q)
    if not lo - 1e-12 <= alpha <= hi + 1e-12:
        raise ValueError(
            f"alpha={alpha} outside [{lo}, {hi}] for {protocol.name} at q={q}"
        )
    weights = [c0 + c_q * q + c_alpha * alpha for c0, c_q, c_alpha in protocol.bell_weights]
    return BellDiagonalParams(protocol, q, *weights)


def rho_ab(protocol: Protocol, q: float, alpha: float) -> tuple[np.ndarray, BellDiagonalParams]:
    """Bell-diagonal two-qubit state of the protocol family at (q, alpha)."""
    params = _family_params(protocol, q, alpha)
    return params.rho, params


def purify(params: BellDiagonalParams) -> PurifiedState:
    """Purification with the adversary register copying the Bell index.

    |psi> = sum_i sqrt(w_i) |bell_i>_AB |e_i>_E, |e_i> the computational basis
    of the 4-dimensional register E, so <ab, e_i|psi> = sqrt(w_i) <ab|bell_i>.
    Any valid Bell weights are accepted, on or off the protocol family; the
    result is checked against ``params.rho``.
    """
    psi = (bell_basis().T * np.sqrt(np.clip(params.weights, 0.0, None))).ravel()
    norm = float(np.real(np.vdot(psi, psi)))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"purification norm {norm} != 1")
    back = partial_trace(np.outer(psi, psi.conj()), [2, 2, 4], keep=[0, 1])
    if np.max(np.abs(back - params.rho)) > 1e-10:
        raise ValueError("purification does not reduce to its source state")
    return PurifiedState(psi, params)


def purified_state(protocol: Protocol, q: float, alpha: float) -> PurifiedState:
    """Convenience: family state at (q, alpha), purified."""
    return purify(_family_params(protocol, q, alpha))


def conditional_tensor(protocol: Protocol, x, theta) -> np.ndarray:
    """The protocol-only tensor T of the adversary's conditional states, broadcast like basis_projector.

    A purification sum_i s_i |bell_i>|e_i> with real amplitudes s gives
    rho_E^(x,theta) = sum_ij s_i s_j T_ij |e_i><e_j|, where
    T_ij = 2 <P bell_j|P bell_i>, P = basis_projector(x, theta) on A, and
    the 2 is 1/p(x).  T depends on neither q nor alpha: a family state enters
    only through its amplitudes (see amplitude_map).
    """
    chi = basis_projector(protocol, x, theta)[..., None, :, :] @ bell_basis().reshape(4, 2, 2)
    return 2.0 * np.einsum("...iab,...jab->...ij", chi, chi.conj())


def amplitude_map(protocol: Protocol, q: float) -> np.ndarray:
    """Coefficients (4, 4) of the purification amplitudes along alpha = lo + (hi - lo) sin^2 u.

    Row i is (r0, r2, c_sin, c_cos), and amplitudes(row, u) is
    s_i = sqrt(r0 + r2 sin^2 u) + c_sin sin u + c_cos cos u.  A Bell weight
    c_alpha (alpha - lo) that vanishes at lo gets the signed amplitude
    sqrt(|c_alpha| (hi - lo)) sin u, one that vanishes at hi the same with
    cos u, and every other keeps sqrt(w(alpha(u))).  So s is smooth in every
    real u, alpha(u) lies in [lo, hi] with no clamp, and sum s_i^2 = 1.  A
    point interval's amplitudes do not depend on u.
    """
    lo, hi = alpha_range(protocol, q)
    c = np.array(protocol.bell_weights)
    w_lo, w_hi = (c[:, 0] + c[:, 1] * q + c[:, 2] * a for a in (lo, hi))
    span = c[:, 2] * (hi - lo)
    at_lo = (span != 0.0) & (np.abs(w_lo) <= 1e-12)
    at_hi = (span != 0.0) & (np.abs(w_hi) <= 1e-12) & ~at_lo
    root = ~(at_lo | at_hi)
    scale = np.sqrt(np.abs(span))
    r0, r2 = np.where(root, np.clip(w_lo, 0.0, None), 0.0), np.where(root, span, 0.0)
    return np.stack([r0, r2, at_lo * scale, at_hi * scale], axis=-1)


def amplitudes(coeffs: np.ndarray, u) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes s (..., 4) and ds/du at angles u (...), for amplitude_map rows coeffs (..., 4, 4)."""
    sin, cos = np.sin(u)[..., None], np.cos(u)[..., None]
    r0, r2, c_sin, c_cos = np.moveaxis(coeffs, -1, 0)
    root = np.sqrt(np.maximum(r0 + r2 * sin**2, 0.0))
    d_root = np.divide(r2 * sin * cos, root, out=np.zeros_like(root), where=root > 0.0)
    return root + c_sin * sin + c_cos * cos, d_root + c_sin * cos - c_cos * sin


def alpha_at(protocol: Protocol, q: float, u: float) -> float:
    """The source weight alpha = lo + (hi - lo) sin^2 u of amplitude_map's angle u."""
    lo, hi = alpha_range(protocol, q)
    return lo + (hi - lo) * math.sin(u) ** 2


def _conditioned(ps: PurifiedState, x, theta, kept: int) -> tuple[np.ndarray, np.ndarray | float]:
    # on a pure state, projecting A and tracing out all but the last `kept` dimensions is one
    # contraction: chi = P psi, rows over what is traced out, and the state is chi^T conj(chi)
    proj = basis_projector(ps.protocol, x, theta)
    chi = (proj @ ps.psi.reshape(2, 8)).reshape(*proj.shape[:-2], -1, kept)
    unnorm = chi.swapaxes(-1, -2) @ chi.conj()
    p = np.trace(unnorm, axis1=-2, axis2=-1).real
    low = p < TOL.probability_floor
    if low.any():
        x_low, theta_low = (np.broadcast_to(v, p.shape)[low][0] for v in (x, theta))
        raise ValueError(f"conditioning on (x={x_low}, theta={theta_low}) has probability {p[low][0]:.3e}")
    return unnorm / p[..., None, None], p if p.ndim else float(p)


def eve_conditional_state(ps: PurifiedState, x, theta) -> tuple[np.ndarray, np.ndarray | float]:
    """Adversary register state given the sender's bit x in basis theta.

    Returns (rho_E, probability of that bit); the probability is 1/2 for
    every member of the family since the sender's marginal is maximally
    mixed.  x and theta broadcast as in basis_projector: x=[[0], [1]] and
    theta=np.arange(b) give the (2, b, 4, 4) stack and its (2, b)
    probabilities in one call.
    """
    return _conditioned(ps, x, theta, kept=4)


def bob_eve_conditional_state(ps: PurifiedState, x, theta) -> np.ndarray:
    """Joint receiver-adversary state (dims [2, 4]) given (x, theta), broadcast like eve_conditional_state."""
    return _conditioned(ps, x, theta, kept=8)[0]


def qber_in_basis(rho: np.ndarray, protocol: Protocol, theta: int) -> float:
    """Probability that announced bits disagree when both measure basis theta."""
    if not is_psd(rho):
        raise ValueError("qber_in_basis: state is not PSD within tolerance")
    x = np.array([0, 1])
    # the operators P_x (x) P_{1-x}, entry [x, (a, b), (a', b')] = P_x[a, a'] P_{1-x}[b, b']
    ops = np.einsum("xac,xbd->xabcd", basis_projector(protocol, x, theta), bob_bit_projector(protocol, 1 - x, theta))
    return float(np.trace(rho @ ops.reshape(2, 4, 4), axis1=-2, axis2=-1).real.sum())
