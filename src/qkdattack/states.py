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
    clipped to [0, 1].
    """

    name: str
    basis_count: int
    bell_weights: tuple[tuple[float, float, float], ...]
    alpha_bounds: tuple[tuple[float, float], tuple[float, float]]
    attack_basis_count: int = 2
    key_on_basis: bool = False

    @property
    def povm_outcomes(self) -> int:
        """One adversary outcome per joint guess, one guess per revealed value."""
        return 2**self.attack_basis_count


BB84 = Protocol(
    "bb84",
    2,
    bell_weights=((0.0, 0.0, 1.0), (1.0, -1.0, -1.0), (1.0, -1.0, -1.0), (-1.0, 2.0, 1.0)),
    alpha_bounds=((1.0, -2.0), (1.0, -1.0)),
)
# the three-basis constraints fix every weight, so alpha enters with coefficient 0
SIX_STATE = Protocol(
    "sixstate",
    3,
    bell_weights=((1.0, -1.5, 0.0), (0.0, 0.5, 0.0), (0.0, 0.5, 0.0), (0.0, 0.5, 0.0)),
    alpha_bounds=((1.0, -1.5), (1.0, -1.5)),
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
        rho = np.zeros((4, 4), dtype=complex)
        for w, vec in zip(self.weights, bell_basis()):
            if w > 0:
                rho += w * np.outer(vec, vec.conj())
        return rho


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


def basis_projector(protocol: Protocol, x: int, theta: int) -> np.ndarray:
    """Rank-1 projector onto the sender's state for bit x in basis theta."""
    if x not in (0, 1):
        raise ValueError(f"x={x} is not a bit")
    if not 0 <= theta < protocol.basis_count:
        raise ValueError(
            f"theta={theta} out of range for {protocol.name} ({protocol.basis_count} bases)"
        )
    v = _BASIS_VECTORS[theta, x]
    return np.outer(v, v.conj())


def bob_bit_projector(protocol: Protocol, y: int, theta: int) -> np.ndarray:
    """Receiver-side projector announcing bit y in basis theta.

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


def rho_ab(protocol: Protocol, q: float, alpha: float) -> tuple[np.ndarray, BellDiagonalParams]:
    """Bell-diagonal two-qubit state of the protocol family at (q, alpha)."""
    lo, hi = alpha_range(protocol, q)
    if not lo - 1e-12 <= alpha <= hi + 1e-12:
        raise ValueError(
            f"alpha={alpha} outside [{lo}, {hi}] for {protocol.name} at q={q}"
        )
    weights = [c0 + c_q * q + c_alpha * alpha for c0, c_q, c_alpha in protocol.bell_weights]
    params = BellDiagonalParams(protocol, q, *weights)
    return params.rho, params


def purify(params: BellDiagonalParams) -> PurifiedState:
    """Purification with the adversary register copying the Bell index.

    |psi> = sum_i sqrt(w_i) |bell_i>_AB |e_i>_E with |e_i> the computational
    basis of the 4-dimensional register E.  Any valid Bell weights are
    accepted, on or off the protocol family; the result is checked against
    ``params.rho``.
    """
    bell = bell_basis()
    eye4 = np.eye(4, dtype=complex)
    psi = np.zeros(16, dtype=complex)
    for i, w in enumerate(params.weights):
        if w > 0:
            psi += np.sqrt(w) * np.kron(bell[i], eye4[i])
    norm = float(np.real(np.vdot(psi, psi)))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"purification norm {norm} != 1")
    back = partial_trace(np.outer(psi, psi.conj()), [2, 2, 4], keep=[0, 1])
    if np.max(np.abs(back - params.rho)) > 1e-10:
        raise ValueError("purification does not reduce to its source state")
    return PurifiedState(psi, params)


def purified_state(protocol: Protocol, q: float, alpha: float) -> PurifiedState:
    """Convenience: family state at (q, alpha), purified."""
    _, params = rho_ab(protocol, q, alpha)
    return purify(params)


def _conditioned(ps: PurifiedState, x: int, theta: int, keep: list[int]) -> tuple[np.ndarray, float]:
    proj = basis_projector(ps.protocol, x, theta)
    op = np.kron(np.kron(proj, np.eye(2, dtype=complex)), np.eye(4, dtype=complex))
    rho_abe = np.outer(ps.psi, ps.psi.conj())
    unnorm = partial_trace(op @ rho_abe, [2, 2, 4], keep=keep)
    p = float(np.real(np.trace(unnorm)))
    if p < TOL.probability_floor:
        raise ValueError(f"conditioning on (x={x}, theta={theta}) has probability {p:.3e}")
    return unnorm / p, p


def eve_conditional_state(ps: PurifiedState, x: int, theta: int) -> tuple[np.ndarray, float]:
    """Adversary register state given the sender's bit x in basis theta.

    Returns (rho_E, probability of that bit); the probability is 1/2 for
    every member of the family since the sender's marginal is maximally
    mixed.
    """
    return _conditioned(ps, x, theta, keep=[2])


def bob_eve_conditional_state(ps: PurifiedState, x: int, theta: int) -> np.ndarray:
    """Joint receiver-adversary state (dims [2, 4]) given (x, theta)."""
    rho_be, _ = _conditioned(ps, x, theta, keep=[1, 2])
    return rho_be


def qber_in_basis(rho: np.ndarray, protocol: Protocol, theta: int) -> float:
    """Probability that announced bits disagree when both measure basis theta."""
    if not is_psd(rho):
        raise ValueError("qber_in_basis: state is not PSD within tolerance")
    err = 0.0
    for x in (0, 1):
        op = np.kron(basis_projector(protocol, x, theta), bob_bit_projector(protocol, 1 - x, theta))
        err += float(np.real(np.trace(rho @ op)))
    return err
