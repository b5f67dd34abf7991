"""Monte Carlo cross-validation of the analytic attack quantities.

A sifted round is a draw from the exact joint distribution

    p(x, theta, y, k) = 1/(2 B) * Tr[(P_y^theta (x) M_k) rho_BE^(x,theta)]

over the sender bit x, announced basis theta, receiver bit y and adversary
outcome k.  Sampling from this table and recomputing the error rate and the
adversary's information from empirical frequencies checks the analytic
pipeline end to end through an independent code path.

Only basis-matched rounds are sampled; the discarded fraction is exposed as
``JointDistribution.sifted_fraction`` metadata (1/2 for two-basis protocols,
1/3 for the three-basis one) since all rates here are per sifted bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .information import Povm
from .states import Protocol, PurifiedState, bob_bit_projector, bob_eve_conditional_state

ROUND_DTYPE = np.dtype(
    [("x", "i1"), ("theta", "i1"), ("y", "i1"), ("k", "i2"), ("eve_guess", "i1")]
)


@dataclass(frozen=True)
class JointDistribution:
    """Table probs[x, theta, y, k] over sifted rounds, with its protocol."""

    probs: np.ndarray
    protocol: Protocol

    def __post_init__(self) -> None:
        p = self.probs
        if p.ndim != 4 or p.shape[0] != 2 or p.shape[2] != 2:
            raise ValueError(f"probs must have shape (2, basis_count, 2, n_outcomes), got {p.shape}")
        if p.shape[1] != self.protocol.basis_count:
            raise ValueError(
                f"basis axis {p.shape[1]} does not match protocol basis_count {self.protocol.basis_count}"
            )
        if np.min(p) < -1e-12:
            raise ValueError(f"negative joint probability {np.min(p):.3e}")
        if abs(float(p.sum()) - 1.0) > 1e-10:
            raise ValueError(f"joint probabilities sum to {p.sum()}, expected 1")
        marginal = p.sum(axis=(2, 3))
        if np.max(np.abs(marginal - 1.0 / (2 * self.basis_count))) > 1e-10:
            raise ValueError("p(x, theta) is not uniform over bit and basis")

    @property
    def basis_count(self) -> int:
        return self.probs.shape[1]

    @property
    def n_outcomes(self) -> int:
        return self.probs.shape[3]

    @property
    def sifted_fraction(self) -> float:
        """Fraction of raw rounds that survive basis reconciliation."""
        return 1.0 / self.basis_count


def joint_distribution(ps: PurifiedState, povm: Povm) -> JointDistribution:
    """Exact sifted-round table induced by a purification and a measurement.

    The receiver measures in the announced basis; the adversary applies
    ``povm`` to her register.  Marginalizing over y reproduces the Eve-only
    trace path of information.conditional_probs.
    """
    if povm.dim != 4:
        raise ValueError(f"adversary POVM must act on the 4-dim register, got dim {povm.dim}")
    protocol = ps.protocol
    b = protocol.basis_count
    p = np.empty((2, b, 2, povm.n_outcomes))
    for x in (0, 1):
        for theta in range(b):
            rho_be = bob_eve_conditional_state(ps, x, theta)
            for y in (0, 1):
                ops = np.kron(bob_bit_projector(protocol, y, theta)[None], povm.elements)
                p[x, theta, y] = np.real(np.einsum("kij,ji->k", ops, rho_be))
    p = np.clip(p, 0.0, None) / (2 * b)
    return JointDistribution(p, protocol)


def sample_rounds(jd: JointDistribution, n: int, seed: int) -> np.ndarray:
    """n i.i.d. sifted rounds drawn by inverse CDF over the flattened table.

    Returns a structured array with fields x, theta, y, k, eve_guess, where
    eve_guess is bit theta of k: the adversary keeps the guess addressed by
    the later basis announcement.
    """
    if n < 1:
        raise ValueError(f"need at least one round, got n={n}")
    cdf = np.cumsum(jd.probs.ravel())
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    flat = np.searchsorted(cdf, rng.random(n), side="right")
    x, theta, y, k = np.unravel_index(flat, jd.probs.shape)
    out = np.empty(n, dtype=ROUND_DTYPE)
    out["x"], out["theta"], out["y"], out["k"] = x, theta, y, k
    out["eve_guess"] = (k >> theta) & 1
    return out


def _plugin_mi(counts: np.ndarray) -> float:
    """Plug-in mutual information in bits from a 2-d contingency table."""
    p = counts / counts.sum()
    pa = p.sum(axis=1, keepdims=True)
    pb = p.sum(axis=0, keepdims=True)
    mask = p > 0
    return float(np.sum(p[mask] * np.log2(p[mask] / (pa * pb)[mask])))


def empirical_stats(
    samples: np.ndarray, basis_count: int, key_on_basis: bool = False
) -> tuple[float, float, float]:
    """(qber_hat, i_ae_hat, guess_accuracy) from sampled rounds.

    qber_hat is the fraction of rounds with y != x.  i_ae_hat is the plug-in
    estimate of I(X : K, Theta) from empirical frequencies (no bias
    correction; with t table cells the bias is below t/(2 n ln 2), so choose
    n accordingly).  guess_accuracy is the fraction of rounds where the
    adversary's announced-bit guess equals x.

    With ``key_on_basis`` the key variable is the basis: i_ae_hat estimates
    I(Theta : K, X) and guess_accuracy scores bit x of k against theta.
    """
    n = len(samples)
    if n < 1000:
        raise ValueError(f"need at least 1000 samples for stable estimates, got {n}")
    x = samples["x"].astype(np.int64)
    theta = samples["theta"].astype(np.int64)
    k = samples["k"].astype(np.int64)
    qber_hat = float(np.mean(samples["y"] != samples["x"]))
    n_out = int(k.max()) + 1
    if key_on_basis:
        key, side, side_size = theta, x, 2
        accuracy = float(np.mean(((k >> x) & 1) == theta))
    else:
        key, side, side_size = x, theta, basis_count
        accuracy = float(np.mean(samples["eve_guess"] == samples["x"]))
    counts = np.bincount(
        key * (n_out * side_size) + k * side_size + side,
        minlength=(int(key.max()) + 1) * n_out * side_size,
    ).reshape(int(key.max()) + 1, n_out * side_size)
    return qber_hat, _plugin_mi(counts), accuracy
