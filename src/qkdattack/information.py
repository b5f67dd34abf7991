"""POVMs and the information-theoretic objective of the memoryless adversary.

The adversary measures immediately, obtaining outcome k, and later learns the
value revealed at sifting.  Her figure of merit is the mutual information
I(Key : K, Side) between the key and her pair (K, Side), with key and side
uniform and independent.  By default the key is the sender's bit X and the
side value the announced basis Theta.  When the secret bit rides on the basis
choice instead of the bit value (``protocol.key_on_basis``), the roles swap:
the key is Theta and the side value X.

Both the exact reference (``mutual_info_ae``) and the sampled estimate
(``simulator.empirical_stats``) lay a table over (x, theta, k) out as the
2-d table of (key, k side) with ``key_side_table`` and read its plug-in
mutual information with ``plugin_mutual_info``:

    I = sum_{key, c} p(key, c) log2[p(key, c) / (p(key) p(c))]

over the columns c = (k, side).  A table of p(k | x, theta) weighs every
(x, theta) equally, which makes X and Theta uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import TOL, is_hermitian
from .states import PurifiedState, eve_conditional_state


@dataclass(frozen=True)
class Povm:
    """Measurement with elements stacked as an (n_outcomes, dim, dim) array."""

    elements: np.ndarray

    def __post_init__(self) -> None:
        m = self.elements
        if m.ndim != 3 or m.shape[1] != m.shape[2]:
            raise ValueError(f"POVM elements must be stacked square matrices, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("POVM elements must be finite")
        if not is_hermitian(m):
            raise ValueError("POVM elements must be Hermitian")
        total = m.sum(axis=0)
        if np.max(np.abs(total - np.eye(self.dim))) > TOL.completeness:
            raise ValueError("POVM elements must sum to the identity")
        min_eig = float(np.min(np.linalg.eigvalsh(m)))
        if min_eig < -TOL.psd:
            raise ValueError(f"POVM element has negative eigenvalue {min_eig:.3e}")

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    @property
    def n_outcomes(self) -> int:
        return self.elements.shape[0]


@dataclass(frozen=True)
class ConditionalDistribution:
    """Outcome probabilities p(k | x, theta), stored as probs[k, x, theta]."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = self.probs
        if p.ndim != 3 or p.shape[1] != 2:
            raise ValueError(f"probs must have shape (n_outcomes, 2, basis_count), got {p.shape}")
        if not np.isfinite(p).all():
            raise ValueError("probabilities must be finite")
        if np.min(p) < -1e-12 or np.max(p) > 1 + 1e-12:
            raise ValueError("probabilities outside [0, 1]")
        col = p.sum(axis=0)
        if np.max(np.abs(col - 1.0)) > 1e-10:
            raise ValueError(f"outcome probabilities sum to {col} per (x, theta), expected 1")


def lambda_fn(t):
    """L(t) = -t log2(t) elementwise, with L(0) = 0."""
    t = np.asarray(t, dtype=float)
    if np.min(t) < 0:
        raise ValueError(f"lambda_fn: negative argument {np.min(t)}")
    out = np.zeros_like(t)
    mask = t > TOL.probability_floor
    out[mask] = -t[mask] * np.log2(t[mask])
    return out if out.ndim else float(out)


def holevo_chi(rho: np.ndarray) -> np.ndarray:
    """Side-averaged Holevo quantity, in bits, of each stack rho[..., key, side, d, d].

    chi = mean over side of S(mean over key of rho) - mean over key of S(rho)
    caps I(Key : K, Side) for key and side uniform and independent, whatever
    the adversary measures.
    """

    def entropy(x: np.ndarray) -> np.ndarray:
        return lambda_fn(np.clip(np.linalg.eigvalsh(x), 0.0, None)).sum(axis=-1)

    return (entropy(rho.mean(axis=-4)) - entropy(rho).mean(axis=-2)).mean(axis=-1)


def binary_entropy(p: float) -> float:
    """h(p) = L(p) + L(1 - p)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary_entropy: p={p} outside [0, 1]")
    return float(lambda_fn(p) + lambda_fn(1.0 - p))


def conditional_probs(povm: Povm, ps: PurifiedState) -> ConditionalDistribution:
    """Outcome distribution of ``povm`` on the adversary's conditional states.

    theta runs over the protocol's attack bases, as in the estimator the attack optimizer maximizes.
    """
    rho, _ = eve_conditional_state(ps, [[0], [1]], np.arange(ps.protocol.attack_basis_count))
    p = np.real(np.einsum("kij,xtji->kxt", povm.elements, rho))
    return ConditionalDistribution(np.clip(p, 0.0, 1.0))


def key_side_table(table: np.ndarray, key_on_basis: bool) -> np.ndarray:
    """table[x, theta, k] laid out as the 2-d table[key, k * n_side + side].

    The key is x and the side value theta, or with ``key_on_basis`` the key
    is theta and the side value x.
    """
    by_side = table.transpose((1, 2, 0) if key_on_basis else (0, 2, 1))
    return by_side.reshape(len(by_side), -1)


def plugin_mutual_info(table: np.ndarray) -> float:
    """Plug-in mutual information in bits of a 2-d table of counts or probabilities.

    The total is correctly rounded (math.fsum), and for integer counts the
    marginals are exact sums, so permuting the rows or columns of a count
    table, relabeling the adversary's outcomes say, leaves every bit of the
    estimate unchanged.
    """
    n = table.sum()
    p = table / n
    pa = table.sum(axis=1, keepdims=True) / n
    pb = table.sum(axis=0, keepdims=True) / n
    mask = p > 0
    return math.fsum(p[mask] * np.log2(p[mask] / (pa * pb)[mask]))


def mutual_info_ae(cd: ConditionalDistribution, key_on_basis: bool) -> float:
    """Adversary's information per sifted bit, I(Key : K, Side).

    I(X : K, Theta) for a bit-keyed protocol; I(Theta : K, X) when the key
    bit is the basis choice (``key_on_basis``).  Entries of p(k | x, theta) at or below
    TOL.probability_floor are rounding noise of the trace and count as zero,
    as in lambda_fn.
    """
    p = np.where(cd.probs > TOL.probability_floor, cd.probs, 0.0)
    return plugin_mutual_info(key_side_table(p.transpose(1, 2, 0), key_on_basis))
