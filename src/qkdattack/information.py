"""POVMs and the information-theoretic objective of the memoryless adversary.

The adversary measures immediately, obtaining outcome k, and later learns the
basis announcement theta.  Her figure of merit is the mutual information
I(X : K,Theta) between the sender's bit X and her pair (K, Theta), with X and
Theta uniform:

    I = H(K | Theta) - H(K | X, Theta)
    H(K | X, Theta) = 1/(2 B) * sum_{k,x,theta} L[p(k | x, theta)]
    H(K | Theta)    = 1/B     * sum_{k,theta}   L[p(k | theta)]

where B is the number of bases, p(k | theta) = 1/2 sum_x p(k | x, theta) and
L(t) = -t log2 t.

When the secret bit rides on the basis choice instead of the bit value
(``protocol.key_on_basis``), the roles of X and Theta swap: the figure of
merit becomes I(Theta : K, X) = H(K | X) - H(K | X, Theta) with
p(k | x) = 1/B sum_theta p(k | x, theta).  Both variants share the joint term
H(K | X, Theta); only the marginalized axis differs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import TOL
from .states import PurifiedState, eve_conditional_state


@dataclass(frozen=True)
class Povm:
    """Measurement with elements stacked as an (n_outcomes, dim, dim) array."""

    elements: np.ndarray

    def __post_init__(self) -> None:
        m = self.elements
        if m.ndim != 3 or m.shape[1] != m.shape[2]:
            raise ValueError(f"POVM elements must be stacked square matrices, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().transpose(0, 2, 1))) > TOL.hermiticity:
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
        if np.min(p) < -1e-12 or np.max(p) > 1 + 1e-12:
            raise ValueError("probabilities outside [0, 1]")
        col = p.sum(axis=0)
        if np.max(np.abs(col - 1.0)) > 1e-10:
            raise ValueError(f"outcome probabilities sum to {col} per (x, theta), expected 1")

    @property
    def basis_count(self) -> int:
        return self.probs.shape[2]


def lambda_fn(t):
    """L(t) = -t log2(t) elementwise, with L(0) = 0."""
    t = np.asarray(t, dtype=float)
    if np.min(t) < 0:
        raise ValueError(f"lambda_fn: negative argument {np.min(t)}")
    out = np.zeros_like(t)
    mask = t > TOL.probability_floor
    out[mask] = -t[mask] * np.log2(t[mask])
    return out if out.ndim else float(out)


def binary_entropy(p: float) -> float:
    """h(p) = L(p) + L(1 - p)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary_entropy: p={p} outside [0, 1]")
    return float(lambda_fn(p) + lambda_fn(1.0 - p))


def conditional_probs(
    povm: Povm, ps: PurifiedState, basis_count: int | None = None
) -> ConditionalDistribution:
    """Outcome distribution of ``povm`` on the adversary's conditional states.

    ``basis_count`` defaults to the protocol's attack basis count, matching
    the estimator the attack optimizer maximizes; pass
    ``ps.protocol.basis_count`` to tabulate every announced basis instead.
    """
    b = ps.protocol.attack_basis_count if basis_count is None else basis_count
    if not 1 <= b <= ps.protocol.basis_count:
        raise ValueError(f"basis_count={b} outside [1, {ps.protocol.basis_count}]")
    p = np.empty((povm.n_outcomes, 2, b))
    for x in (0, 1):
        for theta in range(b):
            rho, _ = eve_conditional_state(ps, x, theta)
            p[:, x, theta] = np.real(np.einsum("kij,ji->k", povm.elements, rho))
    return ConditionalDistribution(np.clip(p, 0.0, 1.0))


def conditional_entropy_k_given_x_theta(cd: ConditionalDistribution) -> float:
    """H(K | X, Theta) with X and Theta uniform."""
    return float(np.sum(lambda_fn(cd.probs))) / (2 * cd.basis_count)


def conditional_entropy_k_given_theta(cd: ConditionalDistribution) -> float:
    """H(K | Theta) with Theta uniform; K marginalized over the uniform bit."""
    p_k_theta = cd.probs.mean(axis=1)
    return float(np.sum(lambda_fn(p_k_theta))) / cd.basis_count


def conditional_entropy_k_given_x(cd: ConditionalDistribution) -> float:
    """H(K | X) with X uniform; K marginalized over the uniform basis."""
    p_k_x = cd.probs.mean(axis=2)
    return float(np.sum(lambda_fn(p_k_x))) / 2


def mutual_info_ae(cd: ConditionalDistribution, key_on_basis: bool = False) -> float:
    """Adversary's information per sifted bit.

    I(X : K, Theta) by default; I(Theta : K, X) when the key bit is the
    basis choice (``key_on_basis``).
    """
    if key_on_basis:
        marginal = conditional_entropy_k_given_x(cd)
    else:
        marginal = conditional_entropy_k_given_theta(cd)
    return marginal - conditional_entropy_k_given_x_theta(cd)
