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

A round's cell is found from its uniform through a guide table over the
cumulative table (Chen and Asau, 1974; Devroye 1986, sec. III.2.4): one
lookup and a few compare-and-step passes, giving exactly the cell a binary
search would.  Counting bins each round once by its (x, theta, y, k) cell
and reads every statistic off that count table.  That includes the
adversary's guess: she guesses after sifting, so for each outcome and
revealed side value it is the key value seen most often there.  Outcome
labels carry no meaning, and nothing here reads the bits of k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .information import Povm
from .states import Protocol, PurifiedState, bob_bit_projector, bob_eve_conditional_state

ROUND_DTYPE = np.dtype([("x", "i1"), ("theta", "i1"), ("y", "i1"), ("k", "i2")])
MIN_ROUNDS = 1000
# rounds drawn or counted per pass; bounds the temporaries of sampling and counting
_CHUNK = 1 << 16
# guide-table buckets; a power of two, so u * _BUCKETS is exact and floors to u's bucket
_BUCKETS = 1 << 12


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
        if not np.isfinite(p).all():
            raise ValueError("joint probabilities must be finite")
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
    def sifted_fraction(self) -> float:
        """Fraction of raw rounds that survive basis reconciliation."""
        return 1.0 / self.basis_count

    @property
    def qber(self) -> float:
        """Exact p(y != x) over sifted rounds: 1.25q for sarg04, whose bases err unequally."""
        p = self.probs
        return float(p[0, :, 1].sum() + p[1, :, 0].sum())


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


class _GuideTable:
    """u -> np.searchsorted(cdf, u, side="right") for u in [0, 1), by guide table.

    ``cdf`` is nondecreasing and ends at exactly 1.0.  guide[j], the cell of
    the bucket's left edge j/_BUCKETS, is a lower bound on the cell of any u
    in bucket j; each pass steps every index whose CDF entry is still <= u,
    and ``passes`` is the largest cell span of a bucket, read off the table,
    so the index always reaches the exact cell.  It never passes the last
    cell, whose entry 1.0 exceeds every u.
    """

    def __init__(self, cdf: np.ndarray) -> None:
        edges = np.arange(_BUCKETS + 1) / _BUCKETS
        self.cdf = cdf
        self.guide = np.searchsorted(cdf, edges[:-1], side="right")
        top = np.searchsorted(cdf, np.nextafter(edges[1:], 0.0), side="right")
        self.passes = int(np.max(top - self.guide))

    def cells(self, u: np.ndarray) -> np.ndarray:
        idx = self.guide[(u * _BUCKETS).astype(np.intp)]
        for _ in range(self.passes):
            idx += self.cdf[idx] <= u
        return idx


def sample_rounds(jd: JointDistribution, n: int, seed: int) -> np.ndarray:
    """n i.i.d. sifted rounds, each the table cell its uniform falls in.

    Returns a structured array with fields x, theta, y, k.  The adversary's
    guess is not stored: it depends on which of x and theta the protocol
    keys on, and empirical_stats reads her best guess for each outcome and
    revealed side value off the counts.
    A uniform u selects the cell np.searchsorted(cdf, u, side="right") of
    the cumulative flattened table, found through _GuideTable.  The uniforms
    are drawn in chunks of _CHUNK rounds; the generator yields one double per
    draw, so the stream and the rounds are those of a single draw of n.
    Memory beyond the returned array is O(_CHUNK).
    """
    if n < 1:
        raise ValueError(f"need at least one round, got n={n}")
    cdf = np.cumsum(jd.probs.ravel())
    cdf /= cdf[-1]
    table = _GuideTable(cdf)
    cells = np.empty(cdf.size, dtype=ROUND_DTYPE)
    cells["x"], cells["theta"], cells["y"], cells["k"] = np.unravel_index(np.arange(cdf.size), jd.probs.shape)
    rng = np.random.default_rng(seed)
    out = np.empty(n, dtype=ROUND_DTYPE)
    # whole records move as raw bytes; numpy's structured copy goes field by field, about 9x slower
    raw = f"V{ROUND_DTYPE.itemsize}"
    cells_raw, out_raw = cells.view(raw), out.view(raw)
    for start in range(0, n, _CHUNK):
        u = rng.random(min(_CHUNK, n - start))
        np.take(cells_raw, table.cells(u), out=out_raw[start : start + len(u)])
    return out


def _plugin_mi(counts: np.ndarray) -> float:
    """Plug-in mutual information in bits from a 2-d table of integer counts.

    The marginals are exact integer sums and the total is correctly rounded
    (math.fsum), so permuting rows or columns, relabeling the adversary's
    outcomes say, leaves every bit of the estimate unchanged.
    """
    n = counts.sum()
    p = counts / n
    pa = counts.sum(axis=1, keepdims=True) / n
    pb = counts.sum(axis=0, keepdims=True) / n
    mask = p > 0
    return math.fsum(p[mask] * np.log2(p[mask] / (pa * pb)[mask]))


def empirical_stats(
    samples: np.ndarray, basis_count: int, key_on_basis: bool = False
) -> tuple[float, float, float]:
    """(qber_hat, i_ae_hat, guess_accuracy) from sampled rounds.

    The key is x and the revealed side value theta, or with ``key_on_basis``
    the key is theta and the side value x.  qber_hat is the fraction of
    rounds with y != x.  Both adversary figures are plug-in estimates from
    the (key, k side) table of counts, without bias correction, so choose n
    accordingly:

    - i_ae_hat estimates I(Key : K, Side); with t table cells its bias is
      below t/(2 n ln 2).
    - guess_accuracy is the fraction of rounds her best guess gets right:
      in each of the T (k, side) columns, the key value counted most often
      there.  That is argmax_key p(k | key, side), read off the sample, so
      it needs no outcome labelling.  Choosing the guess on the same rounds
      it is scored on biases it up, by at most sqrt(T/n)/2 for a binary key.

    Each chunk of _CHUNK rounds is binned once by its (x, theta, y, k) cell;
    errors and the (key, k side) table are exact integer sums over that
    count table, so the estimates equal those of one pass over all rounds,
    and memory beyond ``samples`` is O(_CHUNK).  A round with x or y outside
    {0, 1}, theta outside [0, basis_count) or a negative k raises ValueError.
    """
    n = len(samples)
    if n < MIN_ROUNDS:
        raise ValueError(f"need at least {MIN_ROUNDS} rounds for stable estimates, got {n}; raise n_rounds")
    shape = (2, basis_count, 2, max(int(samples["k"].max()), 0) + 1)
    rules = {
        "x": "must be 0 or 1",
        "theta": f"must lie below basis_count={basis_count}; filter rounds to the attack bases",
        "y": "must be 0 or 1",
        "k": "must be non-negative",
    }
    counts = np.zeros(np.prod(shape), dtype=np.int64)
    for start in range(0, n, _CHUNK):
        chunk = samples[start : start + _CHUNK]
        cell = np.zeros(len(chunk), dtype=np.intp)
        for field, size in zip(ROUND_DTYPE.names, shape):
            # read unsigned, so a negative value lies above every size
            value = chunk[field].view(f"u{ROUND_DTYPE[field].itemsize}").astype(np.intp)
            if value.max() >= size:
                raise ValueError(f"{field} {rules[field]}, got {chunk[field][value >= size][0]}")
            cell *= size
            cell += value
        counts += np.bincount(cell, minlength=counts.size)
    counts = counts.reshape(shape)
    errors = int(counts[0, :, 1].sum() + counts[1, :, 0].sum())
    # (key, k, side) table, cut after the last key value that occurs
    by_side = counts.sum(axis=2).transpose((1, 2, 0) if key_on_basis else (0, 2, 1))
    table = by_side.reshape(len(by_side), -1)
    table = table[: np.flatnonzero(table.sum(axis=1))[-1] + 1]
    hits = int(table.max(axis=0).sum())
    return errors / n, _plugin_mi(table), hits / n


def sampled_estimates(jd: JointDistribution, n: int, seed: int) -> tuple[float, float, float, int]:
    """(qber_hat, i_ae_hat, guess_accuracy, attack_rounds) from n rounds drawn from ``jd``.

    qber_hat, the sampled ``jd.qber``, counts errors over every sifted round.
    The adversary figures use the attack rounds, whose basis enters the
    attack estimator: all rounds, or for six-state, whose estimator reads
    only the first ``attack_basis_count`` bases, a copy of those rounds.
    """
    protocol = jd.protocol
    samples = sample_rounds(jd, n, seed)
    qber_hat, i_ae_hat, accuracy = empirical_stats(samples, jd.basis_count, protocol.key_on_basis)
    if protocol.attack_basis_count < jd.basis_count:
        samples = samples[samples["theta"] < protocol.attack_basis_count]
        _, i_ae_hat, accuracy = empirical_stats(samples, protocol.attack_basis_count, protocol.key_on_basis)
    return qber_hat, i_ae_hat, accuracy, len(samples)
