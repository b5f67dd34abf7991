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

A round is one 4-byte word with one-byte fields x, theta, y and k, so masks,
slices and copies of the rounds move whole words.  A round's cell is found
from its uniform through a guide table over the cumulative table (Chen and
Asau, 1974; Devroye 1986, sec. III.2.4): each of 4096 equal buckets that
lies inside one cell stores that cell's word, and only the uniforms landing
in a bucket that holds a cell edge are binary-searched, so every round gets
exactly the cell a binary search would.  Counting bins each word once, by
shifts and masks, into its (x, theta, y, k) cell and reads every statistic
off that count table.  That includes the adversary's guess: she guesses
after sifting, so for each outcome and revealed side value it is the key
value seen most often there.  Outcome labels carry no meaning, and nothing
here reads the bits of k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .information import Povm, key_side_table, plugin_mutual_info
from .states import Protocol, PurifiedState, bob_bit_projector, bob_eve_conditional_state

# One 4-byte word per round, read field by field as rounds["k"]; numpy copies
# it whole, where it copies a plain structured dtype field by field (a mask
# copy of 1e7 rounds took 21-64 ms against 121-166).  sample_rounds rejects a
# table with more adversary outcomes than k's largest value, 127, since
# numpy's field assignment would wrap a label past it silently; an optimal
# measurement on the 4-dim register needs at most d^2 = 16 outcomes (Davies,
# IEEE Trans. Inf. Theory 24, 596, 1978).
ROUND_DTYPE = np.dtype((np.uint32, [("x", "i1"), ("theta", "i1"), ("y", "i1"), ("k", "i1")]))
MAX_OUTCOMES = int(np.iinfo(ROUND_DTYPE["k"]).max)
MIN_ROUNDS = 1000
# rounds drawn or counted per pass; bounds the temporaries of sampling and counting
_CHUNK = 1 << 16
# guide-table buckets; a power of two, so u * _BUCKETS is exact and floors to u's bucket
_BUCKETS = 1 << 12
# a round's word read little-endian on every host: x is its low byte, k its high one
_WORD = np.dtype("<u4")
# the bits of a word whose x or y lies outside {0, 1} or whose theta is 4 or more
_BAD_BITS = 0x00FEFCFE
# the count table a chunk's words are binned into, [k, y, theta, x]
_TABLE = (256, 2, 4, 2)


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
        return float(_errors(self.probs))


def _errors(table: np.ndarray):
    """Weight of the y != x cells of a table[x, theta, y, k]."""
    return table[0, :, 1].sum() + table[1, :, 0].sum()


def joint_distribution(ps: PurifiedState, povm: Povm) -> JointDistribution:
    """Exact sifted-round table induced by a purification and a measurement.

    The receiver measures in the announced basis; the adversary applies
    ``povm`` to her register.  Marginalizing over y reproduces the Eve-only
    trace path of information.conditional_probs.
    """
    if povm.dim != 4:
        raise ValueError(f"adversary POVM must act on the 4-dim register, got dim {povm.dim}")
    protocol, b = ps.protocol, ps.protocol.basis_count
    bits, theta = [[0], [1]], np.arange(b)
    rho_be = bob_eve_conditional_state(ps, bits, theta).reshape(2, b, 2, 4, 2, 4)
    bob = bob_bit_projector(protocol, bits, theta)
    p = np.real(np.einsum("ytij,kmn,xtjnim->xtyk", bob, povm.elements, rho_be))
    p = np.clip(p, 0.0, None) / (2 * b)
    return JointDistribution(p, protocol)


class _GuideTable:
    """u -> words[np.searchsorted(cdf, u, side="right")] for u in [0, 1), by guide table.

    ``cdf`` is nondecreasing and ends at exactly 1.0, and ``words`` holds one
    record word per cell.  guide[j] is the cell of bucket j's lowest u,
    j/_BUCKETS, and top[j] that of its highest; every u in the bucket lies in
    a cell between the two.  A bucket where they agree lies inside one cell
    and stores that cell's word, so one take gives every round its word; a
    bucket that holds a cell edge is flagged, and only the uniforms landing
    in one, at most cells/_BUCKETS of them on average, are binary-searched.
    A draw of up to _CHUNK uniforms works in buffers that the next draw
    overwrites: fresh chunk-sized arrays, which the allocator hands back to
    the system between draws, made drawing take about 1.7 times as long.
    """

    def __init__(self, cdf: np.ndarray, words: np.ndarray) -> None:
        edges = np.arange(_BUCKETS + 1) / _BUCKETS
        self.cdf, self.words = cdf, words
        guide = np.searchsorted(cdf, edges[:-1], side="right")
        top = np.searchsorted(cdf, np.nextafter(edges[1:], 0.0), side="right")
        self.bucket_words = words[guide]
        self.edge = guide != top
        self._bucket = np.empty(_CHUNK, dtype=np.intp)
        self._out = np.empty(_CHUNK, dtype=words.dtype)

    def draw(self, u: np.ndarray) -> np.ndarray:
        """The words of u's cells, in a buffer the next draw overwrites."""
        bucket = np.multiply(u, _BUCKETS, out=self._bucket[: len(u)], casting="unsafe")
        # every bucket index is in range, so take skips its bounds check
        out = np.take(self.bucket_words, bucket, out=self._out[: len(u)], mode="clip")
        edged = np.flatnonzero(self.edge[bucket])
        out[edged] = self.words[np.searchsorted(self.cdf, u[edged], side="right")]
        return out


def _drawn_words(jd: JointDistribution, n: int, seed: int):
    """The n rounds of sample_rounds(jd, n, seed) as record words, in chunks of at most _CHUNK.

    Raises at the call, before any chunk is drawn.  Every chunk overwrites
    the last, so use each before drawing the next.
    """
    if n < 1:
        raise ValueError(f"need at least one round, got n={n}")
    if jd.probs.shape[3] > MAX_OUTCOMES:
        raise ValueError(f"k labels at most {MAX_OUTCOMES} adversary outcomes, got {jd.probs.shape[3]}")
    cdf = np.cumsum(jd.probs.ravel())
    cdf /= cdf[-1]
    cells = np.empty(cdf.size, dtype=ROUND_DTYPE)
    cells["x"], cells["theta"], cells["y"], cells["k"] = np.unravel_index(np.arange(cdf.size), jd.probs.shape)
    table = _GuideTable(cdf, cells.view(np.uint32))
    rng = np.random.default_rng(seed)
    u = np.empty(_CHUNK)
    # u[: n - start] holds the next chunk's min(_CHUNK, n - start) uniforms
    return (table.draw(rng.random(out=u[: n - start])) for start in range(0, n, _CHUNK))


def sample_rounds(jd: JointDistribution, n: int, seed: int) -> np.ndarray:
    """n i.i.d. sifted rounds, each the table cell its uniform falls in.

    Returns an array of ROUND_DTYPE: one 4-byte word per round, whose
    one-byte fields x, theta, y and k read as ``rounds["k"]``.  An element
    ``rounds[i]`` is the bare uint32 word, so read one round's field as
    ``rounds["k"][i]``.  Masks, slices and copies move whole words;
    np.concatenate returns bare words unless given dtype=ROUND_DTYPE.
    The adversary's guess is not stored: it depends on which of x and theta
    the protocol keys on, and empirical_stats reads her best guess for each
    outcome and revealed side value off the counts.
    A uniform u selects the cell np.searchsorted(cdf, u, side="right") of
    the cumulative flattened table, found through _GuideTable's buckets.
    The uniforms are drawn in chunks of _CHUNK rounds; numpy's Generator
    yields one double per uniform, so the stream and the rounds are those of
    a single draw of n.  Memory beyond the returned array is O(_CHUNK).  Fewer than
    one round, or a table with more than MAX_OUTCOMES adversary outcomes,
    raises ValueError.
    """
    chunks = _drawn_words(jd, n, seed)
    out = np.empty(n, dtype=ROUND_DTYPE)
    words, start = out.view(np.uint32), 0
    for chunk in chunks:
        words[start : start + len(chunk)] = chunk
        start += len(chunk)
    return out


def empirical_stats(samples: np.ndarray, basis_count: int, key_on_basis: bool) -> tuple[float, float, float]:
    """(qber_hat, i_ae_hat, guess_accuracy) from sampled rounds.

    The key is x and the revealed side value theta, or with ``key_on_basis``
    the key is theta and the side value x.  qber_hat is the fraction of
    rounds with y != x.  Both adversary figures are plug-in estimates from
    the (key, k side) table of counts over every round; to score only the
    attack bases, filter the rounds to theta < attack_basis_count first.
    They carry no bias correction, so choose n accordingly:

    - i_ae_hat estimates I(Key : K, Side); with t table cells its bias is
      below t/(2 n ln 2).
    - guess_accuracy is the fraction of attack rounds her best guess gets
      right: in each of the T (k, side) columns, the key value counted most
      often there.  That is argmax_key p(k | key, side), read off the
      sample, so it needs no outcome labelling.  Choosing the guess on the
      same rounds it is scored on biases it up, by at most sqrt(T/n)/2 for a
      binary key.

    Each chunk of _CHUNK rounds is binned once, word by word, into the
    (x, theta, y, k) count table; the errors and the (key, k side) table
    (information.key_side_table) are exact integer sums over it, so the
    estimates equal those of one pass over all rounds, and memory beyond
    ``samples`` is O(_CHUNK).  Rounds in another layout of one-byte integer
    fields x, theta, y and k, such as reordered fields or unsigned bytes
    (where k may reach 255), are copied into ROUND_DTYPE's chunk by chunk.
    Fewer than MIN_ROUNDS rounds, rounds without those fields, basis_count
    outside [1, 4], a round with x or y outside {0, 1}, theta outside
    [0, basis_count) or a negative k raises ValueError.
    """
    fields = samples.dtype
    if fields.names is None or any(fields[f].kind not in "iu" or fields[f].itemsize != 1 for f in ROUND_DTYPE.names):
        raise ValueError(f"rounds must have ROUND_DTYPE's one-byte integer fields {ROUND_DTYPE}, got {fields}")
    return _estimates(_count(_stored_words(samples), basis_count, fields), key_on_basis, basis_count)[:3]


def _stored_words(samples: np.ndarray):
    """samples' rounds as record words in chunks of at most _CHUNK: views where they lie as in ROUND_DTYPE, else copies."""
    if samples.dtype.itemsize == ROUND_DTYPE.itemsize and all(
        samples.dtype.fields[f][1] == offset for f, (_, offset) in ROUND_DTYPE.fields.items()
    ):
        words = samples.view(np.uint32)
        return (words[start : start + _CHUNK] for start in range(0, len(samples), _CHUNK))
    return (_copied_words(samples[start : start + _CHUNK]) for start in range(0, len(samples), _CHUNK))


def _copied_words(chunk: np.ndarray) -> np.ndarray:
    """A chunk of rounds in another one-byte layout, as ROUND_DTYPE's words."""
    out = np.empty(len(chunk), dtype=ROUND_DTYPE)
    for field in ROUND_DTYPE.names:
        out[field] = chunk[field]  # a one-byte cast keeps the byte, so an unsigned k of 200 stays 200 as a word
    return out.view(np.uint32)


def _count(chunks, basis_count: int, fields: np.dtype) -> np.ndarray:
    """Count table[x, theta, y, k] of record-word chunks, k up to the largest outcome counted.

    A word read little-endian holds x in bits 0-7, theta in 8-15, y in 16-23
    and k in 24-31.  When every x and y is 0 or 1 and every theta below 4,
    none of _BAD_BITS is set, and x + 2 theta + 8 y + 16 k indexes the
    [k, y, theta, x] table _TABLE, so one OR over a chunk checks it and a
    few shifts and masks bin it.  Counts at theta >= basis_count, or at
    k >= 128 when ``fields`` holds a signed k, are rounds out of range; a
    failing chunk is scanned field by field for the message.
    """
    if not 1 <= basis_count <= _TABLE[2]:
        raise ValueError(f"basis_count must lie in [1, {_TABLE[2]}], got {basis_count}")
    k_limit = 128 if fields["k"].kind == "i" else 256
    counts = np.zeros(_TABLE, dtype=np.int64)
    # reused, as fresh chunk-sized temporaries made counting take more than twice as long
    cells, spare = np.empty(_CHUNK, dtype=np.uint32), np.empty(_CHUNK, dtype=np.uint32)
    for words in chunks:
        w = words.view(_WORD)
        if np.bitwise_or.reduce(w) & _BAD_BITS:
            _raise_bad_round(w, basis_count, k_limit, fields)
        cell, shifted = cells[: len(w)], spare[: len(w)]
        np.bitwise_or(w, np.right_shift(w, 7, out=cell), out=cell)
        cell |= np.right_shift(w, 13, out=shifted)
        cell &= 0xF
        cell |= np.right_shift(w, 20, out=shifted)
        chunk = np.bincount(cell, minlength=counts.size).reshape(_TABLE)
        if chunk[:, :, basis_count:].any() or chunk[k_limit:].any():
            _raise_bad_round(w, basis_count, k_limit, fields)
        counts += chunk
    n_outcomes = 1 + int(np.max(np.flatnonzero(counts.any(axis=(1, 2, 3))), initial=0))
    return counts[:n_outcomes, :, :basis_count].transpose(3, 2, 1, 0)


def _raise_bad_round(words: np.ndarray, basis_count: int, k_limit: int, fields: np.dtype) -> None:
    """Raise for the first value out of range, in field order x, theta, y, k, read as ``fields`` types it."""
    rules = {
        "x": (2, "must be 0 or 1"),
        "theta": (basis_count, f"must lie below basis_count={basis_count}; filter rounds to the attack bases"),
        "y": (2, "must be 0 or 1"),
        "k": (k_limit, "must be non-negative"),
    }
    rounds = words.view(ROUND_DTYPE)
    for field, (size, rule) in rules.items():
        # read unsigned, so a negative value lies above every size
        bad = rounds[field].view(np.uint8) >= size
        if bad.any():
            raise ValueError(f"{field} {rule}, got {rounds[field].view(fields[field])[bad][0]}")


def _estimates(counts: np.ndarray, key_on_basis: bool, attack_basis_count: int) -> tuple:
    """empirical_stats' three figures and the number of attack rounds, all read off one count table[x, theta, y, k]."""
    n = int(counts.sum())
    attack = counts[:, :attack_basis_count]
    n_attack = int(attack.sum())
    _check_rounds(n_attack, n_attack)
    table = key_side_table(attack.sum(axis=2), key_on_basis)
    hits = int(table.max(axis=0).sum())
    return int(_errors(counts)) / n, plugin_mutual_info(table), hits / n_attack, n_attack


def check_attack_rounds(protocol: Protocol, n: int) -> None:
    """Raise ValueError unless n sifted rounds hold MIN_ROUNDS attack-basis rounds four sigma below their mean.

    Their count is binomial(n, p), p = attack_basis_count / basis_count; sigma is 0 for bb84 and sarg04 (p = 1).
    """
    p = protocol.attack_basis_count / protocol.basis_count
    expected = n * protocol.attack_basis_count // protocol.basis_count
    low = expected - 4 * np.sqrt(max(n, 0) * p * (1 - p))
    _check_rounds(low, expected if low == expected else f"{expected} expected, {low:.0f} four sigma below")


def _check_rounds(low: float, n: object) -> None:
    if low < MIN_ROUNDS:
        raise ValueError(f"need at least {MIN_ROUNDS} attack-basis rounds for stable estimates, got {n}; raise n_rounds")


def sampled_estimates(jd: JointDistribution, n: int, seed: int) -> tuple[float, float, float, int]:
    """(qber_hat, i_ae_hat, guess_accuracy, attack_rounds) from n rounds drawn from ``jd``.

    qber_hat, the sampled ``jd.qber``, counts errors over every sifted round.
    The adversary figures use the attack rounds, whose basis enters the
    attack estimator: all rounds, or for six-state, whose estimator reads
    only the first ``attack_basis_count`` bases, the rounds with
    theta < attack_basis_count.  All four come from one count table, the
    one empirical_stats reads.
    """
    protocol = jd.protocol
    counts = _count(_drawn_words(jd, n, seed), jd.basis_count, ROUND_DTYPE)
    return _estimates(counts, protocol.key_on_basis, protocol.attack_basis_count)
