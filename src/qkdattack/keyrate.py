"""Secret key rates and security thresholds under one-way postprocessing.

The honest parties share I_AB = 1 - h(q) per sifted bit; the key rate against
the immediate-measurement adversary is r(q) = I_AB - I_AE(q), and the
security threshold is the q where r crosses zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .information import binary_entropy, lambda_fn
from .optimizer import AttackResult, OptimizerConfig, optimize_attack
from .states import Protocol, alpha_range

_BRACKET = (0.05, 0.30)
_MONOTONE_SLACK = 1e-4
# finest supported bracket width in q for the threshold search
MIN_TOLERANCE = 1e-4

_REFERENCES = {
    "bb84": {"collective": 0.11, "individual": 0.146, "memoryless": 0.154},
    "sixstate": {"collective": 0.126, "individual": 0.156, "memoryless": 0.204},
    "sarg04": {"individual": 0.148, "memoryless": 0.175},
}


class NumericalFailure(Exception):
    """The search ran but its result cannot be trusted."""


@dataclass(frozen=True)
class CurvePoint:
    q: float
    i_ab: float
    i_ae: float
    rate: float
    alpha: float
    robust: bool

    @classmethod
    def of(cls, result: AttackResult) -> CurvePoint:
        """The key-rate point of one optimized attack."""
        # I_AB is the rate against an adversary who learns nothing
        i_ab = key_rate(result.q, 0.0)
        return cls(result.q, i_ab, result.i_ae, i_ab - result.i_ae, result.best_alpha, result.robust)


@dataclass(frozen=True)
class ThresholdProbe:
    """One probe of the threshold search: the rate at q, its slope dr/dq, and whether it was re-run."""

    q: float
    rate: float
    slope: float
    rerun: bool


@dataclass(frozen=True)
class ThresholdReport:
    """The bracketed zero of the key rate, with every probe of the search.

    ``closed_form_root`` is the zero of the closed-form rate that placed
    the first two probes, or None.  Where their optimized rates differ in
    sign, threshold_q equals it to rounding: the optimizer certifies the sign
    change across a bracket of width tolerance / 2, and the closed form only
    placed that bracket.
    """

    threshold_q: float
    bracket: tuple[float, float]
    rate_low: float
    rate_high: float
    references: dict[str, float]
    closed_form_root: float | None
    probes: tuple[ThresholdProbe, ...]


def bb84_closed_form_iae(q: float) -> float:
    """Analytic optimum of the four-outcome attack on the two-basis protocol.

    With e(q) = ((1 - 4q) / (1 + sqrt(8q(1-2q))))^2, an algebraically
    equivalent form of ((1 - sqrt(8q(1-2q))) / (1 - 4q))^2 that stays finite
    at q = 1/4,

        I_AE = 1/2 + (L[1 + e] - L[e]) / (2 (1 + e)).
    """
    if not 0.0 <= q <= 0.25:
        raise ValueError(f"closed form only valid on [0, 0.25], got q={q}")
    eps = ((1.0 - 4.0 * q) / (1.0 + np.sqrt(8.0 * q * (1.0 - 2.0 * q)))) ** 2
    return float(0.5 + (lambda_fn(1.0 + eps) - lambda_fn(eps)) / (2.0 * (1.0 + eps)))


def key_rate(q: float, i_ae: float) -> float:
    """r = 1 - h(q) - I_AE."""
    return 1.0 - binary_entropy(q) - i_ae


def tabulate_curve(
    protocol: Protocol, q_grid: np.ndarray | list[float], config: OptimizerConfig
) -> list[CurvePoint]:
    """Attack optimization swept over a grid of error rates."""
    grid = [float(q) for q in q_grid]
    if not grid:
        raise ValueError("grid must hold at least one error rate")
    for q in grid:
        alpha_range(protocol, q)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    return [CurvePoint.of(optimize_attack(protocol, q, config)) for q in grid]


def reference_thresholds(protocol: Protocol) -> dict[str, float]:
    """Published threshold QBERs for context alongside computed ones."""
    return dict(_REFERENCES[protocol.name])


def closed_form_root(protocol: Protocol) -> float | None:
    """The q in [0.05, 0.30] where 1 - h(q) = bb84_closed_form_iae(s q), s the protocol's closed_form_q_scale.

    Bisection to the last bit over the part of the bracket where s q <= 1/4.
    None where the protocol has no closed form or that rate keeps its sign
    there.
    """
    scale = protocol.closed_form_q_scale
    if scale is None:
        return None

    def rate(q: float) -> float:
        return key_rate(q, bb84_closed_form_iae(min(scale * q, 0.25)))

    lo, hi = _BRACKET[0], min(_BRACKET[1], 0.25 / scale)
    if not (lo < hi and rate(lo) > 0.0 > rate(hi)):
        return None
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if rate(mid) > 0.0 else (lo, mid)
    return mid


def _rate_slope(result: AttackResult) -> float:
    """dr/dq = -h'(q) - dI_AE/dq at an optimized attack, with dI_AE/dq the report's info_slope."""
    return -math.log2((1.0 - result.q) / result.q) - result.info_slope


def _interpolated_probe(low: ThresholdProbe, high: ThresholdProbe, tolerance: float) -> float | None:
    """tolerance / 4 past the root of the cubic Hermite interpolant of both ends' rates and slopes.

    The push, toward the end farther from the root, lets a good prediction
    close the bracket with the next sign.  None (probe the midpoint) where a
    slope is not finite and negative, or no single root lies inside.
    """
    h = high.q - low.q
    r0, r1, m0, m1 = low.rate, high.rate, low.slope * h, high.slope * h
    if not (-math.inf < m0 < 0.0 and -math.inf < m1 < 0.0):
        return None
    # the interpolant in t = (q - low.q) / h, highest power first
    roots = np.roots([2.0 * (r0 - r1) + m0 + m1, 3.0 * (r1 - r0) - 2.0 * m0 - m1, m0, r0])
    t = roots.real[(np.abs(roots.imag) < 1e-12) & (roots.real > 0.0) & (roots.real < 1.0)]
    if t.size != 1:
        return None
    q = low.q + float(t[0]) * h + (tolerance / 4 if t[0] < 0.5 else -tolerance / 4)
    return q if low.q < q < high.q else None


def find_threshold(
    protocol: Protocol, tolerance: float, config: OptimizerConfig
) -> ThresholdReport:
    """The zero of r(q), bracketed to the tolerance inside [0.05, 0.30].

    r(q) is monotone decreasing, so each probe's sign replaces one end of
    the bracket [a, b], where an end of [0.05, 0.30] stands in for a side
    with no probe yet.  The next probe sits, in this order: tolerance / 4
    below, then above, closed_form_root, each while it lies inside (a, b), so
    that two probes end a search whose closed form holds; at the unprobed
    end once [a, b] is within the tolerance (an end of the probed side's sign
    raises NumericalFailure); at the midpoint where fewer than half the
    probes after that pair halved the bracket (a midpoint probe counts as
    halving); at _interpolated_probe once both sides are probed, or the
    midpoint where that gives None; else tolerance / 4 past the root of the
    probed side's tangent, toward the unprobed end but never past the
    midpoint, which the first probe and a slope not finite and negative take
    instead.  So at least every other probe after the pair halves [a, b],
    and no search takes more than two probes plus twice bisection's.  The
    closed form only places probes: every reported rate is an optimized
    one, and sarg04, with no closed form, starts at the midpoint.  An
    under-converged probe only inflates the rate, so a probe that exceeds an
    earlier, smaller-q rate by more than 1e-4 is re-run once with four times
    the restarts.  The tolerance lies in [1e-4, 0.25): a bracket-wide one
    would end with half the bracket.
    """
    lo, hi = _BRACKET
    if not MIN_TOLERANCE <= tolerance < hi - lo:  # also rejects NaN
        raise ValueError(f"tolerance {tolerance} outside [1e-4, {hi - lo:g}), the resolution up to the bracket width")

    probes: list[ThresholdProbe] = []

    def probe(q: float) -> ThresholdProbe:
        result = optimize_attack(protocol, q, config)
        rerun = any(key_rate(q, result.i_ae) > p.rate + _MONOTONE_SLACK for p in probes if p.q < q)
        if rerun:
            result = optimize_attack(protocol, q, replace(config, restarts=4 * config.restarts))
        probes.append(ThresholdProbe(q, key_rate(q, result.i_ae), _rate_slope(result), rerun))
        return probes[-1]

    # the pair around the closed-form root, lower first: two probes of opposite sign there end the search
    root = closed_form_root(protocol)
    pair = [] if root is None else [root - tolerance / 4, root + tolerance / 4]
    # the probes nearest the root on each side; the end of a side not yet probed stands in for it in [a, b]
    low = high = None
    a, b, halvings, seeded = lo, hi, 0, 0
    while low is None or high is None or b - a > tolerance:
        width, mid = b - a, 0.5 * (a + b)
        if seeded < len(pair) and a < pair[seeded] < b:
            q, seeded = pair[seeded], seeded + 1
        elif width <= tolerance:
            q = lo if low is None else hi
        elif 2 * halvings < len(probes) - seeded:
            q = mid
        elif low is not None and high is not None:
            q = _interpolated_probe(low, high, tolerance)
            q = mid if q is None else q
        else:
            near, q = high if low is None else low, mid
            if near is not None and -math.inf < near.slope < 0.0:
                step = near.q - near.rate / near.slope + math.copysign(tolerance / 4, mid - near.q)
                q = min(step, mid) if mid > near.q else max(step, mid)
        nxt = probe(q)
        if nxt.rate > 0.0:
            low, a = nxt, q
        else:
            high, b = nxt, q
        if q in (lo, hi) and (low is None or high is None):
            raise NumericalFailure(f"no sign change on [{lo}, {hi}]: r({probes[0].q:.4g})={probes[0].rate:.4g}, r({q})={nxt.rate:.4g}")
        # the pair's probes, always the first, are left out of the halving rule
        halvings += len(probes) > seeded and (q == mid or b - a <= 0.5 * width)
    bracket = (low.q, high.q)
    return ThresholdReport(
        0.5 * sum(bracket), bracket, low.rate, high.rate, reference_thresholds(protocol), root, tuple(probes)
    )
