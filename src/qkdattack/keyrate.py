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
from .optimizer import AttackResult, OptimizerConfig, info_slope, optimize_attack
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
    threshold_q: float
    bracket: tuple[float, float]
    rate_low: float
    rate_high: float
    references: dict[str, float]
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


def _rate_slope(result: AttackResult) -> float:
    """dr/dq = -h'(q) - dI_AE/dq at an optimized attack, with dI_AE/dq from optimizer.info_slope."""
    return -math.log2((1.0 - result.q) / result.q) - info_slope(result)


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

    r(q) is monotone decreasing.  The first probe sits at the midpoint.
    Until a probe changes sign, the next sits tolerance / 4 past the root of
    the last one's tangent, toward the unexplored end, but never past the
    midpoint of the unexplored side; at that midpoint where the slope is not
    finite and negative or fewer than half the probes so far halved that
    side; and at its end once that side is within the tolerance.  An end of
    the same sign raises NumericalFailure.  Then each probe's sign
    replaces one bracket end; it sits at _interpolated_probe, or at the
    midpoint where that gives None or the previous interpolated probe failed
    to halve the bracket.  So every two probes at least halve the bracket or
    the unexplored side, and no search takes more than twice bisection's
    probes.  An under-converged probe only inflates the rate, so a probe
    that exceeds an earlier, smaller-q rate by more than 1e-4 is re-run once
    with four times the restarts.  The tolerance lies in [1e-4, 0.25): a
    bracket-wide one would end with half the bracket.
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

    near = probe(0.5 * (lo + hi))
    end = hi if near.rate > 0.0 else lo
    halvings = 1
    while True:
        mid = 0.5 * (near.q + end)
        if abs(end - near.q) <= tolerance:
            q = end
        elif 2 * halvings < len(probes) or not -math.inf < near.slope < 0.0:
            q = mid
        else:
            q = near.q - near.rate / near.slope + math.copysign(tolerance / 4, end - near.q)
            q = min(q, mid) if end > near.q else max(q, mid)
        nxt = probe(q)
        if (nxt.rate > 0.0) != (near.rate > 0.0):
            break
        if q == end:
            raise NumericalFailure(f"no sign change on [{lo}, {hi}]: r({probes[0].q:.4g})={probes[0].rate:.4g}, r({end})={nxt.rate:.4g}")
        halvings += q == mid
        near = nxt
    low, high = (near, nxt) if near.rate > 0.0 else (nxt, near)
    halved = True
    while high.q - low.q > tolerance:
        width = high.q - low.q
        q = _interpolated_probe(low, high, tolerance) if halved else None
        nxt = probe(0.5 * (low.q + high.q) if q is None else q)
        low, high = (nxt, high) if nxt.rate > 0.0 else (low, nxt)
        halved = q is None or high.q - low.q <= 0.5 * width
    bracket = (low.q, high.q)
    return ThresholdReport(0.5 * sum(bracket), bracket, low.rate, high.rate, reference_thresholds(protocol), tuple(probes))
