"""Secret key rates and security thresholds under one-way postprocessing.

The honest parties share I_AB = 1 - h(q) per sifted bit; the key rate against
the immediate-measurement adversary is r(q) = I_AB - I_AE(q), and the
security threshold is the q where r crosses zero.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .information import binary_entropy, lambda_fn
from .optimizer import OptimizerConfig, optimize_attack
from .states import Protocol

_BRACKET = (0.05, 0.30)
_MONOTONE_SLACK = 1e-4
# finest supported bisection tolerance in q
MIN_TOLERANCE = 1e-4

_REFERENCES = {
    "bb84": {"collective": 0.11, "individual": 0.146, "memoryless": 0.154},
    "sixstate": {"collective": 0.126, "individual": 0.156, "memoryless": 0.204},
    "sarg04": {"individual": 0.148, "memoryless": 0.175},
}


@dataclass(frozen=True)
class CurvePoint:
    q: float
    i_ab: float
    i_ae: float
    rate: float
    alpha: float
    robust: bool


@dataclass(frozen=True)
class ThresholdReport:
    protocol: Protocol
    threshold_q: float
    bracket: tuple[float, float]
    rate_low: float
    rate_high: float
    references: dict[str, float]


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
    if any(not 0.0 <= q <= 0.5 for q in grid):
        raise ValueError(f"grid values must lie in [0, 0.5], got {grid}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    points = []
    for q in grid:
        result = optimize_attack(protocol, q, config)
        i_ab = 1.0 - binary_entropy(q)
        points.append(
            CurvePoint(
                q=q,
                i_ab=i_ab,
                i_ae=result.i_ae,
                rate=i_ab - result.i_ae,
                alpha=result.best_alpha,
                robust=result.robust,
            )
        )
    return points


def reference_thresholds(protocol: Protocol) -> dict[str, float]:
    """Published threshold QBERs for context alongside computed ones."""
    return dict(_REFERENCES[protocol.name])


def find_threshold(
    protocol: Protocol, tolerance: float, config: OptimizerConfig
) -> ThresholdReport:
    """Bisection for the zero of r(q) starting from the bracket [0.05, 0.30].

    r(q) is monotone decreasing; an under-converged probe only inflates the
    rate, so a probe that exceeds an earlier, smaller-q rate by more than
    1e-4 is re-run once with four times the restarts.
    """
    if not tolerance >= MIN_TOLERANCE:  # also rejects NaN
        raise ValueError(f"tolerance {tolerance} below the supported resolution 1e-4")

    rates: dict[float, float] = {}

    def probe(q: float) -> float:
        cfg = config
        for _ in range(2):
            rate = key_rate(q, optimize_attack(protocol, q, cfg).i_ae)
            inflated = any(
                rate > r_prev + _MONOTONE_SLACK for q_prev, r_prev in rates.items() if q_prev < q
            )
            if not inflated:
                break
            cfg = replace(cfg, restarts=4 * cfg.restarts)
        rates[q] = rate
        return rate

    lo, hi = _BRACKET
    rate_lo, rate_hi = probe(lo), probe(hi)
    if not (rate_lo > 0.0 > rate_hi):
        raise ValueError(
            f"no sign change on [{lo}, {hi}]: r({lo})={rate_lo:.4g}, r({hi})={rate_hi:.4g}"
        )
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        rate_mid = probe(mid)
        if rate_mid > 0.0:
            lo, rate_lo = mid, rate_mid
        else:
            hi, rate_hi = mid, rate_mid
    return ThresholdReport(
        protocol=protocol,
        threshold_q=0.5 * (lo + hi),
        bracket=(lo, hi),
        rate_low=rate_lo,
        rate_high=rate_hi,
        references=reference_thresholds(protocol),
    )
