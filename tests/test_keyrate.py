import numpy as np
import pytest

from qkdattack.information import binary_entropy
from qkdattack.keyrate import (
    bb84_closed_form_iae,
    find_threshold,
    key_rate,
    reference_thresholds,
    tabulate_curve,
)
from qkdattack.optimizer import OptimizerConfig
from qkdattack.states import BB84, SARG04, SIX_STATE


def test_closed_form_anchors():
    assert bb84_closed_form_iae(0.0) == pytest.approx(0.0, abs=1e-12)
    assert bb84_closed_form_iae(0.25) == pytest.approx(0.5, abs=1e-12)
    # frozen regression values from the first evaluation
    assert bb84_closed_form_iae(0.05) == pytest.approx(0.139035952556, abs=1e-10)
    assert bb84_closed_form_iae(0.10) == pytest.approx(0.265502203205, abs=1e-10)
    assert bb84_closed_form_iae(0.15) == pytest.approx(0.374887544194, abs=1e-10)
    assert bb84_closed_form_iae(0.20) == pytest.approx(0.459265542493, abs=1e-10)


def test_closed_form_domain():
    with pytest.raises(ValueError):
        bb84_closed_form_iae(0.26)
    with pytest.raises(ValueError):
        bb84_closed_form_iae(-0.01)


def test_closed_form_stable_equals_naive():
    # the implementation rationalizes the printed form to stay finite at
    # q = 1/4; both must agree wherever the naive form is defined
    for q in np.linspace(0.001, 0.2499, 40):
        naive = ((1 - np.sqrt(8 * q * (1 - 2 * q))) / (1 - 4 * q)) ** 2
        iae_naive = 0.5 + (
            -(1 + naive) * np.log2(1 + naive) + naive * np.log2(naive)
        ) / (2 * (1 + naive))
        assert bb84_closed_form_iae(float(q)) == pytest.approx(iae_naive, abs=1e-12)


def test_closed_form_monotone():
    grid = np.linspace(0.0, 0.25, 60)
    vals = [bb84_closed_form_iae(float(q)) for q in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_key_rate_basics():
    assert key_rate(0.0, 0.0) == pytest.approx(1.0)
    assert key_rate(0.5, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert key_rate(0.5, 0.3) < 0
    # frozen: the closed-form rate at the published threshold is slightly
    # below zero; the true crossing sits near 0.1536
    assert key_rate(0.154, bb84_closed_form_iae(0.154)) == pytest.approx(
        -0.002461310591, abs=1e-9
    )


def test_reference_threshold_constants():
    assert reference_thresholds(BB84) == {
        "collective": 0.11,
        "individual": 0.146,
        "memoryless": 0.154,
    }
    assert reference_thresholds(SIX_STATE) == {
        "collective": 0.126,
        "individual": 0.156,
        "memoryless": 0.204,
    }
    assert reference_thresholds(SARG04) == {"individual": 0.148, "memoryless": 0.175}


def test_tabulate_curve_validation(light_config):
    with pytest.raises(ValueError, match="strictly increasing"):
        tabulate_curve(BB84, [0.1, 0.1], light_config)
    with pytest.raises(ValueError, match="0, 0.5"):
        tabulate_curve(BB84, [0.1, 0.6], light_config)


def test_tabulate_curve_bb84(light_config):
    points = tabulate_curve(BB84, [0.0, 0.08, 0.16, 0.24], light_config)
    assert [pt.q for pt in points] == [0.0, 0.08, 0.16, 0.24]
    for pt in points:
        assert pt.i_ab == pytest.approx(1 - binary_entropy(pt.q), abs=1e-12)
        assert pt.rate == pytest.approx(pt.i_ab - pt.i_ae, abs=1e-12)
        assert pt.i_ae == pytest.approx(bb84_closed_form_iae(pt.q), abs=1e-4)
    rates = [pt.rate for pt in points]
    assert all(b < a for a, b in zip(rates, rates[1:]))
    assert points[0].rate == pytest.approx(1.0, abs=1e-8)


def test_find_threshold_tolerance_floor(light_config):
    for tolerance in (1e-5, float("nan")):
        with pytest.raises(ValueError, match="1e-4"):
            find_threshold(BB84, tolerance, light_config)


def test_find_threshold_sixstate(light_config):
    report = find_threshold(SIX_STATE, 1e-3, light_config)
    assert abs(report.threshold_q - 0.204) <= 0.003
    lo, hi = report.bracket
    assert lo < report.threshold_q < hi
    assert hi - lo <= 1e-3
    assert report.rate_low > 0 > report.rate_high
    assert report.references["memoryless"] == 0.204


def test_find_threshold_stable_under_restart_doubling():
    cfg = OptimizerConfig(restarts=6, alpha_grid_points=9, alpha_refine_iters=2)
    a = find_threshold(SIX_STATE, 1e-3, cfg)
    b = find_threshold(SIX_STATE, 1e-3, OptimizerConfig(restarts=12, alpha_grid_points=9, alpha_refine_iters=2))
    assert abs(a.threshold_q - b.threshold_q) <= 1e-3
