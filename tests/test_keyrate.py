import math
import types

import numpy as np
import pytest

from qkdattack.information import binary_entropy
from qkdattack import keyrate, optimizer
from qkdattack.keyrate import (
    NumericalFailure,
    bb84_closed_form_iae,
    find_threshold,
    key_rate,
    reference_thresholds,
    tabulate_curve,
)
from qkdattack.optimizer import OptimizerConfig, optimize_attack
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


@pytest.mark.parametrize("tolerance", [0.25, float("inf")])
def test_find_threshold_rejects_bracket_wide_tolerance(monkeypatch, tolerance):
    # a tolerance of the bracket width would stop at its midpoint after
    # probing only its ends
    def no_probe(*args):
        raise AssertionError("a probe ran before the tolerance was checked")

    monkeypatch.setattr(keyrate, "optimize_attack", no_probe)
    with pytest.raises(ValueError, match=r"outside \[1e-4, 0.25\)"):
        find_threshold(SIX_STATE, tolerance, OptimizerConfig(restarts=4))


def test_find_threshold_without_sign_change(monkeypatch):
    monkeypatch.setattr(keyrate, "_BRACKET", (0.05, 0.10))
    with pytest.raises(NumericalFailure, match=r"no sign change on \[0.05, 0.1\]"):
        find_threshold(SIX_STATE, 1e-3, OptimizerConfig(restarts=4))


def test_find_threshold_sixstate(light_config):
    report = find_threshold(SIX_STATE, 1e-3, light_config)
    assert abs(report.threshold_q - 0.204) <= 0.003
    lo, hi = report.bracket
    assert lo < report.threshold_q < hi
    assert hi - lo <= 1e-3
    assert report.rate_low > 0 > report.rate_high
    assert report.references["memoryless"] == 0.204


def test_find_threshold_stable_under_restart_doubling():
    a = find_threshold(SIX_STATE, 1e-3, OptimizerConfig(restarts=6))
    b = find_threshold(SIX_STATE, 1e-3, OptimizerConfig(restarts=12))
    assert abs(a.threshold_q - b.threshold_q) <= 1e-3


def _closed_form_rate(scale):
    # above s q = 1/4 the two-basis optimum stays at its value there, 1/2
    return lambda q: key_rate(q, bb84_closed_form_iae(min(scale * q, 0.25)))


def _central_difference(f, h=1e-6):
    return lambda q: (f(q + h) - f(q - h)) / (2 * h)


@pytest.mark.parametrize(
    ("protocol", "q"),
    [(BB84, q) for q in (0.05, 0.10, 0.15, 0.20)] + [(SIX_STATE, q) for q in (0.05, 0.10, 0.20, 0.30)],
    ids=lambda v: getattr(v, "name", v),
)
def test_rate_slope_matches_the_closed_form_derivative(protocol, q):
    # the envelope slope of an optimized attack against d/dq of the closed-form rate
    attack = optimize_attack(protocol, q, OptimizerConfig(restarts=12))
    exact = _central_difference(_closed_form_rate(protocol.closed_form_q_scale))(q)
    assert abs(keyrate._rate_slope(attack) - exact) <= 1e-6


def test_rate_slope_calls_the_kernels_through_the_optimizer_module(monkeypatch, light_config):
    # the slope looks its kernels up as optimizer globals at call time, so a
    # wrapper installed there (as the benchmark's tracer does) sees its calls
    attack = optimize_attack(BB84, 0.10, light_config)
    unpatched = keyrate._rate_slope(attack)
    calls = dict.fromkeys(("_probs", "_objective"), 0)
    for name in calls:

        def counted(*args, name=name, kernel=getattr(optimizer, name)):
            calls[name] += 1
            return kernel(*args)

        monkeypatch.setattr(optimizer, name, counted)
    assert keyrate._rate_slope(attack) == unpatched
    # both sides of the difference in one batched call
    assert calls == {"_probs": 1, "_objective": 1}


# closed-form rates r(q) and slopes r'(q), each with one root in [0.05, 0.30]
_SYNTHETIC_RATES = {
    "bb84": (_closed_form_rate(1.0), _central_difference(_closed_form_rate(1.0))),
    "sixstate": (_closed_form_rate(0.5), _central_difference(_closed_form_rate(0.5))),
    "linear": (lambda q: 0.2 - q, lambda q: -1.0),
    "steep_convex": (lambda q: math.exp(-40 * (q - 0.05)) - 0.01, lambda q: -40 * math.exp(-40 * (q - 0.05))),
}


def _synthetic_search(monkeypatch, rate, slope, tolerance, probed=None):
    """find_threshold on an attack stub whose key rate at q is rate(q) and whose slope is slope(q).

    Each probed q is appended to probed, if given; a search that does not
    end fails at its 100th probe.
    """
    probed = [] if probed is None else probed

    def attack(protocol, q, config):
        probed.append(q)
        assert len(probed) < 100, "the search does not end"
        return types.SimpleNamespace(q=q, i_ae=key_rate(q, rate(q)))

    monkeypatch.setattr(keyrate, "optimize_attack", attack)
    monkeypatch.setattr(keyrate, "_rate_slope", lambda result: slope(result.q))
    return find_threshold(BB84, tolerance, OptimizerConfig(restarts=1))


def _bisection(rate, tolerance):
    """The probes of plain bisection on [0.05, 0.30], in order."""
    lo, hi = keyrate._BRACKET
    probes = [lo, hi]
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        probes.append(mid)
        lo, hi = (mid, hi) if rate(mid) > 0.0 else (lo, mid)
    return probes


@pytest.mark.parametrize("tolerance", [1e-4, 1e-3, 1e-2])
@pytest.mark.parametrize("name", sorted(_SYNTHETIC_RATES))
def test_search_brackets_the_root_within_bisections_probes(monkeypatch, name, tolerance):
    rate, slope = _SYNTHETIC_RATES[name]
    rep = _synthetic_search(monkeypatch, rate, slope, tolerance)
    lo, hi = rep.bracket
    assert hi - lo <= tolerance
    assert rate(lo) > 0.0 > rate(hi)
    assert (rep.rate_low, rep.rate_high) == pytest.approx((rate(lo), rate(hi)), abs=1e-12)
    assert rep.threshold_q == 0.5 * (lo + hi)
    assert len(rep.probes) <= len(_bisection(rate, tolerance))
    assert rep.probes[0].q == 0.5 * sum(keyrate._BRACKET)
    assert not any(p.rerun for p in rep.probes)


@pytest.mark.parametrize("bad_slope", [0.0, 1.0, math.nan])
def test_search_without_a_usable_slope_is_bisection(monkeypatch, bad_slope):
    for rate, _ in _SYNTHETIC_RATES.values():
        for tolerance in (1e-4, 1e-3, 1e-2):
            rep = _synthetic_search(monkeypatch, rate, lambda q: bad_slope, tolerance)
            # the ends are probed only when the search reaches them
            assert [p.q for p in rep.probes] == _bisection(rate, tolerance)[2:]


def test_rerun_probe_reports_the_rerun_attack(monkeypatch):
    # a probe whose rate exceeds the smaller-q rate is re-run at four times
    # the restarts, and its rate and slope come from the re-run; the second
    # probe sits at the midpoint of [0.175, 0.30], where the tangent of the
    # first is capped
    lo, hi = keyrate._BRACKET
    second = 0.5 * (0.5 * (lo + hi) + hi)

    def attack(protocol, q, config):
        rate = 0.2 - q + (1.0 if q == second and config.restarts == 3 else 0.0)
        return types.SimpleNamespace(q=q, i_ae=key_rate(q, rate), restarts=config.restarts)

    monkeypatch.setattr(keyrate, "optimize_attack", attack)
    monkeypatch.setattr(keyrate, "_rate_slope", lambda result: -1.0 / result.restarts)
    rep = find_threshold(BB84, 1e-3, OptimizerConfig(restarts=3))
    first, nxt = rep.probes[:2]
    assert (first.rerun, first.slope) == (False, -1.0 / 3)
    assert nxt.q == second
    assert nxt.rerun and nxt.slope == -1.0 / 12
    assert nxt.rate == pytest.approx(0.2 - second, abs=1e-12)


def _linear(root):
    return lambda q: root - q, lambda q: -1.0


def _convex(root, k=20.0):
    return lambda q: math.exp(-k * (q - root)) - 1.0, lambda q: -k * math.exp(-k * (q - root))


def _no_slope(q):
    return math.nan


@pytest.mark.parametrize("usable_slope", [True, False], ids=["slope", "no_slope"])
@pytest.mark.parametrize("shape", [_linear, _convex], ids=["linear", "convex"])
@pytest.mark.parametrize("root", [0.0504, 0.2996])
def test_search_finds_a_root_within_the_tolerance_of_an_end(monkeypatch, root, shape, usable_slope):
    # the search walks to the end beside the root and probes it, unless a
    # probe on the way already crosses the root
    rate, slope = shape(root)
    rep = _synthetic_search(monkeypatch, rate, slope if usable_slope else _no_slope, 1e-3)
    lo, hi = rep.bracket
    assert lo <= root <= hi and hi - lo <= 1e-3
    assert len(rep.probes) <= len(_bisection(rate, 1e-3))


@pytest.mark.parametrize("usable_slope", [True, False], ids=["slope", "no_slope"])
@pytest.mark.parametrize("shape", [_linear, _convex], ids=["linear", "convex"])
@pytest.mark.parametrize("root", [0.04, 0.31])
@pytest.mark.parametrize("tolerance", [1e-4, 1e-3, 1e-2])
def test_search_for_a_root_beyond_an_end_fails_within_bisections_probes(
    monkeypatch, root, shape, usable_slope, tolerance
):
    rate, slope = shape(root)
    probed = []
    with pytest.raises(NumericalFailure, match=r"no sign change on \[0.05, 0.3\]"):
        _synthetic_search(monkeypatch, rate, slope if usable_slope else _no_slope, tolerance, probed)
    assert probed[-1] == (keyrate._BRACKET[0] if root < 0.05 else keyrate._BRACKET[1])
    assert len(probed) <= len(_bisection(rate, tolerance))


def test_tangent_step_stops_at_the_midpoint_of_the_unexplored_side(monkeypatch):
    # bb84's convex closed-form rate: on [0.05, 0.45] the first probe, at
    # 0.25, has a tangent whose root lies near 0.05, far past the root at
    # 0.1534; the probe after it sits at the midpoint of [0.05, 0.25]
    monkeypatch.setattr(keyrate, "_BRACKET", (0.05, 0.45))
    rate, slope = _SYNTHETIC_RATES["bb84"]
    assert 0.05 < 0.25 - rate(0.25) / slope(0.25) < 0.06
    rep = _synthetic_search(monkeypatch, rate, slope, 1e-3)
    assert [p.q for p in rep.probes[:2]] == [0.25, 0.15]
    lo, hi = rep.bracket
    assert rate(lo) > 0.0 > rate(hi) and hi - lo <= 1e-3
    assert len(rep.probes) <= len(_bisection(rate, 1e-3))


@pytest.mark.parametrize("tolerance", [1e-4, 1e-3, 1e-2])
@pytest.mark.parametrize("root", [0.29, 0.35])
def test_short_tangent_steps_give_way_to_midpoints(monkeypatch, root, tolerance):
    # a rate so convex that each tangent step from the first probe advances
    # about 1/200 of the way; at least every other probe halves the gap to
    # the unexplored end, so the search stays within twice bisection's
    # probes, found root or not
    probed = []
    rate, slope = _convex(root, 200.0)
    try:
        rep = _synthetic_search(monkeypatch, rate, slope, tolerance, probed)
    except NumericalFailure:
        assert root > keyrate._BRACKET[1]
    else:
        assert rep.bracket[0] <= root <= rep.bracket[1]
    assert len(probed) <= 2 * len(_bisection(rate, tolerance))
