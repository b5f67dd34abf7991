"""Acceptance gate: every shipped claim checked at its stated tolerance.

Each test prints one PASS/FAIL line on the real stdout so the summary
survives pytest's capture, then asserts.
"""

import time

import numpy as np
import pytest

import qkdattack.optimizer as op
from povm_helpers import every_basis_probs
from qkdattack import cli, keyrate
from qkdattack.information import binary_entropy, holevo_chi
from qkdattack.keyrate import bb84_closed_form_iae, find_threshold, key_rate
from qkdattack.linalg import partial_trace
from qkdattack.optimizer import OptimizerConfig, optimize_attack
from qkdattack.simulator import empirical_stats, joint_distribution, sample_rounds
from qkdattack.states import (
    BB84,
    PROTOCOLS,
    SARG04,
    SIX_STATE,
    alpha_range,
    eve_conditional_state,
    purified_state,
    purify,
    qber_in_basis,
    rho_ab,
)

C1_GRID = (0.02, 0.05, 0.08, 0.10, 0.12, 0.15, 0.20, 0.25)
C6_GRID = (0.02, 0.05, 0.08, 0.10, 0.12)

# the benchmark's restart budgets and seed.  bb84's optimum sits at an
# interval endpoint (alpha_lo at q=0.10), sarg04's inside the interval
# (alpha* ~ 0.7596 at q=0.10)
ATTACK_CONFIG = OptimizerConfig(restarts=32)
THRESHOLD_CONFIG = OptimizerConfig(restarts=12)


@pytest.fixture
def report(request):
    """Print one criterion line on the live terminal, bypassing capture."""
    manager = request.config.pluginmanager.getplugin("capturemanager")

    def _line(num: int, ok: bool, detail: str) -> None:
        text = f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
        if manager is None:
            print(text, flush=True)
        else:
            with manager.global_and_fixture_disabled():
                print(text, flush=True)

    return _line


@pytest.fixture(scope="module")
def bb84_attacks():
    t0 = time.time()
    results = {q: optimize_attack(BB84, q, ATTACK_CONFIG) for q in C1_GRID}
    results["seconds"] = time.time() - t0
    return results


@pytest.fixture(scope="module")
def sixstate_attacks():
    return {q: optimize_attack(SIX_STATE, q, ATTACK_CONFIG) for q in C6_GRID}


@pytest.fixture(scope="module")
def thresholds():
    """protocol -> (find_threshold report at THRESHOLD_CONFIG, the attack of each probe), run on first use."""
    runs = {}

    def run(protocol):
        if protocol not in runs:
            probes = []

            def recording(*args):
                probes.append(optimize_attack(*args))
                return probes[-1]

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(keyrate, "optimize_attack", recording)
                runs[protocol] = find_threshold(protocol, 1e-3, THRESHOLD_CONFIG), probes
        return runs[protocol]

    return run


def test_criterion_1_bb84_closed_form(bb84_attacks, report):
    diffs = {q: abs(bb84_attacks[q].i_ae - bb84_closed_form_iae(q)) for q in C1_GRID}
    worst = max(diffs.values())
    ok = worst <= 1e-4
    report(
        1,
        ok,
        f"bb84 optimizer vs closed form on {len(C1_GRID)} points, "
        f"max |diff| = {worst:.2e} (tol 1e-4, {bb84_attacks['seconds']:.0f}s at 32 restarts)",
    )
    assert ok


def test_criterion_2_bb84_threshold(thresholds, report):
    rep, _ = thresholds(BB84)
    ok = abs(rep.threshold_q - 0.154) <= 0.003
    report(2, ok, f"bb84 threshold {rep.threshold_q:.4f} vs 0.154 +/- 0.003")
    assert ok


def test_criterion_3_sixstate_threshold(thresholds, report):
    rep, _ = thresholds(SIX_STATE)
    ok = abs(rep.threshold_q - 0.204) <= 0.003
    report(3, ok, f"sixstate threshold {rep.threshold_q:.4f} vs 0.204 +/- 0.003")
    assert ok


def test_criterion_4_sarg04_threshold(thresholds, report):
    # the bit-valued reading (key on x) lands near 0.139 and misses; the
    # shipped estimator keys on the basis, the documented alternative
    rep, _ = thresholds(SARG04)
    ok = abs(rep.threshold_q - 0.175) <= 0.003
    report(4, ok, f"sarg04 threshold {rep.threshold_q:.4f} vs 0.175 +/- 0.003 (basis-keyed estimator)")
    assert ok


def test_criterion_5_bb84_maximum(bb84_attacks, report):
    i_max = bb84_attacks[0.25].i_ae
    ok = abs(i_max - 0.5) <= 1e-4
    report(5, ok, f"bb84 i_ae(0.25) = {i_max:.6f} vs 0.5 +/- 1e-4")
    assert ok


def test_criterion_6_sixstate_below_bb84(bb84_attacks, sixstate_attacks, report):
    gaps = {q: sixstate_attacks[q].i_ae - bb84_attacks[q].i_ae for q in C6_GRID}
    worst = max(gaps.values())
    ok = worst <= 1e-6
    report(6, ok, f"sixstate i_ae <= bb84 i_ae on (0, 0.12], max gap = {worst:.2e}")
    assert ok


def test_criterion_7_structural_invariants(bb84_attacks, report):
    checks = []

    povm = bb84_attacks[0.10].best_povm
    checks.append(np.max(np.abs(povm.elements.sum(axis=0) - np.eye(4))) <= 1e-9)
    checks.append(float(np.min(np.linalg.eigvalsh(povm.elements))) >= -1e-9)

    rng = np.random.default_rng(100)
    protos = list(PROTOCOLS.values())
    round_trip = 0.0
    for _ in range(30):
        proto = protos[rng.integers(len(protos))]
        q = float(rng.uniform(0.0, 0.45))
        lo, hi = alpha_range(proto, q)
        rho, params = rho_ab(proto, q, float(rng.uniform(lo, hi)))
        ps = purify(params)
        back = partial_trace(np.outer(ps.psi, ps.psi.conj()), [2, 2, 4], keep=[0, 1])
        round_trip = max(round_trip, float(np.max(np.abs(back - rho))))
    checks.append(round_trip <= 1e-10)

    signal = 0.0
    for proto in protos:
        lo, hi = alpha_range(proto, 0.13)
        ps = purified_state(proto, 0.13, (lo + hi) / 2)
        marginals = [
            sum(0.5 * eve_conditional_state(ps, x, t)[0] for x in (0, 1))
            for t in range(proto.basis_count)
        ]
        for m in marginals[1:]:
            signal = max(signal, float(np.max(np.abs(m - marginals[0]))))
    checks.append(signal <= 1e-10)

    qber_err = 0.0
    for proto in protos:
        for q in (0.0, 0.07, 0.2):
            lo, hi = alpha_range(proto, q)
            rho, _ = rho_ab(proto, q, (lo + hi) / 2)
            for theta in range(proto.basis_count):
                # the sarg04 family pins only its computational-basis error
                # at q; its Hadamard-basis error is 3q/2 by construction
                expect = 1.5 * q if (proto.name == "sarg04" and theta == 1) else q
                qber_err = max(qber_err, abs(qber_in_basis(rho, proto, theta) - expect))
    checks.append(qber_err <= 1e-12)

    two_path = 0.0
    for proto in protos:
        lo, hi = alpha_range(proto, 0.09)
        ps = purified_state(proto, 0.09, (lo + hi) / 2)
        jd = joint_distribution(ps, povm)
        probs = every_basis_probs(povm, ps)
        recovered = jd.probs.sum(axis=2).transpose(2, 0, 1) * (2 * proto.basis_count)
        two_path = max(two_path, float(np.max(np.abs(recovered - probs))))
    checks.append(two_path <= 1e-10)

    ok = all(checks)
    report(
        7,
        ok,
        "structural invariants "
        f"(povm={checks[0] and checks[1]}, purify={round_trip:.1e}<=1e-10, "
        f"no-signal={signal:.1e}<=1e-10, qber={qber_err:.1e}<=1e-12, "
        f"two-path={two_path:.1e}<=1e-10)",
    )
    assert ok


def test_criterion_8_monte_carlo(bb84_attacks, report):
    t0 = time.time()
    result = bb84_attacks[0.10]
    ps = purified_state(BB84, 0.10, result.best_alpha)
    jd = joint_distribution(ps, result.best_povm)
    samples = sample_rounds(jd, 10**6, seed=2024)
    qhat, ihat, _ = empirical_stats(samples, BB84.basis_count, BB84.key_on_basis)
    band = 3 * np.sqrt(0.1 * 0.9 / 10**6)
    ok = abs(qhat - 0.10) <= band and abs(ihat - result.i_ae) <= 0.01
    report(
        8,
        ok,
        f"monte carlo at bb84 q=0.1, n=1e6: |qber {qhat:.5f} - 0.1| <= {band:.5f}, "
        f"|i {ihat:.5f} - {result.i_ae:.5f}| <= 0.01 ({time.time() - t0:.0f}s)",
    )
    assert ok


def test_criterion_9_threshold_determinism(tmp_path, report):
    cfg = OptimizerConfig(restarts=8)
    a, _ = cli.run("threshold", SIX_STATE, cfg, str(tmp_path / "a.json"), tolerance=2e-3)
    b, _ = cli.run("threshold", SIX_STATE, cfg, str(tmp_path / "b.json"), tolerance=2e-3)
    a["manifest"].pop("duration_seconds")
    b["manifest"].pop("duration_seconds")
    same = a == b and f"{a['threshold_q']:.17g}" == f"{b['threshold_q']:.17g}"
    report(9, same, f"threshold reruns identical to all digits ({a['threshold_q']:.6g})")
    assert same


def test_attacks_stay_below_holevo_bound(bb84_attacks, sixstate_attacks, thresholds):
    # Holevo's bound, averaged over side values, at the reported alpha caps
    # every reported attack: the criterion 1 and 6 attacks and each
    # threshold probe of criteria 2 to 4
    results = [bb84_attacks[q] for q in C1_GRID] + list(sixstate_attacks.values())
    for protocol in (BB84, SIX_STATE, SARG04):
        results += thresholds(protocol)[1]
    assert {r.protocol.name for r in results} == {"bb84", "sixstate", "sarg04"}
    for r in results:
        rho = op._conditional_stack(purified_state(r.protocol, r.q, r.best_alpha))
        assert r.i_ae <= holevo_chi(rho) + 1e-9, (r.protocol.name, r.q)


def test_sixstate_is_bb84_closed_form_at_half_the_error_rate(sixstate_attacks):
    # six-state's memoryless optimum at q is the two-basis closed form at q / 2,
    # the protocol's closed_form_q_scale; the search never exceeds it
    scale = SIX_STATE.closed_form_q_scale
    results = dict(sixstate_attacks)
    results.update({q: optimize_attack(SIX_STATE, q, ATTACK_CONFIG) for q in (0.15, 0.2, 0.25, 0.3, 0.4, 0.5)})
    for q, result in results.items():
        closed = bb84_closed_form_iae(scale * q)
        assert abs(result.i_ae - closed) <= 1e-4, q
        assert result.i_ae <= closed + 1e-9, q


def test_bb84_attacks_never_exceed_the_closed_form(bb84_attacks):
    # the same guard at bb84's own closed form: an attack above it would
    # point to an estimator or retraction fault, not to a better search
    for q in C1_GRID:
        assert bb84_attacks[q].i_ae <= bb84_closed_form_iae(q) + 1e-9, q


@pytest.mark.parametrize(("q", "peak"), [(0.10, 0.1996330), (0.175, 0.3293964)])
def test_sarg04_attack_reaches_the_alpha_peak(q, peak):
    # the peaks of I*(alpha) measured on dense alpha scans at 32 restarts;
    # the golden section stopped 2.97e-5 and 3.6e-5 below them, which
    # understates the adversary
    result = optimize_attack(SARG04, q, ATTACK_CONFIG)
    assert result.i_ae >= peak - 1e-7, result.i_ae
    assert result.alpha_stop in ("stationary", "budget")


def _closed_form_root(scale: float) -> float:
    """The q in [0.05, 0.25] where 1 - h(q) = bb84_closed_form_iae(scale * q), by bisection."""
    lo, hi = 0.05, 0.25
    assert key_rate(lo, bb84_closed_form_iae(scale * lo)) > 0 > key_rate(hi, bb84_closed_form_iae(scale * hi))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if key_rate(mid, bb84_closed_form_iae(scale * mid)) > 0 else (lo, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("protocol", [BB84, SIX_STATE], ids=lambda p: p.name)
def test_threshold_bracket_holds_the_closed_form_root(protocol, thresholds):
    # criteria 2 and 3 compare with quoted thresholds; the closed form gives exact ones
    rep, _ = thresholds(protocol)
    root = _closed_form_root(protocol.closed_form_q_scale)
    assert rep.bracket[0] <= root <= rep.bracket[1], (root, rep.bracket)


@pytest.mark.parametrize("protocol", [BB84, SARG04, SIX_STATE], ids=lambda p: p.name)
def test_threshold_search_takes_at_most_six_probes(protocol, thresholds):
    # bisection takes 10 probes to a 1e-3 bracket; the slope-steered search,
    # re-runs included, at most 6, and the key rate falls at every probe
    rep, attacks = thresholds(protocol)
    assert len(attacks) <= 6, [a.q for a in attacks]
    assert all(p.slope < 0.0 for p in rep.probes), rep.probes


@pytest.mark.parametrize("protocol", [BB84, SARG04, SIX_STATE], ids=lambda p: p.name)
def test_threshold_search_probes_inside_the_bracket(protocol, thresholds):
    # the search starts at the bracket's midpoint and walks to the root by
    # the rate's slope, so it probes neither end: 4, 2 and 4 probes today
    rep, attacks = thresholds(protocol)
    assert len(attacks) <= 4, [a.q for a in attacks]
    assert not {p.q for p in rep.probes} & set(keyrate._BRACKET), rep.probes


def test_reported_attack_values_follow_rate_identity(bb84_attacks):
    # consistency of the shipped artifacts, not a numbered criterion: at the
    # published threshold the rate vanishes within band width
    for q in C1_GRID:
        r = key_rate(q, bb84_attacks[q].i_ae)
        assert r == pytest.approx(1 - binary_entropy(q) - bb84_attacks[q].i_ae, abs=1e-12)
