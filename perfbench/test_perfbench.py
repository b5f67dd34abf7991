"""Tests of the benchmark's own trace: python3 -m pytest perfbench -q

Small budgets keep them to seconds; the workloads run the same code as the
full benchmark.
"""

import pytest

import run

run._import_package()
run.OUT.mkdir(exist_ok=True)

from tracer import Tracer  # noqa: E402  (needs the package import above)

SEED = 11
SMALL_ATTACK = ["--restarts", "4", "--alpha-grid-points", "3"]
SMALL_THRESHOLD = ["--tolerance", "1e-2", "--restarts", "4", "--alpha-grid-points", "3"]

WORKLOADS = {
    "attack": lambda: run.CliWorkload([("attack", "bb84"), ("attack", "sarg04")], SMALL_ATTACK, SEED),
    "threshold": lambda: run.CliWorkload([("threshold", "sixstate")], SMALL_THRESHOLD, SEED),
    "montecarlo": lambda: run.MonteCarloWorkload(SEED, rounds=10**5),
}


def _traced_sweep(name):
    """Counters and span call counts of one traced sweep of a fresh workload."""
    workload = WORKLOADS[name]()
    workload.setup()
    tracer = Tracer()
    tracer.install()
    try:
        outputs = workload.sweep(tracer, "test")
    finally:
        tracer.uninstall()
    if isinstance(workload, run.CliWorkload):
        # small budgets miss the sarg04 rich-budget reference on purpose,
        # so only the CLI exit codes are checked here
        assert [op[2] for op in outputs] == [0] * len(outputs)
    calls = {span: n for span, (n, _, _) in tracer.span_table().items()}
    return dict(tracer.counters), calls


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counters_repeat_at_the_same_seed(name):
    first, second = _traced_sweep(name), _traced_sweep(name)
    assert first == second
    counters, calls = first
    if name == "montecarlo":
        assert counters["simulator.rounds"] == 3 * 10**5
        assert not any(span.startswith("optimizer.") for span in calls)
    else:
        assert counters["optimizer.step.rows"] > 0
        assert counters["optimizer.step.accepts"] > 0
        assert counters["optimizer.ascent.iters"] == calls["optimizer.step"]
    if name == "threshold":
        assert counters["keyrate.threshold.probes"] >= 2


def test_uninstall_restores_every_attribute():
    from qkdattack import cli, optimizer, simulator, states

    before = (cli.find_threshold, cli.optimize_attack, optimizer._Batch.step_once, simulator.sample_rounds, states.partial_trace)
    tracer = Tracer()
    tracer.install()
    assert optimizer._Batch.step_once is not before[2]
    tracer.uninstall()
    after = (cli.find_threshold, cli.optimize_attack, optimizer._Batch.step_once, simulator.sample_rounds, states.partial_trace)
    assert all(a is b for a, b in zip(before, after))


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.span("outer", lambda: tracer.span("inner", sum, range(10**5)))
    table = tracer.span_table()
    calls, outer_total, outer_self = table["outer"]
    _, inner_total, inner_self = table["inner"]
    assert calls == 1
    assert inner_self == inner_total
    assert outer_self == pytest.approx(outer_total - inner_total, abs=1e-12)
