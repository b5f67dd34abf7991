"""Benchmark of the qkdattack reproduction, with an optional outside-in layer trace.

    python3 perfbench/run.py --workload {attack,threshold,montecarlo} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` there and nowhere else.  One process, one closed-loop client: the
operations of a workload run back to back on one Python thread, with numpy
at its default thread count.  The seed becomes the optimizer's ``--seed``
(the restart ensemble) and the Monte Carlo sample seed.

A sweep runs every operation of the workload once.  Sweeps repeat while the
next one is expected to end within ``--seconds``; there is always at least
one.  ``wall_s`` is the median sweep time, ``setup_s`` the median of
several set-ups (a fresh interpreter importing the package, the in-process
warm-up, and for ``montecarlo`` the precomputed attacks).  Every output is
checked after the timed sweep; a failed check or a non-zero CLI exit code
counts as a failed operation.

With ``--trace 1`` the run first measures untraced sweeps, then installs
the tracer and measures the same sweeps again, and prints the per-layer
metrics; the difference between the two median sweep times is the tracing
overhead.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / ".out"

Q = 0.10
ATTACK_ARGS = ["--restarts", "32", "--alpha-grid-points", "15"]
THRESHOLD_ARGS = ["--tolerance", "1e-3", "--restarts", "12", "--alpha-grid-points", "15"]
MC_ROUNDS = 10**7
SETUP_REPEATS = 3

# Output-check tolerances.
CLOSED_FORM_TOL = 1e-4
# sarg04 i_ae at q = 0.10 under a rich budget (64 restarts, alpha grid 41,
# 8 golden-section steps, seed 7); a lower i_ae understates the adversary.
SARG04_RICH_IAE = 0.1996329806
RICH_TOL = 1e-4
THRESHOLD_TOL = 0.003
QBER_SIGMAS = 4.0
IAE_HAT_TOL = 0.01
ESTIMATOR_TOL = 1e-9


def _import_package():
    """Import qkdattack from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import qkdattack
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import qkdattack from {SRC}: {exc}")
    if SRC not in Path(qkdattack.__file__).resolve().parents:
        raise SystemExit(f"perfbench: qkdattack imported from {qkdattack.__file__}, not {SRC}")


def machine_facts() -> dict:
    import platform

    import numpy as np

    threads = {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS") or k == "OMP_PROC_BIND"}
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__, "thread_env": threads}


def _call(tracer, name, fn, *args):
    return fn(*args) if tracer is None else tracer.span(name, fn, *args)


def _warm_up() -> None:
    from qkdattack.optimizer import OptimizerConfig, optimize_attack
    from qkdattack.states import BB84

    optimize_attack(BB84, Q, OptimizerConfig(restarts=2, alpha_grid_points=2, alpha_refine_iters=0, max_iters=20))


def _estimator_gap(protocol, alpha: float, elements, i_ae: float) -> float:
    """|validated estimator - optimizer| i_ae for one measurement."""
    from qkdattack.information import Povm, conditional_probs, mutual_info_ae
    from qkdattack.states import purified_state

    cd = conditional_probs(Povm(elements), purified_state(protocol, Q, alpha))
    return abs(mutual_info_ae(cd, protocol.key_on_basis) - i_ae)


class CliWorkload:
    """Operations that are in-process calls of ``qkdattack.cli.main``."""

    def __init__(self, commands: list[tuple[str, str]], args: list[str], seed: int):
        self.commands = commands
        self.args = args
        self.seed = seed
        self.estimator_gap = 0.0

    @property
    def n_ops(self) -> int:
        return len(self.commands)

    def setup(self) -> None:
        _warm_up()

    def sweep(self, tracer, tag: str) -> list:
        from qkdattack import cli

        outputs = []
        for command, protocol in self.commands:
            out = OUT / f"{command}-{protocol}-{tag}.json"
            argv = [command, "--protocol", protocol, "--seed", str(self.seed), "--out", str(out)]
            argv += self.args + (["--q", repr(Q)] if command == "attack" else [])
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                code = _call(tracer, f"cli.{command}.{protocol}", cli.main, argv)
            if tracer is not None and code != 0:
                tracer.counters["cli.exit_nonzero"] += 1
            outputs.append((command, protocol, code, out, err.getvalue()))
        return outputs

    def check(self, outputs) -> list[str]:
        """One message per failed operation."""
        from qkdattack.keyrate import reference_thresholds
        from qkdattack.states import PROTOCOLS

        failures = []
        for command, protocol, code, out, err in outputs:
            problems = []
            if code != 0:
                problems.append(f"exit code {code}: {err.strip()}")
            elif command == "threshold":
                published = reference_thresholds(PROTOCOLS[protocol])["memoryless"]
                payload = json.loads(out.read_text())
                if abs(payload["threshold_q"] - published) > THRESHOLD_TOL:
                    problems.append(f"threshold {payload['threshold_q']} vs published {published}")
            else:
                problems += self._check_attack(PROTOCOLS[protocol], json.loads(out.read_text()))
            if problems:
                failures.append(f"{command} {protocol}: " + "; ".join(problems))
        return failures

    def _check_attack(self, protocol, payload: dict) -> list[str]:
        import numpy as np
        from qkdattack.keyrate import bb84_closed_form_iae

        problems = []
        i_ae = payload["i_ae"]
        if protocol.name == "bb84" and abs(i_ae - bb84_closed_form_iae(Q)) > CLOSED_FORM_TOL:
            problems.append(f"i_ae {i_ae} vs closed form {bb84_closed_form_iae(Q)}")
        if protocol.name == "sarg04" and i_ae < SARG04_RICH_IAE - RICH_TOL:
            problems.append(f"i_ae {i_ae} below rich-budget {SARG04_RICH_IAE}")
        elements = np.array([np.array(e["real"]) + 1j * np.array(e["imag"]) for e in payload["povm_elements"]])
        gap = _estimator_gap(protocol, payload["best_alpha"], elements, i_ae)
        self.estimator_gap = max(self.estimator_gap, gap)
        if gap > ESTIMATOR_TOL:
            problems.append(f"validated estimator differs from optimizer by {gap:.3e}")
        return problems


class MonteCarloWorkload:
    """Sampler cross-check of precomputed attacks; no optimizer in the body."""

    PROTOCOLS = ("bb84", "sarg04", "sixstate")

    def __init__(self, seed: int, rounds: int = MC_ROUNDS):
        self.seed = seed
        self.rounds = rounds
        self.attacks: dict = {}
        self.estimator_gap = 0.0

    @property
    def n_ops(self) -> int:
        return len(self.PROTOCOLS)

    def setup(self) -> None:
        from qkdattack.optimizer import OptimizerConfig, optimize_attack
        from qkdattack.states import PROTOCOLS

        _warm_up()
        light = OptimizerConfig(restarts=4, alpha_grid_points=3, alpha_refine_iters=1, max_iters=400, seed=self.seed)
        self.attacks = {name: optimize_attack(PROTOCOLS[name], Q, light) for name in self.PROTOCOLS}

    def sweep(self, tracer, tag: str) -> list:
        from qkdattack import information, simulator, states

        outputs = []
        for name, attack in self.attacks.items():
            protocol = attack.protocol
            ps = states.purified_state(protocol, Q, attack.best_alpha)
            jd = simulator.joint_distribution(ps, attack.best_povm)
            samples = simulator.sample_rounds(jd, self.rounds, self.seed)
            qber_hat = float((samples["y"] != samples["x"]).mean())
            kept = samples[samples["theta"] < protocol.attack_basis_count]
            del samples
            _, i_ae_hat, _ = simulator.empirical_stats(
                kept, protocol.attack_basis_count, key_on_basis=protocol.key_on_basis
            )
            del kept
            cd = information.conditional_probs(attack.best_povm, ps)
            i_ae = information.mutual_info_ae(cd, protocol.key_on_basis)
            outputs.append((name, jd, qber_hat, i_ae_hat, i_ae))
        return outputs

    def check(self, outputs) -> list[str]:
        """One message per failed operation."""
        failures = []
        for name, jd, qber_hat, i_ae_hat, i_ae in outputs:
            problems = []
            p = jd.probs
            qber = float(p[0, :, 1].sum() + p[1, :, 0].sum())
            sigma = (qber * (1.0 - qber) / self.rounds) ** 0.5
            if abs(qber_hat - qber) > QBER_SIGMAS * sigma:
                problems.append(f"qber_hat {qber_hat} vs exact {qber} (sigma {sigma:.2e})")
            if abs(i_ae_hat - i_ae) > IAE_HAT_TOL:
                problems.append(f"i_ae_hat {i_ae_hat} vs analytic {i_ae}")
            gap = abs(i_ae - self.attacks[name].i_ae)
            self.estimator_gap = max(self.estimator_gap, gap)
            if gap > ESTIMATOR_TOL:
                problems.append(f"validated estimator differs from optimizer by {gap:.3e}")
            if problems:
                failures.append(f"montecarlo {name}: " + "; ".join(problems))
        return failures


def make_workload(name: str, seed: int):
    if name == "attack":
        return CliWorkload([("attack", "bb84"), ("attack", "sarg04")], ATTACK_ARGS, seed)
    if name == "threshold":
        return CliWorkload([("threshold", "sarg04"), ("threshold", "sixstate")], THRESHOLD_ARGS, seed)
    if name == "montecarlo":
        return MonteCarloWorkload(seed)
    raise ValueError(name)


def timed_setup(workload) -> float:
    """One set-up: a fresh interpreter importing the package, then the workload's own."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import qkdattack.cli"], env=env, cwd=ROOT, check=True, timeout=120)
    workload.setup()
    return perf_counter() - t0


def measure(workload, seconds: float, tracer=None, tag: str = "plain") -> dict:
    """Sweeps until the next one would overrun ``seconds``, at least one."""
    times, outputs = [], []
    t_start = perf_counter()
    while True:
        t0 = perf_counter()
        outputs.append(workload.sweep(tracer, f"{tag}{len(times)}"))
        times.append(perf_counter() - t0)
        if perf_counter() - t_start + times[-1] > seconds:
            break
    return {"times": times, "wall_s": statistics.median(times), "outputs": outputs}


def check(workload, run: dict) -> None:
    """Check every output of a measured pass; kept apart from the trace."""
    outputs = run.pop("outputs")
    run["attempted"] = workload.n_ops * len(outputs)
    run["failures"] = [msg for sweep in outputs for msg in workload.check(sweep)]


def layer_metrics(tracer, workload, plain: dict, traced: dict) -> dict:
    """Per-layer metrics per sweep, from the traced pass."""
    sweeps = len(traced["times"])
    table = tracer.span_table()
    c = tracer.counters

    def calls(name):
        return table.get(name, (0, 0.0, 0.0))[0] / sweeps

    def total(name):
        return table.get(name, (0, 0.0, 0.0))[1] / sweeps

    def own(name):
        return table.get(name, (0, 0.0, 0.0))[2] / sweeps

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for command, protocol in (("attack", "bb84"), ("attack", "sarg04"), ("threshold", "sarg04"), ("threshold", "sixstate")):
        m[f"cli.{command}.{protocol}.s"] = (total(f"cli.{command}.{protocol}"), "s")
    m["cli.self_s"] = (sum((own(n) for n in table if n.startswith("cli.")), 0.0), "s")
    m["cli.exit_nonzero"] = (c["cli.exit_nonzero"] / sweeps, "count")
    for kernel in ("renormalize", "probs", "objective", "gradient"):
        m[f"optimizer.{kernel}.self_s"] = (own(f"optimizer.{kernel}"), "s")
        m[f"optimizer.{kernel}.calls"] = (calls(f"optimizer.{kernel}"), "count")
    rows = c["optimizer.step.rows"] / sweeps
    m["optimizer.step.calls"] = (calls("optimizer.step"), "count")
    m["optimizer.step.rows"] = (rows, "count")
    m["optimizer.step.s"] = (total("optimizer.step"), "s")
    m["optimizer.step.self_s"] = (own("optimizer.step"), "s")
    m["optimizer.step.us_per_row"] = (ratio(1e6 * total("optimizer.step"), rows), "us")
    m["optimizer.step.accept_ratio"] = (ratio(c["optimizer.step.accepts"], c["optimizer.step.rows"]), "ratio")
    m["optimizer.ascent.calls"] = (calls("optimizer.ascent"), "count")
    m["optimizer.ascent.iters"] = (c["optimizer.ascent.iters"] / sweeps, "count")
    m["optimizer.ascent.cap_hits"] = (c["optimizer.ascent.cap_hits"] / sweeps, "count")
    restarts = c["optimizer.ascent.restarts"]
    m["optimizer.ascent.converged_ratio"] = (ratio(c["optimizer.ascent.converged"], restarts), "ratio")
    m["optimizer.ascent.agree_ratio"] = (ratio(c["optimizer.ascent.agreeing"], restarts), "ratio")
    m["optimizer.ascent.s"] = (total("optimizer.ascent"), "s")
    m["optimizer.attack.calls"] = (calls("optimizer.attack"), "count")
    m["optimizer.attack.evals_per_call"] = (ratio(calls("optimizer.ascent"), calls("optimizer.attack")), "count")
    m["optimizer.attack.self_s"] = (own("optimizer.attack"), "s")
    m["optimizer.closed_form_err"] = (tracer.closed_form_err, "bits")
    m["keyrate.threshold.calls"] = (calls("keyrate.threshold"), "count")
    m["keyrate.threshold.probes"] = (c["keyrate.threshold.probes"] / sweeps, "count")
    m["keyrate.threshold.reruns"] = (c["keyrate.threshold.reruns"] / sweeps, "count")
    m["keyrate.threshold.self_s"] = (own("keyrate.threshold"), "s")
    m["keyrate.threshold_dev"] = (tracer.threshold_dev, "q")
    for name in ("states.purified_state", "states.conditional", "linalg.partial_trace"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.s"] = (total(name), "s")
    m["information.conditional_probs.s"] = (total("information.conditional_probs"), "s")
    m["information.mutual_info_ae.s"] = (total("information.mutual_info_ae"), "s")
    m["information.estimator_gap"] = (workload.estimator_gap, "bits")
    rounds = c["simulator.rounds"] / sweeps
    m["simulator.joint.s"] = (total("simulator.joint"), "s")
    m["simulator.sample.s"] = (total("simulator.sample"), "s")
    m["simulator.sample.ns_per_round"] = (ratio(1e9 * total("simulator.sample"), rounds), "ns")
    m["simulator.stats.s"] = (total("simulator.stats"), "s")
    m["simulator.rounds"] = (rounds, "count")
    m["simulator.sample.bytes"] = (c["simulator.sample.bytes"] / sweeps, "bytes-computed")
    m["rounds_per_s"] = (ratio(rounds, plain["wall_s"]), "1/s")
    failed = len(plain["failures"]) + len(traced["failures"])
    m["failed_frac"] = (failed / (plain["attempted"] + traced["attempted"]), "frac")
    m["trace.wall_s"] = (traced["wall_s"], "s")
    m["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["attack", "threshold", "montecarlo"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    _import_package()
    OUT.mkdir(exist_ok=True)
    print(f"machine: {json.dumps(machine_facts())}")
    workload = make_workload(args.workload, args.seed)
    setup_s = statistics.median(timed_setup(workload) for _ in range(SETUP_REPEATS))

    plain = measure(workload, args.seconds)
    check(workload, plain)
    attempted, failures = plain["attempted"], list(plain["failures"])
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(workload, args.seconds, tracer, tag="traced")
        finally:
            tracer.uninstall()
        check(workload, traced)
        tracer.write(OUT / f"spans-{args.workload}.npz")
        attempted += traced["attempted"]
        failures += traced["failures"]
        metrics = layer_metrics(tracer, workload, plain, traced)
    else:
        metrics = {
            "wall_s": {"value": plain["wall_s"], "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    for msg in failures:
        print(f"check failed: {msg}")
    print(f"sweeps: {[round(t, 3) for t in plain['times']]}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
