"""Command-line front end emitting CSV curves and JSON reports.

Subcommands: curve (key-rate sweep as CSV), threshold (bisection report),
attack (single-point dump with the optimal POVM), simulate (Monte Carlo
cross-check).  Every artifact embeds a run manifest, or gets a sidecar
``<out>.manifest.json`` when the format has no room for one (CSV); reruns
with the same manifest arguments are byte-identical except for the recorded
duration.

Exit codes: 0 success, 2 usage or I/O error (ValueError), 3 numerical failure
(NumericalFailure: the search ran but its result cannot be trusted).  Exit 3
comes from a curve with more than half its points non-robust (its CSV is still
written), an attack neither robust nor converged, or a threshold bracket with
no sign change.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .optimizer import OptimizerConfig, optimize_attack
from .simulator import MIN_ROUNDS, joint_distribution, sampled_estimates
from .states import PROTOCOLS, Protocol, purified_state
from .keyrate import CurvePoint, NumericalFailure, bb84_closed_form_iae, find_threshold, tabulate_curve

_FMT = "%.10g"


def _manifest(command: str, protocol: Protocol, params: dict, config: OptimizerConfig, t0: float) -> dict:
    return {
        "command": command,
        "protocol": protocol.name,
        "params": params,
        "config": asdict(config),
        "version": __version__,
        "duration_seconds": round(time.time() - t0, 3),
    }


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _write_json(path: str, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2) + "\n")


def cmd_curve(
    protocol: Protocol,
    q_min: float,
    q_max: float,
    steps: int,
    config: OptimizerConfig,
    out_path: str,
) -> list:
    """CSV sweep of (q, i_ab, i_ae, rate, alpha, robust) over a QBER grid.

    For the two-basis bit-encoding protocol an extra column holds the
    analytic optimum wherever it is defined (q <= 1/4).  More than half the
    grid points non-robust counts as a numerical failure.
    """
    t0 = time.time()
    grid = np.linspace(q_min, q_max, steps)
    points = tabulate_curve(protocol, grid, config)

    closed = protocol.name == "bb84"
    header = "q,i_ab,i_ae,rate,alpha,robust" + (",i_ae_closed_form" if closed else "")
    lines = [header]
    for pt in points:
        row = [_FMT % v for v in (pt.q, pt.i_ab, pt.i_ae, pt.rate, pt.alpha)]
        row.append("true" if pt.robust else "false")
        if closed:
            row.append(_FMT % bb84_closed_form_iae(pt.q) if pt.q <= 0.25 else "")
        lines.append(",".join(row))
    _write_text(out_path, "\n".join(lines) + "\n")
    _write_json(
        out_path + ".manifest.json",
        _manifest("curve", protocol, {"q_min": q_min, "q_max": q_max, "steps": steps}, config, t0),
    )
    bad = sum(1 for pt in points if not pt.robust)
    if 2 * bad > len(points):
        raise NumericalFailure(f"{bad} of {len(points)} grid points are non-robust")
    return points


def cmd_threshold(protocol: Protocol, tolerance: float, config: OptimizerConfig, out_path: str) -> dict:
    """JSON report of the zero-crossing of the key rate."""
    t0 = time.time()
    rep = find_threshold(protocol, tolerance, config)
    payload = {
        "manifest": _manifest("threshold", protocol, {"tolerance": tolerance}, config, t0),
        "threshold_q": rep.threshold_q,
        "bracket": list(rep.bracket),
        "rate_low": rep.rate_low,
        "rate_high": rep.rate_high,
        "estimator": "basis-keyed" if protocol.key_on_basis else "bit-keyed",
        "references": rep.references,
    }
    _write_json(out_path, payload)
    return payload


def cmd_attack(protocol: Protocol, q: float, config: OptimizerConfig, out_path: str) -> dict:
    """JSON dump of the optimized attack at one error rate, POVM included."""
    t0 = time.time()
    result = optimize_attack(protocol, q, config)
    if not result.robust and not result.converged:
        raise NumericalFailure(
            f"only {result.restarts_agreeing}/{config.restarts} restarts agree and the best did not converge"
        )
    point = CurvePoint.of(result)
    payload = {
        "manifest": _manifest("attack", protocol, {"q": q}, config, t0),
        "q": q,
        "i_ae": point.i_ae,
        "i_ab": point.i_ab,
        "rate": point.rate,
        "best_alpha": result.best_alpha,
        "restarts_agreeing": result.restarts_agreeing,
        "converged": result.converged,
        "robust": result.robust,
        "povm_elements": [
            {"real": m.real.tolist(), "imag": m.imag.tolist()} for m in result.best_povm.elements
        ],
    }
    _write_json(out_path, payload)
    return payload


def cmd_simulate(
    protocol: Protocol,
    q: float,
    n_rounds: int,
    seed: int,
    config: OptimizerConfig,
    out_path: str,
) -> dict:
    """Monte Carlo report: sampled statistics against the analytic attack.

    The figures of ``sampled_estimates`` are checked against the table's
    exact round-averaged error ``analytic.qber`` (1.25q for sarg04) and the
    optimizer's i_ae, which the attack rounds estimate.
    """
    if n_rounds < MIN_ROUNDS:
        raise ValueError(f"n_rounds must be at least {MIN_ROUNDS}, got {n_rounds}")
    if seed < 0:
        raise ValueError(f"--sample-seed must be non-negative, got {seed}")
    t0 = time.time()
    result = optimize_attack(protocol, q, config)
    jd = joint_distribution(purified_state(protocol, q, result.best_alpha), result.best_povm)
    qber_hat, i_ae_hat, accuracy, attack_rounds = sampled_estimates(jd, n_rounds, seed)
    payload = {
        "manifest": _manifest(
            "simulate", protocol, {"q": q, "n_rounds": n_rounds, "sample_seed": seed}, config, t0
        ),
        "qber_hat": qber_hat,
        "i_ae_hat": i_ae_hat,
        "guess_accuracy": accuracy,
        "key_on_basis": protocol.key_on_basis,
        "analytic": {"q": q, "qber": jd.qber, "i_ae": result.i_ae, "best_alpha": result.best_alpha},
        "delta": {"qber": qber_hat - jd.qber, "i_ae": i_ae_hat - result.i_ae},
        "sifted_fraction": jd.sifted_fraction,
        "n_rounds": n_rounds,
        "n_attack_rounds": attack_rounds,
    }
    _write_json(out_path, payload)
    return payload


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkdattack",
        description="Optimal immediate-measurement eavesdropping: curves, thresholds, Monte Carlo checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = OptimizerConfig()

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--protocol", required=True, choices=sorted(PROTOCOLS))
        p.add_argument("--restarts", type=int, default=defaults.restarts)
        p.add_argument("--seed", type=int, default=defaults.seed)
        p.add_argument("--alpha-grid-points", type=int, default=defaults.alpha_grid_points)
        p.add_argument("--out", required=True, help="output file path")

    p_curve = sub.add_parser("curve", help="key-rate sweep over a QBER grid, CSV output")
    common(p_curve)
    p_curve.add_argument("--q-min", type=float, default=0.0)
    p_curve.add_argument("--q-max", type=float, default=0.25)
    p_curve.add_argument("--steps", type=int, default=26)

    p_thr = sub.add_parser("threshold", help="bisection for the zero key-rate QBER, JSON output")
    common(p_thr)
    p_thr.add_argument("--tolerance", type=float, default=1e-3)

    p_att = sub.add_parser("attack", help="optimized attack at a single QBER, JSON output")
    common(p_att)
    p_att.add_argument("--q", type=float, required=True)

    p_sim = sub.add_parser("simulate", help="Monte Carlo cross-validation, JSON output")
    common(p_sim)
    p_sim.add_argument("--q", type=float, required=True)
    p_sim.add_argument("--n-rounds", type=int, default=10**5)
    p_sim.add_argument("--sample-seed", type=int, default=0)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    protocol = PROTOCOLS[args.protocol]
    try:
        config = OptimizerConfig(
            restarts=args.restarts, seed=args.seed, alpha_grid_points=args.alpha_grid_points
        )
        if args.command == "curve":
            points = cmd_curve(protocol, args.q_min, args.q_max, args.steps, config, args.out)
            print(f"wrote {len(points)} rows to {args.out}")
        elif args.command == "threshold":
            payload = cmd_threshold(protocol, args.tolerance, config, args.out)
            print(f"threshold_q = {payload['threshold_q']:.6g} (wrote {args.out})")
        elif args.command == "attack":
            payload = cmd_attack(protocol, args.q, config, args.out)
            print(f"i_ae = {payload['i_ae']:.10g} at q = {args.q:g} (wrote {args.out})")
        else:
            payload = cmd_simulate(
                protocol, args.q, args.n_rounds, args.sample_seed, config, args.out
            )
            print(
                f"qber_hat = {payload['qber_hat']:.6g}, i_ae_hat = {payload['i_ae_hat']:.6g} "
                f"(wrote {args.out})"
            )
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
