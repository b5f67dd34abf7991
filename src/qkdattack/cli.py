"""Command-line front end emitting CSV curves and JSON reports.

Subcommands: curve (key-rate sweep as CSV), threshold (slope-steered search
report), attack (single-point dump with the optimal POVM), simulate (Monte
Carlo cross-check).  ``run`` executes any of them, builds its run manifest
and writes its artifact: JSON embeds the manifest first, and a CSV gets a
sidecar ``<out>.manifest.json``.  Reruns with the same manifest arguments are
byte-identical except for the recorded duration.  ``main`` parses the
arguments into a ``run`` call and prints its summary line.

Exit codes: 0 success, 2 usage or I/O error (ValueError: a library input rule,
or simulate's early --sample-seed check), 3 numerical failure
(NumericalFailure: the search ran but its result cannot be trusted).  Exit 3
comes from a curve with more than half its points non-robust (its CSV and
manifest are still written), an attack neither robust nor converged, or a
threshold bracket with no sign change.
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
from .simulator import check_attack_rounds, joint_distribution, sampled_estimates
from .states import PROTOCOLS, Protocol, purified_state
from .keyrate import CurvePoint, NumericalFailure, bb84_closed_form_iae, find_threshold, tabulate_curve

_FMT = "%.10g"
# the options every command takes, by destination; a command's other options are its manifest params
_COMMON = {
    "protocol": {"required": True, "choices": sorted(PROTOCOLS)},
    "restarts": {"type": int, "default": OptimizerConfig.restarts},
    "seed": {"type": int, "default": OptimizerConfig.seed},
    "alpha_grid_points": {"type": int, "default": OptimizerConfig.alpha_grid_points, "help": "at least 2; changes no result"},
    "out": {"required": True, "help": "output file path"},
}


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _write_json(path: str, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2) + "\n")


def _curve(protocol: Protocol, config: OptimizerConfig, q_min: float, q_max: float, steps: int) -> dict:
    """CSV sweep of (q, i_ab, i_ae, rate, alpha, robust) over a QBER grid.

    With ``protocol.closed_form_q_scale`` s, an extra column holds the
    analytic optimum wherever it is defined (s q <= 1/4).  Returns the CSV
    text, its row count and its count of non-robust points.
    """
    points = tabulate_curve(protocol, np.linspace(q_min, q_max, max(steps, 0)), config)
    scale = protocol.closed_form_q_scale
    lines = ["q,i_ab,i_ae,rate,alpha,robust" + (",i_ae_closed_form" if scale is not None else "")]
    for pt in points:
        row = [_FMT % v for v in (pt.q, pt.i_ab, pt.i_ae, pt.rate, pt.alpha)]
        row.append("true" if pt.robust else "false")
        if scale is not None:
            row.append(_FMT % bb84_closed_form_iae(scale * pt.q) if scale * pt.q <= 0.25 else "")
        lines.append(",".join(row))
    return {"csv": "\n".join(lines) + "\n", "rows": len(points), "non_robust": sum(not pt.robust for pt in points)}


def _threshold(protocol: Protocol, config: OptimizerConfig, tolerance: float) -> dict:
    """Report of the zero-crossing of the key rate, with every probe of the search."""
    rep = find_threshold(protocol, tolerance, config)
    return {
        "threshold_q": rep.threshold_q,
        "bracket": list(rep.bracket),
        "rate_low": rep.rate_low,
        "rate_high": rep.rate_high,
        "closed_form_root": rep.closed_form_root,
        "estimator": "basis-keyed" if protocol.key_on_basis else "bit-keyed",
        "references": rep.references,
        "probes": [asdict(p) for p in rep.probes],
    }


def _attack(protocol: Protocol, config: OptimizerConfig, q: float) -> dict:
    """The optimized attack at one error rate, POVM included; an attack neither robust nor converged fails.

    ``alpha_slope`` is the best restart's dI/du in the angle u of
    alpha = lo + (hi - lo) sin^2 u, with the sign of dI/dalpha (null at a
    point interval), and ``alpha_stop`` says whether alpha ended at a
    bound, at a converged interior point, or at the iteration cap.
    """
    result = optimize_attack(protocol, q, config)
    if not result.robust and not result.converged:
        raise NumericalFailure(
            f"only {result.restarts_agreeing}/{config.restarts} restarts agree and the best did not converge"
        )
    point = CurvePoint.of(result)
    return {
        "q": q,
        "i_ae": point.i_ae,
        "i_ab": point.i_ab,
        "rate": point.rate,
        "best_alpha": result.best_alpha,
        "alpha_slope": result.alpha_slope,
        "alpha_stop": result.alpha_stop,
        "restarts_agreeing": result.restarts_agreeing,
        "converged": result.converged,
        "robust": result.robust,
        "povm_elements": [{"real": m.real.tolist(), "imag": m.imag.tolist()} for m in result.best_povm.elements],
    }


def _simulate(protocol: Protocol, config: OptimizerConfig, q: float, n_rounds: int, sample_seed: int) -> dict:
    """Monte Carlo report: sampled statistics against the analytic attack.

    The figures of ``sampled_estimates`` are checked against the table's
    exact round-averaged error ``analytic.qber`` (1.25q for sarg04) and the
    optimizer's i_ae, which the attack rounds estimate.  The round count and
    the seed are checked before the optimizer runs.
    """
    check_attack_rounds(protocol, n_rounds)
    if sample_seed < 0:
        raise ValueError(f"--sample-seed must be non-negative, got {sample_seed}")
    result = optimize_attack(protocol, q, config)
    jd = joint_distribution(purified_state(protocol, q, result.best_alpha), result.best_povm)
    qber_hat, i_ae_hat, accuracy, attack_rounds = sampled_estimates(jd, n_rounds, sample_seed)
    return {
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


# command -> (body, summary line read off the params, the payload and the out path)
_COMMANDS = {
    "curve": (_curve, "wrote {rows} rows to {out}"),
    "threshold": (_threshold, "threshold_q = {threshold_q:.6g} (wrote {out})"),
    "attack": (_attack, "i_ae = {i_ae:.10g} at q = {q:g} (wrote {out})"),
    "simulate": (_simulate, "qber_hat = {qber_hat:.6g}, i_ae_hat = {i_ae_hat:.6g} (wrote {out})"),
}


def run(command: str, protocol: Protocol, config: OptimizerConfig, out_path: str, **params) -> tuple[dict, str]:
    """Run one command, write its artifact with its run manifest, and return (payload, summary line).

    ``params`` are the command's own arguments; the manifest records them in
    the order given, next to the command, protocol, config, version and
    duration.  A JSON payload carries the manifest first.  ``curve`` writes
    its CSV and the sidecar ``<out_path>.manifest.json``, and only then
    raises NumericalFailure if more than half its points are non-robust.
    """
    body, summary = _COMMANDS[command]
    t0 = time.time()
    payload = body(protocol, config, **params)
    manifest = {
        "command": command,
        "protocol": protocol.name,
        "params": params,
        "config": asdict(config),
        "version": __version__,
        "duration_seconds": round(time.time() - t0, 3),
    }
    if command == "curve":
        _write_text(out_path, payload.pop("csv"))
        _write_json(out_path + ".manifest.json", manifest)
        if 2 * payload["non_robust"] > payload["rows"]:
            raise NumericalFailure(f"{payload['non_robust']} of {payload['rows']} grid points are non-robust")
    else:
        payload = {"manifest": manifest, **payload}
        _write_json(out_path, payload)
    return payload, summary.format_map({**params, **payload, "out": out_path})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkdattack",
        description="Optimal immediate-measurement eavesdropping: curves, thresholds, Monte Carlo checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        for dest, kwargs in _COMMON.items():
            p.add_argument("--" + dest.replace("_", "-"), **kwargs)
        return p

    p_curve = command("curve", "key-rate sweep over a QBER grid, CSV output")
    p_curve.add_argument("--q-min", type=float, default=0.0)
    p_curve.add_argument("--q-max", type=float, default=0.25)
    p_curve.add_argument("--steps", type=int, default=26)

    p_thr = command("threshold", "bracketed search for the zero key-rate QBER, JSON output")
    p_thr.add_argument("--tolerance", type=float, default=1e-3)
    p_att = command("attack", "optimized attack at a single QBER, JSON output")
    p_att.add_argument("--q", type=float, required=True)

    p_sim = command("simulate", "Monte Carlo cross-validation, JSON output")
    p_sim.add_argument("--q", type=float, required=True)
    p_sim.add_argument("--n-rounds", type=int, default=10**5)
    p_sim.add_argument("--sample-seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = vars(_build_parser().parse_args(argv))
    command = args.pop("command")
    name, restarts, seed, alpha_grid_points, out = (args.pop(dest) for dest in _COMMON)
    try:
        config = OptimizerConfig(restarts=restarts, seed=seed, alpha_grid_points=alpha_grid_points)
        _, summary = run(command, PROTOCOLS[name], config, out, **args)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
