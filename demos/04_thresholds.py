"""Locate the zero of the key rate for each protocol and compare regimes.

Run:  python3 demos/04_thresholds.py   (about 7 s on 2 CPUs)
"""

from qkdattack import PROTOCOLS, OptimizerConfig, bb84_closed_form_iae, find_threshold, key_rate

CONFIG = OptimizerConfig(restarts=12, alpha_grid_points=15, alpha_refine_iters=3)


def closed_form_root(scale: float) -> float:
    """The q in [0.05, 0.25] where 1 - h(q) = bb84_closed_form_iae(scale * q), by bisection."""
    lo, hi = 0.05, 0.25
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if key_rate(mid, bb84_closed_form_iae(scale * mid)) > 0 else (lo, mid)
    return 0.5 * (lo + hi)


def main() -> None:
    near_published = holds_root = True
    for name in ("bb84", "sixstate", "sarg04"):
        protocol = PROTOCOLS[name]
        rep = find_threshold(protocol, 1e-3, CONFIG)
        lo, hi = rep.bracket
        print(f"{name}: threshold q* = {rep.threshold_q:.4f}  bracket [{lo:.5f}, {hi:.5f}]  ({len(rep.probes)} probes)")
        print(f"  rate at bracket: {rep.rate_low:+.2e} -> {rep.rate_high:+.2e}")
        if protocol.closed_form_q_scale is not None:
            root = closed_form_root(protocol.closed_form_q_scale)
            holds_root &= lo <= root <= hi
            print(f"  closed-form root {root:.6f}" + (" (inside the bracket)" if lo <= root <= hi else " (OUTSIDE)"))
        near_published &= abs(rep.threshold_q - rep.references["memoryless"]) <= 0.003
        for regime, q in sorted(rep.references.items(), key=lambda kv: kv[1]):
            marker = " <- this attack" if regime == "memoryless" else ""
            print(f"  {regime:<12} {q:.3f}{marker}")
        print()

    print("in every block above the memoryless row sits to the right of the individual row;")
    print(f"every q* lies within +/-0.003 of its published value: {'yes' if near_published else 'NO'};")
    print(f"every closed-form root lies inside its bracket: {'yes' if holds_root else 'NO'}")


if __name__ == "__main__":
    main()
