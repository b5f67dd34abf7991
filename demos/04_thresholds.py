"""Locate the zero of the key rate for each protocol and compare regimes.

Run:  python3 demos/04_thresholds.py   (about 0.4 s on 2 CPUs)
"""

from qkdattack import PROTOCOLS, OptimizerConfig, find_threshold

CONFIG = OptimizerConfig(restarts=12)


def main() -> None:
    near_published = holds_root = True
    for name in ("bb84", "sixstate", "sarg04"):
        protocol = PROTOCOLS[name]
        rep = find_threshold(protocol, 1e-3, CONFIG)
        lo, hi = rep.bracket
        print(f"{name}: threshold q* = {rep.threshold_q:.4f}  bracket [{lo:.5f}, {hi:.5f}]  ({len(rep.probes)} probes)")
        print(f"  rate at bracket: {rep.rate_low:+.2e} -> {rep.rate_high:+.2e}")
        # bb84 and six-state place their first two probes around the closed-form root
        root = rep.closed_form_root
        if root is not None:
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
