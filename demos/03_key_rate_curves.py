"""Key-rate curves r(q) = I(A:B) - I(A:E) for the three protocols.

Run:  python3 demos/03_key_rate_curves.py
"""

import numpy as np

from qkdattack import PROTOCOLS, OptimizerConfig, tabulate_curve

CONFIG = OptimizerConfig(restarts=8)


def main() -> None:
    grid = np.round(np.linspace(0.0, 0.24, 13), 4)
    curves = {
        name: tabulate_curve(PROTOCOLS[name], grid.tolist(), CONFIG)
        for name in ("bb84", "sixstate", "sarg04")
    }

    header = "q      " + "".join(f"{name:>12}" for name in curves)
    print("key rate r(q):")
    print(header)
    for i, q in enumerate(grid):
        row = "".join(f"{curves[name][i].rate:12.6f}" for name in curves)
        print(f"{q:.2f} {row}")

    print("\nadversary information i_ae(q):")
    print(header)
    for i, q in enumerate(grid):
        row = "".join(f"{curves[name][i].i_ae:12.6f}" for name in curves)
        print(f"{q:.2f} {row}")

    below = all(s.i_ae <= b.i_ae for s, b in zip(curves["sixstate"], curves["bb84"]))
    print(f"\nthe sixstate i_ae column stays at or below bb84 at every q: {'yes' if below else 'NO'}")
    print("(both rates are 1 - h(q) - i_ae, so the lower i_ae column's rate crosses zero later)")


if __name__ == "__main__":
    main()
