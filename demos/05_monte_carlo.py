"""Sampled rounds against the analytic attack figures.

Draws finite protocol rounds from the exact joint distribution of the
optimized attack, then checks that plug-in estimates land on the numbers
the optimizer reported.  The guess accuracy is that of the adversary's best
guess: for each outcome and revealed side value, the key value seen most
often there.

Run:  python3 demos/05_monte_carlo.py
"""

import numpy as np

from qkdattack import PROTOCOLS, OptimizerConfig, joint_distribution, optimize_attack, purified_state, sampled_estimates

CONFIG = OptimizerConfig(restarts=8)
N_ROUNDS = 400_000


def run(name: str, q: float, seed: int, n_rounds: int = N_ROUNDS, config: OptimizerConfig = CONFIG) -> None:
    proto = PROTOCOLS[name]
    res = optimize_attack(proto, q, config)
    jd = joint_distribution(purified_state(proto, q, res.best_alpha), res.best_povm)
    qhat, ihat, acc, kept = sampled_estimates(jd, n_rounds, seed)

    # round-averaged error; differs from q when bases err unequally (sarg04)
    p_err = jd.qber
    sigma = np.sqrt(p_err * (1 - p_err) / n_rounds)
    print(f"{name} at q = {q}, n = {n_rounds}")
    print(f"  round error: sampled {qhat:.5f}  analytic {p_err:.5f}  (3 sigma = {3 * sigma:.5f})")
    print(f"  i_ae:        sampled {ihat:.5f}  analytic {res.i_ae:.5f}")
    print(f"  best-guess accuracy over attack bases: {acc:.5f}")
    print(f"  sifted fraction: {jd.sifted_fraction:.4f}, attack rounds kept: {kept}")
    print()


def main() -> None:
    run("bb84", 0.10, seed=11)
    run("sixstate", 0.10, seed=12)
    run("sarg04", 0.10, seed=13)


if __name__ == "__main__":
    main()
