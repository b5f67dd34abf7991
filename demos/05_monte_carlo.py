"""Sampled rounds against the analytic attack figures.

Draws finite protocol rounds from the exact joint distribution of the
optimized attack, then checks that plug-in estimates land on the numbers
the optimizer reported.

Run:  python3 demos/05_monte_carlo.py
"""

import numpy as np

from qkdattack import (
    PROTOCOLS,
    OptimizerConfig,
    empirical_stats,
    joint_distribution,
    optimize_attack,
    purified_state,
    sample_rounds,
)

CONFIG = OptimizerConfig(restarts=8, alpha_grid_points=9, alpha_refine_iters=2)
N_ROUNDS = 400_000


def run(name: str, q: float, seed: int) -> None:
    proto = PROTOCOLS[name]
    res = optimize_attack(proto, q, CONFIG)
    ps = purified_state(proto, q, res.best_alpha)
    jd = joint_distribution(ps, res.best_povm)

    samples = sample_rounds(jd, N_ROUNDS, seed=seed)
    attack = samples[samples["theta"] < proto.attack_basis_count]
    qhat = float(np.mean(samples["y"] != samples["x"]))
    _, ihat, acc = empirical_stats(attack, proto.attack_basis_count, proto.key_on_basis)

    # round-averaged error; differs from q when bases err unequally (sarg04)
    p_err = jd.qber
    sigma = np.sqrt(p_err * (1 - p_err) / N_ROUNDS)
    print(f"{name} at q = {q}, n = {N_ROUNDS}")
    print(f"  round error: sampled {qhat:.5f}  analytic {p_err:.5f}  (3 sigma = {3 * sigma:.5f})")
    print(f"  i_ae:        sampled {ihat:.5f}  analytic {res.i_ae:.5f}")
    print(f"  guess accuracy over attack bases: {acc:.5f}")
    print(f"  sifted fraction: {jd.sifted_fraction:.4f}, attack rounds kept: {len(attack)}")
    print()


def main() -> None:
    run("bb84", 0.10, seed=11)
    run("sixstate", 0.10, seed=12)
    run("sarg04", 0.10, seed=13)


if __name__ == "__main__":
    main()
