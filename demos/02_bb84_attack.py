"""Optimize the memoryless attack on bb84 and compare to the closed form.

Run:  python3 demos/02_bb84_attack.py
"""

import numpy as np

from qkdattack import (
    BB84,
    OptimizerConfig,
    bb84_closed_form_iae,
    conditional_probs,
    optimize_attack,
    purified_state,
)

CONFIG = OptimizerConfig(restarts=8)
POVM_Q = 0.10


def main(config: OptimizerConfig = CONFIG) -> None:
    print("q      i_ae (optimizer)  i_ae (closed form)  |diff|     alpha*   agree")
    for q in (0.02, 0.06, 0.10, 0.14, 0.18, 0.22, 0.25):
        res = optimize_attack(BB84, q, config)
        ref = bb84_closed_form_iae(q)
        print(
            f"{q:.2f}   {res.i_ae:.10f}    {ref:.10f}      {abs(res.i_ae - ref):.1e}"
            f"    {res.best_alpha:.4f}   {res.restarts_agreeing}/{config.restarts}"
        )
        if q == POVM_Q:
            best = res

    povm = best.best_povm
    # gap[k, theta] = |p(k | x=0, theta) - p(k | x=1, theta)|: how well outcome k reads basis theta's bit
    p = conditional_probs(povm, purified_state(BB84, POVM_Q, best.best_alpha)).probs
    gap = np.abs(p[:, 0] - p[:, 1])
    # the weakest read over all outcomes, and the widest gap in a basis an outcome does not read
    read, tie = gap.max(axis=1).min(), gap.min(axis=1).max()
    print(f"\noptimal POVM at q = {POVM_Q:.2f} ({povm.n_outcomes} outcomes on dim {povm.dim}):")
    print(f"  completeness: max |sum E_k - I| = {np.max(np.abs(povm.elements.sum(axis=0) - np.eye(4))):.2e}")
    for k, el in enumerate(povm.elements):
        evals = np.linalg.eigvalsh(el)
        rank = int(np.sum(evals > 1e-9))
        print(f"  E_{k}: trace = {el.trace().real:.4f}, rank = {rank}, reads basis {int(gap[k].argmax())}")
    print(f"  each outcome's bit probabilities differ by at least {read:.2f} in the basis it reads")
    print(f"  and by at most {tie:.1e} in the other: " + ("an exact tie" if tie == 0 else "a near tie, not an exact one"))


if __name__ == "__main__":
    main()
