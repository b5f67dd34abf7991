"""Random measurements for tests, and their tables over every basis.

The library itself only builds optimized measurements, and tabulates
p(k | x, theta) over the attack bases only.
"""

import numpy as np

from qkdattack.information import Povm
from qkdattack.linalg import dagger
from qkdattack.states import PurifiedState, eve_conditional_state


def random_povm(dim: int, n_outcomes: int, seed: int) -> Povm:
    """Haar-unstructured random complex POVM: Gaussian factors, sandwich-normalized.

    Complex on purpose, for the library's complex-capable paths (the
    estimator and the simulator); ``.real`` of it is a real POVM.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_outcomes, dim, dim)) + 1j * rng.standard_normal((n_outcomes, dim, dim))
    stacked = a.reshape(n_outcomes * dim, dim)
    w, v = np.linalg.eigh(dagger(stacked) @ stacked)
    a = (stacked @ ((v * (1.0 / np.sqrt(np.clip(w, 1e-12, None)))) @ dagger(v))).reshape(a.shape)
    return Povm(dagger(a) @ a)


def every_basis_probs(povm: Povm, ps: PurifiedState) -> np.ndarray:
    """p(k | x, theta) as probs[k, x, theta] over every announced basis, from one state-layer call."""
    rho, _ = eve_conditional_state(ps, [[0], [1]], np.arange(ps.protocol.basis_count))
    return np.clip(np.real(np.einsum("kij,xtji->kxt", povm.elements, rho)), 0.0, 1.0)
