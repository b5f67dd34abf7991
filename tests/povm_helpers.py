"""Random measurements for tests; the library itself only builds optimized ones."""

import numpy as np

from qkdattack.information import Povm
from qkdattack.linalg import dagger


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
