"""Random measurements for tests; the library itself only builds optimized ones."""

import numpy as np

from qkdattack.information import Povm
from qkdattack.optimizer import _random_factors, _renormalize


def random_povm(dim: int, n_outcomes: int, seed: int) -> Povm:
    """Haar-unstructured random POVM: Gaussian factors, sandwich-normalized."""
    factors = _random_factors(np.random.default_rng(seed), n_outcomes, dim)[None]
    _, m = _renormalize(factors)
    return Povm(m[0])
