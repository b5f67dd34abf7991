"""Small dense linear algebra helpers for low-dimensional quantum states.

Everything here works on explicit numpy arrays (complex128); dimensions
never exceed 16, so clarity and strict validation win over cleverness.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    """Central numerical policy used across the package."""

    hermiticity: float = 1e-10
    psd: float = 1e-9
    completeness: float = 1e-9
    probability_floor: float = 1e-14


TOL = Tolerances()


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def is_hermitian(a: np.ndarray) -> bool:
    return bool(np.max(np.abs(a - dagger(a))) <= TOL.hermiticity)


def is_psd(a: np.ndarray) -> bool:
    """Hermitian with all eigenvalues >= -TOL.psd."""
    if not is_hermitian(a):
        return False
    return bool(np.linalg.eigvalsh(a)[0] >= -TOL.psd)


def partial_trace(rho: np.ndarray, dims: list[int], keep: set[int] | list[int]) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep``.

    Parameters
    ----------
    rho : square matrix on the tensor product of subsystems with
        dimensions ``dims`` (row-major ordering).
    dims : subsystem dimensions, e.g. [2, 2, 4].
    keep : indices of the subsystems to retain, in original order.
    """
    n = len(dims)
    expected = prod(dims)
    if rho.shape != (expected, expected):
        raise ValueError(
            f"partial_trace: expected a {expected}x{expected} matrix for dims {dims}, "
            f"got {rho.shape[0]}x{rho.shape[1]}"
        )
    keep = sorted(set(keep))
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"partial_trace: keep indices {keep} out of range for {n} subsystems")
    t = rho.reshape(dims + dims)
    cur = n
    for i in [j for j in range(n) if j not in keep][::-1]:
        t = np.trace(t, axis1=i, axis2=i + cur)
        cur -= 1
    d_keep = prod(dims[k] for k in keep)
    return t.reshape(d_keep, d_keep)

