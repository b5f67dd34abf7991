import numpy as np
import pytest

from qkdattack.linalg import TOL, Tolerances, dagger, is_hermitian, is_psd, partial_trace


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_tolerances_frozen():
    assert TOL.hermiticity == 1e-10
    assert TOL.psd == 1e-9
    with pytest.raises(Exception):
        TOL.psd = 1.0


def test_dagger_involution():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.allclose(dagger(dagger(a)), a)
    assert np.allclose(dagger(a), a.conj().T)


def test_hermitian_and_psd_checks():
    rng = np.random.default_rng(1)
    h = random_hermitian(rng, 4)
    assert is_hermitian(h)
    assert not is_hermitian(h + 1e-6 * 1j * np.eye(4))
    rho = random_density(rng, 4)
    assert is_psd(rho)
    assert not is_psd(h - 10 * np.eye(4))


def test_partial_trace_product_state():
    rng = np.random.default_rng(3)
    rho_a = random_density(rng, 2)
    rho_b = random_density(rng, 3)
    rho = np.kron(rho_a, rho_b)
    assert np.allclose(partial_trace(rho, [2, 3], keep=[0]), rho_a, atol=1e-12)
    assert np.allclose(partial_trace(rho, [2, 3], keep=[1]), rho_b, atol=1e-12)


def test_partial_trace_three_party():
    rng = np.random.default_rng(4)
    parts = [random_density(rng, d) for d in (2, 2, 4)]
    rho = np.kron(np.kron(parts[0], parts[1]), parts[2])
    assert np.allclose(partial_trace(rho, [2, 2, 4], keep=[1, 2]), np.kron(parts[1], parts[2]), atol=1e-12)
    # keeping everything is the identity operation
    assert np.allclose(partial_trace(rho, [2, 2, 4], keep=[0, 1, 2]), rho)
    # full trace preserved for any kept subset
    for keep in ([0], [1], [2], [0, 2]):
        assert abs(np.trace(partial_trace(rho, [2, 2, 4], keep=keep)) - 1.0) < 1e-12


def test_partial_trace_entangled():
    # maximally entangled pair: each marginal is maximally mixed
    psi = np.zeros(4)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    rho = np.outer(psi, psi)
    for keep in ([0], [1]):
        assert np.allclose(partial_trace(rho, [2, 2], keep=keep), np.eye(2) / 2, atol=1e-12)


def test_partial_trace_dimension_error():
    with pytest.raises(ValueError, match="8x8"):
        partial_trace(np.eye(4), [2, 4], keep=[0])
    with pytest.raises(ValueError, match="out of range"):
        partial_trace(np.eye(4), [2, 2], keep=[2])


def test_tolerances_is_dataclass_instance():
    assert isinstance(TOL, Tolerances)
    assert TOL.probability_floor < TOL.hermiticity
