import numpy as np
import pytest

from qkdattack.linalg import is_psd, partial_trace
from qkdattack.states import (
    BB84,
    PROTOCOLS,
    SARG04,
    SIX_STATE,
    BellDiagonalParams,
    PurifiedState,
    alpha_at,
    alpha_range,
    amplitude_map,
    amplitudes,
    basis_projector,
    bell_basis,
    bob_bit_projector,
    bob_eve_conditional_state,
    eve_conditional_state,
    purified_state,
    purify,
    qber_in_basis,
    rho_ab,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
EYE2 = np.eye(2, dtype=complex)


def test_protocol_registry():
    assert set(PROTOCOLS) == {"bb84", "sixstate", "sarg04"}
    assert BB84.basis_count == 2 and SIX_STATE.basis_count == 3 and SARG04.basis_count == 2
    # the attack estimator uses a basis pair for every protocol
    for p in PROTOCOLS.values():
        assert p.attack_basis_count == 2
        assert p.povm_outcomes == 4
    assert SARG04.key_on_basis and not BB84.key_on_basis and not SIX_STATE.key_on_basis


def test_bell_basis_orthonormal():
    b = bell_basis()
    assert np.allclose(b @ b.conj().T, np.eye(4), atol=1e-12)


def test_bell_basis_bit_flip_action():
    b = bell_basis()
    phi_plus, phi_minus, psi_plus, psi_minus = b
    # X on one side maps the phi pair onto the psi pair
    assert np.allclose(np.kron(X, EYE2) @ phi_plus, psi_plus)
    assert np.allclose(np.kron(X, EYE2) @ phi_minus, -psi_minus)
    # X on both sides leaves phi+ invariant
    assert np.allclose(np.kron(X, X) @ phi_plus, phi_plus)


def test_basis_projectors():
    for proto in PROTOCOLS.values():
        for theta in range(proto.basis_count):
            p0 = basis_projector(proto, 0, theta)
            p1 = basis_projector(proto, 1, theta)
            assert np.allclose(p0 + p1, EYE2, atol=1e-12)
            assert np.allclose(p0 @ p0, p0, atol=1e-12)
            assert abs(np.trace(p0) - 1) < 1e-12
    with pytest.raises(ValueError, match="out of range"):
        basis_projector(BB84, 0, 2)
    with pytest.raises(ValueError, match="not a bit"):
        basis_projector(BB84, 2, 0)


def _literal_basis_vector(x, theta):
    # the basis vectors as written before the bases became a table
    s = 1.0 / np.sqrt(2.0)
    if theta == 0:
        return np.array([1.0 - x, float(x)], dtype=complex)
    if theta == 1:
        return np.array([s, s if x == 0 else -s], dtype=complex)
    return np.array([s, 1j * s if x == 0 else -1j * s], dtype=complex)


@pytest.mark.parametrize("proto", PROTOCOLS.values(), ids=lambda p: p.name)
def test_basis_table_matches_literal_vectors(proto):
    for theta in range(proto.basis_count):
        for x in (0, 1):
            v = _literal_basis_vector(x, theta)
            literal = np.outer(v, v.conj())
            assert np.array_equal(basis_projector(proto, x, theta), literal)
            assert np.array_equal(bob_bit_projector(proto, x, theta), literal.conj())


def test_bob_projector_conjugates_circular_basis():
    # real bases coincide, the circular basis swaps handedness
    for theta in (0, 1):
        assert np.allclose(bob_bit_projector(BB84, 0, theta), basis_projector(BB84, 0, theta))
    p_plus_i = basis_projector(SIX_STATE, 0, 2)
    assert np.allclose(bob_bit_projector(SIX_STATE, 0, 2), basis_projector(SIX_STATE, 1, 2))
    assert not np.allclose(bob_bit_projector(SIX_STATE, 0, 2), p_plus_i)


def test_alpha_range_families():
    assert alpha_range(BB84, 0.1) == (0.8, 0.9)
    lo, hi = alpha_range(SIX_STATE, 0.1)
    assert lo == hi == pytest.approx(0.85)
    assert alpha_range(SARG04, 0.1) == (0.75, 0.85)
    with pytest.raises(ValueError, match="outside"):
        alpha_range(BB84, 0.6)


def _literal_family(name, q, alpha):
    # the family formulas as written before protocols became data
    if name == "bb84":
        return (1.0 - 2.0 * q, 1.0 - q), (alpha, 1 - q - alpha, 1 - q - alpha, 2 * q - 1 + alpha)
    if name == "sixstate":
        return (1.0 - 1.5 * q, 1.0 - 1.5 * q), (1 - 1.5 * q, 0.5 * q, 0.5 * q, 0.5 * q)
    return (1.0 - 2.5 * q, 1.0 - 1.5 * q), (alpha, 1 - q - alpha, 1 - 1.5 * q - alpha, 2.5 * q - 1 + alpha)


@pytest.mark.parametrize("proto", PROTOCOLS.values(), ids=lambda p: p.name)
def test_protocol_data_matches_literal_formulas(proto):
    rng = np.random.default_rng(1106)
    for q in rng.uniform(0.0, 0.5, 500).tolist():
        (lo, hi), _ = _literal_family(proto.name, q, 0.0)
        lo, hi = max(lo, 0.0), min(hi, 1.0)
        assert alpha_range(proto, q) == (lo, hi)
        for alpha in rng.uniform(lo, hi, 4).tolist():
            _, params = rho_ab(proto, q, alpha)
            assert tuple(params.weights.tolist()) == _literal_family(proto.name, q, alpha)[1]


def test_rho_ab_weight_families():
    _, p = rho_ab(BB84, 0.1, 0.85)
    assert np.allclose(p.weights, [0.85, 0.05, 0.05, 0.05])
    _, p = rho_ab(SIX_STATE, 0.1, 0.85)
    assert np.allclose(p.weights, [0.85, 0.05, 0.05, 0.05])
    _, p = rho_ab(SARG04, 0.1, 0.8)
    assert np.allclose(p.weights, [0.8, 0.1, 0.05, 0.05])


def test_rho_ab_endpoints():
    rho, _ = rho_ab(BB84, 0.0, 1.0)
    phi_plus = bell_basis()[0]
    assert np.allclose(rho, np.outer(phi_plus, phi_plus.conj()), atol=1e-12)
    rho, _ = rho_ab(SIX_STATE, 0.5, 0.25)
    assert np.allclose(rho, np.eye(4) / 4, atol=1e-12)


def test_rho_ab_structure_over_grid():
    bell = bell_basis()
    rng = np.random.default_rng(11)
    for proto in PROTOCOLS.values():
        for q in rng.uniform(0.0, 0.45, size=8):
            lo, hi = alpha_range(proto, q)
            alpha = rng.uniform(lo, hi)
            rho, params = rho_ab(proto, q, alpha)
            assert is_psd(rho)
            assert abs(np.trace(rho) - 1) < 1e-12
            in_bell = bell.conj() @ rho @ bell.T
            off = in_bell - np.diag(np.diag(in_bell))
            assert np.max(np.abs(off)) < 1e-12
            assert np.allclose(np.diag(in_bell).real, params.weights, atol=1e-12)


def test_rho_ab_rejects_alpha_outside_range():
    with pytest.raises(ValueError, match="alpha"):
        rho_ab(BB84, 0.1, 0.95)
    # inside the interval bounds but producing a negative weight is impossible
    # by construction; the weight named in the params error is checked here
    with pytest.raises(ValueError, match="psi-"):
        BellDiagonalParams(BB84, 0.1, 0.9, 0.1, 0.1, -0.1)
    with pytest.raises(ValueError, match="sum to"):
        BellDiagonalParams(BB84, 0.1, 0.9, 0.2, 0.05, 0.05)


def test_qber_reconstruction_bb84():
    for q in (0.0, 0.05, 0.11, 0.25):
        for alpha in np.linspace(*alpha_range(BB84, q), 3):
            rho, _ = rho_ab(BB84, q, float(alpha))
            assert abs(qber_in_basis(rho, BB84, 0) - q) < 1e-12
            assert abs(qber_in_basis(rho, BB84, 1) - q) < 1e-12


def test_qber_reconstruction_sixstate_all_bases():
    for q in (0.0, 0.1, 0.2, 0.3):
        rho, _ = rho_ab(SIX_STATE, q, 1 - 1.5 * q)
        for theta in range(3):
            assert abs(qber_in_basis(rho, SIX_STATE, theta) - q) < 1e-12


def test_qber_reconstruction_sarg04():
    # the family fixes the computational-basis error at q; its Hadamard-basis
    # error is then forced to 3q/2 by the weight constraints
    for q in (0.0, 0.1, 0.2):
        for alpha in np.linspace(*alpha_range(SARG04, q), 3):
            rho, _ = rho_ab(SARG04, q, float(alpha))
            assert abs(qber_in_basis(rho, SARG04, 0) - q) < 1e-12
            assert abs(qber_in_basis(rho, SARG04, 1) - 1.5 * q) < 1e-12


def test_purify_round_trip_random_draws():
    rng = np.random.default_rng(12)
    protos = list(PROTOCOLS.values())
    for _ in range(100):
        proto = protos[rng.integers(len(protos))]
        q = float(rng.uniform(0.0, 0.45))
        lo, hi = alpha_range(proto, q)
        alpha = float(rng.uniform(lo, hi))
        rho, params = rho_ab(proto, q, alpha)
        ps = purify(params)
        back = partial_trace(np.outer(ps.psi, ps.psi.conj()), [2, 2, 4], keep=[0, 1])
        assert np.max(np.abs(back - rho)) < 1e-10


@pytest.mark.parametrize("weights", [(0.25, 0.25, 0.25, 0.25), (0.85, 0.10, 0.05, 0.0)])
def test_purify_accepts_weights_off_the_family(weights):
    # purify checks against its own weights, not the family at (q, alpha)
    ps = purify(BellDiagonalParams(BB84, 0.1, *weights))
    bell = bell_basis()
    rho = sum(w * np.outer(v, v.conj()) for w, v in zip(weights, bell))
    back = partial_trace(np.outer(ps.psi, ps.psi.conj()), [2, 2, 4], keep=[0, 1])
    assert np.max(np.abs(back - rho)) < 1e-10


def test_purify_pure_weight():
    _, params = rho_ab(BB84, 0.0, 1.0)
    ps = purify(params)
    expected = np.kron(bell_basis()[0], np.eye(4)[0])
    assert np.allclose(ps.psi, expected, atol=1e-12)


def test_purify_sixstate_coefficients():
    _, params = rho_ab(SIX_STATE, 0.1, 0.85)
    ps = purify(params)
    bell = bell_basis()
    eye4 = np.eye(4)
    amps = [np.vdot(np.kron(bell[i], eye4[i]), ps.psi) for i in range(4)]
    assert np.allclose(amps, [np.sqrt(0.85)] + [np.sqrt(0.05)] * 3, atol=1e-12)


def test_eve_conditional_probability_half():
    rng = np.random.default_rng(13)
    for proto in PROTOCOLS.values():
        q = float(rng.uniform(0.02, 0.4))
        lo, hi = alpha_range(proto, q)
        ps = purified_state(proto, q, float(rng.uniform(lo, hi)))
        for theta in range(proto.basis_count):
            total = 0.0
            for x in (0, 1):
                _, p = eve_conditional_state(ps, x, theta)
                assert abs(p - 0.5) < 1e-12
                total += p
            assert abs(total - 1.0) < 1e-12


def test_eve_decoupled_at_zero_noise():
    ps = purified_state(BB84, 0.0, 1.0)
    e0 = np.zeros((4, 4))
    e0[0, 0] = 1.0
    for x in (0, 1):
        for theta in (0, 1):
            rho, _ = eve_conditional_state(ps, x, theta)
            assert np.allclose(rho, e0, atol=1e-12)


def test_no_signaling_across_bases():
    rng = np.random.default_rng(14)
    for proto in PROTOCOLS.values():
        q = float(rng.uniform(0.02, 0.4))
        lo, hi = alpha_range(proto, q)
        ps = purified_state(proto, q, float(rng.uniform(lo, hi)))
        marginals = []
        for theta in range(proto.basis_count):
            m = sum(0.5 * eve_conditional_state(ps, x, theta)[0] for x in (0, 1))
            marginals.append(m)
        for m in marginals[1:]:
            assert np.max(np.abs(m - marginals[0])) < 1e-10


def test_bob_eve_conditional_state():
    ps = purified_state(BB84, 0.0, 1.0)
    rho_be = bob_eve_conditional_state(ps, 0, 0)
    expected = np.zeros((8, 8))
    expected[0, 0] = 1.0
    assert np.allclose(rho_be, expected, atol=1e-12)

    ps = purified_state(BB84, 0.1, 0.9)
    for x in (0, 1):
        for theta in (0, 1):
            rho_be = bob_eve_conditional_state(ps, x, theta)
            rho_e, _ = eve_conditional_state(ps, x, theta)
            assert np.max(np.abs(partial_trace(rho_be, [2, 4], keep=[1]) - rho_e)) < 1e-10
    # receiver error probability in the computational basis equals q
    rho_be = bob_eve_conditional_state(ps, 0, 0)
    flip = np.kron(bob_bit_projector(BB84, 1, 0), np.eye(4))
    assert abs(np.real(np.trace(rho_be @ flip)) - 0.1) < 1e-12


@pytest.mark.parametrize("proto", PROTOCOLS.values(), ids=lambda p: p.name)
def test_grid_call_matches_scalar_calls_bit_for_bit(proto):
    # one call over every (x, theta), six-state's circular basis included, gives each
    # scalar call's projectors, E and BE states and probabilities to the last bit
    bits, theta = [[0], [1]], np.arange(proto.basis_count)
    cells = [(x, t) for x in (0, 1) for t in range(proto.basis_count)]
    for projector in (basis_projector, bob_bit_projector):
        grid = projector(proto, bits, theta)
        assert grid.shape == (2, proto.basis_count, 2, 2)
        assert all(np.array_equal(grid[x, t], projector(proto, x, t)) for x, t in cells)
    for q in np.linspace(0.0, 0.5, 6):
        for alpha in np.linspace(*alpha_range(proto, q), 3):
            ps = purified_state(proto, float(q), float(alpha))
            rho_e, p = eve_conditional_state(ps, bits, theta)
            rho_be = bob_eve_conditional_state(ps, bits, theta)
            assert rho_e.shape == (2, proto.basis_count, 4, 4) and p.shape == (2, proto.basis_count)
            assert rho_be.shape == (2, proto.basis_count, 8, 8)
            for x, t in cells:
                scalar_e, scalar_p = eve_conditional_state(ps, x, t)
                assert type(scalar_p) is float
                assert np.array_equal(rho_e[x, t], scalar_e) and p[x, t] == scalar_p
                assert np.array_equal(rho_be[x, t], bob_eve_conditional_state(ps, x, t))


def test_grid_call_names_the_entry_that_fails():
    ps = purified_state(SIX_STATE, 0.1, 0.85)
    for call in (eve_conditional_state, bob_eve_conditional_state):
        with pytest.raises(ValueError, match=r"^x=2 is not a bit$"):
            call(ps, [[0], [2]], np.arange(3))
        with pytest.raises(ValueError, match=r"^theta=3 out of range for sixstate \(3 bases\)$"):
            call(ps, [[0], [1]], np.arange(4))
    with pytest.raises(ValueError, match=r"^theta=2 out of range for bb84 \(2 bases\)$"):
        bob_bit_projector(BB84, [[0], [1]], [0, 2])
    # a product state holds A in |0>: the floor catches the one (x, theta) of zero probability
    product = PurifiedState(np.eye(16, dtype=complex)[0], ps.params)
    with pytest.raises(ValueError, match=r"^conditioning on \(x=1, theta=0\) has probability 0\.000e\+00$"):
        eve_conditional_state(product, [[0], [1]], np.arange(3))


def _textbook_conditioned(ps, x, theta, keep):
    # the definition, on the 16x16 density: project A, then trace out every subsystem not kept
    op = np.kron(basis_projector(ps.protocol, x, theta), np.eye(8))
    unnorm = partial_trace(op @ np.outer(ps.psi, ps.psi.conj()), [2, 2, 4], keep)
    p = float(np.real(np.trace(unnorm)))
    return unnorm / p, p


@pytest.mark.parametrize("proto", PROTOCOLS.values(), ids=lambda p: p.name)
def test_state_layer_matches_its_textbook_definitions(proto):
    bell, eye4 = bell_basis(), np.eye(4)
    grid = [(q, alpha) for q in np.linspace(0.0, 0.5, 6) for alpha in np.linspace(*alpha_range(proto, q), 3)]
    for q, alpha in grid:
        ps = purified_state(proto, float(q), float(alpha))
        params = ps.params
        expected_psi = sum(np.sqrt(w) * np.kron(bell[i], eye4[i]) for i, w in enumerate(params.weights) if w > 0)
        assert np.array_equal(ps.psi, expected_psi)
        expected_rho = sum(w * np.outer(v, v.conj()) for w, v in zip(params.weights, bell) if w > 0)
        assert np.max(np.abs(params.rho - expected_rho)) <= 1e-15
        for x in (0, 1):
            for theta in range(proto.basis_count):
                rho_e, p = eve_conditional_state(ps, x, theta)
                expected_e, expected_p = _textbook_conditioned(ps, x, theta, [2])
                assert np.max(np.abs(rho_e - expected_e)) <= 1e-15 and abs(p - expected_p) <= 1e-15
                expected_be, _ = _textbook_conditioned(ps, x, theta, [1, 2])
                assert np.max(np.abs(bob_eve_conditional_state(ps, x, theta) - expected_be)) <= 1e-15


@pytest.mark.parametrize("proto", list(PROTOCOLS.values()), ids=lambda p: p.name)
def test_amplitude_map_stays_in_the_family(proto):
    # for every real u, alpha(u) = lo + (hi - lo) sin^2 u lies in [lo, hi]
    # with no clamp, and the squared amplitudes are the family's Bell weights
    # there, so they sum to 1; at q = 0.45 sarg04's lo is clipped to 0
    u = np.concatenate([np.linspace(-20.0, 20.0, 801), np.pi / 2 * np.arange(-5, 6)])
    for q in (0.0, 0.05, 0.1, 0.175, 0.3, 0.45):
        lo, hi = alpha_range(proto, q)
        s, _ = amplitudes(amplitude_map(proto, q), u)
        for u_i, s_i in zip(u, s):
            alpha = alpha_at(proto, q, u_i)
            assert lo <= alpha <= hi, (q, u_i)
            weights = purified_state(proto, q, alpha).params.weights
            assert np.max(np.abs(s_i**2 - weights)) <= 1e-14, (q, u_i)
