import numpy as np
import pytest

from cvqec import reference
from cvqec.errors import DimensionMismatchError, NotSymplecticError
from cvqec.symplectic import (
    is_symplectic,
    quad_action_to_phase_map,
    require_symplectic,
    swap_halves,
    symplectic_form,
    symplectic_product,
)

from conftest import random_symplectic_from_gates


def test_product_on_reference_pair():
    rows = reference.symplectic_basis_rows()
    u1, v1 = rows[0], rows[2]
    assert symplectic_product(u1, v1) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_product_standard_basis(n):
    e = np.eye(2 * n)
    assert symplectic_product(e[0], e[n]) == 1.0


def test_product_self_is_zero(rng):
    for _ in range(10):
        u = rng.normal(size=8)
        assert symplectic_product(u, u) == 0.0


def test_antisymmetry_and_bilinearity(rng):
    for _ in range(25):
        u, v, w = rng.normal(size=(3, 6))
        a, b = rng.normal(size=2)
        assert symplectic_product(u, v) == pytest.approx(-symplectic_product(v, u), abs=1e-12)
        lhs = symplectic_product(a * u + b * v, w)
        rhs = a * symplectic_product(u, w) + b * symplectic_product(v, w)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_product_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        symplectic_product(np.ones(4), np.ones(6))


def test_is_symplectic_basics():
    assert is_symplectic(np.eye(6), 1e-12)
    assert is_symplectic(symplectic_form(3), 1e-12)
    bad = np.eye(4)
    bad[0, 0] = 2.0
    assert not is_symplectic(bad)
    with pytest.raises(DimensionMismatchError):
        is_symplectic(np.eye(3))


def test_nonfinite_matrix_is_not_symplectic():
    # a NaN defect compares false against any tolerance: both checks reject it
    bad = np.eye(4)
    bad[0, 0] = np.nan
    assert not is_symplectic(bad)
    with pytest.raises(NotSymplecticError):
        require_symplectic(bad)
    assert np.array_equal(require_symplectic(np.eye(4)), np.eye(4))


def test_product_preserved_by_symplectic(rng):
    for n in (1, 2, 4):
        m = random_symplectic_from_gates(n, rng)
        for _ in range(5):
            u, v = rng.normal(size=(2, 2 * n))
            assert symplectic_product(m @ u, m @ v) == pytest.approx(
                symplectic_product(u, v), rel=1e-9, abs=1e-9
            )


def test_swap_halves_roundtrip(rng):
    u = rng.normal(size=8)
    assert np.array_equal(swap_halves(swap_halves(u)), u)
    assert np.array_equal(swap_halves(u)[:4], u[4:])


def test_quad_map_identity():
    assert np.allclose(quad_action_to_phase_map(np.eye(4)), np.eye(4))


def test_quad_map_fourier_single_mode():
    # x -> -p, p -> x on one mode sends the displacement label (p|x) to (-x|p).
    a = np.array([[0.0, -1.0], [1.0, 0.0]])
    y = quad_action_to_phase_map(a)
    assert np.allclose(y @ np.array([2.0, 3.0]), np.array([-3.0, 2.0]))


def test_quad_map_qnd_x_matches_substitution_oracle():
    # Conjugating the observable map by the gate substitutes each quadrature
    # with its image under the inverse coupling; reading off coefficients for
    # the four basis labels of a two-mode register gives the matrix below.
    g = 0.8
    a = np.eye(4)
    a[3, 3] = 1.0
    a[1, 0] = g  # x_2 -> x_2 + g x_1
    a[2, 3] = -g  # p_1 -> p_1 - g p_2
    expected = np.array(
        [
            [1.0, -g, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, g, 1.0],
        ]
    )
    assert np.allclose(quad_action_to_phase_map(a), expected, atol=1e-12)


def test_quad_map_is_homomorphism(rng):
    for _ in range(10):
        a = random_symplectic_from_gates(3, rng, count=12)
        b = random_symplectic_from_gates(3, rng, count=12)
        lhs = quad_action_to_phase_map(a @ b)
        rhs = quad_action_to_phase_map(a) @ quad_action_to_phase_map(b)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * (1.0 + np.max(np.abs(lhs)))


def test_quad_map_inverse_contract(rng):
    # the conversion is an involution: applied twice it gives the action back
    a = random_symplectic_from_gates(2, rng)
    assert np.allclose(quad_action_to_phase_map(quad_action_to_phase_map(a)), a, atol=1e-10)


def test_quad_map_rejects_nonsymplectic():
    with pytest.raises(NotSymplecticError):
        quad_action_to_phase_map(np.diag([2.0, 1.0, 1.0, 1.0]))
