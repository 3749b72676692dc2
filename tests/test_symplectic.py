import numpy as np
import pytest

from cvqec import reference
from cvqec.errors import DimensionMismatchError, NotSymplecticError
from cvqec.symplectic import require_symplectic, swap_halves, symplectic_form

from conftest import random_symplectic_from_gates
from oracle import is_symplectic, symplectic_product


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
    for check in (is_symplectic, require_symplectic):
        with pytest.raises(DimensionMismatchError):
            check(np.eye(3))


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
