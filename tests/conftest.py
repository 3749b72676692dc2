"""Shared helpers for the test suite."""

import numpy as np
import pytest
from scipy.linalg import expm

from cvqec.codes import build_code, canonical_parity_check
from cvqec.compiler import circuit_action
from cvqec.symplectic import symplectic_form

from oracle import circuit_of, fourier, fourier_inv, phase_p, phase_x, qnd_p, qnd_x, squeeze, swap


def random_gates(n, count, rng):
    """A random circuit with bounded parameters, built through `circuit_of`; never a no-op squeeze."""
    gates = []
    for _ in range(count):
        kind = int(rng.integers(0, 8))
        m1 = int(rng.integers(1, n + 1))
        m2 = int(rng.integers(1, n + 1))
        while n > 1 and m2 == m1:
            m2 = int(rng.integers(1, n + 1))
        g = float(rng.uniform(-2.0, 2.0))
        a = float(rng.uniform(0.5, 2.0)) * float(rng.choice([-1.0, 1.0]))
        if n == 1 and kind in (3, 4, 7):
            kind = 5
        builders = [
            lambda: squeeze(m1, a),
            lambda: fourier(m1),
            lambda: fourier_inv(m1),
            lambda: qnd_x(m1, m2, g),
            lambda: qnd_p(m1, m2, g),
            lambda: phase_x(m1, g),
            lambda: phase_p(m1, g),
            lambda: swap(m1, m2),
        ]
        gates.append(builders[kind]())
    return circuit_of(n, gates)


def mixed_code(n, k, l, c, seed):
    """The canonical (n,k,l,c) checks carried through a seeded random symplectic map."""
    mixing = random_gates(n, 20, np.random.default_rng(seed))
    return build_code(canonical_parity_check(n, k, l, c) @ circuit_action(mixing).T)


def random_symplectic_from_gates(n, rng, count=50):
    return circuit_action(random_gates(n, count, rng))


def random_symplectic_from_hamiltonian(n, rng, scale=None):
    """exp(J H) with H symmetric is symplectic; scale keeps norms moderate."""
    h = rng.normal(size=(2 * n, 2 * n))
    h = (h + h.T) / (2.0 if scale is None else scale) / (2 * n)
    return expm(symplectic_form(n) @ h)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
