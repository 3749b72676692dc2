"""Phase-space vectors, the symplectic form, and symplectic matrices.

Two index conventions coexist and are pinned here once and for all:

* **Phase vectors** are momentum-first, ``u = (p_1 .. p_n | x_1 .. x_n)``.
  They label displacements and parity-check rows.
* **Quadrature actions** are position-first ``(x_1 .. x_n, p_1 .. p_n)``
  and describe how a Gaussian unitary rewrites the quadrature operators,
  i.e. the matrix that multiplies mean vectors in the simulator.

Both orderings share the same block form matrix ``J = [[0, I], [-I, 0]]``.
A phase vector, read as a plain coefficient tuple, pairs component-wise
with the quadrature column ``(x_1 .. x_n, p_1 .. p_n)``: the p-components
multiply position operators and the x-components multiply momentum
operators.  If a Gaussian unitary rewrites the quadrature column as
``R -> A R``, conjugating a displacement by it relabels the phase vector
as ``u -> (A^T)^{-1} u``, which for symplectic ``A`` is ``-J A J``.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NotSymplecticError

DEFAULT_TOL = 1e-9


def symplectic_form(n: int) -> np.ndarray:
    """Return the 2n x 2n block form matrix ``[[0, I], [-I, 0]]``."""
    if n < 1:
        raise DimensionMismatchError(f"mode count must be >= 1, got {n}")
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


def mode_count(v: np.ndarray) -> int:
    """Mode count of a phase vector (or row), validating the 2n layout."""
    v = np.asarray(v)
    if v.ndim != 1 or v.shape[0] % 2 != 0 or v.shape[0] < 2:
        raise DimensionMismatchError(f"expected a vector of even length >= 2, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise DimensionMismatchError("phase vector entries must be finite")
    return v.shape[0] // 2


def as_phase_vector(v, n: int | None = None) -> np.ndarray:
    """Coerce to a float phase vector, optionally checking the mode count."""
    u = np.asarray(v, dtype=float)
    m = mode_count(u)
    if n is not None and m != n:
        raise DimensionMismatchError(f"expected {n} modes, got {m}")
    return u


def scaled_defect(rows: np.ndarray) -> float:
    """Largest entry of the Gram defect ``rows J rows^T - J``, each entry against its own two rows; NaN if ``rows`` is not finite.

    ``rows`` is (2p, 2n), and the J it is held to is that of p modes.
    Entry (i, j) is divided by ``max(1, |r_i| |r_j|)``, the largest
    entries of the two rows it pairs, so one large row sets only its own
    bound.  No J is built: the form's +-1 entries are subtracted in place,
    which gives the same bits as subtracting a dense J.
    """
    if not np.isfinite(rows).all():
        return float("nan")
    n, p = rows.shape[1] // 2, rows.shape[0] // 2
    products = rows[:, :n] @ rows[:, n:].T  # rows J rows^T = P X^T - X P^T
    defect = products - products.T
    diagonal = np.arange(p)
    defect[diagonal, p + diagonal] -= 1.0
    defect[p + diagonal, diagonal] += 1.0
    size = np.abs(rows).max(axis=1)
    return float((np.abs(defect) / np.maximum(np.outer(size, size), 1.0)).max())


def _defect(m: np.ndarray) -> float:
    """`scaled_defect` of ``M^T J M - J``: entry (i, j) against columns i and j of ``m``."""
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
        raise DimensionMismatchError(f"expected a square matrix of even dimension, got shape {m.shape}")
    return scaled_defect(m.T)


def is_symplectic(m, tol: float = DEFAULT_TOL) -> bool:
    """True iff each entry of ``M^T J M - J`` is within ``tol`` on its columns' scale (see `scaled_defect`)."""
    return _defect(np.asarray(m, dtype=float)) <= tol


def require_symplectic(m, what: str = "matrix") -> np.ndarray:
    """Validate symplecticity as `is_symplectic` does at `DEFAULT_TOL`, returning the matrix as a float array.

    No module of the package calls it: a code's basis is checked by
    `codes.verify_code`, and `decompose` takes a code.  It stays because
    the benchmark's tracer (``chainbench/tracer.py``) wraps it by name.
    """
    m = np.asarray(m, dtype=float)
    defect = _defect(m)
    if not defect <= DEFAULT_TOL:  # a non-finite entry gives a NaN defect
        raise NotSymplecticError(f"{what} violates the symplectic condition (scaled defect {defect:.3e} > tol {DEFAULT_TOL:.3e})")
    return m


def symplectic_inverse(m: np.ndarray) -> np.ndarray:
    """``-J m^T J`` as a signed swap of blocks: a symplectic ``m``'s inverse, or from its (2p, 2n) rows at p modes, the inverse's columns there."""
    p, q, x = m.shape[0] // 2, m.shape[1] // 2, np.empty(m.shape)
    x[:p, :q], x[:p, q:], x[p:, :q], x[p:, q:] = m[p:, q:], -m[p:, :q], -m[:p, q:], m[:p, :q]
    return x.T


def swap_halves(v) -> np.ndarray:
    """Exchange the two n-blocks of a vector: (p|x) <-> (x|p).

    Applied to a phase vector this yields the quadrature-ordered mean
    displacement it produces (x-shifts first), and vice versa.
    """
    u = np.asarray(v, dtype=float)
    n = mode_count(u)
    return np.concatenate([u[n:], u[:n]])
