"""Reference math the benchmark checks the program's outputs against.

Nothing here calls into ``cvqec``: gate semantics come from the
substitution table the package documents, the canonical check is built
from unit vectors, code parameters come from matrix ranks, and noise
variances and p-values come from closed forms.

Conventions follow the package: phase vectors are ``(p | x)``, quadrature
actions are ``(x | p)``, and ``J = [[0, I], [-I, 0]]`` serves both.
"""

from __future__ import annotations

import math

import numpy as np


def symplectic_form(n: int) -> np.ndarray:
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


def compose_circuit(gates: list[dict], n: int) -> np.ndarray:
    """Quadrature action of a circuit file's gate list, first gate innermost.

    Each gate left-multiplies the running matrix, which rewrites only the
    rows of its modes by the documented substitution rules (i, j are the
    gate's modes; primes mark the new rows):

    * SQUEEZE(a):   x_i' = a x_i,  p_i' = p_i / a
    * FOURIER:      x_i' = -p_i,   p_i' = x_i
    * FOURIER_INV:  x_i' = p_i,    p_i' = -x_i   (inverse of FOURIER)
    * QND_X(g):     p_i' = p_i - g p_j,  x_j' = x_j + g x_i
    * QND_P(g):     x_i' = x_i - g x_j,  p_j' = p_j + g p_i
    * PHASE_X(g):   p_i' = p_i + g x_i
    * PHASE_P(g):   x_i' = x_i + g p_i
    * SWAP:         exchanges the rows of modes i and j
    """
    m = np.eye(2 * n)
    for gate in gates:
        kind = gate["gate"]
        modes = [int(q) - 1 for q in gate["modes"]]
        g = gate.get("param")
        xi, pi = modes[0], n + modes[0]
        if kind == "SQUEEZE":
            m[xi] *= g
            m[pi] /= g
        elif kind == "FOURIER":
            m[[xi, pi]] = np.stack([-m[pi], m[xi]])
        elif kind == "FOURIER_INV":
            m[[xi, pi]] = np.stack([m[pi], -m[xi]])
        elif kind == "PHASE_X":
            m[pi] += g * m[xi]
        elif kind == "PHASE_P":
            m[xi] += g * m[pi]
        else:
            xj, pj = modes[1], n + modes[1]
            if kind == "QND_X":
                m[pi] -= g * m[pj]
                m[xj] += g * m[xi]
            elif kind == "QND_P":
                m[xi] -= g * m[xj]
                m[pj] += g * m[pi]
            elif kind == "SWAP":
                m[[xi, xj, pi, pj]] = m[[xj, xi, pj, pi]]
            else:
                raise ValueError(f"unknown gate kind {kind!r}")
    return m


def symplectic_defect(m: np.ndarray) -> float:
    """max |M^T J M - J|, relative to max |M|^2 (0 for an exact symplectic map)."""
    j = symplectic_form(m.shape[0] // 2)
    return float(np.max(np.abs(m.T @ j @ m - j))) / max(1.0, float(np.max(np.abs(m))) ** 2)


def canonical_check(n: int, k: int, l: int, c: int) -> np.ndarray:
    """Canonical parity check: unit p-vectors on modes 1..c+l, unit x-vectors on 1..c."""
    eye = np.eye(2 * n)
    return eye[list(range(c + l)) + [n + i for i in range(c)]]


def rank(a: np.ndarray, rtol: float = 1e-9) -> int:
    """Numerical rank, counting singular values above rtol times the largest."""
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(s > rtol * s[0])) if s[0] > 0 else 0


def code_parameters(rows: np.ndarray) -> tuple[int, int, int, int]:
    """(n, k, l, c) of a rowspace: m = rank(R), c = rank(R J R^T)/2, l = m - 2c."""
    n = rows.shape[1] // 2
    m = rank(rows)
    c = rank(rows @ symplectic_form(n) @ rows.T) // 2
    l = m - 2 * c
    return n, n - c - l, l, c


def same_rowspace(a: np.ndarray, b: np.ndarray) -> bool:
    ra = rank(a)
    return ra == rank(b) == rank(np.vstack([a, b]))


def syndrome_noise_variances(l: int, c: int, r: float) -> np.ndarray:
    """Variance of each measured check row at squeezing r, in check-row order.

    A pair row reads x_A - x_B or p_A + p_B of a two-mode squeezed pair,
    variance e^{-2r}; an ancilla row reads x of a position-squeezed mode,
    variance e^{-2r}/2. Rows run (pair u-rows, ancilla rows, pair v-rows).
    """
    v = math.exp(-2.0 * r)
    return np.array([v] * c + [v / 2] * l + [v] * c)


def residual_variances(h: np.ndarray, m_inv: np.ndarray, params, mode: int, r: float) -> np.ndarray:
    """Per-trial variance of the corrected data means when the right mode is decoded.

    The decoder fits (p, x) on the error's mode by least squares, so the
    fitted error is off by (A^T A)^-1 A^T nu, with A the two syndrome
    columns of that mode and nu the syndrome noise. The canonical frame
    sees that offset through the inverse encoder action; the data rows of
    the result are the residual. Returned in (x block, p block) order.
    """
    n, k, l, c = params
    j = mode - 1
    a = np.stack([h[:, n + j], h[:, j]], axis=1)  # syndromes of unit p and unit x errors
    fit = np.linalg.solve(a.T @ a, a.T)  # (2, m): noise -> fitted (p, x) offset
    data = list(range(c + l, n)) + list(range(n + c + l, 2 * n))
    lin = m_inv[np.ix_(data, [n + j, j])] @ fit  # (2k, m)
    return (lin**2) @ syndrome_noise_variances(l, c, r)


# ---------------------------------------------------------------------------
# p-values
# ---------------------------------------------------------------------------


def normal_two_sided_p(z: float) -> float:
    return math.erfc(abs(z) / math.sqrt(2.0))


def _gamma_pq(a: float, x: float) -> tuple[float, float]:
    """Regularized incomplete gammas (P(a, x), Q(a, x)), each accurate in its own tail."""
    if x <= 0:
        return 0.0, 1.0
    log_prefix = a * math.log(x) - x - math.lgamma(a)
    if x < a + 1:  # series for P
        term = total = 1.0 / a
        ap = a
        while abs(term) > 1e-16 * abs(total):
            ap += 1
            term *= x / ap
            total += term
        p = total * math.exp(log_prefix)
        return p, 1.0 - p
    # modified Lentz continued fraction for Q
    tiny = 1e-300
    b = x + 1 - a
    c = 1 / tiny
    d = 1 / b
    h = d
    for i in range(1, 100000):
        an = -i * (i - a)
        b += 2
        d = an * d + b
        d = tiny if abs(d) < tiny else d
        c = b + an / c
        c = tiny if abs(c) < tiny else c
        d = 1 / d
        delta = d * c
        h *= delta
        if abs(delta - 1) < 1e-15:
            break
    q = math.exp(log_prefix) * h
    return 1.0 - q, q


def chi2_two_sided_p(stat: float, dof: int) -> float:
    """Two-sided p-value of a chi-square statistic with dof degrees of freedom."""
    lower, upper = _gamma_pq(dof / 2.0, stat / 2.0)
    return min(1.0, 2.0 * min(lower, upper))


def log_slope(r: list[float], values: list[float]) -> float:
    """Least-squares slope of log(values) against r."""
    return float(np.polyfit(np.asarray(r, dtype=float), np.log(np.asarray(values, dtype=float)), 1)[0])
