"""Syndromes of displacement errors and their inversion.

A displacement labelled by the phase vector ``u = (u_p | u_x)`` shifts
the observable of check row ``h = (h_p | h_x)`` by
``s = h_p . u_x + h_x . u_p`` (in normalized units, so tables stay free
of the physical scale factor).  Syndromes are reported row-for-row in
the code's normalized check order: pair u-rows first, then isotropic
rows, then pair v-rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import CodeSpec
from .errors import (
    AmbiguousSyndromeError,
    DimensionMismatchError,
    UncorrectableSyndromeError,
)
from .symplectic import as_phase_vector

DEFAULT_DECODE_TOL = 1e-6


def syndrome(code: CodeSpec, u) -> np.ndarray:
    """Syndrome of a displacement on the sender's modes, one value per check row."""
    u = as_phase_vector(u, code.n)
    return code.syndrome_matrix @ u


@dataclass(frozen=True)
class Correction:
    """A decoded error hypothesis.

    Attributes:
        u_prime: phase vector of the inferred displacement.
        mode_hypothesis: 1-based mode the error was placed on, or None for
            the zero / min-norm corrections.
        residual: norm of the unexplained syndrome component (>= 0).
    """

    u_prime: np.ndarray
    mode_hypothesis: int | None
    residual: float


def single_mode_error(n: int, mode: int, p: float, x: float) -> np.ndarray:
    """Phase vector of a displacement confined to one mode (1-based)."""
    if not 1 <= mode <= n:
        raise DimensionMismatchError(f"mode {mode} out of range 1..{n}")
    u = np.zeros(2 * n)
    u[mode - 1] = p
    u[n + mode - 1] = x
    return u


# Outcome classes of `decode_batch`, one per syndrome row.
NO_ERROR, DECODED, AMBIGUOUS, UNCORRECTABLE = 0, 1, 2, 3


@dataclass(frozen=True)
class BatchDecode:
    """Single-mode decoding of a batch of syndromes, one row per syndrome.

    Attributes:
        status: outcome class per row: NO_ERROR, DECODED, AMBIGUOUS or
            UNCORRECTABLE.
        mode_hypothesis: best-fitting mode per row (1-based), 0 on
            NO_ERROR rows.
        shift: (rows, 2) fitted (p, x) of the best-fitting mode; the
            correction of a DECODED row is that shift on that mode.
        residual: residual of the best hypothesis per row (the syndrome
            norm on NO_ERROR rows).
        residuals: (rows, n) residual of every mode hypothesis.
    """

    status: np.ndarray
    mode_hypothesis: np.ndarray
    shift: np.ndarray
    residual: np.ndarray
    residuals: np.ndarray


def decode_batch(code: CodeSpec, s, tol: float = DEFAULT_DECODE_TOL) -> BatchDecode:
    """Identify the single-mode displacement explaining each syndrome row.

    Every mode hypothesis j yields a two-unknown least-squares system for
    (p, x), solved with the code's cached `CodeSpec.mode_systems`; the
    hypothesis with the smallest residual wins.  Per row, in this order
    of precedence: a syndrome whose norm is at most ``tol`` is NO_ERROR; a
    best residual above ``tol * (1 + |s|)`` is UNCORRECTABLE; a second-best
    residual within ``tol * (1 + best)`` of the best is AMBIGUOUS.

    Args:
        code: a built code with at least two check rows.
        s: (rows, m) array of syndromes.
        tol: residual scale separating success, ambiguity, and failure.
    """
    s = np.asarray(s, dtype=float)
    m, n = code.m, code.n
    if s.ndim != 2 or s.shape[1] != m:
        raise DimensionMismatchError(f"syndromes must have shape (rows, {m}), got {s.shape}")
    if m < 2:
        raise DimensionMismatchError("single-mode decoding needs at least two check rows")
    solves, misfits = code.mode_systems
    ones = np.ones(m)  # row sums as products with ones: cheaper than .sum(axis=1) on short rows
    squares = np.empty((n + 1, s.shape[0]))  # squared residual per hypothesis, then |s|^2
    miss = np.empty(s.shape)
    np.dot(np.square(s, out=miss), ones, out=squares[n])
    for j in range(n):  # one hypothesis at a time keeps memory at O(rows * (n + m))
        np.dot(s, misfits[j], out=miss)
        np.dot(np.square(miss, out=miss), ones, out=squares[j])
    norms = np.sqrt(squares, out=squares)
    residuals, snorm = norms[:n].T, norms[n]

    best = np.argmin(residuals, axis=1)
    ranked = np.sort(residuals, axis=1)
    best_res = ranked[:, 0]
    ambiguous = n > 1 and ranked[:, 1] - best_res < tol * (1.0 + best_res)
    none = snorm <= tol
    status = np.where(best_res > tol * (1.0 + snorm), UNCORRECTABLE, np.where(ambiguous, AMBIGUOUS, DECODED))
    status[none] = NO_ERROR
    return BatchDecode(
        status=status,
        mode_hypothesis=np.where(none, 0, best + 1),
        shift=(s[:, None, :] @ solves[best])[:, 0],
        residual=np.where(none, snorm, best_res),
        residuals=residuals,
    )


def decode_single_mode(code: CodeSpec, s, tol: float = DEFAULT_DECODE_TOL) -> Correction:
    """Decode one syndrome: `decode_batch` on a single row.

    A syndrome whose norm is at most ``tol`` decodes to the identity
    correction.

    Args:
        code: a built code with at least two check rows.
        s: syndrome vector of length m.
        tol: residual scale separating success, ambiguity, and failure.

    Raises:
        AmbiguousSyndromeError: best and second-best residuals differ by
            less than ``tol * (1 + best)``.
        UncorrectableSyndromeError: no hypothesis fits within
            ``tol * (1 + |s|)``.
    """
    s = np.asarray(s, dtype=float)
    if s.shape != (code.m,):
        raise DimensionMismatchError(f"syndrome must have length {code.m}, got shape {s.shape}")
    out = decode_batch(code, s[None, :], tol)
    status, mode, residual = out.status[0], int(out.mode_hypothesis[0]), float(out.residual[0])
    if status == NO_ERROR:
        return Correction(u_prime=np.zeros(2 * code.n), mode_hypothesis=None, residual=residual)
    if status == UNCORRECTABLE:
        raise UncorrectableSyndromeError(
            f"no single-mode hypothesis fits (best residual {residual:.3e} on mode {mode})"
        )
    if status == AMBIGUOUS:
        order = np.argsort(out.residuals[0], kind="stable")
        raise AmbiguousSyndromeError(
            f"modes {mode} and {int(order[1]) + 1} explain the syndrome equally well "
            f"(residuals {residual:.3e}, {float(out.residuals[0, order[1]]):.3e})"
        )
    p, x = out.shift[0]
    return Correction(u_prime=single_mode_error(code.n, mode, p, x), mode_hypothesis=mode, residual=residual)


def min_norm_correction(code: CodeSpec, s) -> Correction:
    """Least-norm displacement reproducing the syndrome, via pseudoinverse."""
    s = np.asarray(s, dtype=float)
    if s.shape != (code.m,):
        raise DimensionMismatchError(f"syndrome must have length {code.m}, got shape {s.shape}")
    smat = code.syndrome_matrix
    u_prime = np.linalg.pinv(smat) @ s
    residual = float(np.linalg.norm(smat @ u_prime - s))
    return Correction(u_prime=u_prime, mode_hypothesis=None, residual=residual)
