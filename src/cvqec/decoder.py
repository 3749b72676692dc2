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
from typing import NamedTuple

import numpy as np

from .codes import CodeSpec
from .errors import (
    AmbiguousSyndromeError,
    DimensionMismatchError,
    UncorrectableSyndromeError,
)
from .symplectic import as_phase_vector

DEFAULT_DECODE_TOL = 1e-6


# An overflow is refused below, not warned of.  As a decorator, errstate costs
# under a microsecond a call, a third of a with block: syndrome runs per error.
@np.errstate(over="ignore", invalid="ignore")
def syndrome(code: CodeSpec, u) -> np.ndarray:
    """Syndrome of a displacement on the sender's modes, one value per check row.

    Raises:
        DimensionMismatchError: if the syndrome is not finite, as when a
            displacement near the doubles' range overflows.
    """
    s = code.syndrome_matrix @ as_phase_vector(u, code.n)
    if not np.isfinite(s).all():
        raise DimensionMismatchError("syndrome entries must be finite: the displacement overflows a double")
    return s


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

# Below this fraction of |s|^2 left by its fit, a mode's residual is computed
# in rank-2 form on the rows where it could rank first or second; see
# `decode_batch`.
_EXACT_BELOW = 1e-4


class BatchDecode(NamedTuple):
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
        runner_up: second-best mode per row (1-based); 0 for a one-mode
            code.
        runner_up_residual: its residual, within the bound `decode_batch`
            states; infinite for a one-mode code.
        principal: (rows, 2) the same fit on the best mode's principal
            axes, ``(s Q_j) * inverse[j]`` (`CodeSpec.mode_planes`), so
            that ``shift`` is ``principal @ vt[j]`` row by row.
    """

    status: np.ndarray
    mode_hypothesis: np.ndarray
    shift: np.ndarray
    residual: np.ndarray
    runner_up: np.ndarray
    runner_up_residual: np.ndarray
    principal: np.ndarray


def _fits(code: CodeSpec, s: np.ndarray, modes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residual ``|s - (s Q_j) Q_j^T|``, principal fit and (p, x) fit of each syndrome row on the 0-based mode j that ``modes`` names.

    The rows are sorted by mode, and each run of one mode is projected
    once: its coordinates ``s Q_j``, one (rows, m) x (m, 2) product, give
    the residual through one (rows, 2) x (2, m) product, the principal
    fit ``(s Q_j) * inverse[j]`` and the (p, x) fit, that principal fit
    ``@ vt[j]``, through a (rows, 2) x (2, 2) one (`CodeSpec.mode_planes`).
    """
    planes, inverse, vt = code.mode_planes
    order = modes.argsort(kind="stable")
    ranked = modes[order]
    part = s.take(order, axis=0)
    principal = np.empty((len(s), 2))
    fit = np.empty((len(s), 2))
    first = np.empty(len(s), dtype=bool)  # where a run of one mode starts
    first[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    starts = first.nonzero()[0].tolist()
    for a, b in zip(starts, starts[1:] + [len(s)]):
        block, j = part[a:b], ranked[a]
        coords = block @ planes[j].T
        np.multiply(coords, inverse[j], out=principal[a:b])
        fit[a:b] = principal[a:b] @ vt[j]
        block -= coords @ planes[j]
    back = order.argsort(kind="stable")  # the inverse permutation: gathers cost less than a scatter of pairs
    return np.sqrt(np.einsum("ij,ij->i", part, part)).take(back), principal.take(back, axis=0), fit.take(back, axis=0)


def decode_batch(code: CodeSpec, s, tol: float = DEFAULT_DECODE_TOL) -> BatchDecode:
    """Identify the single-mode displacement explaining each syndrome row.

    Every mode hypothesis j has a two-unknown least-squares system for
    (p, x).  Its fit of s is the projection ``s Q_j`` onto the orthonormal
    basis ``Q_j`` of the mode's syndrome plane, read back as (p, x)
    through the other factors of the plane's SVD (`CodeSpec.mode_planes`),
    and the hypothesis with the smallest residual ``|s - (s Q_j) Q_j^T|``
    wins.  Per row, in this order of precedence: a syndrome whose norm is
    at most ``tol`` is NO_ERROR; a best residual above ``tol * (1 + |s|)``
    is UNCORRECTABLE; a second-best residual within ``tol * (1 + best)``
    of the best is AMBIGUOUS.

    One (rows, m) x (m, 2n) product gives every hypothesis's fitted
    squared norm ``|s Q_j|^2``, summed pairwise into a contiguous
    (rows, n) array, and the largest two along each row name the best
    mode and the runner-up.  The best mode's residual, principal fit and
    shift are then computed over the rows grouped by that mode, the residual in
    rank-2 form: never as ``|s|^2 - |s Q_j|^2``, which loses digits to
    cancellation.  Each of those differences is off by at most about
    ``m eps |s|^2``.  Where the runner-up's leaves at least
    ``delta = 1e-4`` of ``|s|^2``, so does every mode's but the best's, and
    its square root is off by at most about ``m eps / delta = 2.2e-12 m`` of
    itself (under 1e-9 of it for m up to 450): the runner-up's residual is
    taken from it there.  On the other rows, several modes may fit to
    within rounding, and the difference cannot rank them.  There every
    mode whose fit leaves less than ``delta`` of ``|s|^2`` gets its
    residual in rank-2 form, and the best two of those, the first mode on
    a tie, are the best mode and the runner-up.  The cost is O(rows n m)
    for the product, O(rows n) for the selection and O(rows m) for the
    rest, in the product's memory, plus O(m) per mode re-ranked.
    `cvqec.simulator.run_ec_experiment` decodes its trials in blocks of
    `cvqec.simulator.block_rows` rows, so there the product's size is set
    by the block, not by the trial count.

    Args:
        code: a built code with at least two check rows.
        s: (rows, m) array of syndromes.
        tol: residual scale separating success, ambiguity, and failure.

    Raises:
        DimensionMismatchError: for a shape that does not fit the code, or
            a row whose ``|s|^2`` is not finite: a non-finite entry, or
            ``|s|`` above about 1.3e154, where the square overflows.
    """
    s = np.asarray(s, dtype=float)
    m, n = code.m, code.n
    if s.ndim != 2 or s.shape[1] != m:
        raise DimensionMismatchError(f"syndromes must have shape (rows, {m}), got {s.shape}")
    if m < 2:
        raise DimensionMismatchError("single-mode decoding needs at least two check rows")
    squared = np.einsum("ij,ij->i", s, s)
    if not np.isfinite(squared).all():
        raise DimensionMismatchError("syndrome norms must be finite: |s|^2 overflows a double above |s| ~ 1.3e154")
    snorm = np.sqrt(squared)
    # (rows, 2n): columns 2j and 2j + 1 hold the fit on mode j, summed into a contiguous (rows, n) array.
    fitted = np.dot(s, code.mode_planes[0].reshape(2 * n, m).T)
    np.square(fitted, out=fitted)
    fitted = np.add(fitted[:, 0::2], fitted[:, 1::2])
    rows = np.arange(len(s))
    best = fitted.argmax(axis=1)
    fitted[rows, best] = -np.inf
    second = fitted.argmax(axis=1)
    second_sq = squared - fitted[rows, second]  # infinite for a one-mode code
    redo = (second_sq < _EXACT_BELOW * squared).nonzero()[0]
    if len(redo):
        # (row, mode) pairs to re-rank besides the best: every mode that leaves less than delta |s|^2
        # (the runner-up always does; the best's fit now reads -inf).
        redo_rows = np.arange(len(redo))
        near = squared[redo, None] - fitted[redo] < _EXACT_BELOW * squared[redo, None]
        near_row, near_mode = near.nonzero()
    second_res = np.sqrt(np.maximum(second_sq, 0.0))
    del fitted  # the largest array here: free it before the grouped fits allocate theirs

    best_res, principal, shift = _fits(code, s, best)
    if len(redo):
        near_res, near_principal, near_shift = _fits(code, s.take(redo[near_row], axis=0), near_mode)
        ranked = np.full(near.shape, np.inf)  # (redo rows, n)
        ranked[near_row, near_mode] = near_res
        ranked[redo_rows, best[redo]] = best_res[redo]
        top = ranked.argmin(axis=1)  # the first mode on a tie
        hit = near_mode == top[near_row]  # rows whose best mode changed
        changed = redo[near_row[hit]]
        principal[changed], shift[changed] = near_principal[hit], near_shift[hit]
        best_res[redo] = ranked[redo_rows, top]
        ranked[redo_rows, top] = np.inf
        runner = ranked.argmin(axis=1)  # finite: each row holds the best and the runner-up
        second_res[redo] = ranked[redo_rows, runner]
        best[redo], second[redo] = top, runner

    # Later assignments take precedence: no error, then uncorrectable, then ambiguous.
    status = (second_res - best_res < tol * (1.0 + best_res)) + DECODED  # AMBIGUOUS = DECODED + 1
    status[best_res > tol * (1.0 + snorm)] = UNCORRECTABLE
    none = snorm <= tol
    status[none] = NO_ERROR
    mode = best + 1
    mode[none] = 0
    np.copyto(best_res, snorm, where=none)
    runner_up = second + 1 if n > 1 else np.zeros_like(second)
    return BatchDecode(status, mode, shift, best_res, runner_up, second_res, principal)


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
        raise AmbiguousSyndromeError(
            f"modes {mode} and {int(out.runner_up[0])} explain the syndrome equally well "
            f"(residuals {residual:.3e}, {float(out.runner_up_residual[0]):.3e})"
        )
    p, x = out.shift[0]
    return Correction(u_prime=single_mode_error(code.n, mode, p, x), mode_hypothesis=mode, residual=residual)


def min_norm_correction(code: CodeSpec, s) -> Correction:
    """Least-norm displacement reproducing the syndrome, via pseudoinverse.

    Raises:
        DimensionMismatchError: for a syndrome of the wrong length, or one
            whose ``|s|^2`` is not finite, as `decode_batch` refuses it.
    """
    s = np.asarray(s, dtype=float)
    if s.shape != (code.m,):
        raise DimensionMismatchError(f"syndrome must have length {code.m}, got shape {s.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        squared = s @ s
    if not np.isfinite(squared):
        raise DimensionMismatchError("syndrome norms must be finite: |s|^2 overflows a double above |s| ~ 1.3e154")
    smat = code.syndrome_matrix
    u_prime = np.linalg.pinv(smat) @ s
    residual = float(np.linalg.norm(smat @ u_prime - s))
    return Correction(u_prime=u_prime, mode_hypothesis=None, residual=residual)
