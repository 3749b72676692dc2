"""Decomposition of a rowspace into hyperbolic pairs plus an isotropic basis.

Any subspace of phase space splits into a symplectic part, spanned by
hyperbolic pairs ``(u_i, v_i)`` with ``u_i (.) v_i = 1``, and an isotropic
part on which the symplectic product vanishes identically.  The pair
count ``c`` fixes how many pre-shared entangled modes a code built on the
rowspace needs; the isotropic count ``l`` fixes the ancilla count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .compiler import eliminate
from .errors import DecompositionError
from .symplectic import DEFAULT_TOL, as_phase_vector, scaled_defect, symplectic_form, symplectic_inverse


@dataclass(frozen=True)
class SymplecticDecomposition:
    """An input rowspace as check rows: hyperbolic pairs and isotropic rows, in syndrome order.

    Attributes:
        n: mode count.
        c: pair count.
        rows: (2c + l, 2n) array ``u_1..u_c``, the l isotropic rows, then
            ``v_1..v_c``, with ``u_i (.) v_i = 1`` and every other product
            zero: the rows a code holds at `check_rows`.
        dropped_rows: indices of input rows discarded as linearly dependent.
    """

    n: int
    c: int
    rows: np.ndarray
    dropped_rows: tuple[int, ...] = field(default=())

    @property
    def l(self) -> int:
        return self.m - 2 * self.c

    @property
    def m(self) -> int:
        """Dimension of the decomposed subspace, 2c + l."""
        return len(self.rows)


def _independent_rows(rows: np.ndarray, tol: float) -> tuple[list[int], list[int]]:
    """Greedy rank-revealing pass: indices of kept rows and of dropped rows."""
    kept: list[int] = []
    dropped: list[int] = []
    basis = np.empty(rows.shape)  # orthonormal rows spanning the kept rows
    for idx, row in enumerate(rows):
        res = row.astype(float)
        q = basis[: len(kept)]
        for _ in range(2):  # second sweep restores orthogonality lost to rounding
            res -= (q @ res) @ q
        norm = np.linalg.norm(res)
        if norm > tol * max(1.0, np.linalg.norm(row)):
            basis[len(kept)] = res / norm
            kept.append(idx)
        else:
            dropped.append(idx)
    return kept, dropped


def _jv(v: np.ndarray, n: int) -> np.ndarray:
    """J v for the block form J = [[0, I], [-I, 0]]."""
    return np.concatenate([v[n:], -v[:n]])


def _pairing_loop(working: np.ndarray, tol: float) -> tuple[np.ndarray, int]:
    """Split the independent rows of ``working`` into hyperbolic pairs and isotropic leftovers.

    Pivot rule: take the first remaining vector w, partner it with the
    remaining z maximizing |w (.) z| (ties resolved to the lowest index).
    If every |w (.) z| is at most ``tol * |w| |z|``, a bound on the two
    rows alone with no absolute floor, w goes to the isotropic pile;
    otherwise z is rescaled so the pair product is one and the pair is
    projected out of every remaining vector.  Each step is one
    matrix-vector product for the products of w against all remaining
    rows, and two rank-one updates for the projection.
    Returns the rows in syndrome order (``u_1..u_c``, isotropic, ``v_1..v_c``) and c.
    """
    n = working.shape[1] // 2
    us, isotropic, vs = [], [], []
    rest = np.array(working, dtype=float)
    while len(rest):
        w, rest = rest[0].copy(), rest[1:]  # a view of w would keep all of rest alive
        if not len(rest):
            isotropic.append(w)
            break
        rw = rest @ _jv(w, n)  # r (.) w = -(w (.) r) for every remaining r
        scales = tol * np.linalg.norm(w) * np.linalg.norm(rest, axis=1)
        if np.all(np.abs(rw) <= scales):
            isotropic.append(w)
            continue
        best = int(np.argmax(np.abs(rw)))
        z = rest[best] / -rw[best]
        rest = np.delete(rest, best, axis=0)
        rw = np.delete(rw, best)
        # r -> r - (r (.) z) w + (r (.) w) z, for all remaining r at once
        rest -= np.outer(rest @ _jv(z, n), w)
        rest += np.outer(rw, z)
        us.append(w)
        vs.append(z)
    return np.array(us + isotropic + vs).reshape(-1, 2 * n), len(us)


def symplectic_gram_schmidt(rows, tol: float = DEFAULT_TOL) -> SymplecticDecomposition:
    """Decompose the rowspace of `rows` into hyperbolic pairs and an isotropic basis.

    Linearly dependent input rows are dropped (recorded in
    ``dropped_rows``); the remaining independent set is orthogonalized so
    that the Gram matrix of symplectic products takes the canonical block
    form, and stored as one array of check rows in syndrome order.  The
    output spans exactly the input rowspace and is deterministic for
    fixed input and tolerance.

    Args:
        rows: sequence of phase vectors sharing one mode count.
        tol: scale-aware zero threshold for products and rank decisions:
            which input rows are dependent and which products are zero.

    Raises:
        DecompositionError: on an empty input.
        DimensionMismatchError: on inconsistent row dimensions.
    """
    rows = list(rows)
    if not rows:
        raise DecompositionError("need at least one row")
    first = as_phase_vector(rows[0])
    n = first.shape[0] // 2
    mat = np.array([as_phase_vector(r, n) for r in rows], dtype=float)
    kept, dropped = _independent_rows(mat, tol)
    checks, c = _pairing_loop(mat[kept], tol)
    return SymplecticDecomposition(n=n, c=c, rows=checks, dropped_rows=tuple(dropped))


def code_parameters(dec: SymplecticDecomposition) -> tuple[int, int, int, int]:
    """Code parameters (n, k, l, c) implied by a decomposition; k = n - c - l."""
    c, l, n = dec.c, dec.l, dec.n
    if c + l > n:
        raise DecompositionError(f"c + l = {c + l} exceeds the mode count {n}")
    return n, n - c - l, l, c


def check_rows(n: int, l: int, c: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis-row indices of a code's checks, in syndrome order, and of its data quadratures."""
    return np.concatenate((np.arange(c + l), np.arange(n, n + c))), np.concatenate((np.arange(c + l, n), np.arange(n + c + l, 2 * n)))


def complete_symplectic_basis(dec: SymplecticDecomposition) -> np.ndarray:
    """Extend a decomposition to a full symplectic basis of phase space.

    Returns a (2n, 2n) array whose rows are ordered ``(u_1..u_n,
    v_1..v_n)``, made so that ``u_i (.) v_j = delta_ij`` and all other
    products vanish.  ``dec.rows`` are written at the `check_rows`, and
    the isotropic rows' partners, rows ``n+c+1..n+c+l``, come from a
    least-norm dual solve, refined once by a least-squares correction of
    the same system where the rows placed so far miss `verify_code`'s
    1e-9 Gram bound.
    Those rows fix the encoder's columns on modes 1..c + l, all that
    `eliminate`'s rounds 1..c + l read.  The data rows are those of
    the rounds' product, carried along on identity columns, so that the
    encoder is the product's inverse and `decompose` has nothing to clear
    in the later rounds.  Nothing here checks the result: `verify_code`,
    which `build_code` runs on every basis it returns, is its one judge.

    Raises:
        DecompositionError: if the decomposition does not fit inside n
            modes, c + l > n (`code_parameters`).
    """
    n, k, l, c = code_parameters(dec)
    j = symplectic_form(n)
    checks, data = check_rows(n, l, c)
    basis = np.empty((2 * n, 2 * n))
    basis[checks] = dec.rows

    placed = np.r_[: c + l, n : n + c + l]  # the checks and, once made, the partners

    if l:
        # Partners z_i for the isotropic rows w_i: w_i (.) z_j = delta_ij with
        # zero products against the pairs, via a min-norm solve.
        iso = basis[c : c + l]
        pairs = np.stack([np.arange(c), np.arange(n, n + c)], axis=1).ravel()  # u_1, v_1, u_2, v_2, ...
        system, duals = basis[np.r_[c : c + l, pairs]] @ j, np.eye(l + 2 * c, l)
        z = np.linalg.lstsq(system, duals, rcond=None)[0].T  # rows z_1..z_l
        # Kill the mutual z-products by mixing in isotropic directions:
        # z_i -> z_i - (1/2) sum_j (z_i (.) z_j) w_j leaves all other
        # products untouched and zeroes the antisymmetric defect exactly.
        basis[n + c : n + c + l] = z - 0.5 * (z @ j @ z.T) @ iso
        if not scaled_defect(basis[placed], symplectic_form(c + l)) <= 1e-9:
            # At small scales the solve can miss `verify_code`'s Gram bound;
            # one least-squares correction of the same system, mixed in as
            # above, meets it.
            z = z + np.linalg.lstsq(system, duals - system @ z.T, rcond=None)[0].T
            basis[n + c : n + c + l] = z - 0.5 * (z @ j @ z.T) @ iso

    if k:
        work, _ = eliminate(np.hstack((symplectic_inverse(basis[placed]), np.eye(2 * n))), c + l)
        basis[data] = work[data, 2 * (c + l) :]
    return basis
