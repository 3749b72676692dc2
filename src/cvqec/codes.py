"""Construction of entanglement-assisted codes from real parity-check matrices.

A code is specified by the rowspace of an arbitrary real matrix over
phase space.  Decomposing that rowspace fixes the parameters
``(n, k, l, c)``; completing the decomposition to a full symplectic
basis yields the encoding matrix ``Y`` that carries the given checks
onto the canonical ones, ``H Y^T = F``.

Canonical mode layout (fixed package-wide): modes ``1..c`` hold the
sender's halves of the entangled pairs, modes ``c+1..c+l`` hold
position-squeezed ancillas, and modes ``c+l+1..n`` carry data.  The
receiver's halves of the entangled pairs are appended as modes
``n+1..n+c`` wherever the augmented checks are concerned.

Augmented check rows use the column layout
``(p-half | p-aug | x-half | x-aug)``: the row paired with receiver
mode j carries -1 in p-aug column j on the u side and +1 in x-aug
column j on the v side, which renders all rows symplectically
orthogonal to one another.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .decomposition import (
    SymplecticDecomposition,
    code_parameters,
    complete_symplectic_basis,
    symplectic_gram_schmidt,
)
from .errors import BuildVerificationError, DimensionMismatchError
from .symplectic import DEFAULT_TOL, as_phase_vector, is_symplectic, symplectic_form


class CodeParameters(NamedTuple):
    n: int
    k: int
    l: int
    c: int


def canonical_parity_check(n: int, k: int, l: int, c: int) -> np.ndarray:
    """Parity check of the canonical code, rows ordered (u-block, isotropic, v-block).

    Row i <= c is the unit p-vector on entangled mode i (a position check,
    completed by the receiver's half), the next l rows are unit p-vectors on
    the ancilla modes, and the last c rows are unit x-vectors on the
    entangled modes (momentum checks).
    """
    if min(n, k, l, c) < 0 or k + l + c != n:
        raise DimensionMismatchError(f"need k + l + c = n >= 0, got (n,k,l,c)=({n},{k},{l},{c})")
    m = l + 2 * c
    f = np.zeros((m, 2 * n))
    for i in range(c):
        f[i, i] = 1.0
    for i in range(l):
        f[c + i, c + i] = 1.0
    for i in range(c):
        f[c + l + i, n + i] = 1.0
    return f


@dataclass(frozen=True)
class AugmentedParityCheck:
    """Check rows extended over the receiver's noiseless modes.

    Attributes:
        n_alice: sender-side mode count.
        c: receiver-side (entangled) mode count.
        rows: (m, 2(n_alice + c)) array in (p-half | p-aug | x-half | x-aug) layout.
        row_permutation: map from normalized row order to the input row order.
    """

    n_alice: int
    c: int
    rows: np.ndarray
    row_permutation: tuple[int, ...]

    def strip_augmentation(self) -> np.ndarray:
        """Recover the unaugmented rows (p-half | x-half)."""
        n, c = self.n_alice, self.c
        return np.hstack([self.rows[:, :n], self.rows[:, n + c : 2 * n + c]])


def _augment_rows(h: np.ndarray, n: int, c: int, perm: tuple[int, ...]) -> AugmentedParityCheck:
    m = h.shape[0]
    rows = np.zeros((m, 2 * (n + c)))
    rows[:, :n] = h[:, :n]
    rows[:, n + c : 2 * n + c] = h[:, n:]
    for i in range(c):
        rows[i, n + i] = -1.0  # u-row i: receiver momentum column i
        rows[m - c + i, 2 * n + c + i] = 1.0  # v-row i: receiver position column i
    return AugmentedParityCheck(n_alice=n, c=c, rows=rows, row_permutation=perm)


def _match_rows_to_decomposition(h: np.ndarray, dec: SymplecticDecomposition, tol: float) -> tuple[int, ...]:
    """Permutation sending normalized decomposition order to input rows."""
    target = dec.vectors()
    if h.shape != target.shape:
        raise DimensionMismatchError(
            f"parity check shape {h.shape} does not match the decomposition ({target.shape})"
        )
    scale = max(1.0, float(np.max(np.abs(target))))
    perm: list[int] = []
    for t in target:
        hits = [i for i in range(h.shape[0]) if i not in perm and np.max(np.abs(h[i] - t)) <= 1e3 * tol * scale]
        if not hits:
            raise DimensionMismatchError("parity-check rows do not coincide with the decomposition vectors")
        perm.append(hits[0])
    return tuple(perm)


def augment(h, dec: SymplecticDecomposition, tol: float = DEFAULT_TOL) -> AugmentedParityCheck:
    """Extend check rows over the receiver's entangled modes.

    The rows of `h` must be the decomposition's vectors up to order; they
    are normalized to (u_1..u_c, isotropic, v_1..v_c) order internally and
    the permutation back to the caller's order is recorded.  With c = 0
    the output rows equal the input.

    Raises:
        DimensionMismatchError: if `h` is not a row permutation of the
            decomposition's vectors.
    """
    h = np.array([as_phase_vector(r, dec.n) for r in np.atleast_2d(np.asarray(h, dtype=float))])
    perm = _match_rows_to_decomposition(h, dec, tol)
    out = _augment_rows(dec.vectors(), dec.n, dec.c, perm)
    check_commuting(out.rows, tol=max(tol, 1e-9))
    return out


def augment_canonical(params: CodeParameters) -> AugmentedParityCheck:
    """Augmented form of the canonical parity check for the given parameters."""
    f = canonical_parity_check(*params)
    return _augment_rows(f, params.n, params.c, tuple(range(f.shape[0])))


def check_commuting(rows: np.ndarray, tol: float = 1e-9) -> float:
    """Raise unless all row pairs are symplectically orthogonal; returns the defect."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    n2 = rows.shape[1]
    j = symplectic_form(n2 // 2)
    g = rows @ j @ rows.T
    defect = float(np.max(np.abs(g))) if g.size else 0.0
    scale = max(1.0, float(np.max(np.abs(rows))) ** 2)
    if defect > tol * scale:
        raise BuildVerificationError(f"augmented rows fail to commute (defect {defect:.3e})")
    return defect


@dataclass(frozen=True)
class CodeSpec:
    """A fully assembled code: checks, decomposition, and encoding matrix.

    ``h`` holds the normalized rows (u_1..u_c, isotropic, v_1..v_c); the
    encoding matrix satisfies ``h @ upsilon.T = f`` row-wise and maps the
    i-th hyperbolic pair onto the i-th standard pair.
    """

    params: CodeParameters
    h: np.ndarray
    f: np.ndarray
    h_aug: AugmentedParityCheck
    f_aug: AugmentedParityCheck
    upsilon: np.ndarray
    decomposition: SymplecticDecomposition
    basis: np.ndarray
    input_rows: np.ndarray

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def m(self) -> int:
        return self.h.shape[0]

    @cached_property
    def syndrome_matrix(self) -> np.ndarray:
        """Matrix S with syndrome(u) = S @ u, shape (m, 2n), derived once (read-only).

        A phase vector u = (u_p | u_x) shifts check row h = (h_p | h_x) by
        h_p . u_x + h_x . u_p, so S swaps the halves of h.
        """
        n = self.n
        smat = np.hstack([self.h[:, n:], self.h[:, :n]])
        smat.setflags(write=False)
        return smat

    @cached_property
    def mode_systems(self) -> tuple[np.ndarray, np.ndarray]:
        """Single-mode decoding systems, derived once per code (read-only).

        For mode j + 1, let ``A`` be the (m, 2) matrix whose columns are the
        syndromes of a unit momentum and a unit position shift on that
        mode, and ``P`` its least-squares inverse (the pseudoinverse with
        `numpy.linalg.lstsq`'s default cutoff).  ``solves[j]`` is ``P^T``,
        so ``s @ solves[j]`` is the best (p, x) fit of syndrome s on the
        mode, and ``misfits[j]`` is ``(A P - I)^T``, so ``s @ misfits[j]``
        is that fit's syndrome minus s.
        """
        n, m = self.n, self.m
        smat = self.syndrome_matrix
        columns = np.stack([smat[:, :n].T, smat[:, n:].T], axis=2)  # (n, m, 2)
        inverses = np.linalg.pinv(columns, rcond=np.finfo(float).eps * max(m, 2))
        solves = inverses.transpose(0, 2, 1).copy()
        misfits = (columns @ inverses - np.eye(m)).transpose(0, 2, 1).copy()
        solves.setflags(write=False)
        misfits.setflags(write=False)
        return solves, misfits


def verify_code(code: CodeSpec, tol_map: float = 1e-8, tol_symp: float = 1e-9) -> None:
    """Re-run the build-time consistency checks, raising on any failure."""
    n = code.n
    if not is_symplectic(code.upsilon, tol_symp):
        raise BuildVerificationError("encoding matrix is not symplectic")
    defect = float(np.max(np.abs(code.h @ code.upsilon.T - code.f)))
    if defect > tol_map * max(1.0, float(np.max(np.abs(code.h)))):
        raise BuildVerificationError(f"H Y^T deviates from the canonical check by {defect:.3e}")
    basis_u, basis_v = code.basis[:n], code.basis[n:]
    ident = np.eye(2 * n)
    for i in range(n):
        if np.max(np.abs(code.upsilon @ basis_u[i] - ident[i])) > 1e3 * tol_symp * max(1.0, np.max(np.abs(basis_u[i]))):
            raise BuildVerificationError(f"basis vector u_{i + 1} does not map to the standard basis")
        if np.max(np.abs(code.upsilon @ basis_v[i] - ident[n + i])) > 1e3 * tol_symp * max(1.0, np.max(np.abs(basis_v[i]))):
            raise BuildVerificationError(f"basis vector v_{i + 1} does not map to the standard basis")
    check_commuting(code.h_aug.rows, tol=1e-9)
    check_commuting(code.f_aug.rows, tol=1e-9)


def build_code(rows, tol: float = DEFAULT_TOL) -> CodeSpec:
    """Assemble a code from arbitrary real parity-check rows.

    Runs the rowspace decomposition, completes it to a symplectic basis
    B, and sets the encoding matrix to B^{-1}, so the normalized checks
    map exactly onto the canonical ones.  All invariants are verified
    before returning; an inconsistent result raises instead of being
    returned silently.

    Args:
        rows: nonempty sequence of phase vectors with a common mode count.
        tol: zero threshold handed to the decomposition.

    Raises:
        BuildVerificationError: if any internal consistency check fails.
        DecompositionError / DimensionMismatchError: propagated from the
            decomposition stage.
    """
    input_rows = np.atleast_2d(np.asarray(rows, dtype=float))
    dec = symplectic_gram_schmidt(input_rows, tol)
    params = CodeParameters(*code_parameters(dec))
    basis = complete_symplectic_basis(dec, tol)
    upsilon = np.linalg.inv(basis.T)
    h = dec.vectors()
    f = canonical_parity_check(*params)
    h_aug = _augment_rows(h, params.n, params.c, tuple(range(h.shape[0])))
    f_aug = augment_canonical(params)
    code = CodeSpec(
        params=params,
        h=h,
        f=f,
        h_aug=h_aug,
        f_aug=f_aug,
        upsilon=upsilon,
        decomposition=dec,
        basis=basis,
        input_rows=input_rows,
    )
    verify_code(code)
    return code


@dataclass(frozen=True)
class EncodeLayout:
    """Which physical mode plays which role in the canonical frame (1-based)."""

    params: CodeParameters
    entangled_modes: tuple[int, ...]
    ancilla_modes: tuple[int, ...]
    data_modes: tuple[int, ...]
    receiver_modes: tuple[int, ...]


def canonical_encode_layout(params) -> EncodeLayout:
    """Mode-role assignment used to prepare canonical input states.

    Entangled halves sit on modes 1..c (paired with receiver modes
    n+1..n+c), position-squeezed ancillas on modes c+1..c+l, and data on
    the remaining k modes.
    """
    params = CodeParameters(*params)
    n, k, l, c = params
    if min(n, k, l, c) < 0 or k + l + c != n:
        raise DimensionMismatchError(f"invalid parameters {params}")
    return EncodeLayout(
        params=params,
        entangled_modes=tuple(range(1, c + 1)),
        ancilla_modes=tuple(range(c + 1, c + l + 1)),
        data_modes=tuple(range(c + l + 1, n + 1)),
        receiver_modes=tuple(range(n + 1, n + c + 1)),
    )


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def load_parity_check(path) -> np.ndarray:
    """Read a parity-check file: ``{"n": int, "rows": [[2n floats], ...]}``."""
    with open(path) as fh:
        payload = json.load(fh)
    n = int(payload["n"])
    rows = np.atleast_2d(np.asarray(payload["rows"], dtype=float))
    if rows.shape[1] != 2 * n:
        raise DimensionMismatchError(f"rows have {rows.shape[1]} columns, expected {2 * n}")
    return rows


def save_parity_check(path, rows) -> None:
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    with open(path, "w") as fh:
        json.dump({"n": rows.shape[1] // 2, "rows": rows.tolist()}, fh, indent=1)


def code_to_dict(code: CodeSpec) -> dict:
    dec = code.decomposition
    return {
        "params": {"n": code.params.n, "k": code.params.k, "l": code.params.l, "c": code.params.c},
        "h": code.h.tolist(),
        "f": code.f.tolist(),
        "h_aug": code.h_aug.rows.tolist(),
        "f_aug": code.f_aug.rows.tolist(),
        "upsilon": code.upsilon.tolist(),
        "basis": code.basis.tolist(),
        "pairs": [[u.tolist(), v.tolist()] for u, v in dec.pairs],
        "isotropic": [w.tolist() for w in dec.isotropic],
        "dropped_rows": list(dec.dropped_rows),
        "input_rows": code.input_rows.tolist(),
        "verified": True,
    }


def code_from_dict(payload: dict) -> CodeSpec:
    params = CodeParameters(**{key: int(payload["params"][key]) for key in ("n", "k", "l", "c")})
    dec = SymplecticDecomposition(
        n=params.n,
        pairs=tuple((np.asarray(u, dtype=float), np.asarray(v, dtype=float)) for u, v in payload["pairs"]),
        isotropic=tuple(np.asarray(w, dtype=float) for w in payload["isotropic"]),
        dropped_rows=tuple(int(i) for i in payload.get("dropped_rows", [])),
    )
    h = np.atleast_2d(np.asarray(payload["h"], dtype=float))
    code = CodeSpec(
        params=params,
        h=h,
        f=np.atleast_2d(np.asarray(payload["f"], dtype=float)),
        h_aug=AugmentedParityCheck(params.n, params.c, np.atleast_2d(np.asarray(payload["h_aug"], dtype=float)), tuple(range(h.shape[0]))),
        f_aug=AugmentedParityCheck(params.n, params.c, np.atleast_2d(np.asarray(payload["f_aug"], dtype=float)), tuple(range(h.shape[0]))),
        upsilon=np.asarray(payload["upsilon"], dtype=float),
        decomposition=dec,
        basis=np.asarray(payload["basis"], dtype=float),
        input_rows=np.atleast_2d(np.asarray(payload["input_rows"], dtype=float)),
    )
    verify_code(code)
    return code


def save_code(path, code: CodeSpec) -> None:
    with open(path, "w") as fh:
        json.dump(code_to_dict(code), fh, indent=1)


def load_code(path) -> CodeSpec:
    with open(path) as fh:
        return code_from_dict(json.load(fh))
