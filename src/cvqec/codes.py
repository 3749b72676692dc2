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
``n+1..n+c``.

A code stores its parameters, symplectic basis, dropped-row indices
and input rows; its checks are the basis rows `check_rows` names, and
the check, canonical, syndrome and encoding matrices are derived.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .decomposition import (
    check_rows,
    code_parameters,
    complete_symplectic_basis,
    symplectic_gram_schmidt,
)
from .errors import BuildVerificationError, DimensionMismatchError
from .symplectic import DEFAULT_TOL, is_symplectic, symplectic_form


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
    checks, _ = check_rows(n, l, c)
    return np.eye(2 * n)[checks]


@dataclass(frozen=True)
class CodeSpec:
    """A code: its parameters, symplectic basis, dropped-row indices and input rows.

    Those four are the stored facts; every other matrix is derived from
    them on first use and cached read-only.  ``h`` holds the normalized
    rows (u_1..u_c, isotropic, v_1..v_c), the basis rows `check_rows`
    names; the encoding matrix satisfies ``h @ upsilon.T = f`` row-wise
    and maps the i-th hyperbolic pair onto the i-th standard pair.
    """

    params: CodeParameters
    basis: np.ndarray
    dropped_rows: tuple[int, ...]
    input_rows: np.ndarray

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def m(self) -> int:
        return self.params.l + 2 * self.params.c

    @cached_property
    def h(self) -> np.ndarray:
        """Normalized check rows, the basis rows `check_rows` names (read-only)."""
        h = self.basis[check_rows(self.n, self.params.l, self.params.c)[0]]
        h.setflags(write=False)
        return h

    @cached_property
    def f(self) -> np.ndarray:
        """Canonical check rows the encoding matrix carries ``h`` onto (read-only)."""
        f = canonical_parity_check(*self.params)
        f.setflags(write=False)
        return f

    @cached_property
    def upsilon(self) -> np.ndarray:
        """Encoding matrix ``inv(basis^T)``, in its symplectic closed form ``-J basis J`` (read-only)."""
        j = symplectic_form(self.n)
        y = -j @ self.basis @ j
        y.setflags(write=False)
        return y

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


def verify_code(code: CodeSpec) -> None:
    """Check a code's stored facts against one another, raising on any failure.

    The parameters must be non-negative with ``k + l + c = n``, the 2n x
    2n basis rows a symplectic basis (Gram matrix J within 1e-9 by
    `symplectic.scaled_defect`), and the input rows the checks: each has
    zero product with each isotropic check and data row, within 1e-8
    times the other row's norm and ``max(1, |row|)``, the scale on which
    the decomposition drops dependent rows.  Those rows span the
    symplectic complement of the check rows, so every input row lies in
    the span of the checks.  ``dropped_rows`` names distinct rows, and the
    ``m`` others, each scaled to unit norm, have rank ``m``: they span the
    checks, so the dropped rows are dependent and the parameters pinned.
    The derived matrices follow from these facts and are not checked.

    Raises:
        BuildVerificationError: if any check fails.
    """
    basis = code.basis
    n, k, l, c = code.params
    if min(code.params) < 0 or k + l + c != n or basis.shape != (2 * n, 2 * n):
        raise BuildVerificationError(f"{code.params} and a {basis.shape} basis do not describe a code")
    if not is_symplectic(basis.T, 1e-9):
        raise BuildVerificationError("basis rows are not a symplectic basis")
    rows, dropped = code.input_rows, code.dropped_rows
    # Intersecting with the row indices drops repeats and out-of-range entries.
    dropped_ok = len(set(dropped) & set(range(len(rows)))) == len(dropped)
    if rows.shape[1] != 2 * n or not dropped_ok or len(rows) - len(dropped) != code.m:
        raise BuildVerificationError(f"input rows {rows.shape} less dropped rows {list(dropped)} are not {code.m} checks on {n} modes")
    checks, data = check_rows(n, l, c)
    others = basis[np.concatenate((checks[c : c + l], data))]  # the isotropic checks and the data rows
    products = np.abs(rows @ symplectic_form(n) @ others.T)
    scale = np.outer(np.maximum(np.linalg.norm(rows, axis=1), 1.0), np.linalg.norm(others, axis=1))
    if not np.all(products <= 1e-8 * scale):
        raise BuildVerificationError("input rows leave the check rowspace")
    kept = np.delete(rows, dropped, axis=0)
    norms = np.linalg.norm(kept, axis=1, keepdims=True)
    if not np.all((0.0 < norms) & (norms < np.inf)) or np.linalg.matrix_rank(kept / norms) < code.m:
        raise BuildVerificationError(f"input rows other than dropped rows {list(dropped)} are dependent")


def build_code(rows, tol: float = DEFAULT_TOL) -> CodeSpec:
    """Assemble a code from arbitrary real parity-check rows.

    Runs the rowspace decomposition and completes it to a symplectic
    basis B; the encoding matrix is B^{-1}, so the normalized checks map
    exactly onto the canonical ones.  The stored facts are verified
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
    code = CodeSpec(
        params=CodeParameters(*code_parameters(dec)),
        basis=complete_symplectic_basis(dec, tol),
        dropped_rows=dec.dropped_rows,
        input_rows=input_rows,
    )
    verify_code(code)
    return code


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def read_key(payload, key: str, parse):
    """``parse(payload[key])`` for input JSON; a non-object payload or a wrong JSON type raises ValueError naming the key."""
    try:
        return parse(payload[key])
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"cannot read {key!r}: {exc}") from exc


def json_int(value) -> int:
    """An integer read from JSON: an int, or a float of integral value; a bool or anything else raises TypeError."""
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise TypeError(f"expected an integer, got {value!r}")


def load_parity_check(path) -> np.ndarray:
    """Read a parity-check file: ``{"n": int, "rows": [[2n floats], ...]}``."""
    with open(path) as fh:
        payload = json.load(fh)
    n = read_key(payload, "n", json_int)
    rows = read_key(payload, "rows", lambda v: np.atleast_2d(np.asarray(v, dtype=float)))
    if rows.shape[1] != 2 * n:
        raise DimensionMismatchError(f"rows have {rows.shape[1]} columns, expected {2 * n}")
    return rows


def save_parity_check(path, rows) -> None:
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    with open(path, "w") as fh:
        json.dump({"n": rows.shape[1] // 2, "rows": rows.tolist()}, fh, indent=1)


# Version of the code-file layout that `code_to_dict` writes.  A file
# without a "format" key predates it and is read through the same keys.
CODE_FORMAT = 2


def _copied_rows(h: list, l: int, c: int) -> tuple[list, list]:
    """The check rows ``h`` (as lists) as a code file also writes them: ``pairs`` and ``isotropic``."""
    return [[u, v] for u, v in zip(h[:c], h[c + l :])], h[c : c + l]


def code_to_dict(code: CodeSpec) -> dict:
    """File form of a code: its stored facts, and its check rows again as ``pairs`` and ``isotropic``.

    ``pairs`` and ``isotropic`` hold the very row lists of ``basis`` that
    they copy, so a writer can treat each row once.
    """
    n, _, l, c = code.params
    basis = code.basis.tolist()
    pairs, isotropic = _copied_rows([basis[i] for i in check_rows(n, l, c)[0].tolist()], l, c)
    return {
        "format": CODE_FORMAT,
        "params": code.params._asdict(),
        "basis": basis,
        "pairs": pairs,
        "isotropic": isotropic,
        "dropped_rows": list(code.dropped_rows),
        "input_rows": code.input_rows.tolist(),
    }


def code_from_dict(payload: dict) -> CodeSpec:
    """Code from its file form, verified; ``pairs`` and ``isotropic`` must equal its check rows.

    Raises:
        ValueError: for a format this version cannot read, or a key of
            the wrong JSON type.
        BuildVerificationError: if the stored facts disagree.
    """
    if not isinstance(payload, dict) or payload.get("format", CODE_FORMAT) != CODE_FORMAT:
        raise ValueError(f"not a code file of format {CODE_FORMAT}")
    code = CodeSpec(
        params=read_key(payload, "params", lambda p: CodeParameters(**{key: json_int(p[key]) for key in CodeParameters._fields})),
        basis=read_key(payload, "basis", lambda rows: np.asarray(rows, dtype=float)),
        dropped_rows=read_key(payload, "dropped_rows", lambda indices: tuple(map(json_int, indices))),
        input_rows=read_key(payload, "input_rows", lambda rows: np.atleast_2d(np.asarray(rows, dtype=float))),
    )
    verify_code(code)
    if (read_key(payload, "pairs", list), read_key(payload, "isotropic", list)) != _copied_rows(code.h.tolist(), code.params.l, code.params.c):
        raise BuildVerificationError("pairs and isotropic differ from the basis rows they copy")
    return code


def load_code(path) -> CodeSpec:
    with open(path) as fh:
        return code_from_dict(json.load(fh))
