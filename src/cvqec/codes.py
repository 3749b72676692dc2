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
the check, canonical, syndrome and encoding matrices are derived, as
are the factors of each mode's syndrome-plane SVD, which the decoder
and the Monte-Carlo moments read.
"""

from __future__ import annotations

import binascii
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
from .symplectic import DEFAULT_TOL, scaled_defect, symplectic_inverse


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
        y = symplectic_inverse(self.basis).T
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
    def mode_planes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each mode's syndrome plane as the factors of its thin SVD, from one batched SVD (read-only).

        For mode j + 1, let ``A`` be the (m, 2) matrix whose columns are the
        syndromes of a unit momentum and a unit position shift on that
        mode, and ``A = U diag(sigma) V^T`` its thin SVD.  A singular value
        is kept at `numpy.linalg.lstsq`'s default cutoff: above
        ``eps * max(m, 2)`` times the largest.

        ``planes`` has shape (n, 2, m).  ``planes[j]`` is ``Q_j^T``: its rows
        are the kept columns of ``U``, zero for a dropped one, so ``Q_j`` is
        an orthonormal basis of the plane, line or point that the mode's
        syndromes span.  One product with ``planes.reshape(2 n, m)`` thus
        fits a syndrome on every mode at once.  ``inverse[j]``, shape (2,),
        holds ``1 / sigma`` for a kept value and 0 for a dropped one, and
        ``vt[j]`` is ``V^T``, shape (2, 2), its rows the mode's principal
        (p, x) axes, largest singular value first.  So the best (p, x) fit
        of syndrome s on the mode is ``((s Q_j) * inverse[j]) @ vt[j]``,
        the least-squares solution at that cutoff.
        """
        n, m = self.n, self.m
        smat = self.syndrome_matrix
        columns = np.stack([smat[:, :n].T, smat[:, n:].T], axis=2)  # (n, m, 2)
        u, sigma, vt = np.linalg.svd(columns, full_matrices=False)
        large = sigma > np.finfo(float).eps * max(m, 2) * sigma.max(axis=1, keepdims=True)
        inverse = np.divide(1.0, sigma, where=large, out=np.zeros_like(sigma))
        planes = np.swapaxes(u * large[:, None, :], 1, 2).copy()
        for factor in (planes, inverse, vt):
            factor.setflags(write=False)
        return planes, inverse, vt

def verify_code(code: CodeSpec) -> None:
    """Check a code's stored facts against one another, raising on any failure.

    The parameters must be non-negative with ``k + l + c = n``, the 2n x
    2n basis rows a symplectic basis (Gram matrix J within 1e-9 by
    `symplectic.scaled_defect`), and the input rows finite and the
    checks: each has zero product with each isotropic check and data
    row, within 1e-8 times the other row's norm and ``max(1, |row|)``,
    the scale on which the decomposition drops dependent rows.  Those rows span the
    symplectic complement of the check rows, so every input row lies in
    the span of the checks.  ``dropped_rows`` names distinct rows, and the
    ``m`` others, each scaled to unit norm, have rank ``m`` at
    `numpy.linalg.matrix_rank`'s cutoff: they span the checks, so the
    dropped rows are dependent and the parameters pinned.  The derived
    matrices follow from these facts and are not checked.  A non-finite
    input row is refused before any product is formed, and no dense J is
    built: each product with J is an exact block swap.  The checks take
    one pass: each input row's norm is formed once, as
    `numpy.linalg.norm` forms it, and the rank comes from one SVD of
    singular values alone.

    Raises:
        BuildVerificationError: if any check fails.
    """
    basis = code.basis
    n, k, l, c = code.params
    if min(code.params) < 0 or k + l + c != n or basis.shape != (2 * n, 2 * n):
        raise BuildVerificationError(f"{code.params} and a {basis.shape} basis do not describe a code")
    if not scaled_defect(basis) <= 1e-9:  # a NaN defect fails too
        raise BuildVerificationError("basis rows are not a symplectic basis")
    rows, dropped = code.input_rows, code.dropped_rows
    # Intersecting with the row indices drops repeats and out-of-range entries.
    dropped_ok = len(set(dropped) & set(range(len(rows)))) == len(dropped)
    if rows.shape[1] != 2 * n or not dropped_ok or len(rows) - len(dropped) != code.m:
        raise BuildVerificationError(f"input rows {rows.shape} less dropped rows {list(dropped)} are not {code.m} checks on {n} modes")
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise BuildVerificationError(f"input row {int(finite.argmin())} is not finite")
    checks, data = check_rows(n, l, c)
    others = basis[np.concatenate((checks[c : c + l], data))]  # the isotropic checks and the data rows
    norms = np.sqrt(np.add.reduce(rows * rows, axis=1))  # `numpy.linalg.norm`'s rows, bit for bit
    products = np.abs(np.hstack((-rows[:, n:], rows[:, :n])) @ others.T)  # rows J, J's signed block swap, exact
    scale = np.outer(np.maximum(norms, 1.0), np.sqrt(np.add.reduce(others * others, axis=1)))
    if not np.all(products <= 1e-8 * scale):
        raise BuildVerificationError("input rows leave the check rowspace")
    kept = np.ones(len(rows), bool)
    kept[list(dropped)] = False
    norms = norms[kept, None]
    independent = np.all((0.0 < norms) & (norms < np.inf))
    if independent:
        sigma = np.linalg.svd(rows[kept] / norms, compute_uv=False)
        # `numpy.linalg.matrix_rank`'s cutoff: the largest singular value times eps and the larger dimension
        independent = np.count_nonzero(sigma > sigma.max(initial=0.0) * max(len(norms), 2 * n) * np.finfo(float).eps) >= code.m
    if not independent:
        raise BuildVerificationError(f"input rows other than dropped rows {list(dropped)} are dependent")


def build_code(rows, tol: float = DEFAULT_TOL) -> CodeSpec:
    """Assemble a code from arbitrary real parity-check rows.

    Runs the rowspace decomposition and completes it to a symplectic
    basis B, whose rows at `check_rows` are the decomposition's rows; the
    encoding matrix is B^{-1}, so the normalized checks map exactly onto
    the canonical ones.  The data rows make the encoder the inverse of
    its compilation's first c + l rounds (`complete_symplectic_basis`).
    The stored facts are verified before returning by `verify_code`, the
    one check of a built basis; an inconsistent result raises instead of
    being returned silently.

    Args:
        rows: nonempty sequence of phase vectors with a common mode count.
        tol: zero threshold on the input rows, handed to the decomposition:
            which are dependent and which products are zero.

    Raises:
        BuildVerificationError: if `verify_code` refuses the result, such
            as a completed basis outside the Gram form.
        DecompositionError: on an empty input, or if c + l > n.
        DimensionMismatchError: on a row of odd length or with a
            non-finite entry.
    """
    input_rows = np.atleast_2d(np.asarray(rows, dtype=float))
    dec = symplectic_gram_schmidt(input_rows, tol)
    code = CodeSpec(
        params=CodeParameters(*code_parameters(dec)),
        basis=complete_symplectic_basis(dec),
        dropped_rows=dec.dropped_rows,
        input_rows=input_rows,
    )
    verify_code(code)
    return code


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def read_key(payload, key: str, parse):
    """``parse(payload[key])`` for input JSON; a non-object payload, a wrong JSON type, a malformed value or a number beyond the doubles' range raises ValueError naming the key."""
    try:
        return parse(payload[key])
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ValueError(f"cannot read {key!r}: {exc}") from exc


def json_int(value) -> int:
    """An integer read from JSON: an int, or a float of integral value; a bool or anything else raises TypeError."""
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise TypeError(f"expected an integer, got {value!r}")


def json_number(value) -> float:
    """A number read from JSON as a float: an int or a float; a bool, a string or anything else raises TypeError."""
    if type(value) is float:
        return value
    if type(value) is int:
        return float(value)
    raise TypeError(f"expected a number, got {value!r}")


def json_numbers(value) -> np.ndarray:
    """Nested JSON lists of numbers as a float array; a bool, a string or anything else among them raises TypeError."""
    array = np.asarray(value, dtype=object)
    if not {int, float}.issuperset(map(type, array.flat)):
        raise TypeError(f"expected a number, got {next(x for x in array.flat if type(x) not in (int, float))!r}")
    return array.astype(float)


def load_parity_check(path) -> np.ndarray:
    """Read a parity-check file: ``{"n": int, "rows": [[2n numbers], ...]}``, every entry a JSON number (`json_numbers`)."""
    with open(path) as fh:
        payload = json.load(fh)
    n = read_key(payload, "n", json_int)
    rows = read_key(payload, "rows", lambda v: np.atleast_2d(json_numbers(v)))
    if rows.shape[1] != 2 * n:
        raise DimensionMismatchError(f"rows have {rows.shape[1]} columns, expected {2 * n}")
    return rows


def save_parity_check(path, rows) -> None:
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    with open(path, "w") as fh:
        json.dump({"n": rows.shape[1] // 2, "rows": rows.tolist()}, fh, indent=1)


# Version of the code-file layout that `code_to_dict` writes, the one `code_from_dict` reads.
# Format 4 holds a basis whose data rows are its check rounds' product, which `decompose` needs;
# format 5 writes its columns in hex, which decodes faster than format 4's base64.
CODE_FORMAT = 5
_TINY = np.finfo(float).tiny  # the smallest normal double


def _column(array: np.ndarray) -> dict:
    """A 2-D float array as a JSON column: its little-endian float64 bytes in lower-case hex, exact to the bit."""
    array = np.asarray(array, dtype="<f8")
    return {"dtype": "<f8", "shape": list(array.shape), "data": array.tobytes().hex()}


def json_column(value) -> np.ndarray:
    """A `_column` read from JSON as a read-only array; any other object raises TypeError or ValueError.

    The data must be hex text of an even length, with no whitespace or
    other character between the digits (`binascii.a2b_hex`).
    """
    if type(value) is not dict or value.keys() != {"dtype", "shape", "data"}:
        raise TypeError(f"expected a column {{'dtype', 'shape', 'data'}}, got {type(value).__name__}")
    if value["dtype"] != "<f8":
        raise ValueError(f"expected dtype '<f8', got {value['dtype']!r}")
    shape = tuple(map(json_int, value["shape"]))
    if len(shape) != 2 or min(shape) < 0:
        raise ValueError(f"expected a shape [rows, columns], got {value['shape']!r}")
    data = binascii.a2b_hex(value["data"])  # TypeError unless text; binascii.Error, a ValueError, on an odd length or a non-hex character
    if len(data) != 8 * shape[0] * shape[1]:
        raise ValueError(f"shape {list(shape)} needs {8 * shape[0] * shape[1]} bytes of data, got {len(data)}")
    return np.frombuffer(data, dtype="<f8").reshape(shape)


def _copied_rows(h: np.ndarray, l: int, c: int) -> tuple[np.ndarray, np.ndarray]:
    """The check rows ``h`` as a code file also writes them: ``pairs`` (c, 2, 2n) and ``isotropic`` (l, 2n)."""
    return np.concatenate((h[:c], h[c + l :]), axis=1).reshape(c, 2, h.shape[1]), h[c : c + l]


def _within_rounding(written: np.ndarray, rows: np.ndarray) -> bool:
    """Whether ``written`` holds ``rows`` as they read back from 12-significant-digit text.

    Rounding to 12 digits moves an entry by at most 5e-12 of its size,
    and reading the decimal back at most as far again, so each entry
    must lie within 1e-11 of its size, plus 1e-11 of the smallest normal
    double so that the bound does not underflow on a subnormal entry.
    """
    if written.shape != rows.shape:
        return written.size == rows.size == 0  # JSON writes an empty array of any shape as []
    return bool((np.abs(written - rows) <= 1e-11 * np.abs(rows) + 1e-11 * _TINY).all())


def code_to_dict(code: CodeSpec) -> dict:
    """File form of a code: its stored facts, ``basis`` and ``input_rows`` as `_column` objects, and its check rows again as ``pairs`` and ``isotropic`` lists."""
    pairs, isotropic = _copied_rows(code.h, code.params.l, code.params.c)
    return {
        "format": CODE_FORMAT,
        "params": code.params._asdict(),
        "basis": _column(code.basis),
        "pairs": pairs.tolist(),
        "isotropic": isotropic.tolist(),
        "dropped_rows": list(code.dropped_rows),
        "input_rows": _column(code.input_rows),
    }


def code_from_dict(payload: dict) -> CodeSpec:
    """Code from its file form, verified; ``pairs`` and ``isotropic`` must copy its check rows.

    Only format 5 is read: ``basis`` and ``input_rows`` are hex `_column`
    objects, ``pairs`` and ``isotropic`` need only equal the check rows
    as they read back from 12-digit text, and the data rows are those of
    the check rounds' product, as `complete_symplectic_basis` writes them,
    so that `decompose` compiles the encoder from its check columns.  An
    older file is remade by ``cvqec build`` on ``{"n": params.n, "rows":
    input_rows}``.

    Raises:
        ValueError: for another format, or a key of the wrong JSON type.
        BuildVerificationError: if the stored facts disagree.
    """
    fmt = payload.get("format") if isinstance(payload, dict) else None
    if fmt != CODE_FORMAT:
        found = "no format key" if fmt is None else f"format {fmt!r}"
        raise ValueError(f'code files of format {CODE_FORMAT} only are read, found {found}; remake the file with `cvqec build` on the check-matrix file {{"n": params.n, "rows": input_rows}}')
    code = CodeSpec(
        params=read_key(payload, "params", lambda p: CodeParameters(**{key: json_int(p[key]) for key in CodeParameters._fields})),
        basis=read_key(payload, "basis", json_column),
        dropped_rows=read_key(payload, "dropped_rows", lambda indices: tuple(map(json_int, indices))),
        input_rows=read_key(payload, "input_rows", json_column),
    )
    verify_code(code)
    copies = _copied_rows(code.h, code.params.l, code.params.c)
    if not all(_within_rounding(read_key(payload, key, lambda value: json_numbers(list(value))), want) for key, want in zip(("pairs", "isotropic"), copies)):  # list() refuses a bare number
        raise BuildVerificationError("pairs and isotropic differ from the basis rows they copy")
    return code


def load_code(path) -> CodeSpec:
    with open(path) as fh:
        return code_from_dict(json.load(fh))
