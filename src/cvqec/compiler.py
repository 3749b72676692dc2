"""Linear-optics gate set and compilation of symplectic quadrature actions.

Gates are bare (kind, modes, param) records; each kind has an exact
quadrature action in (x | p) ordering, which `apply_gate` alone holds.
A circuit holds such records, where one record may also be a run of
commuting QND gates from one control (see `Circuit`).  Two functions
make circuits: `decompose` reduces an arbitrary symplectic quadrature
action to the identity by a pivoted elimination that clears one
position column and one momentum column per round using only gates
from the set, up to its first idle tail, and emits the inverse sequence
in reverse order, so its composed action reproduces the input; `circuit_from_dicts`
reads a circuit file's gate list, validating it and forming its runs once.
`circuit_report` counts a circuit's gates for `cvqec compile` to print.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter
from typing import TYPE_CHECKING

import numpy as np

from .errors import CircuitVerificationError, DimensionMismatchError
from .symplectic import DEFAULT_TOL, require_symplectic, scaled_defect

if TYPE_CHECKING:  # annotations only: codes imports decomposition, which imports this module
    from .codes import CodeSpec

SQUEEZE = "SQUEEZE"
FOURIER = "FOURIER"
FOURIER_INV = "FOURIER_INV"
QND_X = "QND_X"
QND_P = "QND_P"
PHASE_X = "PHASE_X"
PHASE_P = "PHASE_P"
SWAP = "SWAP"

GATE_KINDS = (SQUEEZE, FOURIER, FOURIER_INV, QND_X, QND_P, PHASE_X, PHASE_P, SWAP)
_PARAMLESS = (FOURIER, FOURIER_INV, SWAP)
_TWO_MODE = (QND_X, QND_P, SWAP)

# Emission thresholds: eliminations this close to a no-op are skipped.
GATE_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class Circuit:
    """Gate sequence on n modes, as records that `apply_gate` takes, first applied first.

    A record is one gate, a bare (kind, modes, param) tuple, or one run
    of QND gates of one kind from one control, ``(kind, (control,
    targets), params)``, as `_run` builds it: the targets are strictly
    ascending modes, a ``range`` where they are evenly spaced and an
    integer array otherwise, and ``params`` is a float array, both in the
    gates' order.  A run's gates commute, so it is applied as one step.  A
    circuit checks nothing: `decompose` and `circuit_from_dicts`, which
    make circuits, emit only valid records on modes 1..n.  ``len`` counts
    gates.  Circuits compare by identity.
    """

    n: int
    records: tuple = ()

    def __len__(self) -> int:
        return sum(len(param) if isinstance(param, np.ndarray) else 1 for _, _, param in self.records)


def apply_gate(rows: np.ndarray, gate: tuple) -> None:
    """Left-multiply a (2n, K) array by a gate's quadrature action, in place.

    Follows the substitution table of `gate_action` row by row: a gate
    rewrites at most four rows (x_i, p_i, x_j, p_j) and leaves the rest
    untouched, so applying it costs O(K) for a (2n, K) array instead of a
    dense O(n^2 K) product.  ``gate`` is a bare (kind, modes, param)
    record, which is not validated.  A QND record may also carry a
    ``range`` or an integer array of distinct target modes, none of them
    the control, with an array of parameters: that is the run of those
    QND gates from one control, which commute, applied as one rank-1
    update (``p_c -= g @ p_T; x_T += outer(g, x_c)`` for QND_X, mirrored
    for QND_P).  A range of targets, which must be ascending, is read and
    updated through views; an array, in any order, is gathered and
    scattered, and numpy's fancy indexing would silently lose a repeated
    target, so it must not hold one.  A gate on a mode beyond the n modes
    of ``rows`` raises IndexError, possibly after rewriting one row;
    `gate_action` and `circuit_from_dicts` check the modes up front.
    """
    kind, modes, param = gate
    n = rows.shape[0] // 2
    xi = modes[0] - 1
    pi = n + xi
    if kind == SQUEEZE:
        rows[xi] *= param
        rows[pi] *= 1.0 / param
    elif kind == FOURIER:
        x = rows[xi].copy()
        rows[xi] = -rows[pi]
        rows[pi] = x
    elif kind == FOURIER_INV:
        x = rows[xi].copy()
        rows[xi] = rows[pi]
        rows[pi] = -x
    elif kind == PHASE_X:
        rows[pi] += param * rows[xi]
    elif kind == PHASE_P:
        rows[xi] += param * rows[pi]
    else:
        xj = modes[1]
        if isinstance(xj, range):
            start, stop = xj.start - 1, xj.stop - 1
            xj, pj = slice(start, stop, xj.step), slice(n + start, n + stop, xj.step)
        else:
            xj = xj - 1
            pj = n + xj
        if kind == QND_X:
            rows[pi] -= np.dot(param, rows[pj])
            rows[xj] += np.multiply.outer(param, rows[xi])
        elif kind == QND_P:
            rows[xi] -= np.dot(param, rows[xj])
            rows[pj] += np.multiply.outer(param, rows[pi])
        else:  # SWAP
            rows[[xi, xj, pi, pj]] = rows[[xj, xi, pj, pi]]


def _run(kind: str, control: int, targets: list | range, params) -> tuple:
    """The record of a run of QND gates from ``control`` onto strictly ascending ``targets``, a range or a list: the one run builder.

    A run of one gate is that gate's scalar record.  Otherwise evenly
    spaced targets become a ``range`` and any others an integer array,
    and the parameters a new float array.  A composed action depends on
    this form in its last bits, so building runs here alone keeps a
    circuit's action the same however it was made.
    """
    if len(targets) == 1:
        return kind, (control, targets[0]), float(params[0])
    if not isinstance(targets, range):
        step = targets[1] - targets[0]
        spaced = range(targets[0], targets[-1] + step, step)
        targets = spaced if list(spaced) == targets else np.array(targets)
    return kind, (control, targets), np.array(params, dtype=float)


def gate_action(gate: tuple, n: int) -> np.ndarray:
    """Exact quadrature action of a gate on n modes, (x | p) ordering.

    Substitution rules, with i (and j for two-mode gates) the gate modes:

    * SQUEEZE(a):   x_i -> a x_i,  p_i -> p_i / a
    * FOURIER:      x_i -> -p_i,   p_i -> x_i
    * FOURIER_INV:  x_i -> p_i,    p_i -> -x_i   (inverse of FOURIER)
    * QND_X(g):     p_i -> p_i - g p_j,  x_j -> x_j + g x_i
    * QND_P(g):     x_i -> x_i - g x_j,  p_j -> p_j + g p_i
    * PHASE_X(g):   p_i -> p_i + g x_i
    * PHASE_P(g):   x_i -> x_i + g p_i
    * SWAP:         exchanges modes i and j

    ``gate`` is one gate's bare (kind, modes, param) record, and the
    matrix is `apply_gate` applied to the identity.
    """
    if max(gate[1]) > n:
        raise DimensionMismatchError(f"gate {gate} exceeds mode count {n}")
    a = np.eye(2 * n)
    apply_gate(a, gate)
    return a


def circuit_action(circuit: Circuit) -> np.ndarray:
    """Composed quadrature action, first gate innermost, applied record by record."""
    a = np.eye(2 * circuit.n)
    for record in circuit.records:
        apply_gate(a, record)
    return a


_INVERSE_KIND = {FOURIER: FOURIER_INV, FOURIER_INV: FOURIER}


def _inverse_record(kind: str, modes: tuple, param) -> tuple:
    """Record of a record's inverse; a run's gates commute, so its inverse is the same run with negated parameters."""
    if isinstance(param, np.ndarray):
        return kind, modes, -param
    if kind == SQUEEZE:
        return kind, modes, 1.0 / param
    if param is None:
        return _INVERSE_KIND.get(kind, kind), modes, None
    return kind, modes, -param


class _Eliminator:
    """Accumulates left-multiplied elimination records against a working matrix.

    Records are bare (kind, modes, param) tuples, as a `Circuit` holds
    them: the elimination builds only valid gates.  A sweep is one record
    that `_run` builds from the targets it keeps, in ascending order.
    """

    def __init__(self, a: np.ndarray):
        self.work = a.copy()
        self.n = a.shape[0] // 2
        self.records: list[tuple] = []

    def push(self, kind: str, modes: tuple[int, ...], param: float | None = None) -> None:
        if param is not None and abs(param - 1.0 if kind == SQUEEZE else param) <= GATE_EPS:
            return
        self._emit((kind, modes, param))

    def sweep(self, kind: str, mode: int, g: np.ndarray, rotate: str | None = None) -> None:
        """QND gates of one kind from ``mode`` onto modes ``mode + 1 ..``, as one step.

        ``g[i]`` is the parameter onto mode ``mode + 1 + i``; entries with
        |g| <= GATE_EPS are dropped, as `push` drops a no-op gate.  With
        ``rotate``, a nonempty sweep is bracketed by that Fourier gate on
        ``mode`` and its inverse.  That Fourier leaves the rows the sweep
        reads alone, so ``g`` may be read before it.
        """
        keep = (np.abs(g) > GATE_EPS).nonzero()[0]
        if not keep.size:
            return
        targets = range(mode + 1, mode + 1 + g.size) if keep.size == g.size else (keep + (mode + 1)).tolist()
        if rotate:
            self._emit((rotate, (mode,), None))
        self._emit(_run(kind, mode, targets, g[keep]))
        if rotate:
            self._emit((_INVERSE_KIND[rotate], (mode,), None))

    def _emit(self, rec: tuple) -> None:
        apply_gate(self.work, rec)
        self.records.append(rec)

    def round(self, r: int, half: int) -> None:
        """Round r: clear position column r and momentum column n + r, held at columns r and ``half + r``.

        Pivot (permute / Fourier-rotate / squeeze to a unit pivot), clear
        column r's positions by QND_X and its momenta by PHASE_X and QND_P
        behind a Fourier, then the mirror image on column n + r.
        """
        n, w, x, p, mode = self.n, self.work, r, half + r, r + 1
        scale = max(1.0, float(np.max(np.abs(w[:, x]))))
        if float(np.max(np.abs(w[r:n, x]))) <= DEFAULT_TOL * scale:
            # Whole position block of this column is zero: rotate the largest
            # momentum entry up into the position block first.
            self.push(FOURIER, (r + 1 + int(np.argmax(np.abs(w[n + r :, x]))),))
        m = r + int(np.argmax(np.abs(w[r:n, x])))
        if m != r:
            self.push(SWAP, (mode, m + 1))
        self.push(SQUEEZE, (mode,), float(1.0 / w[r, x]))
        self.sweep(QND_X, mode, -w[r + 1 : n, x])  # clear position block of column r
        self.push(PHASE_X, (mode,), -w.item(n + r, x))
        self.sweep(QND_P, mode, -w[n + r + 1 :, x], rotate=FOURIER)  # clear momentum block of column r
        self.sweep(QND_P, mode, -w[n + r + 1 :, p])  # clear momentum block of column n + r
        self.push(PHASE_P, (mode,), -w.item(r, p))
        self.sweep(QND_X, mode, -w[r + 1 : n, p], rotate=FOURIER_INV)  # clear position block of column n + r

    def idle_from(self, r: int, half: int) -> bool:
        """Whether rounds r.. of ``half`` all emit nothing on the work matrix as it stands.

        Idle rounds leave it alone, so each such round reads it as it is
        now, and is idle when `round` finds no Fourier fallback, a pivot
        with |1/pivot - 1| <= GATE_EPS, hence no swap, and every other entry
        it reads (`_read_mask`) within GATE_EPS of 0.  A NaN is not idle.
        """
        b = self.work[:, : 2 * half].reshape(2, self.n, 2, half)[:, r:, :, r:]  # (x | p row, mode, x | p column, round)
        pivot = b[0, :, 0].diagonal()
        fallback = DEFAULT_TOL * np.maximum(1.0, np.abs(self.work[:, r:half]).max(axis=0))
        if not (np.abs(b[_read_mask(self.n - r, half - r)]).max(initial=0.0) <= GATE_EPS and (np.abs(pivot) > fallback).all()):
            return False
        return bool(np.abs(1.0 / pivot - 1.0).max(initial=0.0) <= GATE_EPS)  # a pivot over the fallback is nonzero


@functools.lru_cache(maxsize=16)
def _read_mask(modes: int, rounds: int) -> np.ndarray:
    """In `idle_from`'s view, what each round reads but its pivot: x column below its x row and from its p row, p column from its x row and below its p row."""
    mask = np.subtract.outer(np.arange(modes), np.arange(rounds))[None, :, None, :] + np.array([[0, 1], [1, 0]])[:, None, :, None] > 0
    mask.flags.writeable = False
    return mask


def eliminate(columns: np.ndarray, rounds: int) -> tuple[np.ndarray, tuple]:
    """Elimination rounds 1..``rounds`` on a symplectic action's columns, and the records that undo them.

    ``columns`` holds the action's position columns 1..rounds, then its
    momentum columns n + 1..n + rounds (the whole action when ``rounds`` is
    n), then any columns to carry along.  A round reads its own two columns
    only.  After an idle round, the rounds stop if all later ones are idle
    (`_Eliminator.idle_from`), which changes no bit of the result.  Returns
    the worked columns and the records inverted one by one
    (`_inverse_record`) in reverse order.
    """
    el = _Eliminator(columns)
    for r in range(rounds):
        emitted = len(el.records)
        el.round(r, rounds)
        if len(el.records) == emitted and el.idle_from(r + 1, rounds):
            break
    return el.work, tuple(_inverse_record(*record) for record in reversed(el.records))


def decompose(a) -> tuple[Circuit, dict]:
    """Compile a symplectic quadrature action into a gate sequence.

    Round r clears position column r and momentum column n + r of the
    working matrix (see `eliminate`).  After each round the cleared rows
    and columns are unit vectors, and symplecticity confines all later
    work to the trailing submatrix.  It stops at its first idle tail, after
    round c + l + 1 on a built code's encoder and round n on an older file's.

    A sweep's gates share their control and commute, and its parameters
    come from a column the sweep leaves unchanged, so each sweep is read
    up front and applied as one run record (see `_run` and `apply_gate`);
    gates with |param| <= GATE_EPS are dropped.  A Fourier bracket is
    emitted only around a nonempty sweep, so the circuit holds no
    adjacent inverse pair to cancel afterwards.

    The circuit is the elimination's records inverted in reverse order.
    Each run's targets ascend, and no two runs of one kind and control are
    adjacent, so its file form loads back as the same runs
    (`circuit_from_dicts`), with the same action.

    Args:
        a: symplectic (x | p)-ordered quadrature action; `require_symplectic`
            checks it within 1e-9, and pivots are tested against `DEFAULT_TOL`.
            The columns of a code's ``upsilon^T`` are its basis rows up to
            sign and order, so a code that loads passes.

    Returns:
        (circuit, report): the circuit's composed action reproduces ``a``.
        Its records are on modes 1..n, a two-mode gate's modes differ,
        and every parameter is finite and nonzero.  ``report`` is the
        circuit's `circuit_report`.

    Raises:
        NotSymplecticError: if ``a`` is not symplectic on that scale.
        CircuitVerificationError: if the elimination does not reach the
            identity.
    """
    a = require_symplectic(a, what="compiler input")
    n = a.shape[0] // 2
    w, records = eliminate(a, n)
    residual = float(np.max(np.abs(w - np.eye(2 * n))))
    if not residual <= 1e-6 * max(1.0, float(np.max(np.abs(a)))):  # NaN fails too
        raise CircuitVerificationError(f"elimination failed to reach the identity (residual {residual:.3e})")

    # Every record has in-range modes, and its parameter is finite and
    # nonzero while the work matrix stays finite, which the residual check confirms.
    circuit = Circuit(n, records)
    return circuit, circuit_report(circuit)


def circuit_report(circuit: Circuit) -> dict:
    """What `cvqec compile` prints: ``gate_counts``, the gates by kind in order of first appearance, and ``max_abs_param``, the largest |param|."""
    counts: dict[str, int] = {}
    max_abs_param = 0.0
    for kind, _, param in circuit.records:
        if isinstance(param, np.ndarray):
            counts[kind] = counts.get(kind, 0) + len(param)
            max_abs_param = max(max_abs_param, *map(abs, param.tolist()))
        else:
            counts[kind] = counts.get(kind, 0) + 1
            if param is not None:
                max_abs_param = max(max_abs_param, abs(param))
    return {"gate_counts": counts, "max_abs_param": max_abs_param}


def encoder_quad_action(code: CodeSpec) -> np.ndarray:
    """Quadrature action the encoding circuit must realize: the closed form ``upsilon^T``.

    Conjugating a displacement label by the encoder applies the inverse
    phase map, which is what carries the canonical checks onto the
    code's own; a canonical code's encoder is the identity.  The code's
    basis was checked symplectic when it was built or loaded, so this
    checks nothing again.
    """
    return code.upsilon.T


def verify_circuit(circuit: Circuit, code: CodeSpec) -> float:
    """Largest entry-wise deviation of a circuit's action from the code's encoder.

    Raises:
        CircuitVerificationError: if a row of the deviation is not finite
            or exceeds ``1e-8 * (1 + max |target row|)`` (`scaled_defect`).
    """
    target = encoder_quad_action(code)
    action = circuit_action(circuit)
    scaled = scaled_defect(action, target, gram=False)
    if not scaled <= 1e-8:
        raise CircuitVerificationError(f"circuit action deviates by {scaled:.3e} of its rows' scale (bound 1e-8)")
    return float(np.max(np.abs(action - target)))


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


_KIND_CODE = {kind: code for code, kind in enumerate(GATE_KINDS)}
_ARITY = np.array([2 if kind in _TWO_MODE else 1 for kind in GATE_KINDS])
_HAS_PARAM = np.array([kind not in _PARAMLESS for kind in GATE_KINDS])


def _typed(values: list, types: frozenset) -> np.ndarray:
    """Mask of the values whose exact type is in ``types``, so a bool is not an int."""
    return np.fromiter(map(types.__contains__, map(type, values)), bool, len(values))


def _keep(values: list, types: frozenset, fill) -> tuple[list, np.ndarray]:
    """``values`` with each entry of another type replaced by ``fill``, and the mask of the entries kept."""
    if set(map(type, values)) <= types:
        return values, np.ones(len(values), bool)
    kept = _typed(values, types)
    return [v if ok else fill for v, ok in zip(values, kept.tolist())], kept


_STR, _LIST, _NUMBER, _NONE = frozenset((str,)), frozenset((list,)), frozenset((int, float)), frozenset((type(None),))
_PARAM = _NUMBER | _NONE


def _floats(values: list, beyond: float) -> np.ndarray:
    """JSON numbers or None as doubles: None reads as NaN, and an integer beyond the doubles' range as +-``beyond``."""
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        huge = [type(v) is int and abs(v) > sys.float_info.max for v in values]
        return np.array([(beyond if v > 0 else -beyond) if h else v for v, h in zip(values, huge)], dtype=float)


def circuit_from_dicts(payload, n: int) -> Circuit:
    """Circuit from an array of gate records, validated column by column, its QND runs formed once.

    Each record is an object with ``"gate"``, one of `GATE_KINDS`, and
    ``"modes"``, an array of 1-based modes: two distinct ones for QND_X,
    QND_P and SWAP, one for the rest.  A mode is an integer, or a float
    of integral value (`json_int`'s rule).  ``"param"`` is absent or null
    on FOURIER, FOURIER_INV and SWAP, and on the rest a finite JSON
    number (an int or a float, not a bool or a string), nonzero for
    SQUEEZE.  Every mode is at most n; no other code checks a circuit's
    modes.  The checks are made on whole columns, and no object is built
    per gate.  An error names the first offending record.

    Consecutive QND gates of one kind and control whose targets strictly
    ascend then become one run record (see `Circuit`), in the form `_run`
    gives every run: a run closes where the kind or the control changes
    or a target does not exceed the one before.  A circuit that
    `decompose` made therefore loads back as its own records and composes
    to the same action, bit for bit; a file that lists a run's gates in
    another order loads as shorter runs, with the same action within
    rounding.

    Raises:
        ValueError: for a malformed or invalid gate record.
        KeyError: for a record without ``"gate"`` or ``"modes"``.
        DimensionMismatchError: for a gate on a mode above n, when no
            record is otherwise invalid.
    """
    if type(payload) is not list:
        raise ValueError(f"a circuit is an array of gate records, not {type(payload).__name__}")
    count = len(payload)
    try:
        kinds = list(map(itemgetter("gate"), payload))
        modes = list(map(itemgetter("modes"), payload))
        params = list(map(dict.get, payload, repeat("param")))
    except TypeError:
        index = next(i for i, entry in enumerate(payload) if type(entry) is not dict)
        raise ValueError(f"gate record {index} {payload[index]!r} is not an object") from None

    kind = np.fromiter(map(_KIND_CODE.get, _keep(kinds, _STR, "")[0], repeat(-1)), np.intp, count)
    known = kind >= 0
    arity, has_param = _ARITY[kind], _HAS_PARAM[kind]  # an unknown kind (-1) reads the last kind's

    modes, is_list = _keep(modes, _LIST, [])
    lengths = np.fromiter(map(len, modes), np.intp, count)
    owner = np.repeat(np.arange(count), lengths)  # the record of each mode
    flat, _ = _keep(list(chain.from_iterable(modes)), _NUMBER, None)
    values = _floats(flat, sys.float_info.max)  # a huge integer mode is above any n
    start = np.cumsum(lengths) - lengths
    # A record's first two modes; where it has fewer, the read is of the
    # next record or of the padding, and the record fails its arity check.
    padded = np.append(values, (1.0, 1.0))
    first, second = padded[start], padded[start + 1]
    bad_mode = np.zeros(count, bool)  # the records with a mode that is not an integer from 1
    bad_mode[owner[~((values >= 1) & (values == np.trunc(values)) & (values < np.inf))]] = True

    params, is_number = _keep(params, _PARAM, None)
    values_p = _floats(params, math.inf)  # a huge integer parameter is not finite
    is_none = np.isnan(values_p)  # None reads as NaN; a JSON NaN must not pass for it
    if np.count_nonzero(is_none) != params.count(None):
        is_none = _typed(params, _NONE)
    problems = (
        (~known, "unknown gate kind"),
        (~is_list, "modes must be an array"),
        (bad_mode, "modes must be integers from 1"),
        (known & (lengths != arity), "wrong number of modes"),
        ((lengths == 2) & (first == second), "the two modes must differ"),
        (~is_number, "param must be a JSON number"),
        (~has_param & ~is_none, "this kind takes no parameter"),
        (has_param & ~np.isfinite(values_p), "this kind needs a finite parameter"),
        ((kind == _KIND_CODE[SQUEEZE]) & (values_p == 0.0), "squeeze factor must be nonzero"),
    )
    bad = np.logical_or.reduce([mask for mask, _ in problems])
    if bad.any():
        index = int(bad.argmax())
        reason = next(reason for mask, reason in problems if mask[index])
        raise ValueError(f"invalid gate record {index} {payload[index]!r}: {reason}")
    above = values > n
    if above.any():
        index = int(owner[above.argmax()])
        raise DimensionMismatchError(f"gate record {index} {payload[index]!r} exceeds mode count {n}")

    # Consecutive QND gates of one kind and control with ascending targets
    # make one run record; any other gate is a record of its own.
    control, target = first.astype(np.intp), second.astype(np.intp)
    qnd = (kind == _KIND_CODE[QND_X]) | (kind == _KIND_CODE[QND_P])
    starts = np.ones(count, bool)
    starts[1:] = ~(qnd[1:] & (kind[1:] == kind[:-1]) & (control[1:] == control[:-1]) & (target[1:] > target[:-1]))
    bounds = np.flatnonzero(starts).tolist() + [count]
    kind_l, control_l, target_l, param_l = kind.tolist(), control.tolist(), target.tolist(), values_p.tolist()
    two_mode, has_param_l = (lengths == 2).tolist(), has_param.tolist()
    records = []
    for s, e in zip(bounds, bounds[1:]):
        name = GATE_KINDS[kind_l[s]]
        if e - s > 1:
            records.append(_run(name, control_l[s], target_l[s:e], param_l[s:e]))
        else:
            gate_modes = (control_l[s], target_l[s]) if two_mode[s] else (control_l[s],)
            records.append((name, gate_modes, param_l[s] if has_param_l[s] else None))
    return Circuit(n, tuple(records))


def load_circuit(path, n: int) -> Circuit:
    """Read a gate-record array as a circuit on n modes."""
    with open(path) as fh:
        return circuit_from_dicts(json.load(fh), n)
