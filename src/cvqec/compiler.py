"""Linear-optics gate set and compilation of symplectic quadrature actions.

Gates are (kind, modes, param) records; each kind has an exact
quadrature action in (x | p) ordering.  A circuit holds such records,
where one record may also be a run of commuting QND gates from one
control (see `Circuit`).  `decompose` reduces an arbitrary symplectic
quadrature action to the identity by a pivoted elimination that clears
one position column and one momentum column per round using only gates
from the set; the emitted circuit is the inverse sequence in reverse
order, so its composed action reproduces the input.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .codes import CodeSpec
from .errors import CircuitVerificationError, DimensionMismatchError
from .symplectic import DEFAULT_TOL, require_symplectic, scaled_defect

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


class _GateRecord(NamedTuple):
    kind: str
    modes: tuple[int, ...]
    param: float | None = None


class Gate(_GateRecord):
    """One gate instance; modes are 1-based.

    A gate is a (kind, modes, param) record whose constructor validates
    it, so `apply_gate` takes a `Gate` and a bare record alike.
    """

    __slots__ = ()

    def __new__(cls, kind: str, modes: tuple[int, ...], param: float | None = None):
        if kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {kind!r}")
        want = 2 if kind in _TWO_MODE else 1
        if len(modes) != want:
            raise ValueError(f"{kind} takes {want} mode(s), got {modes}")
        if min(modes) < 1:
            raise ValueError(f"modes are 1-based, got {modes}")
        if want == 2 and modes[0] == modes[1]:
            raise ValueError(f"{kind} needs two distinct modes")
        if kind in _PARAMLESS:
            if param is not None:
                raise ValueError(f"{kind} takes no parameter")
        else:
            if param is None or not math.isfinite(param):
                raise ValueError(f"{kind} needs a finite parameter")
            if kind == SQUEEZE and param == 0.0:
                raise ValueError("squeeze factor must be nonzero")
        return super().__new__(cls, kind, modes, param)


def squeeze(mode: int, a: float) -> Gate:
    return Gate(SQUEEZE, (mode,), float(a))


def fourier(mode: int) -> Gate:
    return Gate(FOURIER, (mode,))


def fourier_inv(mode: int) -> Gate:
    return Gate(FOURIER_INV, (mode,))


def qnd_x(m1: int, m2: int, g: float) -> Gate:
    return Gate(QND_X, (m1, m2), float(g))


def qnd_p(m1: int, m2: int, g: float) -> Gate:
    return Gate(QND_P, (m1, m2), float(g))


def phase_x(mode: int, g: float) -> Gate:
    return Gate(PHASE_X, (mode,), float(g))


def phase_p(mode: int, g: float) -> Gate:
    return Gate(PHASE_P, (mode,), float(g))


def swap(m1: int, m2: int) -> Gate:
    return Gate(SWAP, (m1, m2))


@dataclass(frozen=True, eq=False)
class Circuit:
    """Gate sequence on n modes, as records that `apply_gate` takes, first applied first.

    A record is one gate, a (kind, modes, param) tuple such as a `Gate`,
    or one run of QND gates of one kind from one control,
    ``(kind, (control, targets), params)``: the targets are distinct modes,
    a ``range`` where evenly spaced and an integer array otherwise, and
    ``params`` is a float array, both in the gates' order.  A run's gates
    commute, so it is applied as one step.  `decompose` and
    `circuit_from_dicts` build runs and never a `Gate` per gate;
    hand-built circuits hold `Gate`s.  ``len`` counts gates.  Circuits
    compare by identity.
    """

    n: int
    records: tuple = ()

    def __post_init__(self):
        for record in self.records:
            modes = record[1]
            last = modes[-1]
            if isinstance(last, np.ndarray):
                last = last.max()
            elif isinstance(last, range):
                last = max(last[0], last[-1])
            if max(modes[0], last) > self.n:
                raise DimensionMismatchError(f"gate record {record} exceeds mode count {self.n}")

    @classmethod
    def _of(cls, n: int, records: tuple) -> Circuit:
        """A circuit without the mode check, for `decompose` and the loader, whose records are known to be on modes 1..n."""
        circuit = object.__new__(cls)
        circuit.__dict__.update(n=n, records=records)
        return circuit

    def __len__(self) -> int:
        return sum(len(param) if isinstance(param, np.ndarray) else 1 for _, _, param in self.records)


def apply_gate(rows: np.ndarray, gate: Gate | tuple) -> None:
    """Left-multiply a (2n, K) array by a gate's quadrature action, in place.

    Follows the substitution table of `gate_action` row by row: a gate
    rewrites at most four rows (x_i, p_i, x_j, p_j) and leaves the rest
    untouched, so applying it costs O(K) for a (2n, K) array instead of a
    dense O(n^2 K) product.  ``gate`` may be a bare (kind, modes, param)
    record, which is not validated.  A QND record may also carry a
    ``range`` or an integer array of distinct target modes, none of them
    the control, with an array of parameters: that is the run of those
    QND gates from one control, which commute, applied as one rank-1
    update (``p_c -= g @ p_T; x_T += outer(g, x_c)`` for QND_X, mirrored
    for QND_P).  A range of targets is read and updated through views;
    an array is gathered and scattered, and numpy's fancy indexing would
    silently lose a repeated target, so it must not hold one.  A gate on
    a mode beyond the n modes of ``rows`` raises IndexError, possibly
    after rewriting one row; `gate_action` and `Circuit` check the modes
    up front.
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
            if xj.step < 0:  # views run fastest in memory order
                xj, param = xj[::-1], param[::-1]
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


def apply_gates(rows: np.ndarray, records) -> None:
    """Left-multiply a (2n, K) array by a circuit's records (first record first), in place.

    A run record goes to `apply_gate` as it is.  Consecutive single QND
    gates of one kind and one control commute, so each such run goes to
    `apply_gate` as one record too, formed as `circuit_from_dicts` forms
    runs at load (see `_run`).  A run closes at its first repeated
    target, which fancy indexing would drop.
    """
    run_kind = control = None
    run: dict = {}  # the open run's targets and parameters, in order
    for record in records:
        kind, modes, param = record
        if (kind == QND_X or kind == QND_P) and not isinstance(param, np.ndarray):
            if kind != run_kind or modes[0] != control or modes[1] in run:
                _apply_run(rows, run_kind, control, run)
                run_kind, control, run = kind, modes[0], {}
            run[modes[1]] = param
        else:
            if run:
                _apply_run(rows, run_kind, control, run)
                run_kind, run = None, {}
            apply_gate(rows, record)
    _apply_run(rows, run_kind, control, run)


def _apply_run(rows: np.ndarray, kind: str | None, control: int | None, run: dict) -> None:
    """Apply an open run of `apply_gates` as one record."""
    if run:
        apply_gate(rows, _run(kind, control, list(run), list(run.values())))


def _run(kind: str, control: int, targets: list | range, params) -> tuple:
    """The record of a run of QND gates from ``control``, in the one form every caller builds.

    A run of one gate is that gate's scalar record.  Otherwise evenly
    spaced targets become a ``range`` (either direction) and other targets
    an integer array, and the parameters a new float array.  A composed
    action depends on this form in its last bits, so building runs here
    alone keeps a circuit's action the same however it was made.
    """
    if len(targets) == 1:
        return kind, (control, targets[0]), float(params[0])
    if not isinstance(targets, range):
        step = targets[1] - targets[0]
        spaced = range(targets[0], targets[-1] + step, step)
        targets = spaced if list(spaced) == targets else np.array(targets)
    return kind, (control, targets), np.array(params, dtype=float)


def gate_action(gate: Gate, n: int) -> np.ndarray:
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

    The matrix is `apply_gate` applied to the identity.
    """
    if max(gate.modes) > n:
        raise DimensionMismatchError(f"gate {gate} exceeds mode count {n}")
    a = np.eye(2 * n)
    apply_gate(a, gate)
    return a


def circuit_action(circuit: Circuit) -> np.ndarray:
    """Composed quadrature action, first gate innermost, applied record by record."""
    a = np.eye(2 * circuit.n)
    apply_gates(a, circuit.records)
    return a


_INVERSE_KIND = {FOURIER: FOURIER_INV, FOURIER_INV: FOURIER}


def _inverse_record(kind: str, modes: tuple, param) -> tuple:
    """Record of a record's inverse; a run's is its gates' inverses in reverse order."""
    if isinstance(param, np.ndarray):
        targets = modes[1][::-1]
        return _run(kind, modes[0], targets if isinstance(targets, range) else targets.tolist(), -param[::-1])
    if kind == SQUEEZE:
        return kind, modes, 1.0 / param
    if param is None:
        return _INVERSE_KIND.get(kind, kind), modes, None
    return kind, modes, -param


@dataclass(frozen=True)
class CompilerReport:
    """Bookkeeping emitted alongside a decomposition."""

    gate_counts: dict = field(default_factory=dict)
    squeezer_count: int = 0
    max_abs_param: float = 0.0
    rounds: int = 0


class _Eliminator:
    """Accumulates left-multiplied elimination records against a working matrix.

    Records are bare (kind, modes, param) tuples, as a `Circuit` holds
    them: the elimination builds only valid gates.  A sweep of more than
    one gate is one run record whose targets are a range or an array and
    whose parameters are an array; `decompose` inverts the records into
    the circuit without expanding them.
    """

    def __init__(self, a: np.ndarray, n: int):
        self.work = a.copy()
        self.n = n
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
        if keep.size == 1:  # one gate: a scalar record costs less
            targets, g = mode + 1 + int(keep[0]), float(g[keep[0]])
        elif keep.size == g.size:
            targets = range(mode + 1, mode + 1 + g.size)
        else:
            targets, g = keep + (mode + 1), g[keep]
        if rotate:
            self._emit((rotate, (mode,), None))
        self._emit((kind, (mode, targets), g))
        if rotate:
            self._emit((_INVERSE_KIND[rotate], (mode,), None))

    def _emit(self, rec: tuple) -> None:
        apply_gate(self.work, rec)
        self.records.append(rec)


def _pivot(el: _Eliminator, r: int, tol: float) -> None:
    """Bring a usable pivot to position (r, r) and normalize it to 1."""
    n, w = el.n, el.work
    col = np.abs(w[:, r])
    scale = max(1.0, float(np.max(col)))
    pos = np.abs(w[r:n, r])
    if float(np.max(pos)) <= tol * scale:
        # Whole position block of this column is zero: rotate the largest
        # momentum entry up into the position block first.
        mom = np.abs(w[n + r : 2 * n, r])
        m = r + int(np.argmax(mom))
        el.push(FOURIER, (m + 1,))
        pos = np.abs(w[r:n, r])
    m = r + int(np.argmax(pos))
    if m != r:
        el.push(SWAP, (r + 1, m + 1))
    el.push(SQUEEZE, (r + 1,), float(1.0 / w[r, r]))


def decompose(a, tol: float = DEFAULT_TOL) -> tuple[Circuit, CompilerReport]:
    """Compile a symplectic quadrature action into a gate sequence.

    Round r clears position column r and momentum column n + r of the
    working matrix: pivot (permute / Fourier-rotate / squeeze to a unit
    pivot), sweep the position block with QND_X couplings, fold the
    remaining momentum entries away behind a Fourier with a PHASE_X and
    QND_P sweep, then repeat the mirrored sequence on column n + r.
    After each round the cleared rows and columns are unit vectors, and
    symplecticity confines all later work to the trailing submatrix.

    A sweep's gates share their control and commute, and its parameters
    come from a column the sweep leaves unchanged, so each sweep is read
    up front and applied as one array-target record (see `apply_gate`);
    gates with |param| <= GATE_EPS are dropped.  A Fourier bracket is
    emitted only around a nonempty sweep, so the circuit holds no
    adjacent inverse pair to cancel afterwards.

    The circuit is the elimination's records inverted one by one
    (`_inverse_record`) in reverse order: each sweep stays one run
    record, its targets reversed, and no `Gate` is built per gate.  No
    two runs of one kind and control are adjacent, so these are the runs
    `circuit_from_dicts` forms when it reads the circuit's file form
    back, and both give the same composed action.
    The report counts gates by kind in order of first appearance, and
    the largest |param|, record by record.

    Args:
        a: symplectic (x | p)-ordered quadrature action.
        tol: pivot threshold; `require_symplectic` checks the input within
            ``max(tol, DEFAULT_TOL)``.  The columns of a code's ``upsilon^T``
            are its basis rows up to sign and order, so a code that loads passes.

    Returns:
        (circuit, report): the circuit's composed action reproduces ``a``.

    Raises:
        NotSymplecticError: if ``a`` is not symplectic on that scale.
        CircuitVerificationError: if the elimination does not reach the
            identity.
    """
    a = require_symplectic(a, max(tol, DEFAULT_TOL), what="compiler input")
    n = a.shape[0] // 2
    el = _Eliminator(a, n)
    w = el.work  # every record rewrites it in place

    for r in range(n):
        _pivot(el, r, tol)
        mode = r + 1
        below = slice(r + 1, n)  # the later modes' position rows
        el.sweep(QND_X, mode, -w[below, r])  # clear position block of column r
        el.push(PHASE_X, (mode,), -w.item(n + r, r))
        el.sweep(QND_P, mode, -w[n + r + 1 :, r], rotate=FOURIER)  # clear momentum block of column r

        el.sweep(QND_P, mode, -w[n + r + 1 :, n + r])  # clear momentum block of column n + r
        el.push(PHASE_P, (mode,), -w.item(r, n + r))
        el.sweep(QND_X, mode, -w[below, n + r], rotate=FOURIER_INV)  # clear position block of column n + r

    residual = float(np.max(np.abs(w - np.eye(2 * n))))
    if not residual <= 1e-6 * max(1.0, float(np.max(np.abs(a)))):  # NaN fails too
        raise CircuitVerificationError(f"elimination failed to reach the identity (residual {residual:.3e})")

    # The circuit is the records' inverses in reverse order.  Every
    # record has in-range modes, and its parameter is finite and nonzero
    # while the work matrix stays finite, which the residual check confirms.
    circuit = Circuit._of(n, tuple(_inverse_record(*record) for record in reversed(el.records)))
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
    return circuit, CompilerReport(gate_counts=counts, squeezer_count=counts.get(SQUEEZE, 0), max_abs_param=max_abs_param, rounds=n)


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
    SQUEEZE.  These are the checks of the `Gate` constructor, made on
    whole columns; no `Gate` is built.  An error names the first
    offending record.

    Consecutive QND gates of one kind and control then become one run
    record (see `Circuit`), closed at the first repeated target, with
    the targets and parameters `apply_gates` would give the same gates.

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

    # Consecutive QND gates of one kind and control make a segment, which
    # is one run record unless a target repeats in it; any other gate is a
    # segment of its own.
    control, target = first.astype(np.intp), second.astype(np.intp)
    qnd = (kind == _KIND_CODE[QND_X]) | (kind == _KIND_CODE[QND_P])
    starts = np.ones(count, bool)
    starts[1:] = ~(qnd[1:] & (kind[1:] == kind[:-1]) & (control[1:] == control[:-1]))
    bounds = np.flatnonzero(starts).tolist() + [count]
    kind_l, control_l, target_l, param_l = kind.tolist(), control.tolist(), target.tolist(), values_p.tolist()
    two_mode, has_param_l = (lengths == 2).tolist(), has_param.tolist()
    records = []
    for s, e in zip(bounds, bounds[1:]):
        name = GATE_KINDS[kind_l[s]]
        if e - s > 1:
            records += [_run(name, control_l[s], target_l[a:b], param_l[a:b]) for a, b in _split_at_repeats(target_l, s, e)]
        else:
            gate_modes = (control_l[s], target_l[s]) if two_mode[s] else (control_l[s],)
            records.append((name, gate_modes, param_l[s] if has_param_l[s] else None))
    return Circuit._of(n, tuple(records))


def _split_at_repeats(targets: list, s: int, e: int) -> list[tuple[int, int]]:
    """Spans of the runs in ``targets[s:e]``: a run closes before its first repeated target."""
    if len(set(targets[s:e])) == e - s:
        return [(s, e)]
    spans, seen = [], set()
    for i in range(s, e):
        if targets[i] in seen:
            spans.append((s, i))
            s, seen = i, set()
        seen.add(targets[i])
    return spans + [(s, e)]


def load_circuit(path, n: int) -> Circuit:
    """Read a gate-record array as a circuit on n modes."""
    with open(path) as fh:
        return circuit_from_dicts(json.load(fh), n)
