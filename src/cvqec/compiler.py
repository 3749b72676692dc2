"""Linear-optics gate set and compilation of symplectic quadrature actions.

Gates are stored as (kind, modes, param) records; each kind has an exact
quadrature action in (x | p) ordering.  `decompose` reduces an arbitrary
symplectic quadrature action to the identity by a pivoted elimination
that clears one position column and one momentum column per round using
only gates from the set; the emitted circuit is the inverse sequence in
reverse order, so its composed action reproduces the input.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .codes import CodeSpec, json_int
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


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list (first applied first) on n modes."""

    n: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        for g in self.gates:
            if max(g.modes) > self.n:
                raise DimensionMismatchError(f"gate {g} exceeds mode count {self.n}")

    def __len__(self) -> int:
        return len(self.gates)


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


def apply_gates(rows: np.ndarray, gates) -> None:
    """Left-multiply a (2n, K) array by a gate sequence (first gate first), in place.

    Consecutive QND gates of one kind and one control commute, so each
    such run goes to `apply_gate` as one record, its targets a ``range``
    where they are evenly spaced.  A run closes at its first repeated
    target, which fancy indexing would drop.
    """
    run_kind = control = None
    run: dict = {}  # the open run's targets and parameters, in order
    for gate in gates:
        kind, modes, param = gate
        if kind == QND_X or kind == QND_P:
            if kind != run_kind or modes[0] != control or modes[1] in run:
                _apply_run(rows, run_kind, control, run)
                run_kind, control, run = kind, modes[0], {}
            run[modes[1]] = param
        else:
            if run:
                _apply_run(rows, run_kind, control, run)
                run_kind, run = None, {}
            apply_gate(rows, gate)
    _apply_run(rows, run_kind, control, run)


def _apply_run(rows: np.ndarray, kind: str | None, control: int | None, run: dict) -> None:
    """Apply an open run of `apply_gates` as one record; a run of one gate as that gate."""
    if len(run) == 1:
        ((target, param),) = run.items()
        apply_gate(rows, (kind, (control, target), param))
    elif run:
        targets = list(run)
        step = targets[1] - targets[0]
        spaced = range(targets[0], targets[-1] + step, step)
        targets = spaced if list(spaced) == targets else np.array(targets)
        apply_gate(rows, (kind, (control, targets), np.array(list(run.values()))))


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
    """Composed quadrature action, first gate innermost."""
    a = np.eye(2 * circuit.n)
    apply_gates(a, circuit.gates)
    return a


_INVERSE_KIND = {FOURIER: FOURIER_INV, FOURIER_INV: FOURIER}


def _inverse_record(kind: str, modes: tuple[int, ...], param: float | None) -> tuple:
    """(kind, modes, param) record of a gate's inverse."""
    if kind == SQUEEZE:
        return kind, modes, 1.0 / param
    if param is None:
        return _INVERSE_KIND.get(kind, kind), modes, None
    return kind, modes, -param


def invert_gate(gate: Gate) -> Gate:
    return Gate(*_inverse_record(*gate))


def invert_circuit(circuit: Circuit) -> Circuit:
    """Gate-wise inverses in reverse order; composes to the inverse action."""
    return Circuit(circuit.n, tuple(invert_gate(g) for g in reversed(circuit.gates)))


@dataclass(frozen=True)
class CompilerReport:
    """Bookkeeping emitted alongside a decomposition."""

    gate_counts: dict = field(default_factory=dict)
    squeezer_count: int = 0
    max_abs_param: float = 0.0
    rounds: int = 0


class _Eliminator:
    """Accumulates left-multiplied elimination records against a working matrix.

    Records are bare (kind, modes, param) tuples: the elimination builds
    only valid gates, and `decompose` turns them into `Gate`s once.  A
    sweep of more than one gate is one record whose targets are a range
    or an array and whose parameters are an array, as `apply_gate`
    takes them.
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

    # The circuit is the records' inverses in reverse order; a sweep's
    # gates are inverted one by one, so its targets come out descending.
    # Every record has in-range modes, and its parameter is finite and
    # nonzero while the work matrix stays finite, which the residual check
    # confirms; so the gates skip the constructor's checks.
    gates: list[Gate] = []
    for kind, modes, param in reversed(el.records):
        if isinstance(param, np.ndarray):
            control = modes[0]
            targets = list(modes[1]) if isinstance(modes[1], range) else modes[1].tolist()
            for t, g in zip(reversed(targets), reversed(param.tolist())):
                gates.append(tuple.__new__(Gate, (kind, (control, t), -g)))
        else:
            gates.append(tuple.__new__(Gate, _inverse_record(kind, modes, param)))
    circuit = Circuit(n, tuple(gates))
    counts: dict[str, int] = {}
    for g in circuit.gates:
        counts[g.kind] = counts.get(g.kind, 0) + 1
    report = CompilerReport(
        gate_counts=counts,
        squeezer_count=counts.get(SQUEEZE, 0),
        max_abs_param=max((abs(g.param) for g in circuit.gates if g.param is not None), default=0.0),
        rounds=n,
    )
    return circuit, report


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


def circuit_to_dicts(circuit: Circuit) -> list[dict]:
    out = []
    for g in circuit.gates:
        entry: dict = {"gate": g.kind, "modes": list(g.modes)}
        if g.param is not None:
            entry["param"] = g.param
        out.append(entry)
    return out


def circuit_from_dicts(payload, n: int) -> Circuit:
    """Circuit from gate records; every gate is validated here.

    A mode is read by `json_int`, and a parameter must be a JSON number
    (an int or a float, not a bool or a string).

    Raises:
        ValueError: for a malformed or invalid gate record.
        DimensionMismatchError: for a gate on a mode above n.
    """
    gates = []
    for entry in payload:
        try:
            modes = tuple(map(json_int, entry["modes"]))
            param = entry.get("param")
            if param is not None and type(param) not in (int, float):
                raise TypeError(f"param must be a JSON number, got {param!r}")
            gates.append(Gate(entry["gate"], modes, None if param is None else float(param)))
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"malformed gate record {entry!r}: {exc}") from exc
    return Circuit(n=n, gates=tuple(gates))


def load_circuit(path, n: int) -> Circuit:
    """Read a gate-record array as a circuit on n modes."""
    with open(path) as fh:
        return circuit_from_dicts(json.load(fh), n)
