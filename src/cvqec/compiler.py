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

import numpy as np

from .codes import CodeSpec
from .errors import CircuitVerificationError, DimensionMismatchError
from .symplectic import DEFAULT_TOL, is_symplectic, phase_map_to_quad_action, require_symplectic

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


@dataclass(frozen=True)
class Gate:
    """One gate instance; modes are 1-based."""

    kind: str
    modes: tuple[int, ...]
    param: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        want = 2 if self.kind in _TWO_MODE else 1
        if len(self.modes) != want:
            raise ValueError(f"{self.kind} takes {want} mode(s), got {self.modes}")
        if any(m < 1 for m in self.modes):
            raise ValueError(f"modes are 1-based, got {self.modes}")
        if self.kind in _TWO_MODE and self.modes[0] == self.modes[1]:
            raise ValueError(f"{self.kind} needs two distinct modes")
        if self.kind in _PARAMLESS:
            if self.param is not None:
                raise ValueError(f"{self.kind} takes no parameter")
        else:
            if self.param is None or not math.isfinite(self.param):
                raise ValueError(f"{self.kind} needs a finite parameter")
            if self.kind == SQUEEZE and self.param == 0.0:
                raise ValueError("squeeze factor must be nonzero")


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


def apply_gate(rows: np.ndarray, gate: Gate) -> None:
    """Left-multiply a (2n, K) array by a gate's quadrature action, in place.

    Follows the substitution table of `gate_action` row by row: a gate
    rewrites at most four rows (x_i, p_i, x_j, p_j) and leaves the rest
    untouched, so applying it costs O(K) for a (2n, K) array instead of a
    dense O(n^2 K) product.  A gate on a mode beyond the n modes of
    ``rows`` raises IndexError, possibly after rewriting one row;
    `gate_action` and `Circuit` check the modes up front.
    """
    n = rows.shape[0] // 2
    xi = gate.modes[0] - 1
    pi = n + xi
    kind = gate.kind
    if kind == SQUEEZE:
        rows[xi] *= gate.param
        rows[pi] *= 1.0 / gate.param
    elif kind == FOURIER:
        x = rows[xi].copy()
        rows[xi] = -rows[pi]
        rows[pi] = x
    elif kind == FOURIER_INV:
        x = rows[xi].copy()
        rows[xi] = rows[pi]
        rows[pi] = -x
    elif kind == PHASE_X:
        rows[pi] += gate.param * rows[xi]
    elif kind == PHASE_P:
        rows[xi] += gate.param * rows[pi]
    else:
        xj = gate.modes[1] - 1
        pj = n + xj
        if kind == QND_X:
            rows[pi] -= gate.param * rows[pj]
            rows[xj] += gate.param * rows[xi]
        elif kind == QND_P:
            rows[xi] -= gate.param * rows[xj]
            rows[pj] += gate.param * rows[pi]
        else:  # SWAP
            rows[[xi, xj, pi, pj]] = rows[[xj, xi, pj, pi]]


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
    for g in circuit.gates:
        apply_gate(a, g)
    return a


def invert_gate(gate: Gate) -> Gate:
    if gate.kind == SQUEEZE:
        return squeeze(gate.modes[0], 1.0 / gate.param)
    if gate.kind == FOURIER:
        return fourier_inv(gate.modes[0])
    if gate.kind == FOURIER_INV:
        return fourier(gate.modes[0])
    if gate.kind == SWAP:
        return gate
    return Gate(gate.kind, gate.modes, -gate.param)


def invert_circuit(circuit: Circuit) -> Circuit:
    """Gate-wise inverses in reverse order; composes to the inverse action."""
    return Circuit(circuit.n, tuple(invert_gate(g) for g in reversed(circuit.gates)))


def _cancels(g1: Gate, g2: Gate) -> bool:
    if g1.modes != g2.modes:
        return False
    inv = invert_gate(g1)
    if g2.kind != inv.kind:
        return False
    return inv.param is None or g2.param == inv.param


def simplify_circuit(circuit: Circuit) -> Circuit:
    """Drop adjacent exact-inverse gate pairs until none remain.

    Removes the Fourier bookkeeping that elimination rounds emit around
    sub-steps that turned out to be no-ops; the composed action is
    bit-identical since only exact inverse pairs are cancelled.
    """
    gates = list(circuit.gates)
    changed = True
    while changed:
        changed = False
        out: list[Gate] = []
        i = 0
        while i < len(gates):
            if i + 1 < len(gates) and _cancels(gates[i], gates[i + 1]):
                i += 2
                changed = True
            else:
                out.append(gates[i])
                i += 1
        gates = out
    return Circuit(circuit.n, tuple(gates))


@dataclass(frozen=True)
class CompilerReport:
    """Bookkeeping emitted alongside a decomposition."""

    gate_counts: dict = field(default_factory=dict)
    squeezer_count: int = 0
    max_abs_param: float = 0.0
    rounds: int = 0

    @property
    def total_gates(self) -> int:
        return sum(self.gate_counts.values())


class _Eliminator:
    """Accumulates left-multiplied elimination gates against a working matrix."""

    def __init__(self, a: np.ndarray, n: int, debug: bool, tol: float):
        self.work = a.copy()
        self.n = n
        self.gates: list[Gate] = []
        self.debug = debug
        self.tol = tol

    def push(self, gate: Gate) -> None:
        if gate.kind == SQUEEZE and abs(gate.param - 1.0) <= GATE_EPS:
            return
        if gate.kind in (QND_X, QND_P, PHASE_X, PHASE_P) and abs(gate.param) <= GATE_EPS:
            return
        apply_gate(self.work, gate)
        self.gates.append(gate)
        if self.debug:
            assert is_symplectic(self.work, 1e-8 * max(1.0, float(np.max(np.abs(self.work))))), (
                "intermediate matrix left the symplectic group"
            )


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
        el.push(fourier(m + 1))
        w = el.work
        pos = np.abs(w[r:n, r])
    m = r + int(np.argmax(pos))
    if m != r:
        el.push(swap(r + 1, m + 1))
    el.push(squeeze(r + 1, 1.0 / el.work[r, r]))


def decompose(a, tol: float = DEFAULT_TOL, debug: bool = False) -> tuple[Circuit, CompilerReport]:
    """Compile a symplectic quadrature action into a gate sequence.

    Round r clears position column r and momentum column n + r of the
    working matrix: pivot (permute / Fourier-rotate / squeeze to a unit
    pivot), sweep the position block with QND_X couplings, fold the
    remaining momentum entries away behind a Fourier with a PHASE_X and
    QND_P sweep, then repeat the mirrored sequence on column n + r.
    After each round the cleared rows and columns are unit vectors, and
    symplecticity confines all later work to the trailing submatrix.

    Args:
        a: symplectic (x | p)-ordered quadrature action.
        tol: symplecticity and pivot threshold.
        debug: assert symplecticity of every intermediate and the
            unit-row/column structure after each round.

    Returns:
        (circuit, report): the circuit's composed action reproduces ``a``.
    """
    a = require_symplectic(a, max(tol, DEFAULT_TOL) * max(1.0, float(np.max(np.abs(np.asarray(a))))), what="compiler input")
    n = a.shape[0] // 2
    el = _Eliminator(a, n, debug, tol)

    for r in range(n):
        _pivot(el, r, tol)
        for i in range(r + 1, n):  # clear position block of column r
            el.push(qnd_x(r + 1, i + 1, -el.work[i, r]))
        el.push(phase_x(r + 1, -el.work[n + r, r]))
        el.push(fourier(r + 1))
        for i in range(r + 1, n):  # clear momentum block of column r
            el.push(qnd_p(r + 1, i + 1, -el.work[n + i, r]))
        el.push(fourier_inv(r + 1))

        for i in range(r + 1, n):  # clear momentum block of column n + r
            el.push(qnd_p(r + 1, i + 1, -el.work[n + i, n + r]))
        el.push(phase_p(r + 1, -el.work[r, n + r]))
        el.push(fourier_inv(r + 1))
        for i in range(r + 1, n):  # clear position block of column n + r
            el.push(qnd_x(r + 1, i + 1, -el.work[i, n + r]))
        el.push(fourier(r + 1))

        if debug:
            scale = max(1.0, float(np.max(np.abs(el.work))))
            ident = np.eye(2 * n)
            for idx in (r, n + r):
                assert np.max(np.abs(el.work[idx] - ident[idx])) <= 1e-9 * scale
                assert np.max(np.abs(el.work[:, idx] - ident[:, idx])) <= 1e-9 * scale

    residual = float(np.max(np.abs(el.work - np.eye(2 * n))))
    if residual > 1e-6 * max(1.0, float(np.max(np.abs(a)))):
        raise ArithmeticError(f"elimination failed to reach the identity (residual {residual:.3e})")

    circuit = simplify_circuit(Circuit(n, tuple(invert_gate(g) for g in reversed(el.gates))))
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


def compile_encoder(code: CodeSpec) -> Circuit:
    """Encoding circuit of a code: the gate sequence realizing its encoder.

    The encoder's quadrature action is the transpose of the code's
    phase-space matrix (conjugating a displacement label by the encoder
    applies the inverse phase map, which is what carries the canonical
    checks onto the code's own).  A canonical code compiles to the empty
    circuit.
    """
    circuit, _ = decompose(encoder_quad_action(code))
    return circuit


def encoder_quad_action(code: CodeSpec) -> np.ndarray:
    """Quadrature action the encoding circuit must realize (equals upsilon^T).

    The stored basis is the exact inverse of the phase map, so the
    conversion runs on it directly instead of inverting upsilon.
    """
    return phase_map_to_quad_action(code.basis.T)


def verify_circuit(circuit: Circuit, code: CodeSpec) -> float:
    """Largest entry-wise deviation of a circuit's action from the code's encoder.

    Raises:
        CircuitVerificationError: if the deviation exceeds
            ``1e-8 * (1 + max |target|)``.
    """
    target = encoder_quad_action(code)
    deviation = float(np.max(np.abs(circuit_action(circuit) - target)))
    bound = 1e-8 * (1.0 + float(np.max(np.abs(target))))
    if deviation > bound:
        raise CircuitVerificationError(f"circuit action deviates by {deviation:.12g} (bound {bound:.12g})")
    return deviation


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
    gates = []
    for entry in payload:
        kind = entry["gate"]
        modes = tuple(int(m) for m in entry["modes"])
        param = entry.get("param")
        gates.append(Gate(kind, modes, None if param is None else float(param)))
    return Circuit(n=n, gates=tuple(gates))


def save_circuit(path, circuit: Circuit) -> None:
    """Write the interchange format: a JSON array of gate records."""
    with open(path, "w") as fh:
        json.dump(circuit_to_dicts(circuit), fh, indent=1)


def load_circuit(path, n: int | None = None) -> Circuit:
    """Read a gate-record array; n defaults to the largest mode mentioned."""
    with open(path) as fh:
        payload = json.load(fh)
    if n is None:
        n = max((max(entry["modes"]) for entry in payload), default=0)
    return circuit_from_dicts(payload, n)
