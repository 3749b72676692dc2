"""Reference implementations that tests check the package against and that no command runs.

The state-level Gaussian simulator lives here: states, squeezed and
entangled resources, circuits applied to states, displacements, the
uncertainty check, the measurement-based phase-gate protocol and the
exact beamsplitter.  It builds on `cvqec.simulator.GaussianState`,
`homodyne` and `apply_symplectic`, which stay in the package because the
benchmark tracer wraps them by name.  ``cvqec simulate`` runs the
experiment in closed form; tests run it through these states as well.

Beside it: the symplectic product of two phase vectors, a code's checks
augmented over the receiver's modes, the two-error distinguishability
test, the inverse of a circuit, and a circuit's gate list as one dict
per gate.
"""

from __future__ import annotations

import math

import numpy as np

from cvqec.codes import CodeSpec
from cvqec.compiler import Circuit, _inverse_record, apply_gates, fourier, qnd_p, qnd_x
from cvqec.decoder import syndrome
from cvqec.errors import DimensionMismatchError
from cvqec.simulator import GaussianState, homodyne
from cvqec.symplectic import as_phase_vector, mode_count, swap_halves, symplectic_form


# ---------------------------------------------------------------------------
# Phase vectors, codes, decoding and circuits
# ---------------------------------------------------------------------------


def symplectic_product(u, v) -> float:
    """Antisymmetric product ``p . x' - x . p'`` of two phase vectors."""
    u = as_phase_vector(u)
    v = as_phase_vector(v, mode_count(u))
    n = u.shape[0] // 2
    return float(u[:n] @ v[n:] - u[n:] @ v[:n])


def h_aug(code: CodeSpec) -> np.ndarray:
    """A code's check rows extended over the receiver's c modes, shape (m, 2(n + c)).

    Columns are laid out (p-half | p-aug | x-half | x-aug): the u-row of
    pair i gains -1 in receiver momentum column i and its v-row +1 in
    receiver position column i, so all rows commute.
    """
    n, _, _, c = code.params
    m = code.m
    rows = np.zeros((m, 2 * (n + c)))
    rows[:, :n] = code.h[:, :n]
    rows[:, n + c : 2 * n + c] = code.h[:, n:]
    for i in range(c):
        rows[i, n + i] = -1.0
        rows[m - c + i, 2 * n + c + i] = 1.0
    return rows


def is_correctable_pair(code: CodeSpec, u, u2, tol: float = 1e-9) -> bool:
    """Whether two errors are distinguishable or act identically on the codespace.

    True when the syndromes differ (the difference leaves the codespace
    detectably) or when the difference lies in the span of the code's
    isotropic check rows (a degenerate pair: same action on every encoded
    state).
    """
    u = as_phase_vector(u, code.n)
    u2 = as_phase_vector(u2, code.n)
    diff = u - u2
    scale = 1.0 + float(np.linalg.norm(diff))
    if float(np.max(np.abs(syndrome(code, diff)), initial=0.0)) > tol * scale:
        return True
    _, _, l, c = code.params
    if not l:
        return float(np.linalg.norm(diff)) <= tol * scale
    basis = code.basis[c : c + l].T
    coeff, *_ = np.linalg.lstsq(basis, diff, rcond=None)
    return float(np.linalg.norm(basis @ coeff - diff)) <= tol * scale


def invert_circuit(circuit: Circuit) -> Circuit:
    """Record-wise inverses in reverse order, as `decompose` inverts its records; composes to the inverse action."""
    return Circuit(circuit.n, tuple(_inverse_record(*record) for record in reversed(circuit.records)))


def circuit_to_dicts(circuit: Circuit) -> list[dict]:
    """A circuit's file form: one ``{"gate", "modes"[, "param"]}`` dict per gate, a run expanded in its gates' order."""
    out = []
    for kind, modes, param in circuit.records:
        if isinstance(param, np.ndarray):
            control, targets = modes
            targets = list(targets) if isinstance(targets, range) else targets.tolist()
            out += [{"gate": kind, "modes": [control, t], "param": g} for t, g in zip(targets, param.tolist())]
        elif param is None:
            out.append({"gate": kind, "modes": list(modes)})
        else:
            out.append({"gate": kind, "modes": list(modes), "param": param})
    return out


# ---------------------------------------------------------------------------
# Gaussian states
# ---------------------------------------------------------------------------


def vacuum(n: int) -> GaussianState:
    """n-mode vacuum: zero means, variance 1/2 per quadrature."""
    return GaussianState(n=n, mean=np.zeros(2 * n), factor=np.eye(2 * n) / math.sqrt(2.0))


def position_squeezed(r: float) -> GaussianState:
    """Single mode with var(x) = e^{-2r}/2 and var(p) = e^{2r}/2."""
    if r < 0:
        raise ValueError(f"squeezing parameter must be >= 0, got {r}")
    f = np.diag([math.exp(-r), math.exp(r)]) / math.sqrt(2.0)
    return GaussianState(n=1, mean=np.zeros(2), factor=f)


def epr_pair(r: float) -> GaussianState:
    """Two-mode squeezed vacuum approximating the ideal entangled resource.

    Built as one p-squeezed and one x-squeezed mode on a balanced
    beamsplitter, which gives the standard covariance (x-block
    cosh(2r)/2 with +sinh(2r)/2 off-diagonal, p-block with the opposite
    sign) while keeping var(x_A - x_B) = var(p_A + p_B) = e^{-2r} exact
    in the factor.
    """
    if r < 0:
        raise ValueError(f"squeezing parameter must be >= 0, got {r}")
    s = 1.0 / math.sqrt(2.0)
    rot = np.array(
        [
            [s, -s, 0.0, 0.0],
            [s, s, 0.0, 0.0],
            [0.0, 0.0, s, -s],
            [0.0, 0.0, s, s],
        ]
    )
    half = np.diag([math.exp(r), math.exp(-r), math.exp(-r), math.exp(r)]) / math.sqrt(2.0)
    return GaussianState(n=2, mean=np.zeros(4), factor=rot @ half)


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    """Product state of two registers, second appended after the first."""
    n = a.n + b.n
    mean = np.concatenate([a.mean[: a.n], b.mean[: b.n], a.mean[a.n :], b.mean[b.n :]])
    ka, kb = a.factor.shape[1], b.factor.shape[1]
    factor = np.zeros((2 * n, ka + kb))
    factor[: a.n, :ka] = a.factor[: a.n]
    factor[a.n : n, ka:] = b.factor[: b.n]
    factor[n : n + a.n, :ka] = a.factor[a.n :]
    factor[n + a.n :, ka:] = b.factor[b.n :]
    return GaussianState(n=n, mean=mean, factor=factor)


def apply_circuit(state: GaussianState, circuit: Circuit) -> GaussianState:
    """Apply a gate sequence (first gate first) to mean and factor, run by run through `apply_gates`."""
    if circuit.n != state.n:
        raise DimensionMismatchError(f"circuit is on {circuit.n} modes, state has {state.n}")
    work = np.column_stack((state.mean, state.factor))
    apply_gates(work, circuit.records)
    return GaussianState(n=state.n, mean=work[:, 0].copy(), factor=work[:, 1:])


def displace(state: GaussianState, d) -> GaussianState:
    """Shift the means by d (quadrature ordering); covariance is untouched."""
    d = np.asarray(d, dtype=float)
    if d.shape != (2 * state.n,):
        raise DimensionMismatchError(f"displacement shape {d.shape} does not fit {state.n} modes")
    return GaussianState(n=state.n, mean=state.mean + d, factor=state.factor)


def displace_error(state: GaussianState, u) -> GaussianState:
    """Apply a displacement labelled by a phase vector (p | x)."""
    return displace(state, swap_halves(u))


def uncertainty_defect(state: GaussianState) -> float:
    """Most negative eigenvalue of cov + i J / 2 (0 for physical states)."""
    eigs = np.linalg.eigvalsh(state.cov + 0.5j * symplectic_form(state.n))
    return float(min(np.min(eigs), 0.0))


def phase_gate_protocol(
    state: GaussianState,
    mode: int,
    g1: float,
    g2: float,
    r: float,
    rng: np.random.Generator,
) -> GaussianState:
    """Measurement-based position phase gate of strength 2 g1 g2 on one mode.

    An ancilla squeezed in position by r is coupled to the target with a
    position QND gate of strength g1, Fourier-rotated, coupled back with
    a momentum QND gate of strength g2, and read out in position; the
    outcome feeds forward as a momentum displacement of -g1 times the
    result on the target.  In the infinite-squeezing limit the target is
    left with x -> x, p -> p + 2 g1 g2 x; at finite r the momentum picks
    up additive noise of variance g2^2 e^{-2r} / 2 from the leftover
    ancilla quadrature.
    """
    if not 1 <= mode <= state.n:
        raise DimensionMismatchError(f"mode {mode} out of range 1..{state.n}")
    if r < 0:
        raise ValueError(f"squeezing parameter must be >= 0, got {r}")
    n = state.n
    st = tensor(state, position_squeezed(r))
    anc = n + 1
    st = apply_circuit(
        st,
        Circuit(n=anc, records=(qnd_x(mode, anc, g1), fourier(anc), qnd_p(anc, mode, g2))),
    )
    rec = homodyne(st, anc, "x", rng)
    st = rec.posterior
    d = np.zeros(2 * n)
    d[n + mode - 1] = -g1 * rec.outcome
    return displace(st, d)


def balanced_beamsplitter(m1: int, m2: int, n: int) -> Circuit:
    """Exact 50:50 beamsplitter between two modes, built from three QND gates.

    Its action rotates both quadrature planes by 45 degrees:
    x_1 -> (x_1 - x_2)/sqrt(2), x_2 -> (x_1 + x_2)/sqrt(2), same for p.
    Used to turn the relative-position / total-momentum observables of an
    entangled pair into single-mode homodyne targets.
    """
    t = math.tan(math.pi / 8.0)
    s = math.sin(math.pi / 4.0)
    return Circuit(n=n, records=(qnd_p(m1, m2, t), qnd_x(m1, m2, s), qnd_p(m1, m2, t)))
