"""Reference implementations that tests check the package against and that no command runs.

The state-level Gaussian simulator lives here: states, squeezed and
entangled resources, circuits applied to states, displacements, the
uncertainty check, the measurement-based phase-gate protocol (one trial,
or many along a trial axis) and the exact beamsplitter.  It builds on
`cvqec.simulator.GaussianState`, `homodyne` and `apply_symplectic`, which
stay in the package because the benchmark tracer wraps them by name.
``cvqec simulate`` runs the experiment in closed form; tests run it
through these states as well.

Beside it: the symplectic product of two phase vectors, the
symplecticity test of a matrix's columns, the code judge that
`cvqec.codes.verify_code` is checked against, a code's checks
augmented over the receiver's modes, the two-error distinguishability
test, single-mode decoding by one least-squares solve per row and mode,
the inverse of a circuit, the full-action check of a circuit against
its code's encoder that `verify_circuit`'s probes stand in for, a
circuit's gate list as one dict per gate,
the circuit of an arbitrary symplectic action, which the package's
`decompose` no longer compiles since it takes a code, and the
error-correction experiment with its statistics taken over an array of
per-trial data quadratures, in double or in extended precision.

Hand-built circuits start here too.  `Gate` is one gate validated by
its constructor, the per-gate reference that the column-wise circuit
loader is checked against, and `squeeze`, `fourier`, `fourier_inv`,
`qnd_x`, `qnd_p`, `phase_x`, `phase_p` and `swap` build one each.
`circuit_of` turns a list of records into a circuit through
`cvqec.compiler.circuit_from_dicts`, so a hand-built circuit's runs are
formed as a circuit file's are.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from cvqec.codes import CodeSpec
from cvqec.compiler import (
    FOURIER,
    FOURIER_INV,
    GATE_KINDS,
    PHASE_P,
    PHASE_X,
    QND_P,
    QND_X,
    SQUEEZE,
    SWAP,
    Circuit,
    _inverse_record,
    apply_gate,
    circuit_action,
    circuit_from_dicts,
    eliminate,
    encoder_quad_action,
)
from cvqec.decoder import AMBIGUOUS, DECODED, NO_ERROR, UNCORRECTABLE, decode_batch, syndrome
from cvqec.decomposition import check_rows
from cvqec.errors import BuildVerificationError, DimensionMismatchError
from cvqec.simulator import _DECODE_TOL, ExperimentStats, GaussianState, homodyne, readout_syndromes
from cvqec.symplectic import DEFAULT_TOL, as_phase_vector, mode_count, scaled_defect, swap_halves, symplectic_form


# ---------------------------------------------------------------------------
# Gates and hand-built circuits
# ---------------------------------------------------------------------------


class _GateRecord(NamedTuple):
    kind: str
    modes: tuple[int, ...]
    param: float | None = None


class Gate(_GateRecord):
    """One gate instance; modes are 1-based.

    A gate is a (kind, modes, param) record whose constructor validates
    it: a kind of `GATE_KINDS`, two distinct modes for QND_X, QND_P and
    SWAP and one for the rest, all from 1, no parameter on FOURIER,
    FOURIER_INV and SWAP, and a finite one on the rest, nonzero for
    SQUEEZE.  It is a tuple, so `apply_gate` takes it as a bare record.
    """

    __slots__ = ()

    def __new__(cls, kind: str, modes: tuple[int, ...], param: float | None = None):
        if kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {kind!r}")
        want = 2 if kind in (QND_X, QND_P, SWAP) else 1
        if len(modes) != want:
            raise ValueError(f"{kind} takes {want} mode(s), got {modes}")
        if min(modes) < 1:
            raise ValueError(f"modes are 1-based, got {modes}")
        if want == 2 and modes[0] == modes[1]:
            raise ValueError(f"{kind} needs two distinct modes")
        if kind in (FOURIER, FOURIER_INV, SWAP):
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


def circuit_of(n: int, records) -> Circuit:
    """A circuit on n modes from (kind, modes, param) records, read as a circuit file is read.

    The records, single gates or runs, are written out one dict per gate
    (`circuit_to_dicts`) and loaded by `circuit_from_dicts`, which checks
    them and forms their runs.  Modes are ints and parameters Python
    floats, as the loader reads them from JSON.
    """
    return circuit_from_dicts(circuit_to_dicts(Circuit(n, tuple(records))), n)


# ---------------------------------------------------------------------------
# Phase vectors, codes, decoding and circuits
# ---------------------------------------------------------------------------


def symplectic_product(u, v) -> float:
    """Antisymmetric product ``p . x' - x . p'`` of two phase vectors."""
    u = as_phase_vector(u)
    v = as_phase_vector(v, mode_count(u))
    n = u.shape[0] // 2
    return float(u[:n] @ v[n:] - u[n:] @ v[:n])


def is_symplectic(m, tol: float = DEFAULT_TOL) -> bool:
    """True iff each entry of ``M^T J M - J`` is within ``tol`` on its columns' scale (`scaled_defect` of ``M^T``); M must be square of even dimension."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
        raise DimensionMismatchError(f"expected a square matrix of even dimension, got shape {m.shape}")
    return scaled_defect(m.T) <= tol


def verify_code_by_parts(code: CodeSpec) -> None:
    """The judge `cvqec.codes.verify_code` must agree with: each of its checks made on its own, with numpy's own helpers.

    The same checks, thresholds and messages, in the same order: the
    basis through `is_symplectic` of its transpose, each row norm by
    `numpy.linalg.norm` where it is needed, the kept rows by `numpy.delete`
    and their rank by `numpy.linalg.matrix_rank`.
    """
    basis = code.basis
    n, k, l, c = code.params
    if min(code.params) < 0 or k + l + c != n or basis.shape != (2 * n, 2 * n):
        raise BuildVerificationError(f"{code.params} and a {basis.shape} basis do not describe a code")
    if not is_symplectic(basis.T, 1e-9):
        raise BuildVerificationError("basis rows are not a symplectic basis")
    rows, dropped = code.input_rows, code.dropped_rows
    dropped_ok = len(set(dropped) & set(range(len(rows)))) == len(dropped)
    if rows.shape[1] != 2 * n or not dropped_ok or len(rows) - len(dropped) != code.m:
        raise BuildVerificationError(f"input rows {rows.shape} less dropped rows {list(dropped)} are not {code.m} checks on {n} modes")
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise BuildVerificationError(f"input row {int(finite.argmin())} is not finite")
    checks, data = check_rows(n, l, c)
    others = basis[np.concatenate((checks[c : c + l], data))]
    products = np.abs(np.hstack((-rows[:, n:], rows[:, :n])) @ others.T)
    scale = np.outer(np.maximum(np.linalg.norm(rows, axis=1), 1.0), np.linalg.norm(others, axis=1))
    if not np.all(products <= 1e-8 * scale):
        raise BuildVerificationError("input rows leave the check rowspace")
    kept = np.delete(rows, dropped, axis=0)
    norms = np.linalg.norm(kept, axis=1, keepdims=True)
    if not np.all((0.0 < norms) & (norms < np.inf)) or np.linalg.matrix_rank(kept / norms) < code.m:
        raise BuildVerificationError(f"input rows other than dropped rows {list(dropped)} are dependent")


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


def decode_by_lstsq(code: CodeSpec, s, tol: float) -> tuple[np.ndarray, ...]:
    """`cvqec.decoder.decode_batch`'s outcome rules, one row and one mode at a time, by `numpy.linalg.lstsq`.

    For each syndrome row and each mode, the (m, 2) system of the mode's
    unit momentum and position syndromes is solved by least squares at
    lstsq's default cutoff, and its residual is the norm of the fitted
    syndrome minus the row.  The smallest residual wins (the first mode
    on a tie).  Per row, in order: ``|s| <= tol`` is NO_ERROR, a best
    residual above ``tol * (1 + |s|)`` is UNCORRECTABLE, a runner-up
    within ``tol * (1 + best)`` of the best is AMBIGUOUS, and the rest is
    DECODED.

    Returns (status, mode, shift, residual, runner-up residual, margin,
    gap) per row, as `decode_batch` reports the first five (mode 0 and
    residual ``|s|`` on NO_ERROR rows, an infinite runner-up residual for
    a one-mode code).  ``margin`` is the row's smallest distance to a
    threshold of the status, each over its own scale: ``|s|`` to ``tol``
    and the best residual to ``tol * (1 + |s|)`` over ``max(1, |s|)``,
    and the runner-up's excess over the best to ``tol * (1 + best)`` over
    that threshold plus ``1e-4 max(1, |s|)``.  That threshold does not
    grow with ``|s|``, while the two residuals' rounding, about
    ``eps |s|``, does: so a margin of 1e-8 there keeps the excess
    ``1e-12 max(1, |s|)`` away from it, not ``1e-8 |s|``.  ``gap`` is that
    excess alone, over ``max(1, |s|)``: where it is 0, rounding picks the
    mode (and its shift).
    """
    s = np.atleast_2d(np.asarray(s, dtype=float))
    n, smat = code.n, code.syndrome_matrix
    status = np.empty(len(s), dtype=int)
    mode = np.empty(len(s), dtype=int)
    shift = np.empty((len(s), 2))
    residual = np.empty(len(s))
    runner_up = np.empty(len(s))
    margin = np.empty(len(s))
    gap = np.empty(len(s))
    for i, row in enumerate(s):
        norm = float(np.linalg.norm(row))
        fits = []
        for j in range(n):
            system = np.column_stack([smat[:, j], smat[:, n + j]])
            theta = np.linalg.lstsq(system, row, rcond=None)[0]
            fits.append((float(np.linalg.norm(system @ theta - row)), j, theta))
        best, j, theta = min(fits, key=lambda fit: (fit[0], fit[1]))
        second = min((fit[0] for fit in fits if fit[1] != j), default=math.inf)
        scale = max(1.0, norm)
        ambiguous_at = tol * (1.0 + best)
        margin[i] = min(
            abs(norm - tol) / scale,
            abs(best - tol * (1.0 + norm)) / scale,
            abs(second - best - ambiguous_at) / (ambiguous_at + 1e-4 * scale),
        )
        gap[i] = (second - best) / scale
        if norm <= tol:
            status[i], mode[i], residual[i] = NO_ERROR, 0, norm
        else:
            if best > tol * (1.0 + norm):
                status[i] = UNCORRECTABLE
            elif second - best < tol * (1.0 + best):
                status[i] = AMBIGUOUS
            else:
                status[i] = DECODED
            mode[i], residual[i] = j + 1, best
        shift[i], runner_up[i] = theta, second
    return status, mode, shift, residual, runner_up, margin, gap


def invert_circuit(circuit: Circuit) -> Circuit:
    """Record-wise inverses in reverse order, as `decompose` inverts its records; composes to the inverse action."""
    return Circuit(circuit.n, tuple(_inverse_record(*record) for record in reversed(circuit.records)))


def compile_action(a: np.ndarray) -> Circuit:
    """The circuit of a symplectic (x | p) action: `cvqec.compiler.eliminate`'s records from all n rounds, whose composed action is ``a``."""
    n = len(a) // 2
    return Circuit(n, eliminate(a, n)[1])


def full_action_check(circuit: Circuit, code: CodeSpec) -> tuple[float, float]:
    """The full-action check that `cvqec.compiler.verify_circuit`'s probes stand in for: the circuit's whole action against the encoder.

    Returns ``(scaled, deviation)``: the largest row-wise deviation of
    `circuit_action` from `encoder_quad_action`, row i over ``1 + max
    |t_i|`` of the target's row (NaN if the action is not finite), and the
    largest entry-wise deviation.  The circuit passes iff ``scaled <= 1e-8``.
    """
    target = encoder_quad_action(code)
    action = circuit_action(circuit)
    if not np.isfinite(action).all():
        return math.nan, math.nan
    deviation = np.abs(action - target)
    return float((deviation.max(axis=1) / (1.0 + np.abs(target).max(axis=1))).max()), float(deviation.max())


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
    """Apply a circuit (first record first) to mean and factor, record by record through `apply_gate`."""
    if circuit.n != state.n:
        raise DimensionMismatchError(f"circuit is on {circuit.n} modes, state has {state.n}")
    work = np.column_stack((state.mean, state.factor))
    for record in circuit.records:
        apply_gate(work, record)
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
    n = state.n
    rec = homodyne(_phase_gate_coupled(state, mode, g1, g2, r), n + 1, "x", rng)
    d = np.zeros(2 * n)
    d[n + mode - 1] = -g1 * rec.outcome
    return displace(rec.posterior, d)


def phase_gate_trials(
    state: GaussianState,
    mode: int,
    g1: float,
    g2: float,
    r: float,
    rng: np.random.Generator,
    trials: int,
) -> tuple[np.ndarray, np.ndarray]:
    """`phase_gate_protocol` run ``trials`` times at once, along a leading trial axis.

    Returns the output means, shape (trials, 2n), one row per trial, and
    the output covariance factor, which every trial shares: conditioning
    on a homodyne outcome moves the means by a fixed gain times the
    outcome and leaves the covariance as it is.  The outcomes are drawn
    in one call, which takes from ``rng`` the values that ``trials``
    calls of `phase_gate_protocol` take in turn, so a seed gives the same
    trials either way.
    """
    n = state.n
    st = _phase_gate_coupled(state, mode, g1, g2, r)
    q = n  # the ancilla's position row
    v = st.factor[q]
    var = float(v @ v)
    outcomes = rng.normal(st.mean[q], math.sqrt(var), size=trials)
    gain = st.factor @ v / var
    vhat = v / math.sqrt(var)
    factor = st.factor - np.outer(st.factor @ vhat, vhat)
    keep = [i for i in range(2 * (n + 1)) if i not in (q, 2 * n + 1)]  # drop the ancilla
    means = st.mean[keep] + np.outer(outcomes - st.mean[q], gain[keep])
    means[:, n + mode - 1] -= g1 * outcomes
    return means, factor[keep]


def _phase_gate_coupled(state: GaussianState, mode: int, g1: float, g2: float, r: float) -> GaussianState:
    """The target with its squeezed ancilla appended, after the protocol's three gates and before the readout."""
    if not 1 <= mode <= state.n:
        raise DimensionMismatchError(f"mode {mode} out of range 1..{state.n}")
    if r < 0:
        raise ValueError(f"squeezing parameter must be >= 0, got {r}")
    anc = state.n + 1
    return apply_circuit(
        tensor(state, position_squeezed(r)),
        circuit_of(anc, (qnd_x(mode, anc, g1), fourier(anc), qnd_p(anc, mode, g2))),
    )


def balanced_beamsplitter(m1: int, m2: int, n: int) -> Circuit:
    """Exact 50:50 beamsplitter between two modes, built from three QND gates.

    Its action rotates both quadrature planes by 45 degrees:
    x_1 -> (x_1 - x_2)/sqrt(2), x_2 -> (x_1 + x_2)/sqrt(2), same for p.
    Used to turn the relative-position / total-momentum observables of an
    entangled pair into single-mode homodyne targets.
    """
    t = math.tan(math.pi / 8.0)
    s = math.sin(math.pi / 4.0)
    return circuit_of(n, (qnd_p(m1, m2, t), qnd_x(m1, m2, s), qnd_p(m1, m2, t)))


def per_trial_experiment(code: CodeSpec, error, r: float, trials: int, seed: int) -> ExperimentStats:
    """`cvqec.simulator.run_ec_experiment` with its statistics taken over per-trial data quadratures.

    The package's own readout (`readout_syndromes`), drawn as one
    (trials, m) array, and one `decode_batch` call over every trial, so the
    rates and the syndromes are the package's own; then each DECODED
    trial's (p, x) correction is formed from its principal fit,
    ``BatchDecode.principal @ vt[j]`` (`CodeSpec.mode_planes`), as
    `cvqec.decoder.decode_single_mode` forms it, its corrected data
    quadratures as one row of a (trials, 2k) array, and the mean and
    variance are numpy's over its rows.  Inputs are not checked.
    """
    n, _, l, c = code.params
    error = np.asarray(error, dtype=float)
    support = {i % n for i in np.nonzero(error)[0]}
    error_mode = (support.pop() + 1) if support else 0
    checks, data = check_rows(n, l, c)
    shift = code.basis @ swap_halves(error)
    s_meas = readout_syndromes(code, shift[checks], r, np.random.default_rng(seed), trials)

    # A decoded shift (p, x) on mode j displaces the canonical frame by
    # p * basis[:, n + j] + x * basis[:, j]; only the data rows matter.
    residuals = np.tile(shift[data], (trials, 1))
    decoded = decode_batch(code, s_meas, tol=_DECODE_TOL)
    j = np.maximum(decoded.mode_hypothesis - 1, 0)
    shift = np.matmul(decoded.principal[:, None], code.mode_planes[2][j])[:, 0]
    shift *= (decoded.status == DECODED)[:, None]
    data_basis = code.basis[data].T
    for column, size in ((n + j, shift[:, :1]), (j, shift[:, 1:])):
        residuals -= data_basis[column] * size
    matched = np.isin(decoded.status, (NO_ERROR, DECODED)) & (decoded.mode_hypothesis == error_mode)
    return ExperimentStats(
        trials=trials,
        mean_residual=residuals.mean(axis=0),
        residual_variance=residuals.var(axis=0),
        excess_variance=residuals.var(axis=0),
        syndrome_noise_variance=(s_meas - syndrome(code, error)).var(axis=0),
        mode_match_rate=int(np.count_nonzero(matched)) / trials,
        ambiguity_rate=int(np.count_nonzero(decoded.status == AMBIGUOUS)) / trials,
        uncorrectable_rate=int(np.count_nonzero(decoded.status == UNCORRECTABLE)) / trials,
    )


def extended_precision_moments(code: CodeSpec, error, r: float, trials: int, seed: int):
    """``(mean_residual, residual_variance, syndrome_noise_variance)`` of `per_trial_experiment`'s trials, in ``np.longdouble``.

    The syndromes and decodes are the package's own, in double precision.
    Each DECODED trial's correction is then formed from its principal fit,
    ``BatchDecode.principal @ vt[j]`` (`CodeSpec.mode_planes`), and the
    corrected data quadratures, the syndromes' deviations from the error's
    ideal syndrome and both two-pass variances are taken in extended
    precision, so the figures carry the decoder's rounding and not that of
    the sums.  Inputs are not checked.
    """
    ext = np.longdouble
    n, _, l, c = code.params
    checks, data = check_rows(n, l, c)
    shift = code.basis @ swap_halves(np.asarray(error, dtype=float))
    s_meas = readout_syndromes(code, shift[checks], r, np.random.default_rng(seed), trials)
    decoded = decode_batch(code, s_meas, tol=_DECODE_TOL)
    j = np.maximum(decoded.mode_hypothesis - 1, 0)
    fit = np.einsum("tk,tkq->tq", decoded.principal.astype(ext), code.mode_planes[2].astype(ext)[j])
    fit *= (decoded.status == DECODED)[:, None]
    basis = code.basis[data].astype(ext)
    residuals = shift[data].astype(ext) - fit[:, :1] * basis[:, n + j].T - fit[:, 1:] * basis[:, j].T
    noise = s_meas.astype(ext) - shift[checks].astype(ext)
    mean = residuals.mean(axis=0)
    return mean, np.square(residuals - mean).mean(axis=0), np.square(noise - noise.mean(axis=0)).mean(axis=0)
