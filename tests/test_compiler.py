import functools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cvqec import reference
from cvqec.cli import _circuit_text
from cvqec.codes import build_code, canonical_parity_check, json_int
from cvqec.compiler import (
    FOURIER,
    FOURIER_INV,
    GATE_KINDS,
    PHASE_P,
    PHASE_X,
    PROBES,
    QND_P,
    QND_X,
    SQUEEZE,
    SWAP,
    _Eliminator,
    _inverse_record,
    apply_gate,
    circuit_action,
    circuit_from_dicts,
    circuit_report,
    decompose,
    eliminate,
    encoder_quad_action,
    gate_action,
    probe_columns,
    round_rows,
    verify_circuit,
)
from cvqec.errors import BuildVerificationError, CircuitVerificationError, DimensionMismatchError
from cvqec.symplectic import symplectic_inverse

from conftest import random_gates, random_symplectic_from_gates, random_symplectic_from_hamiltonian
from oracle import (
    Gate,
    circuit_of,
    circuit_to_dicts,
    compile_action,
    fourier,
    fourier_inv,
    full_action_check,
    invert_circuit,
    is_symplectic,
    phase_p,
    phase_x,
    qnd_p,
    qnd_x,
    squeeze,
    swap,
)


def test_fourier_action_single_mode():
    assert np.array_equal(gate_action(fourier(1), 1), np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_unit_squeeze_is_identity():
    assert np.array_equal(gate_action(squeeze(1, 1.0), 2), np.eye(4))


def test_qnd_inverse_parameter():
    a = gate_action(qnd_x(1, 2, 0.7), 2) @ gate_action(qnd_x(1, 2, -0.7), 2)
    assert np.allclose(a, np.eye(4), atol=1e-15)


@pytest.mark.parametrize(
    "gate",
    [
        squeeze(1, -1.7),
        fourier(2),
        fourier_inv(1),
        qnd_x(1, 3, 0.9),
        qnd_p(2, 1, -1.3),
        phase_x(3, 2.2),
        phase_p(1, -0.4),
        swap(2, 3),
    ],
)
def test_every_gate_is_symplectic(gate):
    assert is_symplectic(gate_action(gate, 3), 1e-12)


def test_gate_validation():
    with pytest.raises(ValueError):
        squeeze(1, 0.0)
    with pytest.raises(ValueError):
        qnd_x(2, 2, 1.0)
    with pytest.raises(ValueError):
        fourier(0)


def test_circuit_action_empty_and_fourier_period():
    assert np.array_equal(circuit_action(circuit_of(3, [])), np.eye(6))
    c = circuit_of(1, [fourier(1)] * 4)
    assert np.allclose(circuit_action(c), np.eye(2), atol=1e-15)


@st.composite
def circuits_with_target_runs(draw):
    """Loaded circuits whose QND runs have ascending targets, evenly spaced (a range) or not (an array), between single gates."""
    n = draw(st.integers(2, 7))
    param = st.floats(0.1, 1.5) | st.floats(-1.5, -0.1)
    gates = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(GATE_KINDS + (QND_X, QND_P) * 2))
        if kind in (QND_X, QND_P):
            if draw(st.booleans()):  # evenly spaced: a range
                step = draw(st.sampled_from([1, 2, 3]))
                first = draw(st.integers(1, n))
                count = draw(st.integers(1, min(n - 1, len(range(first, n + 1, step)))))
                targets = list(range(first, first + step * count, step))
            else:
                targets = sorted(draw(st.lists(st.integers(1, n), min_size=1, max_size=n - 1, unique=True)))
            control = draw(st.sampled_from([m for m in range(1, n + 1) if m not in targets]))
            gates += [(kind, (control, t), draw(param)) for t in targets]
        else:
            modes = tuple(draw(st.lists(st.integers(1, n), min_size=2 if kind == SWAP else 1, max_size=2 if kind == SWAP else 1, unique=True)))
            gates.append((kind, modes, None if kind in (FOURIER, FOURIER_INV, SWAP) else draw(param)))
    return circuit_of(n, gates)


def _kind_and_modes(record):
    kind, modes, _ = record
    return kind, [modes[0]] + [list(m) if isinstance(m, (range, np.ndarray)) else m for m in modes[1:]]


@settings(max_examples=300, deadline=None)
@given(circuits_with_target_runs())
@example(circuit_of(7, [(QND_X, (4, t), 0.5 * t) for t in (1, 3, 5, 7)] + [(QND_P, (1, t), 0.3) for t in (2, 3, 6)] + [squeeze(2, -1.3)]))
def test_invert_circuit_involution_and_action(c):
    back = invert_circuit(invert_circuit(c))
    # the same records; squeeze factors only up to double rounding of 1/(1/a)
    assert list(map(_kind_and_modes, back.records)) == list(map(_kind_and_modes, c.records))
    for (_, _, got), (_, _, want) in zip(back.records, c.records):
        if want is not None:
            assert type(got) is type(want)
            assert np.all(np.abs(np.subtract(got, want)) <= 1e-15 * np.abs(want))
    prod = circuit_action(invert_circuit(c)) @ circuit_action(c)
    assert np.max(np.abs(prod - np.eye(2 * c.n))) <= 1e-10 * (1 + np.max(np.abs(circuit_action(c))))
    for record in c.records:
        kind, modes, param = record
        if isinstance(param, np.ndarray):
            assert _in_run_form(record)
            # a run's inverse: the same targets object, negated parameters
            inv_kind, inv_modes, inv_param = _inverse_record(*record)
            assert inv_kind == kind and inv_modes[0] == modes[0] and inv_modes[1] is modes[1]
            assert np.array_equal(inv_param, -param)


def _in_run_form(record):
    """Whether a run record is in `_run`'s form: an ascending range, or an array that is not an evenly spaced ascending sequence."""
    _, (_, targets), param = record
    if len(targets) != len(param) or len(param) < 2:
        return False
    if isinstance(targets, range):
        return targets.step > 0
    steps = np.diff(targets)
    return isinstance(targets, np.ndarray) and not (steps[0] > 0 and np.all(steps == steps[0]))


def test_invert_circuit_gate_by_gate():
    c = circuit_of(1, [squeeze(1, 2.0), fourier(1)])
    inv = invert_circuit(c)
    assert inv.records == (fourier_inv(1), squeeze(1, 0.5))


def test_decompose_identity_is_empty():
    circuit = compile_action(np.eye(6))
    assert len(circuit) == 0
    assert sum(circuit_report(circuit)["gate_counts"].values()) == 0


def test_decompose_single_generator_roundtrip():
    a = gate_action(phase_x(1, 0.7), 2)
    circuit = compile_action(a)
    assert np.max(np.abs(circuit_action(circuit) - a)) <= 1e-10


def test_decompose_random_gate_products(rng):
    for _ in range(15):
        n = int(rng.integers(1, 5))
        a = random_symplectic_from_gates(n, rng, count=50)
        circuit = compile_action(a)
        bound = 1e-8 * (1.0 + np.max(np.abs(a)))
        assert np.max(np.abs(circuit_action(circuit) - a)) <= bound
        assert len(circuit) <= 8 * n * n + 8 * n
        assert all(g["gate"] in GATE_KINDS for g in circuit_to_dicts(circuit))


def test_decompose_hamiltonian_exponentials(rng):
    for _ in range(15):
        n = int(rng.integers(1, 5))
        a = random_symplectic_from_hamiltonian(n, rng)
        circuit = compile_action(a)
        assert np.max(np.abs(circuit_action(circuit) - a)) <= 1e-8 * (1.0 + np.max(np.abs(a)))


def test_decompose_needs_fourier_fallback():
    # A pure rotation leaves the position pivot of the trailing mode empty.
    a = gate_action(fourier(1), 1)
    circuit = compile_action(a)
    assert np.max(np.abs(circuit_action(circuit) - a)) <= 1e-12
    a2 = circuit_action(circuit_of(2, [fourier(1), fourier(2), qnd_x(1, 2, 1.3)]))
    circuit2 = compile_action(a2)
    assert np.max(np.abs(circuit_action(circuit2) - a2)) <= 1e-10


def test_compile_canonical_code_is_empty():
    code = build_code(canonical_parity_check(3, 1, 1, 1))
    assert len(decompose(code)[0]) == 0


def test_compile_reference_encoder_matches_target():
    code = reference.build_example_code()
    target = encoder_quad_action(code)
    circuit, _ = decompose(code)
    assert np.max(np.abs(circuit_action(circuit) - target)) <= 1e-8 * (1 + np.max(np.abs(target)))


def test_compile_random_code(rng):
    rows = rng.normal(size=(3, 6))
    code = build_code(rows)
    target = encoder_quad_action(code)
    circuit, _ = decompose(code)
    assert np.max(np.abs(circuit_action(circuit) - target)) <= 1e-8 * (1 + np.max(np.abs(target)))


def test_circuit_json_roundtrip(rng):
    c = random_gates(3, 12, rng)
    payload = circuit_to_dicts(c)
    for entry in payload:
        assert set(entry) <= {"gate", "modes", "param"}
    clone = circuit_from_dicts(payload, 3)
    assert circuit_to_dicts(clone) == payload


def dense_from_table(gate, n):
    """The gate's quadrature action built straight from the substitution table.

    Each entry maps a rewritten row to its {source row: coefficient} terms,
    with rows x_i = i - 1 and p_i = n + i - 1 of the (x | p) ordering.
    """
    xi = gate.modes[0] - 1
    pi = n + xi
    xj = gate.modes[1] - 1 if len(gate.modes) > 1 else None
    pj = None if xj is None else n + xj
    g = gate.param
    table = {
        SQUEEZE: lambda: {xi: {xi: g}, pi: {pi: 1.0 / g}},
        FOURIER: lambda: {xi: {pi: -1.0}, pi: {xi: 1.0}},
        FOURIER_INV: lambda: {xi: {pi: 1.0}, pi: {xi: -1.0}},
        QND_X: lambda: {pi: {pi: 1.0, pj: -g}, xj: {xj: 1.0, xi: g}},
        QND_P: lambda: {xi: {xi: 1.0, xj: -g}, pj: {pj: 1.0, pi: g}},
        PHASE_X: lambda: {pi: {pi: 1.0, xi: g}},
        PHASE_P: lambda: {xi: {xi: 1.0, pi: g}},
        SWAP: lambda: {xi: {xj: 1.0}, xj: {xi: 1.0}, pi: {pj: 1.0}, pj: {pi: 1.0}},
    }
    m = np.eye(2 * n)
    for row, terms in table[gate.kind]().items():
        m[row] = 0.0
        for col, coef in terms.items():
            m[row, col] = coef
    return m


@st.composite
def gates_on_arrays(draw):
    kind = draw(st.sampled_from(GATE_KINDS))
    two_mode = kind in (QND_X, QND_P, SWAP)
    n = draw(st.integers(2 if two_mode else 1, 6))
    modes = draw(st.lists(st.integers(1, n), min_size=2 if two_mode else 1, max_size=2 if two_mode else 1, unique=True))
    param = None
    if kind not in (FOURIER, FOURIER_INV, SWAP):
        param = draw(st.floats(0.05, 20.0)) * draw(st.sampled_from([-1.0, 1.0]))
    k = draw(st.integers(1, 7))
    seed = draw(st.integers(0, 2**32 - 1))
    rows = np.random.default_rng(seed).normal(size=(2 * n, k)) * 10.0 ** draw(st.integers(-3, 3))
    return Gate(kind, tuple(modes), param), rows


@settings(max_examples=300, deadline=None)
@given(gates_on_arrays())
def test_apply_gate_matches_dense_table(case):
    gate, rows = case
    m = dense_from_table(gate, rows.shape[0] // 2)
    want = m @ rows
    got = rows.copy()
    apply_gate(got, gate)
    scale = float(np.max(np.abs(m))) * float(np.max(np.abs(rows)))
    assert np.max(np.abs(got - want)) <= 1e-14 * scale


def test_gate_action_keeps_dimension_check():
    with pytest.raises(DimensionMismatchError):
        gate_action(qnd_x(1, 3, 0.5), 2)


@pytest.mark.parametrize("n", [32, 64])
def test_decompose_round_trip_large(n):
    a = random_symplectic_from_hamiltonian(n, np.random.default_rng(n))
    circuit = compile_action(a)
    assert np.max(np.abs(circuit_action(circuit) - a)) <= 1e-8 * (1.0 + np.max(np.abs(a)))
    assert len(circuit) <= 8 * n * n + 8 * n


def test_verify_circuit_returns_deviation_and_raises():
    code = reference.build_example_code()
    target = encoder_quad_action(code)
    circuit, _ = decompose(code)
    assert 0.0 <= verify_circuit(circuit, code) <= 1e-8 * (1.0 + np.max(np.abs(target)))
    broken = circuit_of(code.n, circuit.records[:-1])
    with pytest.raises(CircuitVerificationError):
        verify_circuit(broken, code)


# ---------------------------------------------------------------------------
# verify_circuit's probes stand in for the full action
# ---------------------------------------------------------------------------

# Above this many times the 1e-8 bound, a circuit passes the K = 16 probes
# with probability at most (sqrt(2/pi) / 10)^16 = 2.7e-18; below the bound
# over the probes' largest column 1-norm it passes them for certain.  The
# two verdicts are compared outside that band.
PROBE_BAND_ABOVE = 10.0


def _rounding_bound(circuit, x: np.ndarray) -> np.ndarray:
    """A bound on how far `apply_gate`'s records, applied to ``x`` in doubles, land from the exact product of their gate matrices with ``x``.

    Row i of ``G Y`` for a record of gate matrix G is a sum of the k
    nonzero entries of G's row i times entries of Y, so it rounds by at
    most ``gamma_k (|G| |Y|)_i``, where ``gamma_k = k u / (1 - k u)`` and u
    is the unit roundoff; a signed unit row moves an entry exactly
    (k = 0).  G carries the error already made, so the bound E grows as
    ``E <- |G| E + gamma_k |G| |Y|`` over the records, Y the computed array.
    """
    u = np.finfo(float).eps / 2
    y, bound = x.copy(), np.zeros_like(x)
    for record in circuit.records:
        gate = np.eye(len(x))
        apply_gate(gate, record)  # exact: each entry is a parameter, 1 or 0
        nonzero = np.count_nonzero(gate, axis=1)
        k = np.where((nonzero == 1) & (np.abs(gate).max(axis=1) == 1.0), 0, nonzero)[:, None]
        bound = np.abs(gate) @ bound + k * u / (1 - k * u) * (np.abs(gate) @ np.abs(y))
        apply_gate(y, record)
    return bound


def probe_rounding(circuit, code) -> float:
    """The largest rounding the probe deviation can carry beyond the full deviation times the probes' column 1-norm.

    Entry (i, j) of the probe deviation is ``fl(A X) - fl(T X)``, and
    ``|A X - T X| <= |fl(A) - T| |X| + |fl(A) - A| |X|``, where A is the
    exact product of the records' gate matrices and ``fl(A)`` the full
    action `circuit_action` computes: `_rounding_bound` of the records on
    X bounds ``fl(A X) - A X``, on the identity ``fl(A) - A``, and the
    product ``T @ X``, over 2n terms, rounds by at most ``gamma_2n |T| |X|``.
    """
    n, u = code.n, np.finfo(float).eps / 2
    probes = probe_columns(n)
    target = np.abs(encoder_quad_action(code))
    bound = _rounding_bound(circuit, probes) + (_rounding_bound(circuit, np.eye(2 * n)) + 2 * n * u / (1 - 2 * n * u) * target) @ np.abs(probes)
    return float(bound.max())


def assert_probes_give_the_full_verdict(circuit, code):
    """`verify_circuit`'s verdict is the full-action check's outside the band, and its deviation is within the probes' bound."""
    scaled, deviation = full_action_check(circuit, code)
    try:
        probe_deviation = verify_circuit(circuit, code)
    except CircuitVerificationError:
        probe_deviation = None
    if 2 * code.n <= PROBES:  # the identity's columns: the full check itself
        assert (probe_deviation is not None) == (scaled <= 1e-8)
        assert probe_deviation in (None, deviation)
        return
    norm = float(np.abs(probe_columns(code.n)).sum(axis=0).max())
    if scaled <= 1e-8 / norm:
        assert probe_deviation is not None
    elif not scaled < 1e-8 * PROBE_BAND_ABOVE:  # NaN too
        assert probe_deviation is None
    if probe_deviation is not None:
        assert probe_deviation <= deviation * norm * (1 + 1e-12) + probe_rounding(circuit, code)


@functools.cache
def _benchmark_code(index):
    """The code and circuit of the index-th of the benchmark's nine check matrices."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "chainbench"))
    from workloads import COMPILE_LARGE_CODES, MC_MIDSIZE_CODES, REFERENCE_ROWS, random_code_rows

    rows = [np.array(REFERENCE_ROWS, dtype=float)] + [random_code_rows(*shape) for shape in COMPILE_LARGE_CODES + MC_MIDSIZE_CODES]
    code = build_code(rows[index])
    return code, decompose(code)[0]


def _spoiled(circuit, spoil, pick):
    """The circuit with one gate spoiled, through its file form: a QND parameter times 1 + 1e-7, a QND gate's kind swapped, or a gate dropped."""
    gates = circuit_to_dicts(circuit)
    qnd = [i for i, gate in enumerate(gates) if gate["gate"] in (QND_X, QND_P)]
    if spoil == "dropped":
        del gates[pick % len(gates)]
    else:
        assume(qnd)
        gate = gates[qnd[pick % len(qnd)]]
        if spoil == "scaled":
            gate["param"] *= 1 + 1e-7
        else:
            gate["gate"] = QND_P if gate["gate"] == QND_X else QND_X
    return circuit_from_dicts(gates, circuit.n)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(st.tuples(st.just("built"), st.integers(1, 24), st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0)), st.tuples(st.just("bench"), st.integers(0, 8))),
    st.sampled_from([None, "scaled", "swapped", "dropped"]),
    st.integers(0, 2**16),
)
# Unspoiled, its full deviation is 1.1e-16 and its probe deviation 3.1e-15,
# above that times the probes' column 1-norm, 2.5e-15: the probes' own
# products round too.
@example(source=("built", 12, 86359, 0.03125), spoil=None, pick=0)
def test_the_probes_give_the_full_actions_verdict(source, spoil, pick):
    # Built codes of 1 to 24 modes (identity columns up to 8) and the
    # benchmark's nine matrices, compiled, then as compiled or spoiled.
    if source[0] == "bench":
        code, circuit = _benchmark_code(source[1])
    else:
        _, n, seed, log_scale = source
        rng = np.random.default_rng(seed)
        rows = 10.0**log_scale * rng.normal(size=(int(rng.integers(1, 2 * n + 1)), 2 * n))
        try:
            code = build_code(rows)
        except BuildVerificationError:
            assume(False)
        circuit = decompose(code)[0]
    if spoil is not None:
        assume(len(circuit))
        circuit = _spoiled(circuit, spoil, pick)
    assert_probes_give_the_full_verdict(circuit, code)


def test_the_probes_are_the_identity_up_to_eight_modes_and_seeded_beyond():
    assert PROBES == 16
    for n in (1, 8):
        assert np.array_equal(probe_columns(n), np.eye(2 * n))
    probes = probe_columns(9)
    assert probes.shape == (18, 16)
    assert np.array_equal(probes, np.random.default_rng(1977).standard_normal((18, 16)))
    assert np.array_equal(probe_columns(9), probes)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.booleans())
def test_decompose_emits_gates_that_revalidate(n, seed, from_gates):
    # The eliminator builds its gates without the constructor's checks;
    # every one of them must still pass those checks.
    rng = np.random.default_rng(seed)
    if from_gates:
        a = random_symplectic_from_gates(n, rng, count=30)
    else:
        a = random_symplectic_from_hamiltonian(n, rng)
    circuit = compile_action(a)
    for g in circuit_to_dicts(circuit):
        assert Gate(g["gate"], tuple(g["modes"]), g.get("param"))
        assert all(type(m) is int for m in g["modes"]) and max(g["modes"]) <= n
        assert type(g.get("param", 0.0)) is float


@st.composite
def qnd_runs_on_arrays(draw):
    """A QND record with many targets: an ascending range, or an array in any order (evenly spaced descending ones too)."""
    kind = draw(st.sampled_from([QND_X, QND_P]))
    n = draw(st.integers(2, 7))
    if draw(st.booleans()):
        step = draw(st.sampled_from([1, 2, 3, -1, -2, -3]))
        first = draw(st.integers(1, n))
        count = draw(st.integers(1, min(n - 1, len(range(first, 0 if step < 0 else n + 1, step)))))
        targets = range(first, first + step * count, step)
        if step < 0:  # a run's range ascends; descending targets are an array
            targets = np.array(targets)
    else:
        targets = np.array(draw(st.lists(st.integers(1, n), min_size=1, max_size=n - 1, unique=True)))
    control = draw(st.sampled_from([m for m in range(1, n + 1) if m not in targets]))
    params = [draw(st.floats(0.05, 20.0)) * draw(st.sampled_from([-1.0, 1.0])) for _ in targets]
    k = draw(st.integers(1, 7))
    seed = draw(st.integers(0, 2**32 - 1))
    rows = np.random.default_rng(seed).normal(size=(2 * n, k)) * 10.0 ** draw(st.integers(-3, 3))
    return kind, control, targets, params, rows


@settings(max_examples=300, deadline=None)
@given(qnd_runs_on_arrays())
def test_apply_gate_array_targets_match_dense_table(case):
    kind, control, targets, params, rows = case
    n = rows.shape[0] // 2
    want = rows.copy()
    for t, g in zip(targets, params):
        want = dense_from_table(Gate(kind, (control, int(t)), g), n) @ want
    got = rows.copy()
    apply_gate(got, (kind, (control, targets), np.array(params)))
    scale = (1.0 + sum(abs(g) for g in params)) * float(np.max(np.abs(rows)))
    assert np.max(np.abs(got - want)) <= 1e-14 * scale


@st.composite
def circuits_with_qnd_runs(draw):
    """Random gate lists made of QND runs (targets may repeat) and single gates, with their mode count."""
    n = draw(st.integers(2, 6))
    param = st.floats(0.1, 2.0).map(float) | st.floats(-2.0, -0.1).map(float)
    gates = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.integers(0, 2)):
            kind = draw(st.sampled_from([QND_X, QND_P]))
            control = draw(st.integers(1, n))
            targets = draw(st.lists(st.integers(1, n).filter(lambda t: t != control), min_size=1, max_size=2 * n))
            gates.extend(Gate(kind, (control, t), draw(param)) for t in targets)
        else:
            kind = draw(st.sampled_from([SQUEEZE, FOURIER, FOURIER_INV, PHASE_X, PHASE_P, SWAP]))
            modes = tuple(draw(st.lists(st.integers(1, n), min_size=2 if kind == SWAP else 1, max_size=2 if kind == SWAP else 1, unique=True)))
            gates.append(Gate(kind, modes, None if kind in (FOURIER, FOURIER_INV, SWAP) else draw(param)))
    return n, gates


@settings(max_examples=300, deadline=None)
@given(circuits_with_qnd_runs())
@example(
    # A run that repeats a target, a run of QND_P after one of QND_X from the
    # same control, a run's control as a later target, and single-gate runs.
    (4, [
        qnd_x(1, 2, 0.7), qnd_x(1, 3, -1.1), qnd_x(1, 2, 0.4), qnd_x(1, 4, 1.9),
        qnd_p(1, 3, 0.6), qnd_p(1, 4, -0.3),
        qnd_x(2, 1, 1.3), squeeze(2, 1.5), qnd_p(3, 1, -0.8), phase_x(1, 0.5), qnd_x(4, 3, 0.9),
    ])
)
@example(
    # Targets whose ends are evenly spaced but whose middle is not.
    (6, [qnd_p(1, t, 0.3 * t) for t in (2, 3, 5, 4, 6)])
)
def test_run_grouped_composition_matches_gate_by_gate_fold(case):
    # The loader forms the runs; the reference applies the drawn gates one by one.
    n, gates = case
    want, scale = _gate_by_gate(n, gates)
    circuit = circuit_of(n, gates)
    assert len(circuit) == len(gates)
    assert np.max(np.abs(circuit_action(circuit) - want)) <= 1e-13 * scale


def _gate_by_gate(n, gates):
    """The action of single gates folded one `apply_gate` call each, and the largest entry along the way (at least 1)."""
    want = np.eye(2 * n)
    scale = 1.0
    for g in gates:
        apply_gate(want, g)
        scale = max(scale, float(np.max(np.abs(want))))
    return want, scale


# The reference code's encoder, compiled gate by gate before sweeps became
# one step each; the batched eliminator must emit the same gates, each run's
# gates in ascending target order.  The code's data rows make its encoder
# the inverse of the rounds on modes 1 and 2, so modes 3 and 4 get no gate.
REFERENCE_ENCODER_GATES = [
    (FOURIER_INV, (2,), None),
    (QND_X, (2, 3), -1.0),
    (QND_X, (2, 4), 0.5),
    (FOURIER, (2,), None),
    (PHASE_P, (2,), -0.25),
    (QND_P, (2, 3), -0.5),
    (QND_P, (2, 4), 0.5),
    (FOURIER, (2,), None),
    (QND_P, (2, 3), 1.5),
    (QND_P, (2, 4), -1.5),
    (FOURIER_INV, (2,), None),
    (PHASE_X, (2,), 0.75),
    (QND_X, (2, 4), 0.5),
    (SQUEEZE, (2,), -1.0),
    (FOURIER_INV, (1,), None),
    (QND_X, (1, 2), -1.0),
    (FOURIER, (1,), None),
    (PHASE_P, (1,), 2.0),
    (QND_P, (1, 2), -1.0),
    (QND_P, (1, 3), 1.0),
    (QND_P, (1, 4), -1.0),
    (FOURIER, (1,), None),
    (QND_P, (1, 2), 1.0),
    (QND_P, (1, 4), 1.0),
    (FOURIER_INV, (1,), None),
    (SQUEEZE, (1,), -1.0),
    (FOURIER_INV, (1,), None),
]


def test_reference_encoder_compiles_to_the_pinned_gates():
    circuit, _ = decompose(build_code(reference.raw_parity_rows()))
    gates = circuit_to_dicts(circuit)
    assert [(g["gate"], tuple(g["modes"])) for g in gates] == [(kind, modes) for kind, modes, _ in REFERENCE_ENCODER_GATES]
    for g, (_, _, param) in zip(gates, REFERENCE_ENCODER_GATES):
        assert g.get("param") == (None if param is None else pytest.approx(param, rel=1e-12))


def gates_from_dicts_one_by_one(payload, n):
    """Reference loader: one validated `Gate` per record, as circuits were read before runs."""
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
    for g in gates:
        if max(g.modes) > n:
            raise DimensionMismatchError(f"gate {g} exceeds mode count {n}")
    return gates


# Ways to spoil one valid record, each to be refused as the `Gate` constructor refuses it.
SPOILERS = {
    "unknown-kind": lambda r, n, draw: {**r, "gate": draw(st.sampled_from(["BEAMSPLITTER", "qnd_x", 3, None, ["QND_X"]]))},
    "arity": lambda r, n, draw: {**r, "modes": r["modes"] + [n] if len(r["modes"]) == 1 else r["modes"][:1]},
    "mode-zero": lambda r, n, draw: {**r, "modes": [0] + r["modes"][1:]},
    "mode-above-n": lambda r, n, draw: {**r, "modes": r["modes"][:-1] + [n + draw(st.integers(1, 3))]},
    "repeated-mode": lambda r, n, draw: {**r, "modes": [r["modes"][0]] * 2},
    "mode-bool": lambda r, n, draw: {**r, "modes": [True] + r["modes"][1:]},
    "mode-float": lambda r, n, draw: {**r, "modes": [r["modes"][0] + 0.5] + r["modes"][1:]},
    "mode-integral-float": lambda r, n, draw: {**r, "modes": [float(r["modes"][0])] + r["modes"][1:]},
    "mode-string": lambda r, n, draw: {**r, "modes": [str(r["modes"][0])] + r["modes"][1:]},
    "modes-not-an-array": lambda r, n, draw: {**r, "modes": r["modes"][0]},
    "param-missing": lambda r, n, draw: {k: v for k, v in r.items() if k != "param"},
    "param-on-paramless": lambda r, n, draw: {**r, "param": 0.5},
    "param-bool": lambda r, n, draw: {**r, "param": True},
    "param-string": lambda r, n, draw: {**r, "param": "0.75"},
    "param-nan": lambda r, n, draw: {**r, "param": math.nan},
    "param-inf": lambda r, n, draw: {**r, "param": draw(st.sampled_from([math.inf, -math.inf]))},
    "param-int": lambda r, n, draw: {**r, "param": 2},
    "squeeze-zero": lambda r, n, draw: {"gate": SQUEEZE, "modes": r["modes"][:1], "param": 0.0},
}


@st.composite
def gate_record_lists(draw):
    """A circuit file's gate list on n modes: QND runs with repeated targets, single gates, and some spoiled records.

    Controls and targets come from few modes, so consecutive QND gates often share
    their kind and control and runs form; the list goes through JSON text as a file does.
    """
    n = draw(st.integers(2, 6))
    control = draw(st.integers(1, n))
    param = st.floats(0.1, 2.0) | st.floats(-2.0, -0.1)
    records = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(GATE_KINDS + (QND_X, QND_P) * 3))
        if kind in (QND_X, QND_P, SWAP):
            if kind != SWAP and draw(st.integers(0, 3)):
                first = control
            else:
                first = control = draw(st.integers(1, n))
            modes = [first, draw(st.integers(1, n).filter(lambda t: t != first))]
        else:
            modes = [draw(st.integers(1, n))]
        record = {"gate": kind, "modes": modes}
        if kind not in (FOURIER, FOURIER_INV, SWAP):
            record["param"] = draw(param)
        if draw(st.integers(0, 9)) == 0:
            record = SPOILERS[draw(st.sampled_from(sorted(SPOILERS)))](record, n, draw)
        records.append(record)
    return json.loads(json.dumps(records)), n


@settings(max_examples=400, deadline=None)
@given(gate_record_lists())
@example(([{"gate": "QND_X", "modes": [1, 2], "param": 0.5}, {"gate": "QND_X", "modes": [1, 5], "param": 0.5}, {"gate": "FOURIER", "modes": [1], "param": 1.0}], 4))
@example(([{"gate": "SWAP", "modes": [1, 5]}, {"gate": "QND_X", "modes": [2, 2], "param": 0.5}], 4))
@example(([{"gate": "FOURIER", "modes": [1], "param": math.nan}, {"gate": "SWAP", "modes": [1, 2]}], 2))
def test_column_wise_loader_accepts_exactly_what_gates_accept(case):
    payload, n = case
    try:
        gates = gates_from_dicts_one_by_one(payload, n)
    except (ValueError, DimensionMismatchError) as exc:
        with pytest.raises(type(exc)):
            circuit_from_dicts(payload, n)
        return
    circuit = circuit_from_dicts(payload, n)
    want, scale = _gate_by_gate(n, gates)
    assert np.max(np.abs(circuit_action(circuit) - want)) <= 1e-13 * scale
    assert len(circuit) == len(gates)
    assert circuit_to_dicts(circuit) == [{"gate": g.kind, "modes": list(g.modes), **({} if g.param is None else {"param": g.param})} for g in gates]


def test_a_circuit_and_its_file_form_compose_to_one_action_bit_for_bit(rng):
    # The runs formed at load are the runs `decompose` emits, so a compiled
    # circuit's action, and `verify`'s deviation, survive its file unchanged.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "chainbench"))
    from workloads import COMPILE_LARGE_CODES, MC_MIDSIZE_CODES, random_code_rows

    # The circuit file `compile` writes loads back as the same records:
    # kinds, controls, target forms and values, parameters to 12 digits.
    for rows in [reference.raw_parity_rows()] + [random_code_rows(*p) for p in COMPILE_LARGE_CODES + MC_MIDSIZE_CODES]:
        compiled, _ = decompose(build_code(rows))
        loaded = circuit_from_dicts(json.loads(_circuit_text(compiled)), compiled.n)
        assert len(loaded.records) == len(compiled.records)
        for (kind, modes, param), (want_kind, want_modes, want_param) in zip(loaded.records, compiled.records):
            assert kind == want_kind and len(modes) == len(want_modes) and modes[0] == want_modes[0]
            assert [type(m) for m in modes[1:]] == [type(m) for m in want_modes[1:]]
            assert all(np.array_equal(m, w) for m, w in zip(modes[1:], want_modes[1:]))
            if want_param is None:
                assert param is None
            else:
                assert type(param) is type(want_param)
                assert np.array_equal(np.ravel(param), [float("%.12g" % v) for v in np.ravel(want_param).tolist()])

    circuits = [decompose(build_code(random_code_rows(n, 1, n // 4)))[0] for n in (16, 32)]
    circuits += [random_gates(4, 60, rng) for _ in range(20)]
    circuits.append(circuit_of(5, [qnd_x(1, t, 0.1 * t) for t in (2, 3, 2, 4, 5, 3, 5, 4)] + [swap(1, 2)] + [qnd_p(2, t, -0.2) for t in (5, 4, 3, 1)]))
    for circuit in circuits:
        payload = circuit_to_dicts(circuit)
        got = circuit_action(circuit)
        assert np.array_equal(circuit_action(circuit_from_dicts(json.loads(json.dumps(payload)), circuit.n)), got)
        want, scale = _gate_by_gate(circuit.n, [Gate(g["gate"], tuple(g["modes"]), g.get("param")) for g in payload])
        assert np.max(np.abs(got - want)) <= 1e-13 * scale


def test_compiling_and_loading_build_no_gate_per_gate():
    code = build_code(np.random.default_rng(3).normal(size=(5, 16)))
    circuit, report = decompose(code)
    loaded = circuit_from_dicts(json.loads(json.dumps(circuit_to_dicts(circuit))), code.n)
    for c in (circuit, loaded):
        assert all(type(record) is tuple for record in c.records)
        assert len(c) == sum(report["gate_counts"].values()) > 2 * len(c.records)


@pytest.mark.parametrize(
    "record",
    [qnd_x(1, 4, 0.5), (QND_X, (1, range(2, 5)), np.ones(3)), (QND_P, (2, np.array([1, 4, 3])), np.ones(3)), (QND_X, (4, range(1, 4)), np.ones(3))],
    ids=["gate", "range-run", "array-run", "control"],
)
def test_a_hand_built_record_above_n_is_refused(record):
    # A hand-built circuit is loaded as a file is, so the loader's mode check refuses it.
    with pytest.raises(DimensionMismatchError):
        circuit_of(3, (fourier(1), record))
    assert len(circuit_of(4, (fourier(1), record))) == (len(record[2]) + 1 if isinstance(record[2], np.ndarray) else 2)


# ---------------------------------------------------------------------------
# A code compiles from its check columns in exactly c + l rounds
# ---------------------------------------------------------------------------


def _record_bits(record):
    """A record as comparable values: kind, each mode with its type, and the parameter's type and bytes."""
    kind, modes, param = record
    modes = tuple((type(m), m if isinstance(m, int) else tuple(np.asarray(m).tolist())) for m in modes)
    return kind, modes, None if param is None else (type(param), np.asarray(param, dtype=float).tobytes())


def _scaled_code_rows(seed, log_scale):
    """n = 1..8 modes and 1 to 2n normal rows, scaled by 10^log_scale."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    return 10.0**log_scale * rng.normal(size=(int(rng.integers(1, 2 * n + 1)), 2 * n))


# Built codes whose full encoder, eliminated over all n rounds, needed gates
# after round c + l: those rounds undid the completion's only to rounding,
# and cleared up to 2.2e-8 left on the data modes.
LATE_GATE_DRAWS = [(555, 3.0), (1150, -3.0)]


def _rounds_run(monkeypatch, code):
    """The number of elimination rounds `decompose` runs on ``code``."""
    rounds = []
    run_round = _Eliminator.round
    monkeypatch.setattr(_Eliminator, "round", lambda el, r, half: (rounds.append(r), run_round(el, r, half)))
    decompose(code)
    monkeypatch.undo()
    return len(rounds)


def test_decompose_runs_exactly_c_plus_l_rounds(monkeypatch):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "chainbench"))
    from workloads import random_code_rows

    for rows, rounds in ((reference.raw_parity_rows(), 2), (random_code_rows(56, 5, 6), 11)):
        code = build_code(rows)
        assert rounds == code.params.c + code.params.l
        assert _rounds_run(monkeypatch, code) == rounds
    for draw in LATE_GATE_DRAWS:
        code = build_code(_scaled_code_rows(*draw))
        rounds = code.params.c + code.params.l
        assert rounds < code.n
        assert _rounds_run(monkeypatch, code) == rounds


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
@example(*LATE_GATE_DRAWS[0])
@example(*LATE_GATE_DRAWS[1])
def test_a_built_code_compiles_to_its_completions_own_rounds(seed, log_scale):
    # `decompose` runs the rounds that the basis completion ran, on the same
    # check columns less the identity columns the completion carries along:
    # no gate acts from a data mode, the records' kinds and modes are the
    # completion's, and their parameters agree with its within rounding.
    code = build_code(_scaled_code_rows(seed, log_scale))
    n, _, l, c = code.params
    circuit, _ = decompose(code)
    _, want = eliminate(np.hstack((symplectic_inverse(code.basis[round_rows(n, c + l)]), np.eye(2 * n))), c + l)
    assert all(modes[0] <= c + l for _, modes, _ in circuit.records)
    assert [_record_bits(r)[:2] for r in circuit.records] == [_record_bits(r)[:2] for r in want]
    for (_, _, param), (_, _, want_param) in zip(circuit.records, want):
        if want_param is not None:
            assert np.all(np.abs(np.subtract(param, want_param)) <= 1e-11 * np.abs(want_param))


# ---------------------------------------------------------------------------
# A circuit file's run is an ascending stretch of targets
# ---------------------------------------------------------------------------


def _rounded(record):
    """A record with its parameters rounded to 12 significant digits, as a circuit file holds them."""
    kind, modes, param = record
    if isinstance(param, np.ndarray):
        return kind, modes, np.array([float("%.12g" % v) for v in param.tolist()])
    return kind, modes, None if param is None else float("%.12g" % param)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
@example(*LATE_GATE_DRAWS[0])
@example(*LATE_GATE_DRAWS[1])
def test_a_compiled_circuit_file_loads_as_its_own_records(seed, log_scale):
    # `decompose` emits every run with ascending targets, and no two runs of
    # one kind and control side by side, so the file `compile` writes loads
    # back as its records: kinds, modes with range versus array, and the
    # parameters' bits as the file rounds them.
    code = build_code(_scaled_code_rows(seed, log_scale))
    circuit, _ = decompose(code)
    loaded = circuit_from_dicts(json.loads(_circuit_text(circuit)), code.n)
    assert [_record_bits(r) for r in loaded.records] == [_record_bits(_rounded(r)) for r in circuit.records]


@pytest.mark.parametrize(
    "targets, records",
    [((6, 5, 3, 2), [[6], [5], [3], [2]]), ((2, 3, 2, 4, 5, 3, 5, 4), [[2, 3], [2, 4, 5], [3, 5], [4]])],
    ids=["descending", "repeated"],
)
def test_a_run_in_another_order_loads_as_ascending_stretches(targets, records):
    # A run closes where a target does not exceed the one before.
    gates = [qnd_x(1, t, 0.1 * t) for t in targets]
    circuit = circuit_of(6, gates)
    assert [list(np.atleast_1d(modes[1])) for _, modes, _ in circuit.records] == records
    want, scale = _gate_by_gate(6, gates)
    assert np.max(np.abs(circuit_action(circuit) - want)) <= 1e-13 * scale


@settings(max_examples=200, deadline=None)
@given(circuits_with_qnd_runs())
def test_circuit_report_counts_the_gates_one_by_one(case):
    n, gates = case
    counts: dict[str, int] = {}
    for gate in gates:
        counts[gate.kind] = counts.get(gate.kind, 0) + 1
    report = circuit_report(circuit_of(n, gates))
    assert list(report) == ["gate_counts", "max_abs_param"]
    assert list(report["gate_counts"].items()) == list(counts.items())
    assert report["max_abs_param"] == max((abs(gate.param) for gate in gates if gate.param is not None), default=0.0)
