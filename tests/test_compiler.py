import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvqec import reference
from cvqec.codes import build_code, canonical_parity_check, json_int
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
    Gate,
    apply_gate,
    apply_gates,
    circuit_action,
    circuit_from_dicts,
    decompose,
    encoder_quad_action,
    fourier,
    fourier_inv,
    gate_action,
    phase_p,
    phase_x,
    qnd_p,
    qnd_x,
    squeeze,
    swap,
    verify_circuit,
)
from cvqec.errors import CircuitVerificationError, DimensionMismatchError, NotSymplecticError
from cvqec.symplectic import is_symplectic

from conftest import random_gates, random_symplectic_from_gates, random_symplectic_from_hamiltonian
from oracle import circuit_to_dicts, invert_circuit


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
    assert np.array_equal(circuit_action(Circuit(n=3)), np.eye(6))
    c = Circuit(n=1, records=(fourier(1),) * 4)
    assert np.allclose(circuit_action(c), np.eye(2), atol=1e-15)


def test_invert_circuit_involution_and_action(rng):
    c = random_gates(3, 20, rng)
    back = invert_circuit(invert_circuit(c))
    # structurally identical; squeeze factors only up to double rounding of 1/(1/a)
    assert [(kind, modes) for kind, modes, _ in back.records] == [(g.kind, g.modes) for g in c.records]
    for (_, _, got), want in zip(back.records, c.records):
        if want.param is not None:
            assert got == pytest.approx(want.param, rel=1e-15)
    prod = circuit_action(invert_circuit(c)) @ circuit_action(c)
    assert np.max(np.abs(prod - np.eye(6))) <= 1e-10 * (1 + np.max(np.abs(circuit_action(c))))


def test_invert_circuit_gate_by_gate():
    c = Circuit(n=1, records=(squeeze(1, 2.0), fourier(1)))
    inv = invert_circuit(c)
    assert inv.records == (fourier_inv(1), squeeze(1, 0.5))


def test_decompose_identity_is_empty():
    circuit, report = decompose(np.eye(6))
    assert len(circuit) == 0
    assert sum(report.gate_counts.values()) == 0


def test_decompose_single_generator_roundtrip():
    a = gate_action(phase_x(1, 0.7), 2)
    circuit, _ = decompose(a)
    assert np.max(np.abs(circuit_action(circuit) - a)) <= 1e-10


def test_decompose_rejects_nonsymplectic():
    with pytest.raises(NotSymplecticError):
        decompose(np.diag([2.0, 1.0, 1.0, 1.0]))
    with pytest.raises(NotSymplecticError), np.errstate(invalid="ignore"):  # a NaN defect is no pass
        decompose(np.full((2, 2), np.inf))


def test_decompose_random_gate_products(rng):
    for _ in range(15):
        n = int(rng.integers(1, 5))
        a = random_symplectic_from_gates(n, rng, count=50)
        circuit, report = decompose(a)
        bound = 1e-8 * (1.0 + np.max(np.abs(a)))
        assert np.max(np.abs(circuit_action(circuit) - a)) <= bound
        assert sum(report.gate_counts.values()) <= 8 * n * n + 8 * n
        assert all(g["gate"] in GATE_KINDS for g in circuit_to_dicts(circuit))


def test_decompose_hamiltonian_exponentials(rng):
    for _ in range(15):
        n = int(rng.integers(1, 5))
        a = random_symplectic_from_hamiltonian(n, rng)
        circuit, _ = decompose(a)
        assert np.max(np.abs(circuit_action(circuit) - a)) <= 1e-8 * (1.0 + np.max(np.abs(a)))


def test_decompose_needs_fourier_fallback():
    # A pure rotation leaves the position pivot of the trailing mode empty.
    a = gate_action(fourier(1), 1)
    circuit, _ = decompose(a)
    assert np.max(np.abs(circuit_action(circuit) - a)) <= 1e-12
    a2 = circuit_action(Circuit(n=2, records=(fourier(1), fourier(2), qnd_x(1, 2, 1.3))))
    circuit2, _ = decompose(a2)
    assert np.max(np.abs(circuit_action(circuit2) - a2)) <= 1e-10


def test_compile_canonical_code_is_empty():
    code = build_code(canonical_parity_check(3, 1, 1, 1))
    assert len(decompose(encoder_quad_action(code))[0]) == 0


def test_compile_reference_encoder_matches_target():
    code = reference.build_example_code()
    target = encoder_quad_action(code)
    circuit, _ = decompose(target)
    assert np.max(np.abs(circuit_action(circuit) - target)) <= 1e-8 * (1 + np.max(np.abs(target)))


def test_compile_random_code(rng):
    rows = rng.normal(size=(3, 6))
    code = build_code(rows)
    target = encoder_quad_action(code)
    circuit, _ = decompose(target)
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
    circuit, report = decompose(a)
    assert np.max(np.abs(circuit_action(circuit) - a)) <= 1e-8 * (1.0 + np.max(np.abs(a)))
    assert sum(report.gate_counts.values()) <= 8 * n * n + 8 * n


def test_verify_circuit_returns_deviation_and_raises():
    code = reference.build_example_code()
    target = encoder_quad_action(code)
    circuit, _ = decompose(target)
    assert 0.0 <= verify_circuit(circuit, code) <= 1e-8 * (1.0 + np.max(np.abs(target)))
    broken = Circuit(code.n, circuit.records[:-1])
    with pytest.raises(CircuitVerificationError):
        verify_circuit(broken, code)


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
    circuit, _ = decompose(a)
    for g in circuit_to_dicts(circuit):
        assert Gate(g["gate"], tuple(g["modes"]), g.get("param"))
        assert all(type(m) is int for m in g["modes"]) and max(g["modes"]) <= n
        assert type(g.get("param", 0.0)) is float


@st.composite
def qnd_runs_on_arrays(draw):
    """A QND record with many targets: a range either way, or an array in any order."""
    kind = draw(st.sampled_from([QND_X, QND_P]))
    n = draw(st.integers(2, 7))
    if draw(st.booleans()):
        step = draw(st.sampled_from([1, 2, 3, -1, -2, -3]))
        first = draw(st.integers(1, n))
        count = draw(st.integers(1, min(n - 1, len(range(first, 0 if step < 0 else n + 1, step)))))
        targets = range(first, first + step * count, step)
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
    """Random circuits made of QND runs (targets may repeat) and single gates."""
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
    return Circuit(n, tuple(gates))


@settings(max_examples=300, deadline=None)
@given(circuits_with_qnd_runs())
@example(
    # A run that repeats a target, a run of QND_P after one of QND_X from the
    # same control, a run's control as a later target, and single-gate runs.
    Circuit(4, (
        qnd_x(1, 2, 0.7), qnd_x(1, 3, -1.1), qnd_x(1, 2, 0.4), qnd_x(1, 4, 1.9),
        qnd_p(1, 3, 0.6), qnd_p(1, 4, -0.3),
        qnd_x(2, 1, 1.3), squeeze(2, 1.5), qnd_p(3, 1, -0.8), phase_x(1, 0.5), qnd_x(4, 3, 0.9),
    ))
)
@example(
    # Targets whose ends are evenly spaced but whose middle is not.
    Circuit(6, tuple(qnd_p(1, t, 0.3 * t) for t in (2, 3, 5, 4, 6)))
)
def test_run_grouped_composition_matches_gate_by_gate_fold(circuit):
    want = np.eye(2 * circuit.n)
    scale = 1.0
    for g in circuit.records:
        apply_gate(want, g)
        scale = max(scale, float(np.max(np.abs(want))))
    got = circuit_action(circuit)
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


# The reference code's encoder, compiled gate by gate before sweeps became
# one step each; the batched eliminator must emit the same circuit.
REFERENCE_ENCODER_GATES = [
    (PHASE_X, (4,), 0.75),
    (SQUEEZE, (4,), 0.5),
    (PHASE_P, (3,), 0.25),
    (QND_P, (3, 4), -1.0),
    (FOURIER, (3,), None),
    (QND_P, (3, 4), -1.0),
    (FOURIER_INV, (3,), None),
    (PHASE_X, (3,), 3.0),
    (QND_X, (3, 4), -1.0),
    (SQUEEZE, (3,), 2.0),
    (FOURIER_INV, (2,), None),
    (QND_X, (2, 4), 0.5),
    (QND_X, (2, 3), -1.0),
    (FOURIER, (2,), None),
    (PHASE_P, (2,), -0.25),
    (QND_P, (2, 4), 0.5),
    (QND_P, (2, 3), -0.5),
    (FOURIER, (2,), None),
    (QND_P, (2, 4), -1.5),
    (QND_P, (2, 3), 1.5),
    (FOURIER_INV, (2,), None),
    (PHASE_X, (2,), 0.75),
    (QND_X, (2, 4), 0.5),
    (SQUEEZE, (2,), -1.0),
    (FOURIER_INV, (1,), None),
    (QND_X, (1, 2), -1.0),
    (FOURIER, (1,), None),
    (PHASE_P, (1,), 2.0),
    (QND_P, (1, 4), -1.0),
    (QND_P, (1, 3), 1.0),
    (QND_P, (1, 2), -1.0),
    (FOURIER, (1,), None),
    (QND_P, (1, 4), 1.0),
    (QND_P, (1, 2), 1.0),
    (FOURIER_INV, (1,), None),
    (SQUEEZE, (1,), -1.0),
    (FOURIER_INV, (1,), None),
]


def test_reference_encoder_compiles_to_the_pinned_gates():
    circuit, _ = decompose(encoder_quad_action(build_code(reference.raw_parity_rows())))
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
    want = np.eye(2 * n)
    apply_gates(want, gates)
    assert np.array_equal(circuit_action(circuit), want)
    assert len(circuit) == len(gates)
    assert circuit_to_dicts(circuit) == [{"gate": g.kind, "modes": list(g.modes), **({} if g.param is None else {"param": g.param})} for g in gates]


def test_a_file_circuit_composes_to_the_gate_by_gate_action_bit_for_bit(rng):
    # The runs formed at load are the runs `apply_gates` forms over the single
    # gates, so the composed action, and `verify`'s deviation, are unchanged.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "chainbench"))
    from workloads import random_code_rows

    circuits = [decompose(encoder_quad_action(build_code(random_code_rows(n, 1, n // 4))))[0] for n in (16, 32)]
    circuits += [random_gates(4, 60, rng) for _ in range(20)]
    circuits.append(Circuit(5, tuple(qnd_x(1, t, 0.1 * t) for t in (2, 3, 2, 4, 5, 3, 5, 4)) + (swap(1, 2),) + tuple(qnd_p(2, t, -0.2) for t in (5, 4, 3, 1))))
    for circuit in circuits:
        payload = circuit_to_dicts(circuit)
        want = np.eye(2 * circuit.n)
        apply_gates(want, [Gate(g["gate"], tuple(g["modes"]), g.get("param")) for g in payload])
        assert np.array_equal(circuit_action(circuit_from_dicts(payload, circuit.n)), want)
        assert np.array_equal(circuit_action(circuit), want)


def test_compiling_and_loading_build_no_gate_per_gate(monkeypatch):
    code = build_code(np.random.default_rng(3).normal(size=(5, 16)))
    built = []
    new = Gate.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Gate, "__new__", counting_new)
    circuit, report = decompose(encoder_quad_action(code))
    loaded = circuit_from_dicts(json.loads(json.dumps(circuit_to_dicts(circuit))), code.n)
    assert built == []
    for c in (circuit, loaded):
        assert not any(isinstance(record, Gate) for record in c.records)
        assert len(c) == sum(report.gate_counts.values()) > 2 * len(c.records)


@pytest.mark.parametrize(
    "record",
    [qnd_x(1, 4, 0.5), (QND_X, (1, range(2, 5)), np.ones(3)), (QND_P, (2, np.array([1, 4, 3])), np.ones(3)), (QND_X, (4, range(3, 0, -1)), np.ones(3))],
    ids=["gate", "range-run", "array-run", "control"],
)
def test_a_hand_built_record_above_n_is_refused(record):
    with pytest.raises(DimensionMismatchError):
        Circuit(3, (fourier(1), record))
    assert len(Circuit(4, (fourier(1), record))) == (len(record[2]) + 1 if isinstance(record[2], np.ndarray) else 2)


def test_compiling_and_loading_check_no_modes_again(monkeypatch):
    # Their records are in range by construction or validated column by column.
    code = build_code(np.random.default_rng(3).normal(size=(5, 16)))
    checked = []
    monkeypatch.setattr(Circuit, "__post_init__", lambda circuit: checked.append(circuit))
    Circuit(2, (fourier(1),))
    assert len(checked) == 1
    circuit, _ = decompose(encoder_quad_action(code))
    loaded = circuit_from_dicts(circuit_to_dicts(circuit), code.n)
    assert len(checked) == 1
    assert (circuit.n, loaded.n) == (code.n, code.n) and len(loaded) == len(circuit)
