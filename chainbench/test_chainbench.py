"""Hand-worked cases for the benchmark's oracles, and BENCHMARK.json against run.py."""

import json
import math
import os

import numpy as np
import pytest

import oracles
import run
import workloads

G = 0.7


def _gate(kind, modes, param=None):
    gate = {"gate": kind, "modes": modes}
    if param is not None:
        gate["param"] = param
    return gate


# Rows in (x1, x2, p1, p2) order, worked out from the substitution table.
HAND_WORKED = [
    (_gate("SQUEEZE", [1], 2.0), np.diag([2.0, 1.0, 0.5, 1.0])),
    (_gate("FOURIER", [1]), np.array([[0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]])),
    (_gate("FOURIER_INV", [1]), np.array([[0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1]])),
    (_gate("QND_X", [1, 2], G), np.array([[1, 0, 0, 0], [G, 1, 0, 0], [0, 0, 1, -G], [0, 0, 0, 1]])),
    (_gate("QND_P", [1, 2], G), np.array([[1, -G, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, G, 1]])),
    (_gate("PHASE_X", [2], G), np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, G, 0, 1]])),
    (_gate("PHASE_P", [1], G), np.array([[1, 0, G, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])),
    (_gate("SWAP", [1, 2]), np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])),
]


@pytest.mark.parametrize("gate, want", HAND_WORKED, ids=[g["gate"] for g, _ in HAND_WORKED])
def test_single_gate_actions(gate, want):
    got = oracles.compose_circuit([gate], 2)
    assert np.array_equal(got, want)
    assert oracles.symplectic_defect(got) == 0.0


def test_composition_applies_the_first_gate_first():
    # squeeze x1 by 2, then Fourier: x1' = -(p1 / 2), p1' = 2 x1
    got = oracles.compose_circuit([_gate("SQUEEZE", [1], 2.0), _gate("FOURIER", [1])], 1)
    assert np.array_equal(got, [[0.0, -0.5], [2.0, 0.0]])
    identity = oracles.compose_circuit([_gate("FOURIER", [1]), _gate("FOURIER_INV", [1])], 1)
    assert np.array_equal(identity, np.eye(2))


def test_unknown_gate_is_rejected():
    with pytest.raises(ValueError):
        oracles.compose_circuit([_gate("BEAMSPLITTER", [1, 2], 0.5)], 2)


def test_canonical_check_is_unit_vectors():
    # (n, k, l, c) = (3, 1, 1, 1): p on the pair mode, p on the ancilla, x on the pair mode
    want = np.zeros((3, 6))
    want[0, 0] = want[1, 1] = want[2, 3] = 1.0
    assert np.array_equal(oracles.canonical_check(3, 1, 1, 1), want)


@pytest.mark.parametrize(
    "rows, params",
    [
        (workloads.REFERENCE_ROWS, (4, 2, 0, 2)),
        ([[1, 0, 0, 0], [0, 1, 0, 0]], (2, 0, 2, 0)),  # p1, p2 commute: two ancillas
        ([[1, 0, 0, 0], [0, 0, 1, 0]], (2, 1, 0, 1)),  # p1, x1: one pair
        ([[1, 0, 0, 0], [0, 0, 1, 0], [2, 0, -3, 0]], (2, 1, 0, 1)),  # a dependent row adds nothing
    ],
)
def test_code_parameters_from_ranks(rows, params):
    assert oracles.code_parameters(np.array(rows, dtype=float)) == params


def test_same_rowspace():
    a = np.array([[1.0, 0, 0, 0], [0, 0, 1, 0]])
    assert oracles.same_rowspace(a, np.array([[1.0, 0, 1, 0], [1.0, 0, -1, 0]]))
    assert not oracles.same_rowspace(a, np.array([[1.0, 0, 1, 0], [0, 1.0, 0, 0]]))


def test_syndrome_noise_variances():
    v = math.exp(-2.0)
    assert np.allclose(oracles.syndrome_noise_variances(l=1, c=2, r=1.0), [v, v, v / 2, v, v], rtol=1e-15)


def test_residual_variances_through_a_qnd_encoder():
    # Encoder QND_X(g) on modes (1, 2) of the (n, k, l, c) = (2, 1, 0, 1) code.
    # Its checks are h = (p1 | 0), (0 | x1 + g x2), and an error on mode 1 is
    # fitted exactly from the two noisy rows: its x-estimate carries the
    # first row's noise, which the inverse encoder feeds into x2 with gain -g.
    m = oracles.compose_circuit([_gate("QND_X", [1, 2], G)], 2)
    j = oracles.symplectic_form(2)
    h = oracles.canonical_check(2, 1, 0, 1) @ (-j @ m @ j).T
    assert np.allclose(h, [[1, 0, 0, 0], [0, 0, 1, G]])
    got = oracles.residual_variances(h, -j @ m.T @ j, (2, 1, 0, 1), mode=1, r=1.5)
    assert np.allclose(got, [G**2 * math.exp(-3.0), 0.0], rtol=1e-14, atol=0)


def test_p_values():
    assert oracles.normal_two_sided_p(1.959963984540054) == pytest.approx(0.05, rel=1e-12)
    assert oracles.chi2_two_sided_p(20.48317735080739, 10) == pytest.approx(0.05, rel=1e-9)  # upper 2.5 %
    assert oracles.chi2_two_sided_p(3.246972780236841, 10) == pytest.approx(0.05, rel=1e-9)  # lower 2.5 %
    assert oracles.chi2_two_sided_p(2 * math.log(2.0), 2) == pytest.approx(1.0, rel=1e-12)  # the median
    # far tails, where a run's Bonferroni threshold sits: 2 * Q(19/2, 30) and 2 * P(1999/2, 750)
    assert oracles.chi2_two_sided_p(60.0, 19) == pytest.approx(7.739652601328362e-06, rel=1e-9)
    assert oracles.chi2_two_sided_p(1500.0, 1999) == pytest.approx(4.976901473928e-18, rel=1e-9)


def test_log_slope_of_exact_exponential():
    r = [2.0, 3.0, 4.0, 5.0]
    assert oracles.log_slope(r, [3.0 * math.exp(-2 * x) for x in r]) == pytest.approx(-2.0, rel=1e-12)


def test_inputs_repeat_for_a_seed_and_keep_the_known_failure_fixed():
    m1, ops1 = workloads.make_inputs("mc-midsize", 5)
    m2, ops2 = workloads.make_inputs("mc-midsize", 5)
    assert ops1 == ops2 and all(np.array_equal(m1[k], m2[k]) for k in m1)
    assert workloads.make_inputs("mc-midsize", 6)[1] != ops1
    failing = [[op for op in workloads.make_inputs("reference-mc", s)[1] if op.expect_fail] for s in (1, 2)]
    assert failing[0] == failing[1] and len(failing[0]) == 1


def test_random_codes_have_their_parameters():
    for n, l, c in workloads.MC_MIDSIZE_CODES:
        assert oracles.code_parameters(workloads.random_code_rows(n, l, c)) == (n, n - l - c, l, c)


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
