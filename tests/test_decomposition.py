import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvqec import reference
from cvqec.codes import CodeParameters, CodeSpec, build_code, canonical_parity_check, verify_code
from cvqec.compiler import Circuit, circuit_action, decompose, encoder_quad_action, verify_circuit
from cvqec.decomposition import (
    SymplecticDecomposition,
    _pairing_loop,
    check_rows,
    code_parameters,
    complete_symplectic_basis,
    symplectic_gram_schmidt,
)
from cvqec.errors import BuildVerificationError, DecompositionError
from cvqec.symplectic import symplectic_form

from conftest import random_symplectic_from_hamiltonian
from oracle import symplectic_product


def gram_defect(dec):
    checks, _ = check_rows(dec.n, dec.l, dec.c)
    canonical = symplectic_form(dec.n)[np.ix_(checks, checks)]
    return float(np.max(np.abs(dec.rows @ symplectic_form(dec.n) @ dec.rows.T - canonical)))


def same_rowspace(a, b, tol=1e-8):
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    ra = np.linalg.matrix_rank(a, tol=tol)
    rb = np.linalg.matrix_rank(b, tol=tol)
    rc = np.linalg.matrix_rank(np.vstack([a, b]), tol=tol)
    return ra == rb == rc


def test_reference_raw_rows():
    dec = symplectic_gram_schmidt(reference.raw_parity_rows())
    assert (dec.c, dec.l) == (2, 0)
    assert gram_defect(dec) <= 1e-9
    assert same_rowspace(dec.rows, reference.raw_parity_rows())


def test_reference_basis_rows_kept_verbatim():
    rows = reference.symplectic_basis_rows()
    dec = symplectic_gram_schmidt(rows)
    assert (dec.c, dec.l) == (2, 0)
    assert np.allclose(dec.rows, rows, atol=1e-12)


def test_standard_rows_give_standard_pairs():
    e = np.eye(8)
    dec = symplectic_gram_schmidt([e[0], e[1], e[4], e[5]])
    assert (dec.c, dec.l) == (2, 0)
    assert np.array_equal(dec.rows, [e[0], e[1], e[4], e[5]])  # u_1, u_2, v_1, v_2


def test_single_row_is_isotropic():
    e = np.eye(6)
    dec = symplectic_gram_schmidt([e[0]])
    assert (dec.c, dec.l) == (0, 1)


def test_empty_input_rejected():
    with pytest.raises(DecompositionError):
        symplectic_gram_schmidt([])


def test_dependent_rows_dropped(rng):
    rows = rng.normal(size=(3, 8))
    stacked = np.vstack([rows, rows[0] + 2.0 * rows[1]])
    dec = symplectic_gram_schmidt(stacked)
    assert dec.dropped_rows == (3,)
    assert dec.m == 3


def test_gram_form_random(rng):
    for _ in range(20):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 2 * n + 1))
        dec = symplectic_gram_schmidt(rng.normal(size=(m, 2 * n)))
        assert 2 * dec.c + dec.l == m
        scale = max(1.0, float(np.max(np.abs(dec.rows))) ** 2)
        assert gram_defect(dec) <= 1e-9 * scale


def test_rowspace_preserved(rng):
    for _ in range(10):
        rows = rng.normal(size=(4, 8))
        dec = symplectic_gram_schmidt(rows)
        assert same_rowspace(dec.rows, rows)


def test_determinism(rng):
    rows = rng.normal(size=(5, 8))
    a = symplectic_gram_schmidt(rows)
    b = symplectic_gram_schmidt(rows.copy())
    assert np.array_equal(a.rows, b.rows)
    assert a.dropped_rows == b.dropped_rows


def test_row_operations_leave_counts_invariant(rng):
    rows = rng.normal(size=(4, 8))
    base = symplectic_gram_schmidt(rows)
    for _ in range(10):
        m = rng.normal(size=(4, 4))
        while abs(np.linalg.det(m)) < 1e-2:
            m = rng.normal(size=(4, 4))
        dec = symplectic_gram_schmidt(m @ rows)
        assert (dec.c, dec.l) == (base.c, base.l)


def test_code_parameters_reference():
    dec = symplectic_gram_schmidt(reference.raw_parity_rows())
    assert code_parameters(dec) == (4, 2, 0, 2)


def test_code_parameters_all_isotropic():
    e = np.eye(6)
    dec = symplectic_gram_schmidt([e[0], e[1], e[2]])
    assert code_parameters(dec) == (3, 0, 3, 0)


def test_completion_of_full_standard_pairs():
    e = np.eye(4)
    dec = symplectic_gram_schmidt([e[0], e[1], e[2], e[3]])
    basis = complete_symplectic_basis(dec)
    assert np.allclose(basis, np.eye(4), atol=1e-12)


def test_completion_of_single_isotropic_vector():
    e = np.eye(2)
    dec = symplectic_gram_schmidt([e[0]])
    basis = complete_symplectic_basis(dec)
    assert np.array_equal(basis[0], e[0])
    assert symplectic_product(basis[0], basis[1]) == pytest.approx(1.0, abs=1e-12)


def test_completion_of_reference_pairs_gram_oracle():
    dec = symplectic_gram_schmidt(reference.symplectic_basis_rows())
    basis = complete_symplectic_basis(dec)
    assert basis.shape == (8, 8)
    gram = basis @ symplectic_form(4) @ basis.T
    assert np.max(np.abs(gram - symplectic_form(4))) <= 1e-9
    # the check rows appear unchanged in the promised slots
    assert np.array_equal(basis[check_rows(4, dec.l, dec.c)[0]], dec.rows)


def test_completion_random_including_isotropic(rng):
    for _ in range(15):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, min(2 * n, n + 1) + 1))
        dec = symplectic_gram_schmidt(rng.normal(size=(m, 2 * n)))
        if dec.c + dec.l > n:
            continue
        basis = complete_symplectic_basis(dec)
        gram = basis @ symplectic_form(n) @ basis.T
        scale = max(1.0, float(np.max(np.abs(basis))) ** 2)
        assert np.max(np.abs(gram - symplectic_form(n))) <= 1e-8 * scale
        assert np.array_equal(basis[check_rows(n, dec.l, dec.c)[0]], dec.rows)


@pytest.mark.parametrize(
    "c, rows",
    [
        (1, np.eye(4)[[0, 1]]),
        (0, np.array([np.eye(12)[0], 2.0 * np.eye(12)[0]])),
        (0, np.array([np.eye(12)[0], np.eye(12)[1], np.eye(12)[0] - 3.0 * np.eye(12)[1]])),
        (0, np.zeros((1, 12))),
    ],
    ids=["pair-product-zero", "parallel", "three-in-a-plane", "zero-row"],
)
def test_verify_code_refuses_the_completion_of_a_broken_decomposition(c, rows):
    # `symplectic_gram_schmidt` makes no such decomposition: a pair whose
    # product is 0, not 1, or dependent rows.  The completion checks nothing
    # of what it returns, and `verify_code` refuses the basis.  Dependent
    # rows divide by zero in the elimination's rounds.
    dec = SymplecticDecomposition(n=rows.shape[1] // 2, c=c, rows=rows)
    with np.errstate(divide="ignore", invalid="ignore"):
        basis = complete_symplectic_basis(dec)
    code = CodeSpec(CodeParameters(*code_parameters(dec)), basis, (), rows)
    with pytest.raises(BuildVerificationError, match="not a symplectic basis"):
        verify_code(code)


def test_small_pair_product_builds_and_compiles():
    # The pair product is 1e-6, so the partner is rescaled to entries of 1e6;
    # the rank test must not let that size swamp the other row.
    e = np.eye(12)
    code = build_code([e[0], e[1] + 1e-6 * e[6]])
    assert tuple(code.params) == (6, 5, 0, 1)
    assert verify_circuit(decompose(encoder_quad_action(code))[0], code) <= 1e-8


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
# The least-squares partner of its isotropic row missed the 1e-9 Gram bound
# of `verify_code` until the completion refined it.
@example(n=2, seed=218, log_scale=-3.0)
# A pair product under 1e-9 counted as two isotropic rows, so that c + l > n,
# until the pairing's zero threshold lost its absolute floor.
@example(n=1, seed=1262, log_scale=-3.0)
@example(n=2, seed=579, log_scale=-3.0)
def test_the_encoder_is_its_check_rounds(n, seed, log_scale):
    # 1 to 2n independent rows scaled by 10^log_scale, so c + l >= 1.  The
    # completion keeps the check rows bit for bit and takes the data rows
    # from the inverse of the elimination's rounds 1..c + l, so the rounds on
    # the data modes have nothing left to clear.  In floating point
    # `decompose`'s rounds need not undo the completion's to the last bit, and
    # on a few draws in a thousand they emit gates there; those must compose
    # to the identity within rounding.
    rng = np.random.default_rng(seed)
    rows = 10.0**log_scale * rng.normal(size=(int(rng.integers(1, 2 * n + 1)), 2 * n))
    dec = symplectic_gram_schmidt(rows)
    code = build_code(rows)
    _, _, l, c = code.params
    assert np.asarray(code.h).tobytes() == dec.rows.tobytes()
    action = encoder_quad_action(code)
    circuit, _ = decompose(action)
    # The last rounds' inverses are the circuit's first records.
    late = next((i for i, record in enumerate(circuit.records) if record[1][0] <= c + l), len(circuit.records))
    assert all(record[1][0] <= c + l for record in circuit.records[late:])
    undo = circuit_action(Circuit(n, circuit.records[:late]))
    assert np.max(np.abs(undo - np.eye(2 * n))) <= 1e-9 * max(1.0, np.max(np.abs(action)))
    verify_circuit(circuit, code)


def per_vector_pairing_loop(working, tol):
    """The pairing loop one vector at a time: the oracle for `_pairing_loop`."""

    def project_out_pair(r, u, v):
        return r - symplectic_product(r, v) * u + symplectic_product(r, u) * v

    pairs, isotropic = [], []
    working = [w.copy() for w in working]
    while working:
        w = working.pop(0)
        if not working:
            isotropic.append(w)
            break
        prods = np.array([symplectic_product(w, z) for z in working])
        scales = np.array([tol * np.linalg.norm(w) * np.linalg.norm(z) for z in working])
        if np.all(np.abs(prods) <= scales):
            isotropic.append(w)
            continue
        best = int(np.argmax(np.abs(prods)))
        z = working.pop(best) / prods[best]
        working = [project_out_pair(r, w, z) for r in working]
        pairs.append((w, z))
    return pairs, isotropic


def oracle_cases():
    rng = np.random.default_rng(20261018)
    cases = []
    for _ in range(20):
        n = int(rng.integers(1, 9))
        cases.append(rng.normal(size=(int(rng.integers(1, 2 * n + 1)), 2 * n)))
    # Canonical checks with isotropic rows in a random symplectic frame, in
    # (u, isotropic, v) order and shuffled, so that both isotropic paths run.
    for n, k, l, c in ((4, 1, 2, 1), (6, 1, 3, 2), (8, 2, 2, 4), (5, 0, 5, 0)):
        frame = random_symplectic_from_hamiltonian(n, rng)
        rows = canonical_parity_check(n, k, l, c) @ frame.T
        cases += [rows, rows[rng.permutation(len(rows))]]
    # A pair product of 1e-6 sits just above the threshold: it must pair.
    e = np.eye(8)
    cases.append(np.array([e[0], e[1] + 1e-6 * e[4], e[2]]))
    return cases


@pytest.mark.parametrize("rows", oracle_cases())
def test_pairing_loop_matches_per_vector_oracle(rows):
    got, got_c = _pairing_loop(rows, 1e-9)
    want_pairs, want_iso = per_vector_pairing_loop(list(rows), 1e-9)
    assert got_c == len(want_pairs)
    want = [u for u, _ in want_pairs] + want_iso + [v for _, v in want_pairs]  # syndrome order
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, float(np.max(np.abs(b))))
