import numpy as np
import pytest

from cvqec import reference
from cvqec.codes import build_code, canonical_parity_check
from cvqec.compiler import decompose, encoder_quad_action, verify_circuit
from cvqec.decomposition import (
    SymplecticDecomposition,
    _pairing_loop,
    check_decomposition,
    code_parameters,
    complete_symplectic_basis,
    symplectic_gram_schmidt,
)
from cvqec.errors import DecompositionError
from cvqec.symplectic import symplectic_form

from conftest import random_symplectic_from_hamiltonian
from oracle import symplectic_product


def gram_defect(dec):
    vecs = dec.vectors()
    return float(np.max(np.abs(vecs @ symplectic_form(dec.n) @ vecs.T - dec.canonical_gram())))


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
    assert same_rowspace(dec.vectors(), reference.raw_parity_rows())


def test_reference_basis_rows_kept_verbatim():
    rows = reference.symplectic_basis_rows()
    dec = symplectic_gram_schmidt(rows)
    assert (dec.c, dec.l) == (2, 0)
    assert np.allclose(dec.vectors(), rows, atol=1e-12)


def test_standard_rows_give_standard_pairs():
    e = np.eye(8)
    dec = symplectic_gram_schmidt([e[0], e[1], e[4], e[5]])
    assert (dec.c, dec.l) == (2, 0)
    assert np.array_equal(dec.pairs[0][0], e[0])
    assert np.array_equal(dec.pairs[0][1], e[4])
    assert np.array_equal(dec.pairs[1][0], e[1])
    assert np.array_equal(dec.pairs[1][1], e[5])


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
        scale = max(1.0, float(np.max(np.abs(dec.vectors()))) ** 2)
        assert gram_defect(dec) <= 1e-9 * scale


def test_rowspace_preserved(rng):
    for _ in range(10):
        rows = rng.normal(size=(4, 8))
        dec = symplectic_gram_schmidt(rows)
        assert same_rowspace(dec.vectors(), rows)


def test_determinism(rng):
    rows = rng.normal(size=(5, 8))
    a = symplectic_gram_schmidt(rows)
    b = symplectic_gram_schmidt(rows.copy())
    assert np.array_equal(a.vectors(), b.vectors())
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
    # the fixed vectors appear unchanged in the promised slots
    assert np.allclose(basis[0], dec.pairs[0][0])
    assert np.allclose(basis[1], dec.pairs[1][0])
    assert np.allclose(basis[4], dec.pairs[0][1])
    assert np.allclose(basis[5], dec.pairs[1][1])


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
        for i, w in enumerate(dec.isotropic):
            assert np.allclose(basis[dec.c + i], w)


def test_completion_rejects_invalid_decomposition():
    e = np.eye(4)
    broken = SymplecticDecomposition(n=2, pairs=((e[0], e[1]),), isotropic=())
    with pytest.raises(DecompositionError):
        complete_symplectic_basis(broken)


def test_small_pair_product_builds_and_compiles():
    # The pair product is 1e-6, so the partner is rescaled to entries of 1e6;
    # the rank test must not let that size swamp the other row.
    e = np.eye(12)
    code = build_code([e[0], e[1] + 1e-6 * e[6]])
    assert tuple(code.params) == (6, 5, 0, 1)
    assert verify_circuit(decompose(encoder_quad_action(code))[0], code) <= 1e-8


@pytest.mark.parametrize(
    "pairs, isotropic",
    [
        ((), (np.eye(12)[0], 2.0 * np.eye(12)[0])),
        ((), (np.eye(12)[0], np.eye(12)[1], np.eye(12)[0] - 3.0 * np.eye(12)[1])),
        ((), (np.zeros(12),)),
    ],
)
def test_check_decomposition_rejects_dependent_vectors(pairs, isotropic):
    with pytest.raises(DecompositionError, match="linearly dependent"):
        check_decomposition(SymplecticDecomposition(n=6, pairs=pairs, isotropic=isotropic))


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
        scales = np.array([tol * max(1.0, np.linalg.norm(w) * np.linalg.norm(z)) for z in working])
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
    got_pairs, got_iso = _pairing_loop(rows, 1e-9)
    want_pairs, want_iso = per_vector_pairing_loop(list(rows), 1e-9)
    assert len(got_pairs) == len(want_pairs)
    assert len(got_iso) == len(want_iso)
    got = [v for pair in got_pairs for v in pair] + got_iso
    want = [v for pair in want_pairs for v in pair] + want_iso
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, float(np.max(np.abs(b))))
