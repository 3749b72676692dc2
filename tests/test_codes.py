import json

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from cvqec import reference
from cvqec.codes import (
    build_code,
    canonical_parity_check,
    code_from_dict,
    code_to_dict,
    load_parity_check,
    save_parity_check,
)
from cvqec.decomposition import symplectic_gram_schmidt, code_parameters
from cvqec.errors import BuildVerificationError, DecompositionError, DimensionMismatchError
from cvqec.symplectic import is_symplectic, symplectic_form

from oracle import h_aug


def test_canonical_parity_check_reference_shape():
    f = canonical_parity_check(4, 2, 0, 2)
    e = np.eye(8)
    assert np.array_equal(f, np.array([e[0], e[1], e[4], e[5]]))


def test_canonical_parity_check_trivial_code():
    f = canonical_parity_check(1, 1, 0, 0)
    assert f.shape == (0, 2)


def test_canonical_parity_check_isotropic_only():
    f = canonical_parity_check(3, 1, 2, 0)
    dec = symplectic_gram_schmidt(f)
    assert code_parameters(dec) == (3, 1, 2, 0)


def test_canonical_parity_check_validates_sum():
    with pytest.raises(DimensionMismatchError):
        canonical_parity_check(4, 1, 1, 1)


def test_augment_reference_rows_commute():
    code = build_code(reference.symplectic_basis_rows())
    aug, n, c = h_aug(code), code.n, code.params.c
    j = symplectic_form(n + c)
    assert np.max(np.abs(aug @ j @ aug.T)) <= 1e-9 * np.max(np.abs(aug)) ** 2
    # without the receiver columns the rows are the normalized checks again
    assert np.array_equal(np.hstack([aug[:, :n], aug[:, n + c : 2 * n + c]]), code.h)


def test_augment_without_pairs_is_identity():
    rows = np.array([[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
    aug = h_aug(build_code(rows))
    assert aug.shape == (1, 6)
    assert np.array_equal(aug, rows)


def test_augment_canonical_block_pattern():
    aug = h_aug(build_code(canonical_parity_check(3, 1, 1, 1)))
    n, c = 3, 1
    # u-row picks up -1 in the receiver momentum column, v-row +1 in the
    # receiver position column, isotropic rows stay untouched.
    assert aug[0, n] == -1.0
    assert aug[2, 2 * n + c] == 1.0
    assert np.all(aug[1, [n, 2 * n + c]] == 0.0)


def test_code_from_dict_rejects_foreign_rows(rng):
    payload = code_to_dict(build_code(reference.symplectic_basis_rows()))
    code_from_dict(payload)
    foreign = dict(payload, input_rows=rng.normal(size=(4, 8)).tolist())
    with pytest.raises(BuildVerificationError, match="rowspace"):
        code_from_dict(foreign)
    shifted = dict(payload, pairs=[[[u[0] + 0.25] + u[1:], v] for u, v in payload["pairs"]])
    with pytest.raises(BuildVerificationError, match="basis rows"):
        code_from_dict(shifted)


def test_load_check_accepts_dependent_tiny_and_scaled_rows(rng):
    # Dropped rows (a combination, a row below the zero threshold, a zero
    # row) and rows of large or small scale all lie in the check rowspace.
    for scale in (1e-3, 1.0, 1e3):
        rows = scale * rng.normal(size=(4, 10))
        rows = np.vstack([rows, rng.normal(size=(1, 4)) @ rows, 1e-11 * rng.normal(size=(1, 10)), np.zeros((1, 10))])
        code = build_code(rows[rng.permutation(len(rows))])
        assert len(code.dropped_rows) == 3
        assert np.array_equal(code_from_dict(code_to_dict(code)).basis, code.basis)


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
def test_code_file_round_trip_is_exact(n, seed, log_scale):
    # Up to n independent rows scaled by 10^log_scale, then up to three
    # dropped rows: a combination of them, a near-zero row and a zero row.
    rng = np.random.default_rng(seed)
    rows = 10.0**log_scale * rng.normal(size=(int(rng.integers(1, n + 1)), 2 * n))
    dropped = [rng.normal(size=len(rows)) @ rows, 1e-11 * rng.normal(size=2 * n), np.zeros(2 * n)]
    rows = np.vstack([rows] + dropped[: int(rng.integers(0, 4))])
    try:
        code = build_code(rows[rng.permutation(len(rows))])
    except DecompositionError:
        # The property is about codes that exist.  About one draw in forty
        # at scale 1e-3 fails basis completion (a known build defect).
        reject()
    payload = code_to_dict(code)
    clone = code_from_dict(json.loads(json.dumps(payload)))
    assert clone.params == code.params and clone.dropped_rows == code.dropped_rows
    for name in ("basis", "input_rows", "h"):
        assert _bits(getattr(clone, name)) == _bits(getattr(code, name))
    _, _, l, c = code.params
    h = code.basis[np.r_[: c + l, n : n + c]]
    assert payload["pairs"] == [[h[i].tolist(), h[c + l + i].tolist()] for i in range(c)]
    assert payload["isotropic"] == h[c : c + l].tolist()


def test_build_reference_code():
    code = build_code(reference.raw_parity_rows())
    assert tuple(code.params) == (4, 2, 0, 2)
    assert np.max(np.abs(code.h @ code.upsilon.T - code.f)) <= 1e-8
    assert is_symplectic(code.upsilon, 1e-9)


def test_build_standard_rows_gives_identity():
    e = np.eye(8)
    code = build_code([e[0], e[1], e[4], e[5]])
    assert np.allclose(code.upsilon, np.eye(8), atol=1e-12)


def test_build_maps_basis_to_standard():
    code = build_code(reference.symplectic_basis_rows())
    n = code.n
    ident = np.eye(2 * n)
    for i in range(n):
        assert np.allclose(code.upsilon @ code.basis[i], ident[i], atol=1e-9)
        assert np.allclose(code.upsilon @ code.basis[n + i], ident[n + i], atol=1e-9)


def test_build_random_codes_pass_invariants(rng):
    for _ in range(25):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 2 * n + 1))
        rows = rng.normal(size=(m, 2 * n))
        dec = symplectic_gram_schmidt(rows)
        if dec.c + dec.l > n:
            continue
        code = build_code(rows)
        assert code.m == dec.m
        scale = 1.0 + float(np.max(np.abs(code.h)))
        assert np.max(np.abs(code.h @ code.upsilon.T - code.f)) <= 1e-8 * scale
        assert is_symplectic(code.upsilon, 1e-9 * scale)
        j = symplectic_form(code.n + code.params.c)
        aug = h_aug(code)
        assert np.max(np.abs(aug @ j @ aug.T), initial=0.0) <= 1e-9 * max(1.0, np.max(np.abs(aug)) ** 2)
        assert aug.shape == (code.params.l + 2 * code.params.c, 2 * (n + code.params.c))


def test_codespace_duality(rng):
    # Basis vectors outside the check set have zero product with every check row.
    code = build_code(reference.raw_parity_rows())
    n, k, l, c = code.params
    j = symplectic_form(n)
    codespace = [code.basis[c + i] for i in range(l)]
    codespace += [code.basis[i] for i in range(c + l, n)]
    codespace += [code.basis[n + i] for i in range(c + l, n)]
    for w in codespace:
        assert np.max(np.abs(code.h @ j @ w)) <= 1e-9
    # and the canonical rows pull back onto the normalized check rows
    pulled = code.f @ np.linalg.inv(code.upsilon).T
    assert np.max(np.abs(pulled - code.h)) <= 1e-8


def test_parity_check_file_roundtrip(tmp_path):
    path = tmp_path / "check.json"
    rows = reference.raw_parity_rows()
    save_parity_check(path, rows)
    assert np.array_equal(load_parity_check(path), rows)


def test_code_dict_roundtrip():
    code = build_code(reference.symplectic_basis_rows())
    clone = code_from_dict(code_to_dict(code))
    assert np.array_equal(clone.h, code.h)
    assert np.array_equal(clone.basis, code.basis)
    assert np.array_equal(clone.upsilon, code.upsilon)
    assert tuple(clone.params) == tuple(code.params)
