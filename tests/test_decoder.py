import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqec import reference
from cvqec.codes import build_code, canonical_parity_check
from cvqec.decoder import (
    AMBIGUOUS,
    DECODED,
    DEFAULT_DECODE_TOL,
    NO_ERROR,
    UNCORRECTABLE,
    decode_batch,
    decode_single_mode,
    min_norm_correction,
    single_mode_error,
    syndrome,
)
from cvqec.errors import AmbiguousSyndromeError, DimensionMismatchError, UncorrectableSyndromeError

from oracle import is_correctable_pair


@pytest.fixture(scope="module")
def code():
    return reference.build_example_code()


def test_syndrome_tables_match_closed_forms(code, rng):
    for mode in range(1, 5):
        for _ in range(100):
            p, x = rng.normal(size=2)
            got = syndrome(code, single_mode_error(4, mode, p, x))
            want = reference.syndrome_closed_form(mode, p, x)
            assert np.max(np.abs(got - want)) <= 1e-9


def test_syndrome_zero_error(code):
    assert np.array_equal(syndrome(code, np.zeros(8)), np.zeros(4))


def test_syndrome_is_linear(code, rng):
    for _ in range(20):
        u, v = rng.normal(size=(2, 8))
        lhs = syndrome(code, u + v)
        rhs = syndrome(code, u) + syndrome(code, v)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * (1.0 + np.max(np.abs(lhs)))


def test_syndrome_dimension_check(code):
    with pytest.raises(DimensionMismatchError):
        syndrome(code, np.zeros(6))


def test_decode_forward_inverse_example(code):
    s = syndrome(code, single_mode_error(4, 1, 0.3, -1.1))
    corr = decode_single_mode(code, s)
    assert corr.mode_hypothesis == 1
    assert corr.u_prime[0] == pytest.approx(0.3, abs=1e-9)
    assert corr.u_prime[4] == pytest.approx(-1.1, abs=1e-9)
    assert corr.residual <= 1e-9


def test_decode_zero_syndrome(code):
    corr = decode_single_mode(code, np.zeros(4))
    assert corr.mode_hypothesis is None
    assert np.array_equal(corr.u_prime, np.zeros(8))


def test_decode_mode_four_unit_error(code):
    expected = np.array([1.0, np.sqrt(0.5), 0.0, np.sqrt(2.0)])
    s = syndrome(code, single_mode_error(4, 4, 1.0, 1.0))
    assert np.max(np.abs(s - expected)) <= 1e-12
    corr = decode_single_mode(code, expected)
    assert corr.mode_hypothesis == 4
    assert corr.u_prime[3] == pytest.approx(1.0, abs=1e-9)
    assert corr.u_prime[7] == pytest.approx(1.0, abs=1e-9)


def test_decode_all_modes_random(code, rng):
    for _ in range(200):
        mode = int(rng.integers(1, 5))
        exponent = rng.uniform(-3, 3, size=2)
        p, x = np.sign(rng.normal(size=2)) * 10.0**exponent
        corr = decode_single_mode(code, syndrome(code, single_mode_error(4, mode, p, x)))
        assert corr.mode_hypothesis == mode
        assert corr.u_prime[mode - 1] == pytest.approx(p, rel=1e-6)
        assert corr.u_prime[4 + mode - 1] == pytest.approx(x, rel=1e-6)


def test_syndrome_uniqueness_grid_and_boundaries(code, rng):
    # No single-mode error on one mode can reproduce the syndrome of an
    # error on a different mode, including the half-axis cases.
    smat = code.syndrome_matrix
    columns = [np.column_stack([smat[:, j], smat[:, 4 + j]]) for j in range(4)]
    draws = [tuple(rng.normal(size=2)) for _ in range(40)]
    draws += [(0.0, 1.0), (1.0, 0.0), (0.0, -2.5), (3.0, 0.0)]
    for mode in range(1, 5):
        for p, x in draws:
            if p == 0.0 and x == 0.0:
                continue
            s = syndrome(code, single_mode_error(4, mode, p, x))
            for other in range(4):
                if other == mode - 1:
                    continue
                theta, *_ = np.linalg.lstsq(columns[other], s, rcond=None)
                gap = np.linalg.norm(columns[other] @ theta - s)
                assert gap > 1e-2 * np.linalg.norm(s)


def test_decode_uncorrectable_two_mode_error(code):
    s = syndrome(code, single_mode_error(4, 1, 1.0, 1.0) + single_mode_error(4, 3, 2.0, -1.0))
    with pytest.raises(UncorrectableSyndromeError):
        decode_single_mode(code, s)


def test_decode_ambiguous_degenerate_code():
    # Two modes with identical syndrome maps: every nonzero syndrome is ambiguous.
    rows = np.array(
        [
            [1.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
        ]
    )
    code = build_code(rows)
    s = syndrome(code, single_mode_error(2, 1, 0.7, 0.2))
    with pytest.raises(AmbiguousSyndromeError):
        decode_single_mode(code, s)


def test_min_norm_correction(code, rng):
    for _ in range(10):
        u = rng.normal(size=8)
        s = syndrome(code, u)
        corr = min_norm_correction(code, s)
        assert np.max(np.abs(syndrome(code, corr.u_prime) - s)) <= 1e-9 * (1 + np.max(np.abs(s)))
        assert np.linalg.norm(corr.u_prime) <= np.linalg.norm(u) + 1e-9


def test_canonical_syndrome_reads_block_shifts(rng):
    # Canonical layout (entangled | ancilla | data): a shift with momenta
    # (a_2, 0, alpha) and positions (a_1, a, beta) reads (a_1, a, a_2),
    # whatever it does to the data modes.
    code = build_code(canonical_parity_check(4, 1, 2, 1))
    for _ in range(10):
        a, a1, a2, alpha, beta = rng.normal(size=2), rng.normal(size=1), rng.normal(size=1), rng.normal(size=1), rng.normal(size=1)
        u = np.concatenate([a2, np.zeros(2), alpha, a1, a, beta])
        assert np.allclose(syndrome(code, u), np.concatenate([a1, a, a2]), atol=1e-12)


def test_correctable_pair_distinct_modes(code):
    u = single_mode_error(4, 1, 1.0, 1.0)
    v = single_mode_error(4, 2, 1.0, 1.0)
    assert is_correctable_pair(code, u, v)
    assert is_correctable_pair(code, u, u)  # zero difference: degenerate branch


def test_correctable_pair_canonical_degeneracy():
    params = (4, 1, 2, 1)
    code = build_code(canonical_parity_check(*params))
    n, k, l, c = params
    b = np.zeros(2 * n)
    b[c] = 0.4  # momentum kicks on the ancilla block
    b[c + 1] = -1.2
    assert np.max(np.abs(syndrome(code, b))) == 0.0
    assert is_correctable_pair(code, single_mode_error(4, 4, 1.0, 0.0) + b, single_mode_error(4, 4, 1.0, 0.0))


def test_uncorrectable_pair_on_data_mode():
    code = build_code(canonical_parity_check(2, 1, 0, 1))
    u = single_mode_error(2, 2, 0.5, 0.5)  # acts on the data mode: zero syndrome
    assert not is_correctable_pair(code, u, np.zeros(4))


_finite = st.floats(-1e3, 1e3, allow_nan=False)
_syndromes = st.one_of(
    # exact syndromes of single-mode errors
    st.tuples(st.integers(1, 4), _finite, _finite).map(
        lambda e: syndrome(reference.build_example_code(), single_mode_error(4, *e))
    ),
    # below the decoder tolerance, and zero
    st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).map(lambda v: np.array(v) * DEFAULT_DECODE_TOL / 4),
    st.just(np.zeros(4)),
    st.lists(_finite, min_size=4, max_size=4).map(np.array),
)


@settings(deadline=None)
@given(st.lists(_syndromes, min_size=1, max_size=12))
def test_batch_decoder_matches_scalar_row_by_row(rows):
    code = reference.build_example_code()
    batch = decode_batch(code, np.array(rows))
    for i, s in enumerate(rows):
        status = batch.status[i]
        try:
            corr = decode_single_mode(code, s)
        except AmbiguousSyndromeError:
            assert status == AMBIGUOUS
            continue
        except UncorrectableSyndromeError:
            assert status == UNCORRECTABLE
            continue
        if corr.mode_hypothesis is None:
            assert status == NO_ERROR
            continue
        assert status == DECODED
        assert batch.mode_hypothesis[i] == corr.mode_hypothesis
        u_batch = single_mode_error(4, int(batch.mode_hypothesis[i]), *batch.shift[i])
        assert np.max(np.abs(u_batch - corr.u_prime)) <= 1e-12 * np.max(np.abs(corr.u_prime))
