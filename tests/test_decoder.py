import functools
import json
import os
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
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
from cvqec.errors import AmbiguousSyndromeError, BuildVerificationError, DimensionMismatchError, UncorrectableSyndromeError
from cvqec.simulator import readout_syndromes

from conftest import mixed_code
from oracle import decode_by_lstsq, is_correctable_pair

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "chainbench"))
from workloads import MC_MIDSIZE_CODES, random_code_rows  # noqa: E402

# Modes 2 and 3 of this code span one syndrome plane through different columns.
COINCIDENT_ROWS = os.path.join(os.path.dirname(__file__), "data", "coincident-planes-rows.json")


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


def test_a_non_finite_syndrome_or_norm_is_refused(code):
    # Without the finite checks the overflowing syndrome came back with an infinite entry,
    # and the rows decoded: mode 1 with an infinite residual, or a NaN row as anything;
    # the least-norm correction of the 1e200 row had an infinite residual.
    with pytest.raises(DimensionMismatchError, match="syndrome entries must be finite"):
        syndrome(code, single_mode_error(4, 3, 1e308, 1e308))
    s = syndrome(code, single_mode_error(4, 1, 1e200, 1e200))  # finite entries, but |s|^2 overflows
    assert np.isfinite(s).all()
    for row in (s, np.full(4, np.nan)):
        with pytest.raises(DimensionMismatchError, match="syndrome norms must be finite"):
            decode_batch(code, np.vstack([np.zeros(4), row]))
        with pytest.raises(DimensionMismatchError, match="syndrome norms must be finite"):
            min_norm_correction(code, row)
    # Below the overflow the row decodes as any other.
    assert decode_batch(code, 1e-50 * s[None, :]).mode_hypothesis.tolist() == [1]


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
        j = int(batch.mode_hypothesis[i])
        u_batch = single_mode_error(4, j, *(batch.principal[i] @ code.mode_planes[2][j - 1]))
        assert np.max(np.abs(u_batch - corr.u_prime)) <= 1e-12 * np.max(np.abs(corr.u_prime))


@functools.cache
def _decode_code(key):
    kind, *args = key
    if kind == "canonical":
        return build_code(canonical_parity_check(*args))
    if kind == "mixed":
        return mixed_code(*args)
    if kind == "coincident":
        with open(COINCIDENT_ROWS) as fh:
            return build_code(json.load(fh)["rows"])
    # Two modes with the very same syndrome columns.
    return build_code([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]])


@st.composite
def _params(draw):
    # (n, k, l, c) with n <= 6 and at least two check rows, k = 0 included.
    n = draw(st.integers(1, 6))
    c = draw(st.integers(1 if n < 2 else 0, n))
    l = draw(st.integers(max(0, 2 - 2 * c), n - c))
    return n, n - l - c, l, c


_codes = st.one_of(
    _params().map(lambda p: ("canonical", *p)),
    st.tuples(_params(), st.integers(0, 2**16)).map(lambda a: ("mixed", *a[0], a[1])),
    st.sampled_from([("coincident",), ("equal-columns",), ("canonical", 1, 0, 0, 1)]),
)
_magnitudes = st.floats(-10.0, 3.0).map(lambda e: 10.0**e) | st.just(0.0)
_signed = st.tuples(_magnitudes, st.sampled_from([-1.0, 1.0])).map(lambda a: a[0] * a[1])


@st.composite
def _decode_cases(draw):
    """A code's key, a tolerance and up to 8 syndrome rows: exact, noisy, tiny, zero or arbitrary."""
    key = draw(_codes)
    code = _decode_code(key)
    n, m = code.n, code.m
    rows = []
    for kind in draw(st.lists(st.sampled_from(["exact", "noisy", "tiny", "zero", "any"]), max_size=8)):
        if kind in ("exact", "noisy"):
            row = syndrome(code, single_mode_error(n, draw(st.integers(1, n)), draw(_signed), draw(_signed)))
            if kind == "noisy":
                row = row + draw(_magnitudes) * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m)))
        elif kind == "tiny":
            row = 1e-7 * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m)))
        elif kind == "zero":
            row = np.zeros(m)
        else:
            row = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=m, max_size=m)))
        rows.append(row)
    return key, draw(st.sampled_from([0.0, DEFAULT_DECODE_TOL, 0.1])), np.array(rows).reshape(len(rows), m)


def _coincident_case(scale):
    code = _decode_code(("coincident",))
    return ("coincident",), DEFAULT_DECODE_TOL, scale * syndrome(code, single_mode_error(3, 2, 0.7, -0.4))[None, :]


@settings(deadline=None, max_examples=200)
@example(case=(("mixed", 4, 2, 1, 1, 7), 0.1, np.zeros((0, 3))))
@example(case=_coincident_case(1e3))
@example(case=(("coincident",), DEFAULT_DECODE_TOL, np.array([[1e3, 1e-5, -1e-5], [1e3, 3e-6, -3e-6]])))
@example(case=(("canonical", 1, 0, 0, 1), DEFAULT_DECODE_TOL, np.array([[0.5, -2.0], [0.0, 0.0], [1e-7, 0.0]])))
@given(case=_decode_cases())
def test_batch_decoder_matches_lstsq_oracle(case):
    # Rows within 1e-8 (relative, see `decode_by_lstsq`) of a threshold of the
    # oracle's status, where rounding on either side may decide, are counted
    # and not compared; nor are the mode and shift where the two best
    # residuals lie within 1e-8 |s| of each other.
    key, tol, s = case
    code = _decode_code(key)
    got = decode_batch(code, s, tol)
    status, mode, shift, residual, runner_up, margin, gap = decode_by_lstsq(code, s, tol)
    scale = 1e-9 * np.maximum(1.0, np.linalg.norm(s, axis=1))
    clear = margin > 1e-8
    unique = clear & (gap > 1e-8)
    if not clear.all():
        event(f"{np.count_nonzero(~clear)} of {len(s)} rows within 1e-8 of a threshold")
    assert np.array_equal(got.status[clear], status[clear])
    assert np.all(np.abs(got.residual - residual)[clear] <= scale[clear])
    if code.n > 1:
        assert np.all(np.abs(got.runner_up_residual - runner_up)[clear] <= scale[clear])
    else:
        assert np.all(got.runner_up == 0) and np.all(got.runner_up_residual == np.inf)
    named = unique | (clear & (status == NO_ERROR))
    assert np.array_equal(got.mode_hypothesis[named], mode[named])
    # A NO_ERROR row names no mode, yet its principal fit is the best mode's: the oracle's best at tol 0.
    best = np.where(status == NO_ERROR, decode_by_lstsq(code, s, 0.0)[1], got.mode_hypothesis)
    got_shift = np.matmul(got.principal[:, None], code.mode_planes[2][np.maximum(best - 1, 0)])[:, 0]
    assert np.all(np.abs(got_shift - shift).max(axis=1, initial=0.0)[unique] <= scale[unique])


@pytest.mark.parametrize(
    "p, x", [(0.7, -0.4), (-0.3, 0.65), (0.77, 0.12), (0.05, 1.0), (1.0, -1e-9), (1.0, -3e-9), (1.0, -1e-8), (1.0, -3e-8)]
)
def test_coincident_planes_are_ambiguous_at_large_syndromes(p, x):
    # Modes 2 and 3 fit the syndrome exactly, so both residuals are rounding,
    # about 1e-13 here. Read from |s|^2 - |s Q_j|^2 instead, the runner-up's
    # would be about sqrt(eps) |s| ~ 1e-5, far beyond the tolerance. With
    # p = 1 the syndrome lies 1e3 |x| off mode 1's plane, which meets theirs
    # in the line of a unit momentum on mode 2: mode 1 leaves one to thirty
    # times the tolerance, yet all three fits lie within rounding of |s|^2,
    # so the two best must be ranked by their residuals in rank-2 form.
    code = _decode_code(("coincident",))
    s = 1e3 * syndrome(code, single_mode_error(3, 2, p, x))
    with pytest.raises(AmbiguousSyndromeError, match="equally well") as info:
        decode_single_mode(code, s)
    assert sorted(map(int, re.search(r"modes (\d+) and (\d+)", str(info.value)).groups())) == [2, 3]



@functools.cache
def _midsize_code(index):
    return build_code(random_code_rows(*MC_MIDSIZE_CODES[index]))


@settings(deadline=None, max_examples=100)
@example(source=("coincident",), mode_pick=3, r=2.0, seed=1)
@given(
    source=st.one_of(
        st.tuples(st.just("built"), st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0)),
        st.tuples(st.just("midsize"), st.integers(0, len(MC_MIDSIZE_CODES) - 1)),
        st.just(("coincident",)),
    ),
    mode_pick=st.integers(1, 2**16),
    r=st.floats(0.0, 6.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_principal_fit_is_the_shift_on_the_principal_axes(source, mode_pick, r, seed):
    # Built codes of 1 to 8 modes at scales 10^U(-3, 3), the benchmark's
    # n = 16 codes and the coincident-plane code, whose re-ranked rows change
    # their best mode, read out as the experiment reads a single-mode error,
    # plus arbitrary rows.  On every row that names a mode, DECODED or not,
    # the principal fit is (s Q_j) * inverse[j] to the rounding of the product
    # s Q_j, and on a DECODED row `decode_single_mode` corrects by the
    # principal fit on that mode's axes, principal @ vt[j], bit for bit.
    if source[0] == "built":
        _, draw_seed, log_scale = source
        rng = np.random.default_rng(draw_seed)
        n = int(rng.integers(1, 9))
        try:
            code = build_code(10.0**log_scale * rng.normal(size=(int(rng.integers(1, 2 * n + 1)), 2 * n)))
        except BuildVerificationError:
            assume(False)
        assume(code.m >= 2)
    elif source[0] == "midsize":
        code = _midsize_code(source[1])
    else:
        code = _decode_code(source)
    n, m = code.n, code.m
    rng = np.random.default_rng(seed)
    error = single_mode_error(n, 1 + mode_pick % n, *rng.normal(size=2))
    s = np.vstack([readout_syndromes(code, syndrome(code, error), r, rng, 200), rng.normal(size=(20, m))])
    got = decode_batch(code, s, 0.1)
    planes, inverse, vt = code.mode_planes
    for i in np.flatnonzero(got.status != NO_ERROR):
        j = got.mode_hypothesis[i] - 1
        bound = 2 * (m + 1) * np.finfo(float).eps * np.linalg.norm(s[i]) * inverse[j]
        assert np.all(np.abs(got.principal[i] - (s[i] @ planes[j].T) * inverse[j]) <= bound)
    for i in np.flatnonzero(got.status == DECODED):
        one = decode_batch(code, s[i : i + 1], 0.1)  # a one-row product may round apart from the batch's
        if one.status[0] == DECODED:
            j = one.mode_hypothesis[0] - 1
            want = single_mode_error(n, j + 1, *(one.principal[0] @ vt[j]))
            assert np.array_equal(decode_single_mode(code, s[i], 0.1).u_prime, want)
