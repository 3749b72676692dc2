"""Error-correction experiments, and the Gaussian-state primitives the benchmark tracer wraps.

`run_ec_experiment` is what ``cvqec simulate`` runs.  The decoder undoes
the encoder exactly, so it runs in closed form: each readout is its
check value plus independent finite-squeezing noise, and no state,
covariance or circuit is formed.

The rest of the module is a remnant of the state-level simulator that
tests use as an oracle (its other functions live in ``tests/oracle.py``).
States live in quadrature ordering (x_1..x_n, p_1..p_n) with hbar = 1
and vacuum variance 1/2 per quadrature, and keep the covariance in
factored form, cov = S S^T: `apply_symplectic` multiplies the factor,
and `homodyne` conditions by a rank-one projection of it, which keeps
strongly squeezed combinations meaningful in double precision.
`GaussianState`, `HomodyneRecord`, `homodyne` and `apply_symplectic`
stay here because ``chainbench/tracer.py`` looks up `homodyne` and
`apply_symplectic` by name when a traced benchmark run starts; no
command calls them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .codes import CodeSpec
from .decoder import AMBIGUOUS, DECODED, NO_ERROR, UNCORRECTABLE, BatchDecode, decode_batch
from .decomposition import check_rows
from .errors import DimensionMismatchError, InvalidStateError
from .symplectic import swap_halves


@dataclass(frozen=True)
class GaussianState:
    """Immutable Gaussian state: mean vector and factored covariance.

    Attributes:
        n: mode count.
        mean: length-2n quadrature means, (x | p) ordering.
        factor: (2n, K) array with covariance = factor @ factor.T.
    """

    n: int
    mean: np.ndarray
    factor: np.ndarray

    def __post_init__(self):
        if self.mean.shape != (2 * self.n,) or self.factor.shape[0] != 2 * self.n:
            raise DimensionMismatchError(
                f"inconsistent state shapes: mean {self.mean.shape}, factor {self.factor.shape}"
            )

    @property
    def cov(self) -> np.ndarray:
        return self.factor @ self.factor.T

    def variance(self, index: int) -> float:
        """Variance of one quadrature (0-based row index), cancellation-free."""
        row = self.factor[index]
        return float(row @ row)


def apply_symplectic(state: GaussianState, a: np.ndarray) -> GaussianState:
    """Evolve by a quadrature action: mean -> A mean, cov -> A cov A^T."""
    a = np.asarray(a, dtype=float)
    if a.shape != (2 * state.n, 2 * state.n):
        raise DimensionMismatchError(f"action shape {a.shape} does not fit {state.n} modes")
    return GaussianState(n=state.n, mean=a @ state.mean, factor=a @ state.factor)


@dataclass(frozen=True)
class HomodyneRecord:
    """Outcome of measuring one quadrature; the measured mode is removed."""

    mode: int
    quadrature: str
    outcome: float
    posterior: GaussianState


def _drop_mode(mean: np.ndarray, factor: np.ndarray, n: int, mode0: int):
    keep = [i for i in range(2 * n) if i not in (mode0, n + mode0)]
    return mean[keep], factor[keep]


def homodyne(state: GaussianState, mode: int, quadrature: str, rng: np.random.Generator) -> HomodyneRecord:
    """Measure x or p of one mode; condition and trace out that mode.

    The outcome is drawn from the exact marginal; the remaining modes are
    updated by the Gaussian conditioning rule, realized as a rank-one
    projection of the covariance factor, and the measured mode is then
    removed.

    Raises:
        InvalidStateError: if the measured quadrature has no spread
            (degenerate variance), which double precision cannot condition on.
    """
    if not 1 <= mode <= state.n:
        raise DimensionMismatchError(f"mode {mode} out of range 1..{state.n}")
    if quadrature not in ("x", "p"):
        raise ValueError(f"quadrature must be 'x' or 'p', got {quadrature!r}")
    n = state.n
    q = (mode - 1) if quadrature == "x" else (n + mode - 1)
    v = state.factor[q].copy()
    var = float(v @ v)
    if var <= 0.0:
        raise InvalidStateError(f"quadrature {quadrature}_{mode} has nonpositive variance {var}")
    outcome = float(rng.normal(state.mean[q], math.sqrt(var)))

    gain = state.factor @ v / var  # regression of every quadrature on the measured one
    mean = state.mean + gain * (outcome - state.mean[q])
    vhat = v / math.sqrt(var)
    factor = state.factor - np.outer(state.factor @ vhat, vhat)
    mean, factor = _drop_mode(mean, factor, n, mode - 1)
    posterior = GaussianState(n=n - 1, mean=mean, factor=factor)
    return HomodyneRecord(mode=mode, quadrature=quadrature, outcome=outcome, posterior=posterior)


# ---------------------------------------------------------------------------
# End-to-end error-correction experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentStats:
    """Aggregates over the trials of one error-correction experiment.

    ``excess_variance`` combines the trial-to-trial jitter of the
    corrected data means with the surplus of the output quantum variance
    over the vacuum 1/2, per data quadrature (x block then p block).  The
    decoded data modes keep the vacuum covariance exactly, so it equals
    ``residual_variance``; both keys stay in the output.
    """

    trials: int
    mean_residual: np.ndarray
    residual_variance: np.ndarray
    excess_variance: np.ndarray
    syndrome_noise_variance: np.ndarray
    mode_match_rate: float
    ambiguity_rate: float
    uncorrectable_rate: float

    def to_dict(self) -> dict:
        """The fields in their order, each array as a list: `simulate`'s output."""
        items = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {name: value.tolist() if isinstance(value, np.ndarray) else value for name, value in items}


# Residual tolerance handed to the decoder: absolute, and generous because
# measured syndromes carry finite-squeezing noise.  ROADMAP item 1a replaces
# it with thresholds calibrated to that noise.
_DECODE_TOL = 0.1


def block_rows(n: int) -> int:
    """Trials per block of `run_ec_experiment` on an n-mode code.

    A block's largest array is the decoder's (rows, 2n) product of fitted
    norms, which this sizes to 256 KiB down to 1000 rows.  With fewer rows
    the fixed cost of a block's numpy calls outweighs its smaller working
    set.  Moving the floor moves the block boundaries, and with them the
    last bits of every seeded figure of a larger run.
    """
    return max(1000, (256 * 1024) // (16 * n))


def run_ec_experiment(
    code: CodeSpec,
    error,
    r: float,
    trials: int,
    seed: int,
) -> ExperimentStats:
    """Monte-Carlo error correction of a fixed single-mode displacement.

    Each trial prepares resource states at squeezing r, encodes, applies
    the error, un-encodes on the receiver side, reads the canonical check
    values by single-mode homodyne (entangled pairs pass through an exact
    beamsplitter first so both commuting pair observables become local),
    decodes, applies the correction displacement, and compares the data
    modes against their inputs.

    The channel is linear and the decoder undoes the encoder exactly, so
    the experiment runs in closed form and compiles nothing.  The decoder
    maps the error to the canonical shift ``code.basis @ swap_halves(error)``,
    the decoder's quadrature action being the basis itself.  At readout
    the resource is a product of single-mode states: the readout
    beamsplitter hands each entangled pair back as its sender half
    squeezed in position and its receiver half in momentum, ancillas are
    squeezed in position, and data modes hold vacuum.  So each readout is
    its check value plus independent noise of standard deviation
    e^{-r}/sqrt(2).  A pair's value leaves the beamsplitter scaled by
    sqrt(1/2) and its outcome is read back scaled by sqrt(2), so the
    syndrome carries noise of standard deviation e^{-r} on pair rows and
    e^{-r}/sqrt(2) on ancilla rows, one figure per row.  The data
    modes take the same shift in every trial and no noise: their means
    would pass through unchanged and cancel, so none are drawn, and they
    keep the vacuum covariance exactly.

    Decode failures are counted, never raised; a failed trial applies no
    correction.  Randomness comes from ``np.random.default_rng(seed)``,
    which draws the standard normals of one (trials, m) array z and nothing
    else.  Column i of z drives the i-th readout, and the readouts run in
    this order: receiver momenta of the entangled pairs from the last pair
    to the first, ancilla positions from the last to the first, then
    sender positions from the last pair to the first, so readout i gives
    syndrome entry m - 1 - i: trial t reads entry m - 1 - i as its check
    value plus that row's standard deviation times ``z[t, i]``
    (`readout_syndromes`).  A fixed seed gives bit-identical results.

    The trials run in blocks of `block_rows` rows, each drawn in turn from
    the one generator, so the blocks' rows are the rows of z in order, and
    each block is decoded by one `decode_batch` call.  Memory is set by the
    block, not by ``trials``.  Each block leaves plain sums (`_Sums`), and
    the blocks' sums are added elementwise.

    No per-trial data quadratures are formed.  A trial's correction is one
    of n + 1 affine maps of its decoded fit, one per corrected mode and one
    for none, so `_group_sums` keeps each group's count and the sums of its
    principal fits' deviations (``BatchDecode.principal``) and of their
    products, taken about the group's principal fit of the noiseless
    syndrome, and `_residual_moments` forms ``mean_residual`` and
    ``residual_variance`` from them: the count-weighted mean and the
    pooled within-plus-between variance, in O(trials) for the sums and
    O(n k) after them.  ``syndrome_noise_variance`` is the variance of the
    measured syndromes themselves, as the ideal syndrome is the same in
    every trial; they are summed about it, so a readout without noise
    reads 0.  Every deviation is of the size of the noise, not of the
    fit, and sums about a point that near the mean keep the spread's digits
    with no merge formula (Chan, Golub and LeVeque, The American
    Statistician 37, 242 (1983)).

    Args:
        code: a built code.
        error: phase vector supported on at most one mode.
        r: resource squeezing parameter (>= 0; infinity reads without noise).
        trials: number of Monte-Carlo runs (>= 1).
        seed: seed of the random stream (non-negative).

    Raises:
        DimensionMismatchError: if the error's canonical image is not
            finite, as when an error near the doubles' range overflows, or
            a measured syndrome's ``|s|^2`` is not (`decode_batch`).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if not r >= 0:  # written so that NaN fails too
        raise ValueError(f"squeezing parameter must be >= 0, got {r}")
    n, _, l, c = code.params
    error = np.asarray(error, dtype=float)
    if error.shape != (2 * n,):
        raise DimensionMismatchError(f"error must have length {2 * n}")
    support = {i % n for i in np.nonzero(error)[0]}
    if len(support) > 1:
        raise ValueError("the experiment injects single-mode errors only")
    error_mode = (support.pop() + 1) if support else 0

    checks, data = check_rows(n, l, c)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below, not warned of
        shift = code.basis @ swap_halves(error)
    if not np.isfinite(shift).all():
        raise DimensionMismatchError("the error's canonical image must be finite: the error overflows a double")
    values = shift[checks]
    planes, inverse, _ = code.mode_planes
    # Row j holds the principal fit of the noiseless syndrome on mode j; the no-correction group's row n
    # holds zeros, as its trials' fits read 0.
    centre = np.zeros((n + 1, 2))
    centre[:n] = (planes @ values) * inverse
    rng = np.random.default_rng(seed)
    total, rows = None, block_rows(n)
    for start in range(0, trials, rows):
        s_meas = readout_syndromes(code, values, r, rng, min(rows, trials - start))
        sums = _group_sums(decode_batch(code, s_meas, tol=_DECODE_TOL), centre, s_meas, values, error_mode)
        total = sums if total is None else _Sums(*map(np.add, total, sums))
    mean_residual, residual_variance = _residual_moments(code, data, shift[data], centre, total)
    noise_variance = (total.noise_squares - np.square(total.noise) / trials) / trials
    matched, ambiguous, uncorrectable = total.outcomes.tolist()
    return ExperimentStats(
        trials=trials,
        mean_residual=mean_residual,
        residual_variance=residual_variance,
        excess_variance=residual_variance,
        syndrome_noise_variance=noise_variance,
        mode_match_rate=matched / trials,
        ambiguity_rate=ambiguous / trials,
        uncorrectable_rate=uncorrectable / trials,
    )


def readout_syndromes(code: CodeSpec, values: np.ndarray, r: float, rng: np.random.Generator, rows: int) -> np.ndarray:
    """The next ``rows`` trials' (rows, m) syndromes `run_ec_experiment` reads at squeezing r from ``rng``.

    ``values`` are the check values in syndrome order (sender positions
    of the pairs, ancilla positions, pair momenta): the error's ideal
    syndrome.  Each row's noise is one standard deviation ``sd``: e^{-r}
    on pair rows and e^{-r}/sqrt(2) on ancilla rows.  Entry m - 1 - i of
    trial t is ``values[m - 1 - i] + z[t, i] sd[m - 1 - i]``, for the
    draw ``z = rng.standard_normal((rows, m))``, so at r = infinity every
    trial reads ``values`` exactly.  The generator's draws follow one
    another, so calls on one ``default_rng(seed)`` for rows that sum to
    ``trials`` give, stacked, the rows that one call for ``trials`` gives,
    bit for bit.  The result is a new C-contiguous array; ``values`` is not
    changed.
    """
    _, _, l, c = code.params
    sd = np.full(code.m, math.exp(-r))
    sd[c : c + l] /= math.sqrt(2.0)
    s = rng.standard_normal((rows, code.m))[:, ::-1] * sd  # readout i -> entry m - 1 - i
    s += values
    return s


class _Sums(NamedTuple):
    """The plain sums `run_ec_experiment` keeps of a block of trials; those of several blocks are their elementwise sums.

    Groups are indexed by the 0-based mode they correct, n for none.  A
    group's fits are taken on its mode's principal axes, about that
    group's fit of the noiseless syndrome (`_group_sums`).
    """

    counts: np.ndarray  # (n + 1,) trials per group
    fits: np.ndarray  # (2, n + 1) sums of the fits' deviations (u, v) from the noiseless fit
    squares: np.ndarray  # (3, n + 1) sums of their products u u, u v and v v
    noise: np.ndarray  # (m,) sums of the syndromes' deviations from the noiseless syndrome
    noise_squares: np.ndarray  # (m,) sums of their squares
    outcomes: np.ndarray  # (3,) matched, ambiguous and uncorrectable trials


def _group_sums(decoded: BatchDecode, centre: np.ndarray, s_meas: np.ndarray, values: np.ndarray, error_mode: int) -> _Sums:
    """One block's `_Sums`, from its decodes and its syndromes ``s_meas``, which are overwritten.

    Row j of ``centre``, (n + 1, 2), holds mode j's principal fit of the
    noiseless syndrome ``values``, and row n zeros.  A DECODED trial's
    deviation is its ``decoded.principal`` less its group's row, and any
    other trial's is 0, as its fit is.  The syndromes' deviations are
    taken from ``values``.  Each deviation is of the size of the noise,
    not of the fit, so the sums of squares keep the spread's digits, which
    sums about zero would lose to a large mean.
    """
    groups = len(centre)
    status = decoded.status
    corrected = status == DECODED
    group = np.where(corrected, decoded.mode_hypothesis - 1, groups - 1)
    d = decoded.principal - centre.take(group, axis=0)
    d[~corrected] = 0.0
    du, dv = d.T
    fits = np.array([np.bincount(group, du, groups), np.bincount(group, dv, groups)])
    squares = np.array([np.bincount(group, du * du, groups), np.bincount(group, du * dv, groups), np.bincount(group, dv * dv, groups)])
    # einsum adds the rows in a third of the time of sum(axis=0) on 1024 rows of 13 columns.
    s_meas -= values
    noise = np.einsum("ij->j", s_meas)
    s_meas *= s_meas
    matched = np.count_nonzero(((status == NO_ERROR) | corrected) & (decoded.mode_hypothesis == error_mode))
    outcomes = np.array([matched, np.count_nonzero(status == AMBIGUOUS), np.count_nonzero(status == UNCORRECTABLE)])
    return _Sums(np.bincount(group, minlength=groups), fits, squares, noise, np.einsum("ij->j", s_meas), outcomes)


def _residual_moments(code: CodeSpec, data: np.ndarray, d: np.ndarray, centre: np.ndarray, sums: _Sums) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance over the trials of the corrected data quadratures, from the groups' sums.

    Trial t leaves the data quadratures at ``d - a_t (p_t b_{n+j} + x_t b_j)``:
    ``b_j`` is column j of the basis's ``data`` rows, (p_t, x_t) the fit of
    the decoded mode j = j_t, and a_t = 1 on DECODED trials and 0 on the
    others.  Grouped by the mode they correct, with n for none, the trials
    of a group share one affine map of their fit, so its count, mean fit and
    centred 2 x 2 scatter give the group's mean and within-group variance in
    every data quadrature.  Each group's sums are taken about its row of
    ``centre`` (`_group_sums`), so its mean fit is that row plus the mean
    deviation, and its centred scatter is the sum of the deviations'
    products less the product of their sums over the count, which loses
    only the digits of the deviations' mean, itself of the size of the
    noise, not of the fit.  The mean is the count-weighted mean
    of the group means, and the variance pools the within-group and
    between-group parts (Chan, Golub and LeVeque, The American
    Statistician 37, 242 (1983)).

    Each part is a sum of non-negative terms, and each mode's fits are
    taken on its plane's principal (p, x) axes, the rows of ``V^T`` in
    `CodeSpec.mode_planes`.  A mode whose syndrome plane has rank 1 fits
    along the first axis only, so a data quadrature that a correction along
    it cannot move, and that no noise reaches, reads 0 to rounding of its
    own size, not of the fits'.  The cost is O(g k) for the g groups that
    hold trials.
    """
    n = code.n
    modes = np.flatnonzero(sums.counts)  # the groups that hold trials; n comes last
    counts = sums.counts[modes]
    fits = sums.fits[:, modes]
    mean_fit = centre[modes].T + fits / counts
    s_uu, s_uv, s_vv = sums.squares[:, modes] - fits[[0, 0, 1]] * fits[[0, 1, 1]] / counts
    # The no-correction group's fits are zeroed, so any mode's axes and columns serve it.
    modes = np.minimum(modes, n - 1)
    axes = code.mode_planes[2][modes]

    # A fit (p, x) on mode j moves the data quadratures by p * b_{n+j} + x * b_j, and (u, v) = axes[j] @ (p, x).
    basis = code.basis[data]
    b_p, b_x = basis[:, n + modes], basis[:, modes]
    b_u = b_p * axes[:, 0, 0] + b_x * axes[:, 0, 1]
    b_v = b_p * axes[:, 1, 0] + b_x * axes[:, 1, 1]
    group_mean = d[:, None] - b_u * mean_fit[0] - b_v * mean_fit[1]
    trials = counts.sum()
    mean = group_mean @ counts / trials
    # b S b^T for each group's scatter S, in its LDL^T form: s_uu (b_u + ratio b_v)^2 + schur b_v^2.
    # A rank-1 plane's spread axis comes first, so its pivot s_uu is the larger one and ratio, which
    # divides by it, stays small.  No spread on the first axis (as in the no-correction group) means
    # s_uv = 0 exactly; a negative pivot or Schur complement is rounding.
    s_uu = np.maximum(s_uu, 0.0)
    ratio = s_uv / np.where(s_uu > 0, s_uu, 1.0)
    schur = np.maximum(s_vv - ratio * s_uv, 0.0)
    within = s_uu * np.square(b_u + ratio * b_v) + schur * np.square(b_v)
    between = np.square(group_mean - mean[:, None]) @ counts
    return mean, (within.sum(axis=1) + between) / trials
