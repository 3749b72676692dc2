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
from dataclasses import dataclass

import numpy as np

from .codes import CodeSpec
from .decoder import AMBIGUOUS, DECODED, NO_ERROR, UNCORRECTABLE, decode_batch, syndrome
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
        return {
            "trials": self.trials,
            "mean_residual": self.mean_residual.tolist(),
            "residual_variance": self.residual_variance.tolist(),
            "excess_variance": self.excess_variance.tolist(),
            "syndrome_noise_variance": self.syndrome_noise_variance.tolist(),
            "mode_match_rate": self.mode_match_rate,
            "ambiguity_rate": self.ambiguity_rate,
            "uncorrectable_rate": self.uncorrectable_rate,
        }


# Standard deviation of a vacuum quadrature (variance 1/2).
_VACUUM_SD = 1.0 / math.sqrt(2.0)

# Residual tolerance handed to the decoder: absolute, and generous because
# measured syndromes carry finite-squeezing noise.  ROADMAP item 1 replaces
# it with a threshold calibrated to that noise.
_DECODE_TOL = 0.1


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
    e^{-r}/sqrt(2); a pair's value enters the beamsplitter scaled by
    sqrt(1/2) and its outcome is read back scaled by sqrt(2).  The data
    modes take the same shift in every trial and no noise: their means
    would pass through unchanged and cancel, so none are drawn, and they
    keep the vacuum covariance exactly.

    Decode failures are counted, never raised; a failed trial applies no
    correction.  Randomness comes from ``np.random.default_rng(seed)``,
    which draws one (trials, m) array z of standard normals and nothing
    else.  Column i of z drives the i-th readout, and the readouts run in
    this order: receiver momenta of the entangled pairs from the last pair
    to the first, ancilla positions from the last to the first, then
    sender positions from the last pair to the first, so readout i gives
    syndrome entry m - 1 - i.  Trial t's outcome of a readout with mean mu
    is ``mu + e^{-r}/sqrt(2) z[t, i]``.  A fixed seed gives bit-identical
    results.

    Args:
        code: a built code.
        error: phase vector supported on at most one mode.
        r: resource squeezing parameter (>= 0; infinity reads without noise).
        trials: number of Monte-Carlo runs (>= 1).
        seed: seed of the random stream (non-negative).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if not r >= 0:  # written so that NaN fails too
        raise ValueError(f"squeezing parameter must be >= 0, got {r}")
    n, _, l, c = code.params
    m = code.m
    error = np.asarray(error, dtype=float)
    if error.shape != (2 * n,):
        raise DimensionMismatchError(f"error must have length {2 * n}")
    support = {i % n for i in np.nonzero(error)[0]}
    if len(support) > 1:
        raise ValueError("the experiment injects single-mode errors only")
    error_mode = (support.pop() + 1) if support else 0

    # Check values in syndrome order (sender positions of the pairs,
    # ancilla positions, pair momenta), each pair's scaled as it leaves the
    # readout beamsplitter.
    checks, data = check_rows(n, l, c)
    shift = code.basis @ swap_halves(error)
    pairs = np.r_[:c, c + l : m]
    value = shift[checks]
    value[pairs] *= math.sqrt(0.5)
    s_meas = np.random.default_rng(seed).standard_normal((trials, m))[:, ::-1]  # readout i -> entry m - 1 - i
    s_meas = s_meas * (math.exp(-r) * _VACUUM_SD)
    s_meas += value
    s_meas[:, pairs] *= math.sqrt(2.0)

    # A decoded shift (p, x) on mode j displaces the canonical frame by
    # p * basis[:, n + j] + x * basis[:, j]; only the data rows matter.
    residuals = np.tile(shift[data], (trials, 1))
    decoded = decode_batch(code, s_meas, tol=_DECODE_TOL)
    shift = decoded.shift * (decoded.status == DECODED)[:, None]
    j = np.maximum(decoded.mode_hypothesis - 1, 0)
    data_basis = code.basis[data].T
    for column, size in ((n + j, shift[:, :1]), (j, shift[:, 1:])):  # in place: one temporary
        step = data_basis[column]
        step *= size
        residuals -= step
    residual_variance = residuals.var(axis=0)
    matched = np.isin(decoded.status, (NO_ERROR, DECODED)) & (decoded.mode_hypothesis == error_mode)
    return ExperimentStats(
        trials=trials,
        mean_residual=residuals.mean(axis=0),
        residual_variance=residual_variance,
        excess_variance=residual_variance,
        syndrome_noise_variance=(s_meas - syndrome(code, error)).var(axis=0),
        mode_match_rate=int(np.count_nonzero(matched)) / trials,
        ambiguity_rate=int(np.count_nonzero(decoded.status == AMBIGUOUS)) / trials,
        uncorrectable_rate=int(np.count_nonzero(decoded.status == UNCORRECTABLE)) / trials,
    )
