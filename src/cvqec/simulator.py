"""Gaussian-state simulation of encoding, homodyne readout, and correction.

States live in quadrature ordering (x_1..x_n, p_1..p_n) with hbar = 1
and vacuum variance 1/2 per quadrature.  The covariance matrix is kept
in factored form, cov = S S^T: symplectic evolution multiplies the
factor, and homodyne conditioning is a rank-one projection of it.  The
factorization is what keeps strongly squeezed combinations (variance
e^{-2r} sitting next to e^{+2r} partners) meaningful in double
precision; the dense covariance is always available as a property.

Displacement errors labelled by phase vectors (p | x) shift position
means by the x-components and momentum means by the p-components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import CodeSpec
from .compiler import Circuit, apply_gates, fourier, qnd_p, qnd_x
from .decoder import AMBIGUOUS, DECODED, NO_ERROR, UNCORRECTABLE, decode_batch, syndrome
from .decomposition import check_rows
from .errors import DimensionMismatchError, InvalidStateError
from .symplectic import swap_halves, symplectic_form


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


def vacuum(n: int) -> GaussianState:
    """n-mode vacuum: zero means, variance 1/2 per quadrature."""
    return GaussianState(n=n, mean=np.zeros(2 * n), factor=np.eye(2 * n) / math.sqrt(2.0))


def position_squeezed(r: float) -> GaussianState:
    """Single mode with var(x) = e^{-2r}/2 and var(p) = e^{2r}/2."""
    if r < 0:
        raise ValueError(f"squeezing parameter must be >= 0, got {r}")
    f = np.diag([math.exp(-r), math.exp(r)]) / math.sqrt(2.0)
    return GaussianState(n=1, mean=np.zeros(2), factor=f)


def epr_pair(r: float) -> GaussianState:
    """Two-mode squeezed vacuum approximating the ideal entangled resource.

    Built as one p-squeezed and one x-squeezed mode on a balanced
    beamsplitter, which gives the standard covariance (x-block
    cosh(2r)/2 with +sinh(2r)/2 off-diagonal, p-block with the opposite
    sign) while keeping var(x_A - x_B) = var(p_A + p_B) = e^{-2r} exact
    in the factor.
    """
    if r < 0:
        raise ValueError(f"squeezing parameter must be >= 0, got {r}")
    s = 1.0 / math.sqrt(2.0)
    rot = np.array(
        [
            [s, -s, 0.0, 0.0],
            [s, s, 0.0, 0.0],
            [0.0, 0.0, s, -s],
            [0.0, 0.0, s, s],
        ]
    )
    half = np.diag([math.exp(r), math.exp(-r), math.exp(-r), math.exp(r)]) / math.sqrt(2.0)
    return GaussianState(n=2, mean=np.zeros(4), factor=rot @ half)


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    """Product state of two registers, second appended after the first."""
    n = a.n + b.n
    mean = np.concatenate([a.mean[: a.n], b.mean[: b.n], a.mean[a.n :], b.mean[b.n :]])
    ka, kb = a.factor.shape[1], b.factor.shape[1]
    factor = np.zeros((2 * n, ka + kb))
    factor[: a.n, :ka] = a.factor[: a.n]
    factor[a.n : n, ka:] = b.factor[: b.n]
    factor[n : n + a.n, :ka] = a.factor[a.n :]
    factor[n + a.n :, ka:] = b.factor[b.n :]
    return GaussianState(n=n, mean=mean, factor=factor)


def apply_symplectic(state: GaussianState, a: np.ndarray) -> GaussianState:
    """Evolve by a quadrature action: mean -> A mean, cov -> A cov A^T."""
    a = np.asarray(a, dtype=float)
    if a.shape != (2 * state.n, 2 * state.n):
        raise DimensionMismatchError(f"action shape {a.shape} does not fit {state.n} modes")
    return GaussianState(n=state.n, mean=a @ state.mean, factor=a @ state.factor)


def apply_circuit(state: GaussianState, circuit: Circuit) -> GaussianState:
    """Apply a gate sequence (first gate first) to mean and factor, run by run through `apply_gates`."""
    if circuit.n != state.n:
        raise DimensionMismatchError(f"circuit is on {circuit.n} modes, state has {state.n}")
    work = np.column_stack((state.mean, state.factor))
    apply_gates(work, circuit.records)
    return GaussianState(n=state.n, mean=work[:, 0].copy(), factor=work[:, 1:])


def displace(state: GaussianState, d) -> GaussianState:
    """Shift the means by d (quadrature ordering); covariance is untouched."""
    d = np.asarray(d, dtype=float)
    if d.shape != (2 * state.n,):
        raise DimensionMismatchError(f"displacement shape {d.shape} does not fit {state.n} modes")
    return GaussianState(n=state.n, mean=state.mean + d, factor=state.factor)


def displace_error(state: GaussianState, u) -> GaussianState:
    """Apply a displacement labelled by a phase vector (p | x)."""
    return displace(state, swap_halves(u))


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


def uncertainty_defect(state: GaussianState) -> float:
    """Most negative eigenvalue of cov + i J / 2 (0 for physical states)."""
    eigs = np.linalg.eigvalsh(state.cov + 0.5j * symplectic_form(state.n))
    return float(min(np.min(eigs), 0.0))


def phase_gate_protocol(
    state: GaussianState,
    mode: int,
    g1: float,
    g2: float,
    r: float,
    rng: np.random.Generator,
) -> GaussianState:
    """Measurement-based position phase gate of strength 2 g1 g2 on one mode.

    An ancilla squeezed in position by r is coupled to the target with a
    position QND gate of strength g1, Fourier-rotated, coupled back with
    a momentum QND gate of strength g2, and read out in position; the
    outcome feeds forward as a momentum displacement of -g1 times the
    result on the target.  In the infinite-squeezing limit the target is
    left with x -> x, p -> p + 2 g1 g2 x; at finite r the momentum picks
    up additive noise of variance g2^2 e^{-2r} / 2 from the leftover
    ancilla quadrature.
    """
    if not 1 <= mode <= state.n:
        raise DimensionMismatchError(f"mode {mode} out of range 1..{state.n}")
    if r < 0:
        raise ValueError(f"squeezing parameter must be >= 0, got {r}")
    n = state.n
    st = tensor(state, position_squeezed(r))
    anc = n + 1
    st = apply_circuit(
        st,
        Circuit(n=anc, records=(qnd_x(mode, anc, g1), fourier(anc), qnd_p(anc, mode, g2))),
    )
    rec = homodyne(st, anc, "x", rng)
    st = rec.posterior
    d = np.zeros(2 * n)
    d[n + mode - 1] = -g1 * rec.outcome
    return displace(st, d)


def balanced_beamsplitter(m1: int, m2: int, n: int) -> Circuit:
    """Exact 50:50 beamsplitter between two modes, built from three QND gates.

    Its action rotates both quadrature planes by 45 degrees:
    x_1 -> (x_1 - x_2)/sqrt(2), x_2 -> (x_1 + x_2)/sqrt(2), same for p.
    Used to turn the relative-position / total-momentum observables of an
    entangled pair into single-mode homodyne targets.
    """
    t = math.tan(math.pi / 8.0)
    s = math.sin(math.pi / 4.0)
    return Circuit(n=n, records=(qnd_p(m1, m2, t), qnd_x(m1, m2, s), qnd_p(m1, m2, t)))


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


# Standard deviation of a vacuum quadrature, as `vacuum` stores it.
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
