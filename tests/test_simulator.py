import math

import numpy as np
import pytest

from cvqec import reference
from cvqec.codes import build_code, canonical_parity_check
from cvqec.compiler import Circuit, circuit_action, compile_encoder, fourier, invert_circuit, phase_x, squeeze
from cvqec.decoder import decode_single_mode, single_mode_error, syndrome
from cvqec.errors import AmbiguousSyndromeError, DecodeError, DimensionMismatchError, InvalidStateError
from cvqec import simulator
from cvqec.simulator import (
    ExperimentStats,
    GaussianState,
    _channel_actions,
    _embed_action,
    _resource_factor,
    apply_circuit,
    apply_symplectic,
    balanced_beamsplitter,
    displace,
    displace_error,
    epr_pair,
    homodyne,
    phase_gate_protocol,
    position_squeezed,
    run_ec_experiment,
    tensor,
    uncertainty_defect,
    vacuum,
)
from cvqec.symplectic import swap_halves, symplectic_form

from conftest import random_gates


def test_vacuum_variances():
    st = vacuum(2)
    assert st.variance(0) == pytest.approx(0.5)
    assert st.variance(2) == pytest.approx(0.5)
    assert np.allclose(st.cov, np.eye(4) / 2)


def test_position_squeezed_variances():
    st = position_squeezed(1.3)
    assert st.variance(0) == pytest.approx(math.exp(-2.6) / 2)
    assert st.variance(1) == pytest.approx(math.exp(2.6) / 2)
    with pytest.raises(ValueError):
        position_squeezed(-1.0)


@pytest.mark.parametrize("r", [0.5, 2.0, 10.0, 20.0])
def test_epr_pair_squeezed_combinations(r):
    st = epr_pair(r)
    # Cancellation-free even when e^{2r} dwarfs machine precision of e^{-2r}.
    assert st.combination_variance([1, -1, 0, 0]) == pytest.approx(math.exp(-2 * r), rel=1e-12)
    assert st.combination_variance([0, 0, 1, 1]) == pytest.approx(math.exp(-2 * r), rel=1e-12)


def test_epr_pair_covariance_blocks():
    r = 0.8
    st = epr_pair(r)
    ch, sh = math.cosh(2 * r) / 2, math.sinh(2 * r) / 2
    want = np.array(
        [
            [ch, sh, 0, 0],
            [sh, ch, 0, 0],
            [0, 0, ch, -sh],
            [0, 0, -sh, ch],
        ]
    )
    assert np.allclose(st.cov, want, atol=1e-12)


def test_tensor_block_structure():
    st = tensor(displace(vacuum(1), [1.0, 2.0]), position_squeezed(0.7))
    assert st.n == 2
    assert np.allclose(st.mean, [1.0, 0.0, 2.0, 0.0])
    assert st.variance(1) == pytest.approx(math.exp(-1.4) / 2)


def test_apply_circuit_squeeze_and_fourier():
    st = apply_circuit(vacuum(1), Circuit(1, (squeeze(1, 3.0),)))
    assert st.variance(0) == pytest.approx(9.0 / 2)
    rotated = apply_circuit(position_squeezed(1.0), Circuit(1, (fourier(1),)))
    assert rotated.variance(0) == pytest.approx(math.exp(2.0) / 2)
    assert rotated.variance(1) == pytest.approx(math.exp(-2.0) / 2)


def test_apply_circuit_preserves_purity(rng):
    st = tensor(epr_pair(1.0), position_squeezed(0.5))
    before = np.linalg.det(st.cov)
    st2 = apply_circuit(st, random_gates(3, 15, rng))
    assert np.linalg.det(st2.cov) == pytest.approx(before, rel=1e-9)


def test_apply_circuit_matches_dense_action(rng):
    st = displace(tensor(epr_pair(1.0), position_squeezed(0.5)), rng.normal(size=6))
    circuit = random_gates(3, 25, rng)
    mean, factor = st.mean.copy(), st.factor.copy()
    got = apply_circuit(st, circuit)
    assert np.array_equal(st.mean, mean) and np.array_equal(st.factor, factor)  # the input is left alone
    want = apply_symplectic(st, circuit_action(circuit))
    scale = float(np.max(np.abs(circuit_action(circuit))))
    assert np.max(np.abs(got.mean - want.mean)) <= 1e-12 * scale * (1.0 + np.max(np.abs(st.mean)))
    assert np.max(np.abs(got.factor - want.factor)) <= 1e-12 * scale * np.max(np.abs(st.factor))


def test_uncertainty_after_random_ops(rng):
    st = tensor(epr_pair(1.5), vacuum(1))
    st = apply_circuit(st, random_gates(3, 20, rng))
    scale = max(1.0, float(np.max(np.abs(st.cov))))
    assert uncertainty_defect(st) >= -1e-9 * scale


def test_displace_adds_and_composes():
    st = displace(vacuum(2), [0.0, 0.0, 0.0, 0.0])
    assert np.array_equal(st.mean, np.zeros(4))
    st = displace(st, [1.0, 0.0, 0.0, 0.0])
    st = displace(st, [0.5, 0.0, -1.0, 0.0])
    assert np.allclose(st.mean, [1.5, 0.0, -1.0, 0.0])
    assert np.allclose(st.cov, np.eye(4) / 2)


def test_displace_error_uses_phase_convention():
    # phase vector (p | x): x-components shift positions, p-components momenta
    st = displace_error(vacuum(1), [2.0, 3.0])
    assert np.allclose(st.mean, [3.0, 2.0])


def test_homodyne_statistics(rng):
    outcomes = np.array([homodyne(vacuum(1), 1, "x", rng).outcome for _ in range(100_000)])
    z_mean = outcomes.mean() / math.sqrt(0.5 / len(outcomes))
    assert abs(z_mean) < 4.0
    var = outcomes.var()
    se_var = 0.5 * math.sqrt(2.0 / len(outcomes))
    assert abs(var - 0.5) < 4.0 * se_var


def test_homodyne_product_state_posterior_untouched(rng):
    st = tensor(displace(vacuum(1), [0.3, -0.2]), vacuum(1))
    rec = homodyne(st, 2, "p", rng)
    assert rec.posterior.n == 1
    assert np.allclose(rec.posterior.mean, [0.3, -0.2])
    assert np.allclose(rec.posterior.cov, np.eye(2) / 2)


def test_homodyne_epr_conditioning_matches_schur_oracle(rng):
    r = 1.2
    st = displace(epr_pair(r), [0.4, 0.0, 0.0, -0.1])
    rec = homodyne(st, 1, "x", rng)
    cov = st.cov
    # dense-covariance Schur complement, computed independently
    q = 0
    keep = [1, 2, 3]
    gain = cov[keep, q] / cov[q, q]
    want_mean = st.mean[keep] + gain * (rec.outcome - st.mean[q])
    want_cov = cov[np.ix_(keep, keep)] - np.outer(gain, cov[q, keep])
    got_mean = rec.posterior.mean
    got_cov = rec.posterior.cov
    # posterior keeps rows (x_B, p_B) after dropping the measured mode
    assert got_mean[0] == pytest.approx(want_mean[0], abs=1e-12)
    assert got_mean[1] == pytest.approx(want_mean[2], abs=1e-12)
    assert got_cov[0, 0] == pytest.approx(want_cov[0, 0], abs=1e-12)
    assert got_cov[1, 1] == pytest.approx(want_cov[2, 2], abs=1e-12)


def test_homodyne_epr_pointer_limit(rng):
    # At large squeezing the partner position locks to the measured value.
    r = 8.0
    for _ in range(5):
        rec = homodyne(epr_pair(r), 1, "x", rng)
        v = rec.outcome
        assert abs(rec.posterior.mean[0] - v) <= math.exp(-2 * r) * abs(v) + 1e-12


def test_homodyne_rejects_degenerate_quadrature():
    st = vacuum(1)
    broken = type(st)(n=1, mean=st.mean, factor=np.zeros((2, 2)))
    with pytest.raises(InvalidStateError):
        homodyne(broken, 1, "x", np.random.default_rng(0))


def test_balanced_beamsplitter_action():
    s = 1 / math.sqrt(2)
    want = np.array([[s, -s, 0, 0], [s, s, 0, 0], [0, 0, s, -s], [0, 0, s, s]])
    assert np.max(np.abs(circuit_action(balanced_beamsplitter(1, 2, 2)) - want)) <= 1e-12


def test_phase_gate_noop_when_uncoupled(rng):
    # g2 = 0: the feedforward undoes the only coupling, state exactly unchanged
    st = displace(vacuum(1), [0.4, 0.9])
    out = phase_gate_protocol(st, 1, 1.3, 0.0, 2.0, rng)
    assert np.allclose(out.mean, st.mean, atol=1e-12)
    assert np.allclose(out.cov, st.cov, atol=1e-12)
    # g1 = 0: momentum only gains the readout noise term; on average the
    # mean map is the identity (per-trial means jitter with the outcome)
    trials = 4000
    means = np.array([phase_gate_protocol(st, 1, 0.0, 1.3, 2.0, rng).mean for _ in range(trials)])
    se = means.std(axis=0, ddof=1) / math.sqrt(trials)
    assert np.all(np.abs(means.mean(axis=0) - st.mean) <= 4 * se + 1e-12)


def test_phase_gate_infinite_squeezing_limit(rng):
    st = displace(vacuum(1), [0.7, -0.3])
    ideal = apply_circuit(st, Circuit(1, (phase_x(1, 2.0),)))
    out = phase_gate_protocol(st, 1, 1.0, 1.0, 20.0, rng)
    assert np.max(np.abs(out.mean - ideal.mean)) <= 1e-6
    assert np.max(np.abs(out.cov - ideal.cov)) <= 1e-6


def test_phase_gate_statistics_short(rng):
    # Scaled-down version of the acceptance run: mean map and excess noise.
    st = displace(vacuum(1), [0.7, -0.3])
    ideal = apply_circuit(st, Circuit(1, (phase_x(1, 2.0),)))
    trials = 20_000
    means = np.zeros((trials, 2))
    post_var = None
    for t in range(trials):
        out = phase_gate_protocol(st, 1, 1.0, 1.0, 5.0, rng)
        means[t] = out.mean
        if post_var is None:
            post_var = out.variance(1)
    se = means.std(axis=0, ddof=1) / math.sqrt(trials)
    assert np.all(np.abs(means.mean(axis=0) - ideal.mean) <= 4.0 * se + 1e-12)
    excess = means[:, 1].var(ddof=1) + post_var - ideal.variance(1)
    assert excess == pytest.approx(math.exp(-10.0) / 2, rel=0.5)


def test_stabilizer_observables_quiet_on_encoded_state():
    # Canonical resource state: every augmented check observable has
    # variance at most 2 e^{-2r}.
    params = (3, 1, 1, 1)
    code = build_code(canonical_parity_check(*params))
    r = 10.0
    stats = run_ec_experiment(code, np.zeros(6), r=r, trials=8, seed=11)
    assert np.max(stats.syndrome_noise_variance) <= 2 * math.exp(-2 * r)


def test_experiment_zero_error(rng):
    code = reference.build_example_code()
    stats = run_ec_experiment(code, np.zeros(8), r=20.0, trials=200, seed=3)
    assert np.max(np.abs(stats.mean_residual)) <= 1e-4
    assert np.max(stats.excess_variance) <= 10 * math.exp(-40.0) + 1e-10


def test_experiment_decodes_injected_mode():
    code = reference.build_example_code()
    stats = run_ec_experiment(code, single_mode_error(4, 1, 0.5, 0.5), r=10.0, trials=300, seed=42)
    assert stats.mode_match_rate >= 0.99
    assert stats.ambiguity_rate == 0.0


def test_experiment_measured_syndromes_match_ideal():
    code = reference.build_example_code()
    err = single_mode_error(4, 2, 0.4, -0.7)
    stats = run_ec_experiment(code, err, r=10.0, trials=100, seed=9)
    # noise around the ideal syndrome at the squeezing scale, no bias
    assert np.max(stats.syndrome_noise_variance) <= 4 * math.exp(-20.0)


def test_experiment_excess_variance_scaling():
    code = reference.build_example_code()
    logs = []
    grid = [2.0, 3.0, 4.0]
    for r in grid:
        stats = run_ec_experiment(code, single_mode_error(4, 1, 3.0, 3.0), r=r, trials=300, seed=77)
        logs.append(math.log(float(np.mean(stats.excess_variance))))
    slope = np.polyfit(grid, logs, 1)[0]
    assert slope == pytest.approx(-2.0, abs=0.2)


def test_experiment_deterministic():
    code = reference.build_example_code()
    err = single_mode_error(4, 3, 0.5, 0.5)
    a = run_ec_experiment(code, err, r=6.0, trials=50, seed=123)
    b = run_ec_experiment(code, err, r=6.0, trials=50, seed=123)
    assert np.array_equal(a.mean_residual, b.mean_residual)
    assert np.array_equal(a.excess_variance, b.excess_variance)
    assert np.array_equal(a.syndrome_noise_variance, b.syndrome_noise_variance)
    assert a.mode_match_rate == b.mode_match_rate


def test_experiment_rejects_multimode_error():
    code = reference.build_example_code()
    with pytest.raises(ValueError):
        run_ec_experiment(code, np.ones(8), r=5.0, trials=1, seed=0)


def test_apply_symplectic_dimension_check():
    with pytest.raises(DimensionMismatchError):
        apply_symplectic(vacuum(2), np.eye(2))


def test_channel_actions_match_compiled_circuits():
    # Closed-form readout against the three-QND beamsplitters, and the
    # symplectic-inverse decoder against the compiled inverse circuit.
    code = reference.build_example_code()
    n, c = code.n, code.params.c
    total = n + c
    enc, dec, readout = _channel_actions(code)
    want = np.eye(2 * total)
    for j in range(c):
        want = circuit_action(balanced_beamsplitter(j + 1, n + j + 1, total)) @ want
    assert np.max(np.abs(readout - want)) <= 1e-12
    inverse = _embed_action(circuit_action(invert_circuit(compile_encoder(code))), n, total)
    assert np.max(np.abs(dec - inverse)) <= 1e-12 * np.max(np.abs(enc)) ** 2
    assert np.max(np.abs(dec @ enc - np.eye(2 * total))) <= 1e-12 * np.max(np.abs(enc)) ** 2


class _ScriptedNormals:
    """Generator stub whose normal(loc, scale) returns loc + scale * z, z from a fixed sequence."""

    def __init__(self, z):
        self._z = iter(z)

    def normal(self, loc, scale):
        return loc + scale * next(self._z)


def _looped_experiment(code, error, r, trials, seed, decode_tol=0.1, coherent_scale=1.0):
    """`run_ec_experiment` one trial at a time, through the scalar state API.

    Each trial evolves its own `GaussianState`, and every readout is a
    `homodyne` call that drops the measured mode; the randomness follows
    the documented stream.
    """
    n, k, l, c = code.params
    total = n + c
    rng = np.random.default_rng(seed)
    data_means = rng.normal(0.0, coherent_scale, size=(trials, 2 * k))
    z = rng.standard_normal((trials, code.m))
    enc, dec, readout = _channel_actions(code)
    factor = _resource_factor(code, r)
    data_rows = np.r_[c + l : n, total + c + l : total + n]
    d_error = np.zeros(2 * total)
    d_error[:n] = error[n:]
    d_error[total : total + n] = error[:n]
    targets = [(n + j, "p") for j in range(c)] + [(c + i, "x") for i in range(l)] + [(j, "x") for j in range(c)]
    targets.sort(key=lambda item: -item[0])
    support = {i % n for i in np.nonzero(error)[0]}
    error_mode = support.pop() + 1 if support else None

    residuals = np.zeros((trials, 2 * k))
    cov_excess = np.zeros((trials, 2 * k))
    noise = np.zeros((trials, code.m))
    matches = ambiguous = uncorrectable = 0
    for t in range(trials):
        mean = np.zeros(2 * total)
        mean[data_rows] = data_means[t]
        st = apply_symplectic(GaussianState(n=total, mean=mean, factor=factor), enc)
        st = apply_symplectic(apply_symplectic(displace(st, d_error), dec), readout)
        gen = _ScriptedNormals(z[t])
        values = {}
        live = list(range(total))
        for orig, quad in targets:
            rec = homodyne(st, live.index(orig) + 1, quad, gen)
            values[orig] = rec.outcome
            st = rec.posterior
            live.remove(orig)
        s = np.zeros(code.m)
        for j in range(c):
            s[j] = math.sqrt(2.0) * values[j]
            s[c + l + j] = math.sqrt(2.0) * values[n + j]
        for i in range(l):
            s[c + i] = values[c + i]
        noise[t] = s - syndrome(code, error)
        u_prime = np.zeros(2 * n)
        try:
            corr = decode_single_mode(code, s, tol=decode_tol)
            u_prime = corr.u_prime
            matches += corr.mode_hypothesis == error_mode
        except AmbiguousSyndromeError:
            ambiguous += 1
        except DecodeError:
            uncorrectable += 1
        d_corr = code.basis @ swap_halves(u_prime)
        st = displace(st, -np.concatenate([d_corr[c + l : n], d_corr[n + c + l :]]))
        residuals[t] = st.mean - data_means[t]
        cov_excess[t] = np.einsum("ij,ij->i", st.factor, st.factor) - 0.5
    return ExperimentStats(
        trials=trials,
        mean_residual=residuals.mean(axis=0),
        residual_variance=residuals.var(axis=0),
        excess_variance=residuals.var(axis=0) + cov_excess.mean(axis=0),
        syndrome_noise_variance=noise.var(axis=0),
        mode_match_rate=matches / trials,
        ambiguity_rate=ambiguous / trials,
        uncorrectable_rate=uncorrectable / trials,
    )


# The batched path forms its sums in another order (matrix products over
# all trials), so it agrees with the loop to 1e-9 relative above a
# rounding floor: ROUNDING on first moments of the O(1) means, and
# 2 sqrt(var) ROUNDING on variances.  At r = 20 the moments themselves
# lie near double-precision rounding of the means, where only the floor
# can hold; a wrong draw, gain or correction there still misses by
# orders of magnitude more.
ROUNDING = 1e-13


def _dense_code():
    """The canonical (5,2,2,1) checks carried through a seeded random symplectic map."""
    mixing = random_gates(5, 20, np.random.default_rng(51))
    return build_code(canonical_parity_check(5, 2, 2, 1) @ circuit_action(mixing).T)


EXPERIMENT_CODES = pytest.mark.parametrize(
    "make_code, error",
    [
        (reference.build_example_code, single_mode_error(4, 1, 0.5, 0.5)),
        # ancilla mode: a rank-1 decoding system
        (lambda: build_code(canonical_parity_check(5, 2, 2, 1)), single_mode_error(5, 2, 0.5, 0.5)),
        (_dense_code, single_mode_error(5, 5, 0.5, -0.5)),
    ],
    ids=["reference", "canonical-5-2-2-1", "dense-5-2-2-1"],
)


@pytest.mark.parametrize("r", [3.0, 20.0])
@EXPERIMENT_CODES
def test_batched_experiment_matches_looped_oracle(make_code, error, r):
    code = make_code()
    got = run_ec_experiment(code, error, r=r, trials=200, seed=31)
    want = _looped_experiment(code, error, r=r, trials=200, seed=31)
    assert got.trials == want.trials
    assert (got.mode_match_rate, got.ambiguity_rate, got.uncorrectable_rate) == (
        want.mode_match_rate,
        want.ambiguity_rate,
        want.uncorrectable_rate,
    )
    assert np.all(np.abs(got.mean_residual - want.mean_residual) <= 1e-9 * np.abs(want.mean_residual) + ROUNDING)
    for name in ("residual_variance", "excess_variance", "syndrome_noise_variance"):
        a, b = getattr(got, name), getattr(want, name)
        floor = 2.0 * np.sqrt(np.abs(b)) * ROUNDING + ROUNDING**2
        assert np.all(np.abs(a - b) <= 1e-9 * np.abs(b) + floor), name


def _compiled_channel_actions(code):
    """`_channel_actions` with the encoder taken from the compiled circuit's action."""
    n, _, _, c = code.params
    total = n + c
    enc = _embed_action(circuit_action(compile_encoder(code)), n, total)
    j = symplectic_form(total)
    _, _, readout = _channel_actions(code)
    return enc, -j @ enc.T @ j, readout


@pytest.mark.parametrize("r", [3.0, 10.0])
@EXPERIMENT_CODES
def test_experiment_matches_compiled_encoder(monkeypatch, make_code, error, r):
    # The decoder undoes the encoder on the covariance, so the code's exact
    # encoder action and its compiled circuit give the same channel.
    code = make_code()
    got = run_ec_experiment(code, error, r=r, trials=200, seed=31)
    monkeypatch.setattr(simulator, "_channel_actions", _compiled_channel_actions)
    want = run_ec_experiment(code, error, r=r, trials=200, seed=31)
    assert (got.mode_match_rate, got.ambiguity_rate, got.uncorrectable_rate) == (
        want.mode_match_rate,
        want.ambiguity_rate,
        want.uncorrectable_rate,
    )
    for name in ("mean_residual", "residual_variance", "excess_variance", "syndrome_noise_variance"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.all(np.abs(a - b) <= 1e-9 * np.abs(b) + 1e-12), name
