import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from cvqec import reference
from cvqec.codes import build_code, canonical_parity_check
from cvqec.compiler import circuit_action, decompose, encoder_quad_action
from cvqec.decoder import decode_single_mode, single_mode_error, syndrome
from cvqec.errors import AmbiguousSyndromeError, DecodeError, DimensionMismatchError, InvalidStateError
from cvqec.simulator import ExperimentStats, GaussianState, apply_symplectic, homodyne, readout_syndromes, run_ec_experiment
from cvqec.symplectic import swap_halves, symplectic_form

from conftest import mixed_code, random_gates
from oracle import (
    apply_circuit,
    balanced_beamsplitter,
    circuit_of,
    displace,
    displace_error,
    epr_pair,
    fourier,
    invert_circuit,
    per_trial_experiment,
    phase_gate_protocol,
    phase_gate_trials,
    phase_x,
    position_squeezed,
    squeeze,
    tensor,
    uncertainty_defect,
    vacuum,
)


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
    for coeffs in ([1, -1, 0, 0], [0, 0, 1, 1]):
        w = np.asarray(coeffs, dtype=float) @ st.factor
        assert float(w @ w) == pytest.approx(math.exp(-2 * r), rel=1e-12)


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
    st = apply_circuit(vacuum(1), circuit_of(1, [squeeze(1, 3.0)]))
    assert st.variance(0) == pytest.approx(9.0 / 2)
    rotated = apply_circuit(position_squeezed(1.0), circuit_of(1, [fourier(1)]))
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
    means, _ = phase_gate_trials(st, 1, 0.0, 1.3, 2.0, rng, trials)
    se = means.std(axis=0, ddof=1) / math.sqrt(trials)
    assert np.all(np.abs(means.mean(axis=0) - st.mean) <= 4 * se + 1e-12)


def test_phase_gate_infinite_squeezing_limit(rng):
    st = displace(vacuum(1), [0.7, -0.3])
    ideal = apply_circuit(st, circuit_of(1, [phase_x(1, 2.0)]))
    out = phase_gate_protocol(st, 1, 1.0, 1.0, 20.0, rng)
    assert np.max(np.abs(out.mean - ideal.mean)) <= 1e-6
    assert np.max(np.abs(out.cov - ideal.cov)) <= 1e-6


def test_phase_gate_statistics_short(rng):
    # Scaled-down version of the acceptance run: mean map and excess noise.
    st = displace(vacuum(1), [0.7, -0.3])
    ideal = apply_circuit(st, circuit_of(1, [phase_x(1, 2.0)]))
    trials = 20_000
    means, factor = phase_gate_trials(st, 1, 1.0, 1.0, 5.0, rng, trials)
    post_var = float(factor[1] @ factor[1])
    se = means.std(axis=0, ddof=1) / math.sqrt(trials)
    assert np.all(np.abs(means.mean(axis=0) - ideal.mean) <= 4.0 * se + 1e-12)
    excess = means[:, 1].var(ddof=1) + post_var - ideal.variance(1)
    assert excess == pytest.approx(math.exp(-10.0) / 2, rel=0.5)


@pytest.mark.parametrize("state, mode", [(displace(vacuum(1), [0.7, -0.3]), 1), (displace(epr_pair(0.5), [0.1, 0.2, 0.3, 0.4]), 2)])
def test_phase_gate_trials_are_the_one_trial_protocol_in_turn(state, mode):
    # One seed gives the same trials bit for bit: the batched call draws the
    # outcomes that the one-trial calls draw in turn, and leaves the
    # generator where they leave it.
    one, many = np.random.default_rng(5), np.random.default_rng(5)
    outs = [phase_gate_protocol(state, mode, 0.8, -1.2, 3.0, one) for _ in range(50)]
    means, factor = phase_gate_trials(state, mode, 0.8, -1.2, 3.0, many, 50)
    assert np.array_equal(means, [out.mean for out in outs])
    assert all(np.array_equal(out.factor, factor) for out in outs)
    assert one.random() == many.random()


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


def test_syndrome_noise_at_r20_follows_chi2():
    # Each row's noise variance times the trial count is chi^2(trials - 1)
    # around e^{-2r}; rounding left by a dense encoder and decoder would
    # read hundreds of times larger at r = 20.
    code = reference.build_example_code()
    trials = 300
    stats = run_ec_experiment(code, single_mode_error(4, 1, 0.5, 0.5), r=20.0, trials=trials, seed=3)
    low, high = chi2.ppf([0.5e-6, 1.0 - 0.5e-6], trials - 1)
    statistic = trials * stats.syndrome_noise_variance / math.exp(-40.0)
    assert np.all((low <= statistic) & (statistic <= high)), statistic


def test_excess_variance_counts_from_the_stored_vacuum():
    # A data quadrature that no noise reaches reads exactly 0, and none reads below it.
    code = build_code(canonical_parity_check(5, 2, 2, 1))
    stats = run_ec_experiment(code, np.zeros(10), r=10.0, trials=50, seed=3)
    assert np.array_equal(stats.excess_variance, np.zeros(4))
    code = reference.build_example_code()
    for r in (10.0, 15.0, 20.0):
        stats = run_ec_experiment(code, single_mode_error(4, 1, 0.5, 0.5), r=r, trials=300, seed=3)
        assert np.all(stats.excess_variance >= 0.0), r


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


@pytest.mark.parametrize("size, cause", [(1e308, "canonical image must be finite"), (1e200, "syndrome norms must be finite")])
def test_experiment_refuses_a_non_finite_result(size, cause):
    # Without the finite checks both ran, and reported NaN figures with a match rate of 1.0.
    # The error is on mode 3, whose basis columns hold entries of 2.1, so that
    # its canonical image overflows at 1e308; on mode 1 the entries are at most 1.
    code = reference.build_example_code()
    with pytest.raises(DimensionMismatchError, match=cause):
        run_ec_experiment(code, single_mode_error(4, 3, size, size), r=5.0, trials=10, seed=1)


@pytest.mark.parametrize("r", [0.0, 3.0, math.inf])
@pytest.mark.parametrize("params", [(4, 2, 0, 2), (5, 2, 2, 1), (3, 1, 2, 0)], ids=["pairs", "mixed", "ancillas"])
def test_readout_is_the_documented_draw(params, r):
    # Entry m - 1 - i is column i of the one draw times the row's standard
    # deviation, bit for bit, and at r = infinity every trial reads the values.
    n, _, l, c = params
    code = build_code(canonical_parity_check(*params))
    m, trials, seed = code.m, 7, 5
    z = np.random.default_rng(seed).standard_normal((trials, m))
    sd = np.full(m, math.exp(-r))
    sd[c : c + l] = math.exp(-r) / math.sqrt(2.0)
    got = readout_syndromes(code, np.zeros(m), r, trials, seed)
    assert got.flags.c_contiguous
    for i in range(m):
        assert np.array_equal(got[:, m - 1 - i], z[:, i] * sd[m - 1 - i]), i
    if r == math.inf:
        values = np.random.default_rng(1).normal(size=m) * 10.0 ** np.arange(m)
        assert np.array_equal(readout_syndromes(code, values, r, trials, seed), np.tile(values, (trials, 1)))


def test_experiment_rejects_multimode_error():
    code = reference.build_example_code()
    with pytest.raises(ValueError):
        run_ec_experiment(code, np.ones(8), r=5.0, trials=1, seed=0)


def test_apply_symplectic_dimension_check():
    with pytest.raises(DimensionMismatchError):
        apply_symplectic(vacuum(2), np.eye(2))


def _embed(a, n, total):
    """An n-mode quadrature action on the first n of `total` modes."""
    rows = np.r_[:n, total : total + n]
    out = np.eye(2 * total)
    out[np.ix_(rows, rows)] = a
    return out


def _readout(a, n, c):
    """The readout beamsplitters on rows of ``a``: a 45 degree rotation of both quadrature planes on every pair (j, n + j).

    Computed row-wise, so equal rows of a pair cancel exactly, which a
    fused multiply-add in a dense product would not give.
    """
    total = n + c
    out = np.array(a, dtype=float)
    s = math.sqrt(0.5)
    for off in (0, total):
        first = off + np.arange(c)
        second = first + n
        out[first] = s * a[first] - s * a[second]
        out[second] = s * a[first] + s * a[second]
    return out


def _resource_state(code, r):
    """The canonical resource from the public states: pairs, ancillas, then data; receiver halves last."""
    n, k, l, c = code.params
    total = n + c
    # tensor order: pair 1 (sender, receiver), ..., pair c, ancillas, data
    parts = [epr_pair(r)] * c + [position_squeezed(r)] * l + ([vacuum(k)] if k else [])
    st = parts[0]
    for part in parts[1:]:
        st = tensor(st, part)
    order = [2 * j for j in range(c)] + list(range(2 * c, 2 * c + l + k)) + [2 * j + 1 for j in range(c)]
    rows = order + [total + o for o in order]
    return GaussianState(n=total, mean=np.zeros(2 * total), factor=st.factor[rows])


def test_resource_reads_out_as_independent_squeezed_quadratures():
    # The fact the closed-form experiment rests on: after the three-QND
    # beamsplitter on every pair, the resource built from the public states
    # is a product of single-mode states.  Every measured quadrature has
    # variance e^{-2r}/2 and every data quadrature the vacuum's 1/2.
    r = 3.0
    for params in [(4, 2, 0, 2), (5, 2, 2, 1), (6, 1, 2, 3)]:
        code = build_code(canonical_parity_check(*params))
        n, _, l, c = code.params
        total = n + c
        gates = sum((balanced_beamsplitter(j + 1, n + j + 1, total).records for j in range(c)), ())
        cov = apply_circuit(_resource_state(code, r), circuit_of(total, gates)).cov
        off_diagonal = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off_diagonal)) <= 1e-12 * np.max(np.abs(cov)), params
        measured = np.r_[: c + l, total + n : 2 * total]
        data = np.r_[c + l : n, total + c + l : total + n]
        squeezed = math.exp(-2 * r) / 2
        assert np.all(np.abs(np.diag(cov)[measured] - squeezed) <= 1e-12 * squeezed), params
        assert np.all(np.abs(np.diag(cov)[data] - 0.5) <= 1e-12 * 0.5), params


def test_channel_actions_match_compiled_circuits(rng):
    # The readout rotation is the three-QND beamsplitters, and the decoder
    # acts on an error as the basis itself, as the compiled inverse circuit does.
    for code in (reference.build_example_code(), _dense_code()):
        n, c = code.n, code.params.c
        total = n + c
        want = np.eye(2 * total)
        for j in range(c):
            want = circuit_action(balanced_beamsplitter(j + 1, n + j + 1, total)) @ want
        assert np.max(np.abs(_readout(np.eye(2 * total), n, c) - want)) <= 1e-12
        circuit, _ = decompose(code)
        inverse = invert_circuit(circuit)
        bound = 1e-12 * np.max(np.abs(circuit_action(circuit))) ** 2
        for mode in range(1, n + 1):
            u = single_mode_error(n, mode, *rng.normal(size=2))
            shifted = apply_circuit(displace_error(vacuum(n), u), inverse).mean
            assert np.max(np.abs(code.basis @ swap_halves(u) - shifted)) <= bound


def _exact_channel(code, r):
    """The code's exact encoder action and its symplectic inverse, with the resource factor at readout.

    The factor skips the encoder and decoder, which cancel on it; carried
    through them it would keep their rounding, which at r = 20 swamps the
    e^{-2r} noise.
    """
    n, _, _, c = code.params
    total = n + c
    enc = _embed(encoder_quad_action(code), n, total)
    j = symplectic_form(total)
    return enc, -j @ enc.T @ j, _readout(_resource_state(code, r).factor, n, c)


def _compiled_channel(code, r):
    """The compiled encoder circuit and its inverse circuit, with the resource carried through both and the readout."""
    n, _, _, c = code.params
    total = n + c
    circuit, _ = decompose(code)
    enc = _embed(circuit_action(circuit), n, total)
    dec = _embed(circuit_action(invert_circuit(circuit)), n, total)
    return enc, dec, _readout(dec @ (enc @ _resource_state(code, r).factor), n, c)


class _ScriptedNormals:
    """Generator stub whose normal(loc, scale) returns loc + scale * z, z from a fixed sequence."""

    def __init__(self, z):
        self._z = iter(z)

    def normal(self, loc, scale):
        return loc + scale * next(self._z)


def _looped_experiment(code, error, trials, seed, enc, dec, factor, decode_tol=0.1):
    """`run_ec_experiment` one trial at a time, through the scalar state API.

    Each trial gives the data modes coherent means from a generator of its
    own, which `run_ec_experiment` does not have, and carries them through
    the dense encoder ``enc``, the error, the dense decoder ``dec`` and the
    readout beamsplitters.  ``factor`` is the covariance factor at
    readout: the channel moves means and factor by separate products, so
    the caller may form it.  Every readout is a `homodyne` call that drops
    the measured mode, driven by z from the documented stream, and the
    excess variance counts from the vacuum variance as `vacuum` stores it.
    """
    n, k, l, c = code.params
    total = n + c
    z = np.random.default_rng(seed).standard_normal((trials, code.m))
    data_means = np.random.default_rng(seed + 1).normal(size=(trials, 2 * k))
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
        st = GaussianState(n=total, mean=_readout(dec @ (enc @ mean + d_error), n, c), factor=factor)
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
        cov_excess[t] = np.einsum("ij,ij->i", st.factor, st.factor) - vacuum(1).variance(0)
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
    return mixed_code(5, 2, 2, 1, seed=51)


EXPERIMENT_CODES = pytest.mark.parametrize(
    "make_code, error",
    [
        (reference.build_example_code, single_mode_error(4, 1, 0.5, 0.5)),
        # ancilla mode: a rank-1 decoding system
        (lambda: build_code(canonical_parity_check(5, 2, 2, 1)), single_mode_error(5, 2, 0.5, 0.5)),
        (_dense_code, single_mode_error(5, 5, 0.5, -0.5)),
        # no entangled pairs
        (lambda: mixed_code(3, 1, 2, 0, seed=55), single_mode_error(3, 1, 0.5, 0.5)),
        # no data modes
        (lambda: mixed_code(4, 0, 2, 2, seed=53), single_mode_error(4, 3, -0.5, 0.5)),
    ],
    ids=["reference", "canonical-5-2-2-1", "dense-5-2-2-1", "dense-3-1-2-0", "dense-4-0-2-2"],
)


def _assert_rates_equal(got, want):
    assert got.trials == want.trials
    assert (got.mode_match_rate, got.ambiguity_rate, got.uncorrectable_rate) == (
        want.mode_match_rate,
        want.ambiguity_rate,
        want.uncorrectable_rate,
    )


@pytest.mark.parametrize("r", [3.0, 20.0])
@EXPERIMENT_CODES
def test_batched_experiment_matches_looped_oracle(make_code, error, r):
    # The oracle's data means pass through the dense encoder and decoder, so
    # agreement shows they cancel.
    code = make_code()
    got = run_ec_experiment(code, error, r=r, trials=200, seed=31)
    want = _looped_experiment(code, error, 200, 31, *_exact_channel(code, r))
    _assert_rates_equal(got, want)
    assert np.all(np.abs(got.mean_residual - want.mean_residual) <= 1e-9 * np.abs(want.mean_residual) + ROUNDING)
    for name in ("residual_variance", "excess_variance", "syndrome_noise_variance"):
        a, b = getattr(got, name), getattr(want, name)
        floor = 2.0 * np.sqrt(np.abs(b)) * ROUNDING + ROUNDING**2
        assert np.all(np.abs(a - b) <= 1e-9 * np.abs(b) + floor), name


@pytest.mark.parametrize("r", [3.0, 10.0])
@EXPERIMENT_CODES
def test_experiment_matches_compiled_encoder(make_code, error, r):
    # The physical channel, a compiled circuit, its inverse circuit and the
    # readout, gives the statistics of the closed-form channel.
    code = make_code()
    got = run_ec_experiment(code, error, r=r, trials=200, seed=31)
    want = _looped_experiment(code, error, 200, 31, *_compiled_channel(code, r))
    _assert_rates_equal(got, want)
    for name in ("mean_residual", "residual_variance", "excess_variance", "syndrome_noise_variance"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.all(np.abs(a - b) <= 1e-9 * np.abs(b) + 1e-12), name


@st.composite
def _experiment_case(draw):
    """A code (canonical checks, or mixed by seeded random gates), a single-mode error and a run."""
    n = draw(st.integers(2, 6))
    c = draw(st.integers(0, n))
    l = draw(st.integers(0 if c else 2, n - c))  # at least two check rows
    mixing = draw(st.none() | st.integers(0, 2**16))  # None: the canonical code, whose ancilla planes have rank 1
    mode = draw(st.integers(1, n))
    p, x = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
    return (n, n - c - l, l, c), mixing, (mode, p, x), draw(st.floats(0.5, 10.0)), draw(st.integers(1, 3000)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(_experiment_case())
# a logical error on the data mode: no syndrome, no correction, a data shift that no noise reaches
@example(((3, 1, 1, 1), None, (3, 0.1, -0.7), 10.0, 3000, 1))
# a dense code at the top of the squeezing range: a noise variance far below the squared means
@example(((5, 2, 2, 1), 51, (5, 0.5, -0.5), 10.0, 2000, 31))
# a mode plane of rank 1 in a mixed code: its fits lie on one axis, which moves one data quadrature not at all
@example(((4, 2, 2, 0), 39757, (1, 0.0, 0.25), 0.5, 3, 17673826))
def test_experiment_statistics_match_per_trial_oracle(case):
    # The per-mode sums give the statistics of the per-trial residual array:
    # on batches that mix DECODED, AMBIGUOUS and UNCORRECTABLE trials, with
    # no data modes, no pairs, or rank-1 ancilla planes.  The floors are
    # those of the looped-oracle test, taken relative to the size of each
    # quadrature's mean where it exceeds 1: a mixed code's data means reach
    # ~60, and the oracle's own variance of a constant column is then the
    # rounding of its mean, ~6e-26.
    params, mixing, (mode, p, x), r, trials, seed = case
    code = build_code(canonical_parity_check(*params)) if mixing is None else mixed_code(*params, seed=mixing)
    error = single_mode_error(params[0], mode, p, x)
    got = run_ec_experiment(code, error, r=r, trials=trials, seed=seed)
    want = per_trial_experiment(code, error, r=r, trials=trials, seed=seed)
    _assert_rates_equal(got, want)
    data_rounding = ROUNDING * np.maximum(1.0, np.abs(want.mean_residual))
    assert np.all(np.abs(got.mean_residual - want.mean_residual) <= 1e-9 * np.abs(want.mean_residual) + data_rounding)
    for name, rounding in (("residual_variance", data_rounding), ("excess_variance", data_rounding), ("syndrome_noise_variance", ROUNDING)):
        a, b = getattr(got, name), getattr(want, name)
        floor = 2.0 * np.sqrt(np.abs(b)) * rounding + rounding**2
        assert np.all(np.abs(a - b) <= 1e-9 * np.abs(b) + floor), name


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the absolute decode tolerance 0.1 calls this error 'none' in every trial")
def test_known_failing_chain_meets_the_decoder_gate():
    # The reference code as the benchmark builds it, from its raw rows; a
    # correct decoder can reach about 0.966 here, and item 1's gate is 0.85.
    code = build_code(reference.raw_parity_rows())
    stats = run_ec_experiment(code, single_mode_error(4, 1, 0.05, 0.05), r=5.0, trials=2000, seed=7)
    assert stats.mode_match_rate >= 0.85
