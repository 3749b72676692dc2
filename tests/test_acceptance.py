"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; the random workloads are seeded, so
the suite is deterministic.
"""

import math
import sys
import time
from pathlib import Path

import numpy as np

from cvqec import reference
from cvqec.codes import build_code, canonical_parity_check
from cvqec.compiler import circuit_action, decompose
from cvqec.decoder import decode_single_mode, single_mode_error, syndrome
from cvqec.decomposition import check_rows, code_parameters, symplectic_gram_schmidt
from cvqec.simulator import run_ec_experiment
from cvqec.symplectic import is_symplectic, symplectic_form

from conftest import random_symplectic_from_gates, random_symplectic_from_hamiltonian
from oracle import apply_circuit, circuit_of, displace, h_aug, phase_gate_protocol, phase_gate_trials, phase_x, vacuum

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "chainbench"))
from speed import Calibrator  # noqa: E402


def announce(num, label, passed, detail):
    line = f"{'PASS' if passed else 'FAIL'}  criterion {num} ({label}): {detail}"
    print(line)
    assert passed, line


def best_time(fn, repeats=5):
    out = None
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def test_criterion_1_reference_decomposition():
    rows = reference.raw_parity_rows()
    dec, elapsed = best_time(lambda: symplectic_gram_schmidt(rows))
    n, k, l, c = code_parameters(dec)
    checks, _ = check_rows(n, l, c)
    gram = float(np.max(np.abs(dec.rows @ symplectic_form(n) @ dec.rows.T - symplectic_form(n)[np.ix_(checks, checks)])))
    ok = (c, l, k) == (2, 0, 2) and gram <= 1e-9 and elapsed < 1e-3
    announce(1, "example decomposition", ok, f"(c,l,k)=({c},{l},{k}), gram defect {gram:.2e}, {elapsed * 1e6:.0f} us")


def test_criterion_2_syndrome_tables():
    code = reference.build_example_code()
    rng = np.random.default_rng(2)
    draws = [(mode, rng.normal(), rng.normal()) for mode in range(1, 5) for _ in range(100)]
    errors = [(mode, p, x, single_mode_error(4, mode, p, x)) for mode, p, x in draws]

    def check():
        worst = 0.0
        for mode, p, x, u in errors:
            got = syndrome(code, u)
            worst = max(worst, float(np.max(np.abs(got - reference.syndrome_closed_form(mode, p, x)))))
        return worst

    worst, elapsed = best_time(check, repeats=3)
    ok = worst <= 1e-9 and elapsed < 10e-3
    announce(2, "syndrome tables", ok, f"max deviation {worst:.2e} over 400 draws, {elapsed * 1e3:.1f} ms")


def test_criterion_3_unique_decodability():
    code = reference.build_example_code()
    rng = np.random.default_rng(3)
    count = 10_000
    modes = rng.integers(1, 5, size=count)
    mags = 10.0 ** rng.uniform(-3, 3, size=(count, 2))
    signs = rng.choice([-1.0, 1.0], size=(count, 2))
    vals = mags * signs

    # The budget is in reference seconds: the loop's wall time, less the time
    # spent sampling, scaled by chainbench/speed.py's calibration kernel run
    # before, during and after it, as chainbench/run.py times a step. On a
    # shared host the wall time alone swings with other tenants' load.
    calibrator = Calibrator()
    before = calibrator.probe()
    with calibrator.sampling():
        t0 = time.perf_counter()
        worst_rel = 0.0
        for mode, (p, x) in zip(modes, vals):
            corr = decode_single_mode(code, syndrome(code, single_mode_error(4, int(mode), p, x)))
            assert corr.mode_hypothesis == mode
            worst_rel = max(
                worst_rel,
                abs(corr.u_prime[mode - 1] - p) / abs(p),
                abs(corr.u_prime[4 + mode - 1] - x) / abs(x),
            )
        wall = time.perf_counter() - t0 - calibrator.sampled_s
    elapsed = wall * Calibrator.scale([before, calibrator.probe()] + calibrator.samples)
    ok = worst_rel <= 1e-6 and elapsed < 1.0
    announce(3, "unique decodability", ok, f"10^4 errors, worst rel err {worst_rel:.2e}, 0 ambiguities, {elapsed:.2f} reference s ({wall:.2f} s wall)")


def test_criterion_4_code_construction_contract():
    rng = np.random.default_rng(4)
    t0 = time.perf_counter()
    cases = [reference.raw_parity_rows()]
    while len(cases) < 201:
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 2 * n + 1))
        cases.append(rng.normal(size=(m, 2 * n)))
    worst_map = worst_comm = 0.0
    for rows in cases:
        code = build_code(rows)
        n, c = code.n, code.params.c
        scale = 1.0 + float(np.max(np.abs(code.h)))
        worst_map = max(worst_map, float(np.max(np.abs(code.h @ code.upsilon.T - code.f))) / scale)
        assert is_symplectic(code.upsilon, 1e-9 * scale)
        aug = h_aug(code)
        j = symplectic_form(n + c)
        comm = float(np.max(np.abs(aug @ j @ aug.T), initial=0.0)) / max(1.0, float(np.max(np.abs(aug))) ** 2)
        worst_comm = max(worst_comm, comm)
    elapsed = time.perf_counter() - t0
    ok = worst_map <= 1e-8 and worst_comm <= 1e-9 and elapsed < 5.0
    announce(4, "code construction", ok, f"201 codes, map defect {worst_map:.2e}, commute defect {worst_comm:.2e}, {elapsed:.2f} s")


def test_criterion_5_compiler_soundness():
    rng = np.random.default_rng(5)
    t0 = time.perf_counter()
    worst = 0.0
    count_ok = True
    for trial in range(500):
        n = int(rng.integers(1, 9))
        if trial % 2 == 0:
            a = random_symplectic_from_gates(n, rng, count=50)
        else:
            a = random_symplectic_from_hamiltonian(n, rng)
        circuit, report = decompose(a)
        dev = float(np.max(np.abs(circuit_action(circuit) - a))) / (1.0 + float(np.max(np.abs(a))))
        worst = max(worst, dev)
        count_ok = count_ok and sum(report["gate_counts"].values()) <= 8 * n * n + 8 * n
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and count_ok and elapsed < 30.0
    announce(5, "compiler soundness", ok, f"500 matrices (n<=8), worst rel dev {worst:.2e}, counts bounded, {elapsed:.1f} s")


def test_criterion_6_phase_gate_protocol():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    inp = displace(vacuum(1), [0.7, -0.3])
    ideal = apply_circuit(inp, circuit_of(1, [phase_x(1, 2.0)]))
    trials = 100_000
    means, factor = phase_gate_trials(inp, 1, 1.0, 1.0, 5.0, rng, trials)
    post_var_p = float(factor[1] @ factor[1])
    se = means.std(axis=0, ddof=1) / math.sqrt(trials)
    mean_ok = bool(np.all(np.abs(means.mean(axis=0) - ideal.mean) <= 4.0 * se + 1e-12))
    excess = means[:, 1].var(ddof=1) + post_var_p - ideal.variance(1)
    target = math.exp(-10.0) / 2.0
    var_ok = abs(excess - target) <= 0.2 * target

    out20 = phase_gate_protocol(inp, 1, 1.0, 1.0, 20.0, rng)
    limit_ok = (
        float(np.max(np.abs(out20.mean - ideal.mean))) <= 1e-6
        and float(np.max(np.abs(out20.cov - ideal.cov))) <= 1e-6
    )
    elapsed = time.perf_counter() - t0
    ok = mean_ok and var_ok and limit_ok and elapsed < 60.0
    announce(
        6,
        "phase-gate protocol",
        ok,
        f"mean within 4 sigma, excess var {excess:.3e} vs {target:.3e}, r=20 limit ok, {elapsed:.1f} s",
    )


def test_criterion_7_end_to_end_correction():
    code = reference.build_example_code()
    t0 = time.perf_counter()
    match_ok = residual_ok = True
    details = []
    for mode in range(1, 5):
        stats = run_ec_experiment(code, single_mode_error(4, mode, 0.5, 0.5), r=10.0, trials=1000, seed=700 + mode)
        match_ok = match_ok and stats.mode_match_rate >= 0.99
        sigma = np.sqrt(stats.residual_variance / stats.trials)
        # floor covers quadratures whose residual is deterministic up to
        # double-precision accumulation
        residual_ok = residual_ok and bool(np.all(np.abs(stats.mean_residual) <= 3.0 * sigma + 1e-12))
        details.append(f"mode {mode}: match {stats.mode_match_rate:.3f}")

    logs = []
    grid = [2.0, 3.0, 4.0, 5.0]
    for r in grid:
        stats = run_ec_experiment(code, single_mode_error(4, 1, 3.0, 3.0), r=r, trials=1000, seed=900)
        logs.append(math.log(float(np.mean(stats.excess_variance))))
    slope = float(np.polyfit(grid, logs, 1)[0])
    slope_ok = abs(slope + 2.0) <= 0.2
    elapsed = time.perf_counter() - t0
    ok = match_ok and residual_ok and slope_ok and elapsed < 300.0
    announce(7, "end-to-end correction", ok, f"{'; '.join(details)}; slope {slope:.3f}; {elapsed:.1f} s")


def test_criterion_8_canonical_degeneracy():
    rng = np.random.default_rng(8)
    cases = []
    for _ in range(100):
        n = int(rng.integers(2, 7))
        l = int(rng.integers(1, n))
        c = int(rng.integers(0, n - l + 1))
        k = n - l - c
        code = build_code(canonical_parity_check(n, k, l, c))
        b = np.zeros(2 * n)
        b[c : c + l] = rng.normal(size=l)  # momentum kicks on the ancilla block
        cases.append((code, b))

    def check():
        worst = 0.0
        for code, b in cases:
            worst = max(worst, float(np.max(np.abs(syndrome(code, b)), initial=0.0)))
        return worst

    worst, elapsed = best_time(check, repeats=3)
    ok = worst <= 1e-12 and elapsed < 10e-3
    announce(8, "canonical degeneracy", ok, f"100 codes, max |syndrome| {worst:.1e}, {elapsed * 1e3:.2f} ms")
