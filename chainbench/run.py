"""End-to-end benchmark of the cvqec chain build -> compile -> verify -> simulate.

Run from the repository root, with the BLAS thread count pinned:

    env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python3 chainbench/run.py --workload reference-mc --seed 1 --seconds 30 --trace 0

One process runs whole rounds of the workload's operations through
``cvqec.cli.main`` until ``--seconds`` have passed, checks every output
against the oracles in ``oracles.py``, and prints one JSON object as its
last line. Times are in reference seconds (see ``speed.py``).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` traces every
other operation, reports the per-layer metrics of the traced ones, and
prints each layer's total and self time and the tracing overhead. See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import oracles
import workloads
from speed import Calibrator

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".chainbench_out")

SETUP_REPEATS = 7
# Chance that a correct program fails a run's statistical checks, split
# evenly (Bonferroni) over every test the run makes.
RUN_FALSE_ALARM = 1e-6
MIN_MATCH_RATE = 0.99
SWEEP_SLOPE = (-2.0, 0.2)
MAP_RTOL = 1e-8
SYMPLECTIC_RTOL = 1e-8
ROUNDING = 1e-12

# (name, unit, better) of every metric, as BENCHMARK.json lists them.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("chain_s", "s", "lower"),
    ("prepare_s", "s", "lower"),
    ("trials_per_s", "1/s", "higher"),
    ("gate_count", "gates", "lower"),
    ("squeezing_db", "dB", "lower"),
    ("max_gate_param", "1", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
PER_LAYER = (
    ("cli.build_s", "s", "lower"),
    ("cli.compile_s", "s", "lower"),
    ("cli.verify_s", "s", "lower"),
    ("cli.simulate_s", "s", "lower"),
    ("cli.file_bytes", "B", "lower"),
    ("codes.build_code_s", "s", "lower"),
    ("codes.load_code_s", "s", "lower"),
    ("codes.load_code_calls", "count", "lower"),
    ("codes.verify_code_s", "s", "lower"),
    ("decomposition.gram_schmidt_s", "s", "lower"),
    ("decomposition.complete_basis_s", "s", "lower"),
    ("symplectic.require_symplectic_calls", "count", "lower"),
    ("symplectic.require_symplectic_s", "s", "lower"),
    ("compiler.decompose_s", "s", "lower"),
    ("compiler.decompose_calls", "count", "lower"),
    ("compiler.circuit_action_s", "s", "lower"),
    ("compiler.circuit_action_calls", "count", "lower"),
    ("compiler.gate_action_calls", "count", "lower"),
    ("compiler.gates_emitted", "count", "lower"),
    ("simulator.run_ec_experiment_s", "s", "lower"),
    ("simulator.self_s", "s", "lower"),
    ("simulator.homodyne_calls", "count", "lower"),
    ("simulator.homodyne_s", "s", "lower"),
    ("simulator.apply_symplectic_calls", "count", "lower"),
    ("simulator.apply_symplectic_s", "s", "lower"),
    ("decoder.decode_calls", "count", "lower"),
    ("decoder.decode_s", "s", "lower"),
    ("decoder.match", "count", "higher"),
    ("decoder.none", "count", "lower"),
    ("decoder.ambiguous", "count", "lower"),
    ("decoder.uncorrectable", "count", "lower"),
    ("decoder.match_ratio", "1", "higher"),
)


def import_cli():
    """Import cvqec from this checkout's src/ and return its CLI module."""
    if not os.path.isfile(os.path.join(SRC, "cvqec", "__init__.py")):
        raise SystemExit(f"chainbench: no cvqec package under {SRC}")
    sys.path.insert(0, SRC)
    import cvqec.cli

    if not os.path.abspath(cvqec.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"chainbench: cvqec was imported from {cvqec.__file__}, not {SRC}")
    return cvqec.cli


def measure_setup(args, work: str, calibrator: Calibrator) -> float:
    """Median time, in reference seconds, of a fresh interpreter importing cvqec and writing the inputs."""
    times = []
    for i in range(SETUP_REPEATS):
        argv = [sys.executable, os.path.abspath(__file__), "--setup-only", os.path.join(work, f"setup{i}")]
        argv += ["--workload", args.workload, "--seed", str(args.seed)]
        before = calibrator.probe()
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True)
        elapsed = time.perf_counter() - t0
        times.append(elapsed * Calibrator.scale([before, calibrator.probe()]))
        if proc.returncode != 0:
            raise SystemExit(f"chainbench: set-up failed ({proc.returncode}): {proc.stderr.strip()}")
    return statistics.median(times)


# ---------------------------------------------------------------------------
# One chain
# ---------------------------------------------------------------------------


def run_chain(cli, op: workloads.Operation, work: str, calibrator: Calibrator) -> dict:
    """Run one operation's four CLI steps; return exit codes and step times.

    ``times`` holds wall seconds and ``scaled`` reference seconds, from the
    calibration kernel run before, during and after each step (see speed.py).
    """
    f = {name: os.path.join(work, f"op{op.index}-{name}.json") for name in ("code", "circuit", "verify", "sim", "config")}
    steps = (
        ("build", ["build", os.path.join(work, op.matrix), "--output", f["code"]]),
        ("compile", ["compile", f["code"], "--output", f["circuit"]]),
        ("verify", ["verify", f["circuit"], f["code"], "--output", f["verify"]]),
        ("simulate", ["simulate", f["config"], "--output", f["sim"]]),
    )
    record = {"op": op, "files": f, "times": {}, "scaled": {}, "exit": {}}
    sink = io.StringIO()
    before = calibrator.probe()
    for step, argv in steps:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), calibrator.sampling():
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # an uncaught error is a failed step, as a crashed process would be
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                code = 1
            elapsed = time.perf_counter() - t0 - calibrator.sampled_s
        after = calibrator.probe()
        record["times"][step] = elapsed
        record["scaled"][step] = elapsed * Calibrator.scale([before, after] + calibrator.samples)
        before = after
        record["exit"][step] = code
        if code != 0:
            record["problems"] = [f"{step} exited with {code}: {sink.getvalue().strip()[-300:]}"]
            return record
    record["problems"] = []
    return record


# ---------------------------------------------------------------------------
# Checks against the oracles
# ---------------------------------------------------------------------------


class Checker:
    """Checks each chain's outputs; statistical tests are decided once the run ends."""

    def __init__(self, work: str):
        self.work = work
        self._actions: dict[str, np.ndarray] = {}  # circuit file text -> composed action
        self.encoders: dict[str, tuple[int, float, float]] = {}  # matrix -> (gates, dB, max |param|)
        self.deterministic = True

    def check(self, rec: dict) -> None:
        """Append problems to rec["problems"], and p-values to rec["pvalues"]."""
        rec["pvalues"] = []
        if rec["problems"]:
            return
        op, f, problems = rec["op"], rec["files"], rec["problems"]
        with open(os.path.join(self.work, op.matrix)) as fh:
            rows = np.asarray(json.load(fh)["rows"], dtype=float)
        with open(f["code"]) as fh:
            code = json.load(fh)
        with open(f["circuit"]) as fh:
            circuit_text = fh.read()
        with open(f["verify"]) as fh:
            verified = json.load(fh).get("verified") is True
        with open(f["sim"]) as fh:
            sim = json.load(fh)

        params = tuple(int(code["params"][key]) for key in ("n", "k", "l", "c"))
        n, k, l, c = params
        h = np.array([u for u, _ in code["pairs"]] + code["isotropic"] + [v for _, v in code["pairs"]], dtype=float)
        gates = json.loads(circuit_text)

        if circuit_text not in self._actions:
            self._actions[circuit_text] = oracles.compose_circuit(gates, n)
        m = self._actions[circuit_text]
        j = oracles.symplectic_form(n)
        m_inv = -j @ m.T @ j  # inverse of a symplectic map

        if not verified:
            problems.append("verify did not report success")
        defect = oracles.symplectic_defect(m)
        if defect > SYMPLECTIC_RTOL:
            problems.append(f"circuit action is not symplectic (relative defect {defect:.3e})")
        mapped = oracles.canonical_check(*params) @ (-j @ m @ j).T
        dev = float(np.max(np.abs(h - mapped))) / max(1.0, float(np.max(np.abs(h))))
        if dev > MAP_RTOL:
            problems.append(f"H differs from F (-J M J)^T by {dev:.3e} (relative)")
        if not oracles.same_rowspace(h, rows):
            problems.append("code rows do not span the input rowspace")
        want = oracles.code_parameters(rows)
        if params != want:
            problems.append(f"(n,k,l,c) = {params}, ranks give {want}")
        if len(gates) > 8 * n * n + 8 * n:
            problems.append(f"{len(gates)} gates exceed 8n^2 + 8n")

        squeeze_db = sum(abs(20 * math.log10(abs(g["param"]))) for g in gates if g["gate"] == "SQUEEZE")
        max_param = max((abs(g["param"]) for g in gates if "param" in g), default=0.0)
        encoder = (len(gates), squeeze_db, max_param)
        if self.encoders.setdefault(op.matrix, encoder) != encoder:
            self.deterministic = False

        if sim["trials"] != op.trials:
            problems.append(f"simulate ran {sim['trials']} trials, asked for {op.trials}")
        if sim["mode_match_rate"] < MIN_MATCH_RATE:
            problems.append(f"mode match rate {sim['mode_match_rate']} < {MIN_MATCH_RATE}")
        t = op.trials
        noise_var = oracles.syndrome_noise_variances(l, c, op.r)
        for got, want_var in zip(sim["syndrome_noise_variance"], noise_var):
            rec["pvalues"].append(("syndrome noise variance", oracles.chi2_two_sided_p(t * got / want_var, t - 1)))
        # Rounding through the encoder and its inverse bounds how well a mean
        # can vanish; it matters only where the noise leaves a quadrature alone.
        rounding = ROUNDING * 2 * n * float(np.max(np.abs(m))) * float(np.max(np.abs(m_inv)))
        res_var = oracles.residual_variances(h, m_inv, params, op.mode, op.r)
        for mean, var in zip(sim["mean_residual"], res_var):
            z = mean / (math.sqrt(var / t) + rounding)
            rec["pvalues"].append(("residual mean", oracles.normal_two_sided_p(z)))
        rec["excess"] = float(np.mean(sim["excess_variance"]))

    @staticmethod
    def decide(records: list[dict]) -> None:
        """Fail every test whose p-value is below the run's Bonferroni threshold, and check sweeps."""
        tests = sum(len(rec["pvalues"]) for rec in records)
        threshold = RUN_FALSE_ALARM / max(1, tests)
        for rec in records:
            worst = {}
            for name, p in rec["pvalues"]:
                if p < threshold:
                    worst[name] = min(p, worst.get(name, 1.0))
            rec["problems"] += [f"{name}: p = {p:.2e} < {threshold:.2e}" for name, p in worst.items()]
        by_round: dict[int, list[dict]] = {}
        for rec in records:
            if rec["op"].sweep:
                by_round.setdefault(rec["round"], []).append(rec)
        center, width = SWEEP_SLOPE
        for sweep in by_round.values():
            if any("excess" not in rec for rec in sweep):
                continue  # a step already failed; its problem is recorded
            slope = oracles.log_slope([rec["op"].r for rec in sweep], [rec["excess"] for rec in sweep])
            if abs(slope - center) > width:
                for rec in sweep:
                    rec["problems"].append(f"r-sweep slope {slope:.3f} outside {center} +- {width}")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(records: list[dict], checker: Checker, setup_s: float) -> dict:
    chain = [sum(rec["scaled"].values()) for rec in records]
    prepare = [sum(rec["scaled"].get(s, 0.0) for s in ("build", "compile", "verify")) for rec in records]
    sim_time = sum(rec["scaled"].get("simulate", 0.0) for rec in records)
    trials = sum(rec["op"].trials for rec in records if "simulate" in rec["times"] and not rec["exit"]["simulate"])
    encoders = checker.encoders.values()
    values = {
        "setup_s": setup_s,
        "chain_s": statistics.median(chain),
        "prepare_s": statistics.median(prepare),
        "trials_per_s": trials / sim_time if sim_time else 0.0,
        "gate_count": sum(e[0] for e in encoders),
        "squeezing_db": sum(e[1] for e in encoders),
        "max_gate_param": max((e[2] for e in encoders), default=0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}


def span_scales(tracer, records: list[dict]) -> np.ndarray:
    """Reference-second factor of every span: that of the CLI step it runs in.

    Every traced call happens inside one ``cli.<step>`` span, the root of
    its tree; spans are stored in start order, so a parent precedes its
    children.
    """
    a = tracer.arrays()
    scale = np.ones(len(a["start"]))
    for i, (nid, op, parent) in enumerate(zip(a["name_id"], a["op"], a["parent"])):
        if parent < 0:
            rec, step = records[op], tracer.names[nid].split(".", 1)[1]
            scale[i] = rec["scaled"][step] / rec["times"][step]
        else:
            scale[i] = scale[parent]
    return scale


def per_layer(tracer, records: list[dict], summary: dict) -> dict:
    """Per-layer metrics, per traced operation, from a span summary in reference seconds."""
    ops = len(records)
    counters = tracer.counters
    values = {"cli.file_bytes": sum(rec["file_bytes"] for rec in records) / ops}
    for name, stats in summary.items():
        if not name.startswith("layer:"):
            values[f"{name}_s"] = stats["total_s"] / ops
            values[f"{name}_calls"] = stats["calls"] / ops
    values["simulator.self_s"] = summary["simulator.run_ec_experiment"]["self_s"] / ops
    for name, value in counters.items():
        values[name] = value / ops
    decode_calls = summary["decoder.decode"]["calls"]
    values["decoder.match_ratio"] = counters["decoder.match"] / decode_calls if decode_calls else 0.0
    return {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit, _ in PER_LAYER}


def print_layers(summary: dict, ops: int) -> None:
    print(f"per-layer time over {ops} traced operations (reference seconds per operation):")
    print(f"  {'layer':<14}{'total':>12}{'self':>12}")
    for name, stats in summary.items():
        if name.startswith("layer:"):
            print(f"  {name[6:]:<14}{stats['total_s'] / ops:>12.6f}{stats['self_s'] / ops:>12.6f}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # One core for this process and its set-up children, so the calibration
    # probes always see the same core's contention as the work they bracket.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.setup_only:
        import_cli()
        workloads.write_inputs(args.setup_only, args.workload, args.seed)
        return 0

    cli = import_cli()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        calibrator = Calibrator()
        setup_s = measure_setup(args, work, calibrator)
        ops = workloads.write_inputs(work, args.workload, args.seed)
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
        checker = Checker(work)
        records: list[dict] = []
        start = time.perf_counter()
        rounds = 0
        # A traced run traces every other operation, shifting by one each
        # round, so traced and untraced chains interleave in time and an
        # even number of rounds traces each operation equally often.
        while (
            rounds < 1
            or time.perf_counter() - start < args.seconds
            or (tracer is not None and rounds % 2 == 1)
        ):
            for op in ops:
                traced = tracer is not None and (op.index + rounds) % 2 == 1
                if traced:
                    tracer.current_op, tracer.expected_mode = len(records), op.mode
                    tracer.install()
                rec = run_chain(cli, op, work, calibrator)
                if traced:
                    tracer.uninstall()
                rec["round"], rec["traced"] = rounds, traced
                rec["file_bytes"] = sum(os.path.getsize(rec["files"][k]) for k in ("code", "circuit") if os.path.exists(rec["files"][k]))
                records.append(rec)
            for rec in records[-len(ops):]:
                checker.check(rec)
            rounds += 1
        Checker.decide(records)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [rec for rec in records if rec["problems"]]
    unexpected = [rec for rec in failed if not rec["op"].expect_fail]
    for rec in failed[:10]:
        label = "failed as expected" if rec["op"].expect_fail else "FAILED"
        print(f"op {rec['op'].index} (round {rec['round']}) {label}: {'; '.join(rec['problems'])}", file=sys.stderr)
    correct = not unexpected and checker.deterministic
    if not checker.deterministic:
        print("compiled encoders differ between chains on the same check matrix", file=sys.stderr)

    if tracer is not None:
        traced = [rec for rec in records if rec["traced"]]
        summary = tracer.summarize(span_scales(tracer, records))
        print_layers(summary, len(traced))
        plain = statistics.median(sum(r["scaled"].values()) for r in records if not r["traced"])
        with_trace = statistics.median(sum(r["scaled"].values()) for r in traced)
        print(f"tracing overhead: chain_s {plain:.6f} s untraced, {with_trace:.6f} s traced ({100 * (with_trace / plain - 1):+.1f}%)")
        metrics = per_layer(tracer, traced, summary)
        tracer.save(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.npz"))
    else:
        metrics = end_to_end(records, checker, setup_s)
    print(f"{args.workload}: {rounds} rounds, {len(records)} operations, {len(failed)} failed")
    result = {"correct": correct, "attempted": len(records), "failed": len(failed), "metrics": metrics}
    detail = [
        {"op": rec["op"].index, "round": rec["round"], "traced": rec["traced"], "times": rec["times"], "scaled": rec["scaled"], "problems": rec["problems"]}
        for rec in records
    ]
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(dict(result, operations=detail), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
