"""Time each layer of the cvqec chain on the benchmark's code generator, sweeping n.

For each mode count n, the check rows come from `random_code_rows(n, 1, n // 4)`
in `chainbench/workloads.py` (l = 1, c = n/4), which this script imports and
does not change. It times `build_code`, `decompose` of the code,
`circuit_action` and `verify_circuit` of the compiled circuit, one
`run_ec_experiment`, and `decode_batch` on the syndromes that experiment
decodes (`readout_syndromes` of its error, drawn as one array, where the
experiment draws and decodes them in blocks) at the decoder's public
`DEFAULT_DECODE_TOL`: the ranking, the fits and the re-ranking it times do
not depend on the tolerance, which only sorts the rows' outcomes. It prints
one JSON object with the median of the repeats per layer, in wall
seconds, and beside it, under the layer's key with ``_range`` appended,
the fastest and slowest repeat. A difference between two sweeps that
lies inside those ranges is within the run-to-run spread. Each layer's
minor page faults per call, the change in `getrusage`'s ``ru_minflt``
over the call, are given the same way under ``<layer>_minflt``. The same
figures go to stderr as a table, one row per n and layer.
`verify_circuit` raises if the circuit fails its probes, so a sweep that
prints has checked every circuit it timed; `deviation` is its probe
deviation. Each point also gives
the compiled circuit's `gates` and its `records` (a QND run counts once).

A point is repeated at least `MIN_REPEATS` = 5 times, and then until
the spread of its `cli_chain_ref_s`, the distance between the repeats'
quartiles over their median, is under `SPREAD`, or until it has run
`MAX_REPEATS` times. The quartiles of three repeats did not bound the
run-to-run difference: two sweeps of one tree gave n = 128 points 7.9%
apart with stated spreads of 2.4% and 2.6%. A cap on repeats, not on
seconds, bounds the small points too, whose repeats take a fraction of a
second each. Each point gives its `repeats`, that `spread`, and
`spread_met`, whether the spread came under `SPREAD`; each point that
stopped at `MAX_REPEATS` short of it is named on stderr after the table.

Each layer is also given in reference seconds, under ``<layer>_ref_s``
(and its ``_range``), with `chainbench/speed.py`'s `Calibrator`, which
this script imports and does not change: its kernel is timed before and
after each call and sampled during it, and the call's wall time, less
the sampling, is scaled to a host where one kernel repetition takes
`REFERENCE_S`. On a shared host the wall time swings with other tenants'
load, and the reference time less. The wall seconds reported are those
less the sampling too.

`cli_<command>_s` times the same code through the command line, in
process: `cvqec.cli.main` runs build, compile, verify and simulate (same
error, squeezing and trial count) on files in a temporary directory, and
`cli_chain_s` is their sum. Its excess over the layer times is the fixed
cost of each command: parsing its arguments and reading and writing its
files. `cli_build_s` is `build_code` plus writing the code file, and
`cli_compile_s` reading the code file, `decompose` and writing the
circuit file. `load_circuit_s` is the largest part of that cost in
`verify`: `load_circuit` reading the circuit file the chain's compile
step wrote, JSON decoding and validation.

Run from the repository root, single-threaded BLAS for stable figures:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/nsweep.py --n 64 128 256 512
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from cvqec import __version__, cli
from cvqec.codes import build_code, save_parity_check
from cvqec.compiler import circuit_action, decompose, load_circuit, verify_circuit
from cvqec.decoder import DEFAULT_DECODE_TOL, decode_batch, single_mode_error, syndrome
from cvqec.simulator import readout_syndromes, run_ec_experiment

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "chainbench"))
from speed import REFERENCE_S, Calibrator  # noqa: E402
from workloads import RANDOM_CODE_R, random_code_rows  # noqa: E402


MIN_REPEATS = 5  # timed repeats per point at least; the median and the range are reported
SPREAD = 0.05  # then repeat until cli_chain_ref_s's quartiles lie closer than this share of its median,
MAX_REPEATS = 30  # or until the point has run this many repeats
TRIALS = 2000  # trials of the one run_ec_experiment


CLI_CHAIN = (
    ["build", "rows.json", "--output", "code.json"],
    ["compile", "code.json", "--output", "circuit.json"],
    ["verify", "circuit.json", "code.json", "--output", "verify.json"],
    ["simulate", "config.json", "--output", "sim.json"],
)


def cli_step(work: Path, step: list[str]) -> None:
    """Run one command of the CLI chain in process on the files in ``work``; raise if it fails."""
    argv = [str(work / arg) if arg.endswith(".json") else arg for arg in step]
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(argv)
    if status != 0:
        raise RuntimeError(f"cvqec {' '.join(step)} exited with {status}")


def sweep_point(n: int) -> dict:
    l, c = 1, n // 4
    rows = random_code_rows(n, l, c)
    error = single_mode_error(n, 1, 2.0, 2.0)
    calibrator = Calibrator()
    times: dict[str, list[float]] = {}

    def timed(name, fn, *args):
        before = calibrator.probe()
        with calibrator.sampling():
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            out = fn(*args)
            wall = time.perf_counter() - t0 - calibrator.sampled_s
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        times.setdefault(name + "_s", []).append(wall)
        times.setdefault(name + "_minflt", []).append(faults)
        times.setdefault(name + "_ref_s", []).append(wall * Calibrator.scale([before, calibrator.probe()] + calibrator.samples))
        return out

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        save_parity_check(work / "rows.json", rows)
        config = {"code_file": str(work / "code.json"), "error": {"mode": 1, "p": 2.0, "x": 2.0}, "squeezing_r": RANDOM_CODE_R, "trials": TRIALS, "seed": 1}
        (work / "config.json").write_text(json.dumps(config))
        while True:
            code = timed("build_code", build_code, rows)
            circuit, report = timed("decompose", decompose, code)
            timed("circuit_action", circuit_action, circuit)
            deviation = timed("verify_circuit", verify_circuit, circuit, code)
            stats = timed("run_ec_experiment", run_ec_experiment, code, error, RANDOM_CODE_R, TRIALS, 1)
            s_meas = readout_syndromes(code, syndrome(code, error), RANDOM_CODE_R, np.random.default_rng(1), TRIALS)
            timed("decode_batch", decode_batch, code, s_meas, DEFAULT_DECODE_TOL)
            for step in CLI_CHAIN:
                timed(f"cli_{step[0]}", cli_step, work, step)
            for unit in ("_s", "_ref_s"):
                times.setdefault("cli_chain" + unit, []).append(sum(times[f"cli_{step[0]}{unit}"][-1] for step in CLI_CHAIN))
            timed("load_circuit", load_circuit, work / "circuit.json", n)
            chain = times["cli_chain_ref_s"]
            if len(chain) >= MIN_REPEATS and (spread(chain) < SPREAD or len(chain) >= MAX_REPEATS):
                break
    point = {"n": n, "l": l, "c": c, "repeats": len(chain), "spread": spread(chain), "spread_met": spread(chain) < SPREAD}
    for key, values in times.items():
        point[key] = statistics.median(values)
        point[key + "_range"] = [min(values), max(values)]
    point.update(gates=len(circuit), records=len(circuit.records), gate_counts=report["gate_counts"], deviation=deviation, mode_match_rate=stats.mode_match_rate)
    return point


def spread(values: list[float]) -> float:
    """The distance between the values' quartiles over their median."""
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return (high - low) / statistics.median(values)


def table(points: list[dict]) -> str:
    """The points' layer times as text: median wall and reference seconds, fastest and slowest wall repeat, (slowest - fastest) / median, and median minor faults."""
    lines = [f"{'n':>5}  {'layer':<20} {'median_s':>10} {'ref_s':>10} {'min_s':>10} {'max_s':>10} {'spread':>7} {'faults':>7}"]
    for point in points:
        lines.append(f"{point['n']:>5}  {point['repeats']} repeats, cli_chain_ref_s spread {point['spread']:.1%}")
        for key, value in point.items():
            if key.endswith("_s_range") and not key.endswith("_ref_s_range"):
                layer, (low, high) = key[: -len("_s_range")], value
                median = point[layer + "_s"]
                faults = point.get(layer + "_minflt")
                faults = "" if faults is None else f"{faults:g}"
                lines.append(f"{point['n']:>5}  {layer:<20} {median:>10.4g} {point[layer + '_ref_s']:>10.4g} {low:>10.4g} {high:>10.4g} {(high - low) / median:>7.1%} {faults:>7}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", default=[64, 128, 256], help="mode counts, each a multiple of 4")
    args = parser.parse_args(argv)
    if any(n < 4 or n % 4 for n in args.n):
        parser.error("--n values must be positive multiples of 4")
    result = {
        "cvqec": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "min_repeats": MIN_REPEATS,
        "spread_target": SPREAD,
        "max_repeats": MAX_REPEATS,
        "reference_s": REFERENCE_S,
        "trials": TRIALS,
        "points": [sweep_point(n) for n in args.n],
    }
    print(json.dumps(result, indent=1))
    print(table(result["points"]), file=sys.stderr)
    for point in result["points"]:
        if not point["spread_met"]:
            print(f"nsweep: n = {point['n']} stopped at {point['repeats']} repeats with a spread of {point['spread']:.1%}, above the {SPREAD:.0%} target", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
