"""Time each layer of the cvqec chain on the benchmark's code generator, sweeping n.

For each mode count n, the check rows come from `random_code_rows(n, 1, n // 4)`
in `chainbench/workloads.py` (l = 1, c = n/4), which this script imports and
does not change. It times `build_code`, `decompose` of the encoder,
`circuit_action` and `verify_circuit` of the compiled circuit, and one
`run_ec_experiment`, and prints one JSON object with the median of the
repeats per layer, in wall seconds, and beside it, under the layer's key
with ``_range`` appended, the fastest and slowest repeat. A difference
between two sweeps that lies inside those ranges is within the
run-to-run spread. The same figures go to stderr as a table, one row per
n and layer. `verify_circuit` raises if the circuit is wrong, so a sweep
that prints has checked every circuit it timed.

`cli_chain_s` times the same code through the command line, in process:
`cvqec.cli.main` runs build, compile, verify and simulate (same error,
squeezing and trial count) on files in a temporary directory. Its excess
over the layer times is the fixed cost of each command: parsing its
arguments and reading and writing its files. `cli_build_s` and
`cli_compile_s` are the chain's build and compile commands on their own:
`build_code` or `decompose` plus writing the code or circuit file, and
for compile reading the code file. `load_circuit_s` is the largest part
of that cost in `verify`: `load_circuit` reading the circuit file the
chain's compile step wrote, JSON decoding and validation.

Run from the repository root, single-threaded BLAS for stable figures:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/nsweep.py --n 64 128 256
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from cvqec import __version__, cli
from cvqec.codes import build_code, save_parity_check
from cvqec.compiler import circuit_action, decompose, encoder_quad_action, load_circuit, verify_circuit
from cvqec.decoder import single_mode_error
from cvqec.simulator import run_ec_experiment

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "chainbench"))
from workloads import RANDOM_CODE_R, random_code_rows  # noqa: E402


REPEATS = 3  # timed repeats per point; the median and the range are reported
TRIALS = 2000  # trials of the one run_ec_experiment


CLI_CHAIN = (
    ["build", "rows.json", "--output", "code.json"],
    ["compile", "code.json", "--output", "circuit.json"],
    ["verify", "circuit.json", "code.json", "--output", "verify.json"],
    ["simulate", "config.json", "--output", "sim.json"],
)


def cli_chain(work: Path) -> dict[str, float]:
    """Run the CLI chain in process on the files in ``work``; return each command's seconds, raise if a step fails."""
    seconds = {}
    for step in CLI_CHAIN:
        argv = [str(work / arg) if arg.endswith(".json") else arg for arg in step]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(argv)
        seconds[step[0]] = time.perf_counter() - t0
        if status != 0:
            raise RuntimeError(f"cvqec {' '.join(step)} exited with {status}")
    return seconds


def sweep_point(n: int) -> dict:
    rows = random_code_rows(n, 1, n // 4)
    error = single_mode_error(n, 1, 2.0, 2.0)
    times: dict[str, list[float]] = {}

    def timed(name, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        times.setdefault(name + "_s", []).append(time.perf_counter() - t0)
        return out

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        save_parity_check(work / "rows.json", rows)
        config = {"code_file": str(work / "code.json"), "error": {"mode": 1, "p": 2.0, "x": 2.0}, "squeezing_r": RANDOM_CODE_R, "trials": TRIALS, "seed": 1}
        (work / "config.json").write_text(json.dumps(config))
        for _ in range(REPEATS):
            code = timed("build_code", build_code, rows)
            circuit, report = timed("decompose", decompose, encoder_quad_action(code))
            timed("circuit_action", circuit_action, circuit)
            deviation = timed("verify_circuit", verify_circuit, circuit, code)
            stats = timed("run_ec_experiment", run_ec_experiment, code, error, RANDOM_CODE_R, TRIALS, 1)
            steps = timed("cli_chain", cli_chain, work)
            for command in ("build", "compile"):
                times.setdefault(f"cli_{command}_s", []).append(steps[command])
            timed("load_circuit", load_circuit, work / "circuit.json", n)
    point = {"n": n, "l": 1, "c": n // 4}
    for key, values in times.items():
        point[key] = statistics.median(values)
        point[key + "_range"] = [min(values), max(values)]
    point.update(gates=len(circuit), gate_counts=report.gate_counts, deviation=deviation, mode_match_rate=stats.mode_match_rate)
    return point


def table(points: list[dict]) -> str:
    """The points' layer times as text: median, fastest and slowest repeat, and (slowest - fastest) / median."""
    lines = [f"{'n':>5}  {'layer':<20} {'median_s':>10} {'min_s':>10} {'max_s':>10} {'spread':>7}"]
    for point in points:
        for key, value in point.items():
            if key.endswith("_s_range"):
                layer, (low, high) = key[: -len("_s_range")], value
                median = point[layer + "_s"]
                lines.append(f"{point['n']:>5}  {layer:<20} {median:>10.4g} {low:>10.4g} {high:>10.4g} {(high - low) / median:>7.1%}")
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
        "repeats": REPEATS,
        "trials": TRIALS,
        "points": [sweep_point(n) for n in args.n],
    }
    print(json.dumps(result, indent=1))
    print(table(result["points"]), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
