"""Digest each stage of the cvqec chain over a fixed corpus of check rows.

A change that claims to leave the chain's outputs unchanged runs this at
the parent and at the change and compares the two outputs with
``--against``. The corpus is fixed, in this order:

- ``reference-raw`` and ``reference-basis``: the paper's example code as
  raw rows and as its row-reduced basis rows (`cvqec.reference`);
- ``bench-*``: the benchmark's nine check matrices, the reference rows
  and the `random_code_rows` codes of ``compile-large`` and
  ``mc-midsize``, from `chainbench/workloads.py`, which this script
  imports and does not change;
- ``data-*``: the ``tests/data/*rows.json`` check-matrix files;
- ``draw-<scale>-s<seed>``: ten seeded draws at each scale from 1e-3 to
  1e5, each of normal rows on 2 to 6 modes times the scale, with a
  dependent row, a row of 1e-13 times the scale and a zero row appended.

Each row set is written as a check-matrix file and run through the
command line in process (`cvqec.cli.main`), and each stage gets one
SHA-256:

- ``code``: the code file's bytes that ``cvqec build`` writes;
- ``circuit``: the circuit file's bytes that ``cvqec compile`` writes;
- ``action``: the float64 bytes of `circuit_action` of the circuit that
  `decompose` compiles from the loaded code;
- ``decode``: `decode_batch`'s outputs at `DEFAULT_DECODE_TOL` on a fixed
  syndrome set: two seeded single-mode errors per mode, one of them with
  noise of a seeded size from 1e-8 to 1e-3 per entry, so that rows lie on
  both sides of the tolerance, the zero syndrome and four seeded normal
  rows;
- ``simulate``: the output's bytes of ``cvqec simulate`` with an error of
  (0.5, 0.5) on mode 1 at r = 5, 200 trials and seed 1.

A command that exits non-zero is hashed as its exit code, and an
exception in an in-process stage as its class name. A set whose build is
refused has no other stage. The digests are printed as one JSON object,
``{"sets": {set: {stage: digest}}}``, in corpus order. With ``--against
FILE``, a file that an earlier run printed, the first set and stage that
differ, or that one side lacks, are named on stderr and the exit status
is 1; it is 0 when every digest is the same. ``--sets`` limits the run,
and the comparison, to the named sets.

Run from the repository root, single-threaded BLAS:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/chainhash.py > digests.json
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/chainhash.py --against digests.json > /dev/null
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from cvqec import cli, reference
from cvqec.codes import load_code, save_parity_check
from cvqec.compiler import circuit_action, decompose
from cvqec.decoder import DEFAULT_DECODE_TOL, decode_batch, single_mode_error, syndrome

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "chainbench"))
from workloads import COMPILE_LARGE_CODES, MC_MIDSIZE_CODES, REFERENCE_ROWS, random_code_rows  # noqa: E402

STAGES = ("code", "circuit", "action", "decode", "simulate")
DRAW_SCALES = (1e-3, 1e-1, 1e1, 1e3, 1e5)
DRAW_SEEDS = tuple(range(10))
SIMULATE = {"error": {"mode": 1, "p": 0.5, "x": 0.5}, "squeezing_r": 5.0, "trials": 200, "seed": 1}


def _draw(scale: float, seed: int) -> np.ndarray:
    """Seeded normal rows times ``scale``, then a dependent row, a near-zero row and a zero row."""
    rng = np.random.default_rng([seed, DRAW_SCALES.index(scale)])
    n = int(rng.integers(2, 7))
    rows = scale * rng.normal(size=(int(rng.integers(2, 2 * n + 1)), 2 * n))
    dependent = rng.normal(size=len(rows)) @ rows
    near_zero = 1e-13 * scale * rng.normal(size=2 * n)
    return np.vstack([rows, dependent, near_zero, np.zeros(2 * n)])


def corpus() -> dict[str, np.ndarray]:
    """Every row set by name, in corpus order."""
    sets = {"reference-raw": reference.raw_parity_rows(), "reference-basis": reference.symplectic_basis_rows()}
    sets["bench-reference"] = np.array(REFERENCE_ROWS, dtype=float)
    for n, l, c in COMPILE_LARGE_CODES + MC_MIDSIZE_CODES:
        sets[f"bench-n{n}-l{l}-c{c}"] = random_code_rows(n, l, c)
    for path in sorted((ROOT / "tests" / "data").glob("*rows.json")):
        sets["data-" + path.stem] = np.array(json.loads(path.read_text())["rows"], dtype=float)
    for scale in DRAW_SCALES:
        for seed in DRAW_SEEDS:
            sets[f"draw-{scale:.0e}-s{seed}"] = _draw(scale, seed)
    return sets


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str], output: Path) -> tuple[int, str]:
    """A command's exit status, and the digest of the file it writes, or of that status when it is not 0."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        status = cli.main(argv + ["--output", str(output)])
    return status, _sha(output.read_bytes()) if status == 0 else _sha(f"exit {status}".encode())


def _in_process(stage) -> str:
    """Digest of the bytes an in-process stage returns, or of the class name of what it raises."""
    try:
        return _sha(stage())
    except (ValueError, RuntimeError) as exc:
        return _sha(f"raised {type(exc).__name__}".encode())


def _action(code) -> bytes:
    circuit, _ = decompose(code)
    return np.ascontiguousarray(circuit_action(circuit), dtype="<f8").tobytes()


def _decode(code) -> bytes:
    rng = np.random.default_rng(0)
    exact = [syndrome(code, single_mode_error(code.n, mode, *rng.normal(size=2))) for mode in range(1, code.n + 1)]
    noisy = [syndrome(code, single_mode_error(code.n, mode, *rng.normal(size=2))) + 10.0 ** rng.uniform(-8, -3) * rng.normal(size=code.m) for mode in range(1, code.n + 1)]
    s = np.vstack(exact + noisy + [np.zeros(code.m), rng.normal(size=(4, code.m))])
    return b"".join(np.ascontiguousarray(field).tobytes() for field in decode_batch(code, s, DEFAULT_DECODE_TOL))


def digest_set(rows: np.ndarray, work: Path) -> dict[str, str]:
    """One digest per stage of one row set; a refused build gives the code stage alone."""
    matrix, code_file = work / "rows.json", work / "code.json"
    save_parity_check(matrix, rows)
    digests = {}
    status, digests["code"] = _run(["build", str(matrix)], code_file)
    if status:
        return digests
    code = load_code(code_file)
    _, digests["circuit"] = _run(["compile", str(code_file)], work / "circuit.json")
    digests["action"] = _in_process(lambda: _action(code))
    digests["decode"] = _in_process(lambda: _decode(code))
    (work / "config.json").write_text(json.dumps(dict(SIMULATE, code_file=str(code_file))))
    _, digests["simulate"] = _run(["simulate", str(work / "config.json")], work / "simulate.json")
    return digests


def first_difference(ours: dict, theirs: dict) -> tuple[str, str] | None:
    """The first (set, stage) in corpus and stage order whose digest differs or is missing from one side."""
    for name in list(ours) + [name for name in theirs if name not in ours]:
        a, b = ours.get(name, {}), theirs.get(name, {})
        for stage in STAGES:
            if a.get(stage) != b.get(stage):
                return name, stage
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", nargs="+", metavar="NAME", help="digest only these row sets (default: the whole corpus)")
    parser.add_argument("--against", metavar="FILE", help="digests printed by an earlier run, to compare with")
    args = parser.parse_args(argv)
    sets = corpus()
    unknown = sorted(set(args.sets or ()) - set(sets))
    if unknown:
        parser.error(f"unknown row sets: {', '.join(unknown)}")
    if args.sets:
        sets = {name: rows for name, rows in sets.items() if name in args.sets}
    digests = {}
    for name, rows in sets.items():
        with tempfile.TemporaryDirectory() as tmp:
            digests[name] = digest_set(rows, Path(tmp))
    print(json.dumps({"sets": digests}, indent=1))
    if args.against:
        with open(args.against) as fh:
            theirs = {name: stages for name, stages in json.load(fh)["sets"].items() if name in sets}
        where = first_difference(digests, theirs)
        if where:
            print(f"chainhash: first difference: set {where[0]}, stage {where[1]}", file=sys.stderr)
            return 1
        print(f"chainhash: all {sum(map(len, digests.values()))} digests of {len(digests)} sets are the same", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
