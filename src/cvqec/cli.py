"""Command-line interface.

Exit codes are fixed for scripting: 0 success, 2 parse error, 3
dimension error, 4 build verification failure, 5 decode failure, 6
circuit verification failure.  JSON output is compact, one line, with
every float rounded to 12 significant digits; re-parsing an emitted
decimal recovers a double within one ulp of it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import codes, compiler, decoder, reference, simulator
from .decomposition import code_parameters, symplectic_gram_schmidt
from .errors import (
    BuildVerificationError,
    CircuitVerificationError,
    DecodeError,
    DecompositionError,
    DimensionMismatchError,
    NotSymplecticError,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_BUILD = 4
EXIT_DECODE = 5
EXIT_CIRCUIT = 6


def _round_floats(values) -> list:
    """Floats rounded to 12 significant digits, in one ``map``."""
    return list(map(float, map("%.12g".__mod__, values)))


def _round12(obj):
    """Round every float in a JSON-ready structure to 12 significant digits.

    A list of floats only (a row from ``tolist()``) is rounded by
    `_round_floats`, once per list object: a code file's basis rows, which its
    ``pairs`` and ``isotropic`` hold again, are rounded once and shared.
    Other containers recurse.
    """
    rows: dict[int, list] = {}  # id of a row list seen -> its rounded copy

    def walk(obj):
        if isinstance(obj, float):
            return float(f"{obj:.12g}")
        if isinstance(obj, dict):
            return {k: walk(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            if obj and set(map(type, obj)) == {float}:
                if id(obj) not in rows:
                    rows[id(obj)] = _round_floats(obj)
                return rows[id(obj)]
            return [walk(v) for v in obj]
        return obj

    return walk(obj)


def _write(payload, output: str | None) -> None:
    """Write JSON to a file or stdout, through the C encoder (no indent).

    Every payload is a tree the CLI builds, so the encoder skips its
    check for circular references.
    """
    text = json.dumps(payload, check_circular=False)
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit(payload, output: str | None) -> None:
    _write(_round12(payload), output)


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def cmd_decompose(args) -> int:
    rows = codes.load_parity_check(args.matrix_file)
    dec = symplectic_gram_schmidt(rows, tol=args.tolerance)
    n, k, l, c = code_parameters(dec)
    payload = {
        "n": n,
        "k": k,
        "l": l,
        "c": c,
        "pairs": [[u.tolist(), v.tolist()] for u, v in dec.pairs],
        "isotropic": [w.tolist() for w in dec.isotropic],
        "dropped_rows": list(dec.dropped_rows),
    }
    _emit(payload, args.output)
    return EXIT_OK


def cmd_build(args) -> int:
    rows = codes.load_parity_check(args.matrix_file)
    code = codes.build_code(rows, tol=args.tolerance)
    _emit(codes.code_to_dict(code), args.output)
    return EXIT_OK


def _float_array(value, option: str) -> np.ndarray:
    """An option's JSON value as a float array; a wrong JSON type raises ValueError naming the option."""
    try:
        return np.asarray(value, dtype=float)
    except TypeError as exc:
        raise ValueError(f"cannot read {option}: {exc}") from exc


def _load_error_vector(args, n: int) -> np.ndarray:
    if args.error is not None:
        vec = _float_array(json.loads(args.error), "--error")
        if vec.shape != (2 * n,):
            raise DimensionMismatchError(f"error vector must have length {2 * n}")
        return vec
    if args.mode is None:
        raise DimensionMismatchError("give either --error or --mode with --p/--x")
    return decoder.single_mode_error(n, args.mode, args.p, args.x)


def cmd_syndrome(args) -> int:
    code = codes.load_code(args.code_file)
    u = _load_error_vector(args, code.n)
    s = decoder.syndrome(code, u)
    _emit({"syndrome": s.tolist()}, args.output)
    return EXIT_OK


def cmd_decode(args) -> int:
    code = codes.load_code(args.code_file)
    if args.syndrome is not None:
        s = _float_array(json.loads(args.syndrome), "--syndrome")
    else:
        with open(args.syndrome_file) as fh:
            payload = json.load(fh)
        s = _float_array(payload["syndrome"] if isinstance(payload, dict) else payload, "--syndrome-file")
    if args.min_norm:
        corr = decoder.min_norm_correction(code, s)
    else:
        corr = decoder.decode_single_mode(code, s, tol=args.tolerance_decode)
    payload = {
        "mode": corr.mode_hypothesis,
        "u_prime": corr.u_prime.tolist(),
        "residual": corr.residual,
    }
    if corr.mode_hypothesis is not None:
        n = code.n
        payload["p"] = float(corr.u_prime[corr.mode_hypothesis - 1])
        payload["x"] = float(corr.u_prime[n + corr.mode_hypothesis - 1])
    _emit(payload, args.output)
    return EXIT_OK


def _rounded_param(param):
    """A circuit record's parameter rounded as every float the CLI writes; a run's array entry by entry."""
    if isinstance(param, np.ndarray):
        return np.array(_round_floats(param.tolist()))
    return None if param is None else float(f"{param:.12g}")


def cmd_compile(args) -> int:
    code = codes.load_code(args.code_file)
    circuit, report = compiler.decompose(compiler.encoder_quad_action(code), tol=args.tolerance)
    rounded = compiler.Circuit(circuit.n, tuple((kind, modes, _rounded_param(param)) for kind, modes, param in circuit.records))
    # the circuit file is a bare gate array; the report goes to stdout
    _write(compiler.circuit_to_dicts(rounded), args.output)
    if args.output:
        _emit(
            {
                "gate_counts": report.gate_counts,
                "squeezer_count": report.squeezer_count,
                "max_abs_param": report.max_abs_param,
                "rounds": report.rounds,
            },
            None,
        )
    return EXIT_OK


def cmd_verify(args) -> int:
    code = codes.load_code(args.code_file)
    circuit = compiler.load_circuit(args.circuit_file, n=code.n)
    deviation = compiler.verify_circuit(circuit, code)
    _emit({"verified": True, "max_deviation": deviation}, args.output)
    return EXIT_OK


def cmd_simulate(args) -> int:
    with open(args.config_file) as fh:
        cfg = json.load(fh)
    code = codes.load_code(codes.read_key(cfg, "code_file", str))
    mode, p, x = codes.read_key(cfg, "error", lambda err: (codes.json_int(err["mode"]), float(err["p"]), float(err["x"])))
    u = decoder.single_mode_error(code.n, mode, p, x)
    seed = codes.read_key(cfg, "seed", codes.json_int) if args.seed is None else args.seed
    stats = simulator.run_ec_experiment(
        code,
        u,
        r=codes.read_key(cfg, "squeezing_r", float),
        trials=codes.read_key(cfg, "trials", codes.json_int),
        seed=seed,
    )
    _emit(stats.to_dict(), args.output)
    return EXIT_OK


def cmd_selftest(args) -> int:
    results = []

    def record(name: str, passed: bool, detail: str = "") -> None:
        results.append({"name": name, "passed": bool(passed), "detail": detail})

    dec = symplectic_gram_schmidt(reference.raw_parity_rows())
    n, k, l, c = code_parameters(dec)
    record("decomposition-parameters", (n, k, l, c) == (4, 2, 0, 2), f"(n,k,l,c)=({n},{k},{l},{c})")

    code = reference.build_example_code()
    defect = float(np.max(np.abs(code.h @ code.upsilon.T - code.f)))
    record("encoding-map", defect <= 1e-8, f"max |H Y^T - F| = {_fmt(defect)}")

    rng = np.random.default_rng(7)
    worst = 0.0
    for mode in range(1, 5):
        for _ in range(25):
            p, x = rng.normal(size=2)
            got = decoder.syndrome(code, decoder.single_mode_error(4, mode, p, x))
            want = reference.syndrome_closed_form(mode, p, x)
            worst = max(worst, float(np.max(np.abs(got - want))))
    record("syndrome-table", worst <= 1e-9, f"max deviation = {_fmt(worst)}")

    circuit, _ = compiler.decompose(compiler.encoder_quad_action(code))
    try:
        dev = compiler.verify_circuit(circuit, code)
        record("compiler-round-trip", True, f"max deviation = {_fmt(dev)}")
    except CircuitVerificationError as exc:
        record("compiler-round-trip", False, str(exc))

    all_pass = all(r["passed"] for r in results)
    if args.json:
        _emit({"passed": all_pass, "checks": results}, args.output)
    else:
        for r in results:
            line = f"{'PASS' if r['passed'] else 'FAIL'}  {r['name']}"
            if r["detail"]:
                line += f"  ({r['detail']})"
            print(line)
        print("self-test:", "pass" if all_pass else "FAIL")
    return EXIT_OK if all_pass else EXIT_BUILD


def _tolerance(text: str) -> float:
    """A tolerance option's value: a finite number >= 0; anything else is a usage error naming the option."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later call."""
    parser = argparse.ArgumentParser(prog="cvqec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tolerance=False):
        if tolerance:
            p.add_argument("--tolerance", type=_tolerance, default=1e-9, help="numerical zero threshold")
        p.add_argument("--output", help="write JSON here instead of stdout")

    p = sub.add_parser("decompose", help="split a parity-check rowspace into pairs and isotropic basis")
    p.add_argument("matrix_file")
    common(p, tolerance=True)

    p = sub.add_parser("build", help="build a code and emit its JSON description")
    p.add_argument("matrix_file")
    common(p, tolerance=True)

    p = sub.add_parser("syndrome", help="syndrome of a displacement error")
    p.add_argument("code_file")
    p.add_argument("--mode", type=int, help="1-based mode of a single-mode error")
    p.add_argument("--p", type=float, default=0.0)
    p.add_argument("--x", type=float, default=0.0)
    p.add_argument("--error", help="full 2n-component phase vector as a JSON array")
    common(p)

    # Without abbreviations, so that a dropped --tolerance is refused, not
    # read as --tolerance-decode.
    p = sub.add_parser("decode", help="decode a syndrome to a correction", allow_abbrev=False)
    p.add_argument("code_file")
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--syndrome", help="syndrome as a JSON array")
    given.add_argument("--syndrome-file", help="JSON file holding the syndrome")
    p.add_argument("--min-norm", action="store_true", help="least-norm correction instead of single-mode decode")
    p.add_argument("--tolerance-decode", type=_tolerance, default=decoder.DEFAULT_DECODE_TOL)
    common(p)

    p = sub.add_parser("compile", help="compile a code's encoder into a gate sequence")
    p.add_argument("code_file")
    common(p, tolerance=True)

    p = sub.add_parser("verify", help="check a circuit file against a code's encoder")
    p.add_argument("circuit_file")
    p.add_argument("code_file")
    common(p)

    p = sub.add_parser("simulate", help="run a seeded error-correction experiment")
    p.add_argument("config_file")
    p.add_argument("--seed", type=int, help="override the config file's seed")
    common(p)

    p = sub.add_parser("selftest", help="run the bundled example-code checks")
    p.add_argument("--json", action="store_true", help="machine-readable results")
    common(p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Looked up at call time, so a wrapped or patched cmd_* is what runs.
        return globals()["cmd_" + args.command](args)
    except (json.JSONDecodeError, KeyError, OSError) as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DimensionMismatchError, NotSymplecticError, DecompositionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except BuildVerificationError as exc:
        print(f"error: build verification failed: {exc}", file=sys.stderr)
        return EXIT_BUILD
    except DecodeError as exc:
        print(f"error: decode failed: {exc}", file=sys.stderr)
        return EXIT_DECODE
    except CircuitVerificationError as exc:
        print(f"error: circuit verification failed: {exc}", file=sys.stderr)
        return EXIT_CIRCUIT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
