"""Command-line interface.

Exit codes are fixed for scripting: 0 success, 2 parse error, 3
dimension error, 4 build verification failure, 5 decode failure, 6
circuit verification failure.  JSON output is compact, one line, with
every JSON number that is a float rounded to 12 significant digits,
formatted once and written as JSON writes the rounded value; re-parsing
it recovers that value.  A code file's basis and input rows are no JSON
numbers but base64 float64 columns (`codes.code_to_dict`), exact.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from json.encoder import encode_basestring_ascii

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
from .symplectic import DEFAULT_TOL

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_BUILD = 4
EXIT_DECODE = 5
EXIT_CIRCUIT = 6


def _floats_text(values) -> str:
    """JSON text of floats, ``", "``-separated, rounded to 12 significant digits: the CLI's one float rule.

    Each value is formatted once, ``%.12g``, all in one call, and the text
    is byte for byte ``json.dumps(float("%.12g" % v))``: an integral value
    gets ``.0``, NaN and the infinities take JSON's names, and ``repr`` of
    the rounded value is written from 1e12 up to 1e16, where ``%g`` and
    ``repr`` choose different notations, and for a subnormal, which
    ``repr`` writes in fewer digits.
    """
    text = ("%.12g, " * len(values))[:-2] % tuple(values)
    if _as_json_writes(text, len(values)):
        return text
    return ", ".join([field if "." in field and "e" not in field else _fix_float(field) for field in text.split(", ")])


def _as_json_writes(text: str, count: int) -> bool:
    """Whether text holding ``count`` ``%.12g`` fields, and no other point or lower-case exponent, is as JSON writes them: every field has a point, so none is integral, and no exponent needs a look."""
    return text.count(".") == count and "e+1" not in text and "e-3" not in text


def _fix_float(text: str) -> str:
    """One ``%.12g`` field of `_floats_text` as JSON writes its value."""
    if "." in text or "e" in text:
        return repr(float(text)) if "e+1" in text or "e-3" in text else text
    return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text) or text + ".0"


def _json_text(obj) -> str:
    """JSON text of a payload, compact as ``json.dumps`` writes it, every float through `_floats_text`."""
    if isinstance(obj, float):
        return _floats_text((obj,))
    if isinstance(obj, dict):
        return "{" + ", ".join([encode_basestring_ascii(key) + ": " + _json_text(value) for key, value in obj.items()]) + "}"
    if isinstance(obj, str):
        return _string_text(obj)
    if not isinstance(obj, (list, tuple)):  # an int, a bool or null
        return repr(obj) if type(obj) is int else {True: "true", False: "false", None: "null"}.get(obj) or encode_basestring_ascii(obj)
    if obj and set(map(type, obj)) == {float}:
        return "[" + _floats_text(obj) + "]"
    return "[" + ", ".join([_json_text(value) for value in obj]) + "]"


# The characters that JSON writes as they are: printable ASCII less the quote and the backslash.
_UNESCAPED = bytes(sorted(set(range(0x20, 0x7F)) - set(b'"\\')))


def _string_text(text: str) -> str:
    """JSON text of a string, as ``json.dumps`` writes it: quoted as it is when no character needs an escape, which one C pass finds, as in a base64 column."""
    if text.isascii() and not text.encode().translate(None, _UNESCAPED):
        return '"' + text + '"'
    return encode_basestring_ascii(text)


def _circuit_text(circuit: compiler.Circuit) -> str:
    """A circuit file's text, ``json.dumps`` of the rounded gate list (one dict per gate), written from the records in one formatting pass.

    Each record adds its gates' text to one template, a run its gate's
    text once per gate with its targets filled in, and every parameter of
    the file as a ``%.12g`` field; one ``%`` over all the parameters then
    formats the file.  Where that text is not as JSON writes the rounded
    values (an integral value, NaN, an infinity, or an exponent that
    `_floats_text` fixes), the parameters are written through
    `_floats_text` instead, again in one call.
    """
    parts, params = [], []
    for kind, modes, param in circuit.records:
        if isinstance(param, np.ndarray):
            control, targets = modes
            gate = '{"gate": "%s", "modes": [%d, %%d], "param": %%%%.12g}, ' % (kind, control)
            parts.append(gate * len(param) % tuple(targets if isinstance(targets, range) else targets.tolist()))
            params += param.tolist()
        elif param is None:
            parts.append('{"gate": "%s", "modes": [%s]}, ' % (kind, ", ".join(map(str, modes))))
        else:
            parts.append('{"gate": "%s", "modes": [%s], "param": %%.12g}, ' % (kind, ", ".join(map(str, modes))))
            params.append(param)
    template = "[" + "".join(parts)[:-2] + "]"
    text = template % tuple(params)
    if _as_json_writes(text, len(params)):
        return text
    return template.replace("%.12g", "%s") % tuple(_floats_text(params).split(", "))


def _write(text: str, output: str | None) -> None:
    """Write text, one line of JSON or selftest's report, and a newline to a file or stdout.

    A file is overwritten in place: opened without truncation (created
    with mode 0o666 less the umask, as ``open(output, "w")`` creates it),
    written, then cut to the written length.  On ext4, truncating a file
    that holds data to zero before the write cost several times the
    write itself; cutting it after the write does not.  Only a regular
    file is cut: a pipe, a tty or /dev/null takes no truncation and needs
    none.  There is no atomic rename and no fsync.  An output that cannot
    be opened or written raises ValueError naming it, a parse error.
    """
    if not output:
        sys.stdout.write(text + "\n")
        return
    try:
        with open(os.open(output, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
            fh.write((text + "\n").encode())
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    except OSError as exc:
        raise ValueError(f"cannot write output {output}: {exc.strerror or exc}") from exc


def _emit(payload, output: str | None) -> None:
    _write(_json_text(payload), output)


def cmd_decompose(args) -> int:
    dec = symplectic_gram_schmidt(codes.load_parity_check(args.matrix_file), tol=args.tolerance)
    pairs, isotropic = codes._copied_rows(dec.rows, dec.l, dec.c)
    _emit(dict(zip("nklc", code_parameters(dec)), pairs=pairs.tolist(), isotropic=isotropic.tolist(), dropped_rows=list(dec.dropped_rows)), args.output)
    return EXIT_OK


def cmd_build(args) -> int:
    rows = codes.load_parity_check(args.matrix_file)
    code = codes.build_code(rows, tol=args.tolerance)
    _emit(codes.code_to_dict(code), args.output)
    return EXIT_OK


def _float_array(value, option: str) -> np.ndarray:
    """An option's JSON value as a float array (`codes.json_numbers`); a wrong JSON type or an integer beyond the doubles' range raises ValueError naming the option."""
    try:
        return codes.json_numbers(value)
    except (TypeError, OverflowError) as exc:
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
    if not np.isfinite(s).all():
        raise DimensionMismatchError("syndrome entries must be finite")
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
        payload["p"] = float(corr.u_prime[corr.mode_hypothesis - 1])
        payload["x"] = float(corr.u_prime[code.n + corr.mode_hypothesis - 1])
    _emit(payload, args.output)
    return EXIT_OK


def cmd_compile(args) -> int:
    code = codes.load_code(args.code_file)
    circuit, report = compiler.decompose(code)
    # the circuit file is a bare gate array; the report goes to stdout
    _write(_circuit_text(circuit), args.output)
    if args.output:
        _emit(report, None)
    return EXIT_OK


def cmd_verify(args) -> int:
    code = codes.load_code(args.code_file)
    circuit = compiler.load_circuit(args.circuit_file, n=code.n)
    deviation = compiler.verify_circuit(circuit, code)
    drawn = 2 * code.n > compiler.PROBES  # else the probes are the identity's 2n columns, and no seed is drawn
    probes = {"probes": compiler.PROBES, "probe_seed": compiler.PROBE_SEED} if drawn else {"probes": 2 * code.n, "probe_seed": None}
    _emit({"verified": True, "probe_deviation": deviation, **probes}, args.output)
    return EXIT_OK


def cmd_simulate(args) -> int:
    with open(args.config_file) as fh:
        cfg = json.load(fh)
    code = codes.load_code(codes.read_key(cfg, "code_file", str))
    mode, p, x = codes.read_key(cfg, "error", lambda err: (codes.json_int(err["mode"]), codes.json_number(err["p"]), codes.json_number(err["x"])))
    u = decoder.single_mode_error(code.n, mode, p, x)
    seed = codes.read_key(cfg, "seed", codes.json_int) if args.seed is None else args.seed
    stats = simulator.run_ec_experiment(
        code,
        u,
        r=codes.read_key(cfg, "squeezing_r", codes.json_number),
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
    record("encoding-map", defect <= 1e-8, f"max |H Y^T - F| = {_floats_text((defect,))}")

    rng = np.random.default_rng(7)
    worst = 0.0
    for mode in range(1, 5):
        for _ in range(25):
            p, x = rng.normal(size=2)
            got = decoder.syndrome(code, decoder.single_mode_error(4, mode, p, x))
            want = reference.syndrome_closed_form(mode, p, x)
            worst = max(worst, float(np.max(np.abs(got - want))))
    record("syndrome-table", worst <= 1e-9, f"max deviation = {_floats_text((worst,))}")

    circuit, _ = compiler.decompose(code)
    try:
        dev = compiler.verify_circuit(circuit, code)
        record("compiler-round-trip", True, f"probe deviation = {_floats_text((dev,))}")
    except CircuitVerificationError as exc:
        record("compiler-round-trip", False, str(exc))

    all_pass = all(r["passed"] for r in results)
    if args.json:
        _emit({"passed": all_pass, "checks": results}, args.output)
    else:
        lines = []
        for r in results:
            line = f"{'PASS' if r['passed'] else 'FAIL'}  {r['name']}"
            if r["detail"]:
                line += f"  ({r['detail']})"
            lines.append(line)
        lines.append("self-test: " + ("pass" if all_pass else "FAIL"))
        _write("\n".join(lines), args.output)
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
            p.add_argument("--tolerance", type=_tolerance, default=DEFAULT_TOL, help="zero threshold on the input rows: which are dependent, which products are zero")
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
    common(p)

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
