import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from cvqec import cli, codes, compiler, reference, simulator
from cvqec.cli import build_parser, main
from cvqec.codes import canonical_parity_check, save_parity_check

from oracle import circuit_to_dicts


@pytest.fixture
def reference_matrix(tmp_path):
    path = tmp_path / "check.json"
    save_parity_check(path, reference.symplectic_basis_rows())
    return str(path)


@pytest.fixture
def code_file(tmp_path, reference_matrix):
    out = str(tmp_path / "code.json")
    assert main(["build", reference_matrix, "--output", out]) == 0
    return out


def read(path):
    with open(path) as fh:
        return json.load(fh)


def test_decompose_reference(tmp_path, reference_matrix, capsys):
    assert main(["decompose", reference_matrix]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["c"], payload["l"], payload["k"]) == (2, 0, 2)


def test_decompose_canonical_and_rank_deficient(tmp_path, capsys):
    f = canonical_parity_check(4, 2, 1, 1)
    path = tmp_path / "canon.json"
    save_parity_check(path, f)
    assert main(["decompose", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["c"], payload["l"], payload["k"]) == (1, 1, 2)

    doubled = tmp_path / "dup.json"
    save_parity_check(doubled, np.vstack([f, f[0]]))
    assert main(["decompose", str(doubled)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dropped_rows"] == [3]


def test_build_emits_verified_code(code_file):
    # The file holds the stored facts only; the encoding matrix they imply
    # carries the checks onto the canonical ones.
    payload = read(code_file)
    assert payload["format"] == 2
    h = np.array([u for u, _ in payload["pairs"]] + payload["isotropic"] + [v for _, v in payload["pairs"]])
    f = canonical_parity_check(*(payload["params"][key] for key in "nklc"))
    y = np.linalg.inv(np.array(payload["basis"]).T)
    assert np.max(np.abs(h @ y.T - f)) <= 1e-8


def test_build_standard_basis_gives_identity(tmp_path, capsys):
    e = np.eye(8)
    path = tmp_path / "std.json"
    save_parity_check(path, np.array([e[0], e[1], e[4], e[5]]))
    assert main(["build", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert np.allclose(np.array(payload["basis"]), np.eye(8))


def test_syndrome_known_values(code_file, capsys):
    assert main(["syndrome", code_file, "--mode", "1", "--p", "1", "--x", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    want = [1.0, 0.0, 1.0, -math.sqrt(0.5)]
    assert np.allclose(payload["syndrome"], want, atol=1e-11)
    # 12 significant digits: re-parsing is exact on the emitted decimal
    for value in payload["syndrome"]:
        assert value == float(f"{value:.12g}")


def test_syndrome_zero_error(code_file, capsys):
    assert main(["syndrome", code_file, "--mode", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["syndrome"] == [0.0, 0.0, 0.0, 0.0]


def test_decode_round_trip(code_file, capsys):
    assert main(["syndrome", code_file, "--mode", "1", "--p", "1", "--x", "1"]) == 0
    syndrome = json.loads(capsys.readouterr().out)["syndrome"]
    assert main(["decode", code_file, "--syndrome", json.dumps(syndrome)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == 1
    assert payload["p"] == pytest.approx(1.0, abs=1e-9)
    assert payload["x"] == pytest.approx(1.0, abs=1e-9)


def test_decode_uncorrectable_exit_code(code_file, capsys):
    assert main(["decode", code_file, "--syndrome", "[5.0, -3.0, 2.0, 9.0]"]) == 5


@pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("min_norm", [False, True], ids=["single-mode", "min-norm"])
@pytest.mark.parametrize("option", ["--syndrome", "--syndrome-file"])
def test_a_non_finite_syndrome_is_a_dimension_error(tmp_path, capsys, option, min_norm, entry):
    code_file = str(tmp_path / "code.json")
    assert main(["build", SCALED_ROWS, "--output", code_file]) == 0
    syndrome = f"[{entry}, 0.0, 0.0]"
    if option == "--syndrome-file":
        path = tmp_path / "syndrome.json"
        path.write_text(json.dumps({"syndrome": json.loads(syndrome)}))
        syndrome = str(path)
    assert main(["decode", code_file, option, syndrome] + ["--min-norm"] * min_norm) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "syndrome" in captured.err


def test_compile_and_verify(tmp_path, code_file, capsys):
    circ_path = str(tmp_path / "circuit.json")
    assert main(["compile", code_file, "--output", circ_path]) == 0
    capsys.readouterr()  # discard the compile report
    gates = read(circ_path)
    assert isinstance(gates, list) and gates
    assert all(set(g) <= {"gate", "modes", "param"} for g in gates)
    assert main(["verify", circ_path, code_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified"] is True

    tampered = read(circ_path)
    for gate in tampered:
        if "param" in gate:
            gate["param"] += 0.05
            break
    bad_path = tmp_path / "tampered.json"
    bad_path.write_text(json.dumps(tampered))
    assert main(["verify", str(bad_path), code_file]) == 6

    # A 1e-3 shear on a data mode of the ill-conditioned code: its rows of
    # size 1 are checked on their own scale, not on that of the 1e6 pair.
    ill_code, ill_circuit = str(tmp_path / "ill-code.json"), str(tmp_path / "ill-circuit.json")
    assert main(["build", ILL_CONDITIONED_ROWS, "--output", ill_code]) == 0
    assert main(["compile", ill_code, "--output", ill_circuit]) == 0
    assert main(["verify", ill_circuit, ill_code]) == 0
    bad_path.write_text(json.dumps(read(ill_circuit) + [{"gate": "PHASE_X", "modes": [3], "param": 1e-3}]))
    assert main(["verify", str(bad_path), ill_code]) == 6


def test_compile_canonical_code_empty(tmp_path, capsys):
    path = tmp_path / "canon.json"
    save_parity_check(path, canonical_parity_check(3, 1, 1, 1))
    code_path = str(tmp_path / "canon_code.json")
    assert main(["build", path.as_posix(), "--output", code_path]) == 0
    assert main(["compile", code_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == []


def test_simulate_deterministic(tmp_path, code_file):
    cfg = {
        "code_file": code_file,
        "error": {"mode": 1, "p": 0.5, "x": 0.5},
        "squeezing_r": 8.0,
        "trials": 50,
        "seed": 17,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = str(tmp_path / "s1.json"), str(tmp_path / "s2.json")
    assert main(["simulate", str(cfg_path), "--output", out1]) == 0
    assert main(["simulate", str(cfg_path), "--output", out2]) == 0
    a, b = read(out1), read(out2)
    assert a == b
    assert a["mode_match_rate"] == 1.0

    out3 = str(tmp_path / "s3.json")
    assert main(["simulate", str(cfg_path), "--seed", "18", "--output", out3]) == 0
    assert read(out3)["mean_residual"] != a["mean_residual"]


def test_selftest(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "self-test: pass" in out
    assert main(["selftest", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert all(check["passed"] for check in payload["checks"])


def test_tampered_code_file_fails_verification(tmp_path, code_file):
    payload = read(code_file)
    payload["basis"][0][0] += 0.25
    bad = tmp_path / "bad_code.json"
    bad.write_text(json.dumps(payload))
    assert main(["syndrome", str(bad), "--mode", "1", "--p", "1"]) == 4


def test_selftest_detects_corrupted_fixture(monkeypatch, capsys):
    from cvqec import reference

    good = reference.syndrome_closed_form
    monkeypatch.setattr(reference, "syndrome_closed_form", lambda m, p, x: good(m, p, x) + 0.5)
    assert main(["selftest"]) == 4
    assert "FAIL" in capsys.readouterr().out


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["decompose", str(bad)]) == 2
    assert main(["decompose", str(tmp_path / "missing.json")]) == 2


def test_dimension_error_exit_code(tmp_path):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"n": 3, "rows": [[1.0, 0.0, 0.0, 0.0]]}))
    assert main(["decompose", str(path)]) == 3


def test_compile_elimination_failure_exit_code(monkeypatch, tmp_path, code_file):
    # Skipping every elimination gate leaves the identity unreached.
    monkeypatch.setattr(compiler, "GATE_EPS", 1e6)
    assert main(["compile", code_file, "--output", str(tmp_path / "circuit.json")]) == 6


def test_simulate_does_not_compile(monkeypatch, tmp_path, code_file):
    def refuse(*args, **kwargs):
        raise AssertionError("simulate compiled a circuit")

    for module in (compiler, simulator):
        for name in ("decompose", "circuit_action"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    cfg = {"code_file": code_file, "error": {"mode": 2, "p": 0.5, "x": -0.5}, "squeezing_r": 8.0, "trials": 50, "seed": 3}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = str(tmp_path / "sim.json")
    assert main(["simulate", str(cfg_path), "--output", out]) == 0
    assert read(out)["mode_match_rate"] == 1.0


@pytest.mark.parametrize("r, exit_code", [("-1", 2), ("NaN", 2), ("800", 0), ("1e400", 0)])
def test_simulate_bounds_the_squeezing(tmp_path, code_file, r, exit_code):
    # A negative or NaN squeezing is refused as bad input; any larger one,
    # infinity included, reads the syndromes without noise.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        f'{{"code_file": {json.dumps(code_file)}, "error": {{"mode": 1, "p": 0.5, "x": 0.5}}, '
        f'"squeezing_r": {r}, "trials": 20, "seed": 1}}'
    )
    out = str(tmp_path / "sim.json")
    assert main(["simulate", str(cfg_path), "--output", out]) == exit_code
    if exit_code == 0:
        stats = read(out)
        assert stats["syndrome_noise_variance"] == [0.0] * 4
        assert stats["mode_match_rate"] == 1.0


CODE_KEYS = {"format", "params", "basis", "pairs", "isotropic", "dropped_rows", "input_rows"}
REPORT_KEYS = {"gate_counts", "squeezer_count", "max_abs_param", "rounds"}


def assert_rounded(got, want):
    """Every float in ``got`` is ``want``'s float rounded to 12 significant digits; the rest is equal."""
    if isinstance(want, float):
        assert type(got) is float and got == float(f"{want:.12g}")
    elif isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            assert_rounded(got[key], want[key])
    elif isinstance(want, (list, tuple)):
        assert isinstance(got, list) and len(got) == len(want)
        for a, b in zip(got, want):
            assert_rounded(a, b)
    else:
        assert type(got) is type(want) and got == want


@pytest.mark.parametrize("seed", [None, 11])
def test_chain_files_are_compact_and_rounded_to_12_digits(tmp_path, capsys, seed):
    rows = reference.symplectic_basis_rows() if seed is None else np.random.default_rng(seed).normal(size=(5, 12))
    matrix, code_path, circuit_path = (str(tmp_path / name) for name in ("check.json", "code.json", "circuit.json"))
    save_parity_check(matrix, rows)
    assert main(["build", matrix, "--output", code_path]) == 0
    assert main(["compile", code_path, "--output", circuit_path]) == 0
    report = json.loads(capsys.readouterr().out)
    for path in (code_path, circuit_path):
        with open(path) as fh:
            assert fh.read().count("\n") == 1  # one line of compact JSON

    code_file = read(code_path)
    assert set(code_file) == CODE_KEYS
    assert_rounded(code_file, codes.code_to_dict(codes.build_code(codes.load_parity_check(matrix), tol=1e-9)))

    circuit, want_report = compiler.decompose(compiler.encoder_quad_action(codes.load_code(code_path)), tol=1e-9)
    gates = read(circuit_path)
    assert gates and all(set(g) in ({"gate", "modes"}, {"gate", "modes", "param"}) for g in gates)
    assert_rounded(gates, circuit_to_dicts(circuit))
    assert set(report) == REPORT_KEYS
    assert_rounded(
        report,
        {
            "gate_counts": want_report.gate_counts,
            "squeezer_count": want_report.squeezer_count,
            "max_abs_param": want_report.max_abs_param,
            "rounds": want_report.rounds,
        },
    )


def rounding_then_encoding(value) -> str:
    """A float's JSON text as the CLI wrote it before writing in one pass: rounded, parsed back, encoded."""
    return json.dumps(float("%.12g" % value))


FLOATS = st.one_of(
    st.floats(),  # arbitrary doubles, NaN and the infinities among them
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072014e-308, 1e16, 1e12, 1e-4]),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),  # subnormals
    st.integers(-(2**64), 2**64).map(float),  # integral values
    st.builds(  # near the 1e-4, 1e12 and 1e16 notation boundaries, on both sides after rounding
        lambda boundary, offset: boundary * (1.0 + offset),
        st.sampled_from([1e-4, -1e-4, 1e12, -1e12, 1e16, -1e16]),
        st.floats(-1e-11, 1e-11),
    ),
)


@settings(max_examples=1000, deadline=None)
@given(st.lists(FLOATS, max_size=6))
def test_floats_are_written_as_rounding_then_encoding_wrote_them(values):
    assert cli._floats_text(values) == ", ".join(map(rounding_then_encoding, values))
    for value in values:
        assert cli._floats_text((value,)) == rounding_then_encoding(value)
    payload = {"row": values, "pair": [values, values], "value": values[0] if values else None}
    assert cli._json_text(payload, {}) == json.dumps(json.loads(json.dumps(payload), parse_float=lambda text: float("%.12g" % float(text))))


def rounded_circuit(circuit: compiler.Circuit) -> compiler.Circuit:
    """The circuit with every parameter rounded to 12 significant digits, a run's entry by entry."""
    def rounded(param):
        if isinstance(param, np.ndarray):
            return np.array([float("%.12g" % g) for g in param.tolist()])
        return None if param is None else float("%.12g" % param)

    return compiler.Circuit(circuit.n, tuple((kind, modes, rounded(param)) for kind, modes, param in circuit.records))


def test_circuit_text_is_the_rounded_circuits_gate_list(rng):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "chainbench"))
    from workloads import random_code_rows

    compiled, _ = compiler.decompose(compiler.encoder_quad_action(codes.build_code(random_code_rows(16, 3, 3))))
    circuits = [compiled]

    def params(size):
        # parameters of all sizes, integral ones and ones in the band where %g and repr disagree among them
        return rng.choice([1.0, -3.0, 1.0 / 3.0, 2e12 / 3.0, 7e13, 1e-5 / 7.0], size) * rng.choice([1.0, 10.0 ** rng.integers(-8, 8)])

    for _ in range(10):
        circuits.append(compiler.Circuit(8, (
            compiler.fourier(2),
            ("QND_X", (1, range(2, 6)), params(4)),
            compiler.squeeze(3, float(params(1)[0])),
            ("QND_P", (7, np.array([4, 2, 8])), params(3)),
            ("QND_X", (5, range(8, 1, -3)), params(3)),
            compiler.qnd_p(3, 6, float(params(1)[0])),
            compiler.swap(1, 8),
        )))
    for circuit in circuits:
        text = cli._circuit_text(circuit)
        assert json.loads(text) == circuit_to_dicts(rounded_circuit(circuit))
        assert text == json.dumps(circuit_to_dicts(rounded_circuit(circuit)))


@pytest.mark.parametrize(
    "gate, exit_code",
    [
        ({"gate": "BEAMSPLITTER", "modes": [1, 2], "param": 0.5}, 2),
        ({"gate": "PHASE_X", "modes": [1], "param": float("nan")}, 2),
        ({"gate": "SQUEEZE", "modes": [1], "param": 0.0}, 2),
        ({"gate": "QND_X", "modes": [1], "param": 0.5}, 2),
        ({"gate": "SWAP", "modes": 1}, 2),
        ({"gate": "SWAP", "modes": [1, 5]}, 3),
        ({"gate": "SWAP", "modes": [3.7, 4]}, 2),
        ({"gate": "SWAP", "modes": ["3", "4"]}, 2),
        ({"gate": "SWAP", "modes": [True, 2]}, 2),
        ({"gate": "PHASE_X", "modes": [1], "param": "0.75"}, 2),
        ({"gate": "PHASE_X", "modes": [1], "param": True}, 2),
        ({"gate": "PHASE_X", "modes": [1], "param": 10**400}, 2),
        ({"gate": "SWAP", "modes": [1, 10**400]}, 3),
    ],
    ids=[
        "unknown-kind",
        "nan-param",
        "zero-squeeze",
        "wrong-mode-count",
        "modes-not-a-list",
        "mode-above-n",
        "mode-float",
        "mode-string",
        "mode-bool",
        "param-string",
        "param-bool",
        "param-beyond-doubles",
        "mode-beyond-doubles",
    ],
)
def test_verify_rejects_malformed_circuit_files(tmp_path, code_file, gate, exit_code):
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps([{"gate": "FOURIER", "modes": [1]}, gate]))
    assert main(["verify", str(path), code_file]) == exit_code


@pytest.mark.parametrize("payload", [5, None, "FOURIER", {"gate": "FOURIER", "modes": [1]}, [{"gate": "FOURIER", "modes": [1]}, [1, 2]]])
def test_verify_rejects_a_circuit_file_that_is_no_array_of_objects(tmp_path, code_file, capsys, payload):
    # A number or null crashed with a TypeError traceback; each exits 2 now.
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(payload))
    assert main(["verify", str(path), code_file]) == 2
    assert capsys.readouterr().err.startswith("error:")


def chain_outputs(tmp_path, code_path, tag):
    """Bytes of the circuit, verify and simulate files that one code file gives, at a fixed seed."""
    circuit, verify, sim, cfg = (str(tmp_path / f"{tag}-{name}.json") for name in ("circuit", "verify", "sim", "cfg"))
    with open(cfg, "w") as fh:
        json.dump({"code_file": code_path, "error": {"mode": 3, "p": 0.5, "x": -0.25}, "squeezing_r": 6.0, "trials": 40, "seed": 5}, fh)
    assert main(["compile", code_path, "--output", circuit]) == 0
    assert main(["verify", circuit, code_path, "--output", verify]) == 0
    assert main(["simulate", cfg, "--output", sim]) == 0
    outputs = []
    for path in (circuit, verify, sim):
        with open(path, "rb") as fh:
            outputs.append(fh.read())
    return outputs


SCALED_ROWS = os.path.join(os.path.dirname(__file__), "data", "scaled-rows.json")
# Rows e_1 and e_2 + 1e-6 e_7 on n = 6 modes: the pair's partner is rescaled
# to entries of 1e6, while the other basis rows keep entries of order 1.
ILL_CONDITIONED_ROWS = os.path.join(os.path.dirname(__file__), "data", "ill-conditioned-rows.json")


def _scaled_random_rows(seed):
    """n = 2..8 modes, 2..n+1 rows (the last one dependent in about half the draws), scaled by 10^-2..10^5."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    rows = rng.normal(size=(int(rng.integers(2, n + 2)), 2 * n))
    if len(rows) > 2 and rng.random() < 0.5:
        rows[-1] = rng.normal() * rows[0] + rng.normal() * rows[1]
    return rows * 10.0 ** rng.uniform(-2.0, 5.0)


def test_every_built_code_runs_the_chain_or_fails_compile_loudly(tmp_path):
    # A code that loads has a basis checked on one scale, and nothing in
    # the chain checks it again on another: compile either succeeds, and
    # then verify and simulate do too, or misses the identity and exits 6.
    matrix, code, circuit, cfg = (str(tmp_path / f"{name}.json") for name in ("matrix", "code", "circuit", "cfg"))
    with open(cfg, "w") as fh:
        json.dump({"code_file": code, "error": {"mode": 1, "p": 0.5, "x": 0.5}, "squeezing_r": 5.0, "trials": 20, "seed": 1}, fh)
    inputs = [codes.load_parity_check(SCALED_ROWS)] + [_scaled_random_rows(seed) for seed in range(60)]
    built = 0
    for index, rows in enumerate(inputs):
        save_parity_check(matrix, rows)
        if main(["build", matrix, "--output", code]) != 0:
            continue
        built += 1
        exit_code = main(["compile", code, "--output", circuit])
        assert exit_code in (0, 6), index
        if exit_code == 0:
            assert main(["verify", circuit, code, "--output", str(tmp_path / "verify.json")]) == 0, index
            assert main(["simulate", cfg, "--output", str(tmp_path / "sim.json")]) == 0, index
    assert built >= 50


def test_tolerance_is_an_option_only_where_it_is_read(code_file):
    for argv in (["decompose", "m.json"], ["build", "m.json"], ["compile", code_file]):
        assert build_parser().parse_args(argv + ["--tolerance", "1e-8"]).tolerance == 1e-8
    for argv in (["syndrome", code_file], ["decode", code_file], ["verify", "c.json", code_file], ["simulate", "cfg.json"], ["selftest"]):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + ["--tolerance", "1e-8"])


@pytest.mark.parametrize(
    "argv, option",
    [
        (["decode", "CODE", "--syndrome", "[0, 1, 1, 0]", "--tolerance-decode", "nan"], "--tolerance-decode"),
        (["decode", "CODE", "--syndrome", "[0, 1, 1, 0]", "--tolerance-decode", "inf"], "--tolerance-decode"),
        (["decode", "CODE", "--syndrome", "[0, 1, 1, 0]", "--tolerance-decode", "-0.5"], "--tolerance-decode"),
        (["decompose", "MATRIX", "--tolerance", "nan"], "--tolerance"),
        (["build", "MATRIX", "--tolerance", "inf"], "--tolerance"),
        (["compile", "CODE", "--tolerance", "-1"], "--tolerance"),
        (["compile", "CODE", "--tolerance", "nan"], "--tolerance"),
        (["compile", "CODE", "--tolerance", "1e400"], "--tolerance"),
    ],
    ids=["decode-nan", "decode-inf", "decode-negative", "decompose-nan", "build-inf", "compile-negative", "compile-nan", "compile-overflow"],
)
def test_a_tolerance_must_be_a_finite_number_at_least_zero(reference_matrix, code_file, capsys, argv, option):
    # Each of these ran at the parent: exit 0 with a wrong result, or 3, 5 or 6.
    with pytest.raises(SystemExit) as exc:
        main([{"CODE": code_file, "MATRIX": reference_matrix}.get(arg, arg) for arg in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: cvqec") and f"argument {option}: must be a finite number >= 0" in err


def test_a_zero_tolerance_is_allowed(reference_matrix, code_file):
    assert main(["decompose", reference_matrix, "--tolerance", "0"]) == 0
    assert main(["decode", code_file, "--syndrome", "[0, 0, 0, 0]", "--tolerance-decode", "0"]) == 0


V1_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "reference-code-v1.json")


def test_old_format_code_file_gives_the_same_chain(tmp_path, capsys):
    # The fixture is a code file from before the "format" key, with the
    # derived matrices it then stored; they are ignored on load.
    old = read(V1_FIXTURE)
    assert "format" not in old and {"h", "f", "h_aug", "f_aug", "upsilon"} <= set(old)
    assert tuple(codes.load_code(V1_FIXTURE).params) == (4, 2, 0, 2)
    matrix, fresh = str(tmp_path / "raw.json"), str(tmp_path / "code.json")
    save_parity_check(matrix, reference.raw_parity_rows())
    assert main(["build", matrix, "--output", fresh]) == 0
    assert read(fresh)["format"] == 2
    from_old = chain_outputs(tmp_path, V1_FIXTURE, "old")
    old_report = capsys.readouterr().out
    from_new = chain_outputs(tmp_path, fresh, "new")
    assert from_old == from_new
    assert old_report == capsys.readouterr().out


def test_unknown_code_format_exit_code(tmp_path, code_file):
    payload = dict(read(code_file), format=3)
    path = tmp_path / "future.json"
    path.write_text(json.dumps(payload))
    assert main(["syndrome", str(path), "--mode", "1", "--p", "1"]) == 2


def _params_same_m(payload):
    # (4, 2, 0, 2) -> (4, 1, 2, 1) keeps m and k + l + c = n; pairs and
    # isotropic are rewritten to the basis rows the new params name, so
    # only the input rows can tell.
    basis = payload["basis"]
    payload.update(params={"n": 4, "k": 1, "l": 2, "c": 1}, pairs=[[basis[0], basis[4]]], isotropic=basis[1:3])


def _shift_isotropic_entry(payload):
    payload["isotropic"][0][0] += 0.25


def _foreign_input_rows(payload):
    payload["input_rows"] = np.random.default_rng(0).normal(size=np.shape(payload["input_rows"])).tolist()


def _shift_pair_entry(payload):
    payload["pairs"][0][0][0] += 0.25


def _foreign_dropped_row(payload):
    payload["dropped_rows"].append(len(payload["input_rows"]))
    payload["input_rows"].append(np.random.default_rng(0).normal(size=len(payload["input_rows"][0])).tolist())


def _dropped_row_out_of_range(payload):
    payload["dropped_rows"].append(len(payload["input_rows"]))


def _shift_basis_entry(row, column, delta):
    def tamper(payload):
        payload["basis"][row][column] += delta

    return tamper


def _independent_row_dropped(payload):
    # A copy of input row 0 is appended and row 1 named as dropped: the
    # rows left number m but span only m - 1 dimensions.
    payload["input_rows"].append(payload["input_rows"][0])
    payload["dropped_rows"] = [1]


@pytest.mark.parametrize(
    "matrix, tamper",
    [
        (None, lambda payload: payload.update(params={"n": 4, "k": 1, "l": 1, "c": 2})),
        (None, lambda payload: payload.update(params={"n": 4, "k": 3, "l": 0, "c": 1})),
        (None, _params_same_m),
        (None, _shift_pair_entry),
        # The (5, 3, 1, 1) code of the scaled rows has an isotropic check.
        (SCALED_ROWS, _shift_isotropic_entry),
        (None, _foreign_input_rows),
        (None, _foreign_dropped_row),
        (None, _dropped_row_out_of_range),
        # Data rows of the (6, 5, 0, 1) code, whose largest basis entry is 1e6.
        (ILL_CONDITIONED_ROWS, _shift_basis_entry(5, 5, 0.5)),
        (ILL_CONDITIONED_ROWS, _shift_basis_entry(2, 3, 1e-3)),
        (None, _independent_row_dropped),
    ],
    ids=[
        "params-sum-off",
        "params-one-pair",
        "params-same-m",
        "pair-entry-shifted",
        "isotropic-entry-shifted",
        "foreign-input-rows",
        "foreign-dropped-row",
        "dropped-row-out-of-range",
        "basis-data-entry-0.5",
        "basis-data-entry-1e-3",
        "dropped-row-independent",
    ],
)
def test_tampered_code_file_is_rejected_at_load(tmp_path, code_file, matrix, tamper):
    if matrix is not None:
        code_file = str(tmp_path / "scaled-code.json")
        assert main(["build", matrix, "--output", code_file]) == 0
    circuit = str(tmp_path / "circuit.json")
    assert main(["compile", code_file, "--output", circuit]) == 0
    payload = read(code_file)
    tamper(payload)
    bad = str(tmp_path / "tampered.json")
    with open(bad, "w") as fh:
        json.dump(payload, fh)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"code_file": bad, "error": {"mode": 1, "p": 0.5, "x": 0.5}, "squeezing_r": 8.0, "trials": 10, "seed": 1}))
    assert main(["compile", bad, "--output", str(tmp_path / "out.json")]) == 4
    assert main(["verify", circuit, bad]) == 4
    assert main(["simulate", str(cfg)]) == 4
    assert main(["syndrome", bad, "--mode", "1", "--p", "1"]) == 4


def _within_scaled_gram_bound(basis, tol):
    """Each entry of B J B^T - J within tol * max(1, |b_i| |b_j|), the largest entries of rows i and j."""
    n = len(basis) // 2
    form = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    size = np.max(np.abs(basis), axis=1)
    return bool(np.all(np.abs(basis @ form @ basis.T - form) <= tol * np.maximum(1.0, np.outer(size, size))))


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0), st.floats(-12.0, 0.0))
# Loads and compiles, but the elimination amplifies the 6e-10 Gram defect
# into a 1.2e-7 deviation, so verify exits 6, as it does under the old bound.
@example(n=2, seed=4838662, log_scale=0.0, log_delta=-9.0)
def test_a_tampered_basis_entry_is_refused_or_within_the_scaled_bound(tmp_path_factory, n, seed, log_scale, log_delta):
    # A build drawn as in test_codes.py's round trip; then one basis entry
    # moves by 10^log_delta times the largest entry of its row, and pairs and
    # isotropic are rewritten to match, so only the basis checks can refuse it.
    rng = np.random.default_rng(seed)
    rows = 10.0**log_scale * rng.normal(size=(int(rng.integers(1, n + 1)), 2 * n))
    dropped = [rng.normal(size=len(rows)) @ rows, 1e-11 * rng.normal(size=2 * n), np.zeros(2 * n)]
    rows = np.vstack([rows] + dropped[: int(rng.integers(0, 4))])
    work = tmp_path_factory.mktemp("tamper")
    matrix, code, bad, circuit = (str(work / f"{name}.json") for name in ("matrix", "code", "bad", "circuit"))
    save_parity_check(matrix, rows[rng.permutation(len(rows))])
    if main(["build", matrix, "--output", code]) != 0:
        reject()  # about one draw in forty at scale 1e-3 (a known build defect)
    payload = read(code)
    basis = np.array(payload["basis"])
    i, j = rng.integers(0, 2 * n, size=2)
    basis[i, j] += rng.choice([-1.0, 1.0]) * 10.0**log_delta * np.max(np.abs(basis[i]))
    l, c = payload["params"]["l"], payload["params"]["c"]
    h = basis[np.r_[: c + l, n : n + c]].tolist()
    payload.update(basis=basis.tolist(), pairs=[[h[k], h[c + l + k]] for k in range(c)], isotropic=h[c : c + l])
    with open(bad, "w") as fh:
        json.dump(payload, fh)
    exit_code = main(["compile", bad, "--output", circuit])
    if exit_code == 4:
        return
    # Loaded: the basis meets the bound, and the chain succeeds or fails loudly.
    assert _within_scaled_gram_bound(basis, 1e-9)
    assert exit_code in (0, 6)
    if exit_code == 0:
        assert main(["verify", circuit, bad]) in (0, 6)


def _code_with(key, value):
    return lambda payload: dict(payload, **{key: value})


@pytest.mark.parametrize(
    "kind, edit",
    [
        ("code", _code_with("params", [4, 2, 0, 2])),
        ("code", _code_with("pairs", 5)),
        ("code", _code_with("isotropic", None)),
        ("code", _code_with("dropped_rows", None)),
        ("code", lambda payload: [payload]),
        ("matrix", lambda payload: [payload]),
        ("config", lambda cfg: [cfg]),
        ("config", lambda cfg: dict(cfg, error=[1, 0.5, 0.5])),
        ("config", lambda cfg: dict(cfg, trials=None)),
    ],
    ids=[
        "code-params-list",
        "code-pairs-int",
        "code-isotropic-null",
        "code-dropped-rows-null",
        "code-top-level-list",
        "matrix-top-level-list",
        "config-top-level-list",
        "config-error-list",
        "config-trials-null",
    ],
)
def test_wrong_json_types_exit_as_parse_errors(tmp_path, code_file, capsys, kind, edit):
    # Valid JSON of the wrong shape exits 2 with a message, not a traceback.
    path = str(tmp_path / "input.json")
    source, argv = {
        "code": (read(code_file), ["syndrome", path, "--mode", "1", "--p", "1"]),
        "matrix": ({"n": 1, "rows": [[1.0, 0.0]]}, ["build", path]),
        "config": ({"code_file": code_file, "error": {"mode": 1, "p": 0.5, "x": 0.5}, "squeezing_r": 5.0, "trials": 10, "seed": 1}, ["simulate", path]),
    }[kind]
    with open(path, "w") as fh:
        json.dump(edit(source), fh)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def _set(path, value):
    """Edit that sets payload[path[0]][path[1]]... to value."""

    def edit(payload):
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return payload

    return edit


@pytest.mark.parametrize(
    "kind, edit, key",
    [
        ("matrix", _set(["n"], 4.5), "n"),
        ("matrix", lambda m: {"n": True, "rows": [[1.0, 0.0]]}, "n"),
        ("code", _set(["params", "k"], 2.5), "params"),
        ("code", _set(["params", "l"], False), "params"),
        ("dependent-code", _set(["dropped_rows", 0], 4.9), "dropped_rows"),
        ("dependent-code", _set(["dropped_rows", 0], True), "dropped_rows"),
        ("config", _set(["trials"], 10.5), "trials"),
        ("config", _set(["seed"], True), "seed"),
        ("config", _set(["error", "mode"], 1.5), "error"),
    ],
    ids=["n-float", "n-bool", "params-float", "params-bool", "dropped-float", "dropped-bool", "trials-float", "seed-bool", "mode-float"],
)
def test_integer_fields_must_be_integers(tmp_path, reference_matrix, code_file, capsys, kind, edit, key):
    # int() used to truncate these or read a bool as 0 or 1, so each edit
    # still made a valid input: n = 4.5 as 4, k = 2.5 as 2, row 4.9 as 4.
    rows = reference.raw_parity_rows()
    dependent = str(tmp_path / "dependent-code.json")
    save_parity_check(tmp_path / "dependent.json", np.vstack([rows, rows[:1]]))
    assert main(["build", str(tmp_path / "dependent.json"), "--output", dependent]) == 0
    assert read(dependent)["dropped_rows"] == [4]
    path = str(tmp_path / "input.json")
    source, argv = {
        "matrix": (read(reference_matrix), ["build", path]),
        "code": (read(code_file), ["syndrome", path, "--mode", "1", "--p", "1"]),
        "dependent-code": (read(dependent), ["syndrome", path, "--mode", "1", "--p", "1"]),
        "config": ({"code_file": code_file, "error": {"mode": 1, "p": 0.5, "x": 0.5}, "squeezing_r": 5.0, "trials": 10, "seed": 1}, ["simulate", path]),
    }[kind]
    with open(path, "w") as fh:
        json.dump(edit(source), fh)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err


def test_decode_needs_exactly_one_syndrome_option(code_file):
    for extra in ([], ["--syndrome", "[0, 0, 0, 0]", "--syndrome-file", "s.json"]):
        with pytest.raises(SystemExit) as exc:
            main(["decode", code_file] + extra)
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, option",
    [
        (["syndrome", "CODE", "--error", '{"a": 1}'], "--error"),
        (["decode", "CODE", "--syndrome", '{"x": 1}'], "--syndrome"),
        (["decode", "CODE", "--syndrome-file", "SYNDROME"], "--syndrome-file"),
    ],
    ids=["error-object", "syndrome-object", "syndrome-file-object"],
)
def test_wrong_json_types_in_options_exit_as_parse_errors(tmp_path, code_file, capsys, argv, option):
    # These raised TypeError, a traceback and exit 1.
    syndrome = tmp_path / "syndrome.json"
    syndrome.write_text(json.dumps({"syndrome": {"x": 1}}))
    assert main([{"CODE": code_file, "SYNDROME": str(syndrome)}.get(arg, arg) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and option in err


def test_repeated_main_calls_build_the_parser_once(monkeypatch, code_file):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    try:
        for _ in range(3):
            assert main(["syndrome", code_file, "--mode", "1", "--p", "1"]) == 0
        assert build_parser() is build_parser()
    finally:
        build_parser.cache_clear()
    assert built.count("cvqec") == 1


def test_a_command_patched_after_the_first_call_is_the_one_that_runs(monkeypatch, tmp_path, code_file):
    # The benchmark's tracer wraps cli.cmd_* by setattr after the parser may
    # already exist; the wrapper, not the original, must then run.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"code_file": code_file, "error": {"mode": 1, "p": 0.5, "x": 0.5}, "squeezing_r": 8.0, "trials": 10, "seed": 1}))
    assert main(["simulate", str(cfg)]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_simulate", lambda args: seen.append(args.seed) or 7)
    assert main(["simulate", str(cfg), "--seed", "3"]) == 7
    assert seen == [3]


@pytest.mark.parametrize(
    "argv, exit_code",
    [(["--help"], 0), (["build", "--help"], 0), ([], 2), (["bogus"], 2), (["build"], 2), (["simulate", "c.json", "--seed", "x"], 2)],
    ids=["help", "build-help", "no-command", "unknown-command", "missing-argument", "bad-type"],
)
def test_help_and_usage_errors_repeat_exactly(capsys, argv, exit_code):
    results = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        results.append((exc.value.code, capsys.readouterr()))
    assert results[0] == results[1]
    code, output = results[0]
    assert code == exit_code and (output.out if exit_code == 0 else output.err).startswith("usage: cvqec")
