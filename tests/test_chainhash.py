"""tools/chainhash.py, the identity harness: its digests hash what they name, and --against names the first difference."""

import hashlib
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _chainhash():
    """tools/chainhash.py, loaded by path under a module name of its own."""
    spec = importlib.util.spec_from_file_location("cvqec_test_chainhash", ROOT / "tools" / "chainhash.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_chainhash_digests_a_three_set_corpus_and_names_a_spoiled_digest(tmp_path, capsys):
    chainhash = _chainhash()
    # The paper's raw rows, the scaled rows whose chain files are checked in,
    # and a draw whose completed basis `verify_code` refuses (exit 4).
    sets = ["reference-raw", "data-scaled-rows", "draw-1e+05-s5"]
    assert chainhash.main(["--sets", *sets]) == 0
    digests = json.loads(capsys.readouterr().out)["sets"]
    assert list(digests) == sets
    assert tuple(digests["reference-raw"]) == chainhash.STAGES
    assert digests["data-scaled-rows"]["code"] == _sha((ROOT / "tests" / "data" / "scaled-rows-code.json").read_bytes())
    assert digests["data-scaled-rows"]["circuit"] == _sha((ROOT / "tests" / "data" / "scaled-rows-circuit.json").read_bytes())
    assert digests["draw-1e+05-s5"] == {"code": _sha(b"exit 4")}

    saved = tmp_path / "digests.json"
    saved.write_text(json.dumps({"sets": digests}))
    assert chainhash.main(["--sets", *sets, "--against", str(saved)]) == 0
    assert "all 11 digests of 3 sets are the same" in capsys.readouterr().err
    digests["data-scaled-rows"]["decode"] = _sha(b"spoiled")
    saved.write_text(json.dumps({"sets": digests}))
    assert chainhash.main(["--sets", *sets, "--against", str(saved)]) == 1
    assert capsys.readouterr().err.strip() == "chainhash: first difference: set data-scaled-rows, stage decode"
