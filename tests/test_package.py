"""What the package must keep: the names the benchmark tracer wraps, and the README's library example."""

import contextlib
import importlib
import importlib.util
import io
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tracer_module():
    """chainbench/tracer.py, loaded by path under a module name of its own."""
    spec = importlib.util.spec_from_file_location("cvqec_test_chainbench_tracer", ROOT / "chainbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    # A traced benchmark run looks each of these up when it starts, so a
    # name that no longer resolves crashes it.
    tracer = _tracer_module()
    names = [(module, attr) for module, attr, _ in tracer.SPANS + tracer.COUNTED]
    assert names
    missing = [(module, attr) for module, attr in names if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_the_readme_library_example_runs_as_written():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    source = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, "README.md", "exec"), {"__name__": "readme_example"})
    assert out.getvalue().splitlines() == ["1", "1.0"]


def test_the_tracer_counts_the_gates_of_what_decompose_returns():
    # A traced benchmark run hands `decompose`'s result to this hook, which
    # reads it as a (circuit, report) pair; the reference code's circuit
    # has 27 gates.
    from cvqec import codes, compiler, reference

    tracer = _tracer_module().Tracer()
    tracer._after_compiler_decompose(compiler.decompose(codes.build_code(reference.raw_parity_rows())), None)
    assert tracer.counters["compiler.gates_emitted"] == 27
