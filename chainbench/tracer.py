"""Spans and counters around the public functions of each cvqec layer.

The tracer wraps functions from outside the package: it replaces every
reference to a wrapped function in every loaded ``cvqec`` module, so
calls made through an imported name (``from .compiler import
compile_encoder``) are caught as well as calls through the module.
Nothing under ``src/`` changes, and ``uninstall`` puts the originals back.

Spans (name, operation, parent, start, end) and counters stay in memory
and are written once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, function, span name). The span name's prefix is its layer.
SPANS = (
    ("cvqec.cli", "cmd_build", "cli.build"),
    ("cvqec.cli", "cmd_compile", "cli.compile"),
    ("cvqec.cli", "cmd_verify", "cli.verify"),
    ("cvqec.cli", "cmd_simulate", "cli.simulate"),
    ("cvqec.codes", "build_code", "codes.build_code"),
    ("cvqec.codes", "load_code", "codes.load_code"),
    ("cvqec.codes", "verify_code", "codes.verify_code"),
    ("cvqec.decomposition", "symplectic_gram_schmidt", "decomposition.gram_schmidt"),
    ("cvqec.decomposition", "complete_symplectic_basis", "decomposition.complete_basis"),
    ("cvqec.symplectic", "require_symplectic", "symplectic.require_symplectic"),
    ("cvqec.compiler", "decompose", "compiler.decompose"),
    ("cvqec.compiler", "circuit_action", "compiler.circuit_action"),
    ("cvqec.simulator", "run_ec_experiment", "simulator.run_ec_experiment"),
    ("cvqec.simulator", "homodyne", "simulator.homodyne"),
    ("cvqec.simulator", "apply_symplectic", "simulator.apply_symplectic"),
    ("cvqec.decoder", "decode_single_mode", "decoder.decode"),
)

# Called O(n^2) times per compilation: counted, not spanned.
COUNTED = (("cvqec.compiler", "gate_action", "compiler.gate_action_calls"),)

LAYERS = ("cli", "codes", "decomposition", "symplectic", "compiler", "simulator", "decoder")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.current_op = -1
        self.expected_mode: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers = [self._span(name, getattr(sys.modules[module], attr)) for module, attr, name in SPANS]
        self._wrappers += [self._count(name, getattr(sys.modules[module], attr)) for module, attr, name in COUNTED]

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Point every cvqec module's reference to a wrapped function at its wrapper."""
        modules = [m for name, m in sys.modules.items() if name == "cvqec" or name.startswith("cvqec.")]
        for wrapper in self._wrappers:
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is wrapper.__wrapped__:
                        self._patches.append((module, key, value))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        # An outcome hook, if any, is named after the span: _after_<layer>_<function>.
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.op.append(self.current_op)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if after is not None:
                    after(None, exc)
                raise
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(result, None)
            return result

        return wrapper

    def _count(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_compiler_decompose(self, result, exc) -> None:
        if exc is None:
            self.counters["compiler.gates_emitted"] += len(result[0])

    def _after_decoder_decode(self, result, exc) -> None:
        if exc is not None:
            outcome = {"AmbiguousSyndromeError": "ambiguous", "UncorrectableSyndromeError": "uncorrectable"}
            self.counters["decoder." + outcome.get(type(exc).__name__, "error")] += 1
        elif result.mode_hypothesis is None:
            self.counters["decoder.none"] += 1
        elif result.mode_hypothesis == self.expected_mode:
            self.counters["decoder.match"] += 1
        else:
            self.counters["decoder.mismatch"] += 1

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def summarize(self, scale: np.ndarray | None = None) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds; per layer: total and self seconds.

        ``scale`` multiplies each span's duration (one factor per span).
        Self time is a span's duration less that of its direct children. A
        layer's total counts only its outermost spans, so nested calls
        within one layer are not counted twice.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        if scale is not None:
            dur = dur * scale
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in self.names], dtype=np.int32)
        span_layer = layer_of[a["name_id"]]
        parent_layer = np.where(has_parent, span_layer[np.maximum(a["parent"], 0)], -1)
        out: dict[str, dict[str, float]] = {}
        for nid, name in enumerate(self.names):
            sel = a["name_id"] == nid
            out[name] = {"calls": float(sel.sum()), "total_s": float(dur[sel].sum()), "self_s": float(own[sel].sum())}
        for lid, layer in enumerate(LAYERS):
            sel = span_layer == lid
            outer = sel & (parent_layer != lid)
            out["layer:" + layer] = {"total_s": float(dur[outer].sum()), "self_s": float(own[sel].sum())}
        return out

    def save(self, path: str) -> None:
        """Write spans as arrays, span names, and counters (as a JSON string) to an .npz file."""
        np.savez(path, names=np.array(self.names), counters=np.array(json.dumps(self.counters)), **self.arrays())
