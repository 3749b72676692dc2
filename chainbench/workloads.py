"""Inputs of the three benchmark workloads.

Each workload is a list of operations that one round runs in order. An
operation is one chain ``build -> compile -> verify -> simulate`` on one
check-matrix file and one single-mode error; a run repeats whole rounds.

The check matrices are fixed per workload: the reference code is the
paper's example, and the random codes are drawn from generator seeds
that name their slot. So the compiled encoders, and with them
``gate_count``, ``squeezing_db`` and ``max_gate_param``, are exact
constants of the program rather than of the seed. The workload seed
drives everything the Monte-Carlo side sees: the error on each chain
(its mode and size) and every trial stream.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

# The paper's four-mode example, as integer rows a user would write:
# (n, k, l, c) = (4, 2, 0, 2).
REFERENCE_ROWS = [
    [1, 0, 1, 0, 0, 1, 0, 0],
    [1, 1, 0, 1, 0, 0, 0, 0],
    [0, 1, 0, 0, 1, 1, 1, 0],
    [0, 0, 0, 0, 1, 1, 0, 1],
]

# (n, l, c) of the random codes; k = n - l - c.
COMPILE_LARGE_CODES = ((32, 1, 8), (40, 3, 10), (48, 2, 12), (56, 5, 6), (64, 1, 16))
MC_MIDSIZE_CODES = ((16, 1, 4), (16, 3, 3), (16, 2, 5))

# Trial counts and squeezing of the Monte-Carlo chains.
REFERENCE_TRIALS = 2000
MIDSIZE_TRIALS = 2000
LARGE_TRIALS = 20
RANDOM_CODE_R = 5.0

# The chain kept as a standing failure: at r = 5 the syndrome of this small
# error lies under the decoder's absolute tolerance, so it decodes as "no
# error". Its inputs, the simulation seed included, do not depend on the
# workload seed.
KNOWN_FAILING = {"mode": 1, "p": 0.05, "x": 0.05, "r": 5.0, "sim_seed": 7}

WORKLOADS = ("reference-mc", "compile-large", "mc-midsize")


@dataclass(frozen=True)
class Operation:
    """One chain: which check matrix, which error, and how to simulate it."""

    index: int
    matrix: str  # file name of the check matrix, shared by chains on one code
    mode: int
    p: float
    x: float
    r: float
    trials: int
    sim_seed: int
    expect_fail: bool = False
    sweep: bool = False  # member of the r-sweep whose slope is checked


def random_symplectic(n: int, rng: np.random.Generator) -> np.ndarray:
    """A random symplectic phase-space map: diag(A, A^-T) times two shears."""
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    a = q1 @ np.diag(np.exp(rng.uniform(-0.5, 0.5, size=n))) @ q2
    eye, zero = np.eye(n), np.zeros((n, n))

    def sym():
        b = rng.normal(scale=0.3 / np.sqrt(n), size=(n, n))
        return (b + b.T) / 2

    scale = np.block([[a, zero], [zero, np.linalg.inv(a).T]])
    upper = np.block([[eye, sym()], [zero, eye]])
    lower = np.block([[eye, zero], [sym(), eye]])
    return scale @ upper @ lower


def random_code_rows(n: int, l: int, c: int) -> np.ndarray:
    """Rows of a random code with the given (n, l, c), fixed by (n, l, c).

    The canonical check of those parameters is carried through a random
    symplectic map and mixed by a random invertible row transform, so the
    rows are dense and the program has to find the pairs itself.
    """
    rng = np.random.default_rng([n, l, c])
    m = 2 * c + l
    canonical = np.zeros((m, 2 * n))
    for i in range(c):
        canonical[i, i] = 1.0
        canonical[c + l + i, n + i] = 1.0
    for i in range(l):
        canonical[c + i, c + i] = 1.0
    mix, _ = np.linalg.qr(rng.normal(size=(m, m)))
    mix = mix @ np.diag(np.exp(rng.uniform(-0.5, 0.5, size=m)))
    return mix @ canonical @ random_symplectic(n, rng).T


def _random_error(rng: np.random.Generator, n: int) -> tuple[int, float, float]:
    """A single-mode error on a random mode, each component of size 1.5 to 3."""
    mode = int(rng.integers(1, n + 1))
    p, x = rng.uniform(1.5, 3.0, size=2) * rng.choice([-1.0, 1.0], size=2)
    return mode, float(p), float(x)


def make_inputs(workload: str, seed: int) -> tuple[dict[str, np.ndarray], list[Operation]]:
    """Check matrices by file name, and the operations of one round."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    ops: list[Operation] = []

    def sim_seed() -> int:
        return int(rng.integers(0, 2**31))

    if workload == "reference-mc":
        matrices = {"reference.json": np.array(REFERENCE_ROWS, dtype=float)}
        for mode in range(1, 5):
            ops.append(Operation(len(ops), "reference.json", mode, 0.5, 0.5, 10.0, REFERENCE_TRIALS, sim_seed()))
        sweep_mode = int(rng.integers(1, 5))
        for r in (2.0, 3.0, 4.0, 5.0):
            ops.append(
                Operation(len(ops), "reference.json", sweep_mode, 3.0, 3.0, r, REFERENCE_TRIALS, sim_seed(), sweep=True)
            )
        kf = KNOWN_FAILING
        ops.append(
            Operation(
                len(ops), "reference.json", kf["mode"], kf["p"], kf["x"], kf["r"],
                REFERENCE_TRIALS, kf["sim_seed"], expect_fail=True,
            )
        )
        return matrices, ops

    shapes = COMPILE_LARGE_CODES if workload == "compile-large" else MC_MIDSIZE_CODES
    trials = LARGE_TRIALS if workload == "compile-large" else MIDSIZE_TRIALS
    matrices = {}
    for n, l, c in shapes:
        name = f"code-n{n}-l{l}-c{c}.json"
        matrices[name] = random_code_rows(n, l, c)
        mode, p, x = _random_error(rng, n)
        ops.append(Operation(len(ops), name, mode, p, x, RANDOM_CODE_R, trials, sim_seed()))
    return matrices, ops


def write_inputs(directory: str, workload: str, seed: int) -> list[Operation]:
    """Write the check-matrix and simulate-config files; return the operations."""
    matrices, ops = make_inputs(workload, seed)
    os.makedirs(directory, exist_ok=True)
    for name, rows in matrices.items():
        with open(os.path.join(directory, name), "w") as fh:
            json.dump({"n": rows.shape[1] // 2, "rows": rows.tolist()}, fh)
    for op in ops:
        config = {
            "code_file": os.path.join(directory, f"op{op.index}-code.json"),
            "error": {"mode": op.mode, "p": op.p, "x": op.x},
            "squeezing_r": op.r,
            "trials": op.trials,
            "seed": op.sim_seed,
        }
        with open(os.path.join(directory, f"op{op.index}-config.json"), "w") as fh:
            json.dump(config, fh)
    return ops
