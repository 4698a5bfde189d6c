"""Workload definitions, seeded inputs and the golden-output check.

Every op is one `kpem` command line run in-process through `kpem.cli.main`.
Ops that take a state draw it from a pool of POOL_SIZE Haar states per
state shape; the workload seed picks the pool member for each op of each
pass, so the same seed gives the same inputs, and golden.json holds the
expected output of every (op, pool member) pair.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

POOL_SIZE = 8
VALUE_TOL = 1e-12  # relative to max(1, |golden|)
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# Shape name -> tensor factors, each a tuple of local dimensions.  Every
# factor is an independent Haar-random amplitude vector, so a one-factor
# shape is genuinely entangled and a multi-factor shape is a product state.
SHAPES: dict[str, tuple[tuple[int, ...], ...]] = {
    **{f"qubits{n}": ((2,) * n,) for n in (8, 9, 10, 11, 12)},
    "ququarts7": ((4,) * 7,),
    "qutrits8": ((3,) * 8,),
    "product12": ((2,) * 5, (2,) * 4, (2,) * 3),
}


@dataclass(frozen=True)
class Op:
    """One command line; `shape` names the pool its `--state` comes from."""

    name: str
    argv: tuple[str, ...]
    shape: Optional[str] = None


def _compute(measure: str, k: int, shape: str, h: Optional[str] = None) -> Op:
    argv = ("compute", "--measure", measure, "--k", str(k), "--json")
    if h is not None:
        argv += ("--h", h)
    tag = measure if h is None else f"{measure}[{h}]"
    return Op(f"compute {tag} k={k} {shape}", argv, shape)


def _factorize(shape: str) -> Op:
    return Op(f"factorize {shape}", ("factorize", "--json"), shape)


AUDIT = Op("audit", ("audit", "--json"))
AUDIT_SMALL = Op("audit trials=2", ("audit", "--json", "--trials", "2"))
PAPER_EXAMPLES = Op("paper-examples", ("paper-examples",))

SWEEP_LADDER = tuple(
    _compute("Eprime", k, f"qubits{n}", "entropy")
    for n, k in ((8, 4), (10, 5), (11, 4), (12, 3))
)
SWEEP_MIX = (
    _compute("C", 4, "qubits9"),
    _compute("Cq:2", 4, "qubits10"),
    _compute("Calpha:0.5", 5, "qubits9"),
    _compute("CGq:2", 5, "qubits9"),
    _compute("CGalpha:0.5", 9, "qubits9"),
)

DENSE_SMALL = (
    _factorize("qutrits8"),
    _compute("E", 3, "qutrits8", "concurrence"),
    _compute("calE", 8, "qutrits8", "concurrence"),
    _factorize("product12"),
    _compute("E", 3, "product12", "entropy"),
    _compute("calE", 3, "product12", "entropy"),
)
DENSE = (
    _factorize("qubits12"),
    *(_compute(m, k, "qubits12", "entropy") for m in ("E", "calE") for k in (3, 12)),
    _factorize("ququarts7"),
    *(_compute(m, k, "ququarts7", "entropy") for m in ("E", "calE") for k in (3, 7)),
    _compute("Eprime", 7, "ququarts7", "entropy"),
    _compute("CGq:2", 7, "ququarts7"),
    *DENSE_SMALL,
)


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    smoke: tuple[Op, ...]  # cheap subset (or stand-in) for the benchmark's own tests


WORKLOADS = {
    w.name: w
    for w in (
        Workload("audit", (AUDIT, PAPER_EXAMPLES), (AUDIT_SMALL, PAPER_EXAMPLES)),
        Workload("sweep", SWEEP_LADDER + SWEEP_MIX, (SWEEP_LADDER[0], SWEEP_MIX[0], SWEEP_MIX[3])),
        Workload("dense", DENSE, DENSE_SMALL),
    )
}


# --- inputs -------------------------------------------------------------------


def state_document(shape: str, index: int) -> str:
    """Inline state file for pool member `index` of `shape`."""
    rng = np.random.default_rng([zlib.crc32(shape.encode()), index])
    factors = []
    at = 0
    for dims in SHAPES[shape]:
        size = math.prod(dims)
        z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        z /= np.linalg.norm(z)
        labels = [chr(ord("A") + at + i) for i in range(len(dims))]
        at += len(dims)
        factors.append({"kind": "amplitudes", "labels": labels, "dims": list(dims),
                        "re": z.real.tolist(), "im": z.imag.tolist()})
    return json.dumps({"factors": factors})


def make_inputs(ops: tuple[Op, ...]) -> dict[str, list[str]]:
    """Every pool member of every shape the ops use."""
    shapes = sorted({op.shape for op in ops if op.shape is not None})
    return {s: [state_document(s, i) for i in range(POOL_SIZE)] for s in shapes}


def pass_plan(ops: tuple[Op, ...], seed: int, pass_no: int) -> list[tuple[Op, Optional[int]]]:
    """The ops of one pass, in order, each with its pool member."""
    rng = np.random.default_rng([seed, pass_no])
    return [(op, int(rng.integers(POOL_SIZE)) if op.shape else None) for op in ops]


def argv_for(op: Op, index: Optional[int], inputs: dict[str, list[str]]) -> list[str]:
    if op.shape is None:
        return list(op.argv)
    return [*op.argv, "--state", inputs[op.shape][index]]


def golden_key(op: Op, index: Optional[int]) -> str:
    return op.name if index is None else f"{op.name} #{index}"


# --- golden check -------------------------------------------------------------


def load_golden(path: Path = GOLDEN_PATH) -> dict[str, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)["outputs"]


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _diff(want, got, where: str) -> Optional[str]:
    """First difference between two parsed JSON values: numbers within
    VALUE_TOL when either is a float, everything else exactly."""
    if isinstance(want, float) or isinstance(got, float):
        if _is_number(want) and _is_number(got) and (
            want == got or abs(got - want) <= VALUE_TOL * max(1.0, abs(want))
        ):
            return None
        return f"{where}: {got!r} != golden {want!r}"
    if isinstance(want, dict) and isinstance(got, dict):
        if want.keys() != got.keys():
            return f"{where}: keys {sorted(got)} != golden {sorted(want)}"
        for key in want:
            found = _diff(want[key], got[key], f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return f"{where}: length {len(got)} != golden {len(want)}"
        for i, (w, g) in enumerate(zip(want, got)):
            found = _diff(w, g, f"{where}[{i}]")
            if found:
                return found
        return None
    return None if want == got and type(want) is type(got) else f"{where}: {got!r} != golden {want!r}"


def check_output(op: Op, golden: dict, rc: int, out: str) -> Optional[str]:
    """None when the op reproduced its golden output, else the first difference."""
    if rc != golden["rc"]:
        return f"exit code {rc} != golden {golden['rc']}"
    if op.argv[0] == "paper-examples":
        # the table is compared as text; two rows are documented deviations
        if rc != 3 or sum(" DIFFER" in line for line in out.splitlines()) != 2:
            return "paper-examples must exit 3 with exactly two DIFFER rows"
        return None if out == golden["out"] else "paper-examples table differs from golden"
    try:
        got = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if op.argv[0] == "audit" and got.get("expected_matrix_mismatches") != []:
        return f"expected-matrix mismatches: {got.get('expected_matrix_mismatches')}"
    return _diff(json.loads(golden["out"]), got, "$")
