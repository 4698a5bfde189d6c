"""The benchmark's own tests: golden checker, seeded inputs, smoke runs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from workloads import (  # noqa: E402
    AUDIT,
    PAPER_EXAMPLES,
    POOL_SIZE,
    SWEEP_LADDER,
    WORKLOADS,
    check_output,
    golden_key,
    load_golden,
    pass_plan,
)

GOLDEN = load_golden()
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _compute_entry():
    op = SWEEP_LADDER[0]
    entry = GOLDEN[golden_key(op, 0)]
    return op, entry, json.loads(entry["out"])


def test_checker_accepts_golden_and_tolerates_last_digits():
    op, entry, record = _compute_entry()
    assert check_output(op, entry, entry["rc"], entry["out"]) is None
    record["value"] *= 1.0 + 1e-14
    assert check_output(op, entry, 0, json.dumps(record)) is None


@pytest.mark.parametrize("field", ["value", "block"])
def test_checker_flags_value_perturbed_by_1e9(field):
    op, entry, record = _compute_entry()
    if field == "value":
        record["value"] += 1e-9
    else:
        record["breakdown"]["blocks"][0]["value"] += 1e-9
    assert "golden" in check_output(op, entry, 0, json.dumps(record))


def test_checker_flags_different_witness():
    op, entry, record = _compute_entry()
    blocks = record["witness"].split("|")
    record["witness"] = "|".join(blocks[1:] + blocks[:1])
    assert "witness" in check_output(op, entry, 0, json.dumps(record))


def test_checker_flags_audit_counts_and_mismatches():
    entry = GOLDEN[golden_key(AUDIT, None)]
    summary = json.loads(entry["out"])
    summary["checks"][5]["skipped"] += 1
    assert "skipped" in check_output(AUDIT, entry, 0, json.dumps(summary))
    summary = json.loads(entry["out"])
    summary["expected_matrix_mismatches"] = [{"axiom": "symmetry"}]
    assert "mismatch" in check_output(AUDIT, entry, 0, json.dumps(summary))


def test_checker_flags_paper_examples_changes():
    entry = GOLDEN[golden_key(PAPER_EXAMPLES, None)]
    assert check_output(PAPER_EXAMPLES, entry, 3, entry["out"]) is None
    assert check_output(PAPER_EXAMPLES, entry, 0, entry["out"]) is not None
    fixed = entry["out"].replace("DIFFER", "MATCH ", 1)
    assert check_output(PAPER_EXAMPLES, {**entry, "out": fixed}, 3, fixed) is not None


def test_inputs_follow_the_seed():
    ops = WORKLOADS["dense"].ops
    assert pass_plan(ops, 7, 0) == pass_plan(ops, 7, 0)
    assert pass_plan(ops, 7, 0) != pass_plan(ops, 8, 0)


def test_golden_covers_every_op():
    for wl in WORKLOADS.values():
        for op in wl.ops + wl.smoke:
            indices = range(POOL_SIZE) if op.shape else (None,)
            assert all(golden_key(op, i) in GOLDEN for i in indices), op.name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_workload_end_to_end(workload, trace):
    result = run.measure(workload, seed=1, seconds=0, trace=trace, smoke=True)
    assert result["correct"] and result["failed"] == 0, result["info"]["failures"]
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
        assert values["ops_ok_frac"] == 1.0
    elif workload == "audit":
        assert values["audit.instances_evaluated"] > 0 and values["audit.mismatches"] == 0
        assert values["factorize.calls"] > 0
    elif workload == "sweep":
        assert values["partitions.yielded"] > 0 and values["measures.h_hit_ratio"] > 0.5
    else:
        assert values["qstate.spectrum_calls"] > 0 and values["factorize.calls"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
