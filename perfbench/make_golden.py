"""Regenerate perfbench/golden.json: the output of every op on every pool member.

    python3 perfbench/make_golden.py

Run it only at a commit whose outputs are known good; the benchmark treats
any later difference as a failed op.  Takes a few minutes.
"""

from __future__ import annotations

import json
import sys

from run import environment, import_cli, run_op
from workloads import GOLDEN_PATH, POOL_SIZE, WORKLOADS, argv_for, check_output, golden_key, make_inputs


def main() -> int:
    cli = import_cli()
    ops = {op.name: op for wl in WORKLOADS.values() for op in wl.ops + wl.smoke}
    inputs = make_inputs(tuple(ops.values()))
    outputs: dict[str, dict] = {}
    for op in ops.values():
        for index in (range(POOL_SIZE) if op.shape else (None,)):
            rc, out = run_op(cli, argv_for(op, index, inputs))
            entry = {"rc": rc, "out": out}
            err = check_output(op, entry, rc, out)
            if err:
                print(f"{golden_key(op, index)}: {err}", file=sys.stderr)
                return 1
            outputs[golden_key(op, index)] = entry
        print(f"{op.name}: done", file=sys.stderr)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({"env": environment(), "outputs": outputs}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
