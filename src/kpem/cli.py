"""Command-line surface: `kpem compute|factorize|partitions|audit|paper-examples`.

Exit statuses: 0 success, 1 usage or input error, 2 numerical contract
failure, 3 when `paper-examples` finds values differing from the built-in
reference table (which it does, for two documented entries), 4 when
`audit` finds verdicts differing from its expectation matrix (reported
after the table or JSON summary and the records are written).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from typing import Optional, Sequence

from .audit import AuditConfig, run_suite
from .factorize import FactorDecomposition, finest_factorization
from .measures import MeasureResult, MeasureSpec, evaluate_measure, parse_measure
from .partitions import count_k_fineness, iter_k_fineness, partition_to_text
from .qstate import (
    AmplitudesFactor,
    GhzFactor,
    MaxEntFactor,
    NumericalContractError,
    StateSpec,
    WFactor,
    build_state,
    spec_from_dict,
)
from .redfun import CONCURRENCE, ENTROPY, ReducedFunctionSpec, parse_redfun

USAGE_ERROR = 1
CONTRACT_ERROR = 2
TABLE_DISCREPANCY = 3
AUDIT_MISMATCH = 4

ENUMERATION_PRINT_CAP = 200_000


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def parse_state_file(path_or_text: str) -> StateSpec:
    """Load a state document from a file path, or parse it directly when
    given inline text (anything starting with '{')."""
    if path_or_text.lstrip().startswith("{"):
        text, where = path_or_text, "<inline>"
    else:
        try:
            with open(path_or_text, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read state file: {exc}") from exc
        where = path_or_text
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{where}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    try:
        return spec_from_dict(obj)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


# --- compute -----------------------------------------------------------------


def _witness_text(result: MeasureResult, labels: Sequence[str]) -> Optional[str]:
    w = result.witness
    if w is None:
        return None
    if isinstance(w, FactorDecomposition):
        w = w.block_partition()
    return partition_to_text(w, labels)


def _breakdown_json(result: MeasureResult, labels: Sequence[str]) -> dict:
    br = result.breakdown
    out: dict = {}
    if "terms" in br:
        out["blocks"] = [
            {"parties": "".join(labels[i] for i in block), "value": val}
            for block, val in br["terms"]
        ]
        out["num_blocks"] = br["num_blocks"]
    if "factors" in br:
        out["factors"] = [
            {"parties": "".join(labels[i] for i in parties), "value": val}
            for parties, val in br["factors"]
        ]
    if "cardinality" in br:
        out["aggregated_partitions"] = br["cardinality"]
    return out


def _cmd_compute(args) -> int:
    spec = parse_state_file(args.state)
    state = build_state(spec, unsafe_large=args.unsafe_large)
    h = parse_redfun(args.h) if args.h else None
    mspec = parse_measure(args.measure, args.k, h=h)
    result = evaluate_measure(mspec, state, unsafe_large=args.unsafe_large)
    labels = state.layout.labels
    witness = _witness_text(result, labels)
    br = _breakdown_json(result, labels)
    if args.json:
        record = {
            "measure": args.measure,
            "k": args.k,
            "h": args.h,
            "parties": "".join(labels),
            "value": result.value,
            "witness": witness,
            "breakdown": br,
        }
        print(json.dumps(record))
        return 0
    print(f"measure   {args.measure}  k={args.k}" + (f"  h={args.h}" if args.h else ""))
    print(f"parties   {''.join(labels)}")
    print(f"value     {_fmt(result.value)}")
    if witness is not None:
        print(f"witness   {witness}")
    for item in br.get("blocks", []):
        print(f"  block {item['parties']:<12} {_fmt(item['value'])}")
    for item in br.get("factors", []):
        print(f"  factor {item['parties']:<11} {_fmt(item['value'])}")
    if "aggregated_partitions" in br:
        print(f"  aggregated over {br['aggregated_partitions']} partitions")
    return 0


# --- factorize ---------------------------------------------------------------


def _cmd_factorize(args) -> int:
    spec = parse_state_file(args.state)
    state = build_state(spec, unsafe_large=args.unsafe_large)
    dec = finest_factorization(state)
    labels = state.layout.labels
    if args.json:
        record = {
            "parties": "".join(labels),
            "producibility": dec.producibility,
            "genuinely_entangled": dec.genuine,
            "fidelity": dec.fidelity,
            "factors": [
                {
                    "parties": "".join(labels[i] for i in f.parties),
                    "size": f.size,
                    "classification": f.classification,
                }
                for f in dec.factors
            ],
        }
        print(json.dumps(record))
        return 0
    print(f"parties          {''.join(labels)}")
    print(f"producibility    {dec.producibility}")
    print(f"genuine          {'yes' if dec.genuine else 'no'}")
    print(f"fidelity         {_fmt(dec.fidelity)}")
    for f in dec.factors:
        name = "".join(labels[i] for i in f.parties)
        print(f"  factor {name:<10} size {f.size}  {f.classification}")
    return 0


# --- partitions --------------------------------------------------------------


_LABEL_POOL = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _cmd_partitions(args) -> int:
    n = args.n
    if n < 1:
        raise ValueError("--n must be positive")
    k = args.fineness if args.fineness is not None else n
    if not 1 <= k <= n:
        raise ValueError("--fineness must lie in [1, n]")
    total = count_k_fineness(n, k)
    if args.count:
        print(total)
        return 0
    if n > len(_LABEL_POOL):
        raise ValueError("listing supports at most 26 parties; use --count")
    if total > ENUMERATION_PRINT_CAP:
        raise ValueError(
            f"{total} partitions exceed the listing cap {ENUMERATION_PRINT_CAP}; use --count"
        )
    labels = _LABEL_POOL[:n]
    for part in iter_k_fineness(range(n), k):
        print(partition_to_text(part, labels))
    return 0


# --- audit -------------------------------------------------------------------


def _load_audit_config(args) -> AuditConfig:
    config = AuditConfig()
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = AuditConfig.from_dict(json.load(fh))
    overrides: dict = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.trials is not None:
        overrides["instances_per_check"] = args.trials
    return replace(config, **overrides)


def _cmd_audit(args) -> int:
    config = _load_audit_config(args)
    # opened before the suite runs, so an unusable path fails at once
    stream = None
    if args.records:
        stream = sys.stdout if args.records == "-" else open(
            args.records, "w", encoding="utf-8"
        )
    try:
        report = run_suite(config)
        if stream is not None:
            for rec in report.records():
                stream.write(json.dumps(rec) + "\n")
    finally:
        if stream is not None and stream is not sys.stdout:
            stream.close()
    mismatches = report.mismatches()
    if args.json:
        summary = {
            "master_seed": config.master_seed,
            "instances_per_check": config.instances_per_check,
            "checks": [
                {
                    "axiom": c.axiom,
                    "measure": c.variant,
                    "verdict": c.verdict,
                    "worst_margin": c.worst_margin,
                    "evaluated": c.evaluated,
                    "skipped": c.skipped,
                    "violations": c.violations,
                }
                for c in report.checks
            ],
            "expected_matrix_mismatches": [
                {"axiom": a, "measure": v, "expected": e, "observed": o}
                for a, v, e, o in mismatches
            ],
        }
        print(json.dumps(summary))
    else:
        print(report.summary_table())
        print()
        if mismatches:
            print("expected-matrix mismatches:")
            for a, v, e, o in mismatches:
                print(f"  {a} / {v}: expected {e}, observed {o}")
        else:
            print("all verdicts match the documented expectation matrix")
    return AUDIT_MISMATCH if mismatches else 0


# --- paper-examples ----------------------------------------------------------


def _reference_rows() -> list[tuple[str, StateSpec, str, ReducedFunctionSpec, int, float]]:
    s2 = math.sqrt(2.0)
    l3 = math.log2(3.0)
    psi = StateSpec((
        GhzFactor(("A", "B", "C", "D")),
        WFactor(("E", "F", "G")),
        AmplitudesFactor(("H",), (2,), (1.0 + 0.0j, 0.0j)),
    ))
    phi = StateSpec((WFactor(("A", "B", "C")), MaxEntFactor(("D", "E"))))
    rows: list[tuple[str, StateSpec, str, ReducedFunctionSpec, int, float]] = []

    def block(state_name, spec, kind, h, entries):
        for k, val in entries:
            rows.append((state_name, spec, kind, h, k, val))

    block("psi", psi, "E_k", CONCURRENCE,
          ((4, 2.0), (3, 2.0 + s2), (2, 2.0 + s2)))
    block("psi", psi, "calE_k", CONCURRENCE,
          ((4, 3.5), (3, 3.5 + s2), (2, 3.5 + s2)))
    block("psi", psi, "Eprime_k", CONCURRENCE,
          ((4, 1.5), (3, 1.0 + 2.0 * s2 / 3.0), (2, 2.0 + s2)))
    block("psi", psi, "E_k", ENTROPY,
          ((4, 2.0), (3, 1.0 + 1.5 * l3), (2, 1.0 + 1.5 * l3)))
    block("psi", psi, "calE_k", ENTROPY,
          ((4, 3.5), (3, 2.5 + 1.5 * l3), (2, 2.5 + 1.5 * l3)))
    block("psi", psi, "Eprime_k", ENTROPY,
          ((4, 1.5), (3, 1.0 / 3.0 + l3), (2, 1.0 + 1.5 * l3)))
    block("phi", phi, "E_k", CONCURRENCE, ((3, s2), (2, 1.0 + s2)))
    block("phi", phi, "calE_k", CONCURRENCE, ((3, s2), (2, 1.0 + s2)))
    block("phi", phi, "Eprime_k", CONCURRENCE,
          ((3, 2.0 * s2 / 3.0), (2, 1.0 + s2)))
    block("phi", phi, "E_k", ENTROPY, ((3, 1.5 * l3 - 1.0), (2, 1.5 * l3)))
    block("phi", phi, "calE_k", ENTROPY, ((3, 1.5 * l3 - 1.0), (2, 1.5 * l3)))
    block("phi", phi, "Eprime_k", ENTROPY,
          ((3, l3 - 2.0 / 3.0), (2, 1.5 * l3)))
    return rows


def _cmd_paper_examples(args) -> int:
    rows = _reference_rows()
    specs = {name: spec for name, spec, *_ in rows}
    states = {name: build_state(spec) for name, spec in specs.items()}
    print("built-in reference check: two product states, computed vs quoted values")
    print("  psi = ghz4(ABCD) x w3(EFG) x |0>(H)      phi = w3(ABC) x maxent(DE)")
    print()
    head = (f"{'state':<6} {'measure':<21} {'k':>2}  "
            f"{'computed':>18}  {'reference':>18}  status")
    print(head)
    print("-" * len(head))
    matches = 0
    details: list[str] = []
    for name, _spec, kind, h, k, expected in rows:
        state = states[name]
        mspec = MeasureSpec(kind, k, h=h)
        result = evaluate_measure(mspec, state)
        label = mspec.name
        ok = abs(result.value - expected) <= 1e-9
        matches += ok
        status = "MATCH" if ok else "DIFFER"
        print(f"{name:<6} {label:<21} {k:>2}  "
              f"{_fmt(result.value):>18}  {_fmt(expected):>18}  {status}")
        if not ok:
            witness = _witness_text(result, state.layout.labels)
            details.append(
                f"  {label} at k={k} on {name}: exhaustive minimum over "
                f"{k - 1}-bounded splits is {_fmt(result.value)}, attained at "
                f"{witness}; quoted value {_fmt(expected)} is shown unmodified"
            )
    print()
    diffs = len(rows) - matches
    print(f"{matches} of {len(rows)} values match within 1e-09; {diffs} flagged")
    if details:
        print("flagged entries:")
        for line in details:
            print(line)
    print("note: the reference table states one k=3 value of calE[concurrence] on")
    print("      psi under a k=2 label; both k read 7/2+sqrt(2) and match.")
    return TABLE_DISCREPANCY if diffs else 0


# --- dispatch ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kpem",
        description="k-partite entanglement measures on explicit multipartite pure states",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="evaluate one measure on a state file")
    c.add_argument("--measure", required=True,
                   help="C | Cq:<q> | Calpha:<a> | CGq:<q> | CGalpha:<a> | E | calE | Eprime")
    c.add_argument("--k", type=int, required=True, help="producibility level, k >= 2")
    c.add_argument("--h", help="concurrence | entropy | q:<value> | alpha:<value>")
    c.add_argument("--state", required=True, help="state document path (or inline JSON)")
    c.add_argument("--json", action="store_true", help="machine-readable record")
    c.add_argument("--unsafe-large", action="store_true", help="lift size caps")
    c.set_defaults(func=_cmd_compute)

    f = sub.add_parser("factorize", help="finest tensor factorization of a state file")
    f.add_argument("--state", required=True)
    f.add_argument("--json", action="store_true")
    f.add_argument("--unsafe-large", action="store_true")
    f.set_defaults(func=_cmd_factorize)

    g = sub.add_parser("partitions", help="enumerate or count bounded-block set partitions")
    g.add_argument("--n", type=int, required=True, help="number of parties")
    g.add_argument("--fineness", type=int, help="max block size (default: n)")
    g.add_argument("--count", action="store_true", help="print the count only")
    g.set_defaults(func=_cmd_partitions)

    a = sub.add_parser("audit", help="run the measure-postulate audit suite")
    a.add_argument("--config", help="JSON config (master_seed, instances_per_check, ...)")
    a.add_argument("--seed", type=int, help="override the master seed")
    a.add_argument("--trials", type=int, help="override instances per check")
    a.add_argument("--records", help="write per-instance JSONL records here ('-' = stdout)")
    a.add_argument("--json", action="store_true", help="summary as JSON")
    a.set_defaults(func=_cmd_audit)

    e = sub.add_parser(
        "paper-examples",
        help="evaluate the built-in reference table and flag discrepancies",
    )
    e.set_defaults(func=_cmd_paper_examples)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; our contract reserves 2 for
        # numerical failures and uses 1 for usage problems
        return 0 if exc.code == 0 else USAGE_ERROR
    try:
        return args.func(args)
    except NumericalContractError as exc:
        print(f"numerical contract failure: {exc}", file=sys.stderr)
        return CONTRACT_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
