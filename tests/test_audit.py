"""Audit suite: expected matrix, witness replay, seeded counterexamples."""

import contextlib
import io
import json
import multiprocessing
import os
import re
from concurrent.futures.process import BrokenProcessPool
from itertools import repeat

import pytest
from hypothesis import given, settings, strategies as st

from kpem import audit, cli
from kpem.audit import (
    ATTEMPT_FACTOR,
    AXIOMS,
    DEFAULT_VARIANTS,
    DEVIATION_NOTES,
    EXPECTED_MATRIX,
    PASS,
    REPLAY_TOL,
    VIOLATION_TOL,
    AuditConfig,
    AxiomInstance,
    check_axiom,
    cross_braided_factor,
    engineered_tight_b_instance,
    evaluate_instance,
    expected_verdict,
    random_product_spec,
    run_suite,
    seeded_instances,
    tight_b_condition,
)
from kpem.measures import MeasureSpec
from kpem.qstate import (
    AmplitudesFactor,
    GhzFactor,
    NumericalContractError,
    StateSpec,
    build_state,
    canonical_phase,
)
from kpem.redfun import CONCURRENCE, ENTROPY

import numpy as np

VARIANTS = {v.name: v for v in DEFAULT_VARIANTS}


@pytest.fixture(scope="module")
def small_report():
    return run_suite(AuditConfig(instances_per_check=8))


# --- expected matrix ------------------------------------------------------------


def test_matrix_covers_every_axiom():
    assert set(EXPECTED_MATRIX) == set(AXIOMS)
    for axiom, row in EXPECTED_MATRIX.items():
        for name in row:
            assert name in VARIANTS, (axiom, name)


def test_deviation_notes_point_into_matrix():
    for axiom, name in DEVIATION_NOTES:
        assert expected_verdict(axiom, name) is not None


def test_default_variant_names():
    assert [v.name for v in DEFAULT_VARIANTS] == [
        "E[entropy]", "E[concurrence]", "calE[entropy]", "calE[concurrence]",
        "Eprime[entropy]", "Eprime[concurrence]",
        "C", "Cq(2)", "Calpha(0.5)", "CGq(2)", "CGalpha(0.5)",
    ]
    assert all(v.k == 2 for v in DEFAULT_VARIANTS)


def test_small_suite_matches_expectation(small_report):
    assert small_report.mismatches() == []
    # every asserted cell was actually exercised
    for axiom, row in EXPECTED_MATRIX.items():
        for name in row:
            check = small_report.find(axiom, name)
            assert check is not None, (axiom, name)
            assert check.evaluated > 0


def test_inapplicable_cells_are_not_run(small_report):
    assert expected_verdict("ordering_chain", "C") is None
    assert small_report.find("ordering_chain", "C") is None


def test_violated_checks_have_replayable_witnesses(small_report):
    violated = [c for c in small_report.checks if c.verdict == "violated"]
    assert violated, "expected some violated cells even in the small suite"
    for check in violated:
        assert check.witness is not None
        assert check.worst_margin > VIOLATION_TOL
        # round-trip through the serialized record, as a stored witness would
        stored = json.loads(json.dumps(check.witness.to_dict()))
        inst = AxiomInstance.from_dict(stored)
        out = evaluate_instance(VARIANTS[check.variant], inst)
        assert not out.skipped
        assert out.margin == pytest.approx(check.worst_margin, abs=REPLAY_TOL)


def test_records_stream_is_serializable(small_report):
    count = 0
    for rec in small_report.records():
        count += 1
        json.dumps(rec)
        assert rec["axiom"] in AXIOMS
        assert rec["variant"] in VARIANTS
        if rec.get("violation"):
            assert "instance" in rec
    assert count > 0


def test_summary_table_mentions_deviations(small_report):
    table = small_report.summary_table()
    assert "documented deviation" in table
    assert "!!" not in table  # no unexplained mismatch


def test_suite_is_deterministic():
    cfg = AuditConfig(instances_per_check=3)
    a = run_suite(cfg)
    b = run_suite(cfg)
    assert [(c.axiom, c.variant, c.verdict, c.worst_margin) for c in a.checks] == \
        [(c.axiom, c.variant, c.verdict, c.worst_margin) for c in b.checks]


def test_cell_reruns_alone():
    """A cell's instances do not depend on which other cells the config holds."""
    wide = run_suite(AuditConfig(
        instances_per_check=3,
        axioms=("symmetry", "additivity"),
        variants=(VARIANTS["C"], VARIANTS["Eprime[entropy]"]),
    ))
    alone = run_suite(AuditConfig(
        instances_per_check=3,
        axioms=("additivity",),
        variants=(VARIANTS["Eprime[entropy]"],),
    ))
    assert list(alone.records()) == wide.find("additivity", "Eprime[entropy]").records


def test_empty_config_gives_empty_report():
    report = run_suite(AuditConfig(axioms=()))
    assert report.checks == []


@pytest.mark.parametrize("kwargs,needle", [
    ({"axioms": ("symmetry_typo",)}, "axioms ['symmetry_typo'] are not among"),
    ({"variants": (MeasureSpec("Cq_k", 2, parameter=3.0),)}, "variants ['Cq(3)'] are not among"),
])
def test_audit_config_refuses_cells_the_suite_would_skip(kwargs, needle):
    """run_suite keeps only cells with an expected verdict, so a name
    outside AXIOMS or the default variants would run nothing and report no
    mismatch; the config refuses it instead."""
    with pytest.raises(ValueError, match=re.escape(needle)):
        AuditConfig(**kwargs)


@pytest.mark.parametrize("kwargs,needle", [
    ({"instances_per_check": 2.5}, "instances_per_check takes an integer, got 2.5"),
    ({"instances_per_check": True}, "instances_per_check takes an integer, got True"),
    ({"master_seed": 1.5}, "master_seed takes an integer, got 1.5"),
    ({"master_seed": "7"}, "master_seed takes an integer, got '7'"),
    ({"threshold": True}, "threshold takes a number, got True"),
    ({"threshold": "0.1"}, "threshold takes a number, got '0.1'"),
])
def test_audit_config_checks_field_types(kwargs, needle):
    """Direct construction checks what a config file does: no float count,
    no bool read as 1, no seed that fails only inside run_suite."""
    with pytest.raises(ValueError) as refused:
        AuditConfig(**kwargs)
    assert str(refused.value) == needle


def test_audit_config_takes_numpy_integers_and_any_finite_threshold():
    config = AuditConfig(master_seed=np.int64(3), instances_per_check=np.int32(2),
                         threshold=10 ** 400)
    assert (config.master_seed, config.instances_per_check) == (3, 2)


# --- cells across processes --------------------------------------------------------


def _cli_audit_bytes(tmp_path, tag):
    """(stdout, records file) of `kpem audit --json --trials 3 --records`."""
    records = tmp_path / f"{tag}.jsonl"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["audit", "--json", "--trials", "3", "--records", str(records)]) == 0
    return out.getvalue(), records.read_bytes()


CELLS = [(axiom, name) for axiom in AXIOMS for name in VARIANTS
         if expected_verdict(axiom, name) is not None]


def _cells_run_here(monkeypatch):
    """The (postulate, measure) cells checked in this process from now on;
    a forked worker appends to its own copy."""
    ran, original = [], audit.check_axiom

    def check(axiom, variant, *args, **kwargs):
        ran.append((axiom, variant.name))
        return original(axiom, variant, *args, **kwargs)

    monkeypatch.setattr(audit, "check_axiom", check)
    return ran


@pytest.mark.parametrize("n", [2, 3])
def test_pooled_suite_matches_one_process(tmp_path, monkeypatch, cpus, n):
    """With n CPUs this process checks every n-th cell and n - 1 workers the
    others; the checks, records and CLI bytes are those of every cell run
    here, and every worker is gone when the suite returns."""
    config = AuditConfig(instances_per_check=3)
    ran = _cells_run_here(monkeypatch)
    cpus(1)
    alone = run_suite(config)
    alone_cli = _cli_audit_bytes(tmp_path, "alone")
    assert ran == CELLS + CELLS
    ran.clear()
    cpus(n)
    pooled = run_suite(config)
    assert multiprocessing.active_children() == []
    pooled_cli = _cli_audit_bytes(tmp_path, "pooled")
    assert multiprocessing.active_children() == []
    assert ran == CELLS[::n] + CELLS[::n]
    assert len(pooled.checks) == len(alone.checks) == len(CELLS) == 79
    for got, want in zip(pooled.checks, alone.checks):
        assert vars(got) == vars(want), (want.axiom, want.variant)
    assert list(pooled.records()) == list(alone.records())
    assert pooled_cli == alone_cli


def _failing_cell(monkeypatch, index, fail):
    """CELLS[index] calls fail(); set before the fork, so the workers
    inherit it.  With two CPUs, even cells run here and odd ones in the
    worker."""
    axiom, name = CELLS[index]
    original = audit.evaluate_instance

    def evaluate(variant, inst):
        if inst.axiom == axiom and variant.name == name:
            fail()
        return original(variant, inst)

    monkeypatch.setattr(audit, "evaluate_instance", evaluate)


@pytest.mark.parametrize("index", [2, 41], ids=["here", "worker"])
@pytest.mark.parametrize("error,code", [
    (NumericalContractError("norm drifted"), cli.CONTRACT_ERROR),
    (ValueError("bad cell"), cli.USAGE_ERROR),
])
def test_cell_error_keeps_its_exit_code_and_leaves_no_worker(
        monkeypatch, capsys, cpus, index, error, code):
    def fail():
        raise error

    _failing_cell(monkeypatch, index, fail)
    cpus(2)
    assert cli.main(["audit", "--trials", "1"]) == code
    assert multiprocessing.active_children() == []
    captured = capsys.readouterr()
    assert str(error) in captured.err and captured.out == ""


def test_dead_worker_breaks_the_pool_and_leaves_no_worker(monkeypatch, cpus):
    parent = os.getpid()

    def die():
        if os.getpid() != parent:
            os._exit(3)

    _failing_cell(monkeypatch, 41, die)
    cpus(2)
    with pytest.raises(BrokenProcessPool):
        run_suite(AuditConfig(instances_per_check=1))
    assert multiprocessing.active_children() == []


# --- seeded counterexamples individually --------------------------------------------


SEEDED_COUNTEREXAMPLES = [
    ("additivity", "C"),
    ("additivity", "Cq(2)"),
    ("additivity", "Calpha(0.5)"),
    ("additivity", "CGq(2)"),
    ("additivity", "CGalpha(0.5)"),
    ("additivity", "Eprime[concurrence]"),
    ("k_monotone", "CGq(2)"),
    ("k_monotone", "CGalpha(0.5)"),
    ("coarsening_monotone_a", "C"),
    ("coarsening_monotone_a", "Cq(2)"),
    ("coarsening_monotone_a", "Calpha(0.5)"),
    ("coarsening_monotone_a", "CGq(2)"),
    ("coarsening_monotone_a", "CGalpha(0.5)"),
    ("tight_coarsening_monotone_b_k2", "C"),
    ("tight_coarsening_monotone_b_k2", "Cq(2)"),
    ("tight_coarsening_monotone_b_k2", "Calpha(0.5)"),
    ("tight_coarsening_monotone_b_k2", "CGq(2)"),
    ("tight_coarsening_monotone_b_k2", "CGalpha(0.5)"),
    ("tight_coarsening_monotone_b_k3plus", "Eprime[entropy]"),
    ("tight_coarsening_monotone_b_k3plus", "Eprime[concurrence]"),
]


@pytest.mark.parametrize("axiom,variant_name", SEEDED_COUNTEREXAMPLES)
def test_seeded_counterexample_fires(axiom, variant_name):
    variant = VARIANTS[variant_name]
    instances = seeded_instances(axiom, variant)
    assert instances, (axiom, variant_name)
    margins = [evaluate_instance(variant, inst).margin for inst in instances]
    assert max(margins) > VIOLATION_TOL


def test_seeded_instance_counts():
    # one seeded instance per counterexample cell and per partial-trace
    # cell, none anywhere else
    for axiom in AXIOMS:
        for variant in DEFAULT_VARIANTS:
            want = int((axiom, variant.name) in SEEDED_COUNTEREXAMPLES
                       or axiom == "partial_trace_monotone_c")
            assert len(seeded_instances(axiom, variant)) == want, (axiom, variant.name)


def test_seeded_ghz_pair_additivity_margin():
    # two 3-qubit GHZ triples at k=3.  Each triple alone minimizes at
    # pair|single = 1.  Jointly, one in-triple pair each plus a cross pair
    # scores 1/2 * (1 + 1 + sqrt(3/2)) under concurrence, so the joint
    # minimum undercuts the sum by exactly 1 - sqrt(3/2)/2.
    inst = seeded_instances("additivity", VARIANTS["Eprime[concurrence]"])[0]
    out = evaluate_instance(VARIANTS["Eprime[concurrence]"], inst)
    assert out.margin == pytest.approx(1.0 - 0.5 * (1.5 ** 0.5), abs=1e-9)
    # the same pair under entropy is exactly additive
    entropy_inst = AxiomInstance(
        "additivity", 3,
        (StateSpec((GhzFactor(("A", "B", "C")),)),
         StateSpec((GhzFactor(("D", "E", "F")),))),
    )
    out2 = evaluate_instance(VARIANTS["Eprime[entropy]"], entropy_inst)
    assert out2.margin <= 1e-12


def test_engineered_merge_family():
    inst = engineered_tight_b_instance()
    for name, low in (("Eprime[entropy]", 0.4), ("Eprime[concurrence]", 0.4)):
        out = evaluate_instance(VARIANTS[name], inst)
        assert out.margin > low
    for h in (ENTROPY, CONCURRENCE):
        h_last, h_first, h_pair, realized = tight_b_condition(h)
        assert realized
        assert h_last >= h_first > h_pair


@pytest.mark.parametrize("seed", [0, 1, 20240801])
def test_haar_factor_draws_are_the_normalized_phase_fixed_draws(seed):
    """_haar_factor's amplitudes are canonical_phase(z / np.linalg.norm(z))
    of the same draws, bit for bit, as Python complex, and it leaves the
    generator where the draws leave it."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for size in (1, 2, 3, 5):
        labels = tuple("ABCDE"[:size])
        factor = audit._haar_factor(rng, labels)
        z = ref_rng.standard_normal(2 ** size) + 1j * ref_rng.standard_normal(2 ** size)
        want = canonical_phase(z / np.linalg.norm(z))
        assert all(type(a) is complex for a in factor.amplitudes)
        assert np.array(factor.amplitudes).tobytes() == want.tobytes()
        assert factor.dims == (2,) * size and factor.labels == labels
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_braided_factor_shape():
    with pytest.raises(ValueError, match="four parties"):
        cross_braided_factor(("A", "B"))
    with pytest.raises(ValueError, match="strictly between"):
        cross_braided_factor(("A", "B", "C", "D"), eps=1.0)
    psi = build_state(StateSpec((cross_braided_factor(("A", "B", "C", "D")),)))
    from kpem.factorize import classify
    producibility, genuine = classify(psi)
    assert producibility == 4 and genuine


def test_partial_trace_seeded_instances_sit_on_equality():
    for variant in DEFAULT_VARIANTS:
        for inst in seeded_instances("partial_trace_monotone_c", variant):
            out = evaluate_instance(variant, inst)
            assert not out.skipped
            assert abs(out.margin) <= 1e-9, variant.name


# --- instance mechanics ---------------------------------------------------------------


def test_symmetry_instance_evaluation():
    inst = AxiomInstance(
        "symmetry", 2,
        (StateSpec((GhzFactor(("A", "B", "C")),)),),
        perm=(2, 0, 1),
    )
    out = evaluate_instance(VARIANTS["C"], inst)
    assert out.margin == pytest.approx(0.0, abs=1e-12)


def test_coarsening_skip_on_mixed_rest():
    # dropping one party of an entangled triple leaves a mixed state
    inst = AxiomInstance(
        "coarsening_monotone_a", 2,
        (StateSpec((GhzFactor(("A", "B", "C")),
                    AmplitudesFactor(("D",), (2,), (1.0 + 0j, 0j)))),),
        discard=("C",),
    )
    out = evaluate_instance(VARIANTS["Eprime[entropy]"], inst)
    assert out.skipped
    assert "mixed" in out.skip_reason
    # dropping the whole triple is exact
    inst2 = AxiomInstance(
        "coarsening_monotone_a", 2,
        (StateSpec((GhzFactor(("A", "B", "C")), GhzFactor(("D", "E")))),),
        discard=("A", "B", "C"),
    )
    out2 = evaluate_instance(VARIANTS["Eprime[entropy]"], inst2)
    assert not out2.skipped


def test_check_stops_after_attempt_budget():
    # every instance is skipped, so the draw budget ends the check
    mixed = AxiomInstance(
        "coarsening_monotone_a", 2,
        (StateSpec((GhzFactor(("A", "B", "C")),)),),
        discard=("C",),
    )
    check = check_axiom("coarsening_monotone_a", VARIANTS["C"], repeat(mixed), target=2)
    assert (check.evaluated, check.skipped) == (0, 2 * ATTEMPT_FACTOR)
    assert check.witness is None and check.verdict == PASS


def test_instance_dict_round_trip():
    inst = engineered_tight_b_instance()
    again = AxiomInstance.from_dict(json.loads(json.dumps(inst.to_dict())))
    assert again == inst


def test_every_instance_field_round_trips():
    inst = AxiomInstance(
        "partial_trace_monotone_c", 2, (StateSpec((GhzFactor(("A", "B", "C")),)),),
        perm=(2, 0, 1), discard=("C",), base_blocks=(("A", "B"), ("C",)),
        inner_drop=("B",), note="all fields",
    )
    assert AxiomInstance.from_dict(json.loads(json.dumps(inst.to_dict()))) == inst


@pytest.mark.parametrize("change", [
    {"axiom": "nonsense"},
    {"axiom": None},
    {"k": 2.9},
    {"k": "3"},
    {"k": True},
    {"k": None},
    {"bogus": 1},
    {"states": []},
    {"states": {"factors": []}},
    {"perm": ["0", 1]},
    {"perm": [True, 0]},
    {"perm": 3},
    {"discard": "A"},
    {"discard": [1]},
    {"groups": ["A", "B"]},
    {"groups": [["A"], "B"]},
    {"base_blocks": [[1.0]]},
    {"inner_drop": {"A": 1}},
    {"note": 5},
    # records their axiom cannot replay
    {"axiom": "symmetry"},
    {"axiom": "coarsening_monotone_a"},
    {"axiom": "partial_trace_monotone_c"},
    {"axiom": "partial_trace_monotone_c", "base_blocks": [["A", "B"], ["C"]]},
    {"axiom": "additivity"},
    {"axiom": "k_monotone", "k": 2},
    {"k": 1},
    {"axiom": "coarsening_monotone_a", "discard": ["Z"]},
    {"groups": [["A", "B", "C", "D"], ["Z"]]},
    {"axiom": "partial_trace_monotone_c", "base_blocks": [["A"]], "inner_drop": ["Z"]},
], ids=repr)
def test_malformed_instance_documents_raise(change):
    doc = {**engineered_tight_b_instance().to_dict(), **change}
    with pytest.raises(ValueError):
        AxiomInstance.from_dict(doc)


_GHZ3 = {"factors": [{"kind": "ghz", "labels": ["A", "B", "C"]}]}
_BELL_DE = {"factors": [{"kind": "maxent", "labels": ["D", "E"]}]}
_FIELD_VALUES = {
    "perm": [[2, 0, 1], [0, 0, 1], [0, 1], []],
    "discard": [["A"], ["Z"], [], ["A", "A"], ["A", "B", "C"]],
    "groups": [[["A", "B"], ["C"]], [["A"]], [["Z"], ["A", "B", "C"]], [], [["A", "B"], ["B", "C"]]],
    "base_blocks": [[["A", "B"], ["C"]], [["A", "B", "C"]], [["Z"]], [], [[]]],
    "inner_drop": [["B"], ["Z"], [], ["A", "B"], ["A", "B", "C"]],
}


@settings(max_examples=150, deadline=None)
@given(
    axiom=st.sampled_from(AXIOMS),
    k=st.integers(1, 4),
    states=st.sampled_from([[_GHZ3], [_GHZ3, _BELL_DE], [_GHZ3, _GHZ3], [_BELL_DE]]),
    extra=st.fixed_dictionaries({}, optional={
        key: st.sampled_from(values) for key, values in _FIELD_VALUES.items()}),
)
def test_accepted_instance_documents_replay(axiom, k, states, extra):
    try:
        inst = AxiomInstance.from_dict({"axiom": axiom, "k": k, "states": states, **extra})
    except ValueError:
        return
    for variant in (VARIANTS["E[entropy]"], VARIANTS["C"]):
        try:
            out = evaluate_instance(variant, inst)
        except ValueError:
            continue
        assert out.skipped or out.margin is not None


@pytest.mark.parametrize("doc", [None, [], "instance", 3])
def test_instance_document_must_be_an_object(doc):
    with pytest.raises(ValueError, match="JSON object"):
        AxiomInstance.from_dict(doc)


def test_unknown_axiom_rejected():
    inst = AxiomInstance("monogamy", 2, (StateSpec((GhzFactor(("A", "B")),)),))
    with pytest.raises(ValueError, match="unknown check"):
        evaluate_instance(VARIANTS["C"], inst)


def test_random_product_spec_is_reproducible():
    a = random_product_spec(np.random.default_rng(5), 6)
    b = random_product_spec(np.random.default_rng(5), 6)
    assert a == b
    assert len(a.labels) == 6
