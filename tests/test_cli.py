"""Command-line surface: golden outputs, exit codes, JSON records."""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpem import cli
from kpem.audit import AXIOMS, DEFAULT_VARIANTS
from kpem.measures import MEASURE_TABLE
from kpem.qstate import NumericalContractError

PSI = {
    "factors": [
        {"kind": "ghz", "labels": ["A", "B", "C", "D"]},
        {"kind": "w", "labels": ["E", "F", "G"]},
        {"kind": "amplitudes", "labels": ["H"], "dims": [2],
         "re": [1.0, 0.0], "im": [0.0, 0.0]},
    ]
}


@pytest.fixture()
def psi_file(tmp_path):
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(PSI), encoding="utf-8")
    return str(path)


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "kpem.cli", *argv],
        capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


# --- compute -------------------------------------------------------------------


def test_compute_text_output(psi_file, capsys):
    assert cli.main(["compute", "--measure", "Eprime", "--k", "3",
                     "--h", "entropy", "--state", psi_file]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "measure   Eprime  k=3  h=entropy"
    assert out[1] == "parties   ABCDEFGH"
    assert out[2] == "value     1.91829583405"
    assert out[3] == "witness   AB|CD|EF|GH"
    assert out[4].split() == ["block", "AB", "1"]


def test_compute_json_output(psi_file, capsys):
    assert cli.main(["compute", "--measure", "Eprime", "--k", "3",
                     "--h", "entropy", "--state", psi_file, "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["value"] == pytest.approx(1.9182958340544896, abs=1e-12)
    assert record["witness"] == "AB|CD|EF|GH"
    assert record["breakdown"]["num_blocks"] == 4
    blocks = {b["parties"]: b["value"] for b in record["breakdown"]["blocks"]}
    assert blocks["AB"] == pytest.approx(1.0, abs=1e-12)


def test_compute_inline_state(capsys):
    inline = '{"factors": [{"kind": "maxent", "labels": ["A", "B"], "dim": 2}]}'
    assert cli.main(["compute", "--measure", "C", "--k", "2",
                     "--state", inline]) == 0
    out = capsys.readouterr().out
    assert "value     1" in out
    assert "witness   A|B" in out


def test_compute_factor_family_breakdown(psi_file, capsys):
    assert cli.main(["compute", "--measure", "E", "--k", "2",
                     "--h", "entropy", "--state", psi_file, "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    factors = {f["parties"]: f["value"] for f in record["breakdown"]["factors"]}
    assert set(factors) == {"ABCD", "EFG"}
    assert record["witness"] == "ABCD|EFG|H"


# state 121 of 400 audit.random_product_spec draws from default_rng(7),
# n drawn from 3..8: W on ABCD times two Haar qubits
CORPUS_121 = {"factors": [
    {"kind": "w", "labels": ["A", "B", "C", "D"]},
    {"kind": "amplitudes", "labels": ["E"], "dims": [2],
     "re": [0.9002385844270706, 0.2168318481809265],
     "im": [-1.4888648937399643e-17, 0.3775638233771709]},
    {"kind": "amplitudes", "labels": ["F"], "dims": [2],
     "re": [0.8680714766859138, -0.4732139078354424],
     "im": [-6.491641320801983e-17, 0.1500683470804096]},
]}


@pytest.mark.parametrize("state,argv,witness,value", [
    # AB|CD|E and AB|C|DE score 0.96 up to the SVDs' last bits
    ({"factors": [{"kind": "w", "labels": list("ABCDE")}]},
     ["--measure", "Eprime", "--h", "q:3", "--k", "3"], "AB|CD|E", 0.96),
    # every partition into singles and W pairs scores 0.5 up to rounding
    (CORPUS_121, ["--measure", "Cq:2", "--k", "3"], "AB|CD|E|F", 0.5),
], ids=["w5", "corpus121"])
def test_compute_witness_is_first_in_rgs_order_within_tolerance(state, argv, witness, value, capsys):
    assert cli.main(["compute", *argv, "--state", json.dumps(state), "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["witness"] == witness
    assert record["value"] == pytest.approx(value, rel=0, abs=1e-12)


def test_compute_refuses_a_label_with_the_block_separator(capsys):
    inline = json.dumps({"factors": [{"kind": "maxent", "labels": ["A|", "B"]},
                                     {"kind": "ghz", "labels": ["C", "D", "E"]}]})
    assert cli.main(["compute", "--measure", "C", "--k", "2", "--state", inline]) \
        == cli.USAGE_ERROR
    assert "block separator" in capsys.readouterr().err


@pytest.mark.parametrize("argv,needle", [
    (["compute", "--measure", "E", "--k", "2", "--state"], "needs --h"),
    (["compute", "--measure", "Nope", "--k", "2", "--state"], "cannot parse measure"),
    (["compute", "--measure", "Cq:2", "--k", "2", "--h", "entropy", "--state"],
     "fixes its reduced function"),
    (["compute", "--measure", "Cq:abc", "--k", "2", "--state"],
     "cannot parse measure"),
    (["compute", "--measure", "Cq:inf", "--k", "2", "--state"], "finite q > 1"),
    (["compute", "--measure", "CGq:1e400", "--k", "2", "--state"], "finite q > 1"),
    (["compute", "--measure", "E", "--k", "2", "--h", "q:inf", "--state"],
     "finite q > 1"),
])
def test_compute_usage_errors(psi_file, capsys, argv, needle):
    assert cli.main(argv + [psi_file]) == cli.USAGE_ERROR
    assert needle in capsys.readouterr().err


def test_state_file_diagnostics(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"factors": [{"kind": "ghz", "labels": ["A","B"], "bogus": 3}]}')
    assert cli.main(["factorize", "--state", str(bad)]) == cli.USAGE_ERROR
    err = capsys.readouterr().err
    assert "factors[0]" in err and "bogus" in err

    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"factors": [{"kind": "ghz"\n  "labels"')
    assert cli.main(["factorize", "--state", str(malformed)]) == cli.USAGE_ERROR
    assert "line 2" in capsys.readouterr().err

    assert cli.main(["factorize", "--state", str(tmp_path / "nope.json")]) \
        == cli.USAGE_ERROR


@pytest.mark.parametrize("factor,needle", [
    ('{"kind": "amplitudes", "labels": ["A", "B"], "dims": [2, 2], '
     '"re": [NaN, 0, 0, 0], "im": [0, 0, 0, 0]}', "finite"),
    ('{"kind": "amplitudes", "labels": ["A"], "dims": [2], '
     '"re": [1, 0], "im": [0, Infinity]}', "finite"),
    pytest.param('{"kind": "amplitudes", "labels": ["A"], "dims": [2], '
                 '"re": [1' + "0" * 400 + ', 0], "im": [0, 0]}', "finite",
                 id="int-beyond-float"),
    ('{"kind": "ghz", "labels": ["A", "B"], "dim": 2.9}', "JSON integers"),
    ('{"kind": "amplitudes", "labels": ["A", "B"], "dims": [2.5, 2], '
     '"re": [1, 0, 0, 0], "im": [0, 0, 0, 0]}', "JSON integers"),
])
def test_malformed_numbers_are_input_errors(factor, needle, capsys):
    inline = '{"factors": [' + factor + ']}'
    assert cli.main(["factorize", "--state", inline]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert needle in captured.err
    assert captured.out == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", ["1e308", "1e-170"])
def test_extreme_amplitude_scales_match_unit_scale(scale, capsys):
    """Finite amplitudes near the float limits are no overflow and no zero
    vector: the output is that of re = [1, 1]."""
    def run(x):
        inline = ('{"factors": [{"kind": "amplitudes", "labels": ["A"], "dims": [2], '
                  f'"re": [{x}, {x}], "im": [0, 0]}}]}}')
        rc = cli.main(["factorize", "--json", "--state", inline])
        return rc, capsys.readouterr()

    rc, got = run(scale)
    unit_rc, unit = run("1")
    assert (rc, got.out, got.err) == (0, unit.out, "")
    assert unit_rc == 0


def test_empty_party_label_is_an_input_error(capsys):
    inline = '{"factors": [{"kind": "ghz", "labels": ["", "B", "C"]}]}'
    assert cli.main(["compute", "--measure", "E", "--k", "2", "--h", "entropy",
                     "--state", inline]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert "non-empty" in captured.err
    assert captured.out == ""


def test_prefix_labels_are_an_input_error(capsys):
    inline = '{"factors": [{"kind": "ghz", "labels": ["A", "AB", "B"]}]}'
    assert cli.main(["compute", "--measure", "E", "--k", "2",
                     "--h", "entropy", "--state", inline]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert "label 'A' is a prefix of label 'AB'" in captured.err
    assert captured.out == ""


def test_numerical_contract_exit_code(psi_file, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise NumericalContractError("spectrum sums to 0.5")
    monkeypatch.setattr(cli, "evaluate_measure", boom)
    assert cli.main(["compute", "--measure", "C", "--k", "2",
                     "--state", psi_file]) == cli.CONTRACT_ERROR
    assert "numerical contract failure" in capsys.readouterr().err


# --- factorize -----------------------------------------------------------------


def test_factorize_text(psi_file, capsys):
    assert cli.main(["factorize", "--state", psi_file]) == 0
    out = capsys.readouterr().out
    assert "producibility    4" in out
    assert "genuine          no" in out
    assert "factor ABCD       size 4  genuinely_entangled" in out
    assert "factor H          size 1  single" in out


def test_factorize_json(psi_file, capsys):
    assert cli.main(["factorize", "--state", psi_file, "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["producibility"] == 4
    assert record["genuinely_entangled"] is False
    assert record["fidelity"] == pytest.approx(1.0, abs=1e-12)
    sizes = sorted(f["size"] for f in record["factors"])
    assert sizes == [1, 3, 4]


NEAR_THRESHOLD = str(Path(__file__).parent / "data" / "near_threshold_5q.json")


@pytest.mark.parametrize("argv", [
    ["factorize"],
    ["compute", "--measure", "E", "--h", "entropy", "--k", "2"],
    ["compute", "--measure", "calE", "--h", "concurrence", "--k", "3"],
], ids=["factorize", "E-entropy-k2", "calE-concurrence-k3"])
def test_near_threshold_state_is_valid_input(argv, capsys):
    """Party A's purity sits within a few ulps of 1 - 1e-9: one purity
    decides whether it is a factor, so no second test can reject it."""
    assert cli.main([*argv, "--state", NEAR_THRESHOLD]) == 0
    assert capsys.readouterr().err == ""


# --- partitions ----------------------------------------------------------------


def test_partitions_count(capsys):
    assert cli.main(["partitions", "--n", "4", "--fineness", "2", "--count"]) == 0
    assert capsys.readouterr().out.strip() == "10"


def test_partitions_listing_order(capsys):
    from kpem.partitions import iter_k_fineness, partition_to_text
    assert cli.main(["partitions", "--n", "4", "--fineness", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    labels = ("A", "B", "C", "D")
    expected = [partition_to_text(p, labels) for p in iter_k_fineness(range(4), 2)]
    assert lines == expected
    assert lines[0] == "AB|CD"


def test_partitions_large_count_without_listing(capsys):
    assert cli.main(["partitions", "--n", "30", "--fineness", "2", "--count"]) == 0
    assert int(capsys.readouterr().out.strip()) > 10 ** 17
    assert cli.main(["partitions", "--n", "27", "--fineness", "2"]) \
        == cli.USAGE_ERROR


# --- audit ---------------------------------------------------------------------


def test_audit_json_summary(capsys):
    assert cli.main(["audit", "--trials", "2", "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["expected_matrix_mismatches"] == []
    assert summary["instances_per_check"] == 2
    verdicts = {(c["axiom"], c["measure"]): c["verdict"] for c in summary["checks"]}
    assert verdicts[("symmetry", "C")] == "pass"
    assert verdicts[("additivity", "Eprime[concurrence]")] == "violated"


def test_audit_records_jsonl(tmp_path, capsys):
    records_path = tmp_path / "records.jsonl"
    assert cli.main(["audit", "--trials", "2", "--records", str(records_path)]) == 0
    assert "all verdicts match the documented expectation matrix" \
        in capsys.readouterr().out
    records = [json.loads(line) for line in records_path.read_text().splitlines()]
    assert records
    violations = [r for r in records if r.get("violation")]
    assert violations and all("instance" in r for r in violations)


def test_audit_records_path_fails_before_the_suite(tmp_path, capsys, monkeypatch):
    def never(config):
        raise AssertionError("the suite ran")

    monkeypatch.setattr(cli, "run_suite", never)
    path = tmp_path / "missing" / "records.jsonl"
    assert cli.main(["audit", "--trials", "2", "--records", str(path)]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.err == f"error: [Errno 2] No such file or directory: '{path}'\n"
    assert captured.out == ""


def test_audit_config_file(tmp_path, capsys):
    cfg = tmp_path / "audit.json"
    cfg.write_text('{"instances_per_check": 2, "axioms": ["symmetry"]}')
    assert cli.main(["audit", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "symmetry" in out and "additivity" not in out

    cfg.write_text('{"instances_per_check": 2, "bogus": 1}')
    assert cli.main(["audit", "--config", str(cfg)]) == cli.USAGE_ERROR
    assert "unknown audit config fields" in capsys.readouterr().err


@pytest.mark.parametrize("document,needle", [
    ("[]", "JSON object"),
    ('{"master_seed": 1.7}', "master_seed"),
    ('{"master_seed": true}', "master_seed"),
    ('{"instances_per_check": 1.9}', "instances_per_check"),
    ('{"instances_per_check": 0}', "instances_per_check must be >= 1"),
    ('{"threshold": "nan"}', "threshold"),
    ('{"threshold": NaN}', "threshold must be finite"),
    ('{"threshold": Infinity}', "threshold must be finite"),
    ('{"axioms": "symmetry"}', "axioms"),
    ('{"axioms": ["bogus"]}', "axioms"),
    ('{"variants": "C"}', "variants"),
    ('{"variants": ["C", "Cq(3)"]}', "variants"),
    ('{"axioms": ["symmetry", "symmetry"]}', "axioms name a cell more than once"),
    ('{"variants": ["C", "E[entropy]", "C"]}', "variants name a cell more than once"),
    ('{"master_seed": -1}', "master_seed must be >= 0"),
])
def test_audit_config_is_strict(tmp_path, capsys, document, needle):
    cfg = tmp_path / "audit.json"
    cfg.write_text(document)
    assert cli.main(["audit", "--config", str(cfg)]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert needle in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_audit_trials_must_be_positive(capsys, trials):
    assert cli.main(["audit", "--trials", trials, "--json"]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert "instances_per_check must be >= 1" in captured.err
    assert captured.out == ""


def test_audit_seed_must_be_non_negative(capsys):
    assert cli.main(["audit", "--seed", "-1", "--json"]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert "master_seed must be >= 0, got -1" in captured.err
    assert captured.out == ""


def test_audit_mismatch_exit_code(tmp_path, capsys):
    # a huge threshold turns the seeded additivity violation of C into a pass
    cfg = tmp_path / "audit.json"
    cfg.write_text('{"threshold": 1e9, "axioms": ["additivity"], '
                   '"variants": ["C"], "instances_per_check": 1}')
    records = tmp_path / "records.jsonl"
    assert cli.main(["audit", "--config", str(cfg), "--records", str(records)]) \
        == cli.AUDIT_MISMATCH
    out = capsys.readouterr().out
    assert "additivity / C: expected violated, observed pass" in out
    assert records.read_text().count("\n") == 1

    assert cli.main(["audit", "--config", str(cfg), "--json"]) == cli.AUDIT_MISMATCH
    summary = json.loads(capsys.readouterr().out)
    assert summary["expected_matrix_mismatches"] == [
        {"axiom": "additivity", "measure": "C", "expected": "violated", "observed": "pass"}
    ]


# --- reference table -----------------------------------------------------------


def test_reference_table_flags_two_rows(capsys):
    assert cli.main(["paper-examples"]) == cli.TABLE_DISCREPANCY
    out = capsys.readouterr().out
    assert "28 of 30 values match within 1e-09; 2 flagged" in out
    differ = [line for line in out.splitlines() if line.endswith("DIFFER")]
    assert len(differ) == 2
    assert all("Eprime" in line and " 4 " in line for line in differ)
    assert "attained at ABC|DH|EFG" in out


def test_reference_table_is_reproducible():
    code1, out1, _ = run_cli("paper-examples")
    code2, out2, _ = run_cli("paper-examples")
    assert code1 == code2 == cli.TABLE_DISCREPANCY
    assert out1 == out2


# --- entry point ---------------------------------------------------------------


def test_usage_and_help_exit_codes():
    code, _, err = run_cli("nope")
    assert code == cli.USAGE_ERROR and "invalid choice" in err
    code, _, _ = run_cli()
    assert code == cli.USAGE_ERROR
    code, out, _ = run_cli("--help")
    assert code == 0 and "compute" in out


def test_installed_entry_point_matches_module(psi_file):
    code, out, _ = run_cli("compute", "--measure", "C", "--k", "2",
                           "--state", psi_file)
    assert code == 0
    assert "value     0.853553390593" in out


# --- exit codes on arbitrary input -----------------------------------------------
#
# Whatever the arguments, main returns 0, 1 or 2 and never raises.

GHZ3 = json.dumps({"factors": [{"kind": "ghz", "labels": ["A", "B", "C"]}]})


def quiet_exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def int_args(lo, hi):
    """An integer in [lo, hi] as text, or a short text that holds no digit."""
    return st.integers(lo, hi).map(str) | st.text(
        st.characters(blacklist_categories=("Nd",)), max_size=3)


parameters = st.floats().map(repr) | st.text(max_size=4)
tokens = st.sampled_from([row.token for row in MEASURE_TABLE.values()])


@settings(max_examples=60, deadline=None)
@given(count=st.booleans(), data=st.data())
def test_partitions_exit_codes(count, data):
    argv = ["partitions", "--n", data.draw(int_args(-2, 30 if count else 8))]
    fineness = data.draw(st.none() | int_args(-2, 32))
    if fineness is not None:
        argv += ["--fineness", fineness]
    if count:
        argv.append("--count")
    assert quiet_exit_code(argv) in (0, 1)


@settings(max_examples=80, deadline=None)
@given(
    measure=tokens | st.tuples(tokens, parameters).map(":".join) | st.text(max_size=6),
    k=int_args(-1, 5),
    h=st.none() | st.sampled_from(("entropy", "concurrence")) | st.text(max_size=6)
    | st.tuples(st.sampled_from(("q", "alpha")), parameters).map(":".join),
)
def test_compute_exit_codes(measure, k, h):
    argv = ["compute", "--measure", measure, "--k", k, "--state", GHZ3]
    if h is not None:
        argv += ["--h", h]
    assert quiet_exit_code(argv) in (0, 1, 2)


json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=10,
)
factors = st.fixed_dictionaries(
    {"kind": st.sampled_from(("ghz", "w", "maxent", "amplitudes")),
     "labels": st.lists(st.sampled_from("ABCD"), min_size=1, max_size=3)},
    optional={"dim": st.integers(-1, 4), "dims": st.lists(st.integers(-1, 3), max_size=3),
              "re": st.lists(st.floats(), max_size=8), "im": st.lists(st.floats(), max_size=8),
              "extra": json_values},
)


@settings(max_examples=80, deadline=None)
@given(doc=json_values | st.lists(factors, max_size=3).map(lambda fs: {"factors": fs}))
def test_factorize_exit_codes(doc):
    assert quiet_exit_code(["factorize", "--json", "--state", json.dumps(doc)]) in (0, 1, 2)


audit_configs = st.fixed_dictionaries({}, optional={
    "master_seed": st.integers(-2, 2**64) | json_values,
    "instances_per_check": st.integers(-1, 3) | json_values,
    "threshold": st.floats() | json_values,
    "axioms": st.lists(st.sampled_from(AXIOMS) | st.text(max_size=3), max_size=3) | json_values,
    "variants": st.lists(st.sampled_from([v.name for v in DEFAULT_VARIANTS])
                         | st.text(max_size=3), max_size=3) | json_values,
    "bogus": json_values,
})


@settings(max_examples=40, deadline=None)
@given(doc=audit_configs | json_values)
def test_audit_config_exit_codes(tmp_path_factory, doc):
    cfg = tmp_path_factory.mktemp("audit") / "config.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    # --trials 1 keeps a full suite near a third of a second
    assert quiet_exit_code(["audit", "--config", str(cfg), "--trials", "1"]) in (0, 1, 4)
