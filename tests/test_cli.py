"""Command-line surface: golden outputs, exit codes, JSON records."""

import json
import subprocess
import sys

import pytest

from kpem import cli
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
