"""Public names, the README's examples and the hook points the benchmark
tracer rebinds."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import kpem
import kpem.cli  # noqa: F401  (the tracer hooks kpem.cli.main)
from kpem.partitions import partition_to_text

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
README = ROOT / "README.md"


def test_public_names_resolve():
    for name in kpem.__all__:
        assert getattr(kpem, name, None) is not None, name


# kpem's public names, pinned: a name leaves or joins the package only by
# an edit here
PUBLIC_NAMES = [
    "AXIOMS", "AmplitudesFactor", "AuditConfig", "AuditReport", "AxiomCheck",
    "AxiomInstance", "CONCURRENCE", "DEFAULT_VARIANTS", "ENTROPY", "Factor",
    "FactorDecomposition", "GhzFactor", "KINDS", "MEASURE_KINDS", "MarginalCache",
    "MaxEntFactor", "MeasureResult", "MeasureSpec", "NumericalContractError",
    "Partition", "PureState", "ReducedFunctionSpec", "StateSpec", "SystemLayout",
    "WFactor", "audit", "build_state", "check_axiom",
    "count_k_fineness", "evaluate_instance", "evaluate_measure", "evaluate_spectrum",
    "expected_verdict", "factorize", "finest_factorization", "format_redfun",
    "iter_k_fineness", "measures", "parallel", "parse_measure", "parse_redfun",
    "partition_from_text", "partition_to_text", "partitions", "permute_parties",
    "qstate", "random_pure", "redfun", "regroup", "run_suite", "spec_from_dict",
    "spec_to_dict", "unified_mem",
]


def test_public_names_are_pinned():
    assert kpem.__all__ == PUBLIC_NAMES


# names that live with the tests (tests/oracle.py, test helpers), not in kpem
TEST_ONLY_NAMES = {
    "DensityMatrix", "reduced_density", "sample_check",
    "marginal_spectrum", "clip_spectrum", "EIG_FLOOR", "haar_state", "bell_number", "classify",
}


def test_the_density_matrix_oracle_stays_out_of_the_package():
    """The density-matrix route, the padded spectrum contract and the other
    test-only helpers are the tests' (tests/oracle.py): no kpem module
    defines or assigns them at module level, or imports the tests' helpers."""
    package = Path(kpem.__file__).resolve().parent
    sources = sorted(package.glob("*.py"))
    assert len(sources) >= 9
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = {node.name for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        defined |= {target.id for node in tree.body if isinstance(node, ast.Assign)
                    for target in node.targets if isinstance(target, ast.Name)}
        defined |= {node.target.id for node in tree.body
                    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)}
        assert not defined & TEST_ONLY_NAMES, path.name
        imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module and not node.level}
        assert not imported & {"oracle", "conftest", "tests"}, path.name


def test_readme_python_blocks_run():
    """Every fenced python block in README.md runs as written, so a public
    name the README uses cannot be removed or renamed unnoticed; the
    Library example gives the value and witness its state implies."""
    text = README.read_text(encoding="utf-8")
    blocks = [(text.count("\n", 0, m.start()) + 2, m.group(1))
              for m in re.finditer(r"^```python\n(.*?)^```", text, flags=re.M | re.S)]
    assert blocks
    results = []
    for line, code in blocks:
        namespace = {}
        exec(compile("\n" * (line - 1) + code, str(README), "exec"), namespace)
        if "result" in namespace:
            results.append((namespace["result"], namespace["state"]))
    [(result, state)] = results
    assert result.value == 1.0
    assert partition_to_text(result.witness, state.layout.labels) == "AB|C|DE"


def test_tracer_hooks_exist():
    """Every function in SPAN_HOOKS and HOT_HOOKS, iter_k_fineness and
    MarginalCache.h_value must exist, or a traced benchmark run silently
    reports them under missing_hooks.  The one exception is the tracer's
    qstate.spectrum hook on marginal_spectrum: the engine reads no padded
    spectrum, so that contract lives in tests/oracle.py and the hook's
    figure reads 0 either way."""
    spec = importlib.util.spec_from_file_location("kpem_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    try:
        t.install()
    finally:
        t.uninstall()
    assert t.missing == ["qstate.spectrum"]


def test_import_builds_no_mask_table():
    """The geometric family's mask tables are built on first use, never at
    import: a fresh `import kpem.cli` leaves their cache empty."""
    src = str(Path(kpem.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import kpem.cli, kpem.measures as m; print(m._mask_table.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "0"
