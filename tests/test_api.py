"""Public names, the README's examples and the hook points the benchmark
tracer rebinds."""

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
    reports them under missing_hooks."""
    spec = importlib.util.spec_from_file_location("kpem_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    try:
        t.install()
    finally:
        t.uninstall()
    assert t.missing == []


def test_import_builds_no_mask_table():
    """The geometric family's mask tables are built on first use, never at
    import: a fresh `import kpem.cli` leaves their cache empty."""
    src = str(Path(kpem.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import kpem.cli, kpem.measures as m; print(m._mask_table.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "0"
