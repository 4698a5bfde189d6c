"""Public names and the hook points the benchmark tracer rebinds."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import kpem
import kpem.cli  # noqa: F401  (the tracer hooks kpem.cli.main)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_public_names_resolve():
    for name in kpem.__all__:
        assert getattr(kpem, name, None) is not None, name


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
