"""Public names and the hook points the benchmark tracer rebinds."""

import importlib.util
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
