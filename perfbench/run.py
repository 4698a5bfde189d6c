"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload audit|sweep|dense --seed N --seconds S --trace 0|1

One process, one client, closed loop: the ops of a workload run back to
back as a pass, and passes repeat until the next one would end after
--seconds (at least one pass).  Times are reported at the reference
machine speed measured by probe.py.  Every output is checked against
perfbench/golden.json.  The last stdout line is the result JSON; the line
before it records the environment and the raw times.  With --trace 1 one
untraced pass runs first, then traced passes give the per-layer metrics
and the spans go to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread (never above nproc): a single client gains nothing from
# threads on these matrix sizes, and contention makes timings noisy.
# Set before numpy is imported anywhere in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from probe import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    argv_for,
    check_output,
    golden_key,
    load_golden,
    make_inputs,
    pass_plan,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
WARMUP_ARGV = ["compute", "--measure", "Eprime", "--k", "2", "--h", "entropy", "--json",
               "--state", '{"factors": [{"kind": "ghz", "labels": ["A", "B", "C"]}]}']


def import_cli():
    """kpem.cli from this checkout's src/, never from an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import kpem.cli
    except ImportError as exc:
        raise SystemExit(f"cannot import kpem from {SRC}: {exc}") from None
    if not Path(kpem.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"kpem was imported from {kpem.cli.__file__}, not from {SRC}")
    return kpem.cli


def run_op(cli, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def set_up(cli, ops):
    """Fresh-interpreter import, input generation, golden load and warm-up."""
    subprocess.run([sys.executable, "-c", "import kpem.cli"], cwd=ROOT, check=True,
                   timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    inputs = make_inputs(ops)
    golden = load_golden()
    rc, _ = run_op(cli, WARMUP_ARGV)
    if rc != 0:
        raise SystemExit(f"warm-up op exited {rc}")
    return inputs, golden


def run_ops(cli, plan, inputs) -> list:
    """Run one pass; an op that raises is recorded with rc None and its traceback."""
    results = []
    for op, index in plan:
        try:
            rc, out = run_op(cli, argv_for(op, index, inputs))
        except Exception:  # a raising op is a failed op, not a failed run
            rc, out = None, traceback.format_exc()
        results.append((op, index, rc, out))
    return results


def check_results(results, golden, failures: list[str]) -> None:
    for op, index, rc, out in results:
        key = golden_key(op, index)
        if rc is None:
            failures.append(f"{key}: raised\n{out}")
        elif key not in golden:
            failures.append(f"{key}: no golden output")
        else:
            err = check_output(op, golden[key], rc, out)
            if err:
                failures.append(f"{key}: {err}")


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, check=True, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unavailable"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
    }


def _units(section: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run one workload; returns the result object plus an `info` entry.

    Untraced, set-ups and passes run under the speed probe and their times
    are reported at reference speed; the raw times go to `info`.  Traced
    passes run without the probe and compare raw times only.
    """
    cli = import_cli()
    wl = WORKLOADS[workload]
    ops = wl.smoke if smoke else wl.ops
    failures: list[str] = []
    attempted = 0
    raw: list[float] = []

    def one_pass(probe: SpeedProbe) -> float:
        nonlocal attempted
        plan = pass_plan(ops, seed, len(raw))
        results, net, at_ref = probe.timed(lambda: run_ops(cli, plan, inputs))
        check_results(results, golden, failures)
        attempted += len(results)
        raw.append(net)
        return at_ref

    def timed_passes(probe: SpeedProbe, before_each=lambda: None) -> list[float]:
        walls: list[float] = []
        start = perf_counter()
        while not walls or perf_counter() - start + statistics.median(raw[-len(walls):]) <= seconds:
            before_each()
            walls.append(one_pass(probe))
        return walls

    info: dict = {"workload": workload, "seed": seed, "smoke": smoke, "env": environment()}
    with SpeedProbe() as probe:
        setups = []
        for _ in range(SETUP_REPEATS):
            (inputs, golden), _, at_ref = probe.timed(lambda: set_up(cli, ops))
            setups.append(at_ref)
        if not trace:
            walls = timed_passes(probe)
    info["probe_median_s"] = statistics.median(probe.samples)
    if trace:
        idle = SpeedProbe()  # never started: no ticks, raw times only
        one_pass(idle)
        tracer = Tracer()
        tracer.install()
        try:
            timed_passes(idle, tracer.new_pass)
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics(len(raw) - 1)
        metrics["trace.overhead_frac"] = statistics.median(raw[1:]) / raw[0] - 1.0
        units = _units("per_layer")
        trace_file = BENCH_DIR / "out" / f"trace-{workload}-seed{seed}.json"
        info.update(trace_file=str(trace_file.relative_to(ROOT)), missing_hooks=tracer.missing)
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_ok_frac": (attempted - len(failures)) / attempted,
        }
        units = _units("end_to_end")
        info["passes_at_reference_s"] = walls
    if metrics.keys() != units.keys():
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    info.update(raw_passes_s=raw, setup_runs_s=setups,
                ops_failed_frac=len(failures) / attempted, failures=failures[:5])
    if trace:
        tracer.write(trace_file, {"info": info, "metrics": metrics})
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "info": info,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0, help="workload seed (0 default, 1 held out)")
    p.add_argument("--seconds", type=float, default=30.0, help="timed phase length")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    info = result.pop("info")
    for line in info["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
