"""Spans and per-layer counters recorded from outside the program.

`install` rebinds public kpem functions to timing wrappers in every kpem
module that looked them up (the modules use from-imports, so patching only
the defining module would miss most calls).  Coarse calls become spans
(id, parent, name, start, end) kept in memory; hot per-block calls
(`MarginalCache.h_value`, enumerator `next()`, spectra, purities, h
evaluations, audit instance generation) are aggregated as a count and
summed time.  Self time is a call's duration minus the time of the
traced calls made inside it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, Optional

SPAN_HOOKS = (
    # (layer.name, module, function)
    ("cli.main", "kpem.cli", "main"),
    ("qstate.build_state", "kpem.qstate", "build_state"),
    ("measures.evaluate", "kpem.measures", "evaluate_measure"),
    ("measures.min", "kpem.measures", "measure_min_family"),
    ("measures.geo", "kpem.measures", "measure_geometric_family"),
    ("measures.factor", "kpem.measures", "measure_factor_family"),
    ("factorize.finest", "kpem.factorize", "finest_factorization"),
    ("audit.run_suite", "kpem.audit", "run_suite"),
    ("audit.check_axiom", "kpem.audit", "check_axiom"),
    ("audit.evaluate_instance", "kpem.audit", "evaluate_instance"),
)
HOT_HOOKS = (
    ("qstate.spectrum", "kpem.qstate", "marginal_spectrum"),
    ("qstate.purity", "kpem.qstate", "marginal_purity"),
    ("redfun.h", "kpem.redfun", "evaluate_spectrum"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, Optional[int], str, int, int]] = []
        # name -> [completed calls, inclusive ns, self ns]
        self.stats: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.counts: dict[str, int] = defaultdict(int)
        # one [ns spent in traced children] cell per open call, under a root cell
        self._frames: list[list[int]] = [[0]]
        self._span_ids: list[int] = []
        self._seen: dict[str, set] = defaultdict(set)
        self._last_state, self._last_digest = None, b""
        self._restore: list[Callable[[], None]] = []
        self.missing: list[str] = []

    # --- recording ---------------------------------------------------------

    def _span(self, name: str, original, before=None, after=None) -> Callable:
        """Wrapper that records every call as a span."""
        frames, span_ids, spans, st = self._frames, self._span_ids, self.spans, self.stats[name]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                tb = perf_counter_ns()
                args, kwargs = before(args, kwargs)
                frames[-1][0] += perf_counter_ns() - tb  # bookkeeping is nobody's self time
            span_id = len(spans) + len(span_ids)  # spans started so far
            parent = span_ids[-1] if span_ids else None
            span_ids.append(span_id)
            frame = [0]
            frames.append(frame)
            t0 = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                frames.pop()
                span_ids.pop()
                dur = t1 - t0
                frames[-1][0] += dur
                st[1] += dur
                st[2] += dur - frame[0]
                spans.append((span_id, parent, name, t0, t1))
            st[0] += 1
            if after is not None:
                after(result)
            return result

        return wrapper

    def _hot(self, name: str, original, before=None) -> Callable:
        """Wrapper that only adds each call to the count and summed times."""
        frames, st = self._frames, self.stats[name]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                tb = perf_counter_ns()
                before(args, kwargs)
                frames[-1][0] += perf_counter_ns() - tb
            frame = [0]
            frames.append(frame)
            t0 = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                frames.pop()
                frames[-1][0] += dur
                st[1] += dur
                st[2] += dur - frame[0]
            st[0] += 1
            return result

        return wrapper

    def _timed_next(self, name: str, it):
        """Yield from `it`, timing each `next()` as one hot call."""
        frames, st = self._frames, self.stats[name]
        it = iter(it)
        while True:
            frame = [0]
            frames.append(frame)
            t0 = perf_counter_ns()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                dur = perf_counter_ns() - t0
                frames.pop()
                frames[-1][0] += dur
                st[1] += dur
                st[2] += dur - frame[0]
            st[0] += 1
            yield item

    def repeat(self, kind: str, key) -> None:
        """Count whether `key` was already seen in this pass."""
        seen = self._seen[kind]
        self.counts[kind + ".calls"] += 1
        if key in seen:
            self.counts[kind + ".repeats"] += 1
        else:
            seen.add(key)

    def state_digest(self, state) -> bytes:
        """Content hash of a state; the last one is kept because sweeps pass
        the same state object thousands of times in a row."""
        if self._last_state is not state:
            h = hashlib.blake2b(repr(state.layout.dims).encode(), digest_size=16)
            h.update(state.amplitudes.tobytes())
            self._last_state, self._last_digest = state, h.digest()
        return self._last_digest

    def new_pass(self) -> None:
        self._seen.clear()

    # --- installation ------------------------------------------------------

    def _rebind(self, name: str, module: str, attr: str, make: Callable) -> None:
        mod = sys.modules.get(module)
        original = getattr(mod, attr, None) if mod is not None else None
        if original is None:
            self.missing.append(name)
            return
        wrapper = make(original)
        for mod_name, m in list(sys.modules.items()):
            if mod_name != "kpem" and not mod_name.startswith("kpem."):
                continue
            for key, val in list(vars(m).items()):
                if val is original:
                    setattr(m, key, wrapper)
                    self._restore.append(functools.partial(setattr, m, key, original))

    def install(self) -> None:
        """Hook every layer boundary; `uninstall` puts the originals back."""
        import kpem.measures

        def note_spectrum(args, kwargs):
            state = args[0] if args else kwargs["state"]
            keep = args[1] if len(args) > 1 else kwargs["keep"]
            self.repeat("spectrum", (self.state_digest(state), tuple(sorted(keep))))

        def note_factorize(args, kwargs):
            self.repeat("factorize", self.state_digest(args[0] if args else kwargs["state"]))
            return args, kwargs

        def time_instances(args, kwargs):
            # check_axiom(axiom, variant, instances, ...): generation is lazy
            if len(args) > 2:
                args = (*args[:2], self._timed_next("audit.generate", args[2]), *args[3:])
            else:
                kwargs = {**kwargs, "instances": self._timed_next("audit.generate", kwargs["instances"])}
            return args, kwargs

        def note_outcome(outcome):
            self.counts["audit.skipped" if outcome.skipped else "audit.evaluated"] += 1

        def note_report(report):
            self.counts["audit.mismatches"] += len(report.mismatches())

        before = {"factorize.finest": note_factorize, "audit.check_axiom": time_instances}
        after = {"audit.evaluate_instance": note_outcome, "audit.run_suite": note_report}
        for name, module, attr in SPAN_HOOKS:
            self._rebind(name, module, attr, lambda original, name=name: self._span(
                name, original, before.get(name), after.get(name)))
        for name, module, attr in HOT_HOOKS:
            self._rebind(name, module, attr, lambda original, name=name: self._hot(
                name, original, note_spectrum if name == "qstate.spectrum" else None))
        self._rebind("partitions.next", "kpem.partitions", "iter_k_fineness",
                     lambda original: functools.wraps(original)(
                         lambda *a, **k: self._timed_next("partitions.next", original(*a, **k))))

        cache_cls = getattr(kpem.measures, "MarginalCache", None)
        if cache_cls is None or not hasattr(cache_cls, "h_value"):
            self.missing.append("measures.h_value")
        else:
            original = cache_cls.h_value
            cache_cls.h_value = self._hot("measures.h_value", original)
            self._restore.append(functools.partial(setattr, cache_cls, "h_value", original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # --- reporting ---------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass values of every per-layer metric except the tracing overhead."""
        def n(name):
            return self.stats[name][0] / passes if name in self.stats else 0.0

        def incl(name):
            return self.stats[name][1] / 1e9 / passes if name in self.stats else 0.0

        def self_s(name):
            return self.stats[name][2] / 1e9 / passes if name in self.stats else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        c = {k: v / passes for k, v in self.counts.items()}
        instances = c.get("audit.evaluated", 0.0) + c.get("audit.skipped", 0.0)
        return {
            "partitions.enum_s": incl("partitions.next"),
            "partitions.yielded": n("partitions.next"),
            "partitions.us_per_partition": 1e6 * ratio(incl("partitions.next"), n("partitions.next")),
            "measures.min_self_s": self_s("measures.min"),
            "measures.geo_self_s": self_s("measures.geo"),
            "measures.factor_self_s": self_s("measures.factor"),
            "measures.evals": n("measures.evaluate"),
            "measures.h_lookups": n("measures.h_value"),
            "measures.lookup_s": self_s("measures.h_value"),
            "measures.h_hit_ratio": 1.0 - ratio(n("redfun.h"), n("measures.h_value")) if n("measures.h_value") else 0.0,
            "qstate.spectrum_calls": n("qstate.spectrum"),
            "qstate.spectrum_s": incl("qstate.spectrum"),
            "qstate.spectrum_repeat_ratio": ratio(c.get("spectrum.repeats", 0.0), c.get("spectrum.calls", 0.0)),
            "qstate.purity_calls": n("qstate.purity"),
            "qstate.purity_s": incl("qstate.purity"),
            "qstate.build_state_calls": n("qstate.build_state"),
            "qstate.build_state_s": incl("qstate.build_state"),
            "redfun.h_evals": n("redfun.h"),
            "redfun.h_s": incl("redfun.h"),
            "factorize.calls": n("factorize.finest"),
            "factorize.self_s": self_s("factorize.finest"),
            "factorize.purity_scans_per_call": ratio(n("qstate.purity"), n("factorize.finest")),
            "factorize.repeat_ratio": ratio(c.get("factorize.repeats", 0.0), c.get("factorize.calls", 0.0)),
            "audit.instances_evaluated": c.get("audit.evaluated", 0.0),
            "audit.instances_skipped": c.get("audit.skipped", 0.0),
            "audit.skip_ratio": ratio(c.get("audit.skipped", 0.0), instances),
            "audit.generate_s": incl("audit.generate"),
            "audit.evaluate_s": incl("audit.evaluate_instance"),
            "audit.mismatches": c.get("audit.mismatches", 0.0),
            "cli.self_s": self_s("cli.main"),
        }

    def layer_shares(self) -> dict[str, float]:
        """Each module's share of the summed self time of all traced calls."""
        by_layer: dict[str, int] = defaultdict(int)
        for name, (_, _, self_ns) in self.stats.items():
            by_layer[name.split(".")[0]] += self_ns
        total = sum(by_layer.values()) or 1
        return {layer: ns / total for layer, ns in sorted(by_layer.items())}

    def write(self, path, extra: dict) -> None:
        """Spans as [id, parent, name, start_ns, end_ns], plus the aggregates."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                **extra,
                "missing_hooks": self.missing,
                "layer_shares": self.layer_shares(),
                "aggregates": {k: {"calls": v[0], "incl_ns": v[1], "self_ns": v[2]}
                               for k, v in sorted(self.stats.items())},
                "spans": self.spans,
            }, fh)
