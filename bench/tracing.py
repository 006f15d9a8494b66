"""Per-layer spans and counters, recorded from outside the package.

The tracer replaces public functions of ``ansing`` with timing wrappers in
every module namespace that holds them (``invariants.hsum`` and
``asymptotics.hsum`` are the same function as ``latticesum.hsum``), so the
package itself carries no tracing code.  A span is ``[name, start, end,
parent, job]`` with ``parent`` the index of the enclosing span (-1 at the
top) and ``job`` the index of the benchmark job that caused it.  Spans stay
in memory and are written once, at the end.  Sweep workers run in other
processes and are opaque: their pool shows as one ``cli.sweep.pool`` span.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

# (module, attribute, span name): functions timed as spans
SPANS = (
    ("ansing.cli", "run", "cli.run"),
    ("ansing.cli", "build_parser", "cli.build_parser"),
    ("ansing.cli", "sweep", "cli.sweep"),
    ("ansing.invariants", "mu", "invariants.mu"),
    ("ansing.invariants", "h1_omega_limit_report", "invariants.h1_omega_limit_report"),
    ("ansing.latticesum", "hsum", "latticesum.hsum"),
    ("ansing.asymptotics", "upper_integral", "asymptotics.upper_integral"),
    ("ansing.asymptotics", "integrate_piece", "asymptotics.integrate_piece"),
    ("ansing.quasifit", "fit", "quasifit.fit"),
    ("ansing.oracle", "hsum_oracle", "oracle.hsum_oracle"),
    ("ansing.oracle", "hsum_oracle_triple", "oracle.hsum_oracle_triple"),
    ("ansing.oracle", "rank", "oracle.rank"),
    ("ansing.extension", "divisor_D", "extension.divisor_D"),
    ("ansing.bigness", "load_config", "bigness.load_config"),
    ("ansing.bigness", "evaluate_criterion", "bigness.evaluate_criterion"),
)
# (module, class, method, span name): methods timed as spans
METHOD_SPANS = (
    ("ansing.exactmath", "CycloElement", "__mul__", "exactmath.CycloElement.mul"),
    ("ansing.exactmath", "CycloElement", "inverse", "exactmath.CycloElement.inverse"),
)
# (module, attribute, counter name): too hot for a span, counted only
COUNTERS = (("ansing.monoblocks", "codim_reg", "monoblocks.codim_reg.calls"),)
# lru-cached functions whose misses and entries are reported
CACHED = (("ansing.invariants", "mu", "invariants.mu"), ("ansing.latticesum", "hsum", "latticesum.hsum"))

# every per-layer metric, with its unit and the direction that is better
LAYER_METRICS = {
    "invariants.mu.calls": ("count", "lower"),
    "invariants.mu.misses": ("count", "lower"),
    "invariants.mu.s": ("s", "lower"),
    "invariants.mu.cache_entries": ("count", "lower"),
    "exactmath.CycloElement.mul.calls": ("count", "lower"),
    "exactmath.CycloElement.mul.s": ("s", "lower"),
    "exactmath.CycloElement.inverse.calls": ("count", "lower"),
    "exactmath.CycloElement.inverse.s": ("s", "lower"),
    "latticesum.hsum.calls": ("count", "lower"),
    "latticesum.hsum.misses": ("count", "lower"),
    "latticesum.hsum.s": ("s", "lower"),
    "latticesum.hsum.hit_ratio": ("ratio", "higher"),
    "latticesum.hsum.cache_entries": ("count", "lower"),
    "asymptotics.upper_integral.s": ("s", "lower"),
    "asymptotics.integrate_piece.calls": ("count", "lower"),
    "quasifit.fit.calls": ("count", "lower"),
    "quasifit.fit.s": ("s", "lower"),
    "oracle.hsum_oracle.s": ("s", "lower"),
    "oracle.hsum_oracle_triple.calls": ("count", "lower"),
    "oracle.rank.calls": ("count", "lower"),
    "oracle.rank.s": ("s", "lower"),
    "monoblocks.codim_reg.calls": ("count", "lower"),
    "cli.build_parser.s": ("s", "lower"),
    "cli.run.self_s": ("s", "lower"),
    "cli.sweep.calls": ("count", "lower"),
    "cli.sweep.self_s": ("s", "lower"),
    "cli.sweep.rows_requested": ("count", "lower"),
    "cli.sweep.rows_appended": ("count", "lower"),
    "cli.sweep.cache_hit_ratio": ("ratio", "higher"),
    "cli.sweep.pool_s": ("s", "lower"),
    "extension.divisor_D.s": ("s", "lower"),
    "bigness.load_config.s": ("s", "lower"),
    "bigness.evaluate_criterion.s": ("s", "lower"),
    "invariants.h1_omega_limit_report.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans are recorded by one thread, so siblings never overlap and the
    children's durations are the part of the parent's interval they cover.
    """
    result = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            result[parent] -= end - start
    return result


def summarize(spans: list) -> dict[str, dict[str, float]]:
    """Per span name: calls, total time s and self time self_s.

    ``s`` counts only spans with no enclosing span of the same name, so a
    nested call is not timed twice.
    """
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for index, (name, start, end, parent, _) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += selfs[index]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            entry["s"] += end - start
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._caches: dict[str, object] = {}  # the lru_cache wrappers, unpatched
        self._cache_start: dict[str, int] = {}

    # -- recording --------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _timed(self, name: str, fn):
        def timed(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return timed

    def _counted(self, name: str, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installing -------------------------------------------------------

    def _replace(self, holders, original, replacement) -> None:
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, replacement)
                    self._undo.append((holder, key, original))

    def _patch(self, module: str, attr: str, wrap) -> None:
        original = getattr(sys.modules[module], attr)
        package = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "ansing"]
        self._replace(package, original, wrap(original))

    def install(self) -> None:
        self._caches = {name: getattr(sys.modules[module], attr) for module, attr, name in CACHED}
        self._cache_start = {name: fn.cache_info().misses for name, fn in self._caches.items()}
        for module, attr, name in SPANS:
            self._patch(module, attr, lambda fn, name=name: self._timed(name, fn))
        for module, attr, name in COUNTERS:
            self._patch(module, attr, lambda fn, name=name: self._counted(name, fn))
        for module, cls_name, method, name in METHOD_SPANS:
            cls = getattr(sys.modules[module], cls_name)
            original = vars(cls)[method]
            self._replace([cls], original, self._timed(name, original))  # __rmul__ too
        self._install_sweep_counters()

    def _install_sweep_counters(self) -> None:
        cli = sys.modules["ansing.cli"]
        tracer = self
        sweep = cli.sweep

        def counted_sweep(n, m_from, m_to, parallel=1, cache_path=None):
            rows = m_to - m_from + 1
            tracer.counts["cli.sweep.rows_requested"] += rows
            if cache_path:
                tracer.counts["cli.sweep.rows_requested_cached"] += rows
            return sweep(n, m_from, m_to, parallel, cache_path)

        append = cli._append_cache

        def counted_append(path, n, rows):
            tracer.counts["cli.sweep.rows_appended"] += len(rows)
            return append(path, n, rows)

        class TracedPool(cli.ProcessPoolExecutor):
            def __enter__(self):
                self._span = tracer.open("cli.sweep.pool")
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.close(self._span)

        self._replace([cli], sweep, counted_sweep)
        self._replace([cli], append, counted_append)
        self._replace([cli], cli.ProcessPoolExecutor, TracedPool)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    # -- reporting --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_s, which needs an
        untraced run to compare with."""
        by_name = summarize(self.spans)

        def get(name: str, field: str) -> float:
            return by_name.get(name, {}).get(field, 0)

        out: dict[str, float] = {}
        for metric in LAYER_METRICS:
            layer, _, field = metric.rpartition(".")
            if field in ("calls", "s", "self_s"):
                out[metric] = get(layer, field)
        for name, cached in self._caches.items():
            info = cached.cache_info()
            out[f"{name}.misses"] = info.misses - self._cache_start[name]
            out[f"{name}.cache_entries"] = info.currsize
        calls = out["latticesum.hsum.calls"]
        out["latticesum.hsum.hit_ratio"] = 1 - out["latticesum.hsum.misses"] / calls if calls else 0.0
        out["monoblocks.codim_reg.calls"] = self.counts["monoblocks.codim_reg.calls"]
        out["cli.sweep.rows_requested"] = self.counts["cli.sweep.rows_requested"]
        out["cli.sweep.rows_appended"] = self.counts["cli.sweep.rows_appended"]
        cached = self.counts["cli.sweep.rows_requested_cached"]
        out["cli.sweep.cache_hit_ratio"] = 1 - out["cli.sweep.rows_appended"] / cached if cached else 0.0
        out["cli.sweep.pool_s"] = get("cli.sweep.pool", "s")
        return out

    def write_spans(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, job) in enumerate(self.spans):
                handle.write(
                    json.dumps({"id": index, "name": name, "start": start, "end": end, "parent": parent, "job": job})
                    + "\n"
                )
