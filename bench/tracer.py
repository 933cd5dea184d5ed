"""Per-layer spans and counters, recorded from outside gnmd.

The tracer replaces public functions of gnmd's modules with wrappers that
open a span on entry and close it on exit.  gnmd calls its own functions
through module globals or module attributes, so a wrapper installed on the
module sees internal calls too (sample_graph -> pair_configuration, ...).

Spans stay in memory as (id, parent id, name, start, end) and are written
at the end.  Forked worker processes (the sweep's process pool) inherit
the wrappers and the open span of the caller; each worker appends its
finished spans and counters to a spool file whenever a span opened in the
worker closes, and the parent merges those files before it summarises.

A layer's self time is its span's duration minus the part of that
interval covered by its child spans, merged so that children running in
parallel workers are not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

#: Traced functions, by gnmd module.  A function missing from its module
#: (deleted by a later refactor) is skipped and its metrics are dropped.
TRACED: dict[str, tuple[str, ...]] = {
    "truncpoisson": ("make_degree_law", "critical_mean_degree"),
    "sampler": (
        "sample_graph",
        "sample_degree_sequence",
        "pair_configuration",
        "is_simple",
        "sample_edge_codes",
    ),
    "components": ("connected_components", "report"),
    "giant": ("predict", "frontier_root"),
    "oracle": ("uniformity_test", "enumerate_graphs"),
    "experiments": (
        "run_sweep",
        "run_percolation_duel",
        "sample_percolated_regular",
    ),
}


#: Per-function metrics: mean inclusive and self ms per call, calls per op.
FUNCTION_METRICS = {"ms": "ms", "self_ms": "ms", "calls": "1/op"}

#: Sampler counters, as ratios.
COUNTER_METRICS = {
    "sampler.sampling_errors": "1/op",
    "sampler.histogram_draws_per_sequence": "draws/seq",
    "sampler.pairings_per_graph": "pairings/graph",
    "sampler.simplicity_rate": "ratio",
}


def metric_names() -> list[str]:
    """Every per-layer metric a trace of an intact gnmd reports."""
    functions = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
    return [f"{f}.{kind}" for f in functions for kind in FUNCTION_METRICS] + list(
        COUNTER_METRICS
    )


class Tracer:
    """Installs span-recording wrappers on gnmd and summarises the spans."""

    def __init__(self, package: Any, spool_dir: Path):
        self.package = package
        self.spool_dir = spool_dir
        self.spans: list[tuple[str, str | None, str, int, int]] = []
        self.counters: Counter[str] = Counter()
        self._stack: list[str] = []
        self._serial = 0
        self._pid = os.getpid()
        self._forked = False
        self._inherited_depth = 0
        self._stats_counted = False
        self._patches: list[tuple[Any, str, Callable, Callable]] = []
        self.installed: list[str] = []
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording -------------------------------------------------------

    def _after_fork(self) -> None:
        # A forked worker keeps the parent's open spans as parents of its
        # own, but must not report the parent's finished spans again.
        self._pid = os.getpid()
        self._forked = True
        self._inherited_depth = len(self._stack)
        self.spans = []
        self.counters = Counter()

    def _span(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        self._serial += 1
        sid = f"{self._pid}.{self._serial}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))
            if self._forked and len(self._stack) == self._inherited_depth:
                self._spool()

    def _spool(self) -> None:
        path = self.spool_dir / f"spans-{self._pid}.jsonl"
        with open(path, "a") as fh:
            fh.write(json.dumps({"spans": self.spans, "counters": self.counters}))
            fh.write("\n")
        self.spans = []
        self.counters = Counter()

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function that the package still has."""
        if not self._patches:
            for mod_name, fns in TRACED.items():
                module = getattr(self.package, mod_name, None)
                for fn_name in fns:
                    original = getattr(module, fn_name, None)
                    if not callable(original):
                        continue
                    name = f"{mod_name}.{fn_name}"
                    wrapper = self._make_wrapper(name, original)
                    self._patches.append((module, fn_name, original, wrapper))
                    self.installed.append(name)
        for module, fn_name, _, wrapper in self._patches:
            setattr(module, fn_name, wrapper)

    def uninstall(self) -> None:
        for module, fn_name, original, _ in self._patches:
            setattr(module, fn_name, original)

    def _make_wrapper(self, name: str, fn: Callable) -> Callable:
        if name == "sampler.sample_graph":
            return self._wrap_sample_graph(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._span(name, fn, args, kwargs)

        return wrapper

    def _wrap_sample_graph(self, name: str, fn: Callable) -> Callable:
        """Count graphs, sampling errors and, through SamplerStats, draws.

        When the caller passes no stats object the wrapper supplies one, so
        the histogram draws, pairings and simple pairings of every call are
        counted.  Below the regular case (2m < dn) each pairing follows its
        own degree sequence, drawn by histogram conditioning, so the
        pairings of those calls count the conditioned sequences.  If
        SamplerStats or the stats parameter is gone, only the graph and
        error counts remain.
        """
        stats_cls = getattr(self.package.sampler, "SamplerStats", None)
        signature = inspect.signature(fn)
        takes_stats = stats_cls is not None and "stats" in signature.parameters
        self._stats_counted = takes_stats
        fields = ("histogram_draws", "pairings", "simple")

        def counted(*args, **kwargs):
            # Runs inside the span, so a forked worker spools these counts
            # together with the span that produced them.
            stats = None
            if takes_stats:
                bound = signature.bind(*args, **kwargs)
                stats = bound.arguments.get("stats")
                if stats is None:
                    stats = stats_cls()
                    bound.arguments["stats"] = stats
                args, kwargs = bound.args, bound.kwargs
                before = {f: getattr(stats, f, 0) for f in fields}
            try:
                graph = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "SamplingError":
                    self.counters["sampler.sampling_errors"] += 1
                raise
            else:
                self.counters["sampler.graphs"] += 1
                return graph
            finally:
                if stats is not None:
                    delta = {f: getattr(stats, f, 0) - before[f] for f in fields}
                    for f in fields:
                        self.counters[f"sampler.{f}"] += delta[f]
                    n, m, d = (bound.arguments[key] for key in "nmd")
                    if 2 * m < d * n:
                        self.counters["sampler.conditioned_sequences"] += delta["pairings"]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._span(name, counted, args, kwargs)

        return wrapper

    # -- summary ---------------------------------------------------------

    def collect(self) -> None:
        """Merge the spool files of forked workers into this tracer."""
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            for line in path.read_text().splitlines():
                record = json.loads(line)
                self.spans.extend(tuple(s) for s in record["spans"])
                self.counters.update(record["counters"])
            path.unlink()

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps([sid, parent, name, start, end]) + "\n")

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-function mean inclusive and self ms per call, calls per op,
        and the sampler's counters.

        A function that no span reached reads 0; one that was never
        installed is left out, with the counters that depend on it.
        """
        children: dict[str, list[tuple[int, int]]] = defaultdict(list)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        total: Counter[str] = Counter()
        own: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        for sid, _, name, start, end in self.spans:
            total[name] += end - start
            own[name] += end - start - _covered(start, end, children.get(sid, ()))
            calls[name] += 1
        values: dict[str, float] = {}
        for name in self.installed:
            n = calls[name]
            values[f"{name}.ms"] = _ratio(total[name], n * 1e6)
            values[f"{name}.self_ms"] = _ratio(own[name], n * 1e6)
            values[f"{name}.calls"] = n / ops
        c = self.counters
        if "sampler.sample_graph" in self.installed:
            values["sampler.sampling_errors"] = c["sampler.sampling_errors"] / ops
        if self._stats_counted:
            values["sampler.pairings_per_graph"] = _ratio(c["sampler.pairings"], c["sampler.graphs"])
            values["sampler.simplicity_rate"] = _ratio(c["sampler.simple"], c["sampler.pairings"])
            values["sampler.histogram_draws_per_sequence"] = _ratio(
                c["sampler.histogram_draws"], c["sampler.conditioned_sequences"]
            )
        return {
            name: (value, COUNTER_METRICS.get(name) or FUNCTION_METRICS[name.rsplit(".", 1)[1]])
            for name, value in values.items()
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _covered(start: int, end: int, intervals) -> int:
    """Length of [start, end] covered by the union of the intervals."""
    covered = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered
