"""In-memory spans around rabideco's public functions, installed at run time.

`install` replaces each traced function under the name its callers look it
up by (for example `rabideco.experiments.build_nested_table`, which is what
the experiment pipelines call) with a wrapper that records a span. No
source file is edited; `uninstall` puts the originals back.

A span records name, start, end, parent span, thread and item id. Spans on
pool threads (Fig5 runs its ladder levels on a thread pool) take as parent
the innermost open span of the main thread, so they stay attached to the
item, but they do not reduce that parent's self time: self time only
subtracts child spans on the same thread.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import math
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    item: str | None


class Recorder:
    """Collects spans and per-layer counters; one per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.names: list[str] = []  # every span name wrapped, called or not
        self.counts: dict[str, float] = dict.fromkeys(COUNTERS, 0.0)
        self.errors: list[str] = []  # counters that failed: the benchmark's fault
        self.item: str | None = None
        self.main_thread = threading.main_thread().ident
        self._ids = itertools.count(1)
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._count_lock = threading.Lock()  # pool threads update counters too

    def _stack(self) -> list[int]:
        if threading.get_ident() == self.main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, count=None):
        """`fn` recording a span named `name`; `count(counts, args, result)`
        then adds to the counters, with args bound to parameter names.

        A counter that fails (say, a parameter it reads was renamed) is
        logged in `errors` and does not reach the caller, so the item
        still runs; the worker then fails the whole benchmark.
        """
        signature = inspect.signature(fn) if count is not None else None
        self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent,
                                       threading.get_ident(), self.item))
            if count is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    with self._count_lock:
                        count(self.counts, bound.arguments, result)
                except Exception as exc:
                    self.errors.append(f"counter of {name}: {exc!r}")
            return result

        return traced


# --------------------------------------------------------------------------
# what is traced, and the counters recorded at each boundary


def _count_predictor(counts, args, result):
    counts["distinguishable.build_predictor.epochs"] += args["n_max"]


def _count_sample(counts, args, result):
    counts["distinguishable.sample_series.points"] += len(result)


def _count_nested(counts, args, result):
    n = args["n_max"]
    triangle = (n + 1) * (n + 2) // 2  # (n, k) pairs with k <= n
    counts["indistinguishable.build_nested_table.cells"] += args["env"].max_events * triangle
    # computed, not measured: one float64 binomial mass per (n, k) pair
    counts["indistinguishable.build_nested_table.weights_bytes"] += 8 * triangle


def _count_mc(counts, args, result):
    env, cfg = args["env"], args["cfg"]
    grid = cfg.grid
    epochs = math.floor(float(grid[-1]) / env.dt + 1e-9) if len(grid) else 0
    counts["montecarlo.simulate_distinguishable.member_events"] += (
        cfg.n_systems * (epochs + len(grid)))
    counts["montecarlo.epoch_draws"] += cfg.n_systems * epochs
    counts["montecarlo.collapse_draws"] += cfg.n_systems * epochs * (1.0 - env.eta)


def _count_fit(counts, args, result):
    counts["fitting.fit_damped_sinusoid.iterations"] += result.iterations
    counts["fitting.fit_damped_sinusoid.points"] += len(args["series"])


def _count_emit(counts, args, result):
    counts["experiments.emit_outputs.bytes"] += sum(Path(p).stat().st_size for p in result)


COUNTERS = (
    "distinguishable.build_predictor.epochs",
    "distinguishable.sample_series.points",
    "indistinguishable.build_nested_table.cells",
    "indistinguishable.build_nested_table.weights_bytes",
    "montecarlo.simulate_distinguishable.member_events",
    "montecarlo.epoch_draws",
    "montecarlo.collapse_draws",
    "fitting.fit_damped_sinusoid.iterations",
    "fitting.fit_damped_sinusoid.points",
    "experiments.emit_outputs.bytes",
)

# (module, attribute, span name, counter)
TARGETS = (
    ("rabideco.cli", "main", "cli.main", None),
    ("rabideco.cli", "load_config", "experiments.load_config", None),
    ("rabideco.cli", "run_experiment", "experiments.run_experiment", None),
    ("rabideco.cli", "emit_outputs", "experiments.emit_outputs", _count_emit),
    ("rabideco.experiments", "build_predictor", "distinguishable.build_predictor",
     _count_predictor),
    ("rabideco.experiments", "sample_series", "distinguishable.sample_series", _count_sample),
    ("rabideco.experiments", "build_nested_table", "indistinguishable.build_nested_table",
     _count_nested),
    ("rabideco.experiments", "sample_rescaled_series",
     "indistinguishable.sample_rescaled_series", None),
    ("rabideco.experiments", "simulate_distinguishable",
     "montecarlo.simulate_distinguishable", _count_mc),
    ("rabideco.experiments", "fit_damped_sinusoid", "fitting.fit_damped_sinusoid", _count_fit),
    ("rabideco.experiments", "master_eq_series", "fitting.master_eq_series", None),
    ("rabideco.indistinguishable", "binomial_weights_row", "core.binomial_weights_row", None),
)


def install(recorder: Recorder, modules: dict) -> list[tuple]:
    """Wrap every target in `modules` (name -> module object).

    Raises LookupError, wrapping nothing, if the program no longer has a
    target under that name: its metrics would otherwise read 0, which looks
    like a gain. Returns what `uninstall` needs to restore the originals.
    """
    missing = [f"{mod_name}.{attr}" for mod_name, attr, _, _ in TARGETS
               if not callable(getattr(modules[mod_name], attr, None))]
    if missing:
        raise LookupError(f"traced functions not found: {missing}; "
                          "update TARGETS in perfbench/tracing.py")
    saved = []
    for mod_name, attr, span_name, count in TARGETS:
        module = modules[mod_name]
        original = getattr(module, attr)
        setattr(module, attr, recorder.wrap(span_name, original, count))
        saved.append((module, attr, original))
    return saved


def uninstall(saved: list[tuple]) -> None:
    for module, attr, original in saved:
        setattr(module, attr, original)


# --------------------------------------------------------------------------
# arithmetic over recorded spans


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the union of its child spans on the same thread."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            children[parent.id].append((max(s.start, parent.start), min(s.end, parent.end)))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(s.id, ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def summarize(spans: list[Span], counts: dict, names, wall_s: float,
              main_thread: int) -> dict:
    """Per-span-name calls, busy and self time, plus the wall accounting.

    `names` are the span names that were wrapped: each gets its figures,
    0 if it was never called. A name that was not wrapped gets none, so a
    metric that depends on it shows up as not measured.

    `wall_s` is the traced wall time, clocked around the item loop apart
    from the spans. `trace.self_sum_s` sums self time over main-thread spans,
    which by the definition of self time equals the time covered by
    top-level spans; `trace.remainder_s` is the rest of `wall_s`, the
    benchmark's own loop between items.
    """
    selfs = self_times(spans)
    stats = ("calls", "busy_s", "self_s")
    out = {f"{name}.{stat}": 0.0 for name in names for stat in stats}
    for s in spans:
        for stat, value in zip(stats, (1, s.end - s.start, selfs[s.id])):
            key = f"{s.name}.{stat}"
            out[key] = out.get(key, 0.0) + value
    out.update(counts)
    main = [s for s in spans if s.thread == main_thread]
    top_level = sum(s.end - s.start for s in main if s.parent is None)
    out["trace.wall_s"] = wall_s
    out["trace.self_sum_s"] = sum(selfs[s.id] for s in main)
    out["trace.remainder_s"] = wall_s - top_level
    mc = "montecarlo.simulate_distinguishable"
    if f"{mc}.busy_s" in out and f"{mc}.member_events" in out:
        busy = out[f"{mc}.busy_s"]
        out[f"{mc}.member_events_per_s"] = (
            out[f"{mc}.member_events"] / busy if busy > 0.0 else 0.0)
    if "montecarlo.epoch_draws" in out:
        draws = out.pop("montecarlo.epoch_draws")
        collapses = out.pop("montecarlo.collapse_draws")
        out["montecarlo.collapse_ratio"] = collapses / draws if draws > 0.0 else 0.0
    return out
