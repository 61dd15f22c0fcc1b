"""In-memory span tracer that wraps irsrelay's layer functions from outside.

The package is not modified: :func:`install` replaces module attributes with
timing wrappers, on the names where callers look them up.  ``harness`` and
``cli`` bind the channel, solver and metric functions with ``from ... import``,
so a wrapper on ``irsrelay.beamforming.ais_max_rp`` alone would see none of
the calls; the wrappers therefore go on ``irsrelay.harness.*`` and
``irsrelay.cli.*``.  Calls a layer makes inside itself (the alternating
updates inside ``ais_max_rp``, say) are not separate spans: they count toward
the enclosing span's self time.

Each span records its name (``<layer>.<function>``), start and end on the
wall clock and on its thread's CPU clock, parent span, thread id, and the
trial and method it belongs to.  A span that starts on a thread with no open
span (a thread-pool worker) takes as parent the innermost span open on the
thread that installed the tracer, so ``run_trial`` spans on pool threads hang
under the ``collect_trials`` span that dispatched them.

Work is measured in thread CPU time: a worker that waits for the interpreter
lock or for a free core uses none, so two workers that take turns add up to
one busy core, not two.  Self time is a span's CPU time minus that of its
children on the same thread; children on other threads spent other threads'
CPU time.  The wall time a trial spent off its CPU is reported as waiting.
"""

from __future__ import annotations

import importlib
import math
import threading
import time
import warnings
from collections import defaultdict
from dataclasses import dataclass

LAYERS = ("channel", "beamforming", "metrics", "harness", "cli")

#: layers whose self times together make up the trials' busy time
TRIAL_LAYERS = ("channel", "beamforming", "metrics", "harness")

SOLVERS_WITH_ITERATIONS = (
    "beamforming.ais_max_rp",
    "beamforming.nsp_max_rp_mrc",
    "beamforming.second_slot_optimize",
)

FIRST_SLOT_SOLVERS = (
    "beamforming.ais_max_rp",
    "beamforming.nsp_max_rp_mrc",
    "beamforming.irses_max_rp_mrc",
)

#: ``max_iter`` is the fifth positional parameter of every iterating solver
MAX_ITER_POSITION = 4


@dataclass(eq=False)
class Span:
    name: str
    parent: "Span | None"
    thread: int
    #: (trial index, method, m, n) of the enclosing ``run_trial``
    trial: tuple | None
    #: wall clock (``time.perf_counter``)
    start: float = 0.0
    end: float = 0.0
    #: CPU clock of the span's thread (``time.thread_time``)
    cpu_start: float = 0.0
    cpu_end: float = 0.0
    #: facts read from the call: channel seed, iterations, max_iter
    info: dict | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def cpu(self) -> float:
        return self.cpu_end - self.cpu_start


def _record_trial(span: Span, args, kwargs, result) -> None:
    config = args[0] if args else kwargs["config"]
    index = args[1] if len(args) > 1 else kwargs["trial_index"]
    span.trial = (index, config.method, config.m, config.n)


def _record_seed(span: Span, args, kwargs, result) -> None:
    span.info = {"seed": args[4] if len(args) > 4 else kwargs["seed"]}


def _record_iterations(span: Span, args, kwargs, result) -> None:
    if len(args) > MAX_ITER_POSITION:
        max_iter = args[MAX_ITER_POSITION]
    else:
        max_iter = kwargs["max_iter"]
    span.info = {"iterations": result.iterations, "max_iter": max_iter}


#: (module, attribute, span name, hook run before the call with the span and
#: arguments, hook run after it with the result)
TRACE_POINTS = (
    ("irsrelay.harness", "sample_channels", "channel.sample_channels", None, _record_seed),
    ("irsrelay.harness", "stream_seed", "channel.stream_seed", None, None),
    ("irsrelay.harness", "ais_max_rp", "beamforming.ais_max_rp", None, _record_iterations),
    ("irsrelay.harness", "nsp_max_rp_mrc", "beamforming.nsp_max_rp_mrc", None, _record_iterations),
    ("irsrelay.harness", "irses_max_rp_mrc", "beamforming.irses_max_rp_mrc", None, None),
    (
        "irsrelay.harness",
        "second_slot_optimize",
        "beamforming.second_slot_optimize",
        None,
        _record_iterations,
    ),
    ("irsrelay.harness", "irses_partition", "beamforming.irses_partition", None, None),
    ("irsrelay.harness", "ur_update_ais", "beamforming.ur_update_ais", None, None),
    ("irsrelay.harness", "rate_from_power", "metrics.rate_from_power", None, None),
    ("irsrelay.harness", "receive_power_ais", "metrics.receive_power_ais", None, None),
    ("irsrelay.harness", "run_trial", "harness.run_trial", _record_trial, None),
    ("irsrelay.harness", "collect_trials", "harness.collect_trials", None, None),
    ("irsrelay.harness", "summarize_records", "harness.summarize_records", None, None),
    ("irsrelay.cli", "collect_trials", "harness.collect_trials", None, None),
    ("irsrelay.cli", "summarize_records", "harness.summarize_records", None, None),
    ("irsrelay.cli", "sweep", "harness.sweep", None, None),
    ("irsrelay.cli", "parse_config", "cli.parse_config", None, None),
    ("irsrelay.cli", "build_run_table", "cli.build_table", None, None),
    ("irsrelay.cli", "build_sweep_table", "cli.build_table", None, None),
    ("irsrelay.cli", "format_table", "cli.format_table", None, None),
    ("irsrelay.cli", "emit_table", "cli.emit_table", None, None),
)


class Tracer:
    """Collects spans in memory; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.degenerate_warnings = 0
        self._home = threading.get_ident()
        self._home_stack: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._saved_warnings = None

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, func, name: str, before=None, after=None):
        """Return ``func`` wrapped so that every call records one span."""

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                home = self._home_stack[-1:]
                parent = home[0] if home else None
            span = Span(name, parent, threading.get_ident(), parent and parent.trial)
            if before is not None:
                before(span, args, kwargs, None)
            stack.append(span)
            span.start = time.perf_counter()
            span.cpu_start = time.thread_time()
            try:
                result = func(*args, **kwargs)
            finally:
                span.cpu_end = time.thread_time()
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    def patch(self, module, attribute: str, name: str, before=None, after=None) -> None:
        original = getattr(module, attribute)
        self._patches.append((module, attribute, original))
        setattr(module, attribute, self.wrap(original, name, before, after))

    def install(self) -> "Tracer":
        """Wrap every trace point and start counting degenerate warnings."""
        for module_name, attribute, name, before, after in TRACE_POINTS:
            self.patch(importlib.import_module(module_name), attribute, name, before, after)
        from irsrelay.errors import DegenerateElementWarning

        saved = self._saved_warnings = (warnings.showwarning, warnings.filters[:])
        warnings.simplefilter("always", DegenerateElementWarning)

        def count_warning(message, category, *rest, **kwargs):
            if issubclass(category, DegenerateElementWarning):
                with self._lock:
                    self.degenerate_warnings += 1
                return
            saved[0](message, category, *rest, **kwargs)

        warnings.showwarning = count_warning
        return self

    def uninstall(self) -> None:
        """Put every wrapped attribute and the warning handling back."""
        while self._patches:
            module, attribute, original = self._patches.pop()
            setattr(module, attribute, original)
        if self._saved_warnings is not None:
            warnings.showwarning, warnings.filters[:] = self._saved_warnings
            self._saved_warnings = None

    def self_times(self) -> dict[int, float]:
        """Self CPU time of every span, keyed by ``id(span)``."""
        self_time = {id(span): span.cpu for span in self.spans}
        for span in self.spans:
            if span.parent is not None and span.parent.thread == span.thread:
                self_time[id(span.parent)] -= span.cpu
        return self_time

    def records(self) -> list[dict]:
        """The spans as plain dicts, parents referenced by list position."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            {
                "id": i,
                "name": span.name,
                "layer": span.layer,
                "start": span.start,
                "end": span.end,
                "cpu_s": span.cpu,
                "parent": index.get(id(span.parent)) if span.parent else None,
                "thread": span.thread,
                "trial": span.trial[0] if span.trial else None,
                "method": span.trial[1] if span.trial else None,
            }
            for i, span in enumerate(self.spans)
        ]


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list; 0 when it is empty."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def layer_metrics(tracer: Tracer, workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced table build.

    Self times, busy time and call percentiles are thread CPU time; only
    ``harness.collect_trials.wall_s`` and ``harness.run_trial.wait_s`` (the
    trials' wall time minus their CPU time) read the wall clock.  ``workers``
    is the trial worker count of the workload (1 when serial); it scales the
    denominator of ``harness.parallel_efficiency``.
    """
    self_time = tracer.self_times()
    by_name: dict[str, list[Span]] = defaultdict(list)
    layer_self: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
    for span in tracer.spans:
        by_name[span.name].append(span)
        layer_self[span.layer] += self_time[id(span)]

    out: dict[str, float] = {}

    def timing(name: str, percentiles: bool = True) -> list[Span]:
        spans = by_name.get(name, [])
        out[f"{name}.calls"] = len(spans)
        out[f"{name}.self_s"] = sum(self_time[id(s)] for s in spans)
        if percentiles:
            cpu_times = sorted(s.cpu for s in spans)
            out[f"{name}.p50_us"] = _percentile(cpu_times, 0.50) * 1e6
            out[f"{name}.p95_us"] = _percentile(cpu_times, 0.95) * 1e6
        return spans

    draws = timing("channel.sample_channels")
    seeds = {s.info["seed"] for s in draws}
    out["channel.draws_per_trial"] = len(draws) / len(seeds) if seeds else 0.0
    timing("channel.stream_seed", percentiles=False)

    for name in SOLVERS_WITH_ITERATIONS:
        spans = timing(name)
        iterations = [s.info["iterations"] for s in spans]
        hits = sum(s.info["iterations"] >= s.info["max_iter"] for s in spans)
        out[f"{name}.iters_mean"] = sum(iterations) / len(spans) if spans else 0.0
        out[f"{name}.max_iter_frac"] = hits / len(spans) if spans else 0.0
    timing("beamforming.irses_max_rp_mrc")
    timing("beamforming.irses_partition", percentiles=False)
    timing("beamforming.ur_update_ais", percentiles=False)
    solves = [s for name in FIRST_SLOT_SOLVERS for s in by_name.get(name, [])]
    solved = {s.trial for s in solves}
    out["beamforming.solves_per_trial"] = len(solves) / len(solved) if solved else 0.0
    out["beamforming.degenerate_warnings"] = tracer.degenerate_warnings

    timing("metrics.rate_from_power", percentiles=False)
    timing("metrics.receive_power_ais", percentiles=False)

    trials = timing("harness.run_trial")
    busy = sum(s.cpu for s in trials)
    out["harness.run_trial.wait_s"] = sum(s.duration for s in trials) - busy
    wall = sum(s.duration for s in by_name.get("harness.collect_trials", []))
    out["harness.collect_trials.wall_s"] = wall
    out["harness.collect_trials.busy_s"] = busy
    out["harness.parallel_efficiency"] = busy / (wall * workers) if wall else 0.0
    out["harness.summarize_records.self_s"] = sum(
        self_time[id(s)] for s in by_name.get("harness.summarize_records", [])
    )

    for name in ("cli.parse_config", "cli.build_table", "cli.format_table", "cli.emit_table"):
        out[f"{name}.self_s"] = sum(self_time[id(s)] for s in by_name.get(name, []))

    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    trial_layers = sum(layer_self[layer] for layer in TRIAL_LAYERS)
    out["trace.self_sum_over_busy"] = trial_layers / busy if busy else 0.0
    return out
