"""Spans and counters recorded from outside the program.

The benchmark never edits ``repro``: in a traced sample it replaces the
public functions and methods at each layer boundary with thin wrappers that
record a span (name, start, end, parent) and bump counters, then calls the
original.  Spans are kept in memory and handed back to the parent process,
which writes them out as Chrome trace-event JSON.

A span's *self time* is its duration minus the time its direct children
cover; every ``*_s`` layer metric is a sum of self times, so the layers of a
sample add up to the traced wall time of its top-level spans.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict


class Tracer:
    """Nested timing spans and named counters of one sample process."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Time the ``with`` body as one span, nested under the open one."""
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter() - self.origin, None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter() - self.origin
            self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def wrap(self, owner, attribute: str, name: str, on_result=None) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        Args:
            owner: a module, class or instance.
            attribute: the function or method to wrap.
            name: the span name.
            on_result: optional ``(tracer, result, args) -> None`` counter hook.
        """
        if isinstance(owner, type):
            raw = next(k.__dict__[attribute] for k in owner.__mro__ if attribute in k.__dict__)
        else:
            raw = getattr(owner, attribute)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        function = raw.__func__ if kind is not None else raw

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = function(*args, **kwargs)
            if on_result is not None:
                on_result(self, result, args)
            return result

        setattr(owner, attribute, kind(wrapper) if kind is not None else wrapper)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def top_level_seconds(self) -> float:
        """Wall time covered by spans that have no parent."""
        return sum(end - start for _n, start, end, parent in self.spans if parent < 0)


def _count_snapshots(tracer: Tracer, snapshots, _args) -> None:
    tracer.count("timeline.snapshots", len(snapshots))


def _count_run(tracer: Tracer, _result, _args) -> None:
    tracer.count("fastpath.runs")


def _count_read(tracer: Tracer, payload, _args) -> None:
    if payload is not None:
        tracer.count("storage.reads")
        tracer.count("storage.bytes_read", len(payload))


def _count_view(tracer: Tracer, view, _args) -> None:
    if view is not None:
        tracer.count("storage.reads")
        tracer.count("storage.bytes_read", view.payload.nbytes)


def _count_write(tracer: Tracer, path, args) -> None:
    if path is not None:  # DiskStore.write(self, stage, key, payload)
        tracer.count("storage.writes")
        tracer.count("storage.bytes_written", len(args[3]))


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark reports.

    Imports the layer modules, so call it before the timed region.
    """
    from repro.analysis.index import MeasurementIndex
    from repro.experiments.registry import experiment_class, experiment_ids
    from repro.relationships.gao import GaoInference
    from repro.session.study import Study
    from repro.simulation import collector, fastpath, timeline
    from repro.simulation.fastpath import compile as fastpath_compile
    from repro.simulation.fastpath import engine as fastpath_engine
    from repro.storage import codecs, store

    tracer.wrap(timeline.Timeline, "run", "timeline.run", _count_snapshots)
    for module in (fastpath, fastpath_compile, fastpath_engine):
        tracer.wrap(module, "compile_topology", "fastpath.compile")
    tracer.wrap(fastpath_engine, "publish", "fastpath.publish")
    tracer.wrap(fastpath_engine.FastPropagationEngine, "run", "fastpath.run", _count_run)
    tracer.wrap(collector.RouteViewsCollector, "collect", "collector.collect")
    tracer.wrap(collector.LookingGlass, "from_result", "collector.collect")
    tracer.wrap(MeasurementIndex, "from_dataset", "analysis.index_build")
    tracer.wrap(GaoInference, "infer", "relationships.gao")
    tracer.wrap(GaoInference, "infer_weighted", "relationships.gao")

    tracer.wrap(store.DiskStore, "read", "storage.read", _count_read)
    tracer.wrap(store.DiskStore, "read_view", "storage.read", _count_view)
    tracer.wrap(store.DiskStore, "write", "storage.write", _count_write)
    for stage in STAGES:
        codec = codecs.codec_for(stage)
        tracer.wrap(codec, "encode", "storage.encode")
        tracer.wrap(codec, "decode", "storage.decode")

    for stage in STAGES:
        tracer.wrap(Study, stage, f"session.{stage}")
    for identifier in experiment_ids():
        cls = experiment_class(identifier)
        tracer.wrap(cls, "run", f"experiments.{identifier}")


#: The six pipeline stages, in build order (``repro.session.Stage`` values).
STAGES = ("topology", "policies", "propagation", "observation", "irr", "analysis")
