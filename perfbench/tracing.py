"""In-memory spans and counts recorded around the public calls into each layer.

Only the traced pass installs anything: :func:`instrumented` patches the
module attributes that the program looks up at call time and restores
them on exit, and :class:`TracedRunCache` / :class:`TracedArtifactStore`
are subclasses handed to the public entry points in place of the plain
classes.  Nothing here lives in ``src/``.

A span records a name, start, end (``perf_counter``), the span that
caused it and, for service work, the job id.  A layer is the part of a
span name before the first dot.  Spans inside worker processes are not
seen; worker time arrives through ``ShardReport.seconds`` instead.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.perf.cache import RunCache
from repro.service.artifacts import ArtifactStore


@dataclass(eq=False)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    job: Optional[str] = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Spans and counts of one traced pass, kept in memory until written."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(int)
        #: Number of :meth:`count` calls, for :func:`overhead_seconds`.
        self.count_calls = 0
        #: Shard reports collected from every ``run_sweep_batched`` call.
        self.shards: List[Any] = []
        #: ``(jobs, seconds)`` of every ``run_sweep_batched`` call.
        self.sweep_calls: List[Tuple[int, float]] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- thread context -------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_context(self, parent: Optional[int], job: Optional[str]) -> None:
        """Default parent and job id for spans opened on this thread."""
        self._local.parent = parent
        self._local.job = job

    # -- spans ------------------------------------------------------------
    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent, job = stack[-1].id, stack[-1].job
        else:
            parent = getattr(self._local, "parent", None)
            job = getattr(self._local, "job", None)
        span = Span(next(self._ids), name, perf_counter(), 0.0, parent, job)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        stack = self._stack()
        if span in stack:
            stack.remove(span)
        with self._lock:
            self.spans.append(span)

    def close_open(self, name: str) -> None:
        """Close the innermost span named ``name`` open on this thread."""
        for span in reversed(self._stack()):
            if span.name == name:
                self.close(span)
                return

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        opened = self.open(name)
        try:
            yield opened
        finally:
            self.close(opened)

    def add(
        self, name: str, start: float, end: float,
        parent: Optional[int], job: Optional[str] = None,
    ) -> None:
        """Record a span whose interval was measured elsewhere."""
        with self._lock:
            self.spans.append(
                Span(next(self._ids), name, start, end, parent, job)
            )

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value
            self.count_calls += 1

    # -- derived ----------------------------------------------------------
    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {
                "spans": [asdict(s) for s in self.spans],
                "counts": dict(self.counts),
                "shards": [r.to_dict() for r in self.shards],
            },
            indent=1,
        ))


def self_times(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per layer: span count, total time and self time.

    A span's self time is its duration minus the part of it covered by
    the union of its child spans' intervals.
    """
    children: Dict[int, List[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"spans": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        row = table[s.layer]
        row["spans"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += s.end - s.start - covered
    return dict(table)


def overhead_seconds(tracer: Tracer, calls: int = 20000) -> float:
    """The tracing cost of a pass: its spans and counts times their unit cost.

    The unit costs are timed on a scratch tracer: a call through a
    span-recording wrap, less the bare call, and one :meth:`Tracer.count`.
    """
    probe = Tracer()

    def bare() -> None:
        return None

    def wrapped() -> None:
        with probe.span("probe.call"):
            return bare()

    def per_call(fn: Any) -> float:
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        return (perf_counter() - t0) / calls

    span_cost = per_call(wrapped) - per_call(bare)
    count_cost = per_call(lambda: probe.count("probe.count"))
    return len(tracer.spans) * span_cost + tracer.count_calls * count_cost


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Every per-layer metric derivable from one traced pass."""
    c = tracer.counts
    batch = [r for r in tracer.shards if r.kind == "batch"]
    shard_s = [r.seconds for r in tracer.shards]
    tel: Dict[str, int] = defaultdict(int)
    for r in batch:
        for k, v in (r.telemetry or {}).items():
            if isinstance(v, int):
                tel[k] += v
    batch_s = sum(r.seconds for r in batch)
    engine_s = tracer.total("engine.run")
    return {
        "experiments.table_s": tracer.total("experiments.table"),
        "experiments.fig3_s": tracer.total("experiments.fig3"),
        "experiments.sweeps_s": tracer.total("experiments.sweeps"),
        "experiments.ablations_s": tracer.total("experiments.ablations"),
        "executor.shards": len(tracer.shards),
        "executor.shard_s_sum": sum(shard_s),
        "executor.shard_s_max": max(shard_s, default=0.0),
        "executor.parallel_efficiency": _ratio(
            sum(shard_s), sum(j * s for j, s in tracer.sweep_calls)
        ),
        "executor.payload_bytes": sum(r.payload_bytes for r in tracer.shards),
        "executor.decode_s": tracer.total("executor.decode"),
        "executor.fallback_runs": sum(
            r.runs for r in tracer.shards if r.kind == "fallback"
        ),
        "batch.cycles_executed": tel["cycles_executed"],
        "batch.cycles_skipped": tel["cycles_skipped"],
        "batch.blocked_retries": tel["blocked_retries"],
        "batch.dispatches": tel["dispatches"],
        "batch.dispatch_yield": _ratio(
            tel["dispatches"], tel["dispatches"] + tel["blocked_retries"]
        ),
        "batch.s_per_executed_cycle": _ratio(batch_s, tel["cycles_executed"]),
        "batch.runs_per_shard_s": _ratio(sum(r.runs for r in batch), batch_s),
        "engine.runs": c["engine.runs"],
        "engine.s": engine_s,
        "engine.events_per_s": _ratio(c["engine.events"], engine_s),
        "engine.packets_per_s": _ratio(c["engine.packets"], engine_s),
        "cache.key_for_s": tracer.total("cache.key_for"),
        "cache.get_many_s": tracer.total("cache.get_many"),
        "cache.get_many_keys": c["cache.get_many_keys"],
        "cache.hit_ratio": _ratio(c["cache.hits"], c["cache.get_many_keys"]),
        "cache.put_many_s": tracer.total("cache.put_many"),
        "cache.put_many_entries": c["cache.put_many_entries"],
        "service.submit_s": tracer.total("service.submit"),
        "service.queue_wait_s": tracer.total("service.queue_wait"),
        "service.execute_s": c["service.execute_s"],
        "service.finalize_s": tracer.total("service.finalize"),
        "service.manifest_write_s": tracer.total("service.manifest_write"),
        "service.manifest_bytes": c["service.manifest_bytes"],
        "trace.overhead_s": overhead_seconds(tracer),
    }


# ----------------------------------------------------------------------
# Layer wraps
# ----------------------------------------------------------------------
class TracedRunCache(RunCache):
    """A :class:`RunCache` that records its calls on a tracer."""

    def __init__(self, root: Path, tracer: Tracer) -> None:
        super().__init__(root)
        self._tracer = tracer

    def key_for(self, *args: Any, **kwargs: Any) -> str:
        with self._tracer.span("cache.key_for"):
            return super().key_for(*args, **kwargs)

    def get_many(self, keys):  # type: ignore[no-untyped-def]
        with self._tracer.span("cache.get_many"):
            found = super().get_many(keys)
        self._tracer.count("cache.get_many_keys", len(keys))
        self._tracer.count("cache.hits", sum(r is not None for r in found))
        return found

    def put_many(self, items):  # type: ignore[no-untyped-def]
        with self._tracer.span("cache.put_many"):
            stored = super().put_many(items)
        self._tracer.count("cache.put_many_entries", len(items))
        return stored


class TracedArtifactStore(ArtifactStore):
    """An :class:`ArtifactStore` that records manifest writes."""

    def __init__(self, root: Path, tracer: Tracer) -> None:
        super().__init__(root)
        self._tracer = tracer

    def write_manifest(self, manifest: Dict[str, Any]) -> Path:
        with self._tracer.span("service.manifest_write"):
            path = super().write_manifest(manifest)
        self._tracer.count("service.manifest_bytes", path.stat().st_size)
        return path


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[None]:
    """Patch the layer entry points the program resolves at call time."""
    import repro.core.batch as batch
    import repro.perf.executor as executor
    import repro.service.orchestrator as orchestrator
    from repro.core.engine import FastEngine

    run_sweep_batched = executor.run_sweep_batched
    decode_payload = batch.decode_payload
    run_payload = batch.BatchEngine.run_payload
    engine_run = FastEngine.run
    execute_job = orchestrator.execute_job

    def traced_sweep(tasks, *args, on_shard=None, **kwargs):  # type: ignore[no-untyped-def]
        jobs = kwargs.get("jobs", args[0] if args else 1)

        def collect(report):  # type: ignore[no-untyped-def]
            tracer.shards.append(report)
            if on_shard is not None:
                on_shard(report)

        with tracer.span("executor.run_sweep_batched") as span:
            out = run_sweep_batched(tasks, *args, on_shard=collect, **kwargs)
        tracer.sweep_calls.append((jobs, span.end - span.start))
        return out

    def traced_decode(*args, **kwargs):  # type: ignore[no-untyped-def]
        with tracer.span("executor.decode"):
            return decode_payload(*args, **kwargs)

    def traced_payload(self, *args, **kwargs):  # type: ignore[no-untyped-def]
        with tracer.span("batch.run_payload"):
            return run_payload(self, *args, **kwargs)

    def traced_engine_run(self, *args, **kwargs):  # type: ignore[no-untyped-def]
        with tracer.span("engine.run"):
            result = engine_run(self, *args, **kwargs)
        tracer.count("engine.runs")
        tracer.count("engine.events", self.sim.event_count)
        tracer.count("engine.packets", self.collector.delivered_total)
        return result

    def traced_execute_job(*args, **kwargs):  # type: ignore[no-untyped-def]
        with tracer.span("service.execute"):
            execution = execute_job(*args, **kwargs)
        tracer.count("service.execute_s", execution.execute_seconds)
        # Closed by the "completed"/"failed" update of the job.
        tracer.open("service.finalize")
        return execution

    executor.run_sweep_batched = traced_sweep
    batch.decode_payload = traced_decode
    batch.BatchEngine.run_payload = traced_payload
    FastEngine.run = traced_engine_run
    orchestrator.execute_job = traced_execute_job
    try:
        yield
    finally:
        executor.run_sweep_batched = run_sweep_batched
        batch.decode_payload = decode_payload
        batch.BatchEngine.run_payload = run_payload
        FastEngine.run = engine_run
        orchestrator.execute_job = execute_job
