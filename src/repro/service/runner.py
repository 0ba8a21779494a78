"""Single-job execution: the service's unit of work and its run records.

:func:`execute_job` expands a :class:`~repro.service.spec.JobSpec` into
run tasks in the exact task order of
:func:`repro.experiments.sweep.run_sweep` and executes them through the
same cache-aware loop, :func:`repro.perf.executor.run_cached`.  A job's
results — and therefore its
:func:`~repro.analysis.determinism.sweep_fingerprint` — are bit-identical
to ``run_sweep`` on the same spec, at any ``jobs`` width and any cache
hit pattern.

Every run produces a :class:`RunRecord` (cache key + hit/miss) in
deterministic spec order; the artifact manifest persists them so a past
job is auditable run by run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.determinism import sweep_fingerprint
from repro.metrics.collector import RunResult
from repro.perf.cache import RunCache
from repro.perf.executor import ExecuteFn, RunTask, run_cached
from repro.perf.shards import ShardReport
from repro.service.spec import JobSpec

__all__ = ["RunRecord", "JobExecution", "execute_job", "EventHook", "ExecuteFn"]

#: ``on_event(kind, policy, load, result)`` with kind in
#: {"run_cached", "run_done"} — invoked per run (deterministic spec order
#: for cache hits, completion order for live runs).
EventHook = Callable[[str, str, float, RunResult], None]


@dataclass(frozen=True)
class RunRecord:
    """One run's cache outcome inside a job."""

    policy: str
    load: float
    cache_key: Optional[str]
    hit: bool

    def to_dict(self) -> Dict[str, object]:
        return {
            "policy": self.policy,
            "load": self.load,
            "cache_key": self.cache_key,
            "hit": self.hit,
        }


@dataclass(frozen=True)
class JobExecution:
    """Outcome of one executed job."""

    results: Dict[str, List[RunResult]]
    records: List[RunRecord]
    hits: int
    executed: int
    fingerprint: str
    execute_seconds: float
    #: Per-shard layout and timings of the executed runs: batch shards and
    #: one scalar shard (empty when nothing executed, and for injected
    #: executors).
    shards: Tuple[ShardReport, ...] = field(default=())

    @property
    def total(self) -> int:
        return len(self.records)


def execute_job(
    spec: JobSpec,
    cache: Optional[RunCache],
    jobs: int = 1,
    execute: Optional[ExecuteFn] = None,
    on_event: Optional[EventHook] = None,
    slab_shard: Optional[int] = None,
) -> JobExecution:
    """Execute one job through :func:`repro.perf.executor.run_cached`.

    ``execute`` overrides the executor (tests gate and instrument
    execution through it); ``slab_shard`` applies to
    ``spec.engine == "batch"``.  The cache's counters are flushed once
    the job is done.
    """
    plan = spec.plan()
    descriptions = spec.run_descriptions()
    tasks = [RunTask(d.config, d.workload, plan) for d in descriptions]
    hit = [False] * len(tasks)
    shard_reports: List[ShardReport] = []

    def on_result(i: int, result: RunResult, cached: bool) -> None:
        hit[i] = cached
        if on_event is not None:
            kind = "run_cached" if cached else "run_done"
            on_event(kind, descriptions[i].policy, descriptions[i].load, result)

    start = time.perf_counter()
    results, keys = run_cached(
        tasks,
        cache,
        spec.engine,
        jobs,
        on_result=on_result,
        slab_shard=slab_shard,
        on_shard=shard_reports.append,
        execute=execute,
    )
    if cache is not None:
        cache.flush_counters()
    execute_seconds = time.perf_counter() - start

    n = len(spec.loads)
    full = {
        policy: results[pi * n:(pi + 1) * n]
        for pi, policy in enumerate(spec.policies)
    }
    records = [
        RunRecord(d.policy, d.load, key, hit=h)
        for d, key, h in zip(descriptions, keys, hit)
    ]
    return JobExecution(
        results=full,
        records=records,
        hits=sum(hit),
        executed=len(tasks) - sum(hit),
        fingerprint=sweep_fingerprint(full),
        execute_seconds=execute_seconds,
        shards=tuple(shard_reports),
    )
