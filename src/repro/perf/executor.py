"""Process-pool execution of independent simulation runs.

Every cell of the paper's (pattern × policy × load) evaluation matrix is
an independent simulation, so the matrix parallelizes perfectly — the only
thing to get right is determinism:

* **Seeding.**  A run's randomness is fully described by its
  :class:`~repro.traffic.workload.WorkloadSpec` seed: the engine builds a
  fresh :class:`~repro.sim.rng.RngRegistry` whose per-entity streams are
  ``numpy.random.SeedSequence``-spawned from that seed (injective in the
  stream name).  No RNG state crosses process boundaries, so a run's
  draws are identical whether it executes inline, in a worker, or in any
  worker interleaving — the common-random-numbers contract across the
  four NP/P × NB/B policies is preserved under any ``jobs`` value.

* **Transport.**  A :class:`RunTask` carries only frozen declarative
  dataclasses (config/workload/plan) into the worker; the
  :class:`~repro.metrics.collector.RunResult` coming back is plain data.
  Both pickle cleanly under every multiprocessing start method.  Batch
  shards return a :class:`~repro.core.batch.BatchResultPayload`
  (struct-of-arrays numpy buffers) instead of a RunResult list; the
  parent decodes it against its own task descriptions, so the wire
  volume is ten flat arrays per shard rather than one object graph per
  run.

* **Assembly.**  Results are reassembled by task index, so the output
  sequence never depends on completion order.

:func:`run_sweep_batched` is the one execution loop, for both engines and
every ``jobs`` width; :func:`run_cached` is the one cache-aware loop over
it, and both the sweep harness and the service's jobs run through that.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence, Tuple
from typing import cast

from repro.core.config import ERapidConfig
from repro.metrics.collector import MeasurementPlan, RunResult
from repro.perf.shards import SLAB_CAP, SWEEP_ENGINES, ShardReport, ShardSpec
from repro.perf.shards import check_engine, plan_shards
from repro.traffic.workload import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.perf.cache import RunCache

__all__ = [
    "RunTask",
    "execute_run",
    "run_cached",
    "run_sweep_batched",
    "PUT_CHUNK",
    "SLAB_CAP",
    "SWEEP_ENGINES",
]

#: Fresh results buffered per :meth:`~repro.perf.cache.RunCache.put_many`
#: flush.  Bounds how many completed runs a crash could lose from the
#: cache (never from the caller's results) while still batching the fsync
#: traffic.
PUT_CHUNK = 32

#: ``on_result(index, result)`` — invoked as runs complete (completion
#: order under a pool, queue order inline).
ResultHook = Callable[[int, RunResult], None]

#: ``on_result(index, result, cached)`` — :func:`run_cached`'s hook.
CachedResultHook = Callable[[int, RunResult, bool], None]

#: ``on_shard(report)`` — invoked once per shard as it finishes; the
#: service layer collects these into the job manifest.
ShardHook = Callable[[ShardReport], None]

#: ``execute(tasks, jobs=, on_result=)`` — injectable into
#: :func:`run_cached` in place of :func:`run_sweep_batched`, so tests can
#: gate and instrument execution without the real pool.
ExecuteFn = Callable[..., List[RunResult]]


@dataclass(frozen=True, slots=True)
class RunTask:
    """One simulation run, described declaratively (picklable)."""

    config: ERapidConfig
    workload: WorkloadSpec
    plan: MeasurementPlan


def execute_run(task: RunTask) -> RunResult:
    """Run one task to completion in the current process."""
    from repro.core.engine import FastEngine

    return FastEngine(task.config, task.workload, task.plan).run()


def _execute_item(item: Tuple[Tuple[RunTask, ...], bool, bool]) -> object:
    """Worker entry point for one work item (module-level: picklable).

    ``item`` is ``(tasks, batch, time_skip)``.  A scalar item holds one
    task and returns its :class:`RunResult`.  A batch shard returns
    ``(worker_seconds, BatchResultPayload, telemetry)`` — the compact
    struct-of-arrays transport, never a pickled RunResult list; the
    parent decodes it against its own task descriptions.  The telemetry
    dict carries the slab's cycle/event counters (a handful of ints —
    negligible next to the payload arrays).
    """
    shard_tasks, batch, time_skip = item
    if not batch:
        return execute_run(shard_tasks[0])
    from repro.core.batch import BatchEngine

    start = perf_counter()
    engine = BatchEngine(
        [(t.config, t.workload, t.plan) for t in shard_tasks],
        time_skip=time_skip,
    )
    payload = engine.run_payload()
    telemetry = (
        engine.telemetry.to_dict() if engine.telemetry is not None else None
    )
    return perf_counter() - start, payload, telemetry


def _submit_inline(fn: Callable[[Any], Any], arg: Any) -> Future[Any]:
    """Run ``fn(arg)`` now, in this process; its outcome as a done future."""
    fut: Future[Any] = Future()
    try:
        fut.set_result(fn(arg))
    except Exception as exc:  # noqa: BLE001 - re-raised by fut.result()
        fut.set_exception(exc)
    return fut


def run_sweep_batched(
    tasks: Sequence[RunTask],
    jobs: int = 1,
    on_result: Optional[ResultHook] = None,
    slab_shard: Optional[int] = None,
    on_shard: Optional[ShardHook] = None,
    time_skip: bool = True,
    engine: str = "batch",
) -> List[RunResult]:
    """Execute ``tasks`` on ``engine``; returns results in task order.

    Under ``engine="batch"`` the tasks the batch model covers
    (:func:`repro.core.batch.coverage_gap` returns None) are grouped by
    :func:`repro.core.batch.slab_key` and sharded into per-worker
    sub-slabs by :func:`repro.perf.shards.plan_shards`; the other tasks
    run on the scalar engine.  ``engine="fast"`` runs every task on the
    scalar engine.  The plan becomes one queue of work items: one per
    batch shard, then one per scalar run.  When ``jobs > 1`` and the
    queue holds more than one item, it feeds one process pool, keeping at
    most two items in flight per worker; otherwise each item runs inline,
    in queue order, with no transport at all.  ``slab_shard`` overrides
    the shard-size heuristic (see :mod:`repro.perf.shards`).

    ``on_result(index, result)`` fires exactly once per index — in task
    order within a shard as that shard completes, item completion order
    across items (queue order when inline).  ``on_shard`` gets one
    :class:`ShardReport` per batch shard and one for the scalar shard,
    once its last run completes.  Shard layout never changes a run's
    result: every run's state rows are independent, so partitioning is
    purely a throughput concern (the batch benchmark gates fingerprint
    identity across ``jobs`` and ``slab_shard`` permutations).

    A batch shard that raises is not fatal: its indices go to the front
    of the queue as scalar items and the shard is reported with
    ``kind="fallback"``; a scalar run's exception propagates.

    ``time_skip=False`` forces every batch shard onto the engine's
    unskipped cycle-by-cycle loop — results are bit-identical either way
    (the benchmark gates it); the flag exists for A/B timing and for the
    identity gate itself.
    """
    from repro.core.batch import decode_payload

    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    plan = plan_shards(tasks, jobs=jobs, slab_shard=slab_shard, engine=engine)
    results: List[Optional[RunResult]] = [None] * len(tasks)
    started = perf_counter()
    #: Work items in queue order: ``(shard, None)`` runs a batch shard,
    #: ``(shard, i)`` runs task ``i`` alone on the scalar engine — a run
    #: of the scalar shard, or one rescued from a failed batch shard.
    queue: deque[Tuple[ShardSpec, Optional[int]]] = deque(
        (shard, None) for shard in plan.batch_shards
    )
    scalar_shard = next((s for s in plan.shards if s.kind == "scalar"), None)
    scalar_open = 0
    if scalar_shard is not None:
        queue.extend((scalar_shard, i) for i in scalar_shard.indices)
        scalar_open = scalar_shard.runs

    def report(shard: ShardSpec, kind: str, seconds: float, **extra: Any) -> None:
        if on_shard is not None:
            on_shard(ShardReport(shard.shard_id, kind, shard.runs, seconds, **extra))

    def deliver(indices: Sequence[int], decoded: Sequence[RunResult]) -> None:
        # Task order within the shard — the exactly-once, in-order
        # contract the service's event stream relies on.
        for i, result in zip(indices, decoded):
            results[i] = result
            if on_result is not None:
                on_result(i, result)

    pooled = jobs > 1 and len(queue) > 1
    workers = min(jobs, len(queue)) if pooled else 1
    # Two items in flight per worker keep each one fed while the parent
    # decodes; inline, the one "in flight" item has already run.
    depth = 2 * workers if pooled else 1
    pool_cm = ProcessPoolExecutor(workers) if pooled else nullcontext()
    with pool_cm as pool:
        submit = pool.submit if pool is not None else _submit_inline
        pending: dict[Future[Any], Tuple[ShardSpec, Optional[int]]] = {}
        while queue or pending:
            while queue and len(pending) < depth:
                shard, index = item = queue.popleft()
                indices = shard.indices if index is None else (index,)
                work = (
                    tuple(tasks[i] for i in indices), index is None, time_skip
                )
                pending[submit(_execute_item, work)] = item
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            # Submission order, so simultaneous completions deliver
            # deterministically.
            for fut in [f for f in pending if f in done]:
                shard, index = pending.pop(fut)
                if index is not None:
                    deliver((index,), (fut.result(),))
                    if shard.kind == "scalar":
                        scalar_open -= 1
                        if scalar_open == 0:
                            report(shard, "scalar", perf_counter() - started)
                    continue
                try:
                    seconds, payload, telemetry = fut.result()
                except Exception as exc:  # noqa: BLE001 - re-queued, not dropped
                    queue.extendleft((shard, i) for i in reversed(shard.indices))
                    error = f"{type(exc).__name__}: {exc}"
                    report(shard, "fallback", perf_counter() - started, error=error)
                    continue
                runs = [
                    (tasks[i].config, tasks[i].workload, tasks[i].plan)
                    for i in shard.indices
                ]
                deliver(shard.indices, decode_payload(payload, runs))
                report(
                    shard, "batch", seconds,
                    payload_bytes=payload.nbytes, telemetry=telemetry,
                )
    return cast(List[RunResult], results)


def _keyspace(task: RunTask, engine: str) -> str:
    """The cache keyspace ``task`` is looked up in under ``engine``."""
    if engine != "batch":
        return "fast"
    from repro.core.batch import coverage_gap

    covered = coverage_gap(task.config, task.workload, task.plan) is None
    return "batch" if covered else "fast"


def run_cached(
    tasks: Sequence[RunTask],
    cache: Optional["RunCache"] = None,
    engine: str = "fast",
    jobs: int = 1,
    on_result: Optional[CachedResultHook] = None,
    slab_shard: Optional[int] = None,
    on_shard: Optional[ShardHook] = None,
    execute: Optional[ExecuteFn] = None,
) -> Tuple[List[RunResult], List[Optional[str]]]:
    """Execute ``tasks`` behind ``cache``; returns ``(results, keys)``.

    One :meth:`~repro.perf.cache.RunCache.get_many` answers every lookup
    up front and hits report through ``on_result(i, result, True)`` in
    task order.  The misses run through :func:`run_sweep_batched` on
    ``engine`` (taking ``slab_shard`` and ``on_shard``), or through
    ``execute(tasks, jobs=, on_result=)`` when given, and report with
    ``cached=False`` as they complete.  Fresh results are stored through
    :meth:`~repro.perf.cache.RunCache.put_many` in chunks of
    :data:`PUT_CHUNK`.

    Lookups are engine-aware per point: the batch keyspace where the
    batch engine covers the point, the fast keyspace otherwise.  A fresh
    result is stored under the keyspace of the engine that produced it
    (``result.extra["engine"]``), so a covered point rescued by the
    scalar fallback is stored as a fast entry, never as a batch one.
    ``keys[i]`` is the key result ``i`` was found or stored under (None
    without a cache).  Results and keys are in task order.

    The cache's counters are not flushed; that is the caller's call.
    """
    check_engine(engine)
    results: List[Optional[RunResult]] = [None] * len(tasks)
    keys: List[Optional[str]] = [None] * len(tasks)
    keyspaces: List[str] = []
    if cache is not None:
        keyspaces = [_keyspace(t, engine) for t in tasks]
        keys = [
            cache.key_for(t.config, t.workload, t.plan, engine=ks)
            for t, ks in zip(tasks, keyspaces)
        ]
        results = cache.get_many(cast(List[str], keys))
    fresh = [i for i, hit in enumerate(results) if hit is None]
    if on_result is not None:
        for i, hit in enumerate(results):
            if hit is not None:
                on_result(i, hit, True)

    put_buffer: List[Tuple[str, RunResult, str]] = []

    def flush_puts() -> None:
        if cache is not None and put_buffer:
            cache.put_many(put_buffer)
            put_buffer.clear()

    def store(j: int, result: RunResult) -> None:
        i = fresh[j]
        results[i] = result
        if cache is not None:
            produced = "batch" if result.extra.get("engine") == "batch" else "fast"
            if produced != keyspaces[i]:
                task = tasks[i]
                keys[i] = cache.key_for(
                    task.config, task.workload, task.plan, engine=produced
                )
            put_buffer.append((cast(str, keys[i]), result, produced))
            if len(put_buffer) >= PUT_CHUNK:
                flush_puts()
        if on_result is not None:
            on_result(i, result, False)

    todo = [tasks[i] for i in fresh]
    if execute is not None:
        execute(todo, jobs=jobs, on_result=store)
    else:
        run_sweep_batched(
            todo,
            jobs=jobs,
            on_result=store,
            slab_shard=slab_shard,
            on_shard=on_shard,
            engine=engine,
        )
    flush_puts()
    return cast(List[RunResult], results), keys
