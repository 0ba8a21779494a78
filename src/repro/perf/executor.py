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

:func:`run_cached` is the one cache-aware loop over these executors;
both the sweep harness and the service's jobs run through it.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple, cast

from repro.core.config import ERapidConfig
from repro.errors import ConfigurationError
from repro.metrics.collector import MeasurementPlan, RunResult
from repro.perf.shards import SLAB_CAP, ShardReport, ShardSpec, plan_shards
from repro.traffic.workload import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.perf.cache import RunCache

__all__ = [
    "RunTask",
    "execute_run",
    "execute_tasks",
    "run_cached",
    "run_sweep_batched",
    "PUT_CHUNK",
    "SLAB_CAP",
    "SWEEP_ENGINES",
]

#: Engines a cache-aware sweep can run on: the scalar fast engine, or the
#: vectorized batch engine with scalar fallback.
SWEEP_ENGINES = ("fast", "batch")

#: Fresh results buffered per :meth:`~repro.perf.cache.RunCache.put_many`
#: flush.  Bounds how many completed runs a crash could lose from the
#: cache (never from the caller's results) while still batching the fsync
#: traffic.
PUT_CHUNK = 32

#: ``on_result(index, result)`` — invoked as runs complete (completion
#: order under ``jobs > 1``, task order serially).
ResultHook = Callable[[int, RunResult], None]

#: ``on_result(index, result, cached)`` — :func:`run_cached`'s hook.
CachedResultHook = Callable[[int, RunResult, bool], None]

#: ``on_shard(report)`` — invoked once per shard as it finishes; the
#: service layer collects these into the job manifest.
ShardHook = Callable[[ShardReport], None]

#: Signature of :func:`execute_tasks` — injectable into :func:`run_cached`
#: so tests can gate and instrument execution without the real pool.
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


def _execute_indexed(indexed: Tuple[int, RunTask]) -> Tuple[int, RunResult]:
    """Worker entry point (module-level so it pickles under spawn)."""
    index, task = indexed
    return index, execute_run(task)


def execute_tasks(
    tasks: Sequence[RunTask],
    jobs: int = 1,
    on_result: Optional[ResultHook] = None,
) -> List[RunResult]:
    """Execute ``tasks``; returns results in task order.

    ``jobs <= 1`` runs inline (zero pool overhead); ``jobs > 1`` fans out
    to a :class:`~concurrent.futures.ProcessPoolExecutor` of at most
    ``min(jobs, len(tasks))`` workers.  The returned list is ordered by
    task index either way, so callers observe identical output.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    results: List[Optional[RunResult]] = [None] * len(tasks)
    if jobs == 1 or len(tasks) <= 1:
        for i, task in enumerate(tasks):
            result = execute_run(task)
            results[i] = result
            if on_result is not None:
                on_result(i, result)
        return cast(List[RunResult], results)

    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        pending = {
            pool.submit(_execute_indexed, (i, task))
            for i, task in enumerate(tasks)
        }
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for fut in done:
                index, result = fut.result()
                results[index] = result
                if on_result is not None:
                    on_result(index, result)
    return cast(List[RunResult], results)


def _shard_runs(
    tasks: Sequence[RunTask], shard: ShardSpec
) -> List[Tuple[ERapidConfig, WorkloadSpec, MeasurementPlan]]:
    return [
        (tasks[i].config, tasks[i].workload, tasks[i].plan)
        for i in shard.indices
    ]


def _execute_batch_shard(
    args: Tuple[int, Tuple[RunTask, ...], bool],
) -> Tuple[int, float, object, Optional[dict]]:
    """Worker entry point for one batch shard (module-level: picklable).

    Returns ``(shard_id, worker_seconds, BatchResultPayload, telemetry)``
    — the compact struct-of-arrays transport, never a pickled RunResult
    list; the parent decodes it against its own task descriptions.  The
    telemetry dict carries the slab's cycle/event counters (a handful of
    ints — negligible next to the payload arrays).
    """
    from repro.core.batch import BatchEngine

    shard_id, shard_tasks, time_skip = args
    start = perf_counter()
    engine = BatchEngine(
        [(t.config, t.workload, t.plan) for t in shard_tasks],
        time_skip=time_skip,
    )
    payload = engine.run_payload()
    telemetry = (
        engine.telemetry.to_dict() if engine.telemetry is not None else None
    )
    return shard_id, perf_counter() - start, payload, telemetry


def run_sweep_batched(
    tasks: Sequence[RunTask],
    jobs: int = 1,
    on_result: Optional[ResultHook] = None,
    slab_shard: Optional[int] = None,
    on_shard: Optional[ShardHook] = None,
    time_skip: bool = True,
) -> List[RunResult]:
    """Execute ``tasks`` on the vectorized batch engine where possible.

    Tasks the batch model covers (:func:`repro.core.batch.coverage_gap`
    returns None) are grouped by :func:`repro.core.batch.slab_key` and
    sharded into per-worker sub-slabs by :func:`repro.perf.shards.
    plan_shards`; uncovered tasks fall back to the scalar engine.  Under
    ``jobs > 1`` batch shards and scalar-fallback runs share **one**
    process pool as a unified work queue, so ``jobs`` saturates the
    machine regardless of the covered/fallback mix (``slab_shard``
    overrides the shard-size heuristic; see :mod:`repro.perf.shards`).
    ``jobs == 1`` executes everything inline with no transport at all.

    The returned list is in task order, like :func:`execute_tasks`.
    ``on_result(index, result)`` fires exactly once per index — in task
    order within a shard as that shard completes, shard completion order
    across shards.  Shard layout never changes a run's result: every
    run's state rows are independent, so partitioning is purely a
    throughput concern (the batch benchmark gates fingerprint identity
    across ``jobs`` and ``slab_shard`` permutations).

    A batch shard that raises is not fatal: its indices are re-routed to
    the scalar engine (same pool) and the shard is reported with
    ``kind="fallback"`` via ``on_shard``; a scalar run's exception
    propagates, as in :func:`execute_tasks`.

    ``time_skip=False`` forces every batch shard onto the engine's
    unskipped cycle-by-cycle loop — results are bit-identical either way
    (the benchmark gates it); the flag exists for A/B timing and for the
    identity gate itself.
    """
    from repro.core.batch import BatchEngine, decode_payload

    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    plan = plan_shards(tasks, jobs=jobs, slab_shard=slab_shard)
    results: List[Optional[RunResult]] = [None] * len(tasks)
    started = perf_counter()

    def report(
        shard: ShardSpec,
        kind: str,
        seconds: float,
        payload_bytes: int = 0,
        error: Optional[str] = None,
        telemetry: Optional[dict] = None,
    ) -> None:
        if on_shard is not None:
            on_shard(
                ShardReport(
                    shard_id=shard.shard_id,
                    kind=kind,
                    runs=shard.runs,
                    seconds=seconds,
                    payload_bytes=payload_bytes,
                    error=error,
                    telemetry=telemetry,
                )
            )

    def deliver(shard: ShardSpec, decoded: Sequence[RunResult]) -> None:
        # Task order within the shard — the exactly-once, in-order
        # contract the service's event stream relies on.
        for i, result in zip(shard.indices, decoded):
            results[i] = result
            if on_result is not None:
                on_result(i, result)

    def run_scalar_inline(i: int) -> None:
        result = execute_run(tasks[i])
        results[i] = result
        if on_result is not None:
            on_result(i, result)

    if jobs == 1:
        for shard in plan.batch_shards:
            runs = _shard_runs(tasks, shard)
            start = perf_counter()
            try:
                engine = BatchEngine(runs, time_skip=time_skip)
                payload = engine.run_payload()
            except Exception as exc:  # noqa: BLE001 - re-routed, not dropped
                for i in shard.indices:
                    run_scalar_inline(i)
                report(
                    shard,
                    "fallback",
                    perf_counter() - start,
                    error=f"{type(exc).__name__}: {exc}",
                )
                continue
            deliver(shard, decode_payload(payload, runs))
            report(
                shard,
                "batch",
                perf_counter() - start,
                payload.nbytes,
                telemetry=(
                    engine.telemetry.to_dict()
                    if engine.telemetry is not None
                    else None
                ),
            )
        scalar_shard = next(
            (s for s in plan.shards if s.kind == "scalar"), None
        )
        if scalar_shard is not None:
            for i in scalar_shard.indices:
                run_scalar_inline(i)
            report(scalar_shard, "scalar", perf_counter() - started)
        return cast(List[RunResult], results)

    scalar_shard = next((s for s in plan.shards if s.kind == "scalar"), None)
    n_items = len(plan.batch_shards) + (
        scalar_shard.runs if scalar_shard is not None else 0
    )
    scalar_open = scalar_shard.runs if scalar_shard is not None else 0
    with ProcessPoolExecutor(max_workers=min(jobs, max(n_items, 1))) as pool:
        pending: dict[Future, Tuple[str, object]] = {}
        for shard in plan.batch_shards:
            fut = pool.submit(
                _execute_batch_shard,
                (
                    shard.shard_id,
                    tuple(tasks[i] for i in shard.indices),
                    time_skip,
                ),
            )
            pending[fut] = ("batch", shard)
        if scalar_shard is not None:
            for i in scalar_shard.indices:
                fut = pool.submit(_execute_indexed, (i, tasks[i]))
                pending[fut] = ("scalar", i)
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for fut in done:
                kind, obj = pending.pop(fut)
                if kind == "batch":
                    shard = cast(ShardSpec, obj)
                    try:
                        _, seconds, payload, telemetry = fut.result()
                    except Exception as exc:  # noqa: BLE001 - re-route
                        for i in shard.indices:
                            f2 = pool.submit(_execute_indexed, (i, tasks[i]))
                            pending[f2] = ("rescued", (i, shard))
                        report(
                            shard,
                            "fallback",
                            perf_counter() - started,
                            error=f"{type(exc).__name__}: {exc}",
                        )
                        continue
                    deliver(
                        shard,
                        decode_payload(payload, _shard_runs(tasks, shard)),
                    )
                    report(
                        shard,
                        "batch",
                        seconds,
                        payload.nbytes,  # type: ignore[attr-defined]
                        telemetry=telemetry,
                    )
                else:
                    index, result = fut.result()
                    results[index] = result
                    if on_result is not None:
                        on_result(index, result)
                    if kind == "scalar":
                        scalar_open -= 1
                        if scalar_open == 0 and scalar_shard is not None:
                            report(
                                scalar_shard,
                                "scalar",
                                perf_counter() - started,
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
    task order.  The misses run on ``engine`` — :func:`execute_tasks`
    for ``"fast"``, the sharded :func:`run_sweep_batched` (taking
    ``slab_shard`` and ``on_shard``) for ``"batch"``, or ``execute(tasks,
    jobs=, on_result=)`` when given — and report with ``cached=False`` as
    they complete.  Fresh results are stored through
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
    if engine not in SWEEP_ENGINES:
        raise ConfigurationError(
            f"unknown sweep engine {engine!r}; expected "
            + " or ".join(repr(e) for e in SWEEP_ENGINES)
        )
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
    elif engine == "batch":
        run_sweep_batched(
            todo,
            jobs=jobs,
            on_result=store,
            slab_shard=slab_shard,
            on_shard=on_shard,
        )
    else:
        execute_tasks(todo, jobs=jobs, on_result=store)
    flush_puts()
    return cast(List[RunResult], results), keys
