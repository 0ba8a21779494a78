"""Performance layer: parallel sweep execution, run caching, benchmarks.

The paper's evaluation is a (pattern × policy × load) matrix of
*independent* simulation runs; this package makes that matrix cheap:

``repro.perf.executor``
    ``run_sweep_batched`` is the one execution loop, for the fast and the
    batch engine at any ``jobs`` width: one work queue of batch shards
    (per-worker sub-slabs of the vectorized engine, with struct-of-arrays
    result transport) and scalar runs, run inline or on one process pool.
    Results are bit-identical to serial execution — each run seeds its own
    :class:`~repro.sim.rng.RngRegistry` from the workload seed via
    ``SeedSequence`` spawn keys, so worker scheduling cannot perturb any
    stream (the common-random-numbers contract survives parallelism).
    ``run_cached`` puts the run cache in front of it.

``repro.perf.shards``
    Shard planning: the deterministic
    ``(tasks, jobs, slab_shard, engine) -> ShardPlan`` layout, the
    shard-size heuristic, and the ``ShardReport`` timings that land in job
    manifests.

``repro.perf.cache``
    A content-addressed on-disk store keyed on the full run description
    ``(ERapidConfig, WorkloadSpec, MeasurementPlan, kernel version)``;
    repeated ``reproduce_all``/bench invocations skip already-computed
    runs.  ``get_many``/``put_many`` batch whole-job lookups and
    crash-safe writes into one counter flush each.

``repro.perf.bench``
    The tracked benchmark harness (``python -m repro.perf bench``): kernel
    events/sec against the frozen pre-optimization reference kernel
    (:mod:`repro.perf.legacy`), end-to-end sweep wall time serial vs
    parallel vs cached, and the batch-tier report with its sharded
    jobs-scaling and transport dimensions.  Writes the ``BENCH_*.json``
    reports at the repo root.
"""

from repro.perf.cache import RunCache, default_cache_dir, run_cache_key
from repro.perf.executor import RunTask, run_sweep_batched

__all__ = [
    "RunCache",
    "RunTask",
    "default_cache_dir",
    "run_cache_key",
    "run_sweep_batched",
]
