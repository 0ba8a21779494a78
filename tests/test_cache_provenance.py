"""Cache provenance: an entry's keyspace is the engine that produced it.

A batch-covered point whose shard raises is rescued on the scalar
engine.  That result must be stored as a fast entry under the point's
fast key — never under its batch key — so a later healthy batch sweep
cannot replay a scalar result as a batch hit.  Both cache-aware entry
points (the sweep harness and the service's jobs) are covered, inline
and on a pool.
"""

import multiprocessing

import pytest

from repro.core.batch import BatchEngine
from repro.experiments.sweep import SweepSpec, run_sweep
from repro.metrics.collector import MeasurementPlan
from repro.perf.cache import RunCache
from repro.service.runner import execute_job
from repro.service.spec import JobSpec

GRID = dict(
    pattern="uniform",
    loads=(0.2, 0.4),
    policies=("NP-NB", "P-B"),
    boards=2,
    nodes_per_board=4,
)
PLAN = dict(warmup=200.0, measure=600.0, drain_limit=1500.0)


def sweep_runner(cache, engine, jobs):
    spec = SweepSpec(**GRID, plan=MeasurementPlan(**PLAN))
    results = run_sweep(spec, jobs=jobs, cache=cache, engine=engine)
    return [r for runs in results.values() for r in runs], None


def job_runner(cache, engine, jobs):
    execution = execute_job(
        JobSpec(kind="sweep", **GRID, **PLAN, engine=engine), cache, jobs=jobs
    )
    results = [r for runs in execution.results.values() for r in runs]
    return results, [rec.cache_key for rec in execution.records]


def fast_keys(cache):
    spec = SweepSpec(**GRID, plan=MeasurementPlan(**PLAN))
    return [
        cache.key_for(t.config, t.workload, t.plan, engine="fast")
        for t in spec.tasks()
    ]


def total_hits(cache):
    # Jobs flush the session counters into the sidecar; sweeps do not.
    return cache.persistent_stats()["hits"] + cache.stats()["hits"]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("runner", [sweep_runner, job_runner])
def test_rescued_batch_runs_are_stored_as_fast_entries(
    tmp_path, monkeypatch, runner, jobs
):
    if jobs > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("monkeypatch only reaches pool workers under fork")

    def boom(self):
        raise RuntimeError("injected shard failure")

    cache = RunCache(tmp_path / "cache")
    monkeypatch.setattr(BatchEngine, "run_payload", boom)
    rescued, keys = runner(cache, "batch", jobs)
    monkeypatch.undo()

    assert all(r.extra.get("engine") != "batch" for r in rescued)
    by_engine = cache.by_engine_stats()
    assert by_engine["batch"]["entries"] == 0
    assert by_engine["fast"]["entries"] == 4
    if keys is not None:
        # The manifest records the key the result was actually stored under.
        assert keys == fast_keys(cache)

    # A healthy batch sweep finds no batch entries to replay: every run
    # executes on the batch engine.
    healthy, _ = runner(cache, "batch", jobs)
    assert all(r.extra.get("engine") == "batch" for r in healthy)
    assert cache.by_engine_stats()["batch"]["entries"] == 4

    # The rescued scalar results serve fast-engine sweeps bit-identically.
    before = total_hits(cache)
    replay, _ = runner(cache, "fast", 1)
    assert total_hits(cache) - before == 4
    assert [r.to_dict() for r in replay] == [r.to_dict() for r in rescued]
