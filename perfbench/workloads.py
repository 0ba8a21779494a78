"""The three workloads: their inputs, their timed units and their checks.

A workload runs in *units*, and ``wall_s`` is the median unit time:

* ``reproduce-j1`` / ``reproduce-j2`` — one unit is one
  ``reproduce_all(engine="batch", jobs=1|2)`` call on the paper's inputs
  with a fresh run cache.  Its 15 artifacts are checked against the
  committed sha256 goldens; a batch-to-scalar fallback changes the bytes,
  so the golden check catches fallbacks too.
* ``service-mixed`` — one unit is one round of a seeded job mix that a
  single client drives through an in-process ``SweepService(jobs=1)`` in
  a closed loop (each job is waited for before the next is submitted,
  as ``erapid jobs --wait`` callers do).  Every job must complete, every
  replay must match its original's fingerprint with 100% cache hits in
  its manifest, and no batch shard may fall back to scalar.

A *rig* holds what set-up builds (temp directories, cache, store,
started service, job list); :meth:`run` executes the timed units on it.
Given a :class:`~tracing.Tracer`, a rig uses the traced cache and store
subclasses and records the spans the plain rig does not.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import shutil
import statistics
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.errors import JobFailedError
from repro.experiments.runner import FIGURE_PATTERNS, reproduce_all
from repro.metrics.collector import MeasurementPlan
from repro.perf.cache import RunCache
from repro.service.artifacts import ArtifactStore
from repro.service.orchestrator import SweepService
from repro.service.spec import JobSpec

from tracing import TracedArtifactStore, TracedRunCache, Tracer

GOLDENS = Path(__file__).with_name("goldens.json")

#: Reduced inputs for the benchmark's own tests (``--tiny``).
TINY_REPRODUCE = {
    "loads": (0.5,),
    "plan": MeasurementPlan(warmup=1000, measure=2000, drain_limit=4000),
}

PATTERNS = tuple(FIGURE_PATTERNS.values())
LOADS = (0.1, 0.3, 0.5, 0.7, 0.9)
POLICIES = ("NP-NB", "P-NB", "NP-B", "P-B")
BULK_LOADS = (0.2, 0.5, 0.8)
#: Safety net for a hung job; a job normally takes a few seconds at most.
JOB_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class MixShape:
    """Jobs per round of ``service-mixed`` (and in the untimed warm round)."""

    interactive: int
    bulk: int
    interactive_replays: int
    bulk_replays: int
    warm_interactive: int
    warm_bulk: int
    rounds: int


#: Each round covers the paper's grid once, whatever the seed: 20
#: interactive jobs, one per (pattern, load) pair, and 4 bulk sweeps, one
#: per pattern.  Each fresh job is matched by one replay of an earlier
#: one, so reads equal writes.  These shares are the benchmark's
#: assumption; the repo records no service traffic.  Every job uses the
#: ``JobSpec`` default measurement plan.  The seed picks the order, the
#: replay targets and the runs' RNG seeds.
PAPER_MIX = MixShape(20, 4, 20, 4, 4, 1, 16)
TINY_MIX = MixShape(2, 1, 1, 1, 1, 1, 4)


@dataclass
class PassResult:
    """Outcome of the timed units of one rig."""

    units: List[float] = field(default_factory=list)
    attempted: int = 0
    problems: List[str] = field(default_factory=list)
    latencies: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return statistics.median(self.units)


def _done(
    units: List[float], started: float,
    seconds: Optional[float], count: Optional[int],
) -> bool:
    """Whether a pass stops: after ``count`` units if given, else before
    the first unit expected to end more than ``seconds`` after ``started``.
    """
    if count is not None:
        return len(units) >= count
    return seconds is None or (
        perf_counter() - started + statistics.median(units) > seconds
    )


# ----------------------------------------------------------------------
# Goldens
# ----------------------------------------------------------------------
def load_goldens(size: str) -> Dict[str, str]:
    return json.loads(GOLDENS.read_text())[size]


def check_artifacts(
    written: Dict[str, Path], golden: Dict[str, str]
) -> List[str]:
    """One problem line per artifact that is missing, extra or altered."""
    problems = []
    for name in sorted(set(golden) | set(written)):
        if name not in written:
            problems.append(f"{name}: missing")
        elif name not in golden:
            problems.append(f"{name}: no golden")
        else:
            digest = hashlib.sha256(written[name].read_bytes()).hexdigest()
            if digest != golden[name]:
                problems.append(f"{name}: sha256 {digest} != golden")
    return problems


# ----------------------------------------------------------------------
# reproduce-j1 / reproduce-j2
# ----------------------------------------------------------------------
_STAGES = {
    "1": "experiments.table",
    "2": "experiments.fig3",
    "3": "experiments.sweeps",
    "4": "experiments.ablations",
}
_STAGE_LINE = re.compile(r"\[(\d)/4\]")


class ReproduceRig:
    def __init__(
        self, work: Path, jobs: int, tiny: bool,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.work = work
        self.jobs = jobs
        self.tracer = tracer
        self.kwargs = TINY_REPRODUCE if tiny else {}
        self.golden = load_goldens("tiny" if tiny else "paper")
        work.mkdir(parents=True)
        self.cache = self._cache(0)

    def _cache(self, unit: int) -> RunCache:
        root = self.work / f"unit{unit}" / "cache"
        if self.tracer is not None:
            return TracedRunCache(root, self.tracer)
        return RunCache(root)

    def _log(self, line: str) -> None:
        """``reproduce_all`` log hook: stage lines open and close spans."""
        if self.tracer is None:
            return
        m = _STAGE_LINE.match(line)
        if m or line.startswith("done in"):
            for name in _STAGES.values():
                self.tracer.close_open(name)
        if m:
            self.tracer.open(_STAGES[m.group(1)])

    def run(
        self, seconds: Optional[float] = None, count: Optional[int] = None
    ) -> PassResult:
        """Run whole units until ``seconds`` would be exceeded, or ``count``."""
        result = PassResult()
        started = perf_counter()
        while True:
            i = len(result.units)
            cache = self.cache if i == 0 else self._cache(i)
            out = self.work / f"unit{i}" / "out"
            t0 = perf_counter()
            with (
                nullcontext() if self.tracer is None
                else self.tracer.span("experiments.reproduce_all")
            ):
                written = reproduce_all(
                    out, engine="batch", jobs=self.jobs, cache=cache,
                    log=self._log, **self.kwargs,
                )
            result.units.append(perf_counter() - t0)
            result.attempted += len(self.golden)
            result.problems += check_artifacts(written, self.golden)
            shutil.rmtree(self.work / f"unit{i}")
            if _done(result.units, started, seconds, count):
                return result

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


# ----------------------------------------------------------------------
# service-mixed
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Job:
    cls: str  # "interactive" | "bulk" | "replay"
    spec: JobSpec


def generate_jobs(seed: int, mix: MixShape) -> Tuple[List[Job], List[List[Job]]]:
    """The warm round and ``mix.rounds`` timed rounds, all from ``seed``.

    Every fresh job gets a distinct run seed, so it misses the cache; a
    replay resubmits a fresh job of an earlier round, so it hits.
    """
    rng = random.Random(seed)
    per_round = mix.interactive + mix.bulk
    fresh_total = mix.warm_interactive + mix.warm_bulk + mix.rounds * per_round
    seeds = iter(rng.sample(range(1, 2**31 - 1), fresh_total))

    cells = [(pi, li) for pi in range(len(PATTERNS)) for li in range(len(LOADS))]

    def interactive(pattern: str, load: float, policy: str) -> Job:
        return Job("interactive", JobSpec(
            kind="run", pattern=pattern, loads=(load,), policies=(policy,),
            seed=next(seeds), boards=4, nodes_per_board=4,
        ))

    def bulk(pattern: str) -> Job:
        return Job("bulk", JobSpec(
            kind="sweep", pattern=pattern, loads=BULK_LOADS,
            policies=POLICIES, seed=next(seeds), engine="batch",
            boards=4, nodes_per_board=4,
        ))

    def fresh_round(n_interactive: int, n_bulk: int) -> List[Job]:
        # Policies rotate over the (pattern, load) grid, so a full round
        # runs each policy five times, on the same cells in every round.
        jobs = [
            interactive(
                PATTERNS[pi], LOADS[li], POLICIES[(pi + li) % len(POLICIES)]
            )
            for pi, li in rng.sample(cells, n_interactive)
        ]
        return jobs + [
            bulk(p) for p in rng.sample(PATTERNS, n_bulk)
        ]

    warm = fresh_round(mix.warm_interactive, mix.warm_bulk)
    done = {"interactive": [j for j in warm if j.cls == "interactive"],
            "bulk": [j for j in warm if j.cls == "bulk"]}
    rounds = []
    for _ in range(mix.rounds):
        jobs = fresh_round(mix.interactive, mix.bulk)
        jobs += [
            Job("replay", rng.choice(done["interactive"]).spec)
            for _ in range(mix.interactive_replays)
        ] + [
            Job("replay", rng.choice(done["bulk"]).spec)
            for _ in range(mix.bulk_replays)
        ]
        rng.shuffle(jobs)
        for j in jobs:
            if j.cls != "replay":
                done[j.cls].append(j)
        rounds.append(jobs)
    return warm, rounds


class ServiceRig:
    def __init__(
        self, work: Path, seed: int, tiny: bool,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.work = work
        self.tracer = tracer
        work.mkdir(parents=True)
        if tracer is None:
            cache = RunCache(work / "cache")
            store = ArtifactStore(work / "store")
        else:
            cache = TracedRunCache(work / "cache", tracer)
            store = TracedArtifactStore(work / "store", tracer)
        #: Root span of the job in flight.  The closed loop has one job in
        #: flight at a time, so the scheduler thread's hook parents its
        #: spans on it.
        self._root: Optional[int] = None
        self._running: set = set()
        self._client = threading.get_ident()
        self.service = SweepService(
            cache, store, jobs=1,
            on_update=None if tracer is None else self._on_update,
        ).start()
        self.warm, self.rounds = generate_jobs(
            seed, TINY_MIX if tiny else PAPER_MIX
        )
        #: job_key -> sweep fingerprint of the fresh execution.
        self.originals: Dict[str, str] = {}

    def _on_update(self, job) -> None:  # type: ignore[no-untyped-def]
        """Service update hook: queue-wait and finalize spans per job."""
        tracer = self.tracer
        assert tracer is not None
        if threading.get_ident() == self._client:
            return  # the "queued" update, or a "running" one that raced it
        if job.state == "running" and job.job_id not in self._running:
            self._running.add(job.job_id)
            now = perf_counter()
            waited = job.started_ts - job.submitted_ts
            tracer.add(
                "service.queue_wait", now - waited, now, self._root, job.job_id
            )
            tracer.set_context(self._root, job.job_id)
        elif job.state in ("completed", "failed"):
            tracer.close_open("service.finalize")
            tracer.set_context(None, None)

    def _submit_wait(self, job: Job, result: PassResult) -> Optional[float]:
        """Submit ``job``, wait for it, check it; returns its latency."""
        tracer = self.tracer
        result.attempted += 1
        t0 = perf_counter()
        root = None
        if tracer is not None:
            root = tracer.open("service.job")
            self._root = root.id
        try:
            if tracer is None:
                handle = self.service.submit(job.spec)
            else:
                with tracer.span("service.submit") as submit:
                    handle = self.service.submit(job.spec)
                root.job = submit.job = handle.job_id  # type: ignore[union-attr]
            execution = handle.wait(timeout=JOB_TIMEOUT_S)
        except (JobFailedError, TimeoutError) as exc:
            result.problems.append(f"{job.cls} job: {exc}")
            return None
        finally:
            if root is not None:
                tracer.close(root)  # type: ignore[union-attr]
        latency = perf_counter() - t0
        key = job.spec.job_key()
        if any(s.kind == "fallback" for s in execution.shards):
            result.problems.append(f"{handle.job_id}: fallback shard")
        if job.cls == "replay":
            if execution.fingerprint != self.originals.get(key):
                result.problems.append(f"{handle.job_id}: fingerprint drift")
            manifest = json.loads(
                Path(handle.status()["manifest"]).read_text()
            )
            counts = manifest["counts"]
            if counts["hits"] != counts["total"] or execution.executed:
                result.problems.append(f"{handle.job_id}: replay missed cache")
        else:
            self.originals[key] = execution.fingerprint
        return latency

    def run(
        self, seconds: Optional[float] = None, count: Optional[int] = None
    ) -> PassResult:
        """The warm round, then whole rounds until ``seconds`` or ``count``."""
        warm = PassResult()
        for job in self.warm:
            self._submit_wait(job, warm)
        result = PassResult(
            attempted=warm.attempted, problems=warm.problems,
            latencies={"interactive": [], "bulk": [], "replay": []},
        )
        started = perf_counter()
        for jobs in self.rounds:
            t0 = perf_counter()
            for job in jobs:
                latency = self._submit_wait(job, result)
                if latency is not None:
                    result.latencies[job.cls].append(latency)
            result.units.append(perf_counter() - t0)
            if _done(result.units, started, seconds, count):
                break
        return result

    def close(self) -> None:
        self.service.stop()
        shutil.rmtree(self.work, ignore_errors=True)


def make_rig(
    workload: str, work: Path, seed: int, tiny: bool,
    tracer: Optional[Tracer] = None,
):  # type: ignore[no-untyped-def]
    if workload == "reproduce-j1":
        return ReproduceRig(work, 1, tiny, tracer)
    if workload == "reproduce-j2":
        return ReproduceRig(work, 2, tiny, tracer)
    if workload == "service-mixed":
        return ServiceRig(work, seed, tiny, tracer)
    raise ValueError(f"unknown workload {workload!r}")
