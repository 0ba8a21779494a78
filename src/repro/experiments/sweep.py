"""Load-sweep runner — the engine behind Figures 5 and 6.

§4: the network load is varied from 0.1 to 0.9 of the (uniform-random)
network capacity; each (policy, pattern, load) triple is one simulation
run.  :func:`run_sweep` executes the matrix with common random numbers
across policies so curves differ only by the mechanism under test.

Every cell of the matrix is an independent simulation, so the runner
supports:

* ``jobs=N`` — fan the runs out to a process pool
  (:mod:`repro.perf.executor`); results are reassembled in task order and
  are bit-identical to serial execution;
* ``cache=RunCache(...)`` — skip runs whose content address
  (:mod:`repro.perf.cache`) is already on disk;
* ``progress(...)`` — stream per-run completion lines (cache hits first,
  in deterministic order, then live runs as they finish).

:func:`run_sweep_matrix` is the multi-panel generalization ``reproduce``
uses to fan all four Figure 5/6 panels into one pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.config import ERapidConfig
from repro.core.policies import POLICIES
from repro.errors import ConfigurationError
from repro.metrics.collector import MeasurementPlan, RunResult
from repro.traffic.workload import WorkloadSpec

__all__ = [
    "SweepSpec",
    "run_sweep",
    "run_sweep_matrix",
    "PAPER_LOADS",
    "MatrixProgress",
    "SweepProgress",
]

#: §4's sweep points.
PAPER_LOADS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

#: ``progress(policy, load, result)`` — per-run completion hook.
SweepProgress = Callable[[str, float, RunResult], None]

#: ``progress(panel, policy, load, result, cached)`` — matrix-wide hook.
MatrixProgress = Callable[[str, str, float, RunResult, bool], None]


@dataclass(frozen=True)
class SweepSpec:
    """One figure panel: a pattern swept over loads for several policies."""

    pattern: str = "uniform"
    loads: Sequence[float] = PAPER_LOADS
    policies: Sequence[str] = ("NP-NB", "P-NB", "NP-B", "P-B")
    boards: int = 8
    nodes_per_board: int = 8
    seed: int = 1
    plan: MeasurementPlan = field(
        default_factory=lambda: MeasurementPlan(
            warmup=8000.0, measure=12000.0, drain_limit=24000.0
        )
    )

    def __post_init__(self) -> None:
        if not self.loads:
            raise ConfigurationError("sweep needs at least one load point")
        for p in self.policies:
            if p not in POLICIES:
                raise ConfigurationError(f"unknown policy {p!r}")

    def tasks(self) -> List["RunTask"]:
        """The exact run-task list :func:`run_sweep` executes, in order:
        policy-major, one task per load.

        :func:`run_sweep_matrix` executes exactly this list; the CLI's
        verbose shard-plan output reasons about it without running it.
        """
        from repro.perf.executor import RunTask

        base = _default_config(self)
        out: List[RunTask] = []
        for policy_name in self.policies:
            config = base.with_policy(POLICIES[policy_name])
            for load in self.loads:
                out.append(
                    RunTask(
                        config,
                        WorkloadSpec(
                            pattern=self.pattern, load=load, seed=self.seed
                        ),
                        self.plan,
                    )
                )
        return out


def _default_config(spec: SweepSpec) -> ERapidConfig:
    from repro.network.topology import ERapidTopology

    return ERapidConfig(
        topology=ERapidTopology(
            boards=spec.boards, nodes_per_board=spec.nodes_per_board
        )
    )


def run_sweep(
    spec: SweepSpec,
    progress: Optional[SweepProgress] = None,
    jobs: int = 1,
    cache: Optional["RunCache"] = None,
    engine: str = "fast",
    slab_shard: Optional[int] = None,
) -> Dict[str, List[RunResult]]:
    """Run the full (policy × load) matrix; returns {policy: [results]}.

    ``progress(policy, load, result)`` is invoked after each run when
    given (the CLI uses it for live output).  ``jobs``/``cache``/
    ``engine``/``slab_shard`` behave as documented on
    :func:`run_sweep_matrix`.
    """
    matrix_progress: Optional[MatrixProgress] = None
    if progress is not None:
        hook = progress  # narrow for the closure

        def matrix_progress(
            panel: str, policy: str, load: float, result: RunResult, cached: bool
        ) -> None:
            hook(policy, load, result)

    return run_sweep_matrix(
        {"sweep": spec},
        progress=matrix_progress,
        jobs=jobs,
        cache=cache,
        engine=engine,
        slab_shard=slab_shard,
    )["sweep"]


def run_sweep_matrix(
    specs: Mapping[str, SweepSpec],
    progress: Optional[MatrixProgress] = None,
    jobs: int = 1,
    cache: Optional["RunCache"] = None,
    engine: str = "fast",
    slab_shard: Optional[int] = None,
) -> Dict[str, Dict[str, List[RunResult]]]:
    """Run several sweep panels as one flat (panel × policy × load) batch.

    ``specs`` maps panel names to sweeps; iteration order fixes task
    order.  ``progress(panel, policy, load, result, cached)`` is called
    once per run.  ``jobs``, ``cache``, ``engine`` (``"fast"`` or
    ``"batch"``) and ``slab_shard`` go to
    :func:`repro.perf.executor.run_cached`; results are bit-identical for
    every ``jobs`` value, every shard layout, and across cache hits.

    Returns ``{panel: {policy: [RunResult per load]}}``.
    """
    from repro.perf.executor import run_cached

    tasks: List[RunTask] = []
    #: Parallel to ``tasks``: (panel, policy, load).
    labels: List[Tuple[str, str, float]] = []
    for name, spec in specs.items():
        tasks.extend(spec.tasks())
        labels.extend(
            (name, policy, load) for policy in spec.policies for load in spec.loads
        )

    def on_result(i: int, result: RunResult, cached: bool) -> None:
        if progress is not None:
            progress(*labels[i], result, cached)

    results, _ = run_cached(
        tasks, cache, engine, jobs, on_result=on_result, slab_shard=slab_shard
    )
    out: Dict[str, Dict[str, List[RunResult]]] = {}
    start = 0
    for name, spec in specs.items():
        out[name] = {}
        for policy in spec.policies:
            out[name][policy] = results[start:start + len(spec.loads)]
            start += len(spec.loads)
    return out


from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.perf.cache import RunCache
    from repro.perf.executor import RunTask
