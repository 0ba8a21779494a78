"""Every metric the benchmark reports: name, unit, direction, scope.

``BENCHMARK.json`` is the one source for the workloads and for the
metrics the outer harness gates.  It lists a metric only when every
workload reports it and no correct run reports 0 or less for it.  The
other metrics are declared here.  They are printed and written to the
result file of the workloads they apply to, but gated by nothing:

* workload-specific ones: the service latency classes, the
  ``experiments`` stages and the ``service`` layer;
* ones that are 0 on every correct run: ``failed_ratio`` (the result
  line carries it as ``failed``/``attempted``), ``executor.fallback_runs``
  (a fallback fails the golden and shard checks) and ``cache.hit_ratio``
  (each ``reproduce`` unit starts from an empty cache);
* the tracing overhead, which measures the benchmark, not the program.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
WORKLOADS: Tuple[str, ...] = tuple(w["name"] for w in SPEC["workloads"])
REPRODUCE = ("reproduce-j1", "reproduce-j2")
SERVICE = ("service-mixed",)
#: Regression bound of each gated end-to-end metric.
BOUNDS: Dict[str, float] = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

#: Per layer: the end-to-end metric its per-layer metrics should move.
MOVES = {
    "experiments": "wall_s on reproduce-j1 and reproduce-j2",
    "executor": "wall_s on reproduce-j2 (unchanged on reproduce-j1)",
    "batch": "wall_s on reproduce-*, bulk_p50_s on service-mixed",
    "engine": (
        "interactive_p50_s/interactive_p90_s on service-mixed, "
        "experiments.ablations_s -> wall_s on reproduce-*"
    ),
    "cache": "replay_p50_s on service-mixed, slightly wall_s on reproduce-*",
    "service": "replay_p50_s and replay_p90_s on service-mixed",
    "trace": "none: the cost of the wraps themselves",
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    workloads: Tuple[str, ...] = WORKLOADS

    @property
    def moves(self) -> str:
        return MOVES[self.name.split(".", 1)[0]]


def _gated(section: str) -> Tuple[Metric, ...]:
    return tuple(
        Metric(m["name"], m["unit"], m["better"]) for m in SPEC[section]
    )


GATED_END_TO_END = _gated("end_to_end")
GATED_PER_LAYER = _gated("per_layer")

END_TO_END = GATED_END_TO_END + (
    Metric("failed_ratio", "ratio", "lower"),
    Metric("interactive_p50_s", "s", "lower", SERVICE),
    Metric("interactive_p90_s", "s", "lower", SERVICE),
    Metric("replay_p50_s", "s", "lower", SERVICE),
    Metric("replay_p90_s", "s", "lower", SERVICE),
    Metric("bulk_p50_s", "s", "lower", SERVICE),
)

PER_LAYER = GATED_PER_LAYER + (
    Metric("experiments.table_s", "s", "lower", REPRODUCE),
    Metric("experiments.fig3_s", "s", "lower", REPRODUCE),
    Metric("experiments.sweeps_s", "s", "lower", REPRODUCE),
    Metric("experiments.ablations_s", "s", "lower", REPRODUCE),
    Metric("executor.fallback_runs", "count", "lower"),
    Metric("cache.hit_ratio", "ratio", "higher"),
    Metric("service.submit_s", "s", "lower", SERVICE),
    Metric("service.queue_wait_s", "s", "lower", SERVICE),
    Metric("service.execute_s", "s", "lower", SERVICE),
    Metric("service.finalize_s", "s", "lower", SERVICE),
    Metric("service.manifest_write_s", "s", "lower", SERVICE),
    Metric("service.manifest_bytes", "bytes", "lower", SERVICE),
    Metric("trace.overhead_s", "s", "lower"),
)


def applies(metrics: Tuple[Metric, ...], workload: str) -> Tuple[Metric, ...]:
    """The metrics of ``metrics`` that ``workload`` reports."""
    return tuple(m for m in metrics if workload in m.workloads)
