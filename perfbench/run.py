"""Run one benchmark workload, or all of them, and print every metric.

    python3 perfbench/run.py --workload reproduce-j1 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root; the program is imported from ``src/``.
A run sets up, runs whole units of its workload until ``--seconds`` would
be exceeded (at least one unit), checks every output, and prints the
host block and every metric with its unit.  ``--trace 1`` then repeats
the same units with the layer wraps installed and adds the per-layer
metrics, the self-time table and the tracing overhead (the pass's span
and count calls times their unit cost).  ``setup_s`` is
the median of several fresh set-ups, each timed from process start.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` untraced, its per-layer metrics traced.  The full
result, workload-specific metrics included, is written to
``.perfbench/results/``.  The exit code is 1 if any check failed and 2
on a usage error, such as a checkout without ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

import registry

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120.0


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=registry.WORKLOADS + ("all",)
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="reduced inputs, for the benchmark's own tests",
    )
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _flags(args: argparse.Namespace) -> List[str]:
    return ["--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])


def _percentile(values: List[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest ended child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# ----------------------------------------------------------------------
# Set-up probes
# ----------------------------------------------------------------------
def probe(args: argparse.Namespace) -> int:
    """Set up ``args.workload`` in this fresh process, report, tear down."""
    from workloads import make_rig

    rig = make_rig(
        args.workload, OUT / "tmp" / f"probe-{os.getpid()}",
        args.seed, args.tiny,
    )
    print("ready", flush=True)
    rig.close()
    return 0


def setup_seconds(args: argparse.Namespace) -> float:
    """Median time from process start until a fresh set-up is ready."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--setup-probe"] + _flags(args),
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            assert proc.stdout is not None
            line = proc.stdout.readline()
            times.append(perf_counter() - t0)
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {line!r}")
    return statistics.median(times)


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def _metric(value: float, unit: str, **extra: Any) -> Dict[str, Any]:
    return {"value": value, "unit": unit, **extra}


def run_one(args: argparse.Namespace) -> int:
    from hostinfo import host_block
    from tracing import Tracer, instrumented, layer_metrics, self_times
    from workloads import make_rig

    work = OUT / "tmp" / f"{args.workload}-{os.getpid()}"
    rig = make_rig(args.workload, work / "untraced", args.seed, args.tiny)
    try:
        timed = rig.run(seconds=args.seconds)
    finally:
        rig.close()
    rss = peak_rss_mb()
    attempted, problems = timed.attempted, list(timed.problems)

    e2e: Dict[str, Dict[str, Any]] = {
        "wall_s": _metric(timed.wall_s, "s", samples=len(timed.units),
                          units=timed.units),
        "peak_rss_mb": _metric(rss, "MB"),
    }
    for cls, pcts in (("interactive", (50, 90)), ("replay", (50, 90)),
                      ("bulk", (50,))):
        values = timed.latencies.get(cls)
        for pct in pcts if values else ():
            e2e[f"{cls}_p{pct}_s"] = _metric(
                _percentile(values, pct), "s", samples=len(values)
            )

    layers: Dict[str, Dict[str, Any]] = {}
    table: Dict[str, Dict[str, float]] = {}
    if args.trace:
        tracer = Tracer()
        with instrumented(tracer):
            rig = make_rig(
                args.workload, work / "traced", args.seed, args.tiny, tracer
            )
            try:
                traced = rig.run(count=len(timed.units))
            finally:
                rig.close()
        attempted += traced.attempted
        problems += traced.problems
        values = layer_metrics(tracer)
        for m in registry.applies(registry.PER_LAYER, args.workload):
            layers[m.name] = _metric(values[m.name], m.unit, moves=m.moves)
        table = self_times(tracer.spans)
        tracer.write(OUT / "traces" / f"{args.workload}-seed{args.seed}.json")
    shutil.rmtree(work, ignore_errors=True)

    # Share of the client's waiting time that each service job class adds.
    waited = sum(sum(v) for v in timed.latencies.values())
    class_share = {
        cls: sum(v) / waited for cls, v in timed.latencies.items()
    } if waited else {}

    e2e["setup_s"] = _metric(setup_seconds(args), "s", samples=SETUP_PROBES)
    e2e["failed_ratio"] = _metric(len(problems) / attempted, "ratio")
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "host": host_block(),
        "attempted": attempted,
        "failed": len(problems),
        "problems": problems,
        "end_to_end": {
            m.name: e2e[m.name]
            for m in registry.applies(registry.END_TO_END, args.workload)
        },
        "class_share": class_share,
        "per_layer": layers,
        "self_time": table,
    }
    path = OUT / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1))
    report(result)
    print(f"result file: {path.relative_to(ROOT)}")

    gated = (
        registry.GATED_PER_LAYER if args.trace else registry.GATED_END_TO_END
    )
    source = layers if args.trace else e2e
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {
            m.name: _metric(source[m.name]["value"], m.unit) for m in gated
        },
    }))
    return 1 if problems else 0


def report(result: Dict[str, Any]) -> None:
    """Print a result for people: host, metrics, self time, checks."""
    host = result["host"]
    print(f"== {result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={result['trace']}")
    print("host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    for title, metrics in (("end-to-end", result["end_to_end"]),
                           ("per-layer (traced pass)", result["per_layer"])):
        if metrics:
            print(f"{title}:")
        for name, m in metrics.items():
            n = f"  (n={m['samples']})" if "samples" in m else ""
            print(f"  {name:30s} {m['value']:>16.6g} {m['unit']}{n}")
    if result["class_share"]:
        print("share of waiting time by job class: " + ", ".join(
            f"{cls} {share:.1%}" for cls, share in result["class_share"].items()
        ))
    if result["self_time"]:
        print("self time by layer (traced pass):")
        print(f"  {'layer':12s} {'spans':>7s} {'total_s':>10s} {'self_s':>10s}")
        for layer, row in sorted(result["self_time"].items()):
            print(f"  {layer:12s} {row['spans']:>7d} {row['total_s']:>10.4f} "
                  f"{row['self_s']:>10.4f}")
    print(f"checks: {result['failed']} failed of {result['attempted']}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")


# ----------------------------------------------------------------------
# Every workload
# ----------------------------------------------------------------------
def run_all(args: argparse.Namespace) -> int:
    """Each workload, traced, in its own process; then the j1-j2 gap."""
    results = {}
    status = 0
    for workload in registry.WORKLOADS:
        path = OUT / "results" / f"{workload}-seed{args.seed}-trace1.json"
        path.unlink(missing_ok=True)
        code = subprocess.call(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seconds", str(args.seconds),
             "--trace", "1"] + _flags(args),
            cwd=ROOT,
        )
        status = max(status, code)
        if code in (0, 1) and path.exists():
            results[workload] = json.loads(path.read_text())
    j1 = results.get("reproduce-j1", {}).get("end_to_end", {}).get("wall_s")
    j2 = results.get("reproduce-j2", {}).get("end_to_end", {}).get("wall_s")
    summary: Dict[str, Any] = {"seed": args.seed, "results": results}
    if j1 and j2:
        summary["reproduce_j2_minus_j1_wall_s"] = j2["value"] - j1["value"]
        print(f"reproduce-j2 wall_s - reproduce-j1 wall_s: "
              f"{j2['value'] - j1['value']:+.3f} s "
              f"({j2['value'] / j1['value']:.3f}x)")
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"all-seed{args.seed}.json").write_text(
        json.dumps(summary, indent=1)
    )
    metrics = {
        f"{w}/{name}": _metric(m["value"], m["unit"])
        for w, r in results.items()
        for section in ("end_to_end", "per_layer")
        for name, m in r[section].items()
    }
    print(json.dumps({
        "correct": status == 0 and len(results) == len(registry.WORKLOADS),
        "attempted": sum(r["attempted"] for r in results.values()) or 1,
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return status if results else 2


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        return probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
