"""Run a workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload reproduce-j1 --runs 10 --seconds 30
    python3 perfbench/spread.py --workload service-mixed --runs 10 --record perfbench/results/baseline.json

The spread of a metric is the distance between the first and third
quartiles of its per-run values, as ``statistics.quantiles(values, n=4)``
gives them, as a share of their median.  A metric is steady when its
spread stays below a third of its bound.  ``--record`` merges the
medians, quartiles and host blocks into a results file, with the
``reproduce-j2`` minus ``reproduce-j1`` gap of the ``wall_s`` medians once
both are recorded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

import registry

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values: List[float]) -> Dict[str, Any]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=registry.WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--record", type=Path)
    args = parser.parse_args()

    values: Dict[str, List[float]] = {}
    hosts = []
    failed = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        failed += proc.returncode != 0
        path = ROOT / ".perfbench" / "results" / (
            f"{args.workload}-seed{seed}-trace0.json"
        )
        result = json.loads(path.read_text())
        hosts.append(result["host"])
        for name, metric in result["end_to_end"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: exit {proc.returncode}, wall_s "
              f"{result['end_to_end']['wall_s']['value']:.4f}, calibration_s "
              f"{result['host']['calibration_s']:.4f}", flush=True)

    rows = {}
    print(f"{'metric':22s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        bound = registry.BOUNDS.get(name)
        row = rows[name] = summarize(vals)
        steady = "" if bound is None else (
            "steady" if row["spread"] < bound / 3 else "NOT STEADY"
        )
        print(f"{name:22s} {row['median']:>12.6g} {row['spread']:>8.4f} "
              f"{bound if bound is not None else '-':>6} {steady}")
    if args.record:
        record = (
            json.loads(args.record.read_text()) if args.record.exists()
            else {}
        )
        record[args.workload] = {
            "runs": args.runs,
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "seconds": args.seconds,
            "failed_runs": failed,
            "calibration_s": summarize([h["calibration_s"] for h in hosts]),
            "host": {k: v for k, v in hosts[0].items()
                     if k != "calibration_s"},
            "end_to_end": rows,
        }
        j1, j2 = record.get("reproduce-j1"), record.get("reproduce-j2")
        if j1 and j2:
            record["reproduce_j2_minus_j1_wall_s"] = (
                j2["end_to_end"]["wall_s"]["median"]
                - j1["end_to_end"]["wall_s"]["median"]
            )
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
