#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics over several seeds.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload many-docs --seeds 10 --seconds 30 \\
        --out perfbench/results/many-docs.json

Runs ``perfbench/run.py`` once per seed (1, 2, ...), one run after another, and
reports for each end-to-end metric the median of its values and their spread:
the distance between the first and third quartile, as
``statistics.quantiles(values, n=4)`` gives them, as a share of the median.
Spreads are given both for the reported, probe-normalised figures and for the
same metrics computed from plain wall seconds, which each run keeps in its
record under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summary(runs: list[dict[str, float]]) -> dict[str, dict[str, float]]:
    return {name: {"median": statistics.median(r[name] for r in runs),
                   "spread": spread([r[name] for r in runs])}
            for name in runs[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    reported, wall, runs = [], [], []
    for seed in range(1, args.seeds + 1):
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        record_path = (ROOT / ".perfbench_work" / args.workload
                       / f"record-seed{seed}-trace0.json")
        record = json.loads(record_path.read_text(encoding="utf-8"))
        values = {name: m["value"] for name, m in result["metrics"].items()}
        reported.append(values)
        wall.append({name: record["wall_metrics"][name] for name in values})
        runs.append({"seed": seed, "correct": result["correct"],
                     "attempted": result["attempted"], "failed": result["failed"],
                     "metrics": values, "wall_metrics": wall[-1]})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}"
              f"/{result['attempted']}", flush=True)

    out = {
        "workload": args.workload,
        "seconds": args.seconds,
        "environment": record["environment"],
        "reported": summary(reported),
        "wall": summary(wall),
        "runs": runs,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    for name, s in out["reported"].items():
        print(f"{name}: median {s['median']:.6g}, spread {s['spread']:.3f} "
              f"(wall seconds: {out['wall'][name]['spread']:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
