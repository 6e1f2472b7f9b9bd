#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, and whether a gain can be claimed.

Usage::

    python3 tools/pairs.py PARENT_CHECKOUT CHANGE_CHECKOUT --workload many-docs \\
        --seconds 10 --pairs 10

Pair n runs ``perfbench/run.py --workload W --seed n --seconds S`` in each
checkout, one after the other: the parent first in odd pairs, the change first
in even ones.  For every end-to-end metric of the parent's ``BENCHMARK.json``
it prints each side's median and quartiles (``statistics.quantiles(values,
n=4)``), the pairs the change won (ties count for neither side), whether the
gain rule holds (the change wins at least nine tenths of the pairs, and its
median beats the parent's by more than the parent's interquartile range), and
the no-regression verdict of ``regression``; a last line gives the worst
verdict over the metrics.  A change that fails a larger share of its
operations than the parent claims no gain and is ``worse`` overall, whatever
its metrics.  Each run finishes before the next starts; an interrupted run is
killed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def first_side(pair: int) -> str:
    """Which checkout runs first in pair ``pair`` (counted from 1)."""
    return "parent" if pair % 2 else "change"


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Quartiles of both sides, the change's wins, and whether the gain rule holds.

    ``parent[i]`` and ``change[i]`` come from pair i; ``better`` is ``"higher"``
    or ``"lower"``.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change, strict=True))
    p_q1, _, p_q3 = statistics.quantiles(parent, n=4)
    c_q1, _, c_q3 = statistics.quantiles(change, n=4)
    p_median, c_median = statistics.median(parent), statistics.median(change)
    gap = sign * (c_median - p_median)
    return {
        "parent": (p_q1, p_median, p_q3),
        "change": (c_q1, c_median, c_q3),
        "wins": wins,
        "pairs": len(parent),
        "gap": gap,
        "parent_iqr": p_q3 - p_q1,
        "gain": 10 * wins >= 9 * len(parent) and gap > p_q3 - p_q1,
    }


def regression(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """``ok``, ``worse`` or ``unresolved``: the no-regression rule for one metric.

    The margin is ``bound`` times the parent's median.  ``worse``: the
    change's median is worse than the parent's by more than the margin.
    ``unresolved``: the parent's interquartile range is wider than the margin,
    and not every change run beats every parent run.
    """
    s = summarize(parent, change, better)
    margin = bound * abs(s["parent"][1])
    sign = 1.0 if better == "higher" else -1.0
    if -s["gap"] > margin:
        return "worse"
    if s["parent_iqr"] > margin and min(sign * c for c in change) <= max(sign * p for p in parent):
        return "unresolved"
    return "ok"


VERDICTS = ("ok", "unresolved", "worse")  # from best to worst


def fails_more(parent: list[dict], change: list[dict]) -> bool:
    """Whether the change's runs failed a larger share of their operations than the parent's.

    Each run is a result line of ``perfbench/run.py``, with ``failed`` and
    ``attempted`` operation counts; the shares are compared exactly.
    """
    (p_failed, p_attempted), (c_failed, c_attempted) = (
        (sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
        for runs in (parent, change))
    return c_failed * p_attempted > p_failed * c_attempted


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line ``perfbench/run.py`` prints last, as a dict."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{checkout}: perfbench/run.py exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")

    contract = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    results = {"parent": [], "change": []}
    for pair in range(1, args.pairs + 1):
        first = first_side(pair)
        for side in (first, "change" if first == "parent" else "parent"):
            results[side].append(run(getattr(args, side), args.workload, pair, args.seconds))
        print(f"pair {pair}: {first} first, failed parent "
              f"{results['parent'][-1]['failed']} change {results['change'][-1]['failed']}",
              flush=True)

    more_failed = fails_more(results["parent"], results["change"])
    print(f"{'metric':24s} {'parent Q1 / median / Q3':>36s} {'change Q1 / median / Q3':>36s}"
          f"  wins  gain  verdict")
    verdicts = {}
    for metric in contract["end_to_end"]:
        name = metric["name"]
        values = [[r["metrics"][name]["value"] for r in results[side]]
                  for side in ("parent", "change")]
        s = summarize(*values, metric["better"])
        verdicts[name] = regression(*values, metric["better"], metric["bound"])
        gain = s["gain"] and not more_failed
        print(f"{name:24s} {' / '.join(f'{v:.6g}' for v in s['parent']):>36s} "
              f"{' / '.join(f'{v:.6g}' for v in s['change']):>36s}  "
              f"{s['wins']:2d}/{s['pairs']}  {'yes' if gain else 'no':4s}  {verdicts[name]}")
    for side, runs in results.items():
        print(f"{side}: {sum(r['failed'] for r in runs)} of "
              f"{sum(r['attempted'] for r in runs)} operations failed")
    if more_failed:
        verdicts["failed share"] = "worse"
    worst = max(verdicts.values(), key=VERDICTS.index, default="ok")
    flagged = [f"{name} {v}" for name, v in verdicts.items() if v != "ok"]
    print(f"overall: {worst}" + (f" ({', '.join(flagged)})" if flagged else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
