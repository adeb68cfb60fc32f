"""Summarise benchmark results, or diff two sets of them layer by layer.

    python3 perfbench/report.py RESULTS            # one set
    python3 perfbench/report.py BASE NEW           # side by side

Each argument is a result file written by ``run.py`` or a directory of
them (``perfbench/results`` by default).  Results are grouped by
workload.  Untraced runs give the end-to-end metrics (median over runs,
with the quartile spread as a share of the median); traced runs give
the per-layer metrics (median over traced runs).  The tracing overhead
is the traced ``trace.wall_s`` minus the untraced ``wall_s`` median.

With two sets, every metric of every workload is printed as base, new,
delta and delta as a share of base, so a change can show in which
layer its saving (or cost) appears.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

Metrics = Dict[str, Dict[str, float]]


def load(spec: Path) -> Dict[str, Dict[int, List[dict]]]:
    """workload -> trace flag -> result records."""
    files = sorted(spec.glob("*.json")) if spec.is_dir() else [spec]
    grouped: Dict[str, Dict[int, List[dict]]] = defaultdict(
        lambda: defaultdict(list)
    )
    for path in files:
        if path.name.endswith(".trace.json"):
            continue
        record = json.loads(path.read_text())
        stamp = record["manifest"]
        grouped[stamp["workload"]][stamp["trace"]].append(record)
    return grouped


def medians(records: List[dict]) -> Dict[str, float]:
    values: Dict[str, List[float]] = defaultdict(list)
    for record in records:
        for name, metric in record["metrics"].items():
            values[name].append(metric["value"])
    return {name: statistics.median(v) for name, v in values.items()}


def spread(records: List[dict], name: str) -> float:
    """Interquartile distance over the median (0 with < 2 runs)."""
    values = [r["metrics"][name]["value"] for r in records]
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def summarise(grouped) -> Dict[str, Metrics]:
    """workload -> {"e2e": medians, "layers": medians}."""
    out: Dict[str, Metrics] = {}
    for workload, by_trace in sorted(grouped.items()):
        e2e = medians(by_trace.get(0, []))
        layers = medians(by_trace.get(1, []))
        if e2e.get("wall_s") and layers.get("trace.wall_s"):
            layers["trace.overhead_s"] = layers["trace.wall_s"] - e2e["wall_s"]
        out[workload] = {"e2e": e2e, "layers": layers}
    return out


def print_one(grouped) -> None:
    for workload, summary in summarise(grouped).items():
        runs = grouped[workload]
        print(f"== {workload}: {len(runs.get(0, []))} untraced, "
              f"{len(runs.get(1, []))} traced run(s)")
        for name, value in summary["e2e"].items():
            print(f"  {name:34s} {value:14.4f}   spread "
                  f"{spread(runs[0], name):.4f}")
        for name, value in summary["layers"].items():
            print(f"  {name:34s} {value:14.4f}")


def print_diff(base, new) -> None:
    left, right = summarise(base), summarise(new)
    for workload in sorted(set(left) | set(right)):
        print(f"== {workload}")
        print(f"  {'metric':34s} {'base':>14s} {'new':>14s} "
              f"{'delta':>14s} {'delta/base':>10s}")
        for kind in ("e2e", "layers"):
            a = left.get(workload, {}).get(kind, {})
            b = right.get(workload, {}).get(kind, {})
            for name in sorted(set(a) | set(b)):
                x, y = a.get(name), b.get(name)
                if x is None or y is None:
                    print(f"  {name:34s} {x!s:>14s} {y!s:>14s}")
                    continue
                share = f"{(y - x) / x:+10.2%}" if x else f"{'-':>10s}"
                print(f"  {name:34s} {x:14.4f} {y:14.4f} {y - x:+14.4f} "
                      f"{share}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    default = Path(__file__).resolve().parent / "results"
    parser.add_argument("base", type=Path, nargs="?", default=default)
    parser.add_argument("new", type=Path, nargs="?")
    args = parser.parse_args()
    if args.new is None:
        print_one(load(args.base))
    else:
        print_diff(load(args.base), load(args.new))
    return 0


if __name__ == "__main__":
    sys.exit(main())
