"""Record the outputs the benchmark checks every run against.

    python3 perfbench/record.py [--workload NAME ...] [--jobs N]

Runs every (workload, seed variant) pass once, untraced, and stores
each output's part digests and operation count in ``reference.json``.
Record only on a commit whose outputs are known good: the benchmark
fails every run whose output differs from the recording.
"""

from __future__ import annotations

import argparse
import json
import shutil
from concurrent.futures import ThreadPoolExecutor

import run


def record(item):
    workload, variant = item
    work = run.WORK / f"record-{workload}-{variant}"
    try:
        payload = run.run_pass(workload, run.derive(variant), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if payload.get("error"):
        raise RuntimeError(f"{workload} variant {variant}: {payload['error']}")
    return workload, variant, {
        "parts": payload["parts"],
        "attempted": payload["attempted"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", nargs="+", choices=run.WORKLOADS,
                        default=list(run.WORKLOADS))
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()
    reference = (
        json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() else {}
    )
    items = [(w, v) for w in args.workload for v in range(run.VARIANTS)]
    with ThreadPoolExecutor(max(1, args.jobs)) as pool:
        for workload, variant, entry in pool.map(record, items):
            reference.setdefault(workload, {})[str(variant)] = entry
            print(f"recorded {workload} variant {variant}", flush=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
