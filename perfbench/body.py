"""One measured process: set up a workload, run its body once, report.

Started by ``run.py`` (never by hand) with ``PYTHONHASHSEED`` already
pinned, so the interpreter start is part of the measured set-up::

    python3 perfbench/body.py --workload NAME --sim-seed N
        --scenario-seed N --t0 SECONDS --work DIR --out FILE
        [--trace 0|1] [--setup-only]

``--t0`` is the launcher's ``time.perf_counter()`` just before it
started this process; on Linux that clock is ``CLOCK_MONOTONIC`` and
shared by all processes, so set-up time is measured from process start.
The JSON written to ``--out`` carries the measurements, the output
digest and the manifest fields only this process can see.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path


def _peak_rss_mb() -> float:
    """Peak RSS of this process or of any of its reaped workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def _versions() -> dict:
    import numpy
    import scipy

    from repro.store import ENGINE_VERSION

    return {
        "engine_version": ENGINE_VERSION,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--sim-seed", type=int, required=True)
    parser.add_argument("--scenario-seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    # The CLI process imports this before its first library call.
    import repro.cli  # noqa: F401
    from repro import metrics

    import spans

    tracer = None
    if args.trace:
        run_id = f"{args.work.parent.name}/{args.work.name}"
        tracer = spans.Tracer(args.workload, run_id, args.work)
        spans.install(tracer)
    # Imported after the wrappers are in, so it binds the wrapped calls.
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    ctx = workloads.Context(
        sim_seed=args.sim_seed,
        scenario_seed=args.scenario_seed,
        work_dir=args.work,
        collector=tracer.collector if tracer else metrics.MetricsCollector(),
    )
    traced = tracer.span if tracer else (lambda name: nullcontext())

    with traced("setup"):
        state = workload.setup(ctx)
    body_started = time.perf_counter()
    payload = {"setup_s": body_started - args.t0}
    if args.setup_only:
        args.out.write_text(json.dumps(payload))
        return 0

    output = None
    try:
        with metrics.collect_into(ctx.collector) if tracer else nullcontext():
            with traced("body") as body_span:
                output = workload.body(ctx, state)
    except Exception:  # the launcher fails the whole run on it
        payload["error"] = traceback.format_exc(limit=-3)
    payload["wall_s"] = time.perf_counter() - body_started
    payload["peak_rss_mb"] = _peak_rss_mb()
    payload.update(_versions())
    payload["python_hash_seed"] = os.environ.get("PYTHONHASHSEED")
    if output is not None:
        payload.update({
            "attempted": output.attempted,
            "failed": output.failed,
            "parts": output.parts,
            "config": output.config,
            "gates": output.gates,
        })
    if tracer and output is not None:
        payload["layers"] = spans.layer_metrics(
            tracer.spans, tracer.collector.counters, body_span[0]
        )
        payload["chrome_trace"] = tracer.chrome_trace(args.t0)
    args.out.write_text(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
