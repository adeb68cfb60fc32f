"""End-to-end benchmark of the default ``repro`` CLI paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Workloads (``workloads.py``):
``paper-tables``, ``external-grar``, ``scenario-mc``.

A run measures whole passes of the workload body, each in a fresh
process, until ``--seconds`` of body time is covered (at least one
pass); it reports the median over passes.

* ``--trace 0`` reports the end-to-end metrics: ``setup_s`` (process
  start to the first body call; the median of at least
  ``SETUP_SAMPLES`` set-ups), ``wall_s`` (the body) and
  ``peak_rss_mb`` (the process and its forked workers).
* ``--trace 1`` runs one pass with every layer entry point wrapped
  (``spans.py``) and reports the per-layer metrics.

Every pass's output is digested and compared with the reference
recorded for the workload seed (``reference.json``, written by
``record.py``); a mismatch or a raised error fails every operation of
the run.  The last stdout line is the result object; the line before
it is the run manifest.  Full results (and, when traced, a Chrome
trace-event file) are written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "work"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("paper-tables", "external-grar", "scenario-mc")
#: Workload seeds map onto this many input variants; the reference
#: file holds one recorded output per (workload, variant).
VARIANTS = 8
SETUP_SAMPLES = 3
#: A run must end within 180 s; no pass starts that could overrun this.
DEADLINE_S = 170.0

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def derive(seed: int) -> Dict[str, int]:
    """The inputs a workload seed selects."""
    variant = seed % VARIANTS
    return {
        "variant": variant,
        "python_hash_seed": 1 + variant,
        "sim_seed": 2017 + variant,
        "scenario_seed": 2017 + variant,
    }


def layer_unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def run_pass(
    workload: str,
    derived: Dict[str, int],
    work: Path,
    trace: int = 0,
    setup_only: bool = False,
    timeout: float = DEADLINE_S,
) -> Dict[str, Any]:
    """Start one body process and return what it reported."""
    work.mkdir(parents=True, exist_ok=True)
    out = work / "pass.json"
    env = dict(os.environ)
    # Byte-code caches are written into the checkout like any fresh
    # install, so set-up does not recompile every module every time.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = str(derived["python_hash_seed"])
    env["PYTHONPATH"] = str(SRC)
    command = [
        sys.executable, str(HERE / "body.py"),
        "--workload", workload,
        "--sim-seed", str(derived["sim_seed"]),
        "--scenario-seed", str(derived["scenario_seed"]),
        "--work", str(work),
        "--out", str(out),
        "--trace", str(trace),
    ]
    if setup_only:
        command.append("--setup-only")
    command += ["--t0", repr(time.perf_counter())]
    # Own session, so a timeout takes the forked workers down too.
    process = subprocess.Popen(
        command, env=env, stdout=sys.stderr, start_new_session=True
    )
    try:
        code = process.wait(timeout=timeout)
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    if code != 0:
        raise RuntimeError(f"{workload} body process exited with {code}")
    payload = json.loads(out.read_text())
    out.unlink()
    return payload


def _git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _src_sha256() -> str:
    """Digest of the program's sources (the checkout may lack git)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def manifest(args, derived, first: Dict[str, Any]) -> Dict[str, Any]:
    """Where and on what a result was measured."""
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "engine_version": first["engine_version"],
        "python": first["python"],
        "numpy": first["numpy"],
        "scipy": first["scipy"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "config": first.get("config"),
        "workload": args.workload,
        "seed": args.seed,
        "python_hash_seed": int(first["python_hash_seed"]),
        **{k: v for k, v in derived.items() if k != "python_hash_seed"},
        "gates": first.get("gates"),
        "trace": args.trace,
        "seconds": args.seconds,
    }


def check(expected: Dict[str, Any], passes: List[Dict[str, Any]]) -> List[str]:
    """Every way the passes' outputs differ from the reference."""
    wrong = []
    for index, payload in enumerate(passes):
        if payload.get("error"):
            wrong.append(f"pass {index}: raised {payload['error']}")
            continue
        for part, digest in expected["parts"].items():
            if payload["parts"].get(part) != digest:
                wrong.append(f"pass {index}: {part} differs")
        if payload["attempted"] != expected["attempted"]:
            wrong.append(f"pass {index}: attempted {payload['attempted']}")
    return wrong


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the default repro CLI paths."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    # Unwind on SIGTERM too, so run_pass stops the body process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2

    derived = derive(args.seed)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = WORK / run_id
    passes: List[Dict[str, Any]] = []
    setups: List[float] = []
    measured = 0.0
    try:
        while True:
            payload = run_pass(
                args.workload, derived, work / f"pass{len(passes)}",
                trace=args.trace,
                timeout=DEADLINE_S - (time.monotonic() - started),
            )
            passes.append(payload)
            setups.append(payload["setup_s"])
            measured += payload["wall_s"]
            elapsed = time.monotonic() - started
            if (
                args.trace
                or measured >= args.seconds
                or elapsed + 2 * payload["wall_s"] > DEADLINE_S
            ):
                break
        while not args.trace and len(setups) < SETUP_SAMPLES:
            payload = run_pass(
                args.workload, derived, work / f"setup{len(setups)}",
                setup_only=True, timeout=60.0,
            )
            setups.append(payload["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    references = json.loads(REFERENCE.read_text())[args.workload]
    expected = references[str(derived["variant"])]
    wrong = check(expected, passes)
    attempted = expected["attempted"] * len(passes)
    failed = attempted if wrong else sum(p["failed"] for p in passes)
    correct = not failed
    for line in wrong:
        print(f"output mismatch: {line}", file=sys.stderr)

    first = passes[0]
    if args.trace:
        values = first.get("layers", {})
        units = {name: layer_unit(name) for name in values}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        units = E2E_UNITS
    stamp = manifest(args, derived, first)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }
    RESULTS.mkdir(exist_ok=True)
    record = {
        **result,
        "manifest": stamp,
        "mismatches": wrong,
        "passes": [
            {k: p.get(k) for k in ("setup_s", "wall_s", "peak_rss_mb")}
            for p in passes
        ],
        "setup_samples": setups,
    }
    (RESULTS / f"{run_id}.json").write_text(json.dumps(record, indent=1))
    if "chrome_trace" in first:
        trace_doc = first["chrome_trace"]
        trace_doc["otherData"] = stamp
        (RESULTS / f"{run_id}.trace.json").write_text(json.dumps(trace_doc))
    print("manifest: " + json.dumps(stamp, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
