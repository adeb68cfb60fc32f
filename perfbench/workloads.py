"""The three benchmark workloads, as the CLI commands run them.

Each workload makes the same public calls, in the same order and with
the same default engine settings, as one ``repro`` command:

* ``paper-tables``  — ``repro tables``
* ``external-grar`` — ``repro run --from-verilog s13207.v --method grar``
* ``scenario-mc``   — ``repro scenarios s1488 --sim-seeds 16 --corners sigma``

``setup`` does what happens before the command's first library call
(the library, the circuits, the Verilog export); ``body`` is the
user's wait.  Where the CLI installs its own ``repro.metrics``
collector, the body installs ``collector`` instead, so a traced run
sees the counters the command would have collected.

Every body returns its output in a canonical, digestable form; the
benchmark compares the digest with a reference recorded for the same
workload seed.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict

from repro import metrics
from repro.cells import default_library
from repro.circuits import build_benchmark
from repro.store import get_store

#: ``repro tables`` with no circuit arguments.
TABLE_CIRCUITS = ["s1196", "s1238", "s1423", "s1488"]
#: Table VII is wall-clock run-times by design, so it is not digested.
UNDIGESTED_TABLES = {"table vii"}

EXTERNAL_CIRCUIT = "s13207"

SCENARIO_CIRCUIT = "s1488"
#: One corner of the default matrix keeps a run inside the benchmark's
#: time budget; the upset models and policies are the defaults.
SCENARIO_CORNERS = ["sigma"]
SCENARIO_SIM_SEEDS = 16


@dataclass
class Context:
    """What a run derives from its workload seed, plus its scratch."""

    sim_seed: int
    scenario_seed: int
    work_dir: Path
    #: installed wherever the CLI installs its own collector.
    collector: metrics.MetricsCollector


@dataclass
class Output:
    """A body's result: operation counts plus the digested output."""

    attempted: int
    failed: int
    #: named parts of the output, each digested separately so a
    #: mismatch names the part that moved.
    parts: Dict[str, str]
    #: the engine settings as the pass resolved them.
    config: Dict[str, Any]
    #: gate count of every circuit the pass ran on.
    gates: Dict[str, int]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _store_tier() -> str:
    return "disk" if get_store().persistent else "memory"


# -- paper-tables ---------------------------------------------------------------


def tables_setup(ctx: Context) -> Dict[str, Any]:
    return {"library": default_library()}


def tables_body(ctx: Context, state: Dict[str, Any]) -> Output:
    from repro.harness import ExperimentSuite

    suite = ExperimentSuite(
        circuits=list(TABLE_CIRCUITS),
        library=state["library"],
        error_rate_cycles=128,
        sim_seed=ctx.sim_seed,
        sim_backend="compiled",
        sta_mode="incremental",
        sta_engine="object",
        guard="off",
        isolate=False,
        memo_path=None,
        checkpoint_every=1,
        retime_cache=True,
        store=None,
    )
    producers = [
        ("table i", suite.table1),
        ("table ii", suite.table2),
        ("table iii", suite.table3),
        ("table iv", suite.table4),
        ("table v", suite.table5),
        ("table vi", suite.table6),
        ("table vii", suite.table7),
        ("table viii", suite.table8),
        ("table ix", suite.table9),
        ("vi-d", suite.flop_comparison),
    ]
    rendered = {}
    with metrics.collect_into(ctx.collector):
        for label, producer in producers:
            rendered[label] = producer().render()
    suite.checkpoint(force=True)
    counters = ctx.collector.counters
    attempted = int(counters.get("flow.runs", 0)
                    + counters.get("sim.batched.runs", 0))
    return Output(
        attempted=attempted,
        failed=len(suite.failures),
        parts={label: _sha(text) for label, text in rendered.items()
               if label not in UNDIGESTED_TABLES},
        config={
            "sim_backend": suite.sim_backend,
            "sta_engine": suite.sta_engine,
            "sta_mode": suite.sta_mode,
            "retime_cache": suite.retime_cache,
            "store": _store_tier(),
        },
        gates={name: suite.netlist(name).stats()["gates"]
               for name in TABLE_CIRCUITS},
    )


# -- external-grar --------------------------------------------------------------


def external_setup(ctx: Context) -> Dict[str, Any]:
    from repro.netlist.verilog import write_verilog

    library = default_library()
    netlist = build_benchmark(EXTERNAL_CIRCUIT, library)
    path = ctx.work_dir / f"{EXTERNAL_CIRCUIT}.v"
    with open(path, "w") as stream:
        write_verilog(netlist, library, stream)
    return {"library": library, "path": path}


def external_body(ctx: Context, state: Dict[str, Any]) -> Output:
    from repro.convert import load_netlist
    from repro.flows import prepare_circuit, run_flow

    library = state["library"]
    netlist = load_netlist(state["path"], library, fmt="verilog")
    scheme, _ = prepare_circuit(
        netlist, library, sta_mode="incremental", sta_engine="object",
        convert="two-phase",
    )
    stats = netlist.stats()
    outcome = run_flow(
        "grar", netlist, library, 1.0, scheme=scheme, guard="off",
        sta_mode="incremental", sta_engine="object", retime_cache=True,
        convert="two-phase",
    )
    outcome.conversion.summary()
    outcome.summary()
    return Output(
        attempted=1,
        failed=0,
        parts={
            "n_slaves": str(outcome.n_slaves),
            "edl": _sha(json.dumps(sorted(outcome.edl_endpoints))),
            "sequential_area": repr(outcome.sequential_area),
            "total_area": repr(outcome.total_area),
            "placement": _sha(
                json.dumps(sorted(outcome.retiming.placement.retimed))
            ),
        },
        config={
            "sim_backend": None,
            "sta_engine": outcome.circuit.sta_engine,
            "sta_mode": outcome.circuit.sta_mode,
            "retime_cache": True,
            "store": _store_tier(),
        },
        gates={netlist.name: stats["gates"]},
    )


# -- scenario-mc ----------------------------------------------------------------


def scenario_setup(ctx: Context) -> Dict[str, Any]:
    library = default_library()
    pairs = [(SCENARIO_CIRCUIT, build_benchmark(SCENARIO_CIRCUIT, library))]
    return {"library": library, "pairs": pairs}


def scenario_body(ctx: Context, state: Dict[str, Any]) -> Output:
    from repro.flows import run_flow
    from repro.scenarios.engine import (
        DEFAULT_POLICIES,
        DEFAULT_UPSETS,
        run_scenarios,
    )

    with metrics.collect_into(ctx.collector):
        report = run_scenarios(
            state["pairs"],
            state["library"],
            corners=list(SCENARIO_CORNERS),
            upsets=list(DEFAULT_UPSETS),
            policies=list(DEFAULT_POLICIES),
            overhead=1.0,
            cycles=96,
            seed=ctx.scenario_seed,
            n_seeds=SCENARIO_SIM_SEEDS,
            sim_backend="compiled",
            guard=None,
            jobs=1,
            deadline_s=None,
            memo_path=None,
            retry_failed=False,
            harden_fraction=0.5,
            store=None,
        )
    # Each scenario's flow runs with run_flow's defaults.
    flow = inspect.signature(run_flow).parameters
    return Output(
        attempted=len(report.entries),
        failed=len(report.failed_entries),
        parts={"report": _sha(report.to_json())},
        config={
            "sim_backend": report.sim_backend,
            "sta_engine": flow["sta_engine"].default,
            "sta_mode": flow["sta_mode"].default,
            "retime_cache": flow["retime_cache"].default,
            "store": _store_tier(),
        },
        gates={name: netlist.stats()["gates"]
               for name, netlist in state["pairs"]},
    )


@dataclass(frozen=True)
class Workload:
    setup: Callable[[Context], Dict[str, Any]]
    body: Callable[[Context, Dict[str, Any]], Output]


WORKLOADS: Dict[str, Workload] = {
    "paper-tables": Workload(tables_setup, tables_body),
    "external-grar": Workload(external_setup, external_body),
    "scenario-mc": Workload(scenario_setup, scenario_body),
}
