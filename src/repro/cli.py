"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show the benchmark circuits and their Table I profiles.
``run``
    Run one retiming flow on one circuit and print the outcome.
    ``--from-bench``/``--from-verilog`` run on an external netlist
    through the two-phase conversion front end instead.
``tables``
    Regenerate the paper's tables on a circuit selection; external
    netlists join the selection via ``--from-bench``/``--from-verilog``.
``convert``
    Convert an external flop netlist (ISCAS89 ``.bench`` or structural
    Verilog) to two-phase latch-based form and print the conversion
    report; ``--out`` writes the converted design back as Verilog.
``example``
    Print the Fig. 4 worked example.
``scenarios``
    Sweep circuits × variation corners × upset models × hardening
    policies with graceful degradation: failing scenarios settle as
    typed FAILED report entries and the sweep continues.
``cache``
    Inspect or prune a persistent artifact store (``--store DIR``):
    ``ls``, ``stats``, ``gc``, ``clear``.

``run``, ``tables``, and ``scenarios`` accept ``--store DIR`` to back
their caches with an on-disk content-addressed store; results are
bit-identical with and without it (store-off is the parity oracle).

Every failure maps to a distinct nonzero exit code so shell pipelines
and CI can tell failure classes apart without parsing stderr:

====  ==========================================================
code  meaning
====  ==========================================================
2     usage error (unknown circuit, bad flag value)
3     netlist error (:class:`~repro.errors.NetlistError`)
4     timing error (:class:`~repro.errors.TimingError`)
5     solver error (:class:`~repro.errors.SolverError`)
6     flow-stage / invariant error
      (:class:`~repro.errors.FlowStageError`)
7     ``tables`` completed but isolated circuit failures occurred
8     simulation error (:class:`~repro.errors.SimulationError`)
====  ==========================================================

``--json-errors`` prints the structured ``to_dict()`` form of the
error on stderr as one JSON object, for machine consumption.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from typing import List, Optional

from repro import metrics
from repro.cells import default_library
from repro.circuits import build_benchmark, suite_names
from repro.errors import (
    FlowStageError,
    NetlistError,
    ReproError,
    SimulationError,
    SolverError,
    TimingError,
)
from repro.flows import METHODS, prepare_circuit, run_flow
from repro.harness import ExperimentSuite
from repro.harness.paper import PAPER_TABLE1
from repro.sim import SIM_BACKENDS, estimate_error_rate
from repro.store import open_store, use_store

#: Exit codes per failure class (see module docstring).
EXIT_USAGE = 2
EXIT_NETLIST = 3
EXIT_TIMING = 4
EXIT_SOLVER = 5
EXIT_FLOW = 6
EXIT_PARTIAL = 7
EXIT_SIM = 8


def _exit_code(error: ReproError) -> int:
    if isinstance(error, NetlistError):
        return EXIT_NETLIST
    if isinstance(error, TimingError):
        return EXIT_TIMING
    if isinstance(error, SimulationError):
        return EXIT_SIM
    if isinstance(error, SolverError):
        return EXIT_SOLVER
    if isinstance(error, FlowStageError):
        return EXIT_FLOW
    return EXIT_FLOW


def _report_error(error: BaseException, args: argparse.Namespace) -> None:
    if getattr(args, "json_errors", False):
        if isinstance(error, ReproError):
            payload = error.to_dict()
        else:
            payload = {
                "type": type(error).__name__,
                "message": str(error),
                "stage": None,
                "circuit": None,
                "payload": {},
            }
        print(json.dumps(payload), file=sys.stderr)
    else:
        print(f"error: {error}", file=sys.stderr)


def _open_cli_store(args: argparse.Namespace):
    """Resolve ``--store DIR`` (plus ``--store-capacity``) or None."""
    path = getattr(args, "store", None)
    if not path:
        return None
    return open_store(path, capacity=getattr(args, "store_capacity", None))


@contextmanager
def _store_scope(store):
    """Make ``store`` ambient for a command body (no-op when None)."""
    if store is None:
        yield None
    else:
        with use_store(store):
            yield store


def _cmd_list(_: argparse.Namespace) -> int:
    print(f"{'circuit':>8s} {'P(ns)':>6s} {'flops':>6s} {'NCE':>5s} {'area':>9s}")
    for name in suite_names():
        period, flops, nce, area = PAPER_TABLE1[name]
        print(f"{name:>8s} {period:6.1f} {flops:6d} {nce:5d} {area:9.2f}")
    print("\n(paper Table I values; generated circuits match the flop")
    print(" counts exactly and the NCE fractions approximately)")
    return 0


def _external_netlist(args: argparse.Namespace, library):
    """Resolve ``--from-bench``/``--from-verilog`` to a netlist, or None."""
    from repro.convert import load_netlist

    sources = [
        (path, fmt)
        for path, fmt in (
            (getattr(args, "from_bench", None), "bench"),
            (getattr(args, "from_verilog", None), "verilog"),
        )
        if path
    ]
    if not sources:
        return None
    if len(sources) > 1 or getattr(args, "circuit", None):
        raise ValueError(
            "give exactly one of: a circuit name, --from-bench, or "
            "--from-verilog"
        )
    path, fmt = sources[0]
    return load_netlist(path, library, fmt=fmt)


def _cmd_run(args: argparse.Namespace) -> int:
    if args.overhead < 0:
        raise ValueError("--overhead must be non-negative")
    if args.cycles < 1:
        raise ValueError("--cycles must be at least 1")
    library = default_library()
    netlist = _external_netlist(args, library)
    convert = None
    if netlist is not None:
        # External designs enter through the conversion front end.
        convert = "two-phase"
    elif args.circuit:
        netlist = build_benchmark(args.circuit, library)
    else:
        raise ValueError(
            "run needs a circuit name, --from-bench, or --from-verilog"
        )
    with _store_scope(_open_cli_store(args)):
        scheme, _ = prepare_circuit(
            netlist, library, sta_mode=args.sta_mode, convert=convert
        )
        print(f"{netlist.name}: {netlist.stats()}")
        print(
            f"clock: P={scheme.max_path_delay:.4f} Pi={scheme.period:.4f} "
            f"window={scheme.resiliency_window:.4f}"
        )
        outcome = run_flow(
            args.method, netlist, library, args.overhead, scheme=scheme,
            guard=args.guard, sta_mode=args.sta_mode,
            retime_cache=args.retime_cache == "on",
            convert=convert,
        )
    if outcome.conversion is not None:
        print(f"converted: {outcome.conversion.summary()}")
    print(outcome.summary())
    if args.guard and args.guard != "off":
        for record in outcome.guard_records:
            status = "ok" if record.ok else "VIOLATED"
            line = f"guard[{record.stage}] {record.checkpoint}: {status}"
            if record.problems:
                line += f" — {record.problems[0]}"
            print(line)
    if args.error_rate:
        report = estimate_error_rate(
            outcome.circuit,
            outcome.retiming.placement,
            outcome.edl_endpoints,
            cycles=args.cycles,
            backend=args.sim_backend,
        )
        rate = (
            "unmeasured"
            if report.cycles_per_sec is None
            else f"{report.cycles_per_sec:.0f} cycles/s"
        )
        print(
            f"error rate: {report.error_rate:.2f}% over {report.cycles} "
            f"cycles ({report.non_edl_violations} non-EDL violations; "
            f"{report.backend} backend, {rate})"
        )
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    if args.cycles < 1:
        raise ValueError("--cycles must be at least 1")
    library = default_library()
    external = []
    for path in args.from_bench or []:
        from repro.convert import load_netlist

        external.append(load_netlist(path, library, fmt="bench"))
    for path in args.from_verilog or []:
        from repro.convert import load_netlist

        external.append(load_netlist(path, library, fmt="verilog"))
    circuits = list(args.circuits)
    if circuits == ["full"]:
        circuits = suite_names()
    elif not circuits and not external:
        circuits = ["s1196", "s1238", "s1423", "s1488"]
    jobs = max(1, args.jobs)
    collector = metrics.MetricsCollector()
    suite_started = time.perf_counter()
    # Collect from here on: building the suite loads the memo and
    # converting external netlists runs STA; the artifact counts both.
    with metrics.collect_into(collector):
        suite = ExperimentSuite(
            circuits=circuits + [nl.name for nl in external],
            library=library,
            error_rate_cycles=args.cycles,
            sim_backend=args.sim_backend,
            sta_mode=args.sta_mode,
            guard=args.guard,
            isolate=args.isolate,
            memo_path=args.memo,
            checkpoint_every=8 if jobs > 1 else 1,
            retime_cache=args.retime_cache == "on",
            store=_open_cli_store(args),
        )
        for nl in external:
            # Validate through the conversion front end; the derived
            # scheme is bit-identical to the suite's own recipe, so the
            # seeded clock keeps converted and native sweeps comparable.
            from repro.convert import convert_to_two_phase

            design = convert_to_two_phase(
                nl, library, sta_mode=args.sta_mode
            )
            suite.add_netlist(nl.name, nl, scheme=design.scheme)
            print(
                f"converted: {design.report.summary()}", file=sys.stderr
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
        wanted = [w.lower() for w in (args.tables or [])]
        parallel_summary = None
        if jobs > 1:
            from repro.harness.parallel import (
                methods_for_tables,
                run_suite_parallel,
            )

            methods, need_rates = methods_for_tables(wanted or None)
            parallel_summary = run_suite_parallel(
                suite, jobs=jobs, methods=methods, error_rates=need_rates
            )
        for table_id, producer in producers:
            if wanted and table_id not in wanted:
                continue
            rendered = producer().render()
            print()
            print(rendered)
    suite.checkpoint(force=True)
    if args.bench_out:
        report = metrics.bench_report(
            collector,
            kind="suite",
            circuits=list(circuits),
            tables=wanted or "all",
            jobs=jobs,
            sim_backend=args.sim_backend,
            wall_s=round(time.perf_counter() - suite_started, 6),
            n_failures=len(suite.failures),
            parallel=parallel_summary,
        )
        metrics.write_bench(args.bench_out, report)
        print(f"\nbench report written to {args.bench_out}", file=sys.stderr)
    if suite.failures:
        report = suite.failure_report()
        print(
            f"\n{report['n_failures']} run(s) FAILED; partial tables "
            f"above", file=sys.stderr,
        )
        if args.json_errors:
            print(json.dumps(report), file=sys.stderr)
        else:
            for entry in report["failures"]:
                print(
                    f"  {entry['circuit']}/{entry['method']}"
                    f"[c={entry['overhead']}] in {entry['stage']}: "
                    f"{entry['error'].get('message')}",
                    file=sys.stderr,
                )
        return EXIT_PARTIAL
    return 0


def _scenario_netlists(names: List[str], library) -> List[tuple]:
    """Resolve CLI circuit names to (name, netlist) pairs.

    ``fig4`` maps to the paper's worked example; everything else goes
    through the benchmark generator.
    """
    pairs = []
    for name in names:
        if name == "fig4":
            from repro.circuits.fig4 import fig4_netlist

            pairs.append((name, fig4_netlist()))
        else:
            pairs.append((name, build_benchmark(name, library)))
    return pairs


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.scenarios.engine import run_scenarios

    if args.overhead < 0:
        raise ValueError("--overhead must be non-negative")
    if args.cycles < 1:
        raise ValueError("--cycles must be at least 1")
    if not 0.0 <= args.harden_fraction <= 1.0:
        raise ValueError("--harden-fraction must be in [0, 1]")
    if args.deadline is not None and args.deadline <= 0:
        raise ValueError("--deadline must be positive")
    library = default_library()
    pairs = _scenario_netlists(args.circuits, library)
    collector = metrics.MetricsCollector()
    started = time.perf_counter()
    with metrics.collect_into(collector):
        report = run_scenarios(
            pairs,
            library,
            corners=args.corners,
            upsets=args.upsets,
            policies=args.policy,
            overhead=args.overhead,
            cycles=args.cycles,
            seed=args.seed,
            n_seeds=max(1, args.sim_seeds),
            sim_backend=args.sim_backend,
            guard=None if args.guard == "off" else args.guard,
            jobs=max(1, args.jobs),
            deadline_s=args.deadline,
            memo_path=args.memo,
            retry_failed=args.retry_failed,
            harden_fraction=args.harden_fraction,
            store=_open_cli_store(args),
        )
    header = (
        f"{'circuit':>8s} {'corner':>11s} {'upset':>9s} {'policy':>9s} "
        f"{'status':>7s} {'err%':>6s} {'edl':>4s} {'area':>9s}"
    )
    print(header)
    for entry in report.entries:
        if entry["status"] == "ok":
            print(
                f"{entry['circuit']:>8s} {entry['corner']:>11s} "
                f"{entry['upset']:>9s} {entry['policy']:>9s} "
                f"{'ok':>7s} {entry['error_rate']:6.2f} "
                f"{entry['n_edl']:4d} {entry['total_area']:9.2f}"
            )
        else:
            print(
                f"{entry['circuit']:>8s} {entry['corner']:>11s} "
                f"{entry['upset']:>9s} {entry['policy']:>9s} "
                f"{'FAILED':>7s} [{entry['failure_kind']}"
                f" x{entry['attempts']}] {entry['message']}"
            )
    n_ok = len(report.ok_entries)
    n_failed = len(report.failed_entries)
    print(
        f"\n{n_ok} ok, {n_failed} failed "
        f"(seed={report.seed}, backend={report.sim_backend})"
    )
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report.to_json())
        print(f"report written to {args.out}", file=sys.stderr)
    if args.bench_out:
        bench = metrics.bench_report(
            collector,
            kind="scenarios",
            circuits=list(args.circuits),
            corners=list(args.corners),
            upsets=list(args.upsets),
            policies=list(args.policy),
            seed=args.seed,
            jobs=max(1, args.jobs),
            sim_backend=args.sim_backend,
            wall_s=round(time.perf_counter() - started, 6),
            n_ok=n_ok,
            n_failed=n_failed,
        )
        metrics.write_bench(args.bench_out, bench)
        print(f"bench report written to {args.bench_out}", file=sys.stderr)
    if n_failed and args.json_errors:
        print(
            json.dumps({"failed": report.failed_entries}),
            file=sys.stderr,
        )
    # Graceful-degradation contract: isolated failures are part of a
    # successful sweep.  Only an entirely-failed matrix is an error.
    if report.entries and not n_ok:
        return EXIT_PARTIAL
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    from repro.convert import convert_to_two_phase, load_netlist

    if args.overhead < 0:
        raise ValueError("--overhead must be non-negative")
    library = default_library()
    netlist = load_netlist(
        args.netlist, library, fmt=args.format, name=args.name
    )
    design = convert_to_two_phase(
        netlist, library, balance=not args.no_balance
    )
    report = design.report
    print(f"{netlist.name}: {netlist.stats()}")
    print(
        f"clock: P={design.scheme.max_path_delay:.4f} "
        f"Pi={design.scheme.period:.4f} "
        f"window={design.scheme.resiliency_window:.4f}"
    )
    print(report.summary())
    print(
        f"sequential area: {report.flop_area_before:.2f} (flops) -> "
        f"{report.latch_area_after:.2f} (latches); "
        f"resilient floor at c={args.overhead}: "
        f"{report.resilient_area(library, args.overhead):.2f}"
    )
    print(f"phase legality: {design.legality.summary()}")
    if args.out:
        from repro.netlist.verilog import write_verilog

        with open(args.out, "w") as handle:
            write_verilog(design.netlist, library, handle)
        print(f"converted design written to {args.out}", file=sys.stderr)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    store = open_store(args.store)
    if not store.persistent:
        raise ValueError("cache needs a persistent store (--store DIR)")
    if args.op == "ls":
        rows = store.ls(args.namespace)
        if not rows:
            print("(empty)")
            return 0
        print(f"{'namespace':>14s} {'bytes':>10s} {'key':s}")
        for row in rows:
            print(
                f"{row['namespace']:>14s} {row['bytes']:>10d} {row['key']}"
            )
        return 0
    if args.op == "stats":
        print(json.dumps(store.stats(), indent=2, sort_keys=True))
        return 0
    if args.op == "gc":
        result = store.gc(
            max_bytes=args.max_bytes, max_age_s=args.max_age
        )
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0
    # clear
    print(json.dumps(store.clear(args.namespace), sort_keys=True))
    return 0


def _cmd_example(_: argparse.Namespace) -> int:
    import runpy
    from pathlib import Path

    script = (
        Path(__file__).resolve().parent.parent.parent
        / "examples"
        / "worked_example.py"
    )
    if script.exists():
        runpy.run_path(str(script), run_name="__main__")
        return 0
    # Installed without the examples directory: run the core inline.
    from repro.circuits.fig4 import fig4_circuit
    from repro.retime import grar_retime

    result = grar_retime(fig4_circuit(), overhead=2.0)
    print(result.summary())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Retiming of two-phase latch-based resilient circuits",
    )
    parser.add_argument(
        "--json-errors", action="store_true",
        help="print failures as one JSON object on stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmark circuits").set_defaults(
        func=_cmd_list
    )

    run = sub.add_parser("run", help="run one flow on one circuit")
    run.add_argument(
        "circuit", nargs="?", default=None,
        help="benchmark name, e.g. s1196 (omit when running an"
             " external netlist via --from-bench/--from-verilog)",
    )
    run.add_argument(
        "--from-bench", default=None, metavar="PATH",
        help="run an external ISCAS89 .bench netlist through the"
             " two-phase conversion front end",
    )
    run.add_argument(
        "--from-verilog", default=None, metavar="PATH",
        help="run an external structural-Verilog netlist through the"
             " two-phase conversion front end",
    )
    run.add_argument(
        "--method", default="grar", choices=list(METHODS)
    )
    run.add_argument("--overhead", type=float, default=1.0)
    run.add_argument("--error-rate", action="store_true")
    run.add_argument("--cycles", type=int, default=192)
    run.add_argument(
        "--sim-backend", default="compiled",
        choices=list(SIM_BACKENDS),
        help="Table VIII simulation backend: the compiled lane engine"
             " (default) or the reference event-driven simulator; both"
             " produce bit-identical reports",
    )
    run.add_argument(
        "--sta-mode", default="incremental",
        choices=["incremental", "full"],
        help="timing-update policy: event-driven cone-scoped repair"
             " (default) or whole-engine invalidation on every netlist"
             " change; results are bit-identical",
    )
    run.add_argument(
        "--guard", default="off", choices=["off", "warn", "strict"],
        help="inter-stage invariant checkpoints",
    )
    run.add_argument(
        "--retime-cache", default="on", choices=["on", "off"],
        help="reuse compiled retiming problems, simplex warm starts"
             " and repeated sizing runs across overhead sweeps; 'off'"
             " recomputes everything and re-runs every sizing pass"
             " (the bit-parity oracle)",
    )
    run.add_argument(
        "--store", default=None, metavar="DIR",
        help="persistent artifact store: compiled retiming problems"
             " are reused across invocations (results are"
             " bit-identical with and without it)",
    )
    run.add_argument(
        "--store-capacity", type=int, default=None, metavar="N",
        help="memory-tier LRU capacity per store namespace"
             " (default: 8)",
    )
    run.set_defaults(func=_cmd_run)

    tables = sub.add_parser("tables", help="regenerate paper tables")
    tables.add_argument(
        "circuits", nargs="*",
        help="circuit names, or 'full' for all twelve",
    )
    tables.add_argument(
        "--tables", nargs="*", default=None,
        help="filter, e.g. --tables 'table v' 'table viii'",
    )
    tables.add_argument(
        "--from-bench", action="append", default=None, metavar="PATH",
        help="add an external ISCAS89 .bench netlist to the circuit"
             " selection (converted to two-phase form; repeatable)",
    )
    tables.add_argument(
        "--from-verilog", action="append", default=None, metavar="PATH",
        help="add an external structural-Verilog netlist to the"
             " circuit selection (converted; repeatable)",
    )
    tables.add_argument("--cycles", type=int, default=128)
    tables.add_argument(
        "--sim-backend", default="compiled",
        choices=list(SIM_BACKENDS),
        help="Table VIII simulation backend (bit-identical reports;"
             " 'compiled' is several times faster than 'event')",
    )
    tables.add_argument(
        "--sta-mode", default="incremental",
        choices=["incremental", "full"],
        help="timing-update policy (bit-identical results;"
             " 'incremental' repairs only the changed cones)",
    )
    tables.add_argument(
        "--guard", default="off", choices=["off", "warn", "strict"],
        help="inter-stage invariant checkpoints",
    )
    tables.add_argument(
        "--isolate", action="store_true",
        help="record per-circuit failures and render partial tables",
    )
    tables.add_argument(
        "--memo", default=None, metavar="PATH",
        help="JSON memo of completed runs, for resuming a crashed suite",
    )
    tables.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the (circuit, method, c) cell sweep;"
             " results are bit-identical to the sequential run",
    )
    tables.add_argument(
        "--bench-out", default=None, metavar="PATH",
        help="write a BENCH_suite.json artifact (per-stage wall-clock,"
             " peak RSS, solver-backend and STA cache counters)",
    )
    tables.add_argument(
        "--retime-cache", default="on", choices=["on", "off"],
        help="reuse compiled retiming problems, simplex warm starts"
             " and repeated sizing runs across the overhead sweep;"
             " 'off' recomputes everything and re-runs every sizing"
             " pass (the bit-parity oracle)",
    )
    tables.add_argument(
        "--store", default=None, metavar="DIR",
        help="persistent artifact store: compiled retiming problems"
             " and the suite memo are reused across invocations and"
             " shared with --jobs workers (bit-identical tables with"
             " and without it)",
    )
    tables.add_argument(
        "--store-capacity", type=int, default=None, metavar="N",
        help="memory-tier LRU capacity per store namespace"
             " (default: 8)",
    )
    tables.set_defaults(func=_cmd_tables)

    convert = sub.add_parser(
        "convert",
        help="convert a flop netlist to two-phase latch-based form",
        description="Read an external flop netlist (ISCAS89 .bench or"
        " structural Verilog), split each flop into a master/slave"
        " latch pair, derive the two-phase clock from the critical"
        " path, balance the initial slave placement, and validate the"
        " phase-legality invariants.",
    )
    convert.add_argument(
        "netlist", help="path to a .bench or .v netlist file"
    )
    convert.add_argument(
        "--format", default="auto", choices=["auto", "bench", "verilog"],
        help="input format (default: by file extension)",
    )
    convert.add_argument(
        "--name", default=None,
        help="circuit name override (default: file stem)",
    )
    convert.add_argument(
        "--overhead", type=float, default=1.0,
        help="EDL overhead c for the resilient-area floor line",
    )
    convert.add_argument(
        "--no-balance", action="store_true",
        help="keep every slave at its master's output (skip the"
             " forward balancing through the mandatory region)",
    )
    convert.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the converted design as structural Verilog",
    )
    convert.set_defaults(func=_cmd_convert)

    sub.add_parser(
        "example", help="walk the paper's Fig. 4 worked example"
    ).set_defaults(func=_cmd_example)

    from repro.scenarios.engine import (
        CORNERS,
        DEFAULT_CORNERS,
        DEFAULT_POLICIES,
        DEFAULT_UPSETS,
        POLICIES,
        UPSETS,
    )

    scen = sub.add_parser(
        "scenarios",
        help="sweep corners × upsets × hardening policies",
        description="Soft-error & variation scenario sweep with"
        " graceful degradation: scenarios that crash, hang past the"
        " deadline, or die settle as typed FAILED entries and the"
        " sweep continues.  The exit code is 0 whenever at least one"
        " scenario succeeded.",
    )
    scen.add_argument(
        "circuits", nargs="+",
        help="benchmark names (e.g. s1196), or 'fig4'",
    )
    scen.add_argument(
        "--corners", nargs="+", default=list(DEFAULT_CORNERS),
        choices=sorted(CORNERS), metavar="CORNER",
        help=f"variation corners (default: {' '.join(DEFAULT_CORNERS)};"
             f" all: {' '.join(sorted(CORNERS))})",
    )
    scen.add_argument(
        "--upsets", nargs="+", default=list(DEFAULT_UPSETS),
        choices=sorted(UPSETS), metavar="UPSET",
        help=f"upset models (default: {' '.join(DEFAULT_UPSETS)};"
             f" all: {' '.join(sorted(UPSETS))})",
    )
    scen.add_argument(
        "--policy", nargs="+", default=list(DEFAULT_POLICIES),
        choices=list(POLICIES), metavar="POLICY",
        help=f"hardening policies (default: {' '.join(DEFAULT_POLICIES)};"
             f" all: {' '.join(POLICIES)})",
    )
    scen.add_argument(
        "--seed", type=int, default=2017,
        help="base seed; each scenario derives its own stream from"
             " a hash of (seed, circuit, corner, upset, policy)",
    )
    scen.add_argument("--overhead", type=float, default=1.0)
    scen.add_argument("--cycles", type=int, default=96)
    scen.add_argument(
        "--harden-fraction", type=float, default=0.5,
        help="fraction of fragile endpoints the 'selective' policy"
             " hardens with EDL masters",
    )
    scen.add_argument(
        "--sim-backend", default="compiled",
        choices=list(SIM_BACKENDS),
        help="simulation backend; both honour injection plans"
             " bit-identically and render the identical report file",
    )
    scen.add_argument(
        "--sim-seeds", type=int, default=1, metavar="N",
        help="Monte-Carlo seeds per scenario (lane 0 is the legacy"
             " derived seed; entries report the mean error rate)",
    )
    scen.add_argument(
        "--guard", default="off", choices=["off", "warn", "strict"],
        help="inter-stage invariant checkpoints inside each scenario",
    )
    scen.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes, each running one (circuit, policy) group",
    )
    scen.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock deadline per (circuit, policy) group: its flow"
             " plus its simulations; an overrunning worker is killed,"
             " retried once, then recorded as FAILED(kind=deadline)",
    )
    scen.add_argument(
        "--memo", default=None, metavar="PATH",
        help="resumable JSON memo: settled scenarios are checkpointed"
             " as they land and skipped on re-runs",
    )
    scen.add_argument(
        "--retry-failed", action="store_true",
        help="re-attempt scenarios the memo recorded as FAILED",
    )
    scen.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the scenario report as JSON (byte-identical"
             " across backends and repeated invocations)",
    )
    scen.add_argument(
        "--bench-out", default=None, metavar="PATH",
        help="write a BENCH_scenarios.json artifact",
    )
    scen.add_argument(
        "--store", default=None, metavar="DIR",
        help="persistent artifact store: compiled artifacts and the"
             " scenario memo are reused across invocations"
             " (bit-identical reports with and without it)",
    )
    scen.add_argument(
        "--store-capacity", type=int, default=None, metavar="N",
        help="memory-tier LRU capacity per store namespace"
             " (default: 8)",
    )
    scen.set_defaults(func=_cmd_scenarios)

    cache = sub.add_parser(
        "cache",
        help="inspect or prune a persistent artifact store",
        description="Operate on an on-disk artifact store written by"
        " --store: list artifacts, print usage statistics, bound the"
        " footprint (gc), or drop cached results.",
    )
    cache.add_argument(
        "op", choices=["ls", "stats", "gc", "clear"],
        help="ls: artifact rows; stats: JSON summary; gc: bound the"
             " disk tier; clear: drop artifacts",
    )
    cache.add_argument(
        "--store", required=True, metavar="DIR",
        help="artifact store directory",
    )
    cache.add_argument(
        "--namespace", default=None, metavar="NS",
        help="restrict ls/clear to one namespace (e.g. compiled-grar,"
             " suite-memo, scenario-memo)",
    )
    cache.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="gc: evict oldest artifacts until the store fits N bytes",
    )
    cache.add_argument(
        "--max-age", type=float, default=None, metavar="SECONDS",
        help="gc: evict artifacts older than SECONDS",
    )
    cache.set_defaults(func=_cmd_cache)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        _report_error(exc, args)
        return _exit_code(exc)
    except (KeyError, ValueError) as exc:
        # Bad user input: unknown circuit name, negative overhead, ...
        _report_error(exc, args)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
