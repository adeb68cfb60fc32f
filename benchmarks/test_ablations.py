"""Design-choice ablations beyond the paper's own tables.

* post-retiming swap on/off (the paper quantifies this: RVL at high
  overhead went from -0.36% to +9.6% once the swap was added);
* network-simplex vs LP reference solver (exactness + speed);
* fanout-sharing mirror nodes (cost model sanity).
"""

from fractions import Fraction

import pytest
from conftest import save_table

from repro.analysis.compare import average, improvement
from repro.harness.tables import TableResult
from repro.retime import (
    build_retiming_graph,
    compute_cut_sets,
    compute_regions,
    solve_retiming_flow,
    solve_retiming_lp,
)
from repro.retime.graph import EdgeKind


def test_ablation_post_swap(suite, results_dir, benchmark):
    """RVL with and without the post-retiming swap step."""

    def build():
        table = TableResult(
            "Ablation swap",
            "RVL with vs without the post-retiming swap (high c)",
            ["circuit", "noswap_total", "swap_total", "gain%"],
        )
        for name in suite.circuit_names:
            noswap = suite.outcome(name, "rvl-noswap", 2.0).total_area
            swap = suite.outcome(name, "rvl", 2.0).total_area
            table.add_row(
                name,
                round(noswap, 1),
                round(swap, 1),
                round(improvement(noswap, swap), 2),
            )
        return table

    table = benchmark.pedantic(build, rounds=1, iterations=1)
    print()
    print(table.render())
    save_table(results_dir, table)
    # The swap can only remove unnecessary EDL types: never worse.
    assert all(gain >= -1e-9 for gain in table.column("gain%"))
    assert average(table.column("gain%")) >= 0.0


def test_ablation_solver_exactness(suite, results_dir, benchmark):
    """Network simplex and the LP oracle agree on every instance."""

    def build():
        table = TableResult(
            "Ablation solver",
            "network simplex vs LP (objective, iterations)",
            ["circuit", "flow_obj", "lp_obj", "equal", "iterations"],
        )
        for name in suite.circuit_names[:4]:
            netlist = suite.netlist(name)
            from repro.flows import prepare_circuit

            _, circuit = prepare_circuit(
                netlist.copy(), suite.library, scheme=suite.scheme(name)
            )
            regions = compute_regions(circuit)
            cuts = compute_cut_sets(circuit, regions)
            graph = build_retiming_graph(circuit, regions, cuts, 1.0)
            flow = solve_retiming_flow(graph)
            lp = solve_retiming_lp(graph)
            table.add_row(
                name,
                float(flow.objective),
                float(lp.objective),
                int(flow.objective == lp.objective),
                flow.iterations,
            )
        return table

    table = benchmark.pedantic(build, rounds=1, iterations=1)
    print()
    print(table.render())
    save_table(results_dir, table)
    assert all(equal == 1 for equal in table.column("equal"))


def test_ablation_fanout_sharing(suite, results_dir, benchmark):
    """Mirror-node sharing vs naive per-edge latch counting.

    Without sharing, every fanout edge pays a full latch; the shared
    cost (what the mirror construction optimizes) can only be lower.
    """

    def build():
        table = TableResult(
            "Ablation sharing",
            "latch cost: shared vs per-edge (G-RAR placement, c=1)",
            ["circuit", "shared", "per_edge", "saving%"],
        )
        for name in suite.circuit_names[:4]:
            # Latch sites depend on the structure only, which the
            # flow's cell swaps keep.
            netlist = suite.netlist(name)
            placement = suite.outcome(name, "grar", 1.0).placement
            shared = placement.slave_count(netlist)
            per_edge = sum(
                1 for _ in placement.latch_edges(netlist)
            )
            table.add_row(
                name, shared, per_edge,
                round(improvement(per_edge, shared), 2),
            )
        return table

    table = benchmark.pedantic(build, rounds=1, iterations=1)
    print()
    print(table.render())
    save_table(results_dir, table)
    for row in table.rows:
        assert row[1] <= row[2]
