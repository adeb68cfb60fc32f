"""Settled cells are records: rebuilds equal live runs, nothing live stays.

``run_cell`` turns each flow outcome into a :class:`FlowRecord` once
the point's optional simulation has run.  Table VIII's later rates
rebuild the final circuit from the record's recipe (the cell swaps
against the task netlist, plus the delay model), so the rebuild must
be indistinguishable from the live circuit it replaces, and no live
circuit may outlive its cell.
"""

import gc
import weakref

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cells import default_library
from repro.circuits.generator import CloudSpec, generate_circuit
from repro.flows import METHODS, prepare_circuit, run_flow
from repro.harness import ExperimentSuite, cell
from repro.harness.experiments import FailedOutcome, FlowRecord
from repro.sim import estimate_error_rate_batched

LIBRARY = default_library()

#: Every suite method whose flow keeps the netlist's structure.
REBUILT_METHODS = [m for m in METHODS if m != "rvl-movable"]


def _cloud(seed: int, name: str = "cloud"):
    spec = CloudSpec(
        name=name,
        seed=seed,
        n_inputs=4,
        n_outputs=3,
        n_flops=8,
        n_gates=60,
        depth=6,
        critical_fraction=0.3,
    )
    netlist = generate_circuit(spec, LIBRARY)
    scheme, _ = prepare_circuit(netlist, LIBRARY)
    return netlist, scheme


class TestRebuildEqualsLiveRun:
    @given(
        st.integers(min_value=1, max_value=10**6),
        st.sampled_from(REBUILT_METHODS),
        st.sampled_from([0.5, 1.0, 2.0]),
        st.lists(
            st.integers(min_value=0, max_value=10**4),
            min_size=1, max_size=2, unique=True,
        ),
    )
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_rebuilt_circuit_matches_the_live_outcome(
        self, seed, method, overhead, sim_seeds
    ):
        netlist, scheme = _cloud(seed)
        live = run_flow(method, netlist, LIBRARY, overhead, scheme=scheme)
        record = FlowRecord.from_outcome(live, netlist)
        assert record.recipe is not None
        rebuilt = record.recipe.rebuild(netlist, scheme, LIBRARY)

        assert [g.cell for g in rebuilt.netlist] == [
            g.cell for g in live.circuit.netlist
        ]
        assert (
            rebuilt.engine.endpoint_arrivals()
            == live.circuit.engine.endpoint_arrivals()
        )
        placement = live.retiming.placement
        assert record.placement == placement
        assert record.edl_endpoints == live.edl_endpoints
        assert rebuilt.endpoint_arrivals(
            record.placement
        ) == live.circuit.endpoint_arrivals(placement)
        for backend in ("compiled", "event"):
            expected = estimate_error_rate_batched(
                live.circuit, placement, live.edl_endpoints,
                cycles=24, seeds=sim_seeds, backend=backend,
            )
            got = estimate_error_rate_batched(
                rebuilt, record.placement, record.edl_endpoints,
                cycles=24, seeds=sim_seeds, backend=backend,
            )
            assert got == expected

    def test_moved_flops_leave_no_recipe(self):
        """``rvl-movable``'s flop retiming rebuilds the netlist; once
        it moves a flop the structure differs and there is no recipe
        (cloud seed 10 moves one: 8 flops become 7)."""
        netlist, scheme = _cloud(10)
        live = run_flow("rvl-movable", netlist, LIBRARY, 1.0, scheme=scheme)
        assert len(live.circuit.netlist.flops()) != len(netlist.flops())
        record = FlowRecord.from_outcome(live, netlist)
        assert record.recipe is None
        assert record.edl_endpoints == live.edl_endpoints
        assert record.placement == live.retiming.placement

    def test_memo_form_keeps_only_the_numbers(self):
        netlist, scheme = _cloud(3)
        record = FlowRecord.from_outcome(
            run_flow("base", netlist, LIBRARY, 1.0, scheme=scheme), netlist
        )
        numbers = record.numbers()
        assert set(numbers) == {
            "method", "circuit_name", "overhead", "n_slaves", "n_masters",
            "n_edl", "latch_area", "comb_area", "runtime_s",
            "solver_backend",
        }
        resumed = FlowRecord(**numbers)
        assert resumed.recipe is None and resumed.retimed is None
        assert resumed.total_area == record.total_area


class TestNothingLiveRetained:
    def test_settled_cells_hold_no_circuit(self, monkeypatch):
        circuits = []
        original = cell.run_flow

        def tracking(*args, **kwargs):
            outcome = original(*args, **kwargs)
            circuits.append(weakref.ref(outcome.circuit))
            return outcome

        monkeypatch.setattr(cell, "run_flow", tracking)
        suite = ExperimentSuite(
            circuits=["alpha", "bravo"], library=LIBRARY,
            error_rate_cycles=16,
        )
        for index, name in enumerate(suite.circuit_names):
            suite._netlists[name] = _cloud(40 + index, name)[0]
        suite.table4()
        suite.table8()
        gc.collect()
        assert circuits and all(ref() is None for ref in circuits)
        assert all(
            isinstance(out, (FlowRecord, FailedOutcome))
            for out in suite._outcomes.values()
        )
        # 2 circuits x (base, rvl, and grar's three-point sweep): Table
        # VIII rebuilt its circuits instead of re-running their flows.
        assert len(circuits) == 10
