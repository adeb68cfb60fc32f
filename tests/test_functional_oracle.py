"""One functional oracle across flows: every method preserves behaviour.

Retiming moves slave latches and sizing swaps cells of the same
function, so every flow's final circuit must compute what the original
does.  Simulated from the same random stimulus, the rebuilt circuits of
the records of every method must end in the same flop state, as long as
no run saw a window transition at a master it did not make
error-detecting (an EDL master's late data is detected and replayed, a
non-EDL master's would be captured wrong).
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.cells import default_library
from repro.circuits import build_benchmark
from repro.circuits.generator import CloudSpec, generate_circuit
from repro.flows import prepare_circuit, run_flow
from repro.harness.cell import FlowRecord
from repro.sim import estimate_error_rate_batched

LIBRARY = default_library()

#: The methods whose records rebuild (``rvl-movable`` retimes the
#: flops themselves, so its flop state is not comparable), at c = 1.
ORACLE_METHODS = (
    "base", "rvl", "nvl", "evl", "rvl-noswap", "grar", "grar-gate",
    "selective",
)


def _final_states(netlist, sim_seed, cycles):
    """Each method's report from its record's rebuilt circuit."""
    scheme, _ = prepare_circuit(netlist, LIBRARY)
    reports = {}
    for method in ORACLE_METHODS:
        record = FlowRecord.from_outcome(
            run_flow(method, netlist, LIBRARY, 1.0, scheme=scheme), netlist
        )
        circuit = record.recipe.rebuild(netlist, scheme, LIBRARY)
        (reports[method],) = estimate_error_rate_batched(
            circuit, record.placement, record.edl_endpoints,
            cycles=cycles, seeds=(sim_seed,),
        )
    return reports


def _clean(reports):
    return all(r.non_edl_violations == 0 for r in reports.values())


def _assert_one_behaviour(reports):
    states = {m: r.final_flop_state for m, r in reports.items()}
    assert states["base"]
    for method, state in states.items():
        assert state == states["base"], method


class TestFlowsPreserveBehaviour:
    @given(
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=0, max_value=10**4),
    )
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow, HealthCheck.filter_too_much,
        ],
    )
    def test_generated_clouds(self, seed, sim_seed):
        spec = CloudSpec(
            name="oracle",
            seed=seed,
            n_inputs=4,
            n_outputs=3,
            n_flops=8,
            n_gates=60,
            depth=6,
            critical_fraction=0.3,
        )
        netlist = generate_circuit(spec, LIBRARY)
        reports = _final_states(netlist, sim_seed, cycles=48)
        assume(_clean(reports))
        _assert_one_behaviour(reports)

    @pytest.mark.parametrize("name", ["s1196", "s1488"])
    def test_benchmark_circuits(self, name):
        netlist = build_benchmark(name, LIBRARY)
        reports = _final_states(netlist, sim_seed=7, cycles=64)
        assert _clean(reports)
        _assert_one_behaviour(reports)
