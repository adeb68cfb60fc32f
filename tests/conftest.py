"""Shared fixtures for the test suite."""

import pytest

from repro.cells import default_library
from repro.circuits import build_benchmark
from repro.circuits.fig4 import fig4_circuit, fig4_netlist, fig4_scheme
from repro.circuits.generator import CloudSpec, generate_circuit
from repro.flows import prepare_circuit
from repro.latches import SlavePlacement
from repro.netlist import NetlistBuilder
from repro.store import ArtifactStore, set_default_store


@pytest.fixture(autouse=True)
def _fresh_store():
    """Give each test an empty process-default store, so no test
    replays a sizing run or reuses a compiled problem another test
    stored."""
    previous = set_default_store(ArtifactStore())
    yield
    set_default_store(previous)


@pytest.fixture(scope="session")
def library():
    return default_library()


@pytest.fixture(scope="session")
def library_c2():
    return default_library(edl_overhead=2.0)


@pytest.fixture()
def fig4():
    """The paper's worked example as a TwoPhaseCircuit."""
    return fig4_circuit()


@pytest.fixture(scope="session")
def tiny_netlist(library):
    """A 6-gate circuit with one flop, for hand-checked timing."""
    builder = NetlistBuilder("tiny", library)
    for name in ("a", "b", "c"):
        builder.input(name)
    builder.gate("g1", "NAND", ["a", "b"])
    builder.gate("g2", "XOR", ["g1", "c"])
    builder.gate("g3", "INV", ["g2"])
    builder.flop("f1", "g3")
    builder.gate("g4", "AND", ["f1", "a"])
    builder.output("y", "g4")
    return builder.build()


@pytest.fixture(scope="session")
def small_spec():
    return CloudSpec(
        name="unit",
        seed=7,
        n_inputs=6,
        n_outputs=4,
        n_flops=10,
        n_gates=120,
        depth=7,
        critical_fraction=0.3,
    )


@pytest.fixture(scope="session")
def small_netlist(small_spec, library):
    """A generated ~120-gate circuit shared across tests."""
    return generate_circuit(small_spec, library)


@pytest.fixture(scope="session")
def small_prepared(small_netlist, library):
    """(scheme, circuit) for the shared small netlist."""
    return prepare_circuit(small_netlist.copy(), library)


@pytest.fixture(scope="session")
def s1196(library):
    return build_benchmark("s1196", library)


@pytest.fixture()
def s1196_initial(s1196, library):
    """(circuit, placement, edl): a fresh s1196 circuit at the initial
    placement with every endpoint error-detecting."""
    _, circuit = prepare_circuit(s1196.copy(), library)
    edl = {g.name for g in circuit.netlist.endpoints()}
    return circuit, SlavePlacement.initial(), edl
