"""The modified retiming graph (Section IV-A, Fig. 5).

Node sets:

* ``V1`` — host, sources, combinational gates, endpoints, and the
  fanout-sharing mirror nodes of [Leiserson-Saxe];
* ``V2`` — one pseudo node ``P(t)`` per target master.

Edge sets:

* ``E1`` — circuit edges (weight = slave count before retiming,
  breadth = fanout-shared latch cost), host edges, mirror edges and
  endpoint-to-host back edges;
* ``E2`` — zero-cost edges ``g -> P(t)`` for ``g ∈ g(t)`` plus the
  credit edge ``P(t) -> host`` with breadth ``-c``;
* ``BOUND`` — the [24] trick: edges ``(v, host)`` of weight ``U_v`` and
  ``(host, v)`` of weight ``-L_v`` enforce ``L_v <= r(v) <= U_v``
  inside the min-cost-flow dual without explicit variable bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from repro.latches.placement import HOST
from repro.latches.resilient import TwoPhaseCircuit
from repro.netlist.netlist import GateType
from repro.retime.cutset import CutSet
from repro.retime.regions import Regions


class EdgeKind(Enum):
    """Edge families of the modified retiming graph."""
    CIRCUIT = "circuit"
    HOST = "host"
    MIRROR = "mirror"
    ENDPOINT = "endpoint"
    CUT = "cut"       # g -> P(t)
    CREDIT = "credit"  # P(t) -> host
    BOUND = "bound"


@dataclass(frozen=True)
class GraphEdge:
    """One edge: tail, head, weight (slaves), breadth (cost)."""
    tail: str
    head: str
    weight: int
    breadth: Fraction
    kind: EdgeKind


def mirror_name(gate: str) -> str:
    """Name of the fanout-sharing mirror node for ``gate``."""
    return f"{gate}##m"


def pseudo_name(endpoint: str) -> str:
    """Name of the resiliency pseudo node ``P(endpoint)``."""
    return f"P##{endpoint}"


def endpoint_node(flop: str) -> str:
    """Graph node for the *endpoint* (D-pin) role of a flop.

    A flop appears twice in the retiming graph: its Q is a retimable
    source (node named after the flop) and its D is a fixed endpoint
    (this node).  Primary-output markers already have distinct names
    and are used directly.
    """
    return f"{flop}##d"


@dataclass
class RetimingGraph:
    """Node/edge container consumed by the ILP and flow solvers."""

    nodes: List[str] = field(default_factory=list)
    edges: List[GraphEdge] = field(default_factory=list)
    bounds: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: endpoint -> pseudo node name, for targets only.
    pseudo_nodes: Dict[str, str] = field(default_factory=dict)
    overhead: Fraction = Fraction(0)

    def add_node(self, name: str, lower: int, upper: int) -> None:
        """Add a node with retiming bounds ``[lower, upper]``."""
        if name in self.bounds:
            raise ValueError(f"duplicate graph node {name!r}")
        if lower > upper:
            raise ValueError(f"node {name!r}: bounds [{lower},{upper}]")
        self.nodes.append(name)
        self.bounds[name] = (lower, upper)

    def add_edge(
        self,
        tail: str,
        head: str,
        weight: int,
        breadth: Fraction,
        kind: EdgeKind,
    ) -> None:
        """Add an edge between existing nodes."""
        if tail not in self.bounds or head not in self.bounds:
            raise KeyError(f"edge ({tail!r}, {head!r}) references missing node")
        self.edges.append(GraphEdge(tail, head, weight, breadth, kind))

    def constant_cost(self) -> Fraction:
        """The placement-independent part of the objective:
        ``sum_e breadth(e) * w(e)``."""
        return sum(
            (edge.breadth * edge.weight for edge in self.edges),
            Fraction(0),
        )

    def breadth_scale(self) -> int:
        """The lcm of the edge breadths' denominators: every breadth
        is a whole number of ``1 / breadth_scale()`` units."""
        return math.lcm(*{edge.breadth.denominator for edge in self.edges})

    def objective_value(self, r_values: Dict[str, int]) -> Fraction:
        """``sum_e breadth(e) * w_r(e)`` for a label assignment.

        Summed as an integer in ``1 / breadth_scale()`` units, divided
        once.
        """
        scale = self.breadth_scale()
        total = 0
        for edge in self.edges:
            if edge.kind is EdgeKind.BOUND:
                continue
            w_r = edge.weight + r_values.get(edge.head, 0) - r_values.get(
                edge.tail, 0
            )
            beta = edge.breadth
            total += beta.numerator * (scale // beta.denominator) * w_r
        return Fraction(total, scale)

    def check_feasible(self, r_values: Dict[str, int]) -> List[GraphEdge]:
        """Edges violated by an assignment (should be empty)."""
        bad = []
        for edge in self.edges:
            r_head = r_values.get(edge.head, 0)
            r_tail = r_values.get(edge.tail, 0)
            # Every edge kind encodes r(tail) - r(head) <= weight.
            if r_tail - r_head > edge.weight:
                bad.append(edge)
        return bad

    def stats(self) -> Dict[str, int]:
        """Node/edge counts by kind."""
        kinds: Dict[str, int] = {}
        for edge in self.edges:
            kinds[edge.kind.value] = kinds.get(edge.kind.value, 0) + 1
        return {
            "nodes": len(self.nodes),
            "edges": len(self.edges),
            "targets": len(self.pseudo_nodes),
            **kinds,
        }


def recost_graph(
    skeleton: RetimingGraph, overhead: float
) -> RetimingGraph:
    """Re-target a built G-RAR graph to a new overhead ``c``.

    Only the CREDIT edges ``P(t) -> host`` carry ``c`` (breadth
    ``-c``); every node, bound, pseudo-node and non-credit edge of the
    graph is c-independent (the invariant the compile cache rests on,
    see ``tests/test_retime_compile.py``).  Patching the credit
    breadths therefore reproduces ``build_retiming_graph(...,
    overhead=c)`` exactly — same node order, same edge order — at a
    fraction of the cost.  At the skeleton's own overhead the skeleton
    itself is returned; any other ``c`` needs a skeleton built with a
    positive overhead (a circuit with no creditable endpoints then has
    no pseudo nodes, and re-costing is a no-op).  The returned graph
    shares the skeleton's node/bound containers, which no consumer
    mutates.
    """
    c = Fraction(overhead).limit_denominator(10**6)
    if c == skeleton.overhead:
        return skeleton
    if skeleton.overhead <= 0:
        raise ValueError(
            "recost_graph needs a resiliency-aware skeleton (built "
            "with cut sets and overhead > 0)"
        )
    if c <= 0:
        raise ValueError("recost_graph requires overhead > 0")
    edges = [
        edge
        if edge.kind is not EdgeKind.CREDIT
        else GraphEdge(edge.tail, edge.head, edge.weight, -c, edge.kind)
        for edge in skeleton.edges
    ]
    return RetimingGraph(
        nodes=skeleton.nodes,
        edges=edges,
        bounds=skeleton.bounds,
        pseudo_nodes=skeleton.pseudo_nodes,
        overhead=c,
    )


def build_retiming_graph(
    circuit: TwoPhaseCircuit,
    regions: Regions,
    cut_sets: Optional[Dict[str, CutSet]] = None,
    overhead: float = 0.0,
) -> RetimingGraph:
    """Assemble the retiming graph.

    With ``cut_sets`` given and ``overhead > 0`` the graph is
    resiliency-aware (G-RAR); without them it is the classic min-area
    latch retiming graph (the baseline).
    """
    netlist = circuit.netlist
    graph = RetimingGraph(overhead=Fraction(overhead).limit_denominator(10**6))

    for gate in netlist:
        if "##" in gate.name:
            raise ValueError(
                f"gate name {gate.name!r} collides with the graph's "
                f"internal ## node namespace"
            )

    graph.add_node(HOST, 0, 0)
    for gate in netlist:
        if gate.gtype is GateType.OUTPUT:
            graph.add_node(gate.name, 0, 0)
            continue
        lower, upper = regions.bounds(gate.name)
        graph.add_node(gate.name, lower, upper)
        if gate.gtype is GateType.DFF:
            # Split roles: the flop name is the retimable Q source; the
            # ##d node is the fixed D endpoint.
            graph.add_node(endpoint_node(gate.name), 0, 0)

    def graph_sink(driver_to: str) -> str:
        """Map a netlist edge sink to its graph node (D-role split)."""
        if netlist[driver_to].gtype is GateType.DFF:
            return endpoint_node(driver_to)
        return driver_to

    # Host edges: one per source, weight 1 (the pre-retiming slave),
    # breadth 1 each — distinct masters cannot share slaves.
    for gate in netlist.sources():
        graph.add_edge(HOST, gate.name, 1, Fraction(1), EdgeKind.HOST)

    # Circuit edges with fanout sharing.  Parallel edges (one driver
    # feeding several pins of a gate) collapse to one graph edge.
    for gate in netlist:
        if gate.gtype is GateType.OUTPUT:
            continue
        name = gate.name
        fanouts = sorted({graph_sink(u) for u in netlist.fanouts(name)})
        if not fanouts:
            continue
        k = len(fanouts)
        if k == 1:
            graph.add_edge(
                name, fanouts[0], 0, Fraction(1), EdgeKind.CIRCUIT
            )
            continue
        share = Fraction(1, k)
        mirror = mirror_name(name)
        graph.add_node(mirror, -1, 0)
        for user in fanouts:
            graph.add_edge(name, user, 0, share, EdgeKind.CIRCUIT)
            graph.add_edge(user, mirror, 0, share, EdgeKind.MIRROR)

    # Endpoint back edges to the host (classic retiming closure).
    for gate in netlist.endpoints():
        graph.add_edge(graph_sink(gate.name), HOST, 0, Fraction(0), EdgeKind.ENDPOINT)

    # Resiliency pseudo nodes and credit edges.
    if cut_sets and graph.overhead > 0:
        for endpoint, cut in sorted(cut_sets.items()):
            if not cut.is_target:
                continue
            pseudo = pseudo_name(endpoint)
            graph.add_node(pseudo, -1, 0)
            graph.pseudo_nodes[endpoint] = pseudo
            for g in sorted(cut.gates):
                graph.add_edge(g, pseudo, 0, Fraction(0), EdgeKind.CUT)
            graph.add_edge(
                pseudo, HOST, 0, -graph.overhead, EdgeKind.CREDIT
            )

    # Bound edges ([24]): r(v) - r(h) <= U_v and r(h) - r(v) <= -L_v.
    # Most bounds are already implied by the difference constraints —
    # r >= -1 flows from the weight-1 host edges and r <= 0 from the
    # pinned endpoints — so edges are added only where they bind:
    #   Vm:         (v, h) cost -1 pins r = -1 (lower side implied);
    #   Vn:         (h, v) cost 0 pins r >= 0 (upper side implied
    #               unless the gate dangles);
    #   endpoints:  (h, v) cost 0 (upper side is the ENDPOINT edge);
    #   mirrors:    (v, h) cost 0 (no outgoing circuit edges);
    #   dangling:   (v, h) cost 0 (no path to a pinned endpoint).
    has_fanout = {edge.tail for edge in graph.edges}
    pinned_zero = {
        graph_sink(g.name) for g in netlist.endpoints()
    }
    for name in list(graph.bounds):
        if name == HOST or name in graph.pseudo_nodes.values():
            continue
        lower, upper = graph.bounds[name]
        if name in pinned_zero:
            graph.add_edge(HOST, name, 0, Fraction(0), EdgeKind.BOUND)
        elif (lower, upper) == (-1, -1):
            graph.add_edge(name, HOST, -1, Fraction(0), EdgeKind.BOUND)
        elif (lower, upper) == (0, 0):
            graph.add_edge(HOST, name, 0, Fraction(0), EdgeKind.BOUND)
            if name not in has_fanout:
                graph.add_edge(name, HOST, 0, Fraction(0), EdgeKind.BOUND)
        elif name.endswith("##m") or name not in has_fanout:
            graph.add_edge(name, HOST, 0, Fraction(0), EdgeKind.BOUND)
    return graph
