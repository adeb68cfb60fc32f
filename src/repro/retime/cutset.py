"""Per-master cut sets ``g(t)`` (Section IV-A).

For a target master ``t``, ``g(t)`` is the frontier of gates such that
moving all slave latches beyond ``g(t)`` makes every latch position in
``t``'s fan-in cone satisfy ``A(u, v, t) <= Pi`` — so ``t`` need not be
error-detecting.

The computation walks backward from ``t`` (the paper's reverse DFS) and
maintains the *safe region* ``R``: nodes all of whose downstream latch
positions inside the cone are safe.  An edge that can never legally
carry a latch (its driver is in ``Vn``, or its sink in ``Vm``) is
vacuously safe.  ``g(t)`` is then the fan-in frontier of ``R``.  Three
outcomes per endpoint:

* ``NEVER`` — the whole cone is safe (frontier empty): the master is
  non-error-detecting wherever the slaves go;
* ``ALWAYS`` — some position adjacent to ``t`` cannot be made safe:
  the master is error-detecting regardless of retiming (as far as the
  encoding can prove — the paper's formulation is equally
  conservative);
* ``TARGET`` — the EDL status depends on the retiming: a pseudo node
  ``P(t)`` with a ``-c`` credit edge enters the retiming graph.

:func:`compute_cut_set` is the per-endpoint oracle: it asks eq. (5)
one edge at a time through :meth:`TwoPhaseCircuit.arrival_through`,
which reads (and leaves behind) the timing engine's ``D^b`` table of
the endpoint.  :func:`compute_cut_sets`, which every retimer calls,
accepts endpoints whose plain arrival meets the bound as ``NEVER`` and
walks each other endpoint's cone once, filling ``D^b(v, t)`` and ``R``
together in local tables over launch and arc terms built once per
call.  It returns what the oracle returns (``tests/test_cutset_walk.py``)
and leaves no table in the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.latches.placement import HOST
from repro.latches.resilient import EPS, TwoPhaseCircuit
from repro.netlist.netlist import GateType
from repro.retime.regions import Regions
from repro.sta.engine import NEG_INF


class EndpointClass(Enum):
    """NEVER / ALWAYS / TARGET classification of a master."""
    NEVER = "never"
    ALWAYS = "always"
    TARGET = "target"


@dataclass(frozen=True)
class CutSet:
    """Classification and cut set of one endpoint."""

    endpoint: str
    kind: EndpointClass
    gates: FrozenSet[str]

    @property
    def is_target(self) -> bool:
        """True when a pseudo node P(t) should be created."""
        return self.kind is EndpointClass.TARGET


def _edge_can_carry_latch(
    circuit: TwoPhaseCircuit, regions: Regions, driver: str, sink: str
) -> bool:
    """Whether edge ``(driver, sink)`` can hold a slave in some legal
    retiming: it needs ``r(driver) = -1`` (host edges: ``r(sink) = 0``)
    and ``r(sink) = 0``."""
    if driver == HOST:
        return sink not in regions.vm
    if driver in regions.vn:
        return False
    sink_gate = circuit.netlist[sink]
    if sink_gate.gtype in (GateType.OUTPUT, GateType.DFF):
        # The sink is a fixed master (D-endpoint role, r = 0), so the
        # edge is latchable whenever the driver can be retimed through.
        return True
    if sink in regions.vm:
        return False
    return True


def compute_cut_set(
    circuit: TwoPhaseCircuit,
    regions: Regions,
    endpoint: str,
    limit: Optional[float] = None,
) -> CutSet:
    """Compute ``g(endpoint)`` with the safe-region reverse walk.

    ``limit`` is the arrival bound a safe position must meet; it
    defaults to ``Pi`` (the resiliency-window opening), which is the
    G-RAR credit condition.  The timing-driven baseline and the VL
    constraints reuse the same walk with their own bounds.
    """
    netlist = circuit.netlist
    scheme = circuit.scheme
    if limit is None:
        limit = scheme.window_open
    limit = limit + EPS

    cone = netlist.fanin_cone(endpoint)
    cone.discard(endpoint)

    def edge_safe(driver: str, sink: str) -> bool:
        if not _edge_can_carry_latch(circuit, regions, driver, sink):
            return True  # vacuous: no latch can ever sit here
        return circuit.arrival_through(driver, sink, endpoint) <= limit

    # Safe region R, computed in reverse topological order: a node is
    # in R when every cone fanout edge is safe and leads into R.
    order = [n for n in netlist.topo_order() if n in cone]
    in_r: Dict[str, bool] = {}
    for name in reversed(order):
        ok = True
        for user in netlist.fanouts(name):
            if user == endpoint:
                if not edge_safe(name, endpoint):
                    ok = False
                    break
                continue
            if user not in cone:
                continue
            if netlist[user].gtype in (GateType.OUTPUT, GateType.DFF):
                # D-pin of a different master: another stage's edge,
                # irrelevant to this endpoint (the user is in the cone
                # only through its Q role).
                continue
            if not (edge_safe(name, user) and in_r.get(user, False)):
                ok = False
                break
        in_r[name] = ok

    # The endpoint itself must be fully covered: every fanin edge safe
    # with an R predecessor, otherwise the credit encoding cannot
    # guarantee non-EDL status and t is (conservatively) always-EDL.
    for driver in netlist[endpoint].fanins:
        if not (edge_safe(driver, endpoint) and in_r.get(driver, False)):
            return CutSet(endpoint, EndpointClass.ALWAYS, frozenset())

    frontier: Set[str] = set()
    for name in cone:
        if not in_r.get(name, False):
            continue
        gate = netlist[name]
        if gate.is_source:
            if not edge_safe(HOST, name):
                frontier.add(name)
            continue
        for driver in gate.fanins:
            if not (edge_safe(driver, name) and in_r.get(driver, False)):
                frontier.add(name)
                break

    return _classify(endpoint, frontier, regions.vn)


def _classify(
    endpoint: str, frontier: Set[str], vn: FrozenSet[str]
) -> CutSet:
    """The cut set of an endpoint whose fanins are all in ``R``."""
    if not frontier:
        return CutSet(endpoint, EndpointClass.NEVER, frozenset())
    if any(g in vn for g in frontier):
        # The credit needs every frontier gate retimed through, but a
        # Vn member is pinned at r = 0: the credit is unreachable and
        # the master is error-detecting regardless.
        return CutSet(endpoint, EndpointClass.ALWAYS, frozenset())
    return CutSet(endpoint, EndpointClass.TARGET, frozenset(frontier))


def compute_cut_sets(
    circuit: TwoPhaseCircuit,
    regions: Regions,
    limit: Optional[float] = None,
) -> Dict[str, CutSet]:
    """Cut sets for every endpoint of the circuit.

    Endpoints whose plain combinational arrival already meets the
    bound even from the initial latch position are fast-pathed as
    ``NEVER`` without cone analysis (the common case on large
    circuits).  Every other endpoint costs one fused walk of its
    fan-in cone (:class:`_ConeWalk`), which returns what
    :func:`compute_cut_set` returns for it.
    """
    results: Dict[str, CutSet] = {}
    floor = circuit.scheme.slave_open + circuit.latch_ck_q
    if limit is None:
        limit = circuit.scheme.window_open
    limit = limit + EPS
    # The walk tests the bound compute_cut_set derives from this limit.
    walk = _ConeWalk(circuit, regions, (limit - EPS) + EPS)
    for endpoint in circuit.endpoint_names:
        plain = circuit.engine.endpoint_arrival(endpoint)
        # Quick accept: a bound on eq. (5) from the endpoint's plain
        # arrival.  It is not a proof that the walk would find the cone
        # safe.  Under the path model the walk sums scalar
        # worst-transition delays, which can exceed the rise/fall
        # arrival, and the walk keeps t's own Q out of the safe region.
        # Either can turn an accepted endpoint into a TARGET; the
        # accept stays as it is because the published tables rest on
        # it.
        bound = max(floor + plain, plain + circuit.latch_d_q)
        if bound <= limit:
            results[endpoint] = CutSet(
                endpoint, EndpointClass.NEVER, frozenset()
            )
            continue
        results[endpoint] = walk.cut_set(endpoint)
    return results


#: Gate types whose fanin edge ends at a master's D pin.
_PIN_TYPES = (GateType.OUTPUT, GateType.DFF)

#: One fanout arc of a cone node: ``(user, delay, through, latchable)``.
#: ``delay`` is ``edge_delay(u, user)`` and ``through`` the endpoint-
#: independent part of eq. (5), ``launch(u) + delay``; both are
#: ``None`` when ``user`` is a master's D pin.
_Arc = Tuple[str, Optional[float], Optional[float], bool]


class _ConeWalk:
    """The cut-set walk of one :func:`compute_cut_sets` call.

    Per endpoint ``t`` it makes one reverse-topological pass over the
    fan-in cone that fills ``D^b(v, t)`` and the safe region ``R``
    together.  ``D^b`` is the engine's DP (max over fanouts, ``0.0``
    into ``t``, other masters' D pins skipped) and an edge's eq. (5)
    arrival is ``(launch(u) + delay(u, v)) + D^b(v, t)``, the float
    operations of :meth:`TwoPhaseCircuit.arrival_through`, so the
    result equals :func:`compute_cut_set`'s without filling a
    per-endpoint table in the timing engine.  The endpoint-independent
    terms of each node are built once, on its first visit, and shared
    by every endpoint of the call.
    """

    def __init__(
        self, circuit: TwoPhaseCircuit, regions: Regions, bound: float
    ) -> None:
        netlist = circuit.netlist
        self.netlist = netlist
        self.gates = netlist.gates
        self.rank = {
            name: index for index, name in enumerate(netlist.topo_order())
        }
        self.forward_arrival = circuit.engine.forward_arrival
        self.edge_delay = circuit.engine.calculator.edge_delay
        self.floor = circuit.scheme.slave_open + circuit.latch_ck_q
        self.d_q = circuit.latch_d_q
        # A host edge launches from D^f(HOST) = 0.
        self.host_launch = max(self.floor, 0.0 + circuit.latch_d_q)
        self.vm = regions.vm
        self.vn = regions.vn
        self.bound = bound
        self.terms: Dict[str, Tuple[float, Tuple[_Arc, ...]]] = {}

    def _build_terms(self, name: str) -> Tuple[float, Tuple[_Arc, ...]]:
        """``launch(name)`` and ``name``'s fanout arcs."""
        launch = max(self.floor, self.forward_arrival(name) + self.d_q)
        pin_latchable = name not in self.vn
        arcs: List[_Arc] = []
        for user in self.netlist.fanouts(name):
            if self.gates[user].gtype in _PIN_TYPES:
                arcs.append((user, None, None, pin_latchable))
                continue
            delay = self.edge_delay(name, user)
            arcs.append((
                user, delay, launch + delay,
                pin_latchable and user not in self.vm,
            ))
        return launch, tuple(arcs)

    def cut_set(self, endpoint: str) -> CutSet:
        """``g(endpoint)``, equal to :func:`compute_cut_set`'s."""
        bound = self.bound
        terms = self.terms
        # t's own Q stays out of its cone, as in compute_cut_set.
        cone = self.netlist.fanin_cone(endpoint)
        cone.discard(endpoint)
        order = sorted(cone, key=self.rank.__getitem__, reverse=True)
        db: Dict[str, float] = {}
        safe: Set[str] = set()
        for name in order:
            node = terms.get(name)
            if node is None:
                node = terms[name] = self._build_terms(name)
            launch, arcs = node
            best = NEG_INF
            ok = True
            for user, delay, through, latchable in arcs:
                if delay is None:
                    if user == endpoint:
                        if 0.0 > best:
                            best = 0.0
                        if ok and latchable and not launch <= bound:
                            ok = False
                    continue  # else another master's D pin
                down = db.get(user)
                if down is None:
                    continue  # outside the cone
                if down == NEG_INF:
                    # No path to t: the edge's arrival is -inf (safe).
                    if user not in safe:
                        ok = False
                    continue
                value = delay + down
                if value > best:
                    best = value
                if ok and (
                    user not in safe
                    or (latchable and not through + down <= bound)
                ):
                    ok = False
            db[name] = best
            if ok:
                safe.add(name)

        # A node enters R only when every cone edge out of it is safe
        # (the edge into t included), so an edge from an R node is
        # safe and "edge safe and driver in R" reduces to "driver in R".
        for driver in self.gates[endpoint].fanins:
            if driver not in safe:
                return CutSet(endpoint, EndpointClass.ALWAYS, frozenset())
        frontier: Set[str] = set()
        for name in safe:
            gate = self.gates[name]
            if gate.is_source:
                # Its host edge must be safe too.
                tail = db[name]
                if (
                    name not in self.vm
                    and tail != NEG_INF
                    and not self.host_launch + tail <= bound
                ):
                    frontier.add(name)
            elif any(driver not in safe for driver in gate.fanins):
                frontier.add(name)
        return _classify(endpoint, frontier, self.vn)
