"""The two-phase latch-based resilient circuit model.

:class:`TwoPhaseCircuit` binds a netlist, a clock scheme, a library and
a timing engine, and evaluates everything Section III defines:

* ``A(u, v, t)`` — eq. (5) arrival at master ``t`` through a slave on
  edge ``(u, v)``, distinguishing the latch's CK->Q and D->Q delays;
* constraints (6) and (7) legality and the regions they induce;
* per-master error-detecting status for a given placement;
* sequential cost (slaves + masters + EDL overhead) in latch units and
  in library area units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.cells.cell import LatchCell
from repro.cells.library import Library
from repro.clocks import ClockScheme
from repro.latches.placement import HOST, SlavePlacement
from repro.netlist.netlist import GateType, Netlist
from repro.sta.delay_models import DelayCalculator
from repro.sta.engine import NEG_INF, TimingEngine

EPS = 1e-9


@dataclass
class LegalityReport:
    """Outcome of checking a placement against constraints (6)/(7)."""

    negative_edges: List[Tuple[str, str]] = field(default_factory=list)
    forward_violations: List[str] = field(default_factory=list)
    backward_violations: List[str] = field(default_factory=list)
    retimed_endpoints: List[str] = field(default_factory=list)
    window_overflows: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Structurally legal.

        Backward (7) overshoots and window overflows are *not* fatal:
        the node-granular ``Vm`` region (the paper's formulation)
        leaves up to one gate delay of overshoot on region-boundary
        edges, which the post-retiming size-only compile removes
        (Section VI-B: "repositioning the slave latches sometimes
        causes minor timing violations ... an incremental compile step
        in which we allow only sizing of gates resolves" them).
        """
        return not (
            self.negative_edges
            or self.forward_violations
            or self.retimed_endpoints
        )

    @property
    def needs_sizing(self) -> bool:
        """True when the size-only compile has work to do."""
        return bool(self.backward_violations or self.window_overflows)

    def summary(self) -> str:
        """Human-readable one-line legality summary."""
        if self.ok and not self.window_overflows:
            return "legal"
        parts = []
        if self.negative_edges:
            parts.append(f"{len(self.negative_edges)} negative edges")
        if self.forward_violations:
            parts.append(
                f"{len(self.forward_violations)} forward (6) violations"
            )
        if self.backward_violations:
            parts.append(
                f"{len(self.backward_violations)} backward (7) violations"
            )
        if self.retimed_endpoints:
            parts.append(f"{len(self.retimed_endpoints)} retimed masters")
        if self.window_overflows:
            parts.append(
                f"{len(self.window_overflows)} window overflows (need sizing)"
            )
        return ", ".join(parts)


@dataclass(frozen=True)
class SequentialCost:
    """Sequential-logic accounting for one placement."""

    n_slaves: int
    n_masters: int
    n_edl: int
    overhead: float
    latch_area: float

    @property
    def latch_units(self) -> float:
        """Cost in latch units: slaves + masters + c per EDL master."""
        return self.n_slaves + self.n_masters + self.overhead * self.n_edl

    @property
    def area(self) -> float:
        """Sequential area in library units."""
        return self.latch_units * self.latch_area


class TwoPhaseCircuit:
    """A flop netlist viewed as a two-phase latch-based resilient design."""

    def __init__(
        self,
        netlist: Netlist,
        scheme: ClockScheme,
        library: Optional[Library] = None,
        model: str = "path",
        calculator: Optional[DelayCalculator] = None,
        latch: Optional[LatchCell] = None,
        zero_latch_delays: bool = False,
        sta_mode: str = "incremental",
    ) -> None:
        if sta_mode not in ("incremental", "full"):
            raise ValueError(
                f"unknown sta_mode {sta_mode!r} (use 'incremental' or "
                f"'full')"
            )
        self.netlist = netlist
        self.scheme = scheme
        self.library = library
        self.sta_mode = sta_mode
        self.engine = TimingEngine(
            netlist,
            library,
            model=model,
            calculator=calculator,
            incremental=(sta_mode == "incremental"),
        )
        if latch is None and library is not None:
            latch = library.default_latch()
        self.latch = latch
        if zero_latch_delays or latch is None:
            self.latch_ck_q = 0.0
            self.latch_d_q = 0.0
            self._latch_area = 1.0
        else:
            self.latch_ck_q = latch.ck_to_q
            self.latch_d_q = latch.d_to_q
            self._latch_area = latch.area

        self._endpoint_names = [g.name for g in netlist.endpoints()]
        self._endpoint_set = set(self._endpoint_names)
        self._source_names = [g.name for g in netlist.sources()]

    # -- basic queries -------------------------------------------------------

    @property
    def sta_engine(self) -> str:
        """Name of the timing engine: always ``"object"``."""
        return "object"

    @property
    def endpoint_names(self) -> List[str]:
        """Names of the master endpoints (flop Ds and POs)."""
        return list(self._endpoint_names)

    @property
    def source_names(self) -> List[str]:
        """Names of the stage sources (PIs and flop Qs)."""
        return list(self._source_names)

    @property
    def latch_area(self) -> float:
        """Area of one slave/master latch."""
        return self._latch_area

    def df(self, name: str) -> float:
        """``D^f``: forward arrival at the output of ``name``.

        ``HOST`` has ``D^f = 0`` (masters launch at time 0).
        """
        if name == HOST:
            return 0.0
        return self.engine.forward_arrival(name)

    def db(self, name: str, endpoint: str) -> float:
        """``D^b(name, endpoint)``; -inf when no path."""
        return self.engine.backward_delay(name, endpoint)

    def db_any(self, name: str) -> float:
        """``max_t D^b(name, t)`` over all endpoints."""
        return self.engine.max_backward(name)

    def edge_delay(self, driver: str, sink: str) -> float:
        """Delay of gate ``sink`` driven from ``driver`` (0 from HOST)."""
        if driver == HOST:
            return 0.0
        return self.engine.edge_delay(driver, sink)

    # -- eq. (5) --------------------------------------------------------------

    def arrival_through(self, driver: str, sink: str, endpoint: str) -> float:
        """``A(u, v, t)`` of eq. (5): arrival at master ``t`` with a
        slave latch on edge ``(u, v)``.

        The slave opens at ``phi1 + gamma1``; early data waits for the
        opening edge (CK->Q), late data flows through transparently
        (D->Q).

        A flop plays two roles under one name: a host edge feeds its
        Q (source) side, every other edge into it ends at its D
        (endpoint) pin.  So a host edge reaches ``t`` through the
        source's fanout even when the source is another flop or ``t``
        itself, while a cloud edge into a flop other than ``t`` ends
        in a different stage.
        """
        launch = max(
            self.scheme.slave_open + self.latch_ck_q,
            self.df(driver) + self.latch_d_q,
        )
        if driver == HOST:
            tail = self._db_from_source(sink, endpoint)
            return NEG_INF if tail == NEG_INF else launch + tail
        if sink == endpoint:
            return launch
        sink_gate = self.netlist[sink]
        if sink_gate.gtype in (GateType.DFF, GateType.OUTPUT):
            # The edge terminates at a *different* master's D pin — a
            # different stage; it cannot reach this endpoint.
            return NEG_INF
        db = self.db(sink, endpoint)
        if db == NEG_INF:
            return NEG_INF  # edge not in this endpoint's cone
        return launch + self.edge_delay(driver, sink) + db

    def _db_from_source(self, source: str, endpoint: str) -> float:
        """``D^b`` from the Q (source) side of ``source`` to the D pin
        of ``endpoint``; -inf when no path.

        The backward table of ``endpoint`` holds its D role (seeded at
        0), so a flop's own Q->D loop is walked here through its
        fanouts instead.
        """
        if source != endpoint:
            return self.db(source, endpoint)
        best = NEG_INF
        for user in self.netlist.fanouts(source):
            if user == endpoint:
                best = max(best, 0.0)  # Q wired straight to its own D
                continue
            if self.netlist[user].gtype in (GateType.DFF, GateType.OUTPUT):
                continue  # a different master's D pin
            tail = self.db(user, endpoint)
            if tail != NEG_INF:
                best = max(best, self.edge_delay(source, user) + tail)
        return best

    def endpoint_arrival(
        self, placement: SlavePlacement, endpoint: str
    ) -> float:
        """Worst arrival at ``endpoint`` for a placement: the max of
        eq. (5) over the slave latches in its fan-in cone.

        The per-endpoint oracle of :meth:`endpoint_arrivals`: it
        re-scans every latch edge, so one call is O(edges).
        """
        cone = self.netlist.fanin_cone(endpoint)
        worst = NEG_INF
        for driver, sink in placement.latch_edges(self.netlist):
            if sink in cone:
                worst = max(
                    worst, self.arrival_through(driver, sink, endpoint)
                )
        return worst

    def endpoint_arrivals(
        self, placement: SlavePlacement
    ) -> Dict[str, float]:
        """All endpoint arrivals in one forward pass.

        Equivalent to :meth:`endpoint_arrival` per endpoint (every path
        crosses exactly one slave, so the DP over "post-latch arrival"
        realizes the max of eq. (5) over the fan-in cone) but linear in
        the netlist size.
        """
        arrivals, _ = self.arrival_details(placement)
        return arrivals

    def arrival_details(
        self, placement: SlavePlacement
    ) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Endpoint arrivals plus the per-node post-latch arrivals.

        The second dict drives critical-path tracing in the size-only
        incremental compile.

        The slave-latch test reads the labels directly (the cases of
        :meth:`SlavePlacement.edge_weight_after`): a host edge carries
        a slave iff its source is not retimed, an edge into a master D
        pin iff its driver is retimed, and an edge into a comb gate iff
        its driver is retimed and the gate is not.  The max over fanins
        keeps ``max()``'s semantics: the first value stands unless a
        later one is strictly greater.
        """
        launch_floor = self.scheme.slave_open + self.latch_ck_q
        d_q = self.latch_d_q
        retimed = placement.retimed
        forward_arrival = self.engine.forward_arrival
        edge_delay = self.engine.calculator.edge_delay
        netlist = self.netlist
        post: Dict[str, float] = {}

        def launch(driver: str) -> float:
            through = forward_arrival(driver) + d_q
            return through if through > launch_floor else launch_floor

        for name in netlist.topo_order():
            gate = netlist[name]
            if gate.is_source:
                post[name] = 0.0 if name in retimed else launch_floor
                continue
            if gate.gtype is GateType.OUTPUT:
                continue
            sink_retimed = name in retimed
            best = None
            for driver in gate.fanins:
                if driver in retimed and not sink_retimed:
                    value = launch(driver)
                else:
                    value = post[driver]
                value += edge_delay(driver, name)
                if best is None or value > best:
                    best = value
            post[name] = best

        arrivals: Dict[str, float] = {}
        for endpoint in self._endpoint_names:
            best = None
            for driver in netlist[endpoint].fanins:
                value = launch(driver) if driver in retimed else post[driver]
                if best is None or value > best:
                    best = value
            arrivals[endpoint] = best
        return arrivals, post

    # -- EDL status ---------------------------------------------------------

    def is_edl(self, placement: SlavePlacement, endpoint: str) -> bool:
        """True when the master at ``endpoint`` must be error-detecting."""
        return (
            self.endpoint_arrival(placement, endpoint)
            > self.scheme.window_open + EPS
        )

    def edl_endpoints(self, placement: SlavePlacement) -> Set[str]:
        """Masters that must be error-detecting under ``placement``."""
        limit = self.scheme.window_open + EPS
        arrivals = self.endpoint_arrivals(placement)
        return {name for name, value in arrivals.items() if value > limit}

    def always_edl_endpoints(self) -> Set[str]:
        """Masters forced error-detecting regardless of retiming.

        These are endpoints with a combinational path longer than
        ``Pi`` even with the slave pushed as far forward as legally
        possible — equivalently, ``g(t)`` is empty while the worst path
        exceeds ``Pi`` (Section IV-A).  Approximated here by the
        fixed-path bound ``D^f(v) + D^b(v, t) > Pi`` for some fanin
        ``v`` of ``t``, which retiming cannot change.
        """
        forced: Set[str] = set()
        for endpoint in self._endpoint_names:
            arrival = self.engine.endpoint_arrival(endpoint)
            if arrival > self.scheme.window_open + EPS:
                forced.add(endpoint)
        return forced

    # -- regions (Section IV-B) ----------------------------------------------

    def region_vm(self) -> Set[str]:
        """Gates slaves *must* be retimed through (constraint (7))."""
        limit = self.scheme.backward_limit
        result: Set[str] = set()
        for name in self._source_names:
            if self.db_any(name) > limit + EPS:
                result.add(name)
        for gate in self.netlist.comb_gates():
            if self.db_any(gate.name) > limit + EPS:
                result.add(gate.name)
        return result

    def region_vn(self) -> Set[str]:
        """Gates slaves must *not* be retimed through (constraint (6)).

        Master latches are fixed too, but flops play a double role
        (source Q and endpoint D), so endpoint pinning is handled by
        the retiming-graph construction rather than by this region.
        """
        limit = self.scheme.forward_limit
        result: Set[str] = set()
        for gate in self.netlist.comb_gates():
            if self.df(gate.name) > limit + EPS:
                result.add(gate.name)
        return result

    def region_vr(self) -> Set[str]:
        """The free region: everything outside Vm and Vn."""
        vm = self.region_vm()
        vn = self.region_vn()
        everything = set(self._source_names) | {
            g.name for g in self.netlist.comb_gates()
        }
        return everything - vm - vn

    def check_regions_feasible(self) -> List[str]:
        """Nodes in both Vm and Vn — the problem is then infeasible."""
        return sorted(self.region_vm() & self.region_vn())

    # -- legality -------------------------------------------------------------

    def check_legality(self, placement: SlavePlacement) -> LegalityReport:
        """Validate ``placement`` against constraints (6)/(7) and the
        resiliency window.

        Linear in the netlist: one scan of the latch edges, and the
        window overflows from the one arrival DP
        (:meth:`endpoint_arrivals`).
        """
        report = LegalityReport()
        report.negative_edges = placement.check_nonnegative(self.netlist)
        forward_limit = self.scheme.forward_limit
        backward_limit = self.scheme.backward_limit

        for endpoint in self._endpoint_names:
            # A flop name in the placement refers to its retimable Q
            # side; only pure endpoints (PO markers) must stay at 0.
            gate = self.netlist[endpoint]
            if gate.gtype is GateType.OUTPUT and placement.r(endpoint) == -1:
                report.retimed_endpoints.append(endpoint)

        for driver, sink in placement.latch_edges(self.netlist):
            # Constraint (6): data stabilizes at the slave input before
            # the slave goes opaque.
            if self.df(driver) > forward_limit + EPS:
                report.forward_violations.append(driver)
            # Constraint (7): slave-launched data reaches every master
            # before its window closes.
            db = self._db_from_edge(driver, sink)
            if db > backward_limit + EPS:
                report.backward_violations.append(sink)

        window_close = self.scheme.window_close
        for endpoint, arrival in self.endpoint_arrivals(placement).items():
            overflow = arrival - window_close
            if overflow > EPS:
                report.window_overflows[endpoint] = overflow
        return report

    def _db_from_edge(self, driver: str, sink: str) -> float:
        """Backward delay seen by a slave latch on edge ``(u, v)``.

        The latch output drives gate ``v``; the relevant delay is
        ``d(v) + max_t D^b(v, t)`` (the slave sits before ``v``).
        """
        if sink in self._endpoint_set:
            return 0.0
        tail = self.db_any(sink)
        if tail == NEG_INF:
            return 0.0
        return self.edge_delay(driver, sink) + tail

    # -- cost accounting -------------------------------------------------------

    def sequential_cost(
        self,
        placement: SlavePlacement,
        overhead: float,
        edl: Optional[Set[str]] = None,
    ) -> SequentialCost:
        """Slave/master/EDL accounting for ``placement``.

        ``edl`` is the set of error-detecting masters; by default the
        masters :meth:`edl_endpoints` finds late under ``placement``.
        """
        if edl is None:
            edl = self.edl_endpoints(placement)
        return SequentialCost(
            n_slaves=placement.slave_count(self.netlist),
            n_masters=len(self._endpoint_names),
            n_edl=len(edl),
            overhead=overhead,
            latch_area=self._latch_area,
        )

    def total_area(self, placement: SlavePlacement, overhead: float) -> float:
        """Combinational plus sequential area for ``placement``."""
        if self.library is None:
            raise ValueError("total_area requires a library")
        comb = self.netlist.comb_area(self.library)
        return comb + self.sequential_cost(placement, overhead).area
