"""A network-simplex solver for uncapacitated min-cost flow.

Solves::

    min   sum_a cost(a) * x(a)
    s.t.  inflow(v) - outflow(v) = demand(v)   for every node v
          x(a) >= 0

with integer arc costs and (possibly fractional) node demands — the
exact shape of the retiming dual (eq. 14), whose demands are sums of
fanout breadths ``1/k``.  Flows are kept as :class:`fractions.Fraction`
so degenerate pivots never suffer round-off, and node potentials stay
integral because all costs are integral — which is what guarantees the
recovered retiming labels are integers (Section IV-D).

The implementation is the textbook big-M artificial-root variant
[Ahuja/Magnanti/Orlin ch. 11] with incremental tree re-rooting and a
first-eligible entering rule with a Bland fallback for anti-cycling.
Arc endpoints, costs, node potentials and the tree-membership mask are
int64/uint8 NumPy arrays, so pricing a block of arcs is one vectorized
reduced-cost pass; the constructor refuses (with a typed
:class:`SolverError`, which the fallback chain answers) any instance
whose potentials could overflow int64.
"""

from __future__ import annotations

import math
import random
import time
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro import metrics
from repro.errors import (
    InfeasibleFlowError,
    SolverError,
    SolverTimeoutError,
    UnboundedFlowError,
)

Node = Hashable
Arc = Tuple[Node, Node, int]

__all__ = [
    "Arc",
    "InfeasibleFlowError",
    "NetworkSimplex",
    "Node",
    "SimplexResult",
    "UnboundedFlowError",
    "WarmBasis",
]

#: How many pivots between wall-clock deadline checks.  The first
#: pivot always checks, so ``deadline_s=0.0`` still aborts instantly.
_DEADLINE_STRIDE = 64

#: Largest value an int64 potential or reduced cost may take.
_INT64_MAX = int(np.iinfo(np.int64).max)

#: Largest demand-denominator lcm scaled to integer flows; beyond it
#: the demands stay Fractions at scale 1 (the flow-only backends of
#: :mod:`repro.retime.mincostflow` refuse such demands instead).
_MAX_SCALE = 10**12


@dataclass(frozen=True)
class WarmBasis:
    """The real-arc part of an optimal spanning-tree basis.

    Arc ids index the *same* arc list a later solve is built from —
    the compiled-retiming sweep, where only demands change with the
    overhead ``c``, or a sibling problem's basis that
    :mod:`repro.retime.compile` translated onto this arc list by arc
    identity.  Nodes not covered by ``real_arcs`` hang off the
    artificial root, exactly as in a cold start.
    """

    n: int
    m: int
    real_arcs: Tuple[int, ...]


@dataclass
class SimplexResult:
    """Optimal flow, node potentials, and objective value."""

    flows: Dict[int, Fraction]
    potentials: Dict[Node, int]
    objective: Fraction
    iterations: int
    degenerate_pivots: int = 0
    bland_used: bool = False

    def potential(self, node: Node) -> int:
        """The node potential (dual value) of ``node``."""
        return self.potentials[node]


class NetworkSimplex:
    """One solver instance per problem (not reusable)."""

    def __init__(
        self,
        nodes: Sequence[Node],
        arcs: Sequence[Arc],
        demands: Dict[Node, Fraction],
        max_iterations: Optional[int] = None,
        deadline_s: Optional[float] = None,
        pivot_chaos: Optional[random.Random] = None,
        warm_basis: Optional[WarmBasis] = None,
    ) -> None:
        self.node_names = list(nodes)
        self.n = len(self.node_names)
        self.index = {name: i for i, name in enumerate(self.node_names)}
        if len(self.index) != self.n:
            raise ValueError("duplicate node names")

        index = self.index
        tails = [index[tail] for tail, _, _ in arcs]
        heads = [index[head] for _, head, _ in arcs]
        costs = [int(cost) for _, _, cost in arcs]
        self.m = len(tails)
        cmax = max(map(abs, costs), default=0)
        #: Cost of every artificial arc: dearer than any real path.
        self.big_m = 1 + (self.n + 1) * max(1, cmax)
        # A potential is a signed sum of at most n tree-arc costs and a
        # reduced cost adds one more arc cost, so (n + 1) * big_m
        # bounds every value the int64 arrays below ever hold.
        if (self.n + 1) * self.big_m > _INT64_MAX:
            raise SolverError(
                f"arc costs up to {cmax} on {self.n} nodes could "
                "overflow the int64 potentials"
            )
        self.tail = np.array(tails, dtype=np.int64)
        self.head = np.array(heads, dtype=np.int64)
        self.cost = np.array(costs, dtype=np.int64)
        #: Endpoints of every arc, real then artificial (``m + v`` links
        #: node ``v`` with the root), as plain ints for the tree walks;
        #: the tree builders orient the artificial part.
        self.arc_tail: List[int] = tails + [self.n] * self.n
        self.arc_head: List[int] = heads + [self.n] * self.n

        raw: List[Fraction] = [Fraction(0)] * self.n
        for name, value in demands.items():
            raw[index[name]] = (
                value if isinstance(value, (int, Fraction))
                else Fraction(value)
            )
        # Scale demands to integers when the common denominator is
        # small (it is the lcm of the fanout degrees): integer flow
        # arithmetic is several times faster than Fractions and stays
        # exact.  Potentials (the retiming labels) are scale-invariant.
        # ``scale`` is always an int — the overflow path keeps Fraction
        # demands at scale 1 instead of switching the type of the
        # attribute itself.
        scale = math.lcm(*{value.denominator for value in raw})
        if scale <= _MAX_SCALE:
            self.scale: int = scale
            self.demand = [
                value.numerator * (scale // value.denominator)
                for value in raw
            ]
            total = Fraction(sum(self.demand), scale)
        else:
            self.scale = 1
            self.demand = raw
            total = sum(raw, Fraction(0))
        if total != 0:
            raise InfeasibleFlowError(
                f"demands do not balance (sum = {total})"
            )
        self.max_iterations = max_iterations or max(
            200000, 50 * (self.m + self.n)
        )
        #: Optional wall-clock budget for :meth:`solve` in seconds.
        self.deadline_s = deadline_s
        #: Fault-injection hook: an RNG that randomizes entering-arc
        #: selection (see :mod:`repro.faults`), stressing the
        #: anti-cycling safeguards.  Never set in production flows.
        self.pivot_chaos = pivot_chaos
        #: Optional basis over this problem's arc list (see
        #: :class:`WarmBasis`); validated (and repaired to primal
        #: feasibility) in :meth:`_build_warm_tree`.
        self.warm_basis = warm_basis
        #: True once a warm basis was accepted and installed.
        self.basis_reused = False
        self.degenerate_pivots = 0
        self.bland_used = False

    # -- public API -------------------------------------------------------

    def solve(self) -> SimplexResult:
        """Run pivots to optimality; returns flows and potentials.

        Anti-cycling is layered: a long streak of consecutive
        degenerate pivots (the signature of cycling) switches to
        Bland's rule immediately, well before the coarse halfway-budget
        fallback; Bland's rule then guarantees termination.  A
        ``deadline_s`` wall-clock budget turns pathological instances
        into a typed :class:`SolverTimeoutError` instead of a hang.

        With a ``warm_basis`` the pivot loop starts from a previous
        optimal spanning tree instead of the big-M artificial star:
        arc costs are identical across the sweep, so the warm tree's
        potentials are already dual-feasible, and only the primal
        repair of :meth:`_build_warm_tree` (plus big-M pricing of any
        re-attached artificial arcs) stands between the warm start and
        optimality — typically a handful of pivots.  A sibling
        problem's basis, translated by arc identity, is not dual-feasible
        in general but still starts far closer than the artificial star
        (about a quarter of the cold pivots on s13207's post-rescue
        re-solve).
        """
        if self.warm_basis is not None:
            metrics.count("simplex.warm_start")
            self.basis_reused = self._build_warm_tree(self.warm_basis)
            if self.basis_reused:
                metrics.count("simplex.basis_reused")
        if not self.basis_reused:
            self._build_initial_tree()
        iterations = 0
        cursor = 0
        bland = False
        bland_switch = self.max_iterations // 2
        degenerate_streak = 0
        cycling_threshold = max(64, 4 * (self.n + 1))
        started = time.perf_counter()
        while True:
            entering = self._find_entering(cursor, bland)
            if entering is None:
                break
            if not bland:
                cursor = (entering + 1) % self.m
            if self._pivot(entering):
                self.degenerate_pivots += 1
                degenerate_streak += 1
                if degenerate_streak > cycling_threshold and not bland:
                    bland = True  # suspected cycling: Bland terminates
            else:
                degenerate_streak = 0
            iterations += 1
            if iterations >= bland_switch:
                bland = True  # anti-cycling fallback
            if bland:
                self.bland_used = True
            if iterations > self.max_iterations:
                raise SolverTimeoutError(
                    "network simplex exceeded iteration budget "
                    f"({self.max_iterations})",
                    payload={
                        "iterations": iterations,
                        "degenerate_pivots": self.degenerate_pivots,
                    },
                )
            if self.deadline_s is not None and (
                iterations == 1 or iterations % _DEADLINE_STRIDE == 0
            ):
                # Checking every pivot costs a perf_counter syscall in
                # the hottest loop; a stride amortizes it while the
                # first-pivot check keeps even a 0-second deadline
                # honest.
                elapsed = time.perf_counter() - started
                if elapsed > self.deadline_s:
                    raise SolverTimeoutError(
                        "network simplex exceeded wall-clock deadline "
                        f"({self.deadline_s:.3f}s) after "
                        f"{iterations} pivots",
                        payload={
                            "iterations": iterations,
                            "elapsed_s": elapsed,
                        },
                    )
        metrics.count("simplex.pivots", iterations)
        return self._extract(iterations)

    # -- initial basis ------------------------------------------------------

    def _build_initial_tree(self) -> None:
        n, m = self.n, self.m
        root = n  # artificial root node
        big_m = self.big_m

        self.flow: Dict[int, Fraction] = {}
        self.parent: List[int] = [root] * (n + 1)
        self.parent_arc: List[int] = [-1] * (n + 1)
        self.depth: List[int] = [1] * (n + 1)
        pot = [0] * (n + 1)
        self.children: List[set] = [set() for _ in range(n + 1)]

        self.parent[root] = -1
        self.parent_arc[root] = -1
        self.depth[root] = 0

        for v in range(n):
            arc_id = m + v
            if self.demand[v] >= 0:
                # Node needs inflow: artificial arc root -> v.
                self._orient_artificial(v, inflow=True)
                self.flow[arc_id] = self.demand[v]
                pot[v] = -big_m
            else:
                self._orient_artificial(v, inflow=False)
                self.flow[arc_id] = -self.demand[v]
                pot[v] = big_m
            self.parent[v] = root
            self.parent_arc[v] = arc_id
            self.children[root].add(v)
        self.pot = np.array(pot, dtype=np.int64)
        # Arc-indexed membership mask (real arcs then artificials):
        # pricing masks tree arcs out of a block with it.
        self.in_tree = np.zeros(m + n, dtype=np.uint8)
        self.in_tree[m:] = 1

    def _build_warm_tree(self, basis: WarmBasis) -> bool:
        """Install a previous optimal basis; returns False to cold-start.

        The basis' real arcs are validated (ids in range, acyclic);
        any failure rejects the warm start rather than guessing.  Tree
        flows are then re-derived bottom-up from the *new* demands:
        the parent arc of every subtree must carry the subtree's
        demand sum across the cut, and a real arc whose fixed
        orientation cannot carry that sum (it would need negative
        flow) has its subtree re-attached directly to the artificial
        root through the node's own artificial arc — artificial arcs
        are rebuilt fresh each solve, so their orientation is free.
        Potentials are recomputed from the final tree (zero reduced
        cost on tree arcs), which keeps them dual-feasible wherever
        the old basis survives; the ordinary pivot loop then prices
        out whatever big-M artificial flow the repair introduced.
        """
        n, m = self.n, self.m
        if basis.n != n or basis.m != m:
            return False
        root = n
        uf = list(range(n))

        def find(x: int) -> int:
            while uf[x] != x:
                uf[x] = uf[uf[x]]
                x = uf[x]
            return x

        adjacency: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        for arc in basis.real_arcs:
            if not 0 <= arc < m:
                return False
            u, v = self.arc_tail[arc], self.arc_head[arc]
            ru, rv = find(u), find(v)
            if ru == rv:
                return False  # cycle: not a forest
            uf[ru] = rv
            adjacency[u].append((v, arc))
            adjacency[v].append((u, arc))

        for v in range(n):
            # Default orientation (as in a cold start); attachment
            # points below re-orient their own artificial arc freely.
            self._orient_artificial(v, inflow=self.demand[v] >= 0)
        self.flow = {}
        self.parent = [root] * (n + 1)
        self.parent[root] = -1
        self.parent_arc = [-1] * (n + 1)
        self.depth = [0] * (n + 1)
        self.children = [set() for _ in range(n + 1)]
        self.in_tree = np.zeros(m + n, dtype=np.uint8)

        # Each forest component hangs off the root via the artificial
        # arc of its smallest node (deterministic attachment).
        representative: Dict[int, int] = {}
        for v in range(n):
            r = find(v)
            if r not in representative or v < representative[r]:
                representative[r] = v
        queue = deque()
        visited = [False] * n
        for rep in sorted(representative.values()):
            self.parent[rep] = root
            self.parent_arc[rep] = m + rep
            self.children[root].add(rep)
            self.in_tree[m + rep] = 1
            visited[rep] = True
            queue.append(rep)
        order: List[int] = []
        while queue:
            u = queue.popleft()
            order.append(u)
            for v, arc in adjacency[u]:
                if not visited[v]:
                    visited[v] = True
                    self.parent[v] = u
                    self.parent_arc[v] = arc
                    self.children[u].add(v)
                    self.in_tree[arc] = 1
                    queue.append(v)
        if len(order) != n:  # pragma: no cover - forest check implies this
            return False

        # Bottom-up primal repair: push each subtree's demand sum
        # through its parent arc, detaching subtrees whose real parent
        # arc points the wrong way.
        subtree = list(self.demand) + [0]
        for v in reversed(order):
            s = subtree[v]
            arc = self.parent_arc[v]
            if arc < m:
                p = self.parent[v]
                value = s if self.arc_head[arc] == v else -s
                if value < 0:
                    # Wrong orientation for the new demands: re-route
                    # this subtree through v's artificial arc.
                    self.children[p].discard(v)
                    self.in_tree[arc] = 0
                    art = m + v
                    self._orient_artificial(v, inflow=s >= 0)
                    self.parent[v] = root
                    self.parent_arc[v] = art
                    self.children[root].add(v)
                    self.in_tree[art] = 1
                    self.flow[art] = s if s >= 0 else -s
                else:
                    self.flow[arc] = value
                    subtree[p] += s
            else:
                self._orient_artificial(v, inflow=s >= 0)
                self.flow[arc] = s if s >= 0 else -s

        # Depth and potentials from the final tree: every tree arc
        # gets reduced cost zero.
        pot = [0] * (n + 1)
        stack = [root]
        while stack:
            u = stack.pop()
            for v in self.children[u]:
                arc = self.parent_arc[v]
                cost = self._arc_cost(arc)
                if self.arc_tail[arc] == u:
                    pot[v] = pot[u] - cost
                else:
                    pot[v] = pot[u] + cost
                self.depth[v] = self.depth[u] + 1
                stack.append(v)
        self.pot = np.array(pot, dtype=np.int64)
        return True

    def export_basis(self) -> WarmBasis:
        """The current basis' real arcs (call after :meth:`solve`)."""
        return WarmBasis(
            n=self.n,
            m=self.m,
            real_arcs=tuple(np.flatnonzero(self.in_tree[: self.m]).tolist()),
        )

    # -- arc helpers --------------------------------------------------------

    def _orient_artificial(self, v: int, inflow: bool) -> None:
        """Point node ``v``'s artificial arc from the root (``inflow``)
        or to it."""
        arc, root = self.m + v, self.n
        if inflow:
            self.arc_tail[arc], self.arc_head[arc] = root, v
        else:
            self.arc_tail[arc], self.arc_head[arc] = v, root

    def _arc_cost(self, arc: int) -> int:
        if arc < self.m:
            return int(self.cost[arc])
        return self.big_m

    def _reduced_cost(self, arc: int) -> int:
        return (
            self._arc_cost(arc)
            - int(self.pot[self.arc_tail[arc]])
            + int(self.pot[self.arc_head[arc]])
        )

    # -- pivoting --------------------------------------------------------------

    def _reduced_costs(self, lo: int, hi: int) -> np.ndarray:
        """Reduced costs of real arcs ``lo .. hi - 1``, with tree arcs
        read as 0 so that pricing never picks one."""
        rc = (
            self.cost[lo:hi]
            - self.pot[self.tail[lo:hi]]
            + self.pot[self.head[lo:hi]]
        )
        rc[self.in_tree[lo:hi] != 0] = 0
        return rc

    def _find_entering(self, cursor: int, bland: bool) -> Optional[int]:
        """Entering-arc pricing.

        Default: block search — scan a window from the rotating cursor
        and take its most negative reduced cost (Dantzig-within-block,
        a standard network-simplex compromise between pivot count and
        pricing cost), the first of equals in scan order.  Bland mode:
        first eligible arc by index, which guarantees termination under
        degeneracy.  Each window is priced in one vectorized pass.

        Artificial arcs never re-enter: their big-M cost keeps their
        reduced cost non-negative once they leave the basis.
        """
        m = self.m
        if bland or self.pivot_chaos is not None:
            eligible = np.flatnonzero(self._reduced_costs(0, m) < 0)
            if not len(eligible):
                return None
            if bland:
                return int(eligible[0])
            # Fault injection: pick a random eligible arc instead of
            # the best one — maximizes degenerate pivots and exercises
            # the cycling detection.
            return self.pivot_chaos.choice(eligible.tolist())
        block = max(64, m // 40)
        scanned = 0
        position = cursor
        while scanned < m:
            upper = min(block, m - scanned)
            end = position + upper
            if end <= m:
                rc = self._reduced_costs(position, end)
            else:  # the window wraps around to arc 0
                rc = np.concatenate((
                    self._reduced_costs(position, m),
                    self._reduced_costs(0, end - m),
                ))
            best = int(rc.argmin())
            if rc[best] < 0:
                return (position + best) % m
            scanned += upper
            position = end % m
        return None

    def _cycle(self, entering: int):
        """Arcs on the pivot cycle with their orientation.

        Returns ``(forward, backward)`` arc-id lists: forward arcs gain
        flow when pushing along the entering arc's direction, backward
        arcs lose flow.
        """
        u = self.arc_tail[entering]
        v = self.arc_head[entering]
        forward = [entering]
        backward: List[int] = []
        a, b = u, v
        # Walk both endpoints up to the least common ancestor.  On the
        # tail side the cycle runs *toward* u (down the tree); on the
        # head side it runs from v *up* the tree.
        while a != b:
            if self.depth[a] >= self.depth[b]:
                arc = self.parent_arc[a]
                if self.arc_tail[arc] == a:
                    # arc points a -> parent; cycle traverses parent -> a.
                    backward.append(arc)
                else:
                    forward.append(arc)
                a = self.parent[a]
            else:
                arc = self.parent_arc[b]
                if self.arc_tail[arc] == b:
                    forward.append(arc)
                else:
                    backward.append(arc)
                b = self.parent[b]
        return forward, backward

    def _pivot(self, entering: int) -> bool:
        """One pivot on ``entering``; True when degenerate (theta 0)."""
        forward, backward = self._cycle(entering)
        if not backward:
            raise UnboundedFlowError(
                "pivot cycle has no reverse arc — unbounded problem"
            )
        theta = None
        leaving = None
        for arc in backward:
            value = self.flow.get(arc, 0)
            if theta is None or value < theta or (
                value == theta and arc < leaving
            ):
                theta = value
                leaving = arc
        if theta is None or leaving is None:
            raise SolverError(
                "pivot found no leaving arc on a non-empty cycle — "
                "basis bookkeeping corrupted"
            )

        if theta != 0:
            for arc in forward:
                self.flow[arc] = self.flow.get(arc, 0) + theta
            for arc in backward:
                self.flow[arc] = self.flow[arc] - theta
        else:
            self.flow.setdefault(entering, 0)

        self._replace(leaving, entering)
        return theta == 0

    def _replace(self, leaving: int, entering: int) -> None:
        """Swap the leaving tree arc for the entering arc."""
        # Child endpoint of the leaving arc (the deeper one).
        lt, lh = self.arc_tail[leaving], self.arc_head[leaving]
        child = lt if self.depth[lt] > self.depth[lh] else lh
        parent = self.parent[child]
        if self.parent_arc[child] != leaving:
            raise SolverError(
                "leaving arc is not the tree arc of its deeper endpoint "
                "— spanning-tree invariants corrupted"
            )

        # Detach the T2 subtree rooted at `child`.
        self.children[parent].discard(child)
        self.in_tree[leaving] = 0
        self.flow.pop(leaving, None)

        # Entering arc endpoints: exactly one lies in T2, the one whose
        # ancestor at the child's depth is the child itself.
        eu, ev = self.arc_tail[entering], self.arc_head[entering]
        depth, parent_of = self.depth, self.parent
        node = eu
        while depth[node] > depth[child]:
            node = parent_of[node]
        if node == child:
            attach_t2, attach_t1 = eu, ev
            delta = self._reduced_cost(entering)
        else:
            attach_t2, attach_t1 = ev, eu
            delta = -self._reduced_cost(entering)

        # Re-root T2 at attach_t2: reverse parent pointers on the path
        # attach_t2 .. child.
        path = []
        node = attach_t2
        while node != child:
            path.append(node)
            node = self.parent[node]
        path.append(child)
        # Capture the connecting arcs before mutating parent_arc.
        path_arcs = [self.parent_arc[node] for node in path[:-1]]
        for (lower, upper), arc in zip(zip(path, path[1:]), path_arcs):
            # upper was lower's parent; flip the relationship.
            self.children[upper].discard(lower)
            self.parent[upper] = lower
            self.parent_arc[upper] = arc
            self.children[lower].add(upper)

        self.parent[attach_t2] = attach_t1
        self.parent_arc[attach_t2] = entering
        self.children[attach_t1].add(attach_t2)
        self.in_tree[entering] = 1
        self.flow.setdefault(entering, 0)

        # Refresh depth and potentials of the re-rooted subtree.
        children = self.children
        subtree = []
        stack = [attach_t2]
        while stack:
            node = stack.pop()
            depth[node] = depth[parent_of[node]] + 1
            subtree.append(node)
            stack.extend(children[node])
        self.pot[subtree] += delta

    # -- extraction ------------------------------------------------------------

    def _extract(self, iterations: int) -> SimplexResult:
        for v in range(self.n):
            arc_id = self.m + v
            if self.in_tree[arc_id] and self.flow.get(arc_id, 0) != 0:
                raise InfeasibleFlowError(
                    f"artificial arc at node {self.node_names[v]!r} "
                    f"carries flow — demands unreachable"
                )
        # Scale flows back to the caller's (possibly fractional) units;
        # the objective is summed in scaled units and divided once.
        scaled = {
            arc: value
            for arc, value in self.flow.items()
            if arc < self.m and value != 0
        }
        flows = {
            arc: Fraction(value, self.scale) for arc, value in scaled.items()
        }
        cost = self.cost.tolist()
        objective = Fraction(
            sum(value * cost[arc] for arc, value in scaled.items()),
            self.scale,
        )
        # Normalize potentials to the artificial root at 0; callers
        # re-normalize to their own host node.
        potentials = dict(zip(self.node_names, self.pot[: self.n].tolist()))
        return SimplexResult(
            flows=flows,
            potentials=potentials,
            objective=objective,
            iterations=iterations,
            degenerate_pivots=self.degenerate_pivots,
            bland_used=self.bland_used,
        )

    # -- verification (used by tests) -----------------------------------------

    def verify(self, result: SimplexResult) -> List[str]:
        """Check conservation and optimality conditions."""
        problems: List[str] = []
        balance = [Fraction(0)] * self.n
        for arc, value in result.flows.items():
            if value < 0:
                problems.append(f"arc {arc} has negative flow {value}")
            balance[self.tail[arc]] -= value
            balance[self.head[arc]] += value
        for v in range(self.n):
            expected = Fraction(self.demand[v], 1) / self.scale
            if balance[v] != expected:
                problems.append(
                    f"node {self.node_names[v]!r}: balance {balance[v]} "
                    f"!= demand {expected}"
                )
        for arc in range(self.m):
            rc = (
                self.cost[arc]
                - result.potentials[self.node_names[self.tail[arc]]]
                + result.potentials[self.node_names[self.head[arc]]]
            )
            if rc < 0:
                problems.append(f"arc {arc} has negative reduced cost {rc}")
            if rc > 0 and result.flows.get(arc, Fraction(0)) != 0:
                problems.append(
                    f"arc {arc} violates complementary slackness"
                )
        return problems
