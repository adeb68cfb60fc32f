"""Graph-based resiliency-aware retiming (G-RAR) — the paper's core.

Pipeline (Section IV):

1. :mod:`repro.retime.regions` — pre-divide gates into ``Vm`` (must
   retime through), ``Vn`` (must not) and ``Vr`` (free), from
   constraints (6)/(7);
2. :mod:`repro.retime.cutset` — per target master ``t``, the cut set
   ``g(t)`` beyond which slaves make ``t`` non-error-detecting;
3. :mod:`repro.retime.graph` — the modified retiming graph: fanout-
   sharing mirror nodes, host, pseudo nodes ``P(t)`` with ``-c`` credit
   edges, and bound edges encoding the region limits;
4. :mod:`repro.retime.ilp` — the eq. (10) ILP solved as an LP
   (totally unimodular, so the relaxation is integral) — the reference
   solver;
5. :mod:`repro.retime.netflow` + :mod:`repro.retime.simplex` — the
   eq. (14) min-cost-flow dual solved with our network simplex; node
   potentials recover the retiming labels in polynomial time;
6. :mod:`repro.retime.grar` / :mod:`repro.retime.base` — the G-RAR and
   resiliency-unaware baseline flows; both take their problem from
   :mod:`repro.retime.compile` (cached, or built afresh for the
   cache-off oracle), and the baseline shares its forced-cut solve
   with VL-RAR (:mod:`repro.retime.forced`).
"""

from repro.retime.regions import Regions, compute_regions
from repro.retime.cutset import CutSet, EndpointClass, compute_cut_sets
from repro.retime.graph import (
    RetimingGraph,
    GraphEdge,
    build_retiming_graph,
    recost_graph,
)
from repro.retime.simplex import NetworkSimplex, SimplexResult, WarmBasis
from repro.retime.netflow import solve_retiming_flow
from repro.retime.ilp import solve_retiming_lp
from repro.retime.result import RetimingResult
from repro.retime.compile import (
    CompiledRetiming,
    circuit_fingerprint,
    clear_cache,
    compile_retiming,
)
from repro.retime.grar import grar_retime
from repro.retime.base import base_retime

__all__ = [
    "Regions",
    "compute_regions",
    "CutSet",
    "EndpointClass",
    "compute_cut_sets",
    "RetimingGraph",
    "GraphEdge",
    "build_retiming_graph",
    "recost_graph",
    "NetworkSimplex",
    "SimplexResult",
    "WarmBasis",
    "solve_retiming_flow",
    "solve_retiming_lp",
    "RetimingResult",
    "CompiledRetiming",
    "circuit_fingerprint",
    "clear_cache",
    "compile_retiming",
    "grar_retime",
    "base_retime",
]
