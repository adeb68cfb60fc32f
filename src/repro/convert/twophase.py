"""Flop-to-two-phase conversion: the external-netlist front end.

Ordinary edge-triggered netlists arrive from a synthesis tool (or from
:mod:`repro.netlist.bench` / :mod:`repro.netlist.verilog`); the paper's
pipeline converts them to two-phase non-overlapping latch-based form
before G-RAR/VL-RAR run.  The conversion is the master/slave split of
Section II-C made explicit:

* each DFF becomes a fixed **master** latch (its Q launches the cloud
  at t = 0, its D terminates the previous stage) plus a movable
  **slave** latch starting at the master's output — PIs get the same
  treatment as outputs of fixed environment masters;
* the clock scheme is derived from the flop design's critical path
  with the Table I recipe (the same one :func:`repro.flows.run.
  prepare_circuit` uses, so a converted design and a natively-prepared
  one see bit-identical clocks);
* slaves whose start position already violates constraint (7) are
  balanced forward through the mandatory region ``Vm`` — legal by
  construction, because ``D^b`` is predecessor-monotone
  (``D^b(u) ≥ d(u→v) + D^b(v)``) which makes ``Vm`` closed under
  predecessors, i.e. a valid retiming cut;
* the result is validated against the structural phase-legality
  invariants (:mod:`repro.convert.phases`) before anything downstream
  may consume it.

The converted netlist is *structurally* the same object — the DFF gate
is the master/slave carrier, exactly how the retimers model it — which
is what makes the export→convert→retime path reproduce the native flow
bit-identically.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, TextIO, Union

from repro.cells.library import Library
from repro.clocks import ClockScheme
from repro.convert.phases import (
    PhaseAssignment,
    PhaseLegalityReport,
    check_phase_legality,
)
from repro.errors import ConversionError
from repro.latches.conversion import ConversionReport
from repro.latches.placement import SlavePlacement
from repro.latches.resilient import TwoPhaseCircuit
from repro.netlist.netlist import Netlist


@dataclass
class ConvertedDesign:
    """A flop netlist converted to two-phase latch-based form.

    Everything a retiming flow needs: the (unchanged) netlist, the
    derived clock scheme, the two-phase circuit view, the initial
    balanced slave placement, the explicit phase assignment, and the
    Section VI-D accounting report.
    """

    netlist: Netlist
    scheme: ClockScheme
    circuit: TwoPhaseCircuit
    placement: SlavePlacement
    phases: PhaseAssignment
    legality: PhaseLegalityReport
    report: ConversionReport


def convert_to_two_phase(
    netlist: Netlist,
    library: Library,
    *,
    scheme: Optional[ClockScheme] = None,
    clock_margin: float = 1.05,
    model: str = "path",
    sta_mode: str = "incremental",
    balance: bool = True,
) -> ConvertedDesign:
    """Convert a flop netlist into a legal two-phase latch-based design.

    ``scheme`` overrides the critical-path-derived clock (used when a
    design must run under a clock fixed elsewhere); ``balance=False``
    keeps every slave at its master's output, skipping the forward
    balancing — useful only for inspecting the raw conversion, since
    an unbalanced design may violate constraint (7).

    Raises :class:`~repro.errors.ConversionError` when the netlist has
    no sequential elements or timing paths, when the clock makes the
    ``Vm``/``Vn`` regions conflict (no legal slave position on some
    path), or when the converted design fails phase legality.
    """
    name = netlist.name
    n_flops = len(netlist.flops())
    n_endpoints = len(netlist.endpoints())
    if n_endpoints == 0:
        raise ConversionError(
            f"netlist {name!r} has no sequential elements or outputs: "
            f"nothing to phase",
            stage="convert",
            circuit=name,
        )

    # Clock derivation: the exact prepare_circuit recipe, so converted
    # and native flows share bit-identical schemes (imported lazily —
    # flows wires conversion in the other direction).
    from repro.flows.run import prepare_circuit

    try:
        scheme, circuit = prepare_circuit(
            netlist, library, model=model, clock_margin=clock_margin,
            scheme=scheme, sta_mode=sta_mode,
        )
    except ValueError as exc:
        raise ConversionError(
            f"netlist {name!r}: {exc}", stage="convert", circuit=name
        ) from exc

    conflicts = circuit.check_regions_feasible()
    if conflicts:
        raise ConversionError(
            f"netlist {name!r} has no legal slave position on "
            f"{len(conflicts)} node(s) under this clock; first: "
            f"{conflicts[0]!r} (both must-retime and must-not-retime)",
            stage="convert",
            circuit=name,
            payload={"conflicts": conflicts[:20]},
        )

    # Initial balanced placement: slaves start at their master outputs
    # and are pushed forward through the mandatory region Vm, which is
    # predecessor-closed and therefore a legal cut.
    if balance:
        placement = SlavePlacement(retimed=set(circuit.region_vm()))
    else:
        placement = SlavePlacement.initial()
    cut = circuit.check_legality(placement)
    if not cut.ok:
        raise ConversionError(
            f"netlist {name!r}: balanced initial placement is not a "
            f"legal cut: {cut.summary()}",
            stage="convert",
            circuit=name,
        )

    phases = PhaseAssignment.from_placement(netlist, placement)
    legality = check_phase_legality(netlist, placement, phases)
    if not legality.ok:
        raise ConversionError(
            f"netlist {name!r} failed phase legality: "
            f"{legality.summary()}",
            stage="convert",
            circuit=name,
            payload={"problems": legality.problems()},
        )

    latch_area = circuit.latch_area
    report = ConversionReport(
        name=name,
        n_flops=n_flops,
        n_inputs=len(netlist.inputs()),
        n_outputs=len(netlist.outputs()),
        n_masters=phases.n_masters,
        n_slaves=phases.n_slaves,
        n_balanced=len(placement.retimed),
        n_forced_edl=len(circuit.always_edl_endpoints()),
        period=scheme.period,
        window=scheme.resiliency_window,
        worst_arrival=circuit.engine.worst_arrival(),
        comb_area=netlist.comb_area(library),
        flop_area_before=netlist.flop_area(library),
        latch_area_after=(
            (phases.n_masters + phases.n_slaves) * latch_area
        ),
    )
    return ConvertedDesign(
        netlist=netlist,
        scheme=scheme,
        circuit=circuit,
        placement=placement,
        phases=phases,
        legality=legality,
        report=report,
    )


def load_netlist(
    path: Union[str, "os.PathLike[str]"],
    library: Library,
    fmt: str = "auto",
    name: Optional[str] = None,
) -> Netlist:
    """Read an external netlist file (``.bench`` or structural Verilog).

    ``fmt`` is ``"bench"``, ``"verilog"``, or ``"auto"`` (by file
    extension: ``.bench`` → bench, ``.v``/``.verilog``/``.sv`` →
    Verilog).  ``name`` overrides the netlist name (bench files carry
    none; the file stem is the default).
    """
    path = os.fspath(path)
    stem = os.path.splitext(os.path.basename(path))[0]
    if fmt == "auto":
        ext = os.path.splitext(path)[1].lower()
        if ext == ".bench":
            fmt = "bench"
        elif ext in (".v", ".verilog", ".sv"):
            fmt = "verilog"
        else:
            raise ConversionError(
                f"cannot infer netlist format from {path!r}; pass "
                f"fmt='bench' or fmt='verilog'",
                stage="convert",
            )
    try:
        with open(path, "r") as handle:
            return _parse(handle, library, fmt, name or stem)
    except OSError as exc:
        raise ConversionError(
            f"cannot read netlist file {path!r}: {exc}", stage="convert"
        ) from exc


def _parse(
    source: Union[str, TextIO], library: Library, fmt: str, name: str
) -> Netlist:
    if fmt == "bench":
        from repro.netlist.bench import parse_bench

        return parse_bench(source, library, name=name)
    if fmt == "verilog":
        from repro.netlist.verilog import parse_verilog

        netlist = parse_verilog(source, library)
        if name and netlist.name != name:
            netlist.name = name
        return netlist
    raise ConversionError(
        f"unknown netlist format {fmt!r}; use 'bench' or 'verilog'",
        stage="convert",
    )
