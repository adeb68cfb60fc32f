"""Simulation-level fault injectors: SEU, glitch pulses, delay corners.

The PR-1 injectors (:mod:`repro.faults`) corrupt the *flow inputs* —
netlists, delay data, clock schemes — to exercise the error taxonomy.
The injectors here perturb the *simulation itself*, modeling the
physical phenomena the paper's resilient latches exist to survive:

* **SEU capture flips** — a particle strike inverts the value a
  flop/latch captured; modeled as bit-flips in the simulator's shared
  carry-over state (``flop_values`` / ``latch_state``) between cycles;
* **glitch pulses** — a transient pulse forces one net to the
  complement of its current value for a fixed width; downstream logic
  and latches see the glitched waveform;
* **delay-variation corners** — per-gate arc-delay multipliers
  combining a systematic shift (voltage/temperature) with a
  seeded-random per-gate sigma (process variation).

All three are expressed as an :class:`InjectionPlan` — a fully
resolved, deterministic schedule computed *before* simulation from an
explicit :class:`random.Random` — so both simulation backends
(the event :class:`~repro.sim.logicsim.TimedSimulator` and the
compiled lane engine, :mod:`repro.sim.vector`) honour the exact same
perturbations and their bit-parity oracle keeps holding under
injection.  The waveform transforms below are pure functions over the
``(initial, times, values)`` event-list form; the lane engine's
``_glitch_lanes`` is their array twin, with no float arithmetic of
its own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.clocks import ClockScheme
from repro.latches.placement import HOST, SlavePlacement
from repro.netlist.netlist import Netlist

#: Lower clamp for delay-corner multipliers: a gate cannot get
#: arbitrarily fast, and zero/negative delays would break the
#: transport-delay model's envelope.
MIN_DELAY_FACTOR = 0.05


@dataclass(frozen=True)
class GlitchSpec:
    """One transient pulse: ``net`` is forced to the complement of its
    value at ``start`` over ``[start, start + width)``."""

    net: str
    start: float
    width: float


@dataclass(frozen=True)
class InjectionPlan:
    """A resolved, deterministic injection schedule for one simulation.

    ``delay_scale`` multiplies every arc delay of the named gate;
    ``glitches`` maps cycle index to the pulses struck that cycle;
    ``seu_flips`` maps cycle index to the state keys flipped *after*
    that cycle's capture (flop names flip ``flop_values``, ``latch:``
    keys flip ``latch_state``).  An empty plan is a no-op and the
    simulation is bit-identical to an uninjected run.
    """

    delay_scale: Mapping[str, float] = field(default_factory=dict)
    glitches: Mapping[int, Tuple[GlitchSpec, ...]] = field(
        default_factory=dict
    )
    seu_flips: Mapping[int, Tuple[str, ...]] = field(default_factory=dict)
    label: str = ""

    @property
    def empty(self) -> bool:
        return not (self.delay_scale or self.glitches or self.seu_flips)

    def counts(self) -> Dict[str, int]:
        """How much of each injection kind the plan schedules."""
        return {
            "scaled_gates": sum(
                1 for f in self.delay_scale.values() if f != 1.0
            ),
            "glitches": sum(len(v) for v in self.glitches.values()),
            "seu_flips": sum(len(v) for v in self.seu_flips.values()),
        }


def glitch_events(
    initial: int,
    times: Sequence[float],
    values: Sequence[int],
    spec: GlitchSpec,
) -> Tuple[List[float], List[int]]:
    """Apply one glitch pulse to a normalized event list.

    During ``[start, start + width)`` the net is forced to the
    complement of its (inclusive) value at ``start``; original
    transitions inside the pulse are swallowed; at the pulse end the
    net returns to the original waveform's value.  Pure event-list
    surgery — comparisons only, no float arithmetic — so both
    simulation backends produce byte-identical glitched waveforms.
    """
    start = spec.start
    end = spec.start + spec.width
    # Inclusive value at `start` / `end`, matching Waveform.value_at.
    at_start = initial
    at_end = initial
    for when, value in zip(times, values):
        if when <= start:
            at_start = value
        if when <= end:
            at_end = value
        else:
            break
    forced = 1 - at_start
    events: List[Tuple[float, int]] = []
    for when, value in zip(times, values):
        if when < start:
            events.append((when, value))
    events.append((start, forced))
    events.append((end, at_end))
    for when, value in zip(times, values):
        if when > end:
            events.append((when, value))
    # Renormalize to actual changes against the running value.
    out_times: List[float] = []
    out_values: List[int] = []
    current = initial
    for when, value in events:
        if value != current:
            out_times.append(when)
            out_values.append(value)
            current = value
    return out_times, out_values


def delay_corner_scale(
    netlist: Netlist,
    systematic: float = 1.0,
    sigma: float = 0.0,
    rng: Optional[random.Random] = None,
) -> Dict[str, float]:
    """Per-gate delay multipliers for one variation corner.

    Every combinational gate's factor is
    ``systematic * (1 + sigma * N(0, 1))``, clamped to
    :data:`MIN_DELAY_FACTOR`; gates are visited in sorted-name order so
    the same seed always yields the same corner.
    """
    if systematic <= 0:
        raise ValueError("systematic delay factor must be positive")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    rng = rng or random.Random(0)
    scale: Dict[str, float] = {}
    for name in sorted(g.name for g in netlist.comb_gates()):
        factor = systematic
        if sigma > 0.0:
            factor = systematic * (1.0 + sigma * rng.gauss(0.0, 1.0))
        scale[name] = max(MIN_DELAY_FACTOR, factor)
    return scale


def latch_state_keys(
    netlist: Netlist, placement: SlavePlacement
) -> List[str]:
    """The ``latch:*`` state keys a placement's slaves maintain, in a
    deterministic order (the SEU target universe beyond the flops)."""
    keys = [
        f"latch:{driver}:{sink}"
        for driver, sink in placement.latch_edges(netlist)
    ]
    return sorted(keys)


def build_injection_plan(
    netlist: Netlist,
    scheme: ClockScheme,
    cycles: int,
    seed: int,
    systematic: float = 1.0,
    sigma: float = 0.0,
    seu_rate: float = 0.0,
    glitch_rate: float = 0.0,
    glitch_width: Optional[float] = None,
    placement: Optional[SlavePlacement] = None,
    label: str = "",
) -> InjectionPlan:
    """Build a deterministic plan for one (corner, upset) scenario.

    ``seu_rate`` / ``glitch_rate`` are per-cycle strike probabilities;
    each strike picks one flop / latch key (SEU) or one combinational
    net (glitch) uniformly.  Glitch start times are drawn uniformly in
    ``(0, Pi)`` with width defaulting to half the resiliency window,
    so pulses can land inside or outside the detection window.  All
    randomness flows from one :class:`random.Random` seeded with
    ``seed`` — two calls with identical arguments produce identical
    plans.
    """
    for rate_name, rate in (("seu_rate", seu_rate),
                            ("glitch_rate", glitch_rate)):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"{rate_name} must be in [0, 1]")
    rng = random.Random(seed)
    scale = (
        delay_corner_scale(netlist, systematic, sigma, rng)
        if (systematic != 1.0 or sigma > 0.0)
        else {}
    )

    comb_nets = sorted(g.name for g in netlist.comb_gates())
    seu_targets = sorted(g.name for g in netlist.flops())
    if placement is not None:
        seu_targets += latch_state_keys(netlist, placement)
    width = (
        glitch_width
        if glitch_width is not None
        else scheme.resiliency_window * 0.5
    )
    glitches: Dict[int, Tuple[GlitchSpec, ...]] = {}
    seu_flips: Dict[int, Tuple[str, ...]] = {}
    for cycle in range(cycles):
        if glitch_rate > 0.0 and comb_nets and rng.random() < glitch_rate:
            net = comb_nets[rng.randrange(len(comb_nets))]
            start = rng.uniform(0.0, scheme.period)
            glitches[cycle] = (GlitchSpec(net, start, width),)
        if seu_rate > 0.0 and seu_targets and rng.random() < seu_rate:
            target = seu_targets[rng.randrange(len(seu_targets))]
            seu_flips[cycle] = (target,)
    return InjectionPlan(
        delay_scale=scale,
        glitches=glitches,
        seu_flips=seu_flips,
        label=label,
    )
