"""Retiming regions ``Vm`` / ``Vn`` / ``Vr`` (Section IV-B).

* ``Vm`` — gates with ``D^b(v, t) > phi2 + gamma2 + phi1`` for some
  endpoint ``t``: the slaves *must* be retimed through (``r = -1``),
  otherwise constraint (7) is violated;
* ``Vn`` — gates with ``D^f(v) > phi1 + gamma1 + phi2``: slaves must
  *not* be retimed through (``r = 0``), per constraint (6);
* ``Vr`` — the rest: the solver decides ``r ∈ {-1, 0}``.

Endpoints (master latches) are always pinned at 0 — masters are fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

from repro.errors import TimingError
from repro.latches.resilient import TwoPhaseCircuit


class InfeasibleRetimingError(TimingError):
    """Raised when constraints (6) and (7) cannot both be satisfied."""


@dataclass(frozen=True)
class Regions:
    """The region partition plus per-node retiming bounds."""

    vm: FrozenSet[str]
    vn: FrozenSet[str]
    vr: FrozenSet[str]

    def bounds(self, name: str) -> Tuple[int, int]:
        """Lower/upper bound of ``r(name)``."""
        if name in self.vm:
            return (-1, -1)
        if name in self.vn:
            return (0, 0)
        return (-1, 0)

    def summary(self) -> str:
        """Region sizes as a short string."""
        return (
            f"Vm={len(self.vm)} Vn={len(self.vn)} Vr={len(self.vr)}"
        )


def compute_regions(
    circuit: TwoPhaseCircuit, conflict_policy: str = "error"
) -> Regions:
    """Partition the cloud nodes of ``circuit`` into the three regions.

    A node in both ``Vm`` and ``Vn`` means some path cannot satisfy
    constraints (6) and (7) simultaneously.  Under exact (path-based)
    timing this is a genuine infeasibility — the clock is too tight —
    and ``conflict_policy="error"`` raises.  Under the conservative
    gate-based model the conflict is usually an artifact of pessimism
    (the paper notes the model "can negatively impact the region
    calculations"); ``conflict_policy="prefer-vm"`` keeps such nodes
    in ``Vm`` — honouring the hard downstream-capture constraint (7)
    — and lets the accurate-model evaluation plus the size-only
    compile absorb any (6) overshoot.
    """
    vm = circuit.region_vm()
    vn = circuit.region_vn()
    conflict = vm & vn
    if conflict:
        if conflict_policy == "prefer-vm":
            vn = vn - conflict
        elif conflict_policy == "error":
            raise InfeasibleRetimingError(
                f"{len(conflict)} gates violate both constraints (6) and "
                f"(7); examples: {sorted(conflict)[:5]} — the clock period "
                f"is too tight for a legal slave-latch cut"
            )
        else:
            raise ValueError(
                f"unknown conflict_policy {conflict_policy!r}"
            )
    everything = set(circuit.source_names) | {
        g.name for g in circuit.netlist.comb_gates()
    }
    vr = everything - vm - vn
    return Regions(vm=frozenset(vm), vn=frozenset(vn), vr=frozenset(vr))
