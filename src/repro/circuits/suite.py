"""The benchmark suite: ISCAS89 profiles + Plasma (Table I).

Flop counts and the near-critical-endpoint fractions follow the
paper's Table I; I/O counts follow the original ISCAS89 circuits; the
combinational clouds of the four largest circuits are scaled down
(roughly 3x) to keep the full-suite benchmark harness laptop-friendly
— the scaling is uniform, so every cross-approach comparison (the
content of Tables II-IX) is unaffected.  Logic depth grows with the
paper's clock period so the per-circuit timing profiles track Table I.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.cells.library import Library
from repro.circuits.generator import CloudSpec, generate_circuit
from repro.netlist.netlist import Netlist


@dataclass(frozen=True)
class BenchmarkProfile:
    """Table I row parameters for one benchmark circuit."""

    name: str
    seed: int
    n_inputs: int
    n_outputs: int
    n_flops: int
    n_gates: int
    depth: int
    critical_fraction: float
    #: Paper values, recorded for EXPERIMENTS.md comparisons.
    paper_period_ns: float = 0.0
    paper_flops: int = 0
    paper_nce: int = 0
    paper_area: float = 0.0

    def spec(self) -> CloudSpec:
        """The generator parameters for this profile."""
        return CloudSpec(
            name=self.name,
            seed=self.seed,
            n_inputs=self.n_inputs,
            n_outputs=self.n_outputs,
            n_flops=self.n_flops,
            n_gates=self.n_gates,
            depth=self.depth,
            critical_fraction=self.critical_fraction,
        )


def _profile(
    name: str,
    seed: int,
    pi: int,
    po: int,
    flops: int,
    gates: int,
    depth: int,
    paper_period: float,
    paper_nce: int,
    paper_area: float,
) -> BenchmarkProfile:
    endpoints = flops + po
    fraction = min(0.9, paper_nce / max(1, endpoints))
    return BenchmarkProfile(
        name=name,
        seed=seed,
        n_inputs=pi,
        n_outputs=po,
        n_flops=flops,
        n_gates=gates,
        depth=depth,
        critical_fraction=fraction,
        paper_period_ns=paper_period,
        paper_flops=flops,
        paper_nce=paper_nce,
        paper_area=paper_area,
    )


#: Table I of the paper, as generator profiles.
BENCHMARK_PROFILES: Dict[str, BenchmarkProfile] = {
    p.name: p
    for p in [
        _profile("s1196", 1196, 14, 14, 32, 480, 10, 0.4, 6, 376.18),
        _profile("s1238", 1238, 14, 14, 32, 500, 11, 0.5, 4, 334.89),
        _profile("s1423", 1423, 17, 5, 91, 620, 13, 0.6, 54, 559.9),
        _profile("s1488", 1488, 8, 19, 14, 560, 10, 0.4, 6, 264.38),
        _profile("s5378", 5378, 35, 49, 198, 1300, 11, 0.5, 55, 1149.42),
        _profile("s9234", 9234, 36, 39, 160, 1500, 11, 0.5, 61, 893.36),
        _profile("s13207", 13207, 62, 152, 502, 2400, 11, 0.5, 188, 2670.28),
        _profile("s15850", 15850, 77, 150, 524, 2700, 15, 0.8, 174, 2980.52),
        _profile("s35932", 35932, 35, 320, 1763, 5200, 17, 1.0, 288, 9681.35),
        _profile("s38417", 38417, 28, 106, 1494, 5000, 17, 1.0, 213, 8635.73),
        _profile("s38584", 38584, 38, 304, 1271, 4800, 13, 0.7, 632, 8100.11),
        _profile("plasma", 9001, 40, 38, 1652, 5600, 24, 2.1, 217, 10371.2),
    ]
}

#: Suite order used throughout the tables.
SUITE_ORDER: List[str] = [
    "s1196",
    "s1238",
    "s1423",
    "s1488",
    "s5378",
    "s9234",
    "s13207",
    "s15850",
    "s35932",
    "s38417",
    "s38584",
    "plasma",
]

#: The small circuits used by quick tests and CI-style runs.
SMALL_SUITE: List[str] = ["s1196", "s1238", "s1423", "s1488"]


#: Largest accepted ``<base>x<factor>`` scale factor — beyond this the
#: generator's retry budget and the DP arrays stop being
#: laptop-friendly, and nothing in the bench matrix asks for more.
MAX_SCALE_FACTOR = 100


def suite_names(small_only: bool = False) -> List[str]:
    """Benchmark names in the paper's table order."""
    return list(SMALL_SUITE if small_only else SUITE_ORDER)


def scaled_profile(base: BenchmarkProfile, factor: int) -> BenchmarkProfile:
    """A Table-I profile grown ``factor``-fold for stress runs.

    I/O, flop and gate counts scale linearly while the logic depth is
    kept — the point of the scaled circuits is more gates per timing
    level, not longer critical paths that would change the timing
    profile class.  The seed is derived deterministically so
    ``s38417x10`` is the same netlist in every session.
    """
    if factor < 2 or factor > MAX_SCALE_FACTOR:
        raise ValueError(
            f"scale factor {factor} out of range [2, {MAX_SCALE_FACTOR}]"
        )
    return BenchmarkProfile(
        name=f"{base.name}x{factor}",
        seed=base.seed * 1000 + factor,
        n_inputs=base.n_inputs * factor,
        n_outputs=base.n_outputs * factor,
        n_flops=base.n_flops * factor,
        n_gates=base.n_gates * factor,
        depth=base.depth,
        critical_fraction=base.critical_fraction,
        paper_period_ns=base.paper_period_ns,
        paper_flops=base.paper_flops,
        paper_nce=base.paper_nce,
        paper_area=base.paper_area,
    )


def _parse_scaled(name: str) -> BenchmarkProfile:
    """Resolve a ``<base>x<factor>`` name, raising the suite KeyError."""
    base_name, sep, suffix = name.rpartition("x")
    if sep and base_name in BENCHMARK_PROFILES and suffix.isdigit():
        return scaled_profile(BENCHMARK_PROFILES[base_name], int(suffix))
    raise KeyError(
        f"unknown benchmark {name!r}; choose from {SUITE_ORDER} "
        f"or a scaled variant like 's38417x10'"
    )


def build_benchmark(name: str, library: Library) -> Netlist:
    """Generate one suite circuit by name.

    Plasma is built structurally (a real 3-stage MIPS-like datapath,
    see :mod:`repro.circuits.plasma`); the ISCAS89 circuits use the
    statistics-matched random generator.  A ``<base>x<factor>`` name
    (e.g. ``"s38417x10"``, factor 2-100) generates a circuit with the
    base profile's statistics scaled ``factor``-fold, a stress input
    for any flow or table.
    """
    if name == "plasma":
        from repro.circuits.plasma import build_plasma

        return build_plasma(library)
    try:
        profile = BENCHMARK_PROFILES[name]
    except KeyError:
        profile = _parse_scaled(name)
    return generate_circuit(profile.spec(), library)
