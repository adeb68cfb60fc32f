"""Cell definitions: combinational functions and sequential cells."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.cells.timing import SequentialTiming, TimingArc


def _inv(a: int) -> int:
    return a ^ 1


_FUNCTION_TABLE: Dict[str, Callable[..., int]] = {
    "BUF": lambda a: a,
    "INV": _inv,
    "AND": lambda *ins: int(all(ins)),
    "NAND": lambda *ins: _inv(int(all(ins))),
    "OR": lambda *ins: int(any(ins)),
    "NOR": lambda *ins: _inv(int(any(ins))),
    "XOR": lambda *ins: sum(ins) & 1,
    "XNOR": lambda *ins: _inv(sum(ins) & 1),
    # AOI21: !((a & b) | c)
    "AOI21": lambda a, b, c: _inv((a & b) | c),
    # OAI21: !((a | b) & c)
    "OAI21": lambda a, b, c: _inv((a | b) & c),
    # MUX2: s ? b : a
    "MUX2": lambda a, b, s: b if s else a,
}

#: Supported logic function names and their arity (None = variadic >= 2).
FUNCTIONS: Dict[str, Optional[int]] = {
    "BUF": 1,
    "INV": 1,
    "AND": None,
    "NAND": None,
    "OR": None,
    "NOR": None,
    "XOR": None,
    "XNOR": None,
    "AOI21": 3,
    "OAI21": 3,
    "MUX2": 3,
}


def evaluate_function(function: str, inputs: Sequence[int]) -> int:
    """Evaluate a named logic function on 0/1 inputs."""
    try:
        impl = _FUNCTION_TABLE[function]
    except KeyError:
        raise ValueError(f"unknown logic function {function!r}") from None
    arity = FUNCTIONS[function]
    if arity is not None and len(inputs) != arity:
        raise ValueError(
            f"{function} expects {arity} inputs, got {len(inputs)}"
        )
    if arity is None and len(inputs) < 1:
        raise ValueError(f"{function} expects at least one input")
    return impl(*[int(bool(v)) for v in inputs])


@dataclass(frozen=True)
class Cell:
    """Base class for library cells."""

    name: str
    area: float

    def __post_init__(self) -> None:
        if self.area < 0:
            raise ValueError(f"cell {self.name}: area must be non-negative")


@dataclass(frozen=True)
class CombCell(Cell):
    """A combinational cell.

    Attributes
    ----------
    function:
        Logic function name from :data:`FUNCTIONS`.
    inputs:
        Ordered input pin names.
    arcs:
        One timing arc per input pin, keyed by pin name.
    input_caps:
        Input pin capacitance (load contributed to the driving net).
    drive:
        Drive-strength index (1, 2, 4, ...), used by the sizing engine.
    """

    function: str = "BUF"
    inputs: Tuple[str, ...] = ("A",)
    output: str = "Z"
    arcs: Mapping[str, TimingArc] = field(default_factory=dict)
    input_caps: Mapping[str, float] = field(default_factory=dict)
    drive: int = 1
    #: Threshold-voltage flavour: "svt" (standard) or "lvt" (low-Vt,
    #: faster but larger/leakier — the sizing engine's other lever).
    vt: str = "svt"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.function not in FUNCTIONS:
            raise ValueError(
                f"cell {self.name}: unknown function {self.function!r}"
            )
        arity = FUNCTIONS[self.function]
        if arity is not None and len(self.inputs) != arity:
            raise ValueError(
                f"cell {self.name}: {self.function} needs {arity} inputs"
            )
        missing = [pin for pin in self.inputs if pin not in self.arcs]
        if missing:
            raise ValueError(
                f"cell {self.name}: missing timing arcs for pins {missing}"
            )

    def arc(self, pin: str) -> TimingArc:
        """The timing arc from input ``pin`` to the output."""
        return self.arcs[pin]

    def pin_cap(self, pin: str) -> float:
        """Input capacitance of ``pin`` (0.0 if unspecified)."""
        return self.input_caps.get(pin, 0.0)

    def evaluate(self, values: Sequence[int]) -> int:
        """Boolean output for 0/1 input ``values``."""
        return evaluate_function(self.function, values)

    def worst_delay(self, load: float = 0.0, slew: float = 0.0) -> float:
        """Worst pin-to-pin delay over all input pins (gate-based model)."""
        return max(self.arcs[p].max_delay(load, slew) for p in self.inputs)

    @property
    def base_name(self) -> str:
        """Cell name with drive-strength and Vt suffixes stripped."""
        name = self.name.rsplit("_X", 1)[0]
        if name.endswith("_LVT"):
            name = name[: -len("_LVT")]
        return name


@dataclass(frozen=True)
class SequentialCell(Cell):
    """Base for latches and flip-flops."""

    timing: SequentialTiming = field(
        default_factory=lambda: SequentialTiming(0.0, 0.0, 0.0)
    )
    data_pin: str = "D"
    clock_pin: str = "CK"
    output: str = "Q"
    input_cap: float = 0.0
    error_detecting: bool = False
    #: For EDL cells: amortized area overhead factor relative to the
    #: plain cell (paper's ``c``); 0 for normal cells.
    overhead: float = 0.0

    @property
    def base_name(self) -> str:
        """Cell name with drive-strength and Vt suffixes stripped."""
        return self.name.rsplit("_X", 1)[0]


@dataclass(frozen=True)
class LatchCell(SequentialCell):
    """A level-sensitive latch.

    A latch is transparent while its clock is high; ``data_to_q`` is
    the D->Q delay in transparency, ``clock_to_q`` the CK->Q delay at
    the opening edge.  The two can differ by up to ~40% in a modern
    library (paper Section III), which eq. (5) models explicitly.
    """

    @property
    def d_to_q(self) -> float:
        """Transparency (D->Q) propagation delay."""
        return self.timing.data_to_q

    @property
    def ck_to_q(self) -> float:
        """Opening-edge (CK->Q) propagation delay."""
        return self.timing.clock_to_q


@dataclass(frozen=True)
class FlipFlopCell(SequentialCell):
    """An edge-triggered master-slave flip-flop."""
