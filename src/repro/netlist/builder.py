"""Programmatic netlist construction with automatic cell selection."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cells.cell import FUNCTIONS
from repro.cells.library import Library
from repro.netlist.netlist import Gate, GateType, Netlist


class NetlistBuilder:
    """Fluent builder that maps generic functions onto library cells.

    >>> from repro.cells import default_library
    >>> b = NetlistBuilder("demo", default_library())
    >>> _ = b.input("a"); _ = b.input("b")
    >>> _ = b.gate("g", "NAND", ["a", "b"])
    >>> _ = b.output("y", "g")
    >>> netlist = b.build()
    """

    def __init__(self, name: str, library: Library) -> None:
        self.library = library
        self._netlist = Netlist(name)
        self._built = False

    def _check_open(self) -> None:
        if self._built:
            raise RuntimeError("builder already produced its netlist")

    def input(self, name: str) -> str:
        """Declare a primary input."""
        self._check_open()
        self._netlist.add(Gate(name=name, gtype=GateType.INPUT))
        return name

    def output(self, name: str, driver: str) -> str:
        """Declare a primary-output marker driven by ``driver``."""
        self._check_open()
        self._netlist.add(
            Gate(name=name, gtype=GateType.OUTPUT, fanins=(driver,))
        )
        return name

    def flop(self, name: str, data: str, cell: Optional[str] = None) -> str:
        """Declare a flip-flop named ``name`` with D from ``data``."""
        self._check_open()
        if cell is None:
            cell = self.library.default_flip_flop().name
        self._netlist.add(
            Gate(name=name, gtype=GateType.DFF, fanins=(data,), cell=cell)
        )
        return name

    def gate(
        self,
        name: str,
        function: str,
        fanins: Sequence[str],
        drive: int = 1,
    ) -> str:
        """Add a combinational gate, picking a cell for ``function``.

        Variadic functions (AND/NAND/OR/NOR/XOR) with more than the
        widest available cell are decomposed into a balanced tree of
        2/3-input cells, adding helper gates named ``{name}__t{i}``.
        """
        self._check_open()
        function = function.upper()
        if function == "NOT":
            function = "INV"
        if function not in FUNCTIONS:
            raise ValueError(f"unsupported generic function {function!r}")
        fanins = list(fanins)
        if function in ("BUF", "INV") and len(fanins) != 1:
            raise ValueError(f"{function} takes one input")

        if function in ("AND", "OR", "XOR", "XNOR", "NAND", "NOR"):
            return self._tree_gate(name, function, fanins, drive)
        cell = self._pick(function, len(fanins), drive)
        self._netlist.add(
            Gate(name=name, gtype=GateType.COMB, fanins=tuple(fanins), cell=cell)
        )
        return name

    def buffer(self, name: str, fanin: str, drive: int = 1) -> str:
        """Insert a buffer gate."""
        return self.gate(name, "BUF", [fanin], drive)

    # -- internals ------------------------------------------------------

    def _pick(self, function: str, n_inputs: int, drive: int) -> str:
        return self.library.pick_comb(function, n_inputs, drive).name

    def _tree_gate(
        self, name: str, function: str, fanins: Sequence[str], drive: int
    ) -> str:
        """Decompose a wide variadic gate into a tree of library cells."""
        if len(fanins) == 1:
            return self.buffer(name, fanins[0], drive)
        top = function
        # NAND(a,b,c,d) == NAND(AND(a,b), AND(c,d)): inner reductions
        # use the non-inverting companion of the top function.
        inner = {"NAND": "AND", "NOR": "OR", "XNOR": "XOR"}.get(
            function, function
        )
        top_widths = self.library.input_widths(top)
        if not top_widths:
            raise KeyError(f"library has no {top} cell at any width")
        max_top = max(top_widths)

        level = list(fanins)
        counter = 0
        while len(level) > max_top:
            # Reduce pairwise with inner cells until the top can finish.
            next_level = []
            for index in range(0, len(level), 2):
                chunk = level[index : index + 2]
                if len(chunk) == 1:
                    next_level.append(chunk[0])
                    continue
                helper = f"{name}__t{counter}"
                counter += 1
                cell = self._pick(inner, len(chunk), drive)
                self._netlist.add(
                    Gate(
                        name=helper,
                        gtype=GateType.COMB,
                        fanins=tuple(chunk),
                        cell=cell,
                    )
                )
                next_level.append(helper)
            level = next_level
        width = len(level)
        if width not in top_widths:
            width = min(w for w in top_widths if w >= width)
            # Pad by duplicating the last operand (idempotent for
            # AND/OR family; never needed for XOR which is width 2).
            level = level + [level[-1]] * (width - len(level))
        cell = self._pick(top, len(level), drive)
        self._netlist.add(
            Gate(name=name, gtype=GateType.COMB, fanins=tuple(level), cell=cell)
        )
        return name

    def build(self) -> Netlist:
        """Finalize and validate the netlist; the builder closes."""
        self._built = True
        netlist = self._netlist
        netlist.topo_order()  # force validation of connectivity/cycles
        return netlist
