"""Tests for the library container and the default-library builder."""

import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cells import (
    CombCell,
    DelayModel,
    LatchCell,
    LatchGroup,
    Library,
    TimingArc,
    build_virtual_library,
    default_library,
)
from repro.cells.builder import (
    FF_AREA,
    LATCH_AREA_RATIO,
    LVT_AREA_FACTOR,
    _COMB_SPECS,
)
from repro.clocks import scheme_from_period
from repro.synth.recovery import recover_area
from repro.synth.sizing import speed_paths


class TestLibraryQueries:
    def test_duplicate_cell_rejected(self, library):
        with pytest.raises(ValueError):
            library.add(library["INV_X1"])

    def test_getitem_missing(self, library):
        with pytest.raises(KeyError):
            library["NO_SUCH_CELL"]

    def test_contains(self, library):
        assert "INV_X1" in library
        assert "INV_X9" not in library

    def test_drive_variants_same_vt(self, library):
        variants = library.drive_variants(library["NAND2_X1"])
        assert [c.drive for c in variants] == [1, 2, 4]
        assert all(c.vt == "svt" for c in variants)

    def test_next_drive_up(self, library):
        assert library.next_drive_up(library["INV_X1"]).name == "INV_X2"
        assert library.next_drive_up(library["INV_X2"]).name == "INV_X4"
        assert library.next_drive_up(library["INV_X4"]) is None

    def test_vt_variant(self, library):
        lvt = library.vt_variant(library["NOR2_X2"], "lvt")
        assert lvt.name == "NOR2_LVT_X2"
        assert lvt.drive == 2
        # Same-vt request returns the cell itself.
        assert library.vt_variant(lvt, "lvt") is lvt
        back = library.vt_variant(lvt, "svt")
        assert back.name == "NOR2_X2"

    def test_comb_by_function_svt_only(self, library):
        cells = library.comb_by_function("NAND", 2)
        assert all(c.vt == "svt" for c in cells)
        assert [c.drive for c in cells] == [1, 2, 4]

    def test_pick_comb_fallback(self, library):
        cell = library.pick_comb("XOR", 2, drive=16)
        assert cell.drive == 1  # falls back to weakest

    def test_pick_comb_missing(self, library):
        with pytest.raises(KeyError):
            library.pick_comb("NAND", 7)

    def test_default_latch_and_edl(self, library):
        latch = library.default_latch()
        edl = library.edl_latch()
        assert not latch.error_detecting
        assert edl.error_detecting
        assert edl.area > latch.area

    def test_default_flip_flop(self, library):
        ff = library.default_flip_flop()
        assert ff.name == "DFF_X1"
        assert not ff.error_detecting

    def test_stats(self, library):
        stats = library.stats()
        assert stats["latches"] == 2
        assert stats["flip_flops"] == 2
        assert stats["combinational"] == stats["cells"] - 4

    def test_from_cells(self, library):
        lib = Library.from_cells("sub", [library["INV_X1"], library["BUF_X1"]])
        assert len(lib) == 2


class TestDefaultLibrary:
    def test_latch_to_ff_ratio_is_43_percent(self, library):
        """Paper Section VI-D: latch area is 43% of a flip-flop's."""
        latch = library.default_latch()
        ff = library.default_flip_flop()
        assert latch.area / ff.area == pytest.approx(LATCH_AREA_RATIO)

    def test_edl_area_scales_with_overhead(self):
        for c in (0.5, 1.0, 2.0):
            lib = default_library(edl_overhead=c)
            latch = lib.default_latch()
            edl = lib.edl_latch()
            assert edl.area == pytest.approx(latch.area * (1 + c))
            assert edl.overhead == c

    def test_negative_overhead_rejected(self):
        with pytest.raises(ValueError):
            default_library(edl_overhead=-0.1)

    def test_every_function_at_every_drive_and_vt(self, library):
        for base in _COMB_SPECS:
            for drive in (1, 2, 4):
                assert f"{base}_X{drive}" in library
                assert f"{base}_LVT_X{drive}" in library

    def test_lvt_faster_same_pins(self, library):
        svt = library["NAND2_X1"]
        lvt = library["NAND2_LVT_X1"]
        load = 3.0
        assert lvt.worst_delay(load) < svt.worst_delay(load)
        assert lvt.area == pytest.approx(svt.area * LVT_AREA_FACTOR)
        for pin in svt.inputs:
            assert lvt.pin_cap(pin) == pytest.approx(svt.pin_cap(pin))

    def test_stronger_drive_wins_under_load(self, library):
        x1 = library["INV_X1"]
        x4 = library["INV_X4"]
        assert x4.worst_delay(8.0) < x1.worst_delay(8.0)
        assert x4.area > x1.area

    def test_latch_dq_vs_ckq_gap(self, library):
        """Section III: D->Q and CK->Q can differ by up to 40%."""
        latch = library.default_latch()
        gap = latch.ck_to_q / latch.d_to_q
        assert 1.2 <= gap <= 1.5

    def test_edl_master_has_heavier_d_pin(self, library):
        assert (
            library["DFF_ED_X1"].input_cap > library["DFF_X1"].input_cap
        )
        assert (
            library["LATCH_ED_X1"].input_cap
            > library["LATCH_X1"].input_cap
        )

    def test_unsupported_drive_rejected(self):
        with pytest.raises(ValueError):
            default_library(drives=(1, 3))


class TestVirtualLibrary:
    def test_three_groups(self, library):
        scheme = scheme_from_period(1.0)
        vl = build_virtual_library(library, scheme, overhead=1.0)
        assert vl.library.group_of("VLATCH_N_X1") is LatchGroup.NON_EDL
        assert vl.library.group_of("VLATCH_E_X1") is LatchGroup.EDL
        assert vl.library.group_of("LATCH_X1") is LatchGroup.NORMAL

    def test_non_edl_setup_extended_by_window(self, library):
        """Section V: non-EDL setup grows by the resiliency window."""
        scheme = scheme_from_period(1.0)
        vl = build_virtual_library(library, scheme, overhead=1.0)
        base_setup = library.default_latch().timing.setup
        assert vl.non_edl.timing.setup == pytest.approx(
            base_setup + scheme.resiliency_window
        )

    def test_edl_area_inflated(self, library):
        scheme = scheme_from_period(1.0)
        for c in (0.5, 2.0):
            vl = build_virtual_library(library, scheme, overhead=c)
            assert vl.edl.area == pytest.approx(
                vl.normal.area * (1 + c)
            )

    def test_arrival_limits(self, library):
        scheme = scheme_from_period(1.0)
        vl = build_virtual_library(library, scheme, overhead=1.0)
        assert vl.arrival_limit(LatchGroup.NON_EDL) == pytest.approx(
            scheme.window_open
        )
        assert vl.arrival_limit(LatchGroup.EDL) == pytest.approx(
            scheme.window_close
        )

    def test_negative_overhead_rejected(self, library):
        with pytest.raises(ValueError):
            build_virtual_library(library, scheme_from_period(1.0), -1.0)

    def test_group_area_ordering(self, library):
        scheme = scheme_from_period(1.0)
        vl = build_virtual_library(library, scheme, overhead=1.0)
        assert vl.group_area(LatchGroup.EDL) > vl.group_area(
            LatchGroup.NORMAL
        )
        assert vl.group_area(LatchGroup.NON_EDL) == pytest.approx(
            vl.group_area(LatchGroup.NORMAL)
        )


# -- the variant index against a linear scan ------------------------------
#
# The oracle is the scan every query made before the index existed:
# filter every combinational cell, then sort stably by drive.


def _scan(library):
    return [c for c in library.cells.values() if isinstance(c, CombCell)]


def _oracle_drive_variants(library, cell):
    variants = [
        c
        for c in _scan(library)
        if c.base_name == cell.base_name and c.vt == cell.vt
    ]
    return sorted(variants, key=lambda c: c.drive)


def _oracle_next_drive_up(library, cell):
    for candidate in _oracle_drive_variants(library, cell):
        if candidate.drive > cell.drive:
            return candidate
    return None


def _oracle_vt_variant(library, cell, vt):
    if cell.vt == vt:
        return cell
    for candidate in _scan(library):
        if (
            candidate.base_name == cell.base_name
            and candidate.drive == cell.drive
            and candidate.vt == vt
        ):
            return candidate
    return None


def _oracle_comb_by_function(library, function, n_inputs, vt="svt"):
    return sorted(
        (
            c
            for c in _scan(library)
            if c.function == function
            and len(c.inputs) == n_inputs
            and c.vt == vt
        ),
        key=lambda c: c.drive,
    )


def _oracle_pick_comb(library, function, n_inputs, drive):
    candidates = _oracle_comb_by_function(library, function, n_inputs)
    if not candidates:
        return None
    for cell in candidates:
        if cell.drive == drive:
            return cell
    return candidates[0]


def _oracle_input_widths(library, function):
    return sorted(
        {len(c.inputs) for c in _scan(library) if c.function == function},
        reverse=True,
    )


_SHAPES = (
    ("INV", 1),
    ("BUF", 1),
    ("NAND", 2),
    ("NAND", 3),
    ("XOR", 2),
    ("AOI21", 3),
)
_DRIVES = (1, 2, 4, 8)
_VTS = ("svt", "lvt")
#: Plain bases plus ones that already carry a suffix-like tail, so
#: ``base_name`` strips only the last ``_X`` and the ``_LVT`` under it.
_BASES = st.text(alphabet="AB", min_size=1, max_size=2) | st.sampled_from(
    ["NAND2", "A_X", "A_X1", "B_LVT", "_X", "_LVT"]
)


def _comb(name, shape, drive, vt):
    function, n_inputs = shape
    pins = ("A", "B", "C")[:n_inputs]
    model = DelayModel(intrinsic=0.01, resistance=0.1 / drive)
    return CombCell(
        name=name,
        area=float(drive),
        function=function,
        inputs=pins,
        arcs={pin: TimingArc(pin, model, model) for pin in pins},
        drive=drive,
        vt=vt,
    )


@st.composite
def _families(draw):
    """The cells of one base: some Vts (maybe LVT only), some drives
    (maybe with steps missing), each name with or without its
    ``_LVT``/``_X<n>`` suffixes, and maybe a twin that shares a
    ``(base, drive, vt)`` under another name."""
    base = draw(_BASES)
    shape = draw(st.sampled_from(_SHAPES))
    vts = draw(st.sets(st.sampled_from(_VTS), min_size=1))
    drives = draw(st.sets(st.sampled_from(_DRIVES), min_size=1))
    cells = []
    for vt in sorted(vts):
        for drive in sorted(drives):
            tags = draw(st.lists(st.booleans(), min_size=2, max_size=2))
            copies = 2 if draw(st.integers(0, 3)) == 0 else 1
            for copy in range(copies):
                lvt_tag, x_tag = tags[0] != bool(copy), tags[1]
                name = (
                    base
                    + ("_LVT" if lvt_tag else "")
                    + (f"_X{drive}" if x_tag else "")
                )
                cells.append(_comb(name, shape, drive, vt))
    return cells


@st.composite
def _generated(draw):
    """(cells in insertion order, how many go in before the first query,
    probe cells that are not in the library)."""
    families = draw(st.lists(_families(), min_size=1, max_size=5))
    cells, names = [], set()
    for cell in draw(st.permutations([c for f in families for c in f])):
        if cell.name not in names:
            names.add(cell.name)
            cells.append(cell)
    split = draw(st.integers(0, len(cells)))
    strangers = draw(st.lists(_families(), max_size=2))
    return cells, split, [c for f in strangers for c in f]


def _same(got, want):
    assert len(got) == len(want)
    assert all(g is w for g, w in zip(got, want))


def _assert_matches_scan(library, probes):
    for cell in probes:
        library.drive_variants(cell).clear()  # every call gets a fresh list
        _same(
            library.drive_variants(cell),
            _oracle_drive_variants(library, cell),
        )
        assert library.next_drive_up(cell) is _oracle_next_drive_up(
            library, cell
        )
        for vt in _VTS:
            assert library.vt_variant(cell, vt) is _oracle_vt_variant(
                library, cell, vt
            )
    for function, n_inputs in _SHAPES + (("MUX2", 3),):
        for vt in _VTS:
            library.comb_by_function(function, n_inputs, vt).clear()
            _same(
                library.comb_by_function(function, n_inputs, vt),
                _oracle_comb_by_function(library, function, n_inputs, vt),
            )
        for drive in _DRIVES + (16,):
            want = _oracle_pick_comb(library, function, n_inputs, drive)
            if want is None:
                with pytest.raises(KeyError):
                    library.pick_comb(function, n_inputs, drive)
            else:
                assert library.pick_comb(function, n_inputs, drive) is want
        assert library.input_widths(function) == _oracle_input_widths(
            library, function
        )


class TestVariantIndex:
    @settings(max_examples=80, deadline=None)
    @given(_generated())
    @example(  # twins: two svt names share base T at drive 2
        (
            [
                _comb("T_LVT", ("INV", 1), 2, "lvt"),
                _comb("T_X2", ("INV", 1), 2, "svt"),
                _comb("T_LVT_X2", ("INV", 1), 2, "svt"),
            ],
            1,
            [],
        )
    )
    def test_queries_match_a_linear_scan(self, generated):
        cells, split, strangers = generated
        probes = cells + strangers
        library = Library("gen")
        library.add(LatchCell(name="LATCH_X1", area=1.0))
        for cell in cells[:split]:
            library.add(cell)
        _assert_matches_scan(library, probes)
        for cell in cells[split:]:  # added after the first query
            library.add(cell)
        _assert_matches_scan(library, probes)
        _assert_matches_scan(pickle.loads(pickle.dumps(library)), probes)
        _assert_matches_scan(
            Library("ctor", cells=dict(library.cells)), probes
        )
        virtual = build_virtual_library(
            library, scheme_from_period(1.0), overhead=1.0
        )
        _assert_matches_scan(virtual.library, probes)

    def test_sizing_strips_one_base_name_per_query(
        self, s1196_initial, monkeypatch
    ):
        """Sizing queries answer from the index: a pass strips at most
        one cell name per ``Library`` query, not one per library cell."""
        circuit, placement, _ = s1196_initial
        counts = {"base_name": 0, "queries": 0}
        strip = CombCell.base_name.fget

        def counted_base_name(cell):
            counts["base_name"] += 1
            return strip(cell)

        def counted(query):
            def call(*args, **kwargs):
                counts["queries"] += 1
                return query(*args, **kwargs)

            return call

        monkeypatch.setattr(CombCell, "base_name", property(counted_base_name))
        for name in (
            "drive_variants",
            "next_drive_up",
            "vt_variant",
            "comb_by_function",
            "pick_comb",
        ):
            monkeypatch.setattr(Library, name, counted(getattr(Library, name)))

        loose = {
            name: circuit.scheme.window_close * 10
            for name in circuit.endpoint_names
        }
        recover_area(circuit, placement, loose, max_passes=1)
        engine = circuit.engine
        endpoint = max(circuit.endpoint_names, key=engine.endpoint_arrival)
        speed_paths(
            circuit, {endpoint: engine.worst_arrival() * 0.8}, max_passes=1
        )
        assert counts["queries"] > 0
        assert counts["base_name"] <= counts["queries"]
