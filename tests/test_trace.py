"""Trace format and ISA constructors."""

import pytest

from repro.core import isa
from repro.core.addressing import Coordinate, Orientation
from repro.cpu.trace import Access, Op, merge_traces


class TestAccess:
    def test_defaults(self):
        access = Access(Op.READ, 0x100)
        assert access.size == 8 and access.gap == 1
        assert not access.barrier and not access.pin
        assert access.orientation is Orientation.ROW

    def test_orientation_follows_op(self):
        assert Access(Op.CREAD, 0).orientation is Orientation.COLUMN
        assert Access(Op.CWRITE, 0).orientation is Orientation.COLUMN
        assert Access(Op.GATHER, 0).orientation is Orientation.GATHER
        assert Access(Op.WRITE, 0).orientation is Orientation.ROW

    def test_orientation_override(self):
        access = Access(Op.UNPIN, 0, orientation=Orientation.ROW)
        assert access.orientation is Orientation.ROW

    def test_is_write(self):
        assert Access(Op.WRITE, 0).is_write
        assert Access(Op.CWRITE, 0).is_write
        assert not Access(Op.READ, 0).is_write
        assert not Access(Op.GATHER, 0).is_write

    def test_repr_mentions_flags(self):
        access = Access(Op.CREAD, 0x40, barrier=True, pin=True)
        text = repr(access)
        assert "B" in text and "P" in text and "CREAD" in text


class TestIsaConstructors:
    def test_load_store(self):
        assert isa.load(0x10).op == Op.READ
        assert isa.store(0x10).op == Op.WRITE

    def test_cload_cstore(self):
        assert isa.cload(0x10).op == Op.CREAD
        assert isa.cstore(0x10).op == Op.CWRITE

    def test_gather_carries_coord(self):
        coord = Coordinate(0, 0, 0, 0, 1, 2)
        access = isa.gather_load(0x10, coord)
        assert access.op == Op.GATHER and access.coord == coord
        assert access.size == 64

    def test_unpin_orientation(self):
        assert isa.unpin(0, 64).orientation is Orientation.COLUMN
        assert isa.unpin(0, 64, Orientation.ROW).orientation is Orientation.ROW

    def test_pin_flag(self):
        assert isa.cload(0x10, pin=True).pin
        assert not isa.cload(0x10).pin


class TestMergeTraces:
    def test_concatenates_lazily(self):
        first = [isa.load(0), isa.load(8)]
        second = [isa.store(16)]
        merged = merge_traces(first, second)
        assert [a.address for a in merged] == [0, 8, 16]

    def test_empty(self):
        assert list(merge_traces()) == []


class TestErrorsHierarchy:
    def test_all_errors_are_repro_errors(self):
        from repro import errors

        for name in (
            "AddressError",
            "CapabilityError",
            "ConfigurationError",
            "LayoutError",
            "ProtocolError",
            "SqlError",
        ):
            assert issubclass(getattr(errors, name), errors.ReproError)

    def test_tracefile_error(self):
        from repro.cpu.tracefile import TraceFormatError
        from repro.errors import ReproError

        assert issubclass(TraceFormatError, ReproError)
