"""Unit tests for the structure-of-arrays trace buffer."""

import numpy as np
import pytest

from repro.core.addressing import Coordinate, Orientation
from repro.cpu.trace import Access, Op
from repro.cpu.tracebuffer import (
    LINE_BARRIER,
    LINE_GATHER,
    LINE_PIN,
    LINE_UNPIN,
    LINE_WRITE,
    TraceBuffer,
)
from repro.cache.line import line_key


def _sample_accesses():
    return [
        Access(Op.READ, 0x0, size=8, gap=1),
        Access(Op.READ, 0x38, size=16, gap=3),  # straddles a line boundary
        Access(Op.WRITE, 0x100, size=8, gap=0, barrier=True),
        Access(Op.CREAD, 0x40, size=128, gap=2, pin=True),
        Access(Op.GATHER, 0x2000, size=64, gap=1,
               coord=Coordinate(0, 0, 0, 0, 3, 5)),
        Access(Op.UNPIN, 0x40, size=128, gap=0, orientation=Orientation.COLUMN),
    ]


def _same_access(a, b):
    return (
        a.op == b.op
        and a.address == b.address
        and a.size == b.size
        and a.gap == b.gap
        and a.barrier == b.barrier
        and a.pin == b.pin
        and a.coord == b.coord
        and a.orientation == b.orientation
    )


class TestListCompatibility:
    def test_roundtrip_through_append_and_iter(self):
        buffer = TraceBuffer()
        originals = _sample_accesses()
        for access in originals:
            buffer.append(access)
        assert len(buffer) == len(originals)
        for got, expected in zip(buffer, originals):
            assert _same_access(got, expected)

    def test_getitem_and_slice(self):
        buffer = TraceBuffer()
        buffer.extend(_sample_accesses())
        assert _same_access(buffer[2], _sample_accesses()[2])
        assert _same_access(buffer[-1], _sample_accesses()[-1])
        tail = buffer[4:]
        assert len(tail) == 2 and tail[0].op == Op.GATHER
        with pytest.raises(IndexError):
            buffer[len(buffer)]

    def test_iteration_sees_staged_appends(self):
        buffer = TraceBuffer()
        buffer.emit(int(Op.READ), 0x80)
        # No flush threshold reached: the access only exists in the
        # staging list, and must still be visible.
        assert len(buffer) == 1
        assert buffer[0].address == 0x80


class TestBulkOperations:
    def test_extend_concatenates_buffers_columnwise(self):
        left, right = TraceBuffer(), TraceBuffer()
        accesses = _sample_accesses()
        left.extend(accesses[:3])
        right.extend(accesses[3:])
        left.extend(right)
        assert len(left) == len(accesses)
        for got, expected in zip(left, accesses):
            assert _same_access(got, expected)
        # The gather coordinate moved over with rebased position.
        assert left[4].coord == Coordinate(0, 0, 0, 0, 3, 5)

    def test_extend_bulk_matches_scalar_emits(self):
        bulk, scalar = TraceBuffer(), TraceBuffer()
        addresses = np.arange(16, dtype=np.int64) * 64
        bulk.extend_bulk(int(Op.CREAD), addresses, 64, 1)
        for address in addresses:
            scalar.emit(int(Op.CREAD), int(address), 64, 1)
        assert len(bulk) == len(scalar)
        for a, b in zip(bulk, scalar):
            assert _same_access(a, b)

    def test_reads_to_writes(self):
        buffer = TraceBuffer()
        buffer.emit(int(Op.READ), 0x0)
        buffer.emit(int(Op.CREAD), 0x40)
        buffer.emit(int(Op.READ), 0x80)
        buffer.reads_to_writes(start=1)
        ops = [access.op for access in buffer]
        assert ops == [Op.READ, Op.CWRITE, Op.WRITE]


class TestFinalize:
    def test_line_splitting_and_keys(self):
        buffer = TraceBuffer()
        # 16 bytes starting 8 bytes before a line boundary: two lines.
        buffer.emit(int(Op.READ), 0x38, 16, 3)
        fin = buffer.finalize()
        assert fin.n_lines == 2
        keys = fin.line_key.tolist()
        assert keys == [
            line_key(0x38, Orientation.ROW),
            line_key(0x40, Orientation.ROW),
        ]
        # The inter-access gap is charged once, on the first line.
        assert fin.line_gap.tolist() == [3, 0]

    def test_write_word_masks_are_partial(self):
        buffer = TraceBuffer()
        buffer.emit(int(Op.WRITE), 0x10, 16, 1)  # words 2..3 of the line
        fin = buffer.finalize()
        assert fin.line_special.tolist() == [LINE_WRITE]
        assert fin.line_mask.tolist() == [0b00001100]

    def test_special_bits(self):
        buffer = TraceBuffer()
        buffer.extend(_sample_accesses())
        fin = buffer.finalize()
        specials = fin.line_special
        assert (specials[(fin.acc_op[fin.line_acc] == int(Op.GATHER))]
                & LINE_GATHER).all()
        assert (specials[(fin.acc_op[fin.line_acc] == int(Op.UNPIN))]
                & LINE_UNPIN).all()
        # Barrier marks only the access's first line.
        barrier_lines = (specials & LINE_BARRIER) != 0
        assert int(barrier_lines.sum()) == 1
        pin_lines = (specials & LINE_PIN) != 0
        assert int(pin_lines.sum()) == 2  # the 128-byte pinned cread

    def test_counters_exclude_unpins(self):
        buffer = TraceBuffer()
        buffer.extend(_sample_accesses())
        fin = buffer.finalize()
        assert fin.n_accesses == 5  # UNPIN is bookkeeping, not an access
        assert fin.n_writes == 1
        assert fin.n_reads == 4
        assert fin.has_column and fin.has_gather

    def test_finalize_is_cached_and_invalidated(self):
        buffer = TraceBuffer()
        buffer.emit(int(Op.READ), 0x0)
        first = buffer.finalize()
        assert buffer.finalize() is first
        buffer.emit(int(Op.READ), 0x40)
        assert buffer.finalize() is not first


class TestDecodeCaching:
    """Replaying a finalized trace repeatedly must decode line addresses
    exactly once per mapper — the regression these tests pin is decode
    work silently reappearing on the serving path's hot loop."""

    def _counted_mapper(self, monkeypatch, system="RC-NVM"):
        from repro.harness.systems import build_system

        mapper = build_system(system, small=True).mapper
        calls = []
        original = type(mapper).decode_fields
        monkeypatch.setattr(
            type(mapper), "decode_fields",
            lambda self, *a, **kw: calls.append(1) or original(self, *a, **kw),
        )
        return mapper, calls

    def test_decode_fields_called_once_per_mapper(self, monkeypatch):
        mapper, calls = self._counted_mapper(monkeypatch)
        buffer = TraceBuffer()
        buffer.extend(_sample_accesses())
        fin = buffer.finalize()
        arrays = fin.decoded_arrays_for(mapper)
        lists = fin.decoded_for(mapper)
        assert fin.decoded_arrays_for(mapper) is arrays
        assert fin.decoded_for(mapper) is lists
        assert len(calls) == 1
        for column, flat in zip(arrays, lists):
            assert column.tolist() == flat

    def test_repeat_replay_never_redecodes(self, monkeypatch):
        from repro.cpu.replaykernel import _outcome_key
        from repro.harness.systems import SMALL_CACHE_CONFIG, build_system
        from repro.imdb.database import Database

        memory = build_system("RC-NVM", small=True)
        db = Database(memory, cache_config=SMALL_CACHE_CONFIG)
        db.create_table("t", [("f1", 8)], layout="row")
        db.insert_many("t", [(i,) for i in range(32)])
        plan = db.plan("SELECT SUM(f1) FROM t")
        _result, buffer = db.executor.execute(plan)
        fin = buffer.finalize()
        calls = []
        original = type(memory.mapper).decode_fields
        monkeypatch.setattr(
            type(memory.mapper), "decode_fields",
            lambda self, *a, **kw: calls.append(1) or original(self, *a, **kw),
        )
        # Kernel, batched, kernel again: one decode shared by all three.
        for replay in ("run", "_run_batched", "run"):
            db.reset_timing()
            getattr(db.machine, replay)(fin)
        assert _outcome_key(db.machine) in fin._kernel_cache
        assert len(calls) == 1


class TestTraceFileRoundtrip:
    def test_load_trace_buffer_matches_load_trace(self, tmp_path):
        from repro.cpu.tracefile import load_trace, save_trace

        path = tmp_path / "trace.txt"
        save_trace(path, _sample_accesses())
        from_file = list(load_trace(path))
        buffered = TraceBuffer()
        buffered.extend(load_trace(path))
        assert len(buffered) == len(from_file)
        for a, b in zip(buffered, from_file):
            assert _same_access(a, b)
