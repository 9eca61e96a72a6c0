"""Durability manager: WAL hooks, the persistence barrier, and commit.

One :class:`DurabilityManager` belongs to one
:class:`~repro.imdb.database.Database`.  It reserves the WAL rectangle
through the shared allocator (so placement — and therefore recovery —
is deterministic: durability must be enabled *before* any table is
created), appends records as the database mutates state, and runs the
epoch commit protocol per Lersch et al.'s persistence-barrier design:

1. the statement's cell writes happen (log records first — the WAL
   write is in the statement's trace *before* the data write);
2. ``pre-flush`` crash point;
3. :meth:`~repro.cpu.machine.Machine.flush_caches` pushes every dirty
   line into the cell arrays (``mid-flush`` crash points between
   lines);
4. ``post-flush-pre-commit`` crash point — the torn-commit window;
5. the commit marker is written and charged as non-temporal line
   stores (ntstore + drain — WAL appends bypass the cache hierarchy).

Schema operations (create/drop table, bulk insert, index builds) are
load-path work the paper does not time; they log and self-commit
functionally.  Statement-level tuple writes are logged *into the
statement's trace*, so WAL traffic shows up in
:class:`~repro.memsim.stats.MemoryStats`, the trace-geometry audit,
and ``repro.obs`` spans like any other memory the engine touches.
"""

from dataclasses import dataclass

import numpy as np

from repro.core.addressing import Orientation
from repro.errors import LayoutError
from repro.geometry import WORD_BYTES, WORDS_PER_LINE
from repro.obs import tracer as obs
from repro.durability.wal import (
    RecordType,
    WalReader,
    WalRegion,
    WalWriter,
    create_table_payload,
    drop_table_payload,
    insert_payload,
    name_field_payload,
    tuple_write_block,
)


@dataclass
class DurabilityReceipt:
    """What one durable statement commit cost."""

    seq: int
    #: Records logged for the statement (commit marker excluded).
    records: int
    #: WAL cells the statement's records occupy (commit marker included).
    wal_words: int
    #: Dirty cache lines the persistence barrier wrote back.
    flushed_lines: int
    #: 64-byte lines the commit marker itself touched.
    commit_lines: int


class DurabilityManager:
    """WAL writer + persistence barrier for one database."""

    def __init__(self, database, wal_rows=None):
        geometry = database.physmem.geometry
        rows = wal_rows if wal_rows is not None else geometry.rows
        if not 0 < rows <= geometry.rows:
            raise LayoutError(
                f"wal_rows {rows} outside (0, {geometry.rows}]"
            )
        self.database = database
        self.wal_rows = rows
        placement = database.allocator.place(geometry.cols, rows)
        self.region = WalRegion(database.physmem, placement)
        self.writer = WalWriter(self.region)
        #: Optional armed :class:`~repro.durability.crash.CrashInjector`.
        self.injector = None
        #: True while recovery replays the log (suppresses re-logging).
        self.replaying = False
        self._next_seq = 1
        self._open_seq = None
        self._open_records = 0
        self._open_words = 0

    # -- shared plumbing -----------------------------------------------------
    @property
    def pending(self):
        """A statement group is open and awaiting its commit marker."""
        return self._open_seq is not None

    def crash_point(self, site):
        """Pass one named crash site (no-op unless an injector is armed)."""
        if self.injector is not None:
            self.injector.point(site)

    def _channel(self):
        return self.database.physmem.subarray_coord(self.region.subarray)[0]

    def _append(self, rtype, seq, payload):
        """Write and charge one record."""
        segments, words = self.writer.append(rtype, seq, payload)
        self.database.memory.charge_wal(self._channel(), 1, words)
        return segments, words

    def rects(self):
        """WAL rectangles for the trace-geometry audit."""
        return [self.region.rect()]

    def scan(self):
        """``(records, torn_tail)`` from the surviving cells."""
        return WalReader(self.region).scan()

    # -- load-path (schema) logging: log + self-commit -----------------------
    def _self_commit(self, rtype, payload):
        if self.replaying:
            return
        seq = self._next_seq
        self._next_seq += 1
        self._append(rtype, seq, payload)
        self._append(RecordType.COMMIT, seq, [])

    def log_create_table(self, table):
        fields = [(f.name, f.nbytes) for f in table.schema.fields]
        self._self_commit(
            RecordType.CREATE_TABLE,
            create_table_payload(table.name, fields, table.layout.value),
        )

    def log_insert(self, name, packed):
        self._self_commit(RecordType.INSERT, insert_payload(name, packed))

    def log_create_index(self, name, field):
        self._self_commit(
            RecordType.CREATE_INDEX, name_field_payload(name, field)
        )

    def log_drop_index(self, name, field):
        self._self_commit(
            RecordType.DROP_INDEX, name_field_payload(name, field)
        )

    def log_create_ordered_index(self, name, field):
        self._self_commit(
            RecordType.CREATE_ORDERED_INDEX, name_field_payload(name, field)
        )

    def log_drop_ordered_index(self, name, field):
        self._self_commit(
            RecordType.DROP_ORDERED_INDEX, name_field_payload(name, field)
        )

    def log_drop_table(self, name):
        self._self_commit(RecordType.DROP_TABLE, drop_table_payload(name))

    # -- statement-path logging and the commit protocol ----------------------
    def begin_statement(self):
        """Drop any stale open group (a statement that raised after
        logging leaves its records uncommitted — replay discards them)."""
        self._open_seq = None
        self._open_records = 0
        self._open_words = 0

    def log_tuple_write(self, table_name, tuple_ids, assignments):
        """Log a statement's tuple writes *before* its data writes: one
        record per tuple and ``(field, value)`` assignment, tuple-major and
        in SET order, written as one block.  A value that does not fit a
        cell, or a block that does not fit the log, raises before any WAL
        cell changes.  The records are charged at commit time, so
        ``fresh_timing`` statement resets cannot wipe them.

        Returns the trace accesses ``(addresses, sizes, bounds)``: one
        row write per row segment of each record, tuple ``i``'s at
        ``bounds[i]:bounds[i + 1]``."""
        if self.replaying or not len(tuple_ids):
            return None
        seq = self._next_seq if self._open_seq is None else self._open_seq
        blocks = [tuple_write_block(seq, table_name, field, tuple_ids, value)
                  for field, value in assignments]
        words = np.concatenate(blocks, axis=1).reshape(-1)
        start = self.writer.cursor
        records = len(tuple_ids) * len(blocks)
        self.writer.append_block(words, records)
        if self._open_seq is None:
            self._open_seq = seq
            self._next_seq += 1
        self._open_records += records
        self._open_words += len(words)
        # Each record splits where it crosses a row of the rectangle.
        lengths = np.tile([block.shape[1] for block in blocks], len(tuple_ids))
        starts = start + np.cumsum(lengths) - lengths
        end = start + len(words)
        p = self.region.placement
        cuts = np.union1d(starts, np.arange((start // p.width + 1) * p.width,
                                            end, p.width))
        rows, cols = np.divmod(cuts, p.width)
        physmem = self.database.physmem
        addresses = physmem.mapper.encode_cells(
            *physmem.subarray_coord(self.region.subarray),
            p.y + rows, p.x + cols, Orientation.ROW,
        )
        sizes = np.diff(cuts, append=end) * WORD_BYTES
        bounds = np.append(np.searchsorted(cuts, starts[::len(blocks)]), len(cuts))
        return addresses, sizes, bounds

    def commit_statement(self, machine):
        """Run the persistence barrier and write the commit marker.

        Raises :class:`~repro.durability.crash.SimulatedCrash` if the
        armed injector fires at one of the commit-path sites; in that
        case the statement stays uncommitted (no marker) and recovery
        discards its records."""
        seq = self._open_seq
        if seq is None:
            return None
        memory = self.database.memory
        with obs.span("durability.commit", seq=seq) as sp:
            self.crash_point("pre-flush")
            flushed = machine.flush_caches(
                on_line=lambda _n: self.crash_point("mid-flush")
            )
            self.crash_point("post-flush-pre-commit")
            segments, marker_words = self._append(RecordType.COMMIT, seq, [])
            # The group's records were written during execution but are
            # charged here, after any fresh-timing stats reset.
            if self._open_records:
                memory.charge_wal(
                    self._channel(), self._open_records, self._open_words
                )
            # The marker is charged as non-temporal line stores plus a
            # drain: WAL appends bypass the cache hierarchy so the
            # record is durable the moment the controller retires it.
            commit_lines = 0
            for row, col, count in segments:
                first = col // WORDS_PER_LINE
                last = (col + count - 1) // WORDS_PER_LINE
                for line in range(first, last + 1):
                    coord = self.database.physmem.coordinate(
                        self.region.subarray, row, line * WORDS_PER_LINE
                    )
                    memory.request_for_coord(coord, Orientation.ROW, True, 0)
                    commit_lines += 1
            memory.drain()
            memory.charge_persist(self._channel(), flushed)
            receipt = DurabilityReceipt(
                seq=seq,
                records=self._open_records,
                wal_words=self._open_words + marker_words,
                flushed_lines=flushed,
                commit_lines=commit_lines,
            )
            if sp.enabled:
                sp.set(
                    flushed_lines=flushed,
                    wal_records=receipt.records,
                    wal_words=receipt.wal_words,
                    commit_lines=commit_lines,
                )
        self._open_seq = None
        self._open_records = 0
        self._open_words = 0
        return receipt

    # -- recovery plumbing ----------------------------------------------------
    def resume(self, offset, next_seq):
        """Adopt a recovered log: cursor past the committed prefix, tail
        zeroed, sequence numbering continuing where the log left off."""
        self.writer.resume(offset)
        self._next_seq = max(self._next_seq, next_seq)

    @property
    def wal_words_written(self):
        """Total WAL cells occupied so far (write-amplification input)."""
        return self.writer.cursor

    @property
    def records_written(self):
        return self.writer.records_written
