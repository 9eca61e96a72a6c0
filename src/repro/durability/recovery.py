"""Crash recovery: surviving cell-array bytes + WAL replay.

Recovery is physical redo.  The WAL's committed prefix carries every
schema operation (with full packed tuple data for inserts) and every
committed tuple write, in the exact order the original database issued
them — and the allocator is deterministic, so replaying those
operations against a fresh :class:`~repro.imdb.database.Database`
*sharing the crashed instance's* :class:`~repro.imdb.physmem.PhysicalMemory`
reproduces identical chunk/index/WAL placements and rewrites every
owned cell from logged data.  Torn writes of the crashed statement and
un-flushed uncommitted effects inside table rectangles are all
overwritten by the redo pass: recovery is repair.

Uncommitted records (a group whose seq has no commit marker) are
discarded; the tail of the log past the last committed record is
zeroed so the recovered database appends from a clean cursor.
"""

from dataclasses import dataclass
from typing import Tuple

from repro.errors import ReproError
from repro.obs import tracer as obs
from repro.durability.wal import RecordType, decode_record


@dataclass
class RecoveryReport:
    """What one :func:`recover` call found and did."""

    records_scanned: int
    records_replayed: int
    records_discarded: int
    committed_groups: int
    #: True when the scan stopped at a corrupt (torn) record rather
    #: than a clean end-of-log.
    torn_tail: bool
    #: WAL words retained (cursor position after recovery).
    wal_words: int
    tables: Tuple[str, ...]

    def __repr__(self):
        return (
            f"RecoveryReport({self.records_replayed} replayed, "
            f"{self.records_discarded} discarded, "
            f"{self.committed_groups} committed groups, "
            f"torn_tail={self.torn_tail})"
        )


def recover(crashed, verify_placement=True):
    """Rebuild a database from ``crashed``'s surviving memory.

    Returns ``(database, report)``.  The new database shares the
    crashed instance's memory system and physical cell store; the
    crashed instance must not be used afterwards.
    """
    from repro.imdb.database import Database

    dur = getattr(crashed, "durability", None)
    if dur is None:
        raise ReproError(
            "cannot recover a database that never enabled durability"
        )
    with obs.span("durability.recover") as sp:
        records, torn = dur.scan()
        committed = {r.seq for r in records if r.rtype is RecordType.COMMIT}
        db = Database(
            crashed.memory,
            cache_config=crashed.cache_config,
            window=crashed.window,
            default_group_lines=crashed.default_group_lines,
            verify=crashed.verify,
            physmem=crashed.physmem,
        )
        db.enable_durability(wal_rows=dur.wal_rows)
        new_dur = db.durability
        if verify_placement and new_dur.region.placement != dur.region.placement:
            raise ReproError(
                f"recovered WAL placement {new_dur.region.placement} != "
                f"crashed placement {dur.region.placement}; the allocator "
                "is not deterministic"
            )
        replayed = discarded = 0
        end_offset = 0
        max_seq = 0
        new_dur.replaying = True
        try:
            for record in records:
                if record.seq in committed:
                    end_offset = max(end_offset, record.end)
                    max_seq = max(max_seq, record.seq)
                if record.rtype is RecordType.COMMIT:
                    continue
                if record.seq not in committed:
                    discarded += 1
                    continue
                _apply(db, decode_record(record))
                replayed += 1
        finally:
            new_dur.replaying = False
        new_dur.resume(end_offset, max_seq + 1)
        report = RecoveryReport(
            records_scanned=len(records),
            records_replayed=replayed,
            records_discarded=discarded,
            committed_groups=len(committed),
            torn_tail=torn,
            wal_words=end_offset,
            tables=tuple(sorted(db.tables)),
        )
        if sp.enabled:
            sp.set(
                records_scanned=report.records_scanned,
                records_replayed=report.records_replayed,
                records_discarded=report.records_discarded,
                torn_tail=report.torn_tail,
            )
    return db, report


def _apply(db, op):
    """Replay one decoded committed record against the public API."""
    kind = op["op"]
    if kind == "create_table":
        db.create_table(op["name"], op["fields"], layout=op["layout"])
    elif kind == "insert":
        db.table(op["name"]).insert_packed(op["packed"])
    elif kind == "tuple_write":
        db.table(op["name"]).write_field(
            op["tuple_id"], op["field"], op["value"], word=op["word"]
        )
    elif kind == "create_index":
        db.create_index(op["name"], op["field"])
    elif kind == "drop_index":
        db.drop_index(op["name"], op["field"])
    elif kind == "create_ordered_index":
        db.create_ordered_index(op["name"], op["field"])
    elif kind == "drop_ordered_index":
        db.drop_ordered_index(op["name"], op["field"])
    elif kind == "drop_table":
        db.drop_table(op["name"])
    else:  # pragma: no cover - decode_record rejects unknown types
        raise ReproError(f"cannot replay record op {kind!r}")
