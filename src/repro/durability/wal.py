"""Write-ahead log encoded as int64 cell words in simulated NVM.

The log lives in an allocator-placed rectangle of one subarray, so WAL
traffic obeys the same geometry rules as table chunks and shows up in
the trace-level conformance audit.  Records are written row-major over
the rectangle's device rows and read back *strictly from the cell
arrays* at recovery — the WAL's only source of truth is what survived
in :class:`~repro.imdb.physmem.PhysicalMemory`.

Wire format (one int64 word per cell)::

    word 0      (MAGIC << 16) | record_type     0 = end of log
    word 1      seq (statement group id)
    word 2      payload length in words
    word 3..    payload
    last word   crc32 over the little-endian bytes of words 0..payload

Strings inside payloads are a byte-length word followed by UTF-8 bytes
packed 8 per word.  A record whose magic, bounds, or checksum fails to
validate ends the scan: everything after it is a torn tail, discarded
by recovery.  Commit markers (:attr:`RecordType.COMMIT`) carry the seq
of the group they make durable; replay applies only records whose seq
has a matching commit marker.
"""

import enum
import struct
import zlib
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import ReproError

#: Distinguishes live records from never-written (all-zero) cells.
MAGIC = 0x57414C  # "WAL"

#: Words of framing around every payload: header (magic/type, seq,
#: length) plus the trailing checksum.
HEADER_WORDS = 3
FRAME_WORDS = HEADER_WORDS + 1

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


class WalError(ReproError):
    """The log contains or was asked to write something malformed."""


class WalFullError(WalError):
    """The reserved WAL rectangle ran out of cells."""


class RecordType(enum.IntEnum):
    CREATE_TABLE = 1
    INSERT = 2
    TUPLE_WRITE = 3
    COMMIT = 4
    CREATE_INDEX = 5
    DROP_INDEX = 6
    CREATE_ORDERED_INDEX = 7
    DROP_ORDERED_INDEX = 8
    DROP_TABLE = 9


@dataclass(frozen=True)
class WalRecord:
    """One decoded log record."""

    rtype: RecordType
    seq: int
    payload: Tuple[int, ...]
    #: Word offset of the record's first word inside the WAL region.
    offset: int
    #: Total words occupied, framing included.
    words: int

    @property
    def end(self):
        return self.offset + self.words


# -- payload primitives --------------------------------------------------------
def _pack_str(text: str) -> List[int]:
    data = text.encode("utf-8")
    words = [len(data)]
    for start in range(0, len(data), 8):
        chunk = data[start : start + 8].ljust(8, b"\0")
        words.append(int.from_bytes(chunk, "little", signed=True))
    return words


def _unpack_str(payload, pos) -> Tuple[str, int]:
    if pos >= len(payload):
        raise WalError("truncated string length in payload")
    nbytes = payload[pos]
    if nbytes < 0:
        raise WalError(f"negative string length {nbytes}")
    nwords = -(-nbytes // 8)
    pos += 1
    if pos + nwords > len(payload):
        raise WalError("truncated string body in payload")
    data = b"".join(
        int(w).to_bytes(8, "little", signed=True)
        for w in payload[pos : pos + nwords]
    )
    return data[:nbytes].decode("utf-8"), pos + nwords


def _check_word(value) -> int:
    value = int(value)
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise WalError(f"payload value {value} does not fit an int64 cell")
    return value


def _crc(words) -> int:
    return zlib.crc32(
        struct.pack(f"<{len(words)}q", *(int(w) for w in words))
    )


# -- record encode/decode ------------------------------------------------------
def encode_record(rtype: RecordType, seq: int, payload) -> List[int]:
    """Frame one record as its int64 cell words (header + crc)."""
    payload = [_check_word(v) for v in payload]
    head = [(MAGIC << 16) | int(rtype), int(seq), len(payload)]
    return head + payload + [_crc(head + payload)]


def decode_record(record: WalRecord) -> dict:
    """A record's payload as a keyword dict (``{"op": ..., ...}``)."""
    p = record.payload
    rtype = record.rtype
    if rtype is RecordType.COMMIT:
        return {"op": "commit"}
    if rtype is RecordType.CREATE_TABLE:
        layout, pos = p[0], 1
        name, pos = _unpack_str(p, pos)
        n_fields = p[pos]
        pos += 1
        fields = []
        for _ in range(n_fields):
            fname, pos = _unpack_str(p, pos)
            fields.append((fname, int(p[pos])))
            pos += 1
        return {
            "op": "create_table",
            "name": name,
            "fields": fields,
            "layout": "row" if layout == 0 else "column",
        }
    if rtype is RecordType.INSERT:
        name, pos = _unpack_str(p, 0)
        n_rows, tuple_words = int(p[pos]), int(p[pos + 1])
        pos += 2
        expect = n_rows * tuple_words
        if len(p) - pos != expect:
            raise WalError(
                f"insert payload holds {len(p) - pos} data words, "
                f"expected {expect}"
            )
        data = np.array(p[pos:], dtype=np.int64).reshape(n_rows, tuple_words)
        return {"op": "insert", "name": name, "packed": data}
    if rtype is RecordType.TUPLE_WRITE:
        name, pos = _unpack_str(p, 0)
        fname, pos = _unpack_str(p, pos)
        tuple_id, word, value = p[pos], p[pos + 1], p[pos + 2]
        return {
            "op": "tuple_write",
            "name": name,
            "field": fname,
            "tuple_id": int(tuple_id),
            "word": int(word),
            "value": int(value),
        }
    if rtype in (RecordType.CREATE_INDEX, RecordType.DROP_INDEX,
                 RecordType.CREATE_ORDERED_INDEX,
                 RecordType.DROP_ORDERED_INDEX):
        name, pos = _unpack_str(p, 0)
        fname, _pos = _unpack_str(p, pos)
        op = {
            RecordType.CREATE_INDEX: "create_index",
            RecordType.DROP_INDEX: "drop_index",
            RecordType.CREATE_ORDERED_INDEX: "create_ordered_index",
            RecordType.DROP_ORDERED_INDEX: "drop_ordered_index",
        }[rtype]
        return {"op": op, "name": name, "field": fname}
    if rtype is RecordType.DROP_TABLE:
        name, _pos = _unpack_str(p, 0)
        return {"op": "drop_table", "name": name}
    raise WalError(f"unknown record type {rtype!r}")  # pragma: no cover


# -- payload builders ----------------------------------------------------------
def create_table_payload(name, fields, layout):
    payload = [0 if str(layout) in ("row", "IntraLayout.ROW") else 1]
    payload += _pack_str(name)
    payload.append(len(fields))
    for fname, nbytes in fields:
        payload += _pack_str(fname)
        payload.append(int(nbytes))
    return payload


def insert_payload(name, packed):
    packed = np.asarray(packed, dtype=np.int64)
    payload = _pack_str(name)
    payload += [int(packed.shape[0]), int(packed.shape[1])]
    payload += [int(v) for v in packed.reshape(-1)]
    return payload


def tuple_write_payload(name, field, tuple_id, word, value):
    return (
        _pack_str(name) + _pack_str(field)
        + [int(tuple_id), int(word), int(value)]
    )


def tuple_write_block(seq, name, field, tuple_ids, value):
    """The TUPLE_WRITE records of ``field = value`` for every tuple of
    ``tuple_ids`` as an ``(n, words)`` int64 array: row ``i`` is exactly
    :func:`encode_record` of tuple ``i``'s record."""
    payload = tuple_write_payload(name, field, 0, 0, _check_word(value))
    head = [(MAGIC << 16) | RecordType.TUPLE_WRITE, seq, len(payload)]
    block = np.tile(np.array(head + payload + [0], dtype=np.int64),
                    (len(tuple_ids), 1))
    block[:, HEADER_WORDS + len(payload) - 3] = tuple_ids
    raw = block[:, :-1].astype("<i8").tobytes()
    stride = 8 * (block.shape[1] - 1)
    block[:, -1] = [
        zlib.crc32(raw[start : start + stride])
        for start in range(0, len(raw), stride)
    ]
    return block


def name_field_payload(name, field):
    return _pack_str(name) + _pack_str(field)


def drop_table_payload(name):
    return _pack_str(name)


# -- the log region ------------------------------------------------------------
class WalRegion:
    """Word-addressed view of the WAL's device rectangle.

    The placement's ``width``/``height`` are device-space dimensions
    (post-rotation), so the region covers device rows
    ``[y, y+height)`` x cols ``[x, x+width)`` of one subarray; word
    offset ``k`` maps row-major into that rectangle.
    """

    def __init__(self, physmem, placement):
        self.physmem = physmem
        self.placement = placement
        self.subarray = placement.bin_index
        self.capacity = placement.width * placement.height

    def segments(self, offset, count):
        """``(device_row, col_start, n)`` row pieces covering ``count``
        words starting at word ``offset``."""
        p = self.placement
        out = []
        while count > 0:
            row, col = divmod(offset, p.width)
            here = min(count, p.width - col)
            out.append((p.y + row, p.x + col, here))
            offset += here
            count -= here
        return out

    def write(self, offset, words):
        if offset + len(words) > self.capacity:
            raise WalFullError(
                f"WAL region full: need {len(words)} words at offset "
                f"{offset}, capacity {self.capacity}"
            )
        segments = self.segments(offset, len(words))
        pos = 0
        for row, col, n in segments:
            self.physmem.write_horizontal(
                self.subarray, row, col, words[pos : pos + n]
            )
            pos += n
        return segments

    def read(self, offset, count):
        """``count`` words starting at ``offset``, straight from cells."""
        if offset + count > self.capacity:
            raise WalError(
                f"WAL read [{offset}, {offset + count}) exceeds capacity "
                f"{self.capacity}"
            )
        parts = [
            self.physmem.read_horizontal(self.subarray, row, col, n)
            for row, col, n in self.segments(offset, count)
        ]
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts)

    def zero(self, offset):
        """Clear every word from ``offset`` to the end of the region
        (discarding a torn or uncommitted tail)."""
        for row, col, n in self.segments(offset, self.capacity - offset):
            self.physmem.write_horizontal(
                self.subarray, row, col, np.zeros(n, dtype=np.int64)
            )

    def rect(self):
        """Half-open ``(subarray, y0, y1, x0, x1)`` for geometry audits."""
        p = self.placement
        return (self.subarray, p.y, p.y + p.height, p.x, p.x + p.width)


class WalWriter:
    """Appends framed records to a :class:`WalRegion`."""

    def __init__(self, region: WalRegion):
        self.region = region
        self.cursor = 0
        self.records_written = 0

    def append(self, rtype, seq, payload):
        """Write one record; returns its row segments and its length."""
        words = encode_record(rtype, seq, payload)
        return self.append_block(words, 1), len(words)

    def append_block(self, words, records):
        """Write ``records`` already-framed records laid end to end in
        ``words``; nothing is written if they do not all fit."""
        segments = self.region.write(self.cursor, words)
        self.cursor += len(words)
        self.records_written += records
        return segments

    def resume(self, offset):
        """Point the writer past surviving records (recovery), zeroing
        the discarded tail so later scans stop at the right place."""
        if offset > self.region.capacity:
            raise WalError(f"resume offset {offset} beyond region capacity")
        self.cursor = offset
        self.region.zero(offset)


class WalReader:
    """Scans a region's surviving cells back into records."""

    def __init__(self, region: WalRegion):
        self.region = region

    def scan(self):
        """``(records, torn_tail)``: every valid record in write order,
        stopping at the first zero word (end of log) or the first record
        that fails magic/bounds/checksum validation (torn tail)."""
        records = []
        offset = 0
        capacity = self.region.capacity
        while offset + FRAME_WORDS <= capacity:
            head = self.region.read(offset, HEADER_WORDS)
            word0 = int(head[0])
            if word0 == 0:
                return records, False
            if (word0 >> 16) != MAGIC:
                return records, True
            try:
                rtype = RecordType(word0 & 0xFFFF)
            except ValueError:
                return records, True
            length = int(head[2])
            if length < 0 or offset + FRAME_WORDS + length > capacity:
                return records, True
            body = self.region.read(offset + HEADER_WORDS, length + 1)
            payload = tuple(int(v) for v in body[:length])
            stored_crc = int(body[length])
            if _crc([word0, int(head[1])] + [length] + list(payload)) != stored_crc:
                return records, True
            records.append(
                WalRecord(
                    rtype=rtype,
                    seq=int(head[1]),
                    payload=payload,
                    offset=offset,
                    words=FRAME_WORDS + length,
                )
            )
            offset += FRAME_WORDS + length
        return records, False
