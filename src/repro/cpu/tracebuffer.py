"""Structure-of-arrays memory-access traces.

A :class:`TraceBuffer` is the columnar interchange format between the
trace producers (the IMDB executor, the micro-benchmarks, trace files)
and the machine models.  It stores one NumPy column per access field
instead of one Python :class:`~repro.cpu.trace.Access` object per entry,
which makes million-access traces cheap to build, and it precomputes —
vectorized, once per trace — everything the replay loop used to derive
per access: the 64-byte lines each access touches, their cache-line keys,
and the per-line word masks for writes (see :meth:`TraceBuffer.finalize`).

``TraceBuffer`` is a drop-in replacement for ``List[Access]`` on the
producing side (``append`` accepts ``Access`` objects, iteration yields
them back).  The machine models replay only the finalized arrays:
:func:`as_finalized` is their one entry, and copies any other iterable
of ``Access`` objects into a buffer first.

Flag bits, op codes and orientations are stored as small unsigned
integers; gather coordinates (sparse — only GS-DRAM traces have them)
live in a side table keyed by position.
"""

import numpy as np

from repro.core.addressing import Orientation
from repro.cpu.trace import _ORIENTATION_OF, Access, Op
from repro.errors import CapabilityError
from repro.geometry import CACHE_LINE_BYTES, WORD_BYTES
from repro.orientation import ORIENTATIONS

FLAG_BARRIER = 1
FLAG_PIN = 2

#: Per-line classification bits of a finalized trace (``line_special``).
LINE_WRITE = 1
LINE_PIN = 2
LINE_BARRIER = 4  # set on the first line of a barrier access only
LINE_UNPIN = 8
LINE_GATHER = 16

_LINE_SHIFT = CACHE_LINE_BYTES.bit_length() - 1  # 6
_WORD_SHIFT = WORD_BYTES.bit_length() - 1  # 3
_SPACE_SHIFT = 58  # must match repro.cache.line.SPACE_SHIFT

_IS_WRITE_OP = (False, True, False, True, False, False)  # indexed by Op

#: Default orientation per op, as small ints (mirror of _ORIENTATION_OF).
_DEFAULT_ORIENT = tuple(int(_ORIENTATION_OF[Op(code)]) for code in range(len(Op)))

#: Read op -> write op (used by the micro-benchmarks' write kernels).
_READ_TO_WRITE = np.arange(len(Op), dtype=np.uint8)
_READ_TO_WRITE[int(Op.READ)] = int(Op.WRITE)
_READ_TO_WRITE[int(Op.CREAD)] = int(Op.CWRITE)

_FLUSH_THRESHOLD = 8192


class TraceBuffer:
    """Columnar access trace with a chunked append API."""

    __slots__ = (
        "_op",
        "_address",
        "_size",
        "_gap",
        "_flags",
        "_orient",
        "_n",
        "_pending",
        "coords",
        "stream",
        "_finalized",
    )

    def __init__(self):
        self._op = np.empty(0, dtype=np.uint8)
        self._address = np.empty(0, dtype=np.int64)
        self._size = np.empty(0, dtype=np.int64)
        self._gap = np.empty(0, dtype=np.int64)
        self._flags = np.empty(0, dtype=np.uint8)
        self._orient = np.empty(0, dtype=np.uint8)
        self._n = 0
        #: Staged scalar appends, flushed into the arrays in chunks.
        self._pending = []
        #: Sparse side table: position -> device Coordinate (gathers only).
        self.coords = {}
        #: Tenant stream tag (0 = untagged); carried into the finalized
        #: trace and onto every :class:`MemRequest` the replay issues.
        #: Replay-time callers may override it per run (shared cached
        #: traces are replayed by many tenants) via ``Machine.run``.
        self.stream = 0
        self._finalized = None

    # -- appending -----------------------------------------------------------
    def emit(self, op, address, size=8, gap=1, barrier=False, pin=False,
             coord=None, orientation=None):
        """Append one access without materializing an ``Access`` object."""
        if orientation is None:
            orientation = _DEFAULT_ORIENT[op]
        else:
            orientation = int(orientation)
        flags = (FLAG_BARRIER if barrier else 0) | (FLAG_PIN if pin else 0)
        if coord is not None:
            self.coords[self._n + len(self._pending)] = coord
        self._pending.append((int(op), address, size, gap, flags, orientation))
        if len(self._pending) >= _FLUSH_THRESHOLD:
            self._flush()
        self._finalized = None

    def append(self, access: Access):
        """``List[Access]``-compatible append."""
        self.emit(
            access.op,
            access.address,
            access.size,
            access.gap,
            barrier=access.barrier,
            pin=access.pin,
            coord=access.coord,
            orientation=access.orientation,
        )

    def extend(self, accesses):
        """Append a stream of accesses; another :class:`TraceBuffer` is
        concatenated column-wise instead of element by element."""
        if isinstance(accesses, TraceBuffer):
            self._flush()
            accesses._flush()
            base = self._n
            self._append_arrays(*accesses.columns())
            for position, coord in accesses.coords.items():
                self.coords[base + position] = coord
            return
        for access in accesses:
            self.append(access)

    def extend_bulk(self, op, addresses, sizes, gaps, orientation=None,
                    barrier=False, pin=False):
        """Vectorized append of many same-op accesses at once.

        ``addresses``, ``sizes`` and ``gaps`` are broadcast against each
        other; ``op`` is a single op code applied to the whole block.
        This is the fast path scans use: one call per device run batch
        instead of one ``Access`` per run.
        """
        self._flush()
        addresses = np.asarray(addresses, dtype=np.int64)
        count = addresses.shape[0]
        if count == 0:
            return
        if orientation is None:
            orientation = _DEFAULT_ORIENT[int(op)]
        block_op = np.full(count, int(op), dtype=np.uint8)
        block_size = np.broadcast_to(np.asarray(sizes, dtype=np.int64), (count,))
        block_gap = np.broadcast_to(np.asarray(gaps, dtype=np.int64), (count,))
        flags = (FLAG_BARRIER if barrier else 0) | (FLAG_PIN if pin else 0)
        block_flags = np.full(count, flags, dtype=np.uint8)
        block_orient = np.full(count, int(orientation), dtype=np.uint8)
        self._append_arrays(
            block_op, addresses, block_size, block_gap, block_flags, block_orient
        )

    def _append_arrays(self, op, address, size, gap, flags, orient):
        self._op = np.concatenate((self._op[: self._n], op))
        self._address = np.concatenate((self._address[: self._n], address))
        self._size = np.concatenate((self._size[: self._n], size))
        self._gap = np.concatenate((self._gap[: self._n], gap))
        self._flags = np.concatenate((self._flags[: self._n], flags))
        self._orient = np.concatenate((self._orient[: self._n], orient))
        self._n = self._op.shape[0]
        self._finalized = None

    def _flush(self):
        if not self._pending:
            return
        staged = self._pending
        self._pending = []
        columns = tuple(zip(*staged))
        self._append_arrays(
            np.asarray(columns[0], dtype=np.uint8),
            np.asarray(columns[1], dtype=np.int64),
            np.asarray(columns[2], dtype=np.int64),
            np.asarray(columns[3], dtype=np.int64),
            np.asarray(columns[4], dtype=np.uint8),
            np.asarray(columns[5], dtype=np.uint8),
        )

    # -- mutation ------------------------------------------------------------
    def reads_to_writes(self, start=0):
        """Turn READ/CREAD ops from position ``start`` on into their write
        counterparts (vectorized; used by the write micro-kernels)."""
        self._flush()
        self._op[start: self._n] = _READ_TO_WRITE[self._op[start: self._n]]
        self._finalized = None

    # -- list compatibility --------------------------------------------------
    def __len__(self):
        return self._n + len(self._pending)

    def _access_at(self, index):
        if index < self._n:
            op = Op(int(self._op[index]))
            address = int(self._address[index])
            size = int(self._size[index])
            gap = int(self._gap[index])
            flags = int(self._flags[index])
            orient = ORIENTATIONS[self._orient[index]]
        else:
            op_code, address, size, gap, flags, orient_code = self._pending[
                index - self._n
            ]
            op = Op(op_code)
            orient = ORIENTATIONS[orient_code]
        return Access(
            op,
            address,
            size,
            gap,
            barrier=bool(flags & FLAG_BARRIER),
            pin=bool(flags & FLAG_PIN),
            coord=self.coords.get(index),
            orientation=orient,
        )

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._access_at(i) for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("trace index out of range")
        return self._access_at(index)

    def __iter__(self):
        for index in range(len(self)):
            yield self._access_at(index)

    def to_accesses(self):
        """Materialize the equivalent ``List[Access]`` (compat/tests)."""
        return list(self)

    def __repr__(self):
        return f"TraceBuffer({len(self)} accesses)"

    # -- column views --------------------------------------------------------
    def columns(self):
        """The raw (op, address, size, gap, flags, orientation) arrays."""
        self._flush()
        n = self._n
        return (
            self._op[:n],
            self._address[:n],
            self._size[:n],
            self._gap[:n],
            self._flags[:n],
            self._orient[:n],
        )

    # -- finalization --------------------------------------------------------
    def finalize(self):
        """Expand the trace into per-line replay arrays (cached).

        All the work the per-access replay loop used to do per touched
        line — line splitting, line-key packing, write word masks — is
        done here in a handful of vectorized passes.
        """
        if self._finalized is None:
            self._flush()
            self._finalized = FinalizedTrace(self)
        elif self._finalized.stream != self.stream:
            # Retagging the buffer must not force a rebuild of the cached
            # line arrays — only the tag travels.
            self._finalized.stream = self.stream
        return self._finalized


class FinalizedTrace:
    """Precomputed per-line arrays for the batched replay fast path."""

    __slots__ = (
        "n_accesses",
        "n_reads",
        "n_writes",
        "n_lines",
        "coords",
        "stream",
        "line_key",
        "line_gap",
        "line_special",
        "line_mask",
        "line_acc",
        "line_orient",
        "line_index",
        "acc_op",
        "acc_gap",
        "acc_flags",
        "acc_starts",
        "acc_counts",
        "has_column",
        "has_gather",
        "_lists",
        "_acc_lists",
        "_decode_cache",
        "_decode_arrays",
        "_kernel_cache",
    )

    def __init__(self, buffer: TraceBuffer):
        op, address, size, gap, flags, orient = buffer.columns()
        self.coords = buffer.coords
        self.stream = buffer.stream
        n = op.shape[0]
        is_unpin = op == int(Op.UNPIN)
        is_write = (op == int(Op.WRITE)) | (op == int(Op.CWRITE))
        is_gather = op == int(Op.GATHER)
        # -- per-line expansion (vectorized line splitting)
        first_line = address >> _LINE_SHIFT
        last_line = (address + size - 1) >> _LINE_SHIFT
        counts = last_line - first_line + 1
        total = int(counts.sum())
        starts = np.cumsum(counts) - counts
        line_acc = np.repeat(np.arange(n, dtype=np.int64), counts)
        offsets = np.arange(total, dtype=np.int64) - starts[line_acc]
        line_index = first_line[line_acc] + offsets
        line_orient = orient[line_acc]
        self.line_key = (line_orient.astype(np.int64) << _SPACE_SHIFT) | line_index
        # -- gap charged once, before the access's first line
        line_gap = np.zeros(total, dtype=np.int64)
        line_gap[starts] = gap
        self.line_gap = line_gap
        # -- special bits routing lines off the clean-read fast path
        special = np.zeros(total, dtype=np.uint8)
        special |= np.where(is_write[line_acc], LINE_WRITE, 0).astype(np.uint8)
        special |= np.where(
            (flags[line_acc] & FLAG_PIN) != 0, LINE_PIN, 0
        ).astype(np.uint8)
        special |= np.where(is_unpin[line_acc], LINE_UNPIN, 0).astype(np.uint8)
        special |= np.where(is_gather[line_acc], LINE_GATHER, 0).astype(np.uint8)
        barrier_first = np.zeros(total, dtype=np.uint8)
        barrier_first[starts] = np.where((flags & FLAG_BARRIER) != 0, LINE_BARRIER, 0)
        special |= barrier_first
        self.line_special = special
        # -- write word masks (reads always use the full 0xFF mask)
        line_start_byte = line_index << _LINE_SHIFT
        begin = np.maximum(address[line_acc], line_start_byte)
        end = np.minimum(
            address[line_acc] + size[line_acc], line_start_byte + CACHE_LINE_BYTES
        )
        first_word = (begin - line_start_byte) >> _WORD_SHIFT
        last_word = (end - 1 - line_start_byte) >> _WORD_SHIFT
        mask = ((1 << (last_word + 1)) - 1) & ~((1 << first_word) - 1)
        self.line_mask = np.where(is_write[line_acc], mask, 0xFF).astype(np.int64)
        self.line_acc = line_acc
        self.line_orient = line_orient
        self.line_index = line_index
        # -- per-access view into the line arrays (multicore steps one
        #    access at a time between cores, so it needs the slices)
        self.acc_op = op
        self.acc_gap = gap
        self.acc_flags = flags
        self.acc_starts = starts
        self.acc_counts = counts
        # -- trace-static result counters
        n_real = int(n - is_unpin.sum())
        self.n_accesses = n_real
        self.n_writes = int(is_write.sum())
        self.n_reads = n_real - self.n_writes
        self.n_lines = int(total - counts[is_unpin].sum())
        self.has_column = bool((line_orient == int(Orientation.COLUMN)).any())
        self.has_gather = bool(is_gather.any())
        self._lists = None
        self._acc_lists = None
        self._decode_cache = {}
        self._decode_arrays = {}
        #: The replay kernel's trace-shape verdicts and its outcomes,
        #: memoized per machine configuration (see
        #: :mod:`repro.cpu.replaykernel`) — a repeat replay from a timing
        #: reset commits an outcome instead of running the loop again.
        self._kernel_cache = {}

    def check_capabilities(self, memory):
        """Raise :class:`CapabilityError` when ``memory`` cannot serve this
        trace's column or gather lines.

        A per-line check would raise on the first such line to miss; on
        the fresh caches of a replay it always misses (its fill sits
        behind the request), so checking the whole trace up front is
        equivalent.
        """
        if self.has_column and not memory.supports_column:
            raise CapabilityError(f"{memory.name} does not support column accesses")
        if self.has_gather and not memory.supports_gather:
            raise CapabilityError(f"{memory.name} does not support gathered accesses")

    def replay_lists(self):
        """The per-line columns as plain Python lists (fast to index from
        the interpreted replay loop; cached)."""
        if self._lists is None:
            self._lists = (
                self.line_key.tolist(),
                self.line_gap.tolist(),
                self.line_special.tolist(),
                self.line_mask.tolist(),
                self.line_acc.tolist(),
                self.line_orient.tolist(),
            )
        return self._lists

    def access_lists(self):
        """The per-access columns as plain Python lists:
        ``(op, gap, flags, starts, counts)`` where ``starts``/``counts``
        slice the per-line arrays (cached; used by the multicore model,
        which interleaves cores one access at a time)."""
        if self._acc_lists is None:
            self._acc_lists = (
                self.acc_op.tolist(),
                self.acc_gap.tolist(),
                self.acc_flags.tolist(),
                self.acc_starts.tolist(),
                self.acc_counts.tolist(),
            )
        return self._acc_lists

    def decoded_arrays_for(self, mapper):
        """Per-line device coordinates under ``mapper``'s geometry, as
        NumPy arrays: ``(channel, rank, bank, subarray, row, col)``.

        This is the batched counterpart of a scalar
        ``AddressMapper.decode`` call per LLC miss; gather and unpin
        lines never issue decoded requests, so their (synthetic)
        addresses are masked out.  Cached per mapper —
        replaying the same finalized trace against the same memory
        system never re-decodes (a regression test pins the call count).
        """
        cached = self._decode_arrays.get(mapper)
        if cached is None:
            skip = (self.line_special & (LINE_GATHER | LINE_UNPIN)) != 0
            addresses = np.where(skip, 0, self.line_index << _LINE_SHIFT)
            cached = mapper.decode_fields(addresses, self.line_orient)
            self._decode_arrays[mapper] = cached
        return cached

    def decoded_for(self, mapper):
        """:meth:`decoded_arrays_for` as plain Python lists (fast to
        index from the interpreted replay loop; cached per mapper)."""
        cached = self._decode_cache.get(mapper)
        if cached is None:
            fields = self.decoded_arrays_for(mapper)
            cached = tuple(column.tolist() for column in fields)
            self._decode_cache[mapper] = cached
        return cached


def as_finalized(trace):
    """The :class:`FinalizedTrace` the replay engines run on ``trace``.

    A :class:`FinalizedTrace` is returned as is and a :class:`TraceBuffer`
    is finalized (cached on the buffer); any other iterable of
    :class:`~repro.cpu.trace.Access` is copied into a new buffer once,
    which is then finalized."""
    if isinstance(trace, FinalizedTrace):
        return trace
    if not isinstance(trace, TraceBuffer):
        buffer = TraceBuffer()
        buffer.extend(trace)
        trace = buffer
    return trace.finalize()
