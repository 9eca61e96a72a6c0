"""Physical table storage on top of the dual-addressable memory."""

import numpy as np

from repro.errors import LayoutError
from repro.imdb.allocator import SubarrayAllocator
from repro.imdb.chunks import Chunk, IntraLayout, slice_table
from repro.imdb.physmem import PhysicalMemory
from repro.imdb.schema import Schema


class Table:
    """A relational table materialized in simulated physical memory.

    The table is sliced into :class:`~repro.imdb.chunks.Chunk` rectangles
    (Section 4.5.1), placed by the shared allocator, and its cells written
    through :class:`~repro.imdb.physmem.PhysicalMemory`.  All reads used
    by query execution go back through chunk geometry, so the executor
    touches exactly the cells a real RC-NVM database would.
    """

    def __init__(self, name, schema: Schema, layout: IntraLayout,
                 physmem: PhysicalMemory, allocator: SubarrayAllocator):
        self.name = name
        self.schema = schema
        self.layout = layout
        self.physmem = physmem
        self.allocator = allocator
        self.chunks = []
        self.n_tuples = 0
        #: Optional :class:`~repro.memsim.ecc.EccStore`; when set, every
        #: chunk keeps a packed backup (its functional reference copy) and
        #: all writes keep the ECC check bits fresh.
        self.ecc = None
        #: Callback ``(table, chunk, cell)`` invoked when a demand read
        #: hits an uncorrectable cell; the database installs its chunk
        #: remap here.  Without one, uncorrectable reads raise.
        self.recovery = None
        #: Equality indexes by field name (repro.imdb.index.HashIndex).
        self.indexes = {}
        #: Range indexes by field name (repro.imdb.ordered_index.OrderedIndex).
        self.ordered_indexes = {}
        #: Bumped whenever chunk geometry changes (inserts appending
        #: chunks, remaps moving them) — cached traces address the old
        #: cells, so any bump invalidates them.
        self.geometry_epoch = 0
        #: Bumped by functional writes that actually change a cell value
        #: (an idempotent re-write of the same constant does not count).
        self.content_version = 0

    # -- loading ---------------------------------------------------------------
    def insert_many(self, rows):
        """Bulk-load rows (each a sequence of field values).

        Loading is functional only — the paper times queries, not loads —
        and appends whole new chunks; it does not fill earlier partial
        chunks.
        """
        if not rows:
            return
        packed = np.array([self.schema.pack(row) for row in rows], dtype=np.int64)
        self._insert_packed(packed)

    def insert_packed(self, packed):
        """Bulk-load pre-packed cell data of shape (n, tuple_words)."""
        self._insert_packed(self.checked_packed(packed))

    def checked_packed(self, packed):
        """``packed`` as int64; raises unless its shape is (n, tuple_words)."""
        packed = np.asarray(packed, dtype=np.int64)
        if packed.ndim != 2 or packed.shape[1] != self.schema.tuple_words:
            raise LayoutError(
                f"packed data must be (n, {self.schema.tuple_words}), "
                f"got {packed.shape}"
            )
        return packed

    def _insert_packed(self, packed):
        geometry = self.physmem.geometry
        shapes = slice_table(
            len(packed), self.schema.tuple_words, self.layout,
            geometry.rows, geometry.cols,
        )
        for first, count, width, height in shapes:
            chunk = Chunk(
                first_tuple=self.n_tuples + first,
                n_tuples=count,
                tuple_words=self.schema.tuple_words,
                layout=self.layout,
                width=width,
                height=height,
            )
            chunk.placement = self.allocator.place(width, height)
            if self.ecc is not None:
                chunk.backup = packed[first : first + count].copy()
            self._write_chunk(chunk, packed[first : first + count])
            self.chunks.append(chunk)
        self.n_tuples += len(packed)
        self.geometry_epoch += 1

    def _write_chunk(self, chunk, data):
        """Vectorized cell write of one chunk's tuples."""
        tw = chunk.tuple_words
        local = np.zeros((chunk.height, chunk.width), dtype=np.int64)
        if chunk.layout is IntraLayout.ROW:
            full = len(data) // chunk.slots
            if full:
                local[:full, : chunk.slots * tw] = data[: full * chunk.slots].reshape(
                    full, chunk.slots * tw
                )
            rest = len(data) - full * chunk.slots
            if rest:
                local[full, : rest * tw] = data[full * chunk.slots :].reshape(-1)
        else:
            for group in range(chunk.used_groups()):
                seg = data[group * chunk.height : (group + 1) * chunk.height]
                local[: len(seg), group * tw : group * tw + tw] = seg
        p = chunk.placement
        grid = self.physmem.subarray(p.bin_index)
        if p.rotated:
            grid[p.y : p.y + chunk.width, p.x : p.x + chunk.height] = local.T
        else:
            grid[p.y : p.y + chunk.height, p.x : p.x + chunk.width] = local
        if self.ecc is not None:
            self.ecc.refresh_region(
                p.bin_index, p.y, p.y + p.height, p.x, p.x + p.width
            )

    # -- reliability --------------------------------------------------------------
    def enable_reliability(self, ecc, recovery=None):
        """Protect this table with ``ecc`` and snapshot chunk backups.

        The backup is the chunk's packed tuple data — the functional
        reference copy an uncorrectable-error recovery rebuilds from."""
        self.ecc = ecc
        self.recovery = recovery
        for chunk in self.chunks:
            if getattr(chunk, "backup", None) is None:
                chunk.backup = self.chunk_packed(chunk)
            p = chunk.placement
            ecc.refresh_region(
                p.bin_index, p.y, p.y + p.height, p.x, p.x + p.width
            )

    def chunk_packed(self, chunk) -> np.ndarray:
        """The chunk's tuples as packed (n_tuples, tuple_words) data —
        the inverse of :meth:`_write_chunk`."""
        tw = chunk.tuple_words
        region = self._chunk_region(chunk)
        if chunk.layout is IntraLayout.ROW:
            full = chunk.n_tuples // chunk.slots
            parts = []
            if full:
                parts.append(
                    region[:full, : chunk.slots * tw].reshape(-1, tw)
                )
            rest = chunk.n_tuples - full * chunk.slots
            if rest:
                parts.append(region[full, : rest * tw].reshape(-1, tw))
            packed = np.concatenate(parts) if parts else np.empty(
                (0, tw), dtype=np.int64
            )
        else:
            parts = []
            remaining = chunk.n_tuples
            for group in range(chunk.used_groups()):
                take = min(chunk.height, remaining)
                parts.append(region[:take, group * tw : group * tw + tw])
                remaining -= take
            packed = np.concatenate(parts) if parts else np.empty(
                (0, tw), dtype=np.int64
            )
        return np.ascontiguousarray(packed, dtype=np.int64)

    def remap_chunk(self, chunk, crash_point=None, tier=None, release=False):
        """Move a chunk onto a fresh placement, rebuilding its cells.

        Two callers share this machinery.  Uncorrectable-error recovery
        (the default) *retires* the old rectangle — damaged cells leave
        play forever — and replaces it in the same tier.  Tier migration
        passes ``release=True`` (the vacated rectangle is healthy and
        returns to the allocator's reuse pool) and ``tier`` to direct the
        new placement into the DRAM or NVM half of a
        :class:`~repro.imdb.allocator.TieredAllocator`.

        ``crash_point`` (if given) is called after the new rectangle is
        claimed but before its cells are rewritten — the widest window a
        power loss could tear the move open.  Returns
        ``(old_placement, new_placement)``."""
        backup = getattr(chunk, "backup", None)
        if backup is None:
            backup = self.chunk_packed(chunk)
            chunk.backup = backup
        old = chunk.placement
        # Claim the new rectangle before releasing the old one: if the
        # destination cannot place it, the chunk must stay where it is
        # (and the live rectangle must never enter the reuse pool).
        if tier is None:
            fresh = self.allocator.place(chunk.width, chunk.height)
        else:
            fresh = self.allocator.place(chunk.width, chunk.height, tier=tier)
        if release:
            self.allocator.free(old)
        else:
            self.allocator.retire(old)
        chunk.placement = fresh
        self.geometry_epoch += 1
        if crash_point is not None:
            crash_point()
        self._write_chunk(chunk, backup)
        if self.ecc is not None:
            # Decommission the damaged rectangle: recompute its check bits
            # so later scrub sweeps don't keep re-detecting retired cells.
            self.ecc.refresh_region(
                old.bin_index, old.y, old.y + old.height, old.x, old.x + old.width
            )
        return old, chunk.placement

    # -- chunk navigation ---------------------------------------------------------
    def chunk_of(self, index):
        """(chunk, local_index) holding global tuple ``index``."""
        if not 0 <= index < self.n_tuples:
            raise LayoutError(f"tuple {index} outside table of {self.n_tuples}")
        for chunk in self.chunks:
            if index < chunk.first_tuple + chunk.n_tuples:
                return chunk, index - chunk.first_tuple
        raise LayoutError(f"tuple {index} not covered by any chunk")

    def field_offset(self, name, word=0):
        field = self.schema.field(name)
        if not 0 <= word < field.words:
            raise LayoutError(f"word {word} outside field {name!r} of {field.words}")
        return self.schema.offset_words(name) + word

    def field_runs(self, name, word=0):
        """Device runs covering one word of ``name`` over every tuple."""
        offset = self.field_offset(name, word)
        runs = []
        for chunk in self.chunks:
            runs.extend(chunk.field_runs(offset))
        return runs

    def tuple_run(self, index, word_start=0, word_count=None):
        chunk, local = self.chunk_of(index)
        return chunk.tuple_cells(local, word_start, word_count)

    def _check_chunk(self, chunk):
        """Demand-read ECC check over one chunk's rectangle.

        Every functional read funnels through here when ECC is on:
        single-bit faults are repaired in place, and an uncorrectable
        cell hands the chunk to the recovery callback — one remap
        rebuilds the whole rectangle from the backup, healing every
        detected cell at once."""
        if self.ecc is None:
            return
        p = chunk.placement
        detected = self.ecc.verify_region(
            p.bin_index, p.y, p.y + p.height, p.x, p.x + p.width
        )
        if not detected:
            return
        if self.recovery is None:
            from repro.memsim.ecc import UncorrectableError

            raise UncorrectableError(
                f"uncorrectable error in table {self.name!r} at subarray "
                f"{p.bin_index} cell {detected[0]} with no recovery handler"
            )
        row, col = detected[0]
        self.recovery(self, chunk, (p.bin_index, row, col))

    # -- functional access (reference results, loading checks) --------------------
    def _chunk_region(self, chunk):
        """Chunk-local (height, width) view of the placed cells."""
        p = chunk.placement
        grid = self.physmem.subarray(p.bin_index)
        if p.rotated:
            return grid[p.y : p.y + chunk.width, p.x : p.x + chunk.height].T
        return grid[p.y : p.y + chunk.height, p.x : p.x + chunk.width]

    def field_values(self, name, word=0) -> np.ndarray:
        """All values of one field word, in tuple order (functional read)."""
        offset = self.field_offset(name, word)
        chunk_tw = self.schema.tuple_words
        parts = []
        for chunk in self.chunks:
            self._check_chunk(chunk)
            region = self._chunk_region(chunk)
            matrix = region[:, offset::chunk_tw]
            if chunk.layout is IntraLayout.ROW:
                flat = matrix[:, : chunk.slots].reshape(-1)
            else:
                flat = matrix.T.reshape(-1)
            parts.append(flat[: chunk.n_tuples])
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

    def read_tuple(self, index):
        """One logical tuple's field values (functional read)."""
        chunk, local = self.chunk_of(index)
        self._check_chunk(chunk)
        words = []
        for word in range(self.schema.tuple_words):
            row, col = chunk.local_cell(local, word)
            sub, device_row, device_col = chunk.device_cell(row, col)
            words.append(self.physmem.read_cell(sub, device_row, device_col))
        return self.schema.unpack(words)

    def write_field(self, index, name, value, word=0):
        """Functional single-field write (the executor traces the access)."""
        offset = self.field_offset(name, word)
        chunk, local = self.chunk_of(index)
        row, col = chunk.local_cell(local, offset)
        sub, device_row, device_col = chunk.device_cell(row, col)
        if self.physmem.read_cell(sub, device_row, device_col) != int(value):
            self.content_version += 1
        if self.ecc is not None:
            self.ecc.write(sub, device_row, device_col, int(value))
            backup = getattr(chunk, "backup", None)
            if backup is not None:
                backup[local, offset] = int(value)
        else:
            self.physmem.write_cell(sub, device_row, device_col, int(value))

    @property
    def tuple_words(self):
        return self.schema.tuple_words

    def __repr__(self):
        return (
            f"Table({self.name}, {self.n_tuples} tuples x "
            f"{self.schema.tuple_words} words, {self.layout.value} layout, "
            f"{len(self.chunks)} chunks)"
        )
