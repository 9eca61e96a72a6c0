"""Chunk slicing and intra-chunk layouts (paper Section 4.5, Figure 13).

Large tables are sliced into rectangular *chunks* that each fit inside one
subarray.  Within a chunk, tuples are laid out in one of two orders —
both keep a tuple's fields contiguous along a physical row:

* **row-oriented layout** (Figure 13a): consecutive tuples advance along
  the row first, wrapping to the next row — the classical row-store
  placement, optimal for full-tuple row scans;
* **column-oriented layout** (Figure 13b): consecutive tuples stack
  vertically, then advance to the next column group — so an in-order
  field scan walks straight down one physical column, which is what makes
  RC-NVM's column accesses effective for OLAP even when access order
  matters.

A chunk may be *rotated* by the inter-chunk bin packer (Section 4.5.3);
rotation swaps the roles of device rows and columns, which is free on
RC-NVM because both access directions are first-class.
"""

import enum
from dataclasses import dataclass

import numpy as np

from repro.errors import LayoutError
from repro.imdb.binpack import Placement


class IntraLayout(enum.Enum):
    """Figure 13's two intra-chunk data layouts."""

    ROW = "row"
    COLUMN = "column"


@dataclass(frozen=True)
class Run:
    """A straight sequence of cells within one subarray, plus the mapping
    back to the tuples whose field words those cells hold.

    ``vertical`` runs walk down a physical column (``fixed`` = the column,
    cells at rows ``start .. start+count-1``); horizontal runs walk along a
    physical row.  Cell ``j`` of the run belongs to tuple
    ``first_tuple + j * tuple_stride`` (global tuple index).
    """

    subarray: int
    vertical: bool
    fixed: int
    start: int
    count: int
    first_tuple: int
    tuple_stride: int


class Chunk:
    """One rectangle of tuples placed in a subarray."""

    def __init__(self, first_tuple, n_tuples, tuple_words, layout, width, height):
        if width % tuple_words:
            raise LayoutError("chunk width must be a multiple of the tuple width")
        slots = width // tuple_words
        if layout is IntraLayout.ROW:
            capacity = slots * height
        else:
            capacity = slots * height  # same capacity, different order
        if n_tuples > capacity:
            raise LayoutError(
                f"chunk of {width}x{height} cells holds {capacity} tuples, "
                f"asked to store {n_tuples}"
            )
        self.first_tuple = first_tuple
        self.n_tuples = n_tuples
        self.tuple_words = tuple_words
        self.layout = layout
        self.width = width
        self.height = height
        self.slots = slots
        self.placement: Placement = None

    # -- chunk-local geometry -------------------------------------------------
    def local_cell(self, index, word):
        """Chunk-relative (row, col) of word ``word`` of local tuple ``index``."""
        if not 0 <= index < self.n_tuples:
            raise LayoutError(f"tuple {index} outside chunk of {self.n_tuples}")
        if not 0 <= word < self.tuple_words:
            raise LayoutError(f"word {word} outside tuple of {self.tuple_words}")
        if self.layout is IntraLayout.ROW:
            row = index // self.slots
            col = (index % self.slots) * self.tuple_words + word
        else:
            row = index % self.height
            col = (index // self.height) * self.tuple_words + word
        return row, col

    def local_cells(self, indices, word):
        """Vectorized :meth:`local_cell`: chunk-relative ``(rows, cols)``
        arrays of word ``word`` of the local tuples ``indices``."""
        indices = np.asarray(indices, dtype=np.int64)
        bad = (indices < 0) | (indices >= self.n_tuples)
        if bad.any():
            raise LayoutError(
                f"tuple {int(indices[bad.argmax()])} outside chunk of {self.n_tuples}"
            )
        if not 0 <= word < self.tuple_words:
            raise LayoutError(f"word {word} outside tuple of {self.tuple_words}")
        if self.layout is IntraLayout.ROW:
            rows, slots = np.divmod(indices, self.slots)
        else:
            slots, rows = np.divmod(indices, self.height)
        return rows, slots * self.tuple_words + word

    def used_rows(self):
        """Number of chunk rows that contain at least one tuple."""
        if self.layout is IntraLayout.ROW:
            return -(-self.n_tuples // self.slots)
        return min(self.n_tuples, self.height)

    def used_groups(self):
        """Number of column groups in use (COLUMN layout)."""
        if self.layout is IntraLayout.COLUMN:
            return -(-self.n_tuples // self.height)
        return self.slots

    # -- device geometry ---------------------------------------------------------
    def device_cell(self, row, col):
        """Map a chunk-relative cell to (subarray, device_row, device_col)."""
        p = self.placement
        if p is None:
            raise LayoutError("chunk has not been placed yet")
        if p.rotated:
            return p.bin_index, p.y + col, p.x + row
        return p.bin_index, p.y + row, p.x + col

    def tuple_cells(self, index, word_start=0, word_count=None):
        """Device run covering words ``[word_start, word_start+word_count)``
        of local tuple ``index`` (contiguous within the tuple's row)."""
        if word_count is None:
            word_count = self.tuple_words - word_start
        row, col = self.local_cell(index, word_start)
        sub, device_row, device_col = self.device_cell(row, col)
        vertical = bool(self.placement.rotated)
        return Run(
            subarray=sub,
            vertical=vertical,
            fixed=device_col if vertical else device_row,
            start=device_row if vertical else device_col,
            count=word_count,
            first_tuple=self.first_tuple + index,
            tuple_stride=0,
        )

    def field_runs(self, offset_word):
        """Device runs covering one field word of every tuple in the chunk.

        Runs are emitted in tuple-major order for the COLUMN layout (walk
        the groups left to right) and slot order for the ROW layout; in
        both cases each run's cells are consecutive along the chunk's
        vertical axis (a single column access per run on RC-NVM).
        """
        if not 0 <= offset_word < self.tuple_words:
            raise LayoutError(f"field word {offset_word} outside tuple")
        runs = []
        if self.layout is IntraLayout.COLUMN:
            for group in range(self.used_groups()):
                first_local = group * self.height
                count = min(self.height, self.n_tuples - first_local)
                row, col = self.local_cell(first_local, offset_word)
                sub, device_row, device_col = self.device_cell(row, col)
                runs.append(self._vertical_run(
                    sub, device_row, device_col, count,
                    self.first_tuple + first_local, 1,
                ))
        else:
            for slot in range(min(self.slots, self.n_tuples)):
                count = -(-(self.n_tuples - slot) // self.slots)
                row, col = self.local_cell(slot, offset_word)
                sub, device_row, device_col = self.device_cell(row, col)
                runs.append(self._vertical_run(
                    sub, device_row, device_col, count,
                    self.first_tuple + slot, self.slots,
                ))
        return runs

    def _vertical_run(self, sub, device_row, device_col, count, first, stride):
        """A run that is vertical in chunk space; rotation makes it
        horizontal in device space."""
        if self.placement.rotated:
            return Run(sub, False, device_row, device_col, count, first, stride)
        return Run(sub, True, device_col, device_row, count, first, stride)

    def row_run(self, chunk_row, col_start=0, count=None):
        """Device run covering cells ``[col_start, col_start+count)`` of one
        chunk row — the unit of sequential full-row scans."""
        if count is None:
            count = self.width - col_start
        if not 0 <= chunk_row < self.height:
            raise LayoutError(f"chunk row {chunk_row} outside height {self.height}")
        sub, device_row, device_col = self.device_cell(chunk_row, col_start)
        vertical = bool(self.placement.rotated)
        return Run(
            subarray=sub,
            vertical=vertical,
            fixed=device_col if vertical else device_row,
            start=device_row if vertical else device_col,
            count=count,
            first_tuple=0,
            tuple_stride=0,
        )

    def col_run(self, chunk_col, row_start=0, count=None):
        """Device run covering cells ``[row_start, row_start+count)`` of one
        chunk column — the unit of column-direction full scans."""
        if count is None:
            count = self.used_rows() - row_start
        if not 0 <= chunk_col < self.width:
            raise LayoutError(f"chunk col {chunk_col} outside width {self.width}")
        sub, device_row, device_col = self.device_cell(row_start, chunk_col)
        vertical = not self.placement.rotated
        return Run(
            subarray=sub,
            vertical=vertical,
            fixed=device_col if vertical else device_row,
            start=device_row if vertical else device_col,
            count=count,
            first_tuple=0,
            tuple_stride=0,
        )

    def row_scan_cells(self, offset_words):
        """Device cells holding the given field words of every tuple, in
        row-scan order — chunk row, then field word, then slot — the order
        of row-major (DRAM-friendly) field scans.  Returns ``(subarray,
        device_rows, device_cols, tuples)``, the last three as arrays
        (``tuples`` are global tuple indices)."""
        words = np.asarray(offset_words, dtype=np.int64)
        bad = (words < 0) | (words >= self.tuple_words)
        if bad.any():
            raise LayoutError(
                f"word {int(words[bad.argmax()])} outside tuple of {self.tuple_words}"
            )
        rows = np.arange(self.used_rows())[:, None, None]
        if self.layout is IntraLayout.ROW:
            slots = np.arange(self.slots)
            local = rows * self.slots + slots
        else:
            slots = np.arange(self.used_groups())
            local = slots * self.height + rows
        # Cell (row, word, slot) holds word ``word`` of tuple ``local``
        # at chunk cell (row, slot * tuple_words + word) in both layouts.
        shape = (rows.shape[0], words.size, slots.size)
        keep = np.broadcast_to(local < self.n_tuples, shape)
        cols = slots * self.tuple_words + words[:, None]
        sub, device_rows, device_cols = self.device_cell(
            np.broadcast_to(rows, shape)[keep], np.broadcast_to(cols, shape)[keep]
        )
        tuples = np.broadcast_to(local, shape)[keep] + self.first_tuple
        return sub, device_rows, device_cols, tuples

    def __repr__(self):
        return (
            f"Chunk(tuples {self.first_tuple}..{self.first_tuple + self.n_tuples - 1}, "
            f"{self.width}x{self.height} cells, {self.layout.value})"
        )


def slice_table(n_tuples, tuple_words, layout, subarray_rows, subarray_cols):
    """Slice ``n_tuples`` into chunk shapes fitting one subarray each.

    Returns a list of (first_tuple, count, width, height) rectangles.  A
    tuple longer than a subarray row cannot be stored (the paper notes
    this case is "really rare"; we reject it).
    """
    if tuple_words > subarray_cols:
        raise LayoutError(
            f"tuple of {tuple_words} cells exceeds the {subarray_cols}-cell "
            "subarray row; the paper's layouts do not split tuples"
        )
    slots = subarray_cols // tuple_words
    per_chunk = slots * subarray_rows
    shapes = []
    first = 0
    while first < n_tuples:
        count = min(per_chunk, n_tuples - first)
        if layout is IntraLayout.ROW:
            # Full-width shelves, as many rows as needed.
            used_slots = min(slots, count)
            height = -(-count // slots) if count > slots else 1
            width = used_slots * tuple_words
        else:
            height = min(subarray_rows, count)
            groups = -(-count // height)
            width = groups * tuple_words
        shapes.append((first, count, width, height))
        first += count
    return shapes
