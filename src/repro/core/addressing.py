"""Dual addressing for RC-NVM (paper Section 4.2, Figure 7).

Every 8-byte word in the memory has two addresses:

* a **row-oriented** address, laid out (high to low) as
  ``channel | rank | bank | subarray | row | col | offset`` — incrementing
  it walks along a physical row, exactly like a conventional address;
* a **column-oriented** address, identical except that the ``row`` and
  ``col`` bit fields trade places — incrementing it walks down a physical
  column.

Because the two formats differ only in the order of two bit fields,
converting between them is a pure bit permutation (`row_to_col_address` /
`col_to_row_address`), which is the property the paper relies on for cheap
address translation in the memory controller.
"""

from dataclasses import dataclass

import numpy as np

from repro.errors import AddressError
from repro.geometry import Geometry, WORD_BYTES
from repro.orientation import Orientation

__all__ = ["AddressMapper", "Coordinate", "Orientation"]


@dataclass(frozen=True)
class Coordinate:
    """Fully decoded location of one byte."""

    channel: int
    rank: int
    bank: int
    subarray: int
    row: int
    col: int
    offset: int = 0

    def word_aligned(self):
        """The coordinate of the 8-byte word containing this byte."""
        if self.offset == 0:
            return self
        return Coordinate(
            self.channel, self.rank, self.bank, self.subarray, self.row, self.col, 0
        )


class AddressMapper:
    """Encode/decode both address formats for a given :class:`Geometry`."""

    def __init__(self, geometry: Geometry):
        self.geometry = geometry
        g = geometry
        self._offset_bits = g.offset_bits
        self._row_bits = g.row_bits
        self._col_bits = g.col_bits
        self._sub_bits = g.subarray_bits
        self._bank_bits = g.bank_bits
        self._rank_bits = g.rank_bits
        self._chan_bits = g.channel_bits
        self._offset_mask = (1 << self._offset_bits) - 1
        self._row_mask = (1 << self._row_bits) - 1
        self._col_mask = (1 << self._col_bits) - 1
        self._sub_mask = (1 << self._sub_bits) - 1
        self._bank_mask = (1 << self._bank_bits) - 1
        self._rank_mask = (1 << self._rank_bits) - 1
        self._chan_mask = (1 << self._chan_bits) - 1
        self._address_bits = g.address_bits
        self._address_mask = (1 << self._address_bits) - 1
        # Shift positions for the row-oriented format.
        self._ro_col_shift = self._offset_bits
        self._ro_row_shift = self._ro_col_shift + self._col_bits
        self._sub_shift = self._ro_row_shift + self._row_bits
        self._bank_shift = self._sub_shift + self._sub_bits
        self._rank_shift = self._bank_shift + self._bank_bits
        self._chan_shift = self._rank_shift + self._rank_bits
        # In the column-oriented format only row and col swap places.
        self._co_row_shift = self._offset_bits
        self._co_col_shift = self._co_row_shift + self._row_bits
        # Precomputed permutation tables: (source shift, field mask,
        # destination shift) triples moving the row/col fields between the
        # two formats, plus the mask of bits both formats share.  Both the
        # scalar conversions and the vectorized array conversions apply
        # the same tables, so they agree by construction.
        self._keep_mask = self._address_mask ^ (
            ((1 << self._sub_shift) - 1) ^ self._offset_mask
        )
        self._perm_row_to_col = (
            (self._ro_row_shift, self._row_mask, self._co_row_shift),
            (self._ro_col_shift, self._col_mask, self._co_col_shift),
        )
        self._perm_col_to_row = (
            (self._co_row_shift, self._row_mask, self._ro_row_shift),
            (self._co_col_shift, self._col_mask, self._ro_col_shift),
        )

    # -- validation ------------------------------------------------------
    def _check(self, coord: Coordinate):
        g = self.geometry
        limits = (
            ("channel", coord.channel, g.channels),
            ("rank", coord.rank, g.ranks),
            ("bank", coord.bank, g.banks),
            ("subarray", coord.subarray, g.subarrays),
            ("row", coord.row, g.rows),
            ("col", coord.col, g.cols),
            ("offset", coord.offset, WORD_BYTES),
        )
        for name, value, limit in limits:
            if not 0 <= value < limit:
                raise AddressError(f"{name}={value} out of range [0, {limit})")

    def _check_address(self, address):
        if not 0 <= address <= self._address_mask:
            raise AddressError(
                f"address {address:#x} outside {self._address_bits}-bit space"
            )

    # -- encoding --------------------------------------------------------
    def encode(self, coord: Coordinate, orientation: Orientation) -> int:
        """Encode a coordinate into the requested address space."""
        self._check(coord)
        common = (
            (coord.channel << self._chan_shift)
            | (coord.rank << self._rank_shift)
            | (coord.bank << self._bank_shift)
            | (coord.subarray << self._sub_shift)
            | coord.offset
        )
        if orientation is Orientation.ROW:
            return common | (coord.row << self._ro_row_shift) | (coord.col << self._ro_col_shift)
        if orientation is Orientation.COLUMN:
            return common | (coord.col << self._co_col_shift) | (coord.row << self._co_row_shift)
        raise AddressError("gathered addresses are synthesized by the GS-DRAM model")

    def encode_cells(self, channel, rank, bank, subarray, rows, cols, orientation):
        """Vectorized :meth:`encode` of many word cells of one subarray.

        ``rows`` and ``cols`` are equal-length int arrays; the other parts
        are scalars.  Raises the :class:`AddressError` that scalar
        :meth:`encode` would raise on the first bad cell (scalar parts
        are checked even when the arrays are empty).
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        g = self.geometry
        bad = (rows < 0) | (rows >= g.rows) | (cols < 0) | (cols >= g.cols)
        cell = (0, 0)
        if bad.any():
            first = int(bad.argmax())
            cell = (int(rows[first]), int(cols[first]))
        self._check(Coordinate(channel, rank, bank, subarray, *cell))
        common = (
            (channel << self._chan_shift)
            | (rank << self._rank_shift)
            | (bank << self._bank_shift)
            | (subarray << self._sub_shift)
        )
        if orientation is Orientation.ROW:
            return common | (rows << self._ro_row_shift) | (cols << self._ro_col_shift)
        if orientation is Orientation.COLUMN:
            return common | (cols << self._co_col_shift) | (rows << self._co_row_shift)
        raise AddressError("gathered addresses are synthesized by the GS-DRAM model")

    def encode_row(self, coord: Coordinate) -> int:
        return self.encode(coord, Orientation.ROW)

    def encode_col(self, coord: Coordinate) -> int:
        return self.encode(coord, Orientation.COLUMN)

    # -- decoding --------------------------------------------------------
    def decode(self, address: int, orientation: Orientation) -> Coordinate:
        """Decode an address from the given address space."""
        self._check_address(address)
        if orientation is Orientation.ROW:
            row = (address >> self._ro_row_shift) & self._row_mask
            col = (address >> self._ro_col_shift) & self._col_mask
        elif orientation is Orientation.COLUMN:
            row = (address >> self._co_row_shift) & self._row_mask
            col = (address >> self._co_col_shift) & self._col_mask
        else:
            raise AddressError("gathered addresses do not decode to coordinates")
        return Coordinate(
            channel=(address >> self._chan_shift) & self._chan_mask,
            rank=(address >> self._rank_shift) & self._rank_mask,
            bank=(address >> self._bank_shift) & self._bank_mask,
            subarray=(address >> self._sub_shift) & self._sub_mask,
            row=row,
            col=col,
            offset=address & self._offset_mask,
        )

    def decode_row(self, address: int) -> Coordinate:
        return self.decode(address, Orientation.ROW)

    def decode_col(self, address: int) -> Coordinate:
        return self.decode(address, Orientation.COLUMN)

    # -- conversion (the bit permutation of Section 4.2.1) ---------------
    def _permute(self, address, table):
        """Apply a permutation table to an int or an int64 ndarray."""
        out = address & self._keep_mask
        for src_shift, mask, dst_shift in table:
            out |= ((address >> src_shift) & mask) << dst_shift
        return out

    def row_to_col_address(self, address: int) -> int:
        """Translate a row-oriented address of a word to its column-oriented
        address (``Row2ColAddr`` in the paper's Figure 11)."""
        self._check_address(address)
        return self._permute(address, self._perm_row_to_col)

    def col_to_row_address(self, address: int) -> int:
        """Inverse of :meth:`row_to_col_address`."""
        self._check_address(address)
        return self._permute(address, self._perm_col_to_row)

    def _check_address_array(self, addresses):
        if addresses.size and (
            int(addresses.min()) < 0 or int(addresses.max()) > self._address_mask
        ):
            bad = addresses[(addresses < 0) | (addresses > self._address_mask)]
            raise AddressError(
                f"address {int(bad[0]):#x} outside {self._address_bits}-bit space"
            )

    def row_to_col_addresses(self, addresses):
        """Vectorized :meth:`row_to_col_address` over an int64 array."""
        addresses = np.asarray(addresses, dtype=np.int64)
        self._check_address_array(addresses)
        return self._permute(addresses, self._perm_row_to_col)

    def col_to_row_addresses(self, addresses):
        """Vectorized :meth:`col_to_row_address` over an int64 array."""
        addresses = np.asarray(addresses, dtype=np.int64)
        self._check_address_array(addresses)
        return self._permute(addresses, self._perm_col_to_row)

    def decode_fields(self, addresses, orientations):
        """Vectorized decode of many addresses at once.

        ``orientations`` is an int array (0 = ROW, 1 = COLUMN) giving the
        address space each entry of ``addresses`` lives in; gathered
        addresses are synthetic and must not be passed here.  Returns
        ``(channel, rank, bank, subarray, row, col)`` int64 arrays — the
        batched counterpart of :meth:`decode` used by the replay fast
        path, so the memory controller's hot path never touches scalar
        bit arithmetic.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        orientations = np.asarray(orientations)
        self._check_address_array(addresses)
        is_col = orientations == int(Orientation.COLUMN)
        row = (addresses >> self._ro_row_shift) & self._row_mask
        col = (addresses >> self._ro_col_shift) & self._col_mask
        co_row = (addresses >> self._co_row_shift) & self._row_mask
        co_col = (addresses >> self._co_col_shift) & self._col_mask
        return (
            (addresses >> self._chan_shift) & self._chan_mask,
            (addresses >> self._rank_shift) & self._rank_mask,
            (addresses >> self._bank_shift) & self._bank_mask,
            (addresses >> self._sub_shift) & self._sub_mask,
            np.where(is_col, co_row, row),
            np.where(is_col, co_col, col),
        )

    def to_orientation(self, address: int, current: Orientation, wanted: Orientation) -> int:
        """Re-express ``address`` (currently in ``current`` format) in ``wanted``."""
        if current is wanted:
            return address
        if current is Orientation.ROW and wanted is Orientation.COLUMN:
            return self.row_to_col_address(address)
        if current is Orientation.COLUMN and wanted is Orientation.ROW:
            return self.col_to_row_address(address)
        raise AddressError(f"cannot convert {current.name} address to {wanted.name}")

    # -- physical (functional) index --------------------------------------
    def subarray_index(self, coord: Coordinate) -> int:
        """Flat index of the subarray holding ``coord`` (for lazy backing
        storage: only subarrays actually written are materialized)."""
        g = self.geometry
        return (
            ((coord.channel * g.ranks + coord.rank) * g.banks + coord.bank) * g.subarrays
            + coord.subarray
        )

    def cell_index(self, coord: Coordinate) -> int:
        """Word index of ``coord`` within its subarray (row-major)."""
        return coord.row * self.geometry.cols + coord.col

    def physical_index(self, coord: Coordinate) -> int:
        """Flat byte index of ``coord`` over the whole memory."""
        return (
            self.subarray_index(coord) * self.geometry.subarray_bytes
            + self.cell_index(coord) * WORD_BYTES
            + coord.offset
        )
