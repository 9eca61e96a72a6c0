"""Functional (value-carrying) model of the simulated main memory.

Timing and data are split, as in most trace-driven simulators: the memory
*system* (:mod:`repro.memsim`) accounts cycles, while this module stores
the actual bytes so queries return real, checkable results.

Each subarray is a ``rows x cols`` grid of 8-byte cells, materialized
lazily as a NumPy ``int64`` array the first time it is written — so the
full 4 GB Table 1 geometry is usable without allocating 4 GB.
"""

import numpy as np

from repro.core.addressing import AddressMapper, Coordinate
from repro.errors import AddressError
from repro.geometry import Geometry


class PhysicalMemory:
    """Lazy, dual-addressable cell store for one memory system."""

    def __init__(self, geometry: Geometry):
        self.geometry = geometry
        self.mapper = AddressMapper(geometry)
        self._subarrays = {}

    # -- subarray management ------------------------------------------------
    def subarray(self, index) -> np.ndarray:
        """The (rows, cols) int64 cell grid of subarray ``index``."""
        if not 0 <= index < self.geometry.total_subarrays:
            raise AddressError(
                f"subarray {index} out of range [0, {self.geometry.total_subarrays})"
            )
        grid = self._subarrays.get(index)
        if grid is None:
            grid = np.zeros((self.geometry.rows, self.geometry.cols), dtype=np.int64)
            self._subarrays[index] = grid
        return grid

    @property
    def materialized_subarrays(self):
        return len(self._subarrays)

    def subarray_coord(self, index):
        """Invert :meth:`AddressMapper.subarray_index`."""
        g = self.geometry
        sub = index % g.subarrays
        index //= g.subarrays
        bank = index % g.banks
        index //= g.banks
        rank = index % g.ranks
        channel = index // g.ranks
        return channel, rank, bank, sub

    def coordinate(self, subarray_index, row, col, offset=0) -> Coordinate:
        channel, rank, bank, sub = self.subarray_coord(subarray_index)
        return Coordinate(channel, rank, bank, sub, row, col, offset)

    # -- single-cell access ------------------------------------------------------
    def read_cell(self, subarray_index, row, col) -> int:
        return int(self.subarray(subarray_index)[row, col])

    def write_cell(self, subarray_index, row, col, value):
        self.subarray(subarray_index)[row, col] = value

    def read_coord(self, coord: Coordinate) -> int:
        return self.read_cell(self.mapper.subarray_index(coord), coord.row, coord.col)

    def write_coord(self, coord: Coordinate, value):
        self.write_cell(self.mapper.subarray_index(coord), coord.row, coord.col, value)

    # -- run access (the scan primitives) -----------------------------------------
    def read_vertical(self, subarray_index, col, row_start, count) -> np.ndarray:
        """Read ``count`` cells down one column (column-oriented run)."""
        grid = self.subarray(subarray_index)
        self._check_run(row_start, count, grid.shape[0], "row")
        self._check_index(col, grid.shape[1], "col")
        return grid[row_start : row_start + count, col].copy()

    def write_vertical(self, subarray_index, col, row_start, values):
        grid = self.subarray(subarray_index)
        values = np.asarray(values, dtype=np.int64)
        self._check_run(row_start, len(values), grid.shape[0], "row")
        self._check_index(col, grid.shape[1], "col")
        grid[row_start : row_start + len(values), col] = values

    def read_horizontal(self, subarray_index, row, col_start, count) -> np.ndarray:
        """Read ``count`` cells along one row (row-oriented run)."""
        grid = self.subarray(subarray_index)
        self._check_run(col_start, count, grid.shape[1], "col")
        self._check_index(row, grid.shape[0], "row")
        return grid[row, col_start : col_start + count].copy()

    def write_horizontal(self, subarray_index, row, col_start, values):
        grid = self.subarray(subarray_index)
        values = np.asarray(values, dtype=np.int64)
        self._check_run(col_start, len(values), grid.shape[1], "col")
        self._check_index(row, grid.shape[0], "row")
        grid[row, col_start : col_start + len(values)] = values

    def read_strided(self, subarray_index, col, row_start, stride, count) -> np.ndarray:
        """Read cells down one column with a row stride (field scans over
        layouts whose tuples stack vertically with width > 1)."""
        grid = self.subarray(subarray_index)
        last = row_start + stride * (count - 1)
        self._check_run(row_start, last - row_start + 1, grid.shape[0], "row")
        self._check_index(col, grid.shape[1], "col")
        return grid[row_start : last + 1 : stride, col].copy()

    # -- validation helpers ----------------------------------------------------
    @staticmethod
    def _check_run(start, count, limit, what):
        if count < 0 or start < 0 or start + count > limit:
            raise AddressError(f"{what} run [{start}, {start}+{count}) exceeds {limit}")

    @staticmethod
    def _check_index(value, limit, what):
        if not 0 <= value < limit:
            raise AddressError(f"{what}={value} out of range [0, {limit})")
