"""RC-NVM-aware database memory allocator (paper Section 4.5.3).

Chunk placement is "fully operated in software level (i.e., database
memory allocator)": the allocator feeds chunk rectangles to the online
bin packer and maps packer bins onto physical subarrays.  Subarrays are
claimed in an order that stripes consecutive bins across channels, ranks
and banks, so concurrent chunk scans enjoy bank-level parallelism.
"""

from repro.errors import LayoutError
from repro.geometry import Geometry
from repro.imdb.binpack import OnlineBinPacker, Placement


class SubarrayAllocator:
    """Assigns chunk rectangles to subarrays of one memory system."""

    def __init__(self, geometry: Geometry, allow_rotation=True):
        self.geometry = geometry
        self.allow_rotation = allow_rotation
        self.packer = OnlineBinPacker(
            bin_width=geometry.cols,
            bin_height=geometry.rows,
            allow_rotation=allow_rotation,
        )
        self._bin_to_subarray = []
        self._claim_order = self._striped_order(geometry)

    @staticmethod
    def _striped_order(geometry):
        """Subarray ids ordered to stripe across channels, ranks, banks."""
        order = []
        g = geometry
        for sub in range(g.subarrays):
            for bank in range(g.banks):
                for rank in range(g.ranks):
                    for channel in range(g.channels):
                        order.append(
                            ((channel * g.ranks + rank) * g.banks + bank) * g.subarrays
                            + sub
                        )
        return order

    def place(self, width, height) -> Placement:
        """Place a chunk rectangle; returns a placement whose
        ``bin_index`` is already translated to a physical subarray id."""
        placement = self.packer.place(width, height)
        while placement.bin_index >= len(self._bin_to_subarray):
            next_bin = len(self._bin_to_subarray)
            if next_bin >= len(self._claim_order):
                raise LayoutError("out of subarrays: memory is full")
            self._bin_to_subarray.append(self._claim_order[next_bin])
        return Placement(
            bin_index=self._bin_to_subarray[placement.bin_index],
            x=placement.x,
            y=placement.y,
            rotated=placement.rotated,
            width=placement.width,
            height=placement.height,
        )

    @property
    def subarrays_used(self):
        return self.packer.bins_used

    def utilization(self):
        return self.packer.utilization()
