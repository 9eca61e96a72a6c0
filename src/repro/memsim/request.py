"""Memory requests exchanged between the cache hierarchy and controllers."""

import itertools

from repro.orientation import Orientation

_request_ids = itertools.count()


class MemRequest:
    """One 64-byte transfer between the LLC and a memory device.

    Coordinates are pre-decoded so the controller's hot path never touches
    the address mapper.  ``row`` and ``col`` identify the *buffer entry* the
    request needs: for a row-oriented access the open row (``row``) must
    match; for a column-oriented access the open column (``col``) must
    match.  GS-DRAM gathers are row-oriented at the device level.
    """

    __slots__ = (
        "req_id",
        "channel",
        "rank",
        "bank",
        "subarray",
        "row",
        "col",
        "orientation",
        "is_write",
        "arrival",
        "completion",
        "buffer_kind",
        "buffer_index",
        "want",
        "stream",
    )

    def __init__(self, channel, rank, bank, subarray, row, col, orientation, is_write, arrival,
                 stream=0):
        self.req_id = next(_request_ids)
        #: Tenant stream tag (0 = untagged / single-stream).  The fair-share
        #: arbiter in :class:`~repro.memsim.controller.ChannelController`
        #: only engages when more than one stream is queued.
        self.stream = stream
        self.channel = channel
        self.rank = rank
        self.bank = bank
        self.subarray = subarray
        self.row = row
        self.col = col
        self.orientation = orientation
        self.is_write = is_write
        self.arrival = arrival
        self.completion = None
        # Precomputed buffer-entry identity, so the scheduler's inner loop
        # (Bank.matches, called once per queued entry per pick) is one
        # tuple compare instead of property calls:
        #: Which bank buffer this request wants: ROW or COLUMN.
        #: Index of the buffer entry within the subarray (row id or col id).
        if orientation is Orientation.COLUMN:
            self.buffer_kind = Orientation.COLUMN
            self.buffer_index = col
        else:
            self.buffer_kind = Orientation.ROW
            self.buffer_index = row
        #: The (kind, subarray, index) entry this request needs open —
        #: compared against :attr:`Bank.open_entry`.
        self.want = (self.buffer_kind, subarray, self.buffer_index)

    def __repr__(self):
        kind = "W" if self.is_write else "R"
        return (
            f"MemRequest(#{self.req_id} {kind} {self.orientation.name} "
            f"ch{self.channel} rk{self.rank} bk{self.bank} sa{self.subarray} "
            f"r{self.row} c{self.col} @{self.arrival})"
        )
