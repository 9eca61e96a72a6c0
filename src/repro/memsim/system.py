"""Top-level memory system model.

A :class:`MemorySystem` bundles a geometry, a device timing model, and one
:class:`~repro.memsim.controller.ChannelController` per channel, and exposes
the request interface used by the cache hierarchy.  Capability flags select
the paper's four evaluated systems:

===========  ================  ================
system       supports_column   supports_gather
===========  ================  ================
DRAM         no                no
RRAM         no                no
GS-DRAM      no                yes
RC-NVM       yes               no
===========  ================  ================
"""

from repro.core.addressing import AddressMapper, Coordinate
from repro.orientation import Orientation
from repro.errors import CapabilityError
from repro.memsim import timing as timings
from repro.geometry import (
    DRAM_GEOMETRY,
    RCNVM_GEOMETRY,
    SMALL_DRAM_GEOMETRY,
    SMALL_RCNVM_GEOMETRY,
    Geometry,
)
from repro.memsim.controller import ChannelController
from repro.memsim.request import MemRequest
from repro.memsim.stats import MemoryStats, combine_stats


class MemorySystem:
    """One simulated main memory (all channels)."""

    def __init__(
        self,
        name,
        geometry: Geometry,
        timing,
        supports_column=False,
        supports_gather=False,
        queue_depth=32,
        policy="frfcfs",
        **sched_kwargs,
    ):
        """``sched_kwargs`` are forwarded to every channel's
        :class:`~repro.memsim.controller.ChannelController`: ``page_policy``,
        ``write_queue_depth``, ``age_cap``, ``drain_high``, ``drain_low``,
        ``adaptive_threshold``, ``write_coalescing``, ``read_around_write``."""
        self.name = name
        self.geometry = geometry
        self.timing = timing
        self.supports_column = supports_column
        self.supports_gather = supports_gather
        self.mapper = AddressMapper(geometry)
        self.controllers = [
            ChannelController(geometry, timing, supports_column, queue_depth,
                              policy, **sched_kwargs)
            for _ in range(geometry.channels)
        ]

    # -- request construction ------------------------------------------------
    def request_for_coord(self, coord: Coordinate, orientation, is_write, arrival,
                          stream=0):
        """Build and submit a request for the line containing ``coord``."""
        if orientation is Orientation.COLUMN and not self.supports_column:
            raise CapabilityError(f"{self.name} does not support column accesses")
        if orientation is Orientation.GATHER and not self.supports_gather:
            raise CapabilityError(f"{self.name} does not support gathered accesses")
        req = MemRequest(
            channel=coord.channel,
            rank=coord.rank,
            bank=coord.bank,
            subarray=coord.subarray,
            row=coord.row,
            col=coord.col,
            orientation=orientation,
            is_write=is_write,
            arrival=arrival,
            stream=stream,
        )
        self.controllers[coord.channel].submit(req)
        return req

    def request_for_line(self, line_address, orientation, is_write, arrival,
                         stream=0):
        """Build and submit a request for a 64-byte line address.

        ``line_address`` is a byte address in the given orientation's
        address space; GS-DRAM gathers must use :meth:`request_for_coord`
        because their synthetic addresses do not decode.
        """
        decode_as = Orientation.ROW if orientation is not Orientation.COLUMN else orientation
        coord = self.mapper.decode(line_address, decode_as)
        return self.request_for_coord(coord, orientation, is_write, arrival,
                                      stream=stream)

    # -- completion ------------------------------------------------------------
    def completion_of(self, req):
        return self.controllers[req.channel].completion_of(req)

    def access(self, coord, orientation, is_write, arrival):
        """Submit a request and immediately resolve its completion time."""
        req = self.request_for_coord(coord, orientation, is_write, arrival)
        return self.completion_of(req)

    def drain(self):
        """Finish all queued requests; return the last completion time."""
        return max(ctrl.drain() for ctrl in self.controllers)

    def flush_buffers(self, now=0):
        for ctrl in self.controllers:
            now = max(now, ctrl.flush_all(now))
        return now

    def reset(self):
        for ctrl in self.controllers:
            ctrl.reset()

    def charge_wal(self, channel, records, cells):
        """Account write-ahead-log appends against one channel's stats.

        ``cells`` includes record framing, so ``wal_cells`` over data
        cells written gives the WAL write-amplification ratio."""
        stats = self.controllers[channel].stats
        stats.wal_records += records
        stats.wal_cells += cells

    def charge_persist(self, channel, flushed_lines):
        """Account one durable-commit persistence barrier: the cache
        flush that pushed ``flushed_lines`` dirty lines into the cell
        arrays ahead of the commit marker."""
        stats = self.controllers[channel].stats
        stats.persist_barriers += 1
        stats.persist_flush_lines += flushed_lines

    # -- statistics ---------------------------------------------------------
    @property
    def stats(self) -> MemoryStats:
        """Every channel's statistics combined into one new block."""
        return combine_stats([ctrl.stats for ctrl in self.controllers])

    @property
    def track_streams(self):
        """True when any channel keeps per-stream service tallies."""
        return any(ctrl.track_streams for ctrl in self.controllers)

    def enable_stream_tracking(self, enabled=True):
        """Toggle per-stream tallies on every channel controller."""
        for ctrl in self.controllers:
            ctrl.track_streams = enabled

    def stream_snapshot(self):
        """Per-stream tallies merged across channels (see
        :meth:`ChannelController.stream_snapshot`)."""
        merged = {}
        for ctrl in self.controllers:
            for stream, tally in ctrl.stream_snapshot().items():
                into = merged.get(stream)
                if into is None:
                    merged[stream] = dict(tally)
                else:
                    for key in ("reads", "writes", "accesses", "buffer_hits",
                                "total_latency_cycles"):
                        into[key] += tally[key]
        for tally in merged.values():
            accesses = tally["accesses"]
            tally["hit_rate"] = (
                tally["buffer_hits"] / accesses if accesses else 0.0
            )
            tally["average_latency"] = (
                tally["total_latency_cycles"] / accesses if accesses else 0.0
            )
        return merged

    def __repr__(self):
        return f"MemorySystem({self.name}, {self.geometry.total_bytes >> 20} MiB)"


# -- factory functions for the paper's four systems ---------------------------

def make_dram(geometry=None, queue_depth=32, policy="frfcfs", **sched_kwargs):
    """Conventional DDR3-1333 DRAM (Table 1)."""
    return MemorySystem(
        "DRAM",
        geometry or DRAM_GEOMETRY,
        timings.DDR3_1333_DRAM,
        queue_depth=queue_depth,
        policy=policy,
        **sched_kwargs,
    )


def make_rram(geometry=None, queue_depth=32, timing=None, policy="frfcfs",
              **sched_kwargs):
    """Conventional crossbar RRAM without the column-access periphery."""
    return MemorySystem(
        "RRAM",
        geometry or RCNVM_GEOMETRY,
        timing or timings.LPDDR3_800_RRAM,
        queue_depth=queue_depth,
        policy=policy,
        **sched_kwargs,
    )


def make_rcnvm(geometry=None, queue_depth=32, timing=None, policy="frfcfs",
               **sched_kwargs):
    """RC-NVM: RRAM with dual addressing and a column buffer per bank."""
    return MemorySystem(
        "RC-NVM",
        geometry or RCNVM_GEOMETRY,
        timing or timings.LPDDR3_800_RCNVM,
        supports_column=True,
        queue_depth=queue_depth,
        policy=policy,
        **sched_kwargs,
    )


def make_gsdram(geometry=None, queue_depth=32, policy="frfcfs", **sched_kwargs):
    """GS-DRAM baseline [Seshadri et al., MICRO 2015]: DRAM whose chips can
    gather one 8-byte field from 8 tuples resident in a single open row."""
    return MemorySystem(
        "GS-DRAM",
        geometry or DRAM_GEOMETRY,
        timings.DDR3_1333_DRAM,
        supports_gather=True,
        queue_depth=queue_depth,
        policy=policy,
        **sched_kwargs,
    )


def make_small_dram(**kwargs):
    return make_dram(SMALL_DRAM_GEOMETRY, **kwargs)


def make_small_rcnvm(**kwargs):
    return make_rcnvm(SMALL_RCNVM_GEOMETRY, **kwargs)
