"""Bank timing state machine with RC-NVM's dual buffers.

A bank owns one row buffer and (on RC-NVM) one column buffer, but the two
are never active at the same time: the paper resolves the buffer-coherence
problem by closing and flushing the active buffer before a row/column
orientation switch (Section 3).  We therefore model the bank as holding at
most one *open buffer entry*, identified by ``(kind, subarray, index)``
where ``kind`` is ROW or COLUMN, and ``index`` is the open row id (for the
row buffer) or open column id (for the column buffer).
"""

from repro.orientation import Orientation
from repro.errors import CapabilityError
from repro.memsim.timing import DeviceTiming


class Bank:
    """Timing state for one bank of one rank."""

    __slots__ = (
        "timing",
        "supports_column",
        "open_kind",
        "open_subarray",
        "open_index",
        "open_entry",
        "dirty",
        "ready_at",
        "activated_at",
        "accesses",
        "activations",
        "wear_tracker",
        "wear_identity",
        "_cas_cpu",
        "_rcd_cpu",
        "_rp_cpu",
        "_ras_cpu",
        "_burst_cpu",
        "_write_pulse_cpu",
    )

    def __init__(self, timing: DeviceTiming, supports_column: bool):
        self.timing = timing
        self.supports_column = supports_column
        self.open_kind = None
        self.open_subarray = None
        self.open_index = None
        #: The open ``(kind, subarray, index)`` entry as one tuple — the
        #: scheduler's hit test is a single compare against ``req.want``.
        self.open_entry = (None, None, None)
        self.dirty = False
        self.ready_at = 0
        self.activated_at = 0
        self.accesses = 0
        self.activations = 0
        #: Optional endurance hooks (repro.memsim.endurance).
        self.wear_tracker = None
        self.wear_identity = None
        # DeviceTiming is frozen, so its CPU-cycle conversions are constants.
        self._cas_cpu = timing.cas_cpu
        self._rcd_cpu = timing.rcd_cpu
        self._rp_cpu = timing.rp_cpu
        self._ras_cpu = timing.ras_cpu
        self._burst_cpu = timing.burst_cpu
        self._write_pulse_cpu = timing.write_pulse_cpu

    def _record_wear(self):
        if self.wear_tracker is not None and self.open_kind is not None:
            channel, rank, bank = self.wear_identity
            self.wear_tracker.record_flush(
                channel, rank, bank, self.open_subarray, self.open_kind,
                self.open_index,
            )

    def reset(self):
        """Return to power-on state: buffers closed, timing and counters
        zeroed.  Endurance hooks (``wear_tracker``/``wear_identity``) are
        deliberately kept — they identify the bank, not its state."""
        self.open_kind = None
        self.open_subarray = None
        self.open_index = None
        self.open_entry = (None, None, None)
        self.dirty = False
        self.ready_at = 0
        self.activated_at = 0
        self.accesses = 0
        self.activations = 0

    # -- queries -----------------------------------------------------------
    def matches(self, req):
        return self.open_entry == req.want

    # -- timing ------------------------------------------------------------
    def prepare(self, req, stats):
        """Open the buffer entry ``req`` needs, starting no earlier than the
        request's arrival or the bank's own readiness.

        Returns ``(start, data_at)``: when the bank began working on the
        request and when the requested 64 bytes are ready to burst (for
        reads) or ready to be absorbed (for writes).  Updates buffer state
        and statistics; the controller is responsible for bus scheduling and
        for pushing ``ready_at`` past the burst.
        """
        kind = req.buffer_kind
        if kind is Orientation.COLUMN and not self.supports_column:
            raise CapabilityError(
                f"{self.timing.name} has no column buffer; "
                "column-oriented accesses require RC-NVM"
            )
        start = max(req.arrival, self.ready_at)
        prep = 0
        if self.open_entry == req.want:
            stats.buffer_hits += 1
        else:
            if self.open_kind is None:
                stats.buffer_empty_misses += 1
            else:
                stats.buffer_conflicts += 1
                if self.open_kind is not kind:
                    stats.orientation_switches += 1
                # Honour tRAS: a row must stay open long enough for restore.
                earliest_close = self.activated_at + self._ras_cpu
                if earliest_close > start:
                    prep += earliest_close - start
                if self.dirty:
                    # NVM pays the write pulse to flush the buffer back into
                    # the crossbar array; DRAM restore is covered by tRAS.
                    prep += self._write_pulse_cpu
                    stats.dirty_flushes += 1
                    if self._write_pulse_cpu:
                        stats.write_pulses += 1
                    self._record_wear()
                prep += self._rp_cpu
            prep += self._rcd_cpu
            stats.activations += 1
            self.activations += 1
            self.open_kind = kind
            self.open_subarray = req.subarray
            self.open_index = req.buffer_index
            self.open_entry = req.want
            self.activated_at = start + prep
            self.dirty = False
        data_at = start + prep + self._cas_cpu
        if req.is_write:
            self.dirty = True
        self.accesses += 1
        # Column commands pipeline: the bank can accept the next command
        # after one burst slot (tCCD ~= BL/2); it need not wait for the
        # previous data to finish on the bus.  The shared bus is the
        # serializing resource for open-buffer streams.
        self.ready_at = start + prep + self._burst_cpu
        return start, data_at

    def flush(self, stats, now):
        """Close the open buffer (used when a system is reset/drained)."""
        if self.open_kind is None:
            return now
        done = max(now, self.ready_at)
        if self.dirty:
            done += self._write_pulse_cpu
            stats.dirty_flushes += 1
            if self._write_pulse_cpu:
                stats.write_pulses += 1
            self._record_wear()
        done += self._rp_cpu
        self.open_kind = None
        self.open_subarray = None
        self.open_index = None
        self.open_entry = (None, None, None)
        self.dirty = False
        self.ready_at = done
        return done
