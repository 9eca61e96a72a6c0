"""Hybrid DRAM + RC-NVM tiered memory with hot/cold chunk migration.

Motivated by Meza et al. (row-buffer locality in future NVMs) and Yoon
et al. (row-buffer-locality-aware hybrid memory controllers): RC-NVM
gives symmetric row/column access but still pays NVM latencies on every
buffer miss, so a small DRAM tier in front absorbs the hot,
buffer-friendly traffic.  Three pieces live here:

* :class:`TieredMemorySystem` — one address space covering both tiers.
  The DRAM tier is modeled as extra channels appended to the NVM
  geometry (channels ``[0, C)`` are NVM, ``[C, 2C)`` are DRAM), each
  with its own :class:`~repro.memsim.controller.ChannelController`
  running DDR3 timing.  Because both tiers share one
  :class:`~repro.core.addressing.AddressMapper`, synonyms, traces,
  physical memory, ECC and the fuzz harness's geometry audits all work
  unchanged; tier is a property of the channel a request routes to.
  The DRAM channels are dual-addressable like the NVM ones — an
  idealization (think of the tier as a wide buffer cache able to serve
  either orientation) that keeps the executor layout-agnostic.
* :class:`HeatTracker` — per-chunk access counts with exponential epoch
  decay, fed from the same finalized traces the ``repro.obs`` access
  counters are built on.
* :class:`TieringEngine` — the migration policy.  At epoch boundaries
  it demotes cold DRAM residents and promotes hot NVM chunks (hottest
  first, under a configurable cell-capacity budget), reusing
  :meth:`repro.imdb.table.Table.remap_chunk` so placement, synonym
  mapping, ECC backups and the template-cache epoch all stay
  consistent.

Ordering rule (durability): a migration never runs between a WAL record
and its commit marker — :meth:`TieringEngine.rebalance` refuses while
``durability.pending`` — and migrations themselves are *not* WAL-logged,
so recovery deterministically replays committed statements into
NVM-tier placements (the DRAM tier is volatile; see
``repro.durability.recovery``).
"""

import dataclasses

import numpy as np

from repro.errors import LayoutError
from repro.geometry import RCNVM_GEOMETRY, SMALL_RCNVM_GEOMETRY, WORDS_PER_LINE
from repro.memsim import timing as timings
from repro.memsim.controller import ChannelController
from repro.memsim.system import MemorySystem


class TieredMemorySystem(MemorySystem):
    """A hybrid memory: NVM channels fronted by DRAM-tier channels."""

    tiered = True

    def __init__(self, name, nvm_geometry, nvm_timing=None, dram_timing=None,
                 queue_depth=32, policy="frfcfs", **sched_kwargs):
        nvm_timing = nvm_timing or timings.LPDDR3_800_RCNVM
        dram_timing = dram_timing or timings.DDR3_1333_DRAM
        tier_geometry = dataclasses.replace(
            nvm_geometry, channels=nvm_geometry.channels * 2
        )
        super().__init__(
            name,
            tier_geometry,
            nvm_timing,
            supports_column=True,
            queue_depth=queue_depth,
            policy=policy,
            **sched_kwargs,
        )
        #: Channels ``[0, nvm_channels)`` are NVM; the rest are DRAM.
        self.nvm_channels = nvm_geometry.channels
        self.dram_timing = dram_timing
        for channel in range(self.nvm_channels, tier_geometry.channels):
            ctrl = ChannelController(
                tier_geometry, dram_timing, True, queue_depth, policy,
                **sched_kwargs,
            )
            ctrl.tier = 1
            self.controllers[channel] = ctrl

    def tier_of_channel(self, channel):
        return 1 if channel >= self.nvm_channels else 0

    def timing_of_tier(self, tier):
        return self.dram_timing if tier else self.timing

    def tier_stats(self, tier):
        """Merged stats over one tier's channels only."""
        from repro.memsim.stats import MemoryStats

        merged = MemoryStats()
        for ctrl in self.controllers:
            if ctrl.tier == tier:
                merged = merged.merge(ctrl.stats)
        return merged


def make_tiered(geometry=None, nvm_timing=None, dram_timing=None,
                queue_depth=32, policy="frfcfs", **sched_kwargs):
    """DRAM-fronted RC-NVM (DDR3-1333 tier over LPDDR3-800 RC-NVM)."""
    return TieredMemorySystem(
        "TIERED",
        geometry or RCNVM_GEOMETRY,
        nvm_timing=nvm_timing,
        dram_timing=dram_timing,
        queue_depth=queue_depth,
        policy=policy,
        **sched_kwargs,
    )


def make_small_tiered(**kwargs):
    return make_tiered(SMALL_RCNVM_GEOMETRY, **kwargs)


class HeatTracker:
    """Per-key access heat with exponential epoch decay.

    Within an epoch, :meth:`record` accumulates raw access counts.  At
    :meth:`advance_epoch`, ``heat = heat * decay + counts`` — so heat is
    a geometric moving average of per-epoch traffic.  Keys whose heat
    decays below ``min_heat`` (and that saw no traffic this epoch) are
    dropped, bounding the table to chunks that matter.

    Properties relied on by the migration engine (and pinned by
    ``tests/test_tiering.py``):

    * **decay monotonicity** — with no new accesses, heat never
      increases, and with ``decay < 1`` it strictly decreases until the
      key is dropped;
    * the tracker never invents heat: a never-recorded key reads 0.
    """

    def __init__(self, decay=0.5, min_heat=1e-3):
        if not 0.0 <= decay < 1.0:
            raise ValueError(f"decay must be in [0, 1), got {decay}")
        self.decay = decay
        self.min_heat = min_heat
        self.heat = {}
        self._counts = {}

    def record(self, key, n=1):
        if n < 0:
            raise ValueError(f"cannot record {n} accesses")
        if n:
            self._counts[key] = self._counts.get(key, 0) + n

    def advance_epoch(self):
        counts = self._counts
        for key in set(self.heat) | set(counts):
            value = self.heat.get(key, 0.0) * self.decay + counts.get(key, 0)
            if value < self.min_heat:
                self.heat.pop(key, None)
            else:
                self.heat[key] = value
        self._counts = {}

    def heat_of(self, key):
        return self.heat.get(key, 0.0)


class TieringEngine:
    """Heat-driven promotion/demotion of chunk rectangles between tiers.

    Attached to a :class:`~repro.imdb.database.Database` whose memory is
    a :class:`TieredMemorySystem` (the database does this automatically).
    ``note_statement`` observes each statement's trace; every
    ``epoch_statements`` statements the heat tracker advances an epoch
    and — when migration is allowed — :meth:`rebalance` runs.

    Hysteresis: ``promote_threshold`` must exceed ``demote_threshold``,
    so a chunk whose heat sits between the two is left where it is, and
    a chunk is moved at most once per epoch (``last_moved_epoch``), which
    together rule out promote/demote ping-pong.
    """

    def __init__(self, database, capacity_cells=None, promote_threshold=32.0,
                 demote_threshold=4.0, epoch_statements=4, decay=0.5,
                 sample_limit=2048, max_moves_per_epoch=4):
        if promote_threshold <= demote_threshold:
            raise ValueError(
                f"hysteresis requires promote_threshold "
                f"{promote_threshold} > demote_threshold {demote_threshold}"
            )
        if epoch_statements < 1:
            raise ValueError("epoch_statements must be at least 1")
        self.db = database
        geometry = database.memory.geometry
        #: DRAM-tier budget in cell words (not the tier's raw size: the
        #: point of the experiment is a *small* hot tier).
        self.capacity_cells = (
            geometry.rows * geometry.cols if capacity_cells is None
            else capacity_cells
        )
        self.promote_threshold = promote_threshold
        self.demote_threshold = demote_threshold
        self.epoch_statements = epoch_statements
        self.sample_limit = sample_limit
        self.max_moves_per_epoch = max_moves_per_epoch
        self.tracker = HeatTracker(decay=decay)
        self.epoch = 0
        self._statements = 0
        #: ``key -> epoch`` of the last move (ping-pong guard).
        self.last_moved_epoch = {}
        # Cumulative ledger (controller migration counters reset with
        # every statement's fresh timing; these survive).
        self.promotions = 0
        self.demotions = 0
        self.migrated_cells = 0
        self._per_channel = (
            geometry.ranks * geometry.banks * geometry.subarrays
        )

    # -- observation ---------------------------------------------------------
    @staticmethod
    def chunk_key(table, chunk):
        return (table.name, chunk.first_tuple)

    def _chunks(self):
        for table in self.db.tables.values():
            for chunk in table.chunks:
                yield table, chunk

    def tier_of_placement(self, placement):
        channel = placement.bin_index // self._per_channel
        return 1 if channel >= self.db.memory.nvm_channels else 0

    def dram_resident_cells(self):
        return sum(
            chunk.width * chunk.height
            for _table, chunk in self._chunks()
            if self.tier_of_placement(chunk.placement)
        )

    def observe(self, trace):
        """Attribute one statement's traced accesses to chunk heat."""
        from repro.cpu.trace import Op

        ops, addresses, sizes, _gaps, _flags, orients = trace.columns()
        if not len(ops):
            return
        plain = (
            (ops == int(Op.READ)) | (ops == int(Op.WRITE))
            | (ops == int(Op.CREAD)) | (ops == int(Op.CWRITE))
        )
        indices = np.nonzero(plain)[0]
        if not len(indices):
            return
        if len(indices) > self.sample_limit:
            # Heat is a heuristic; a strided sample keeps observation
            # O(sample_limit) on huge scans without biasing toward any
            # one chunk (scans interleave chunks in trace order).
            indices = indices[:: len(indices) // self.sample_limit + 1]
        mapper = self.db.physmem.mapper
        g = self.db.physmem.geometry
        addr = addresses[indices]
        orient = orients[indices].astype(np.int64)
        # Heat is measured in cell words, not ops: one column read
        # covering a whole field run is hotter than one scattered-word
        # row access.
        words = (sizes[indices].astype(np.int64) + 7) // 8
        ch, rk, bk, sub, row, col = mapper.decode_fields(addr, orient)
        sub_index = (
            ((ch * g.ranks + rk) * g.banks + bk) * g.subarrays + sub
        )
        for table, chunk in self._chunks():
            p = chunk.placement
            inside = (
                (sub_index == p.bin_index)
                & (row >= p.y) & (row < p.y + p.height)
                & (col >= p.x) & (col < p.x + p.width)
            )
            n = int(words[inside].sum())
            if n:
                self.tracker.record(self.chunk_key(table, chunk), n)

    def note_statement(self, outcome, allow_migration=True):
        """Feed one executed statement; maybe advance an epoch.

        ``allow_migration=False`` observes heat without moving anything —
        the serving front end uses this so migrations only happen between
        dispatch rounds, never while a round's traces are pending replay
        (stream fairness: no tenant's in-flight work is invalidated)."""
        trace = getattr(outcome, "trace", None)
        if trace is not None:
            self.observe(trace)
        self._statements += 1
        if self._statements >= self.epoch_statements:
            self._statements = 0
            self.tracker.advance_epoch()
            self.epoch += 1
            if allow_migration:
                self.rebalance()

    # -- migration -----------------------------------------------------------
    def rebalance(self):
        """Demote cold DRAM residents, promote hot NVM chunks; returns
        the number of chunks moved.  Refuses to move anything while a
        durable statement is mid-commit (between its first WAL record
        and its commit marker): recovery replays committed statements
        against deterministic NVM placements, and a migration inside the
        barrier would tear that."""
        durability = getattr(self.db, "durability", None)
        if durability is not None and durability.pending:
            return 0
        moved = 0
        tracker = self.tracker
        epoch = self.epoch
        # Demotions first: cold residents release budget for this
        # epoch's promotions.
        for table, chunk in list(self._chunks()):
            if moved >= self.max_moves_per_epoch:
                return moved
            key = self.chunk_key(table, chunk)
            if (
                self.tier_of_placement(chunk.placement) == 1
                and tracker.heat_of(key) <= self.demote_threshold
                and self.last_moved_epoch.get(key) != epoch
            ):
                if self._move(table, chunk, tier=0):
                    moved += 1
        resident = self.dram_resident_cells()
        candidates = [
            (tracker.heat_of(self.chunk_key(table, chunk)), table, chunk)
            for table, chunk in self._chunks()
            if self.tier_of_placement(chunk.placement) == 0
            and tracker.heat_of(self.chunk_key(table, chunk))
            >= self.promote_threshold
            and self.last_moved_epoch.get(self.chunk_key(table, chunk)) != epoch
        ]
        candidates.sort(key=lambda c: (-c[0], c[1].name, c[2].first_tuple))
        for heat, table, chunk in candidates:
            if moved >= self.max_moves_per_epoch:
                break
            cells = chunk.width * chunk.height
            if resident + cells > self.capacity_cells:
                continue
            if self._move(table, chunk, tier=1):
                moved += 1
                resident += cells
        return moved

    def _move(self, table, chunk, tier):
        """One promotion (tier=1) or demotion (tier=0); False if the
        destination tier cannot place the rectangle."""
        durability = getattr(self.db, "durability", None)
        crash_point = None
        if durability is not None:
            crash_point = lambda: durability.crash_point("during-migration")
        try:
            old, new = table.remap_chunk(
                chunk, crash_point=crash_point, tier=tier, release=True
            )
        except LayoutError:
            return False
        key = self.chunk_key(table, chunk)
        self.last_moved_epoch[key] = self.epoch
        cells = chunk.width * chunk.height
        src = self.db.memory.timing_of_tier(1 - tier)
        dst = self.db.memory.timing_of_tier(tier)
        lines = -(-cells // WORDS_PER_LINE)
        cycles = int(
            src.rcd_cpu + dst.rcd_cpu
            + lines * (src.cas_cpu + src.burst_cpu
                       + dst.cas_cpu + dst.burst_cpu + dst.write_pulse_cpu)
        )
        channel = new.bin_index // self._per_channel
        self.db.memory.charge_migration(
            channel, cells=cells, cycles=cycles, promoted=bool(tier)
        )
        if tier:
            self.promotions += 1
        else:
            self.demotions += 1
        self.migrated_cells += cells
        return True

    # -- audits --------------------------------------------------------------
    def check_consistency(self):
        """Internal-consistency violations, as strings (fuzz audits)."""
        problems = []
        resident_cells = 0
        resident_chunks = 0
        for table, chunk in self._chunks():
            p = chunk.placement
            channel = p.bin_index // self._per_channel
            if not 0 <= channel < self.db.memory.geometry.channels:
                problems.append(
                    f"chunk {self.chunk_key(table, chunk)} placed on "
                    f"channel {channel} outside the tiered geometry"
                )
            if self.tier_of_placement(p):
                resident_cells += chunk.width * chunk.height
                resident_chunks += 1
        if resident_cells > self.capacity_cells:
            problems.append(
                f"DRAM tier holds {resident_cells} cells, over the "
                f"{self.capacity_cells}-cell budget"
            )
        if self.demotions > self.promotions:
            problems.append(
                f"{self.demotions} demotions exceed "
                f"{self.promotions} promotions"
            )
        # ECC remaps may pull a chunk back to NVM without a demotion
        # entry, so the ledger bounds residency from above only.
        if self.promotions - self.demotions < resident_chunks:
            problems.append(
                f"{resident_chunks} DRAM-resident chunks but ledger shows "
                f"{self.promotions} promotions - {self.demotions} demotions"
            )
        return problems

    def snapshot(self):
        """JSON-ready migration/occupancy summary (harness output)."""
        return {
            "epoch": self.epoch,
            "promotions": self.promotions,
            "demotions": self.demotions,
            "migrated_cells": self.migrated_cells,
            "dram_resident_cells": self.dram_resident_cells(),
            "capacity_cells": self.capacity_cells,
            "tracked_chunks": len(self.tracker.heat),
        }
