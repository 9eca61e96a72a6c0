"""Cache synonym resolution for dual-addressed data (paper Section 4.3).

The same 8-byte word can be cached twice: once inside a row-oriented line
and once inside a column-oriented line.  The paper keeps both copies
coherent with per-word *crossing bits* (Section 4.3.2):

* when a line is filled, the (up to) eight opposite-orientation lines that
  cross it are probed; for each one resident, the crossed word is copied
  so the duplicates agree and the crossing bits are set on both sides;
* when a word with a set crossing bit is written, the duplicate in the
  crossed line is updated at the same time;
* when a line is evicted, the crossing bits pointing at it are cleared.

:class:`SynonymDirectory` is the one owner of these rules for the LLC it
serves: it keeps that LLC's residency counts, applies the three rules,
computes the crossing geometry, prices the extra cache-array work and
audits the crossing bits.  The single-core
:class:`~repro.cache.hierarchy.CacheHierarchy` and the multicore
:class:`~repro.cache.coherence.MesiDirectory` ("synonym first, then
MESI", Section 4.3.3) call it once per LLC fill, write and eviction and
keep no copy of the rules; the replay kernel
(:mod:`repro.cpu.replaykernel`) applies the fill rule to a whole
read-only trace at once through :meth:`SynonymDirectory.read_fills`.
"""

from collections import namedtuple

import numpy as np

from repro.core.addressing import AddressMapper, Orientation
from repro.cache.line import (
    SPACE_SHIFT,
    key_address,
    key_line_index,
    key_orientation,
    line_key,
)
from repro.cache.stats import SynonymStats
from repro.geometry import CACHE_LINE_BYTES, WORDS_PER_LINE

_ROW_TAG = int(Orientation.ROW)
_COL_TAG = int(Orientation.COLUMN)
_GATHER_TAG = int(Orientation.GATHER)

#: What :meth:`SynonymDirectory.read_fills` returns: per fill, the cycles
#: ``on_fill`` charges and the crossing mask the line ends with; the
#: resident ``[row, column]`` counts; and the check and copy totals.
ReadFills = namedtuple("ReadFills", "cycles crossing resident checks copies")


class SynonymDirectory:
    """The Section 4.3 synonym rules for one LLC of one memory system.

    A resolver serves one LLC, because it holds that LLC's residency
    counts: build one per LLC, and pass that LLC to every rule.  Gathered
    lines live in their own address space and never cross anything.
    """

    #: Default costs in CPU cycles.  The eight crossing probes of a fill
    #: are performed by the cache controller in parallel with the fill
    #: itself, so a fill is charged one batch, not eight sequential probes;
    #: copies and duplicate updates move 8 bytes inside the cache array.
    PROBE_BATCH_COST = 2
    COPY_COST = 4
    WRITE_UPDATE_COST = 2
    CLEAR_COST = 1

    def __init__(self, mapper: AddressMapper):
        self.mapper = mapper
        g = mapper.geometry
        self._row_bits = g.row_bits
        self._col_bits = g.col_bits
        self._offset_bits = g.offset_bits
        # Shifts within a *byte address* of each format.
        self._ro_col_shift = self._offset_bits
        self._ro_row_shift = self._ro_col_shift + self._col_bits
        self._co_row_shift = self._offset_bits
        self._co_col_shift = self._co_row_shift + self._row_bits
        self._upper_shift = self._offset_bits + self._row_bits + self._col_bits
        self._row_mask = (1 << self._row_bits) - 1
        self._col_mask = (1 << self._col_bits) - 1
        #: LLC-resident lines per address-space tag (row, column; gathered
        #: lines are not counted).  A fill skips its crossing probes while
        #: no opposite-orientation line is resident.
        self.resident = [0, 0, 0]
        self.stats = SynonymStats()

    # -- rules (Section 4.3.2) ----------------------------------------------
    def on_fill(self, llc, line):
        """``line`` was just filled into ``llc``, after any victim left.

        Counts it; if opposite-orientation lines are resident, copies each
        crossed word from a resident crossing line and sets the crossing
        bits on both sides.  Returns the cycles charged.
        """
        tag = line.key >> SPACE_SHIFT
        if tag == _GATHER_TAG:
            return 0
        resident = self.resident
        resident[tag] += 1
        if not resident[tag ^ 1]:
            return 0
        copies = 0
        for cross_key, word_self, word_other in self.crossing_keys(line.key):
            other = llc.probe(cross_key)
            if other is None:
                continue
            line.set_crossing(word_self)
            other.set_crossing(word_other)
            copies += 1
        return self.charge_fill_check(copies)

    def read_fills(self, keys):
        """:meth:`on_fill` for each of ``keys`` in turn, in bulk: the LLC
        starts empty, every key is filled once, in order, and nothing is
        evicted or written meanwhile (a fresh, read-only replay that fits
        the LLC).  Then the LLC holds exactly the keys filled before each
        fill, so the rule depends on ``keys`` alone.

        Returns :data:`ReadFills` and changes no state; :meth:`add_fills`
        commits it.
        """
        keys = np.asarray(keys, dtype=np.int64)
        n = keys.shape[0]
        tags = keys >> SPACE_SHIFT
        cycles = np.zeros(n, dtype=np.int64)
        crossing = np.zeros(n, dtype=np.int64)
        is_row = tags == _ROW_TAG
        is_col = tags == _COL_TAG
        resident = [int(is_row.sum()), int(is_col.sum())]
        if not (resident[0] and resident[1]):
            # A check runs only once the other orientation is resident.
            return ReadFills(cycles, crossing, resident, 0, 0)
        order = np.arange(n)
        checked = (is_row & (order > np.argmax(is_col))) | (
            is_col & (order > np.argmax(is_row))
        )
        lines = np.flatnonzero(is_row | is_col)
        cross, word_other = self.crossing_keys_bulk(keys[lines])
        by_key = np.argsort(keys, kind="stable")
        slot = np.minimum(np.searchsorted(keys, cross, sorter=by_key), n - 1)
        cross_at = by_key[slot]
        # Resident at the fill: filled earlier, i.e. a copy (one per word).
        earlier = (keys[cross_at] == cross) & (cross_at < lines[:, None])
        copies = earlier.sum(axis=1)
        cycles[lines] = np.where(
            checked[lines], self._fill_check_cycles(1, copies), 0
        )
        words = np.arange(WORDS_PER_LINE, dtype=np.int64)
        crossing[lines] = (earlier << words).sum(axis=1)
        partner_line, partner_word = np.nonzero(earlier)
        np.bitwise_or.at(
            crossing,
            cross_at[partner_line, partner_word],
            np.int64(1) << word_other[partner_line],
        )
        return ReadFills(
            cycles, crossing, resident, int(checked.sum()), int(copies.sum())
        )

    def add_fills(self, fills):
        """Commit a :meth:`read_fills` result: count its lines resident and
        charge its checks.  Returns the cycles charged."""
        self.resident[_ROW_TAG] += fills.resident[0]
        self.resident[_COL_TAG] += fills.resident[1]
        return self.charge_fill_check(fills.copies, fills.checks)

    def on_write(self, llc, key, word_mask):
        """Words ``word_mask`` of ``key`` were written: update the duplicate
        of every written word with a crossing bit.  Returns the cycles."""
        line = llc.probe(key)
        if line is None or not (line.crossing & word_mask):
            return 0
        return self.charge_write_updates(bin(line.crossing & word_mask).count("1"))

    def on_evict(self, llc, victim):
        """``victim`` left ``llc``: uncount it and clear the crossing bits
        of its resident partners.  Returns the cycles charged."""
        tag = victim.key >> SPACE_SHIFT
        if tag == _GATHER_TAG:
            return 0
        self.resident[tag] -= 1
        if not victim.crossing:
            return 0
        clears = 0
        for cross_key, word_self, word_other in self.crossing_keys(victim.key):
            if not victim.has_crossing(word_self):
                continue
            other = llc.probe(cross_key)
            if other is not None:
                other.clear_crossing(word_other)
                clears += 1
        return self.charge_eviction_clears(clears)

    def problems(self, llc):
        """Synonym-state violations in ``llc``, as strings (empty = clean).

        * the residency counts match the LLC's contents — they gate
          crossing checks, so a drift would silently skip synonym
          resolution;
        * crossing bits are symmetric and live: a set bit always names a
          resident opposite-orientation line whose mirrored bit is set,
          i.e. every synonym pair the directory tracks maps to one datum.
        """
        problems = []
        counts = [0, 0, 0]
        for line in llc.resident_lines():
            counts[line.key >> SPACE_SHIFT] += 1
        for tag, name in ((0, "row"), (1, "column")):
            if counts[tag] != self.resident[tag]:
                problems.append(
                    f"LLC {name}-orientation count drifted: tracked "
                    f"{self.resident[tag]}, resident {counts[tag]}"
                )
        for line in llc.resident_lines():
            if not line.crossing:
                continue
            for cross_key, word_self, word_other in self.crossing_keys(line.key):
                if not line.has_crossing(word_self):
                    continue
                other = llc.probe(cross_key)
                if other is None:
                    problems.append(
                        f"crossing bit {word_self} of line {line.key:#x} "
                        "names an absent synonym line"
                    )
                elif not other.has_crossing(word_other):
                    problems.append(
                        f"asymmetric crossing bits between {line.key:#x} "
                        f"and {cross_key:#x}"
                    )
        return problems

    # -- geometry ---------------------------------------------------------
    def crossing_keys(self, key):
        """Keys of the opposite-orientation lines crossing ``key``.

        Returns a list of ``(crossing_key, word_in_self, word_in_other)``
        triples: ``word_in_self`` is the index (0-7) of the shared word
        within the line identified by ``key``; ``word_in_other`` its index
        within the crossing line.
        """
        orientation = key_orientation(key)
        address = key_address(key)
        upper = address >> self._upper_shift << self._upper_shift
        crossings = []
        if orientation is Orientation.ROW:
            row = (address >> self._ro_row_shift) & self._row_mask
            col_base = (address >> self._ro_col_shift) & self._col_mask
            row_base = row & ~(WORDS_PER_LINE - 1)
            word_in_other = row & (WORDS_PER_LINE - 1)
            for i in range(WORDS_PER_LINE):
                cross_addr = (
                    upper
                    | ((col_base + i) << self._co_col_shift)
                    | (row_base << self._co_row_shift)
                )
                crossings.append(
                    (line_key(cross_addr, Orientation.COLUMN), i, word_in_other)
                )
        elif orientation is Orientation.COLUMN:
            col = (address >> self._co_col_shift) & self._col_mask
            row_base = (address >> self._co_row_shift) & self._row_mask
            col_base = col & ~(WORDS_PER_LINE - 1)
            word_in_other = col & (WORDS_PER_LINE - 1)
            for i in range(WORDS_PER_LINE):
                cross_addr = (
                    upper
                    | ((row_base + i) << self._ro_row_shift)
                    | (col_base << self._ro_col_shift)
                )
                crossings.append(
                    (line_key(cross_addr, Orientation.ROW), i, word_in_other)
                )
        return crossings

    def crossing_keys_bulk(self, keys):
        """:meth:`crossing_keys` for an array of row or column keys.

        Returns ``(cross, word_in_other)``: ``cross[n, i]`` is the key of
        the line crossing ``keys[n]`` at its word ``i`` (``word_in_self``
        is the column index), and ``word_in_other[n]`` the index of the
        shared word within each of those lines.
        """
        keys = np.asarray(keys, dtype=np.int64)
        is_row = (keys >> SPACE_SHIFT) == _ROW_TAG
        address = key_line_index(keys) * CACHE_LINE_BYTES
        upper = address >> self._upper_shift << self._upper_shift
        row = np.where(
            is_row, address >> self._ro_row_shift, address >> self._co_row_shift
        ) & self._row_mask
        col = np.where(
            is_row, address >> self._ro_col_shift, address >> self._co_col_shift
        ) & self._col_mask
        # As in the scalar form: a row line's ``col`` is its first column
        # and a column line's ``row`` its first row.
        base = ~(WORDS_PER_LINE - 1)
        step = np.arange(WORDS_PER_LINE, dtype=np.int64)
        cross_addr = upper[:, None] | np.where(
            is_row[:, None],
            ((col[:, None] + step) << self._co_col_shift)
            | ((row & base) << self._co_row_shift)[:, None],
            ((row[:, None] + step) << self._ro_row_shift)
            | ((col & base) << self._ro_col_shift)[:, None],
        )
        cross_tag = np.where(is_row, _COL_TAG, _ROW_TAG)[:, None]
        cross = (cross_tag << SPACE_SHIFT) | (cross_addr // CACHE_LINE_BYTES)
        word_in_other = np.where(is_row, row, col) & (WORDS_PER_LINE - 1)
        return cross, word_in_other

    # -- pricing ------------------------------------------------------------
    def _fill_check_cycles(self, checks, copies):
        """Cycles of ``checks`` fill-time crossing checks that found
        ``copies`` crossed words to duplicate (scalars or arrays)."""
        return self.PROBE_BATCH_COST * checks + self.COPY_COST * copies

    def charge_fill_check(self, copies, checks=1):
        """Price ``checks`` fill-time crossing checks (default one) that
        found ``copies`` crossed words to duplicate in all; returns the
        cycles charged."""
        self.stats.crossing_checks += checks
        self.stats.crossing_copies += copies
        cycles = self._fill_check_cycles(checks, copies)
        self.stats.overhead_cycles += cycles
        return cycles

    def charge_write_updates(self, updates):
        """Price duplicate updates triggered by a write; returns cycles."""
        if not updates:
            return 0
        self.stats.write_updates += updates
        cycles = self.WRITE_UPDATE_COST * updates
        self.stats.overhead_cycles += cycles
        return cycles

    def charge_eviction_clears(self, clears):
        """Price crossing-bit clears triggered by an eviction."""
        if not clears:
            return 0
        self.stats.eviction_clears += clears
        cycles = self.CLEAR_COST * clears
        self.stats.overhead_cycles += cycles
        return cycles
