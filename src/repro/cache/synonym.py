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
keep no copy of the rules.
"""

from repro.core.addressing import AddressMapper, Orientation
from repro.cache.line import SPACE_SHIFT, key_address, key_orientation, line_key
from repro.cache.stats import SynonymStats
from repro.geometry import WORDS_PER_LINE

_GATHER_TAG = int(Orientation.GATHER)


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

    # -- pricing ------------------------------------------------------------
    def charge_fill_check(self, copies):
        """Price one fill-time crossing check that found ``copies`` crossed
        words to duplicate; returns the cycles charged."""
        self.stats.crossing_checks += 1
        self.stats.crossing_copies += copies
        cycles = self.PROBE_BATCH_COST + self.COPY_COST * copies
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
