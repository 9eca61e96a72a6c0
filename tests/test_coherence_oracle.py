"""Differential oracle for the flat MESI directory.

``ObjectModelDirectory`` below is the object-model implementation that
:class:`repro.cache.coherence.MesiDirectory` replaced, kept verbatim as
the reference (as ``FlatListOracle`` is for the channel scheduler): a
``DirectoryEntry`` with a sharer set and an owner per line, per-core
state tables, and private ``CacheLine``\\ s whose dirty bit encodes M.
Hypothesis drives it and the flat directory with the same random
operations on caches small enough that private evictions, LLC evictions,
recalls, dirty writebacks and pin skips all happen, and every
observable must agree after every call.  The reference's own state also
pins the three invariants the flat form relies on, and the flat
directory's synonym resolver must pass its own audit.  The reference
keeps its own copy of the synonym rules on purpose: it does not go
through the resolver's ``on_fill``/``on_write``/``on_evict``.
"""

from hypothesis import given, strategies as st

from repro.cache.cache import Cache
from repro.cache.coherence import CoherenceStats, Mesi, MesiDirectory
from repro.cache.line import key_orientation, line_key
from repro.cache.synonym import SynonymDirectory
from repro.core.addressing import AddressMapper, Coordinate, Orientation
from repro.errors import ProtocolError
from repro.geometry import SMALL_RCNVM_GEOMETRY

N_CORES = 3
MAPPER = AddressMapper(SMALL_RCNVM_GEOMETRY)
#: Row lines of rows 8-11 at column blocks 16 and 24, and column lines of
#: columns 16-19 at row blocks 8 and 16: the row lines at block 16 cross
#: the column lines at block 8, and eight of the keys share one LLC set.
KEYS = [
    line_key(MAPPER.encode_row(Coordinate(0, 0, 0, 0, row, col)), Orientation.ROW)
    for row in range(8, 12)
    for col in (16, 24)
] + [
    line_key(MAPPER.encode_col(Coordinate(0, 0, 0, 0, row, col)), Orientation.COLUMN)
    for col in range(16, 20)
    for row in (8, 16)
]


class DirectoryEntry:
    """Sharers/owner bookkeeping for one LLC-resident line."""

    __slots__ = ("sharers", "owner")

    def __init__(self):
        self.sharers = set()
        self.owner = None  # core id holding M or E

    def __repr__(self):
        return f"DirectoryEntry(sharers={sorted(self.sharers)}, owner={self.owner})"


class ObjectModelDirectory:
    """A shared LLC plus directory over N private caches.

    The private caches are plain :class:`~repro.cache.cache.Cache`
    instances whose lines' MESI state is kept in per-core side tables
    (``self._states[core][key]``), so the cache machinery stays protocol
    agnostic.
    """

    #: Fixed message costs in CPU cycles.
    DIRECTORY_LOOKUP_COST = 6
    INVALIDATION_COST = 12
    DOWNGRADE_COST = 16

    def __init__(self, private_caches, llc: Cache, synonym=None):
        self.private_caches = list(private_caches)
        self.llc = llc
        self.synonym = synonym
        self.directory = {}
        self.stats = CoherenceStats()
        self._states = [dict() for _ in self.private_caches]
        self._orientation_counts = [0, 0, 0]

    @property
    def n_cores(self):
        return len(self.private_caches)

    # -- state inspection (used heavily by tests) ----------------------------
    def state_of(self, core, key):
        """The MESI state of ``key`` in ``core``'s private cache (None =
        Invalid)."""
        if self.private_caches[core].probe(key) is None:
            return None
        return self._states[core].get(key)

    def check_invariants(self, key):
        """Protocol invariants for one line; raises ProtocolError."""
        states = [self.state_of(core, key) for core in range(self.n_cores)]
        modified = [c for c, s in enumerate(states) if s is Mesi.MODIFIED]
        exclusive = [c for c, s in enumerate(states) if s is Mesi.EXCLUSIVE]
        shared = [c for c, s in enumerate(states) if s is Mesi.SHARED]
        if len(modified) + len(exclusive) > 1:
            raise ProtocolError(f"multiple owners for {key:#x}: {states}")
        if (modified or exclusive) and shared:
            raise ProtocolError(f"owner coexists with sharers for {key:#x}")
        entry = self.directory.get(key)
        holders = {c for c, s in enumerate(states) if s is not None}
        recorded = set(entry.sharers) if entry else set()
        if holders != recorded:
            raise ProtocolError(
                f"directory out of sync for {key:#x}: holds {recorded}, "
                f"caches say {holders}"
            )

    # -- core-side operations ----------------------------------------------------
    def read(self, core, key):
        """Core ``core`` reads ``key``.

        Returns ``(hit_private, llc_hit, extra_cycles, writebacks)`` where
        ``writebacks`` are dirty line keys that must be written to memory.
        """
        extra = 0
        writebacks = []
        cache = self.private_caches[core]
        if cache.lookup(key) is not None:
            return True, True, extra, writebacks
        self.stats.read_misses += 1
        extra += self.DIRECTORY_LOOKUP_COST
        llc_line = self.llc.lookup(key)
        llc_hit = llc_line is not None
        if not llc_hit:
            extra += self._install_llc(key, writebacks)
        entry = self.directory.setdefault(key, DirectoryEntry())
        if entry.owner is not None and entry.owner != core:
            extra += self._downgrade(entry.owner, key)
            entry.owner = None
        state = Mesi.EXCLUSIVE if not entry.sharers else Mesi.SHARED
        if state is Mesi.SHARED:
            # Everyone (including an ex-owner) is now a sharer.
            for sharer in entry.sharers:
                if self._states[sharer].get(key) in (Mesi.MODIFIED, Mesi.EXCLUSIVE):
                    self._states[sharer][key] = Mesi.SHARED
        self._install_private(core, key, state, writebacks)
        entry.sharers.add(core)
        if state is Mesi.EXCLUSIVE:
            entry.owner = core
        return False, llc_hit, extra, writebacks

    def write(self, core, key, word_mask=0xFF):
        """Core ``core`` writes ``key``; returns the same tuple as read."""
        extra = 0
        writebacks = []
        cache = self.private_caches[core]
        line = cache.lookup(key)
        entry = self.directory.setdefault(key, DirectoryEntry())
        if line is not None:
            state = self._states[core].get(key)
            if state is Mesi.MODIFIED:
                pass
            elif state is Mesi.EXCLUSIVE:
                self._states[core][key] = Mesi.MODIFIED
            else:  # SHARED: upgrade, invalidating other sharers
                self.stats.upgrades += 1
                extra += self.DIRECTORY_LOOKUP_COST
                extra += self._invalidate_others(core, key, entry)
                self._states[core][key] = Mesi.MODIFIED
            line.dirty = True
            entry.owner = core
            extra += self._synonym_write(key, word_mask)
            return True, True, extra, writebacks
        self.stats.write_misses += 1
        extra += self.DIRECTORY_LOOKUP_COST
        llc_line = self.llc.lookup(key)
        llc_hit = llc_line is not None
        if not llc_hit:
            extra += self._install_llc(key, writebacks)
        if entry.owner is not None and entry.owner != core:
            extra += self._downgrade(entry.owner, key)
            entry.owner = None
        extra += self._invalidate_others(core, key, entry)
        self._install_private(core, key, Mesi.MODIFIED, writebacks, dirty=True)
        entry.sharers.add(core)
        entry.owner = core
        extra += self._synonym_write(key, word_mask)
        return False, llc_hit, extra, writebacks

    # -- internals -------------------------------------------------------------
    def _install_private(self, core, key, state, writebacks, dirty=False):
        cache = self.private_caches[core]
        line, victim = cache.install(key, dirty=dirty)
        self._states[core][key] = state
        if victim is not None:
            self._evict_private(core, victim, writebacks)

    def _evict_private(self, core, victim, writebacks):
        """A private victim: merge dirtiness into the LLC, fix directory."""
        self._states[core].pop(victim.key, None)
        entry = self.directory.get(victim.key)
        if entry is not None:
            entry.sharers.discard(core)
            if entry.owner == core:
                entry.owner = None
            if not entry.sharers:
                self.directory.pop(victim.key, None)
        if victim.dirty:
            llc_line = self.llc.probe(victim.key)
            if llc_line is not None:
                llc_line.dirty = True
            else:
                writebacks.append(victim.key)

    def _install_llc(self, key, writebacks):
        extra = 0
        _line, victim = self.llc.install(key, dirty=False)
        orientation = key_orientation(key)
        if orientation is not Orientation.GATHER:
            self._orientation_counts[orientation] += 1
        if victim is not None:
            extra += self._evict_llc(victim, writebacks)
        extra += self._synonym_fill(key)
        return extra

    def _evict_llc(self, victim, writebacks):
        """Inclusive LLC eviction: recall from every private cache."""
        extra = 0
        dirty = victim.dirty
        entry = self.directory.pop(victim.key, None)
        if entry is not None:
            for core in list(entry.sharers):
                self.stats.llc_recalls += 1
                line = self.private_caches[core].invalidate(victim.key)
                self._states[core].pop(victim.key, None)
                if line is not None and line.dirty:
                    dirty = True
                    self.stats.writebacks_recalled += 1
                extra += self.INVALIDATION_COST
        orientation = key_orientation(victim.key)
        if orientation is not Orientation.GATHER:
            self._orientation_counts[orientation] -= 1
            if self.synonym is not None and victim.crossing:
                clears = 0
                for cross_key, word_self, word_other in self.synonym.crossing_keys(
                    victim.key
                ):
                    if not victim.has_crossing(word_self):
                        continue
                    other = self.llc.probe(cross_key)
                    if other is not None:
                        other.clear_crossing(word_other)
                        clears += 1
                extra += self.synonym.charge_eviction_clears(clears)
        if dirty:
            writebacks.append(victim.key)
        return extra

    def _invalidate_others(self, core, key, entry):
        extra = 0
        for sharer in list(entry.sharers):
            if sharer == core:
                continue
            self.stats.invalidations_sent += 1
            extra += self.INVALIDATION_COST
            line = self.private_caches[sharer].invalidate(key)
            self._states[sharer].pop(key, None)
            if line is not None and line.dirty:
                llc_line = self.llc.probe(key)
                if llc_line is not None:
                    llc_line.dirty = True
                self.stats.writebacks_recalled += 1
            entry.sharers.discard(sharer)
        return extra

    def _downgrade(self, owner, key):
        """A remote read hits an M/E owner: demote it to S, pulling dirty
        data into the LLC."""
        self.stats.downgrades += 1
        state = self._states[owner].get(key)
        line = self.private_caches[owner].probe(key)
        if line is not None and line.dirty:
            llc_line = self.llc.probe(key)
            if llc_line is not None:
                llc_line.dirty = True
            line.dirty = False
            self.stats.writebacks_recalled += 1
        if line is not None:
            self._states[owner][key] = Mesi.SHARED
        return self.DOWNGRADE_COST

    # -- synonym composition (Section 4.3.3: synonym first, then MESI) --------
    def _synonym_fill(self, key):
        if self.synonym is None:
            return 0
        orientation = key_orientation(key)
        if orientation is Orientation.GATHER:
            return 0
        if not self._orientation_counts[orientation.opposite]:
            return 0
        line = self.llc.probe(key)
        copies = 0
        for cross_key, word_self, word_other in self.synonym.crossing_keys(key):
            other = self.llc.probe(cross_key)
            if other is None:
                continue
            line.set_crossing(word_self)
            other.set_crossing(word_other)
            copies += 1
        return self.synonym.charge_fill_check(copies)

    def _synonym_write(self, key, word_mask):
        if self.synonym is None:
            return 0
        if key_orientation(key) is Orientation.GATHER:
            return 0
        line = self.llc.probe(key)
        if line is None or not (line.crossing & word_mask):
            return 0
        updates = bin(line.crossing & word_mask).count("1")
        return self.synonym.charge_write_updates(updates)


def _build(directory_class):
    """3 cores with 2-set x 2-way private caches over a 4-set x 4-way LLC."""
    privates = [Cache(f"L1-{core}", 4 * 64, 2, 4) for core in range(N_CORES)]
    llc = Cache("LLC", 16 * 64, 4, 38)
    return directory_class(privates, llc, synonym=SynonymDirectory(MAPPER))


def _llc_contents(directory):
    return [
        [(key, line.dirty, line.pinned, line.crossing) for key, line in cache_set.items()]
        for cache_set in directory.llc.sets
    ]


def _observables(directory):
    return (
        directory.stats.snapshot(),
        directory.synonym.stats.snapshot(),
        directory.llc.stats.snapshot(),
        [cache.stats.snapshot() for cache in directory.private_caches],
        _llc_contents(directory),
        [[directory.state_of(core, key) for key in KEYS] for core in range(N_CORES)],
        [[list(cache_set) for cache_set in cache.sets] for cache in directory.private_caches],
    )


def _check_reference_invariants(reference):
    """The three invariants the flat directory's single record relies on."""
    for core, cache in enumerate(reference.private_caches):
        for line in cache.resident_lines():
            state = reference.state_of(core, line.key)
            # Only LLC lines are ever pinned.
            assert not line.pinned
            # E and S lines are clean: M is the only dirty private state.
            assert line.dirty == (state is Mesi.MODIFIED)
    for key in KEYS:
        reference.check_invariants(key)  # a sole holder for M or E
        entry = reference.directory.get(key)
        if entry is not None and entry.owner is not None:
            assert entry.sharers == {entry.owner}


OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(("read", "read", "write", "pin", "unpin")),
        st.integers(0, N_CORES - 1),
        st.integers(0, len(KEYS) - 1),
        st.integers(1, 0xFF),  # word mask of a write
    ),
    min_size=30,
    max_size=120,
)


@given(operations=OPERATIONS)
def test_flat_directory_matches_object_model(operations):
    reference = _build(ObjectModelDirectory)
    flat = _build(MesiDirectory)
    for kind, core, index, word_mask in operations:
        key = KEYS[index]
        if kind in ("pin", "unpin"):
            for directory in (reference, flat):
                directory.llc.set_pinned(key, kind == "pin")
        else:
            if kind == "read":
                expected = reference.read(core, key)
                got = flat.read(core, key)
            else:
                expected = reference.write(core, key, word_mask)
                got = flat.write(core, key, word_mask)
            hit, llc_hit, extra, writebacks = expected
            assert got[:3] == (hit, llc_hit, extra)
            assert list(got[3]) == writebacks
        assert _observables(flat) == _observables(reference)
        assert {k: set(entry.sharers) for k, entry in reference.directory.items()} == {
            k: {c for c in range(N_CORES) if mask >> c & 1}
            for k, mask in flat.directory.items()
        }
        _check_reference_invariants(reference)
        flat.check_invariants(key)
        # The resolver's residency counts and crossing bits on the shared LLC.
        assert flat.synonym.problems(flat.llc) == []
