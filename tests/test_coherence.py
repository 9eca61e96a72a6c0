"""MESI directory protocol: states, transitions, invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import Cache
from repro.cache.coherence import Mesi, MesiDirectory
from repro.cache.line import line_key
from repro.cache.synonym import SynonymDirectory
from repro.core.addressing import AddressMapper, Coordinate, Orientation
from repro.geometry import SMALL_RCNVM_GEOMETRY


def key(i, orientation=Orientation.ROW):
    return line_key(i * 64, orientation)


def make_directory(cores=2, synonym=None):
    privates = [Cache(f"L1-{c}", 4 * 64, 2, 4) for c in range(cores)]
    llc = Cache("LLC", 64 * 64, 4, 38)
    return MesiDirectory(privates, llc, synonym=synonym)


class TestStates:
    def test_first_read_is_exclusive(self):
        directory = make_directory()
        hit, llc_hit, _extra, _wb = directory.read(0, key(1))
        assert not hit and not llc_hit
        assert directory.state_of(0, key(1)) is Mesi.EXCLUSIVE

    def test_second_reader_shares(self):
        directory = make_directory()
        directory.read(0, key(1))
        directory.read(1, key(1))
        assert directory.state_of(0, key(1)) is Mesi.SHARED
        assert directory.state_of(1, key(1)) is Mesi.SHARED

    def test_write_is_modified(self):
        directory = make_directory()
        directory.write(0, key(1))
        assert directory.state_of(0, key(1)) is Mesi.MODIFIED

    def test_exclusive_write_hit_is_silent_upgrade(self):
        directory = make_directory()
        directory.read(0, key(1))
        _hit, _llc, extra, _wb = directory.write(0, key(1))
        assert directory.state_of(0, key(1)) is Mesi.MODIFIED
        assert directory.stats.invalidations_sent == 0

    def test_write_invalidates_sharers(self):
        directory = make_directory(cores=3)
        for core in range(3):
            directory.read(core, key(1))
        directory.write(0, key(1))
        assert directory.state_of(0, key(1)) is Mesi.MODIFIED
        assert directory.state_of(1, key(1)) is None
        assert directory.state_of(2, key(1)) is None
        assert directory.stats.invalidations_sent == 2

    def test_remote_read_downgrades_owner(self):
        directory = make_directory()
        directory.write(0, key(1))
        directory.read(1, key(1))
        assert directory.state_of(0, key(1)) is Mesi.SHARED
        assert directory.state_of(1, key(1)) is Mesi.SHARED
        assert directory.stats.downgrades == 1
        assert directory.stats.writebacks_recalled == 1
        # Dirty data was pulled into the LLC.
        assert directory.llc.probe(key(1)).dirty

    def test_private_hit_costs_nothing_extra(self):
        directory = make_directory()
        directory.read(0, key(1))
        hit, _llc, extra, _wb = directory.read(0, key(1))
        assert hit and extra == 0

    def test_each_line_has_one_record(self):
        """Private sets map keys to states and the directory maps keys to
        sharer bitmasks; no line objects, no side tables."""
        directory = make_directory(cores=3)
        directory.read(0, key(1))
        directory.read(2, key(1))
        directory.write(1, key(2))
        assert directory.directory == {key(1): 0b101, key(2): 0b010}
        assert [list(cache.sets[1].items()) for cache in directory.private_caches] == [
            [(key(1), Mesi.SHARED)],
            [],
            [(key(1), Mesi.SHARED)],
        ]
        assert list(directory.private_caches[1].sets[0].items()) == [
            (key(2), Mesi.MODIFIED)
        ]
        # A private hit returns one shared result; it allocates nothing.
        assert directory.read(0, key(1)) is directory.read(2, key(1))


class TestInvariants:
    def test_single_writer(self):
        directory = make_directory()
        directory.write(0, key(1))
        directory.write(1, key(1))
        directory.check_invariants(key(1))
        assert directory.state_of(0, key(1)) is None
        assert directory.state_of(1, key(1)) is Mesi.MODIFIED

    @given(
        ops=st.lists(
            st.tuples(
                st.integers(0, 2),  # core
                st.integers(0, 5),  # line
                st.booleans(),  # write?
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_random_traffic_keeps_invariants(self, ops):
        directory = make_directory(cores=3)
        for core, line, is_write in ops:
            if is_write:
                directory.write(core, key(line))
            else:
                directory.read(core, key(line))
            directory.check_invariants(key(line))

    def test_llc_eviction_recalls_private_copies(self):
        # Private cache big enough that its copy outlives the LLC's.
        privates = [Cache("L1-0", 32 * 64, 8, 4)]
        llc = Cache("LLC", 64 * 64, 4, 38)
        directory = MesiDirectory(privates, llc)
        set_count = llc.num_sets
        keys = [key(i * set_count) for i in range(llc.ways + 1)]
        for k in keys:
            directory.read(0, k)
        victim = keys[0]
        assert llc.probe(victim) is None
        assert directory.state_of(0, victim) is None
        directory.check_invariants(victim)
        assert directory.stats.llc_recalls >= 1

    def test_dirty_llc_eviction_writes_back(self):
        directory = make_directory()
        llc = directory.llc
        set_count = llc.num_sets
        keys = [key(i * set_count) for i in range(llc.ways + 1)]
        writebacks = []
        directory.write(0, keys[0])
        for k in keys[1:]:
            _h, _l, _e, wb = directory.read(0, k)
            writebacks.extend(wb)
        assert keys[0] in writebacks


class TestSynonymComposition:
    def test_crossing_resolved_before_coherence(self):
        mapper = AddressMapper(SMALL_RCNVM_GEOMETRY)
        synonym = SynonymDirectory(mapper)
        directory = make_directory(cores=2, synonym=synonym)
        col_key = line_key(
            mapper.encode_col(Coordinate(0, 0, 0, 0, 8, 16)), Orientation.COLUMN
        )
        row_key = line_key(
            mapper.encode_row(Coordinate(0, 0, 0, 0, 10, 16)), Orientation.ROW
        )
        directory.read(0, col_key)
        directory.read(1, row_key)
        assert directory.llc.probe(row_key).has_crossing(0)
        assert synonym.stats.crossing_copies == 1
        # A write to the crossed word updates the duplicate.
        _h, _l, extra, _wb = directory.write(1, row_key, word_mask=0b1)
        assert synonym.stats.write_updates == 1

    def test_no_synonym_costs_without_directory(self):
        directory = make_directory(cores=2, synonym=None)
        directory.read(0, key(1))
        directory.write(1, key(1))
        # Plain MESI still works; no synonym stats exist.
        assert directory.synonym is None
