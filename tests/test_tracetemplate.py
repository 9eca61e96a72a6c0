"""The plan/trace template cache: serving-path memoization correctness.

The cache may only ever change *when* work happens, never *what* comes
out: a hit must reproduce the exact result and timing a fresh execution
would, and every way the underlying data can shift — DDL, inserts that
append chunks, functional writes — must invalidate.  The lattice
test at the bottom runs fuzz-generated workloads through paired cached
and uncached databases across system configs and demands bit-identical
results and cycle counts.
"""

from unittest import mock

import numpy as np
import pytest

import repro.imdb.database as database_module
from conftest import make_database, simple_rows
from repro.fuzz.grammar import CaseGenerator, render_sql
from repro.fuzz.oracle import CONFIGS, build_database, normalize
from repro.imdb.planner import FetchMethod, Planner


def make_cached_db(system="RC-NVM", rows=200, **kwargs):
    # verify=False: result verification re-executes on purpose, so the
    # cache stands down under it (tested below).
    db = make_database(system, verify=False, **kwargs)
    db.create_table("t", [("a", 8), ("b", 8)], layout="row")
    db.insert_many("t", simple_rows(rows, 2))
    db.enable_template_cache()
    return db


SUM_SQL = "SELECT SUM(b) FROM t WHERE a > x"


class TestHitPath:
    def test_miss_then_hit(self):
        db = make_cached_db()
        stats = db.template_cache.stats
        first = db.execute(SUM_SQL, params={"x": 100})
        assert (stats.misses, stats.hits, stats.stores) == (1, 0, 1)
        second = db.execute(SUM_SQL, params={"x": 100})
        assert (stats.misses, stats.hits) == (1, 1)
        assert second.result.value == first.result.value
        assert second.timing.cycles == first.timing.cycles
        assert stats.hit_rate == 0.5

    def test_hit_reuses_the_trace_verbatim(self):
        db = make_cached_db()
        first = db.execute(SUM_SQL, params={"x": 100})
        second = db.execute(SUM_SQL, params={"x": 100})
        assert second.trace is first.trace

    def test_whitespace_normalized_template_key(self):
        db = make_cached_db()
        db.execute(SUM_SQL, params={"x": 100})
        db.execute("SELECT  SUM(b)\n FROM t   WHERE a > x", params={"x": 100})
        assert db.template_cache.stats.hits == 1

    def test_hit_result_is_a_defensive_copy(self):
        db = make_cached_db()
        first = db.execute("SELECT a, b FROM t WHERE a > x", params={"x": 900})
        first.result.rows.clear()
        second = db.execute("SELECT a, b FROM t WHERE a > x", params={"x": 900})
        assert second.result.rows  # the cached entry survived the mutation

    def test_distinct_params_are_distinct_bindings(self):
        db = make_cached_db()
        low = db.execute(SUM_SQL, params={"x": 100}).result.value
        high = db.execute(SUM_SQL, params={"x": 900}).result.value
        assert low != high
        # Repeats of both bindings hit.
        assert db.execute(SUM_SQL, params={"x": 100}).result.value == low
        assert db.execute(SUM_SQL, params={"x": 900}).result.value == high
        assert db.template_cache.stats.hits == 2

    def test_matches_an_uncached_database(self):
        cached = make_cached_db()
        plain = make_database("RC-NVM", verify=False)
        plain.create_table("t", [("a", 8), ("b", 8)], layout="row")
        plain.insert_many("t", simple_rows(200, 2))
        for _ in range(3):
            a = cached.execute(SUM_SQL, params={"x": 500})
            b = plain.execute(SUM_SQL, params={"x": 500})
            assert a.result.value == b.result.value
            assert a.timing.cycles == b.timing.cycles


class TestRebind:
    def test_aggregate_rebind_reuses_trace(self):
        db = make_cached_db()
        first = db.execute(SUM_SQL, params={"x": 100})
        rebound = db.execute(SUM_SQL, params={"x": 700})
        stats = db.template_cache.stats
        assert stats.rebinds == 1 and stats.rebind_ns > 0
        assert rebound.trace is first.trace
        fresh = make_cached_db().execute(SUM_SQL, params={"x": 700})
        assert rebound.result.value == fresh.result.value
        assert rebound.timing.cycles == fresh.timing.cycles

    def test_rebound_binding_then_hits(self):
        db = make_cached_db()
        db.execute(SUM_SQL, params={"x": 100})
        db.execute(SUM_SQL, params={"x": 700})
        db.execute(SUM_SQL, params={"x": 700})
        stats = db.template_cache.stats
        assert (stats.rebinds, stats.hits) == (1, 1)

    def test_index_probe_is_not_rebind_safe(self):
        # An index-backed aggregate touches only the matching tuples, so
        # its trace depends on the constant: new params must re-execute.
        db = make_cached_db()
        db.create_index("t", "a")
        value = db.tables["t"].read_tuple(0)[0]
        db.execute("SELECT SUM(b) FROM t WHERE a = x", params={"x": value})
        db.execute("SELECT SUM(b) FROM t WHERE a = x", params={"x": value + 1})
        stats = db.template_cache.stats
        assert stats.rebinds == 0 and stats.misses == 2


class TestInvalidation:
    def test_ddl_mid_stream_invalidates(self):
        db = make_cached_db()
        db.execute(SUM_SQL, params={"x": 100})
        before = db.execute(SUM_SQL, params={"x": 100}).result.value
        db.create_index("t", "a")  # layout epoch bumps; plans may change
        stats = db.template_cache.stats
        outcome = db.execute(SUM_SQL, params={"x": 100})
        assert stats.invalidations >= 1
        assert outcome.result.value == before
        assert stats.misses == 2  # re-executed, not served stale

    def test_drop_table_invalidates_without_stale_reads(self):
        db = make_cached_db()
        db.execute(SUM_SQL, params={"x": 100})
        db.drop_table("t")
        db.create_table("t", [("a", 8), ("b", 8)], layout="row")
        db.insert_many("t", [(1, 7), (2, 9)])
        outcome = db.execute(SUM_SQL, params={"x": 0})
        assert outcome.result.value == 16

    def test_update_that_changes_data_invalidates(self):
        db = make_cached_db(rows=64)
        before = db.execute(SUM_SQL, params={"x": 0}).result.value
        db.execute(SUM_SQL, params={"x": 0})
        db.execute("UPDATE t SET b = v WHERE a > y", params={"v": 0, "y": 500})
        outcome = db.execute(SUM_SQL, params={"x": 0})
        assert outcome.result.value < before
        stats = db.template_cache.stats
        assert stats.invalidations >= 1

    def test_mutating_update_is_never_cached(self):
        db = make_cached_db(rows=64)
        stats = db.template_cache.stats
        db.execute("UPDATE t SET b = v WHERE a > y", params={"v": 1, "y": 500})
        db.execute("UPDATE t SET b = v WHERE a > y", params={"v": 2, "y": 500})
        # Both executions changed cells, so neither was stored.
        assert stats.stores == 0 and stats.hits == 0

    def test_idempotent_update_reaches_hit_fixed_point(self):
        db = make_cached_db(rows=64)
        stats = db.template_cache.stats
        sql = "UPDATE t SET b = v WHERE a > y"
        db.execute(sql, params={"v": 5, "y": 500})  # mutates: not stored
        db.execute(sql, params={"v": 5, "y": 500})  # no-op now: stored
        db.execute(sql, params={"v": 5, "y": 500})  # hit
        assert (stats.misses, stats.stores, stats.hits) == (2, 1, 1)

    def test_insert_invalidates_via_geometry_epoch(self):
        db = make_cached_db()
        before = db.execute(SUM_SQL, params={"x": 0}).result.value
        db.insert_many("t", [(1000, 1000)])
        outcome = db.execute(SUM_SQL, params={"x": 0})
        assert outcome.result.value == before + 1000
        assert db.template_cache.stats.hits == 0


def make_durable_cached_db():
    db = make_database("RC-NVM", verify=False)
    db.enable_durability()  # must precede table creation (WAL anchor)
    db.create_table("t", [("a", 8), ("b", 8)], layout="row")
    db.insert_many("t", simple_rows(200, 2))
    db.enable_template_cache()
    return db


class TestBypass:
    def test_verify_bypasses_the_cache(self):
        db = make_cached_db()
        db.execute(SUM_SQL, params={"x": 100}, verify=True)
        db.execute(SUM_SQL, params={"x": 100}, verify=True)
        stats = db.template_cache.stats
        assert stats.lookups == 0
        assert (stats.durability_bypasses, stats.verify_bypasses) == (0, 2)

    def test_durability_bypasses_the_cache(self):
        db = make_durable_cached_db()
        db.execute(SUM_SQL, params={"x": 100})
        db.execute(SUM_SQL, params={"x": 100})
        stats = db.template_cache.stats
        assert stats.lookups == 0
        assert (stats.durability_bypasses, stats.verify_bypasses) == (2, 0)

    def test_durability_counts_before_verify(self):
        db = make_durable_cached_db()
        db.execute(SUM_SQL, params={"x": 100}, verify=True)
        stats = db.template_cache.stats
        assert (stats.durability_bypasses, stats.verify_bypasses) == (1, 0)

    def test_served_statements_count_no_bypass(self):
        db = make_cached_db()
        db.execute(SUM_SQL, params={"x": 100})
        db.execute(SUM_SQL, params={"x": 100})
        stats = db.template_cache.stats
        assert (stats.durability_bypasses, stats.verify_bypasses) == (0, 0)

    def test_bypasses_are_exported(self):
        from repro.obs.metrics import registry_for_database

        db = make_cached_db()
        registry = registry_for_database(db)
        db.execute(SUM_SQL, params={"x": 100}, verify=True)
        metrics = registry.snapshot()
        assert metrics["template_cache.verify_bypasses"] == {"system=RC-NVM": 1}
        assert metrics["template_cache.durability_bypasses"] == {"system=RC-NVM": 0}

    def test_clear_counts_invalidations(self):
        db = make_cached_db()
        db.execute(SUM_SQL, params={"x": 100})
        cache = db.template_cache
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0 and cache.stats.invalidations == 1
        db.execute(SUM_SQL, params={"x": 100})
        assert cache.stats.misses == 2


class TestPlanMemo:
    """A repeat of an exact statement skips parse and plan while the
    binding its memoized plan names is valid, and plans afresh whenever
    anything the planner reads has changed."""

    @staticmethod
    def _planning(db, sql, params=None, **kwargs):
        """Execute once; returns the outcome and how many times the
        statement was parsed and planned."""
        with mock.patch.object(
            database_module, "parse", wraps=database_module.parse
        ) as parse, mock.patch.object(
            Planner, "plan", autospec=True, side_effect=Planner.plan
        ) as plan:
            outcome = db.execute(sql, params=params, **kwargs)
        return outcome, parse.call_count, plan.call_count

    def test_repeat_skips_parse_and_plan(self):
        db = make_cached_db()
        first, parsed, planned = self._planning(db, SUM_SQL, {"x": 100})
        assert (parsed, planned) == (1, 1)
        second, parsed, planned = self._planning(db, SUM_SQL, {"x": 100})
        assert (parsed, planned) == (0, 0)
        assert second.plan == first.plan
        assert second.result.value == first.result.value
        assert second.timing.simulated() == first.timing.simulated()
        stats = db.template_cache.stats
        assert (stats.hits, stats.misses, stats.lookups) == (1, 1, 2)

    def test_update_of_a_predicate_column_replans(self):
        # No hint: selectivity decides the fetch.  Most of t matches
        # ``a > 300`` at first, so the memoized plan scans whole rows;
        # once the UPDATE zeroes every ``a`` nothing matches, and the
        # statement must plan per-tuple row fetches again.
        sql = "SELECT * FROM t WHERE a > x"
        db = make_cached_db()
        for _ in range(2):
            before = db.execute(sql, params={"x": 300})
        assert before.plan.fetch_method is FetchMethod.FULL_SCAN
        db.execute("UPDATE t SET a = v WHERE b >= y", params={"v": 0, "y": 0})
        outcome, _parsed, planned = self._planning(db, sql, {"x": 300})
        assert planned == 1
        assert outcome.plan.fetch_method is FetchMethod.ROW
        assert outcome.result.rows == []

    def test_create_index_replans_to_the_index(self):
        sql = "SELECT SUM(b) FROM t WHERE a = x"
        db = make_cached_db()
        value = db.tables["t"].read_tuple(0)[0]
        for _ in range(2):
            before = db.execute(sql, params={"x": value})
        assert not before.plan.use_index
        db.create_index("t", "a")
        outcome, _parsed, planned = self._planning(db, sql, {"x": value})
        assert planned == 1 and outcome.plan.use_index
        assert outcome.result.value == before.result.value

    def test_unhashable_parameters_still_execute(self):
        db = make_cached_db()
        expected = db.execute(SUM_SQL, params={"x": 100}).result.value
        for params in ({"x": 100, "tags": ["unused"]}, {"x": np.array(100)}):
            for _ in range(2):
                outcome, parsed, planned = self._planning(db, SUM_SQL, params)
                assert (parsed, planned) == (1, 1)
                assert outcome.result.value == expected
        assert db.template_cache.stats.hits == 4

    def test_changed_default_group_lines_replans(self):
        sql = "SELECT a, b FROM t"
        db = make_cached_db()
        for _ in range(2):
            before = db.execute(sql)
        assert before.plan.group_lines == 0
        db.default_group_lines = 4
        outcome, _parsed, planned = self._planning(db, sql)
        assert planned == 1 and outcome.plan.group_lines == 4
        # An explicit group_lines names its own statement.
        explicit, _parsed, planned = self._planning(db, sql, group_lines=0)
        assert planned == 1 and explicit.plan.group_lines == 0


class TestStatsSurface:
    def test_snapshot_fields(self):
        db = make_cached_db()
        db.execute(SUM_SQL, params={"x": 100})
        db.execute(SUM_SQL, params={"x": 100})
        snap = db.template_cache.stats.snapshot()
        assert snap["hits"] == 1 and snap["misses"] == 1
        assert snap["entries"] == 1
        assert snap["hit_rate"] == 0.5

    def test_registry_binding(self):
        from repro.obs.metrics import registry_for_database

        db = make_cached_db()
        registry = registry_for_database(db)
        db.execute(SUM_SQL, params={"x": 100})
        db.execute(SUM_SQL, params={"x": 100})
        labels = {"system": db.memory.name}
        assert registry.get("template_cache.hits", labels).value == 1
        assert registry.get("template_cache.entries", labels).value == 1


#: Lattice cross-section for the on-vs-off sweep: the reference row
#: config, RC-NVM's row and column layouts, and Z-order grouping.
LATTICE_KEYS = ("dram-row", "rcnvm-row", "rcnvm-col", "rcnvm-col-z")


#: The template cache's counters, which the plan memo must not change.
_COUNTERS = ("hits", "misses", "rebinds", "invalidations", "stores",
             "entries", "durability_bypasses", "verify_bypasses")


@pytest.mark.parametrize("config_key", LATTICE_KEYS)
def test_fuzz_lattice_templating_on_vs_off(config_key):
    """Fuzz-generated workloads (reads, updates, joins, repeats) served
    through the template cache must be indistinguishable — results,
    plans and everything the replay simulated — from an uncached
    database on the same config, and a cache whose plan memo is off must
    count every lookup as the cache with it does."""
    from repro.errors import ReproError

    config = CONFIGS[config_key]
    generator = CaseGenerator(seed=20)
    for index in range(4):
        case = generator.case(index)
        plain = build_database(config, case)
        cached = build_database(config, case)
        cached.enable_template_cache()
        memoless = build_database(config, case)
        memoless.enable_template_cache().statement_key = lambda *args: None
        # Each statement runs twice so repeats exercise the hit path.
        for stmt in case.statements:
            if stmt.get("expect_error"):
                continue
            sql, params = render_sql(stmt)
            for _ in range(2):
                try:
                    expected = plain.execute(sql, params=params)
                except ReproError as exc:
                    for db in (cached, memoless):
                        with pytest.raises(type(exc)):
                            db.execute(sql, params=params)
                    continue
                tag = (config_key, index, sql)
                for db in (cached, memoless):
                    got = db.execute(sql, params=params)
                    assert normalize(got.result) == normalize(expected.result), tag
                    assert got.plan == expected.plan, tag
                    assert got.timing.simulated() == expected.timing.simulated(), tag
        stats = cached.template_cache.stats
        assert [getattr(stats, name) for name in _COUNTERS] == [
            getattr(memoless.template_cache.stats, name) for name in _COUNTERS
        ]
        assert stats.lookups == stats.hits + stats.misses + stats.rebinds
        assert stats.hits > 0
