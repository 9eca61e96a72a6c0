"""Harness: system factories, report formatting, figure plumbing."""

import pytest

from repro.errors import ConfigurationError
from repro.harness import figures, report, systems
from repro.harness.experiment import measure_query, run_sql_suite
from repro.workloads.queries import QUERIES


class TestSystems:
    def test_build_all(self):
        for name in systems.SYSTEM_NAMES:
            memory = systems.build_system(name, small=True)
            assert memory.name == name

    def test_unknown_system(self):
        with pytest.raises(ConfigurationError):
            systems.build_system("HBM", small=True)

    def test_table1_rows_mention_all_components(self):
        rows = dict(systems.table1_rows())
        for component in ("Processor", "L1 cache", "L3 cache", "DRAM", "RRAM", "RC-NVM"):
            assert component in rows


class TestReport:
    def test_format_table_aligns(self):
        text = report.format_table(("a", "long header"), [(1, 2.5), (333, 4.0)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_normalize(self):
        assert report.normalize([2, 4], 2) == [1.0, 2.0]

    def test_normalize_distinguishes_missing_from_zero_baseline(self):
        """A missing baseline is a caller bug; a measured-zero baseline
        makes the ratios NaN (they used to collapse to silent 0.0)."""
        import math

        with pytest.raises(ValueError):
            report.normalize([2], None)
        assert all(math.isnan(v) for v in report.normalize([2, 4], 0))

    def test_speedup(self):
        assert report.speedup(100, 50) == 2.0
        assert report.speedup(1, 0) == float("inf")

    def test_speedup_zero_over_zero_is_unity(self):
        """Regression: speedup(0, 0) returned inf (0/0 guarded wrong);
        two zero-cycle runs are equal, not infinitely faster."""
        assert report.speedup(0, 0) == 1.0

    def test_geometric_mean(self):
        assert report.geometric_mean([2, 8]) == pytest.approx(4.0)

    def test_geometric_mean_zero_propagates(self):
        """Figure 18-style regression: one system scoring 0 must drag the
        geomean to exactly 0.0.  The old version dropped zeros from both
        the product and the count, so (0, 2, 8) reported 4.0 — a wildly
        inflated suite-level speedup."""
        assert report.geometric_mean([0.0, 2.0, 8.0]) == 0.0
        assert report.geometric_mean([1.4, 0.0, 2.3, 1.1]) == 0.0

    def test_geometric_mean_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            report.geometric_mean([])
        with pytest.raises(ValueError):
            report.geometric_mean([2.0, -1.0])


class TestStaticFigures:
    def test_table2_lists_all_queries(self):
        result = figures.table2()
        assert len(result.rows) == len(QUERIES)

    def test_figure4_columns(self):
        result = figures.figure4()
        rcdram = result.column("RC-DRAM over DRAM")
        rcnvm = result.column("RC-NVM over RRAM")
        assert all(d > n for d, n in zip(rcdram, rcnvm))

    def test_figure5_monotone(self):
        values = figures.figure5().column("Latency overhead")
        assert values == sorted(values)

    def test_render_contains_title(self):
        assert "Area overhead" in figures.figure4().render()


class TestSuitePlumbing:
    @pytest.fixture(scope="class")
    def tiny_suite(self):
        return run_sql_suite(
            systems=("RC-NVM", "DRAM"),
            qids=("Q1", "Q4"),
            scale=0.02,
            small=True,
            cache_config=dict(l1_kib=4, l2_kib=16, l3_kib=64),
            verify=True,
        )

    def test_measurements_shape(self, tiny_suite):
        assert set(tiny_suite) == {"Q1", "Q4"}
        assert set(tiny_suite["Q1"]) == {"RC-NVM", "DRAM"}

    def test_measurement_fields(self, tiny_suite):
        m = tiny_suite["Q1"]["RC-NVM"]
        assert m.cycles > 0 and m.llc_misses > 0
        assert 0 <= m.buffer_miss_rate <= 1
        assert m.row()[0] == "Q1"

    def test_figure18_from_measurements(self, tiny_suite):
        result = figures.figure18(tiny_suite, systems=("RC-NVM", "DRAM"))
        assert result.headers == ("query", "RC-NVM", "DRAM")
        assert len(result.rows) == 2

    def test_figure19_20_21(self, tiny_suite):
        f19 = figures.figure19(tiny_suite, systems=("RC-NVM", "DRAM"))
        f20 = figures.figure20(tiny_suite, systems=("RC-NVM", "DRAM"))
        f21 = figures.figure21(tiny_suite)
        assert len(f19.rows) == len(f20.rows) == len(f21.rows) == 2


class TestCli:
    def test_list(self, capsys):
        from repro.harness.cli import main

        assert main(["--list"]) == 0
        assert "fig18" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        from repro.harness.cli import main

        assert main(["nope"]) == 2

    def test_static_experiments(self, capsys):
        from repro.harness.cli import main

        assert main(["fig4", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out and "Table 2" in out

    def test_energy_populates_shared_measurement_cache(self, capsys, monkeypatch):
        """Regression: 'energy' used to leave ``_SQL_MEASUREMENTS`` empty,
        so a later SQL figure re-simulated the whole suite."""
        from repro.harness import cli

        monkeypatch.setattr(cli, "_SQL_MEASUREMENTS", [None])
        calls = []
        original = figures.run_figures_18_21

        def counting(**kwargs):
            calls.append(kwargs)
            kwargs["qids"] = ("Q1",)  # keep the test cheap
            return original(**kwargs)

        monkeypatch.setattr(figures, "run_figures_18_21", counting)
        assert cli.main(["energy", "fig18", "--small", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "Energy" in out and "Figure 18" in out
        assert len(calls) == 1  # fig18 reused the energy run's measurements
        # A separate invocation still reuses the in-process cache.
        assert cli.main(["fig19", "--small", "--scale", "0.02"]) == 0
        assert len(calls) == 1

    def test_sql_figures_rerun_when_arguments_change(self, capsys, monkeypatch):
        """Regression: the shared SQL measurements were reused whatever the
        arguments, so a second ``--scale`` printed the first one's figure."""
        from repro.harness import cli

        monkeypatch.setattr(cli, "_SQL_MEASUREMENTS", [None])
        calls = []
        original = figures.run_figures_18_21

        def counting(**kwargs):
            calls.append((kwargs["scale"], kwargs["sched_kwargs"]))
            kwargs["qids"] = ("Q1",)  # keep the test cheap
            return original(**kwargs)

        monkeypatch.setattr(figures, "run_figures_18_21", counting)
        tables = []
        for extra in (["--scale", "0.02"], ["--scale", "0.04"],
                      ["--scale", "0.04", "--page-policy", "closed"]):
            assert cli.main(["fig19", "--small"] + extra) == 0
            tables.append(capsys.readouterr().out.split("[fig19")[0])
        assert calls == [(0.02, {}), (0.04, {}),
                         (0.04, {"page_policy": "closed"})]
        assert tables[0] != tables[1]


class TestWearHarness:
    def test_workload_is_update_skewed_and_deterministic(self):
        from repro.harness.wear import build_workload

        statements = build_workload(rounds=4)
        updates = [s for s in statements if s[0].startswith("UPDATE")]
        assert len(updates) == len(statements) / 2  # one read per update
        assert statements == build_workload(rounds=4)
        # The sliding windows overlap round to round (coalescing needs
        # re-dirtied rows, not disjoint ranges).
        lows = sorted(params["z"] for sql, params, _hint in updates)
        assert any(b - a < 120 for a, b in zip(lows, lows[1:]))

    def test_hist_percentile_first_crossing(self):
        """The wear cells' read percentiles come from the statements'
        exported histograms, rebuilt and merged."""
        from repro.memsim.stats import LatencyHistogram

        hist = LatencyHistogram.from_dict({7: 50, "63": 49, 1023: 1})
        assert hist.count == 100
        assert hist.to_dict() == {7: 50, 63: 49, 1023: 1}
        assert hist.percentile(50) == 7
        assert hist.percentile(99) == 63
        assert hist.percentile(100) == 1023
        assert LatencyHistogram.from_dict({}).percentile(99) == 0

    def test_cli_dispatches_wear(self, monkeypatch, capsys):
        """``wear --smoke`` runs the ablation with the smoke parameters
        and gates its result."""
        from repro.harness import cli, wear

        seen = {}
        original = wear.run_wear

        def spying(**kwargs):
            seen.update(kwargs)
            return original(**kwargs)

        monkeypatch.setattr(wear, "run_wear", spying)
        assert cli.main(["wear", "--smoke"]) == 0
        assert seen == {"scale": 0.05, "rounds": 5, "small": True}
        assert "SMOKE OK: wear" in capsys.readouterr().out

    def test_sched_flags_reach_sched_kwargs(self, monkeypatch):
        from repro.harness import cli

        seen = {}

        class FakeResult:
            def render(self):
                return "fake"

        def fake_fig22(**kwargs):
            seen.update(kwargs)
            return FakeResult()

        monkeypatch.setattr(cli.figures, "figure22", fake_fig22)
        argv = ["fig22", "--write-coalescing", "--read-around-write"]
        assert cli.main(argv) == 0
        assert seen["sched_kwargs"] == {
            "write_coalescing": True, "read_around_write": True,
        }
        seen.clear()
        # Without the flags the kwargs stay absent (not False), so the
        # controller defaults are untouched.
        assert cli.main(["fig22"]) == 0
        assert seen["sched_kwargs"] == {}
