"""The example scripts stay runnable (subprocess smoke tests).

Only the quick examples run here; the full set is exercised manually
(all eight complete — see README).  Each must exit cleanly and print
its headline output.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name, timeout=180):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestExamples:
    def test_area_latency_models(self):
        result = run_example("area_latency_models.py")
        assert result.returncode == 0, result.stderr
        assert "Figure 4" in result.stdout
        assert "Table 1 : tRCD 12" in result.stdout

    def test_layout_explorer(self):
        result = run_example("layout_explorer.py")
        assert result.returncode == 0, result.stderr
        assert "subarrays used" in result.stdout
        assert "column" in result.stdout

    def test_multicore_olxp(self):
        result = run_example("multicore_olxp.py")
        assert result.returncode == 0, result.stderr
        assert "makespan:" in result.stdout

    def test_group_caching_demo(self):
        result = run_example("group_caching_demo.py")
        assert result.returncode == 0, result.stderr
        assert "w/o pref." in result.stdout
        assert "Q14" in result.stdout and "Q15" in result.stdout

    @pytest.mark.parametrize(
        "name",
        [
            "quickstart.py",
            "olxp_workload.py",
            "endurance_and_indexes.py",
            "plan_explorer.py",
        ],
    )
    def test_example_files_compile(self, name):
        source = (EXAMPLES / name).read_text()
        compile(source, name, "exec")
