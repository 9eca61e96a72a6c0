"""Shared fixtures for the test suite.

Everything uses the small geometries (16 MB memories, tiny caches) so the
full suite runs in seconds while preserving every structural property.
"""

import os

import numpy as np
import pytest

try:
    from hypothesis import settings

    # CI runs derandomized with a fixed, larger budget so failures are
    # reproducible from the log alone; local runs keep the faster default.
    settings.register_profile(
        "ci", derandomize=True, max_examples=200, deadline=None
    )
    settings.register_profile("dev", max_examples=25, deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
except ImportError:  # pragma: no cover - hypothesis is optional
    pass

from repro.geometry import SMALL_DRAM_GEOMETRY, SMALL_RCNVM_GEOMETRY
from repro.imdb.chunks import IntraLayout
from repro.imdb.database import Database
from repro.memsim.system import (
    make_dram,
    make_gsdram,
    make_rcnvm,
    make_rram,
)

SMALL_CACHES = dict(l1_kib=4, l2_kib=16, l3_kib=64)

SYSTEM_FACTORIES = {
    "DRAM": lambda: make_dram(SMALL_DRAM_GEOMETRY),
    "GS-DRAM": lambda: make_gsdram(SMALL_DRAM_GEOMETRY),
    "RRAM": lambda: make_rram(SMALL_RCNVM_GEOMETRY),
    "RC-NVM": lambda: make_rcnvm(SMALL_RCNVM_GEOMETRY),
}


def make_system(name):
    return SYSTEM_FACTORIES[name]()


def make_database(system_name="RC-NVM", verify=True, **kwargs):
    kwargs.setdefault("cache_config", SMALL_CACHES)
    return Database(make_system(system_name), verify=verify, **kwargs)


def simple_rows(n, fields=4, seed=1, value_range=1000):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, value_range, size=(n, fields))
    return [tuple(int(v) for v in row) for row in data]


def row_cells_reference(chunk, chunk_row, offset_word):
    """Per-cell reference for one chunk row of a row-major field scan:
    ``(subarray, device_row, device_col, global_tuple)`` in slot order,
    built from the scalar ``local_cell``/``device_cell``."""
    if chunk.layout is IntraLayout.ROW:
        base = chunk_row * chunk.slots
        locals_ = range(base, min(base + chunk.slots, chunk.n_tuples))
    else:
        locals_ = range(chunk_row, chunk.n_tuples, chunk.height)
    for local in locals_:
        sub, device_row, device_col = chunk.device_cell(
            *chunk.local_cell(local, offset_word)
        )
        yield sub, device_row, device_col, chunk.first_tuple + local


@pytest.fixture
def rcnvm_memory():
    return make_system("RC-NVM")


@pytest.fixture
def dram_memory():
    return make_system("DRAM")


@pytest.fixture
def rcnvm_db():
    return make_database("RC-NVM")


@pytest.fixture
def dram_db():
    return make_database("DRAM")


@pytest.fixture(params=["DRAM", "RRAM", "GS-DRAM", "RC-NVM"])
def any_system_name(request):
    return request.param


@pytest.fixture(params=["row", "column"])
def any_layout(request):
    return request.param
