"""System configurations (paper Table 1) and factories."""

from repro.errors import ConfigurationError
from repro.geometry import (
    DRAM_GEOMETRY,
    RCNVM_GEOMETRY,
    SMALL_DRAM_GEOMETRY,
    SMALL_RCNVM_GEOMETRY,
)
from repro.memsim import timing as timings
from repro.memsim.system import make_dram, make_gsdram, make_rcnvm, make_rram

#: The paper's four systems.
SYSTEM_NAMES = ("RC-NVM", "RRAM", "GS-DRAM", "DRAM")

#: Table 1 cache stack: private L1 32 KB and L2 256 KB, shared L3 8 MB,
#: all 8-way with 64 B lines.
TABLE1_CACHE_CONFIG = dict(l1_kib=32, l2_kib=256, l3_kib=8192, ways=8)

#: Smaller caches for fast tests (keep table >> LLC at tiny scales).
SMALL_CACHE_CONFIG = dict(l1_kib=4, l2_kib=16, l3_kib=128, ways=8)

_FULL_FACTORIES = {
    "DRAM": lambda **kw: make_dram(DRAM_GEOMETRY, **kw),
    "GS-DRAM": lambda **kw: make_gsdram(DRAM_GEOMETRY, **kw),
    "RRAM": lambda **kw: make_rram(RCNVM_GEOMETRY, **kw),
    "RC-NVM": lambda **kw: make_rcnvm(RCNVM_GEOMETRY, **kw),
}

_SMALL_FACTORIES = {
    "DRAM": lambda **kw: make_dram(SMALL_DRAM_GEOMETRY, **kw),
    "GS-DRAM": lambda **kw: make_gsdram(SMALL_DRAM_GEOMETRY, **kw),
    "RRAM": lambda **kw: make_rram(SMALL_RCNVM_GEOMETRY, **kw),
    "RC-NVM": lambda **kw: make_rcnvm(SMALL_RCNVM_GEOMETRY, **kw),
}


def build_system(name, small=False, **sched_kwargs):
    """Build one of the evaluated memory systems by name.

    ``sched_kwargs`` (``policy``, ``page_policy``, ``queue_depth``,
    ``age_cap``, ...) configure every channel controller; see
    :class:`repro.memsim.controller.ChannelController`.
    """
    factories = _SMALL_FACTORIES if small else _FULL_FACTORIES
    try:
        factory = factories[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown system {name!r}; choose from {SYSTEM_NAMES}"
        ) from None
    return factory(**sched_kwargs)


def table1_rows():
    """The simulated-system configuration, row by row (paper Table 1)."""
    dram, rram, rcnvm = (
        timings.DDR3_1333_DRAM,
        timings.LPDDR3_800_RRAM,
        timings.LPDDR3_800_RCNVM,
    )
    g_dram, g_nvm = DRAM_GEOMETRY, RCNVM_GEOMETRY
    return [
        ("Processor", "4 cores, x86, 2.0 GHz"),
        ("L1 cache", "private, 64B line, 8-way, 32 KB"),
        ("L2 cache", "private, 64B line, 8-way, 256 KB"),
        ("L3 cache", "shared, 64B line, 8-way, 8 MB"),
        ("Memory controller", "32-entry request queue, FR-FCFS"),
        (
            "DRAM",
            f"DDR3-1333, tCAS {dram.t_cas}, tRCD {dram.t_rcd}, tRP {dram.t_rp}, "
            f"tRAS {dram.t_ras}; {g_dram.channels} channels x {g_dram.ranks} ranks x "
            f"{g_dram.banks} banks, {g_dram.rows} rows x {g_dram.row_buffer_bytes} B "
            f"row buffer, {g_dram.total_bytes >> 30} GB",
        ),
        (
            "RRAM",
            f"LPDDR3-800, tCAS {rram.t_cas}, tRCD {rram.t_rcd}, tRP {rram.t_rp}, "
            f"tRAS {rram.t_ras}, write pulse {rram.write_pulse} cycles; "
            f"{g_nvm.channels} channels x {g_nvm.ranks} ranks x {g_nvm.banks} banks, "
            f"{g_nvm.row_buffer_bytes} B row buffer, {g_nvm.total_bytes >> 30} GB",
        ),
        (
            "RC-NVM",
            f"LPDDR3-800, tCAS {rcnvm.t_cas}, tRCD {rcnvm.t_rcd}, tRP {rcnvm.t_rp}, "
            f"tRAS {rcnvm.t_ras}, write pulse {rcnvm.write_pulse} cycles; "
            f"row buffer {g_nvm.row_buffer_bytes} B + column buffer "
            f"{g_nvm.column_buffer_bytes} B per bank, {g_nvm.subarrays} subarrays "
            f"of {g_nvm.rows}x{g_nvm.cols} words per bank, {g_nvm.total_bytes >> 30} GB",
        ),
    ]
