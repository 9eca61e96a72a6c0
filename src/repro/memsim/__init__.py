"""Memory-system simulation substrate (NVMain-equivalent).

Public surface: geometries, device timings, the FR-FCFS controller, and the
:class:`MemorySystem` facade with factories for the paper's four systems.
"""

from repro.geometry import (
    CACHE_LINE_BYTES,
    DRAM_GEOMETRY,
    Geometry,
    RCNVM_GEOMETRY,
    SMALL_DRAM_GEOMETRY,
    SMALL_RCNVM_GEOMETRY,
    WORD_BYTES,
    WORDS_PER_LINE,
)
from repro.memsim.timing import (
    CPU_FREQ_HZ,
    DDR3_1333_DRAM,
    DeviceTiming,
    LPDDR3_800_RCNVM,
    LPDDR3_800_RRAM,
)
from repro.memsim import energy
from repro.memsim.endurance import WearLine, WearTracker, attach_wear_tracker
from repro.memsim.request import MemRequest
from repro.memsim.bank import Bank
from repro.memsim.controller import ChannelController
from repro.memsim.stats import MemoryStats
from repro.memsim.system import (
    MemorySystem,
    make_dram,
    make_gsdram,
    make_rcnvm,
    make_rram,
    make_small_dram,
    make_small_rcnvm,
)

__all__ = [
    "Bank",
    "WearLine",
    "WearTracker",
    "attach_wear_tracker",
    "energy",
    "CACHE_LINE_BYTES",
    "CPU_FREQ_HZ",
    "ChannelController",
    "DDR3_1333_DRAM",
    "DRAM_GEOMETRY",
    "DeviceTiming",
    "Geometry",
    "LPDDR3_800_RCNVM",
    "LPDDR3_800_RRAM",
    "MemRequest",
    "MemoryStats",
    "MemorySystem",
    "RCNVM_GEOMETRY",
    "SMALL_DRAM_GEOMETRY",
    "SMALL_RCNVM_GEOMETRY",
    "WORDS_PER_LINE",
    "WORD_BYTES",
    "make_dram",
    "make_gsdram",
    "make_rcnvm",
    "make_rram",
    "make_small_dram",
    "make_small_rcnvm",
]
