"""Differential SQL fuzzing and trace-invariant conformance harness.

The fuzzer is the standing safety net for the RC-NVM reproduction: a
seeded grammar generator (:mod:`repro.fuzz.grammar`) produces random
schemas, data distributions, and SQL statements constrained to the
supported dialect; the differential oracle (:mod:`repro.fuzz.oracle`)
runs every statement through the full simulated stack over each system
configuration (DRAM, row-only NVM, GS-DRAM, RC-NVM, with and without
group caching) and cross-checks the results against the
functional :class:`~repro.imdb.reference.ReferenceEngine` *and* an
in-memory ``sqlite3`` third oracle; the trace-invariant checker
(:mod:`repro.fuzz.invariants`) asserts that every simulated access
lands inside an allocated chunk rectangle, that synonym address pairs
map to one datum, and that read/write counts are conserved across the
cache hierarchy and across flushes; and the shrinker
(:mod:`repro.fuzz.shrink`) minimizes failures to replayable JSON repro
files collected under ``tests/corpus/``.

Entry points::

    python -m repro.harness.cli fuzz --seed 0 --iterations 200
    python -m repro.fuzz --seed 0 --iterations 200
    python -m repro.fuzz --corpus tests/corpus
"""

from repro.fuzz.grammar import CaseGenerator, FuzzCase, TableSpec
from repro.fuzz.oracle import CONFIGS, SystemConfig, run_case
from repro.fuzz.runner import FuzzReport, replay_corpus, run_fuzz
from repro.fuzz.shrink import shrink_case

__all__ = [
    "CONFIGS",
    "CaseGenerator",
    "FuzzCase",
    "FuzzReport",
    "SystemConfig",
    "TableSpec",
    "replay_corpus",
    "run_case",
    "run_fuzz",
    "shrink_case",
]
