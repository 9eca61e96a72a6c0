#!/usr/bin/env python
"""Multi-core OLXP: four cores sharing one RC-NVM memory (Table 1's
4-core configuration with directory MESI coherence, Section 4.3.3).

Two cores run OLTP-style row work, two run OLAP-style column scans, all
against the same table — the scenario where the synonym machinery and
MESI must cooperate, because the same data is simultaneously cached
under row- and column-oriented addresses on different cores.

Run:  python examples/multicore_olxp.py
"""

from repro import Database, make_rcnvm
from repro.cpu.multicore import MulticoreMachine
from repro.cpu.tracebuffer import TraceBuffer
from repro.imdb.planner import ScanMethod
from repro.workloads.datagen import generate_packed


def build_table(db, n=8192, fields=8):
    table = db.create_table(
        "shared", [(f"f{i}", 8) for i in range(1, fields + 1)], layout="column"
    )
    table.insert_packed(generate_packed("shared", n, fields))
    return table


def oltp_trace(db, table, start, stride, count):
    """Row reads + occasional field writes over scattered tuples."""
    trace = TraceBuffer()
    executor = db.executor
    for i in range(count):
        tuple_id = (start + i * stride) % table.n_tuples
        chunk, local = table.chunk_of(tuple_id)
        executor.emit_run(trace, chunk.tuple_cells(local), gap=4)
        if i % 8 == 0:
            executor.emit_run(trace, chunk.tuple_cells(local, 2, 1), write=True, gap=2)
    return trace


def olap_trace(db, table, field):
    """One full column scan of a field."""
    trace = TraceBuffer()
    db.executor.scan_field(trace, table, field, ScanMethod.COLUMN)
    return trace


def main():
    memory = make_rcnvm()
    db = Database(memory)  # storage + trace generation only
    table = build_table(db)

    traces = [
        oltp_trace(db, table, start=0, stride=17, count=512),
        oltp_trace(db, table, start=5, stride=31, count=512),
        olap_trace(db, table, "f3"),
        olap_trace(db, table, "f7"),
    ]

    memory.reset()
    machine = MulticoreMachine(memory, n_cores=4, l1_kib=32, llc_kib=2048)
    result = machine.run(traces)

    roles = ("OLTP-0", "OLTP-1", "OLAP-0", "OLAP-1")
    print(f"{'core':8s} {'accesses':>9s} {'L1 hits':>8s} {'LLC hits':>9s} "
          f"{'misses':>7s} {'coherence cyc':>14s} {'cycles':>10s}")
    for role, core in zip(roles, result.cores):
        print(
            f"{role:8s} {core.accesses:>9,} {core.private_hits:>8,} "
            f"{core.llc_hits:>9,} {core.misses:>7,} "
            f"{core.coherence_cycles:>14,} {core.cycles:>10,}"
        )
    print(f"\nmakespan: {result.cycles:,} cycles")
    print("coherence events:", result.coherence)
    if result.synonym:
        print("synonym events  :", result.synonym)
    print(
        "memory traffic  : "
        f"{result.memory['row_oriented']} row-oriented, "
        f"{result.memory['col_oriented']} column-oriented requests, "
        f"{result.memory['orientation_switches']} buffer orientation switches"
    )


if __name__ == "__main__":
    main()
