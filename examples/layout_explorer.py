#!/usr/bin/env python
"""Data layout explorer (paper Section 4.5, Figure 13).

Shows how tables are sliced into chunks, packed into subarrays by the
online 2-D bin packer (with rotation), and how the intra-chunk layout
changes which access direction a field scan takes — then measures the
same scan under both layouts and both directions.

Run:  python examples/layout_explorer.py
"""

from repro import Database, make_rcnvm
from repro.cpu.tracebuffer import TraceBuffer
from repro.imdb.chunks import IntraLayout
from repro.imdb.planner import ScanMethod
from repro.workloads.datagen import generate_packed


def describe_table(table):
    print(f"  {table!r}")
    for chunk in table.chunks[:4]:
        p = chunk.placement
        rotation = "rotated" if p.rotated else "as-is"
        print(
            f"    {chunk!r} -> subarray {p.bin_index}, origin "
            f"(row {p.y}, col {p.x}), {rotation}"
        )
    if len(table.chunks) > 4:
        print(f"    ... and {len(table.chunks) - 4} more chunks")


def scan_cost(db, table, field, method):
    trace = TraceBuffer()
    db.executor.scan_field(trace, table, field, method)
    db.reset_timing()
    result = db.machine.run(trace)
    return result.cycles, result.memory["buffer_miss_rate"]


def main():
    db = Database(make_rcnvm())
    n = 16384
    for name, layout in (("events_row", IntraLayout.ROW),
                         ("events_col", IntraLayout.COLUMN)):
        table = db.create_table(
            name, [(f"f{i}", 8) for i in range(1, 9)], layout=layout
        )
        table.insert_packed(generate_packed(name, n, 8))

    print("Chunk placement (the allocator stripes subarrays across")
    print("channels/ranks/banks; the packer may rotate chunks):\n")
    for name in ("events_row", "events_col"):
        describe_table(db.table(name))
    print(f"\n  subarrays used: {db.allocator.subarrays_used}, "
          f"packing utilization: {db.allocator.utilization():.1%}")

    print("\nScanning one field (f5) of 16 Ki tuples:")
    print(f"{'layout':12s} {'access':8s} {'cycles':>10s} {'buffer miss':>12s}")
    for name in ("events_row", "events_col"):
        table = db.table(name)
        for method in (ScanMethod.COLUMN, ScanMethod.ROW):
            cycles, miss = scan_cost(db, table, "f5", method)
            layout = table.layout.value
            print(f"{layout:12s} {method.value:8s} {cycles:>10,} {miss:>11.1%}")
    print("\nColumn accesses win for field scans in either layout; the")
    print("column-oriented layout additionally keeps scans in tuple order.")


if __name__ == "__main__":
    main()
