#!/usr/bin/env python
"""Endurance and point-query extensions on RC-NVM.

Two capabilities beyond the paper's evaluation, both running against
the same simulated memory the database uses:

1. **write endurance**: run an update-heavy workload and report the wear
   distribution the dirty-buffer flushes produce;
2. **hash index**: a point query served by a memory-resident index
   instead of a column scan.

Run:  python examples/endurance_and_indexes.py
"""

from repro import Database, make_rcnvm
from repro.memsim.endurance import attach_wear_tracker
from repro.workloads.datagen import generate_packed


def main():
    memory = make_rcnvm()
    wear = attach_wear_tracker(memory)
    db = Database(memory, verify=True)
    table = db.create_table(
        "orders", [("id", 8), ("status", 8), ("amount", 8), ("region", 8)],
        layout="column",
    )
    table.insert_packed(generate_packed("orders", 8192, 4))

    # -- 1. endurance -----------------------------------------------------------
    print("== Write endurance under an update-heavy workload ==")
    for value in range(40):
        db.execute("UPDATE orders SET status = s WHERE id = v",
                   params={"s": value, "v": value % 7})
    snap = wear.snapshot()
    print(f"  buffer flushes: {snap['total_flushes']}, distinct lines: "
          f"{snap['lines_touched']}, max wear: {snap['max_wear']}, "
          f"imbalance: {snap['imbalance']:.1f}x")
    line, count = wear.hottest(1)[0]
    print(f"  hottest line: {line.kind.name} {line.index} of subarray "
          f"{line.subarray} (bank {line.bank}) with {count} flushes")

    # -- 2. hash index ------------------------------------------------------------
    print("\n== Point query: column scan vs hash index ==")
    scan = db.execute("SELECT amount, region FROM orders WHERE id = 7")
    db.create_index("orders", "id")
    indexed = db.execute("SELECT amount, region FROM orders WHERE id = 7")
    print(f"  scan   : {scan.cycles:>8,} cycles, {scan.timing.llc_misses} memory reads")
    print(f"  indexed: {indexed.cycles:>8,} cycles, "
          f"{indexed.timing.llc_misses} memory reads "
          f"({scan.cycles / indexed.cycles:.1f}x faster)")
    print(f"  both return {len(indexed.result.rows)} rows "
          "(verified against the reference engine)")


if __name__ == "__main__":
    main()
