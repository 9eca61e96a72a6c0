"""Deterministic data generators for the benchmark tables.

Value distributions are chosen so that Table 2's parameters control
selectivity the way the paper describes:

* ``f10`` is uniform over [0, 1000), so ``f10 > x`` has selectivity
  ``(1000 - x) / 1000`` — Q2 uses a high ``x`` ("most of f10 is NOT
  greater than x"), Q3 a low one;
* ``f9`` is a shuffled permutation of 0..n-1 in both table-a and
  table-b, so the Q8/Q9 equi-join on f9 produces at most one partner per
  tuple (realistic key-key join, no output explosion);
* every other numeric field is uniform over [0, 10000).

All generation is seeded; the same scale always produces the same data.
"""

import numpy as np

from repro.workloads.tables import TABLE_A, TABLE_B, TABLE_C

F10_RANGE = 1000
VALUE_RANGE = 10000

_SEEDS = {TABLE_A: 0xA, TABLE_B: 0xB, TABLE_C: 0xC}


def generate_packed(table_name, n_tuples, tuple_words):
    """Packed (n, tuple_words) int64 cell data for one table."""
    rng = np.random.default_rng(_SEEDS.get(table_name, 0xD0) + n_tuples)
    data = rng.integers(0, VALUE_RANGE, size=(n_tuples, tuple_words), dtype=np.int64)
    if table_name in (TABLE_A, TABLE_B):
        # Field fi occupies word i-1 (all fields are single-word).
        data[:, 8] = rng.permutation(n_tuples)  # f9: join key
        data[:, 9] = rng.integers(0, F10_RANGE, size=n_tuples)  # f10: selectivity knob
    return data


def populate(database, table_name, fields, n_tuples, layout):
    """Create and bulk-load one benchmark table; returns the Table."""
    table = database.create_table(table_name, fields, layout=layout)
    packed = generate_packed(table_name, n_tuples, table.schema.tuple_words)
    database.insert_packed(table_name, packed)
    return table


def selectivity_of(x, total_range=F10_RANGE):
    """Fraction of uniform [0, range) values strictly greater than x."""
    return max(0.0, min(1.0, (total_range - 1 - x) / total_range))
