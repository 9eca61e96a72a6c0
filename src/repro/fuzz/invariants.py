"""Trace- and statistics-level conformance checks.

Results agreeing is necessary but not sufficient: an executor could
produce the right rows while touching memory it does not own, or the
timing model could drop accesses on the floor.  After every simulated
statement the fuzz harness audits four layers:

* **geometry** — every traced row/column access decodes to a cell strip
  fully inside an allocated rectangle (a table chunk or an index), and
  each address round-trips through the opposite address space back to
  the same physical cell (the two synonym addresses of Section 3 name
  one datum);
* **counting** — the run result, the finalized trace, the cache levels
  and the memory controllers all agree on how many accesses and lines
  flowed through (reads/writes partition accesses, per-level hits plus
  LLC misses cover every touched line, and controller traffic equals
  LLC misses plus writebacks);
* **retention** — flushing the hierarchy writes back exactly the dirty
  lines it reports and a second flush finds nothing, so no buffered
  write is lost or duplicated (:func:`check_flush_conservation`);
* **observability** — when the statement ran under a tracer
  (:mod:`repro.obs`), the exported span tree's metrics must agree with
  the run result and memory statistics they annotate
  (:func:`_check_spans`);
* **replay** — the statement's trace, replayed again from a timing
  reset through ``Machine.run`` (the replay kernel's memoized outcome
  when it admitted the trace) and through the batched loop, times
  exactly as the statement did (:func:`check_replay`).
"""

import numpy as np

from repro.core.addressing import Orientation
from repro.cpu.trace import Op
from repro.cpu.tracebuffer import as_finalized

#: Geometry checks sample at most this many accesses per statement.
_SAMPLE = 4096


def allocated_rectangles(db):
    """Half-open ``(subarray, y0, y1, x0, x1)`` rects the database owns."""
    rects = []
    for table in db.tables.values():
        placements = [chunk.placement for chunk in table.chunks]
        placements += [idx.placement for idx in table.indexes.values()]
        placements += [idx.placement for idx in table.ordered_indexes.values()]
        for p in placements:
            rects.append((p.bin_index, p.y, p.y + p.height, p.x, p.x + p.width))
    durability = getattr(db, "durability", None)
    if durability is not None:
        # The WAL rectangle is database-owned memory too: traced WAL
        # appends must land inside it, nothing else may.
        rects.extend(durability.rects())
    return rects


def check_outcome(db, outcome):
    """All invariant violations for one executed statement (strings)."""
    problems = []
    timing, trace = outcome.timing, outcome.trace
    if timing is None or trace is None:
        return problems
    fin = trace.finalize()

    # -- counting: run result vs finalized trace
    if timing.accesses != fin.n_accesses:
        problems.append(
            f"timed accesses {timing.accesses} != trace accesses {fin.n_accesses}"
        )
    if (timing.reads, timing.writes) != (fin.n_reads, fin.n_writes):
        problems.append(
            f"timed reads/writes {timing.reads}/{timing.writes} != trace "
            f"{fin.n_reads}/{fin.n_writes}"
        )
    if timing.reads + timing.writes != timing.accesses:
        problems.append(
            f"reads {timing.reads} + writes {timing.writes} != "
            f"accesses {timing.accesses}"
        )
    if timing.lines_touched != fin.n_lines:
        problems.append(
            f"timed lines {timing.lines_touched} != trace lines {fin.n_lines}"
        )

    # -- counting: cache levels cover every touched line exactly once
    hits = timing.l1_hits + timing.l2_hits + timing.l3_hits
    if hits + timing.llc_misses != timing.lines_touched:
        problems.append(
            f"level hits {hits} + LLC misses {timing.llc_misses} != "
            f"lines touched {timing.lines_touched}"
        )

    # -- counting: controller traffic is exactly misses + writebacks
    stats = db.memory.stats
    expected = timing.llc_misses + timing.writebacks
    if stats.reads + stats.writes != expected:
        problems.append(
            f"memory saw {stats.reads}r+{stats.writes}w, cache hierarchy "
            f"emitted {timing.llc_misses} misses + {timing.writebacks} "
            "writebacks"
        )
    problems.extend(stats.check_conservation())
    problems.extend(db.hierarchy.check_invariants())
    problems.extend(_check_spans(timing))
    problems.extend(_check_geometry(db, trace))
    return problems


def check_replay(db, outcome):
    """Replays of a statement's trace that time it differently, as strings.

    A statement executed with fresh timing (the default) replays from a
    timing reset, so its ``RunResult`` is a function of the trace and the
    machine's configuration.  The trace is replayed twice more, each from
    a new reset: through ``Machine.run``, which commits the replay
    kernel's memoized outcome when the kernel admitted the trace, and
    through the batched loop.  Each replay that differs from
    ``outcome.timing`` is reported at its first differing field, leaving
    aside ``spans``.  Leaves the machine in the batched replay's end
    state.
    """
    timing, trace = outcome.timing, outcome.trace
    if timing is None or trace is None:
        return []
    fin = as_finalized(trace)
    expected = timing.simulated()
    problems = []
    for engine, replay in (
        ("run", lambda machine: machine.run(fin)),
        ("_run_batched", lambda machine: machine._run_batched(fin, fin.stream)),
    ):
        db.reset_timing()
        replayed = replay(db.machine).simulated()
        for name, value in expected.items():
            if replayed[name] != value:
                problems.append(
                    f"Machine.{engine} replay differs in {name}"
                    f"{_first_difference(replayed[name], value)}"
                )
                break
    return problems


def _first_difference(got, expected):
    """Where two unequal values first differ, as text: the path of
    dictionary keys down to the values."""
    if isinstance(got, dict) and isinstance(expected, dict):
        for key in sorted(set(got) | set(expected), key=str):
            if got.get(key) != expected.get(key):
                return f"[{key!r}]" + _first_difference(
                    got.get(key), expected.get(key)
                )
    return f": {got!r} != {expected!r}"


def _check_spans(timing):
    """Span/counter consistency: the exported span tree (when the
    statement ran under a tracer) must agree with the run result it
    annotated — the observability layer reports the simulation, it does
    not get to invent numbers."""
    problems = []
    spans = getattr(timing, "spans", None)
    if spans is None:
        return problems
    if spans.get("name") != "query":
        problems.append(f"root span named {spans.get('name')!r}, not 'query'")
        return problems
    root = spans.get("metrics", {})
    for key, expected in (
        ("cycles", timing.cycles),
        ("accesses", timing.accesses),
        ("memory_accesses", timing.memory["accesses"]),
    ):
        if root.get(key) != expected:
            problems.append(
                f"root span {key} {root.get(key)} != run result {expected}"
            )
    mix = root.get("orientation_mix", {})
    oriented = (
        timing.memory["row_oriented"], timing.memory["col_oriented"],
        timing.memory["gathers"],
    )
    if (mix.get("row"), mix.get("column"), mix.get("gather")) != oriented:
        problems.append(
            f"span orientation mix {mix} != memory stats "
            f"row/col/gather {oriented}"
        )

    def walk(node):
        yield node
        for child in node.get("children", ()):
            yield from walk(child)

    machine_spans = [n for n in walk(spans) if n.get("name") == "machine.run"]
    if not machine_spans:
        problems.append("span tree lacks a machine.run span")
    for node in machine_spans:
        metrics = node.get("metrics", {})
        for key, expected in (
            ("cycles", timing.cycles),
            ("accesses", timing.accesses),
            ("reads", timing.reads),
            ("writes", timing.writes),
            ("llc_misses", timing.llc_misses),
            ("writebacks", timing.writebacks),
        ):
            if metrics.get(key) != expected:
                problems.append(
                    f"machine.run span {key} {metrics.get(key)} != "
                    f"run result {expected}"
                )
    # Nesting sanity: children's wall intervals lie within the parent's.
    for node in walk(spans):
        wall = node.get("wall_ms")
        for child in node.get("children", ()):
            child_wall = child.get("wall_ms")
            if wall is not None and child_wall is not None and child_wall > wall + 1e-6:
                problems.append(
                    f"span {child.get('name')!r} wall {child_wall}ms exceeds "
                    f"parent {node.get('name')!r} wall {wall}ms"
                )
    return problems


def _check_geometry(db, trace):
    problems = []
    ops, addresses, sizes, _gaps, _flags, orients = trace.columns()
    if not len(ops):
        return problems
    mapper = db.physmem.mapper
    geometry = db.physmem.geometry
    rects = allocated_rectangles(db)

    plain = (
        (ops == int(Op.READ)) | (ops == int(Op.WRITE))
        | (ops == int(Op.CREAD)) | (ops == int(Op.CWRITE))
    )
    indices = np.nonzero(plain)[0][:_SAMPLE]
    if len(indices):
        addr = addresses[indices]
        orient = orients[indices].astype(np.int64)
        words = (sizes[indices] + 7) // 8
        if int((addr & 7).any()) or int((sizes[indices] & 7).any()):
            problems.append("unaligned access address or size in trace")
        ch, rk, bk, sub, row, col = mapper.decode_fields(addr, orient)
        sub_index = (
            ((ch * geometry.ranks + rk) * geometry.banks + bk)
            * geometry.subarrays + sub
        )
        is_col = orient == int(Orientation.COLUMN)
        # A ROW access walks columns within one device row; a COLUMN
        # access walks rows within one device column.
        y0 = row
        y1 = np.where(is_col, row + words, row + 1)
        x0 = col
        x1 = np.where(is_col, col + 1, col + words)
        covered = np.zeros(len(indices), dtype=bool)
        for bin_index, ry0, ry1, rx0, rx1 in rects:
            covered |= (
                (sub_index == bin_index)
                & (y0 >= ry0) & (y1 <= ry1)
                & (x0 >= rx0) & (x1 <= rx1)
            )
        for position in np.nonzero(~covered)[0][:5]:
            i = int(indices[position])
            problems.append(
                f"access {i} (op={Op(int(ops[i])).name} "
                f"addr={int(addresses[i]):#x} size={int(sizes[i])}) lands at "
                f"subarray {int(sub_index[position])} "
                f"rows[{int(y0[position])},{int(y1[position])}) "
                f"cols[{int(x0[position])},{int(x1[position])}) outside every "
                "allocated rectangle"
            )

        # Synonym duality: converting each address into the opposite
        # space and decoding there must land on the same physical cell,
        # and converting back must restore the original address.
        row_addr = np.where(is_col, mapper.col_to_row_addresses(addr), addr)
        col_addr = np.where(is_col, addr, mapper.row_to_col_addresses(addr))
        back_row = mapper.col_to_row_addresses(col_addr)
        if int((back_row != row_addr).sum()):
            problems.append("row->col->row address round-trip not identity")
        cells_row = mapper.decode_fields(
            row_addr, np.zeros(len(indices), dtype=np.int64)
        )
        cells_col = mapper.decode_fields(
            col_addr, np.full(len(indices), int(Orientation.COLUMN), dtype=np.int64)
        )
        for a, b in zip(cells_row, cells_col):
            if int((a != b).sum()):
                problems.append(
                    "synonym pair decodes to different physical cells"
                )
                break

    # Gathered bursts carry their device coordinate out of band; the
    # burst's anchor cell must sit inside an allocated rectangle too.
    gather_positions = np.nonzero(ops == int(Op.GATHER))[0][:_SAMPLE]
    for i in gather_positions:
        coord = trace.coords.get(int(i))
        if coord is None:
            problems.append(f"gather access {int(i)} has no device coordinate")
            continue
        bin_index = mapper.subarray_index(coord)
        if not any(
            bin_index == b and ry0 <= coord.row < ry1 and rx0 <= coord.col < rx1
            for b, ry0, ry1, rx0, rx1 in rects
        ):
            problems.append(
                f"gather access {int(i)} anchors at subarray {bin_index} "
                f"({coord.row},{coord.col}) outside every allocated rectangle"
            )
    return problems


def check_flush_conservation(db):
    """Flush the hierarchy and verify write counts are conserved.

    The flush reports how many dirty lines it wrote back; the memory
    system must see exactly that many new writes, and a second flush
    must find a clean hierarchy.  Run once per case, after the last
    statement (it destroys cache state).
    """
    problems = []
    before = db.memory.stats.writes
    flushed = db.machine.flush_caches()
    delta = db.memory.stats.writes - before
    if delta != flushed:
        problems.append(
            f"flush reported {flushed} dirty lines but memory saw {delta} "
            "writebacks"
        )
    again = db.machine.flush_caches()
    if again:
        problems.append(f"second flush still found {again} dirty lines")
    problems.extend(db.hierarchy.check_invariants())
    return problems
