"""Whole-trace replay kernel: batched replay without per-line Python objects.

:func:`run_kernel` replays a finalized structure-of-arrays trace with flat
integer state instead of the object graph the batched loop drives — no
:class:`~repro.memsim.request.MemRequest`, no ``_Queued`` entries, no
:class:`~repro.cache.line.CacheLine` allocations on the hot path.  The
cache hierarchy is modelled as per-set Python lists of line keys, the
per-channel controllers as per-bank integer FIFOs serviced by an exact
port of the FR-FCFS pick (including bypass counting and the starvation
age cap), and the bank timing state machine as five integers per bank.
A replay has two halves.  :func:`_simulate` runs the loop and the bulk
reductions and returns a flat outcome (:data:`_Outcome`) without touching
the machine.  :func:`_commit` writes that outcome into the machine in
bulk — statistics, controller and bank state, synonym counts — and
leaves each cache level's lines to a build
(:meth:`~repro.cache.cache.Cache.defer_contents`) that runs the first
time anything reads that level's sets.  A kernel run thus leaves behind
the *identical* end state — and the identical ``RunResult`` — the
batched loop would have produced, yet costs no ``CacheLine`` when the
next ``Database.reset_timing`` drops the hierarchy unread, as it does
before every cold-timed statement.  ``tests/test_replay_kernel.py`` and
the ``tests/test_replay_equivalence.py`` oracle pin this bit for bit.

The kernel admits only a pristine machine, and from that state the loop
reads nothing but the trace and the machine's configuration.  So
:func:`run_kernel` memoizes each outcome on the
:class:`~repro.cpu.tracebuffer.FinalizedTrace`, keyed by every
configuration value :func:`_simulate` reads (:func:`_outcome_key`):
replaying a cached trace template again on a fresh machine of the same
configuration — the serving hot path — skips the loop and only commits.
The outcome holds no per-line Python list: the final L1/L2 contents and
the LLC hits are packed into NumPy arrays, expanded only by the builds.
On RC-NVM the loop applies the Section 4.3 fill rule in bulk
(:meth:`~repro.cache.synonym.SynonymDirectory.read_fills`): with no LLC
eviction and no write, each fill's crossing checks, copies and cycles
depend on the trace alone.  A trace that mixes row and column lines
folds each fill's synonym cycles into the next line's gap; in the bank
model its row↔column switches are buffer conflicts like any other.

The price of dropping the object machinery is generality:
:func:`kernel_eligible` admits a trace only when the flat model provably
reproduces the full one —

* read-only traces (writes drive dirty-buffer flushes, write-queue
  draining, cache writebacks and duplicate updates of crossed words;
  they stay on the batched path),
* FR-FCFS scheduling with the open page policy on pristine controllers
  and caches (a fresh ``Database.reset_timing`` state),
* per-channel queues deep enough that submission can never force an
  overflow-driven early schedule (``queue_depth > window``),
* at most ``ways`` distinct lines per LLC set, so the inclusive LLC
  never evicts (no back-invalidation, no writebacks, no crossing-bit
  clears).

``Machine.run`` asks :func:`kernel_eligible` on every buffer replay;
everything else — updates, pinned group-caching windows, barriers,
overflowing traces — replays through ``Machine._run_batched`` untouched.
"""

import functools
import itertools
import operator
from collections import namedtuple

import numpy as np

from repro.cache.line import CacheLine
from repro.cache.stats import CacheStats
from repro.core.addressing import Orientation
from repro.cpu.tracebuffer import LINE_GATHER
from repro.memsim.stats import MemoryStats, combine_stats
from repro.obs import tracer as obs

_ROW_TAG = int(Orientation.ROW)
_COL_TAG = int(Orientation.COLUMN)
_GATHER_TAG = int(Orientation.GATHER)

#: want-key packing: ``((subarray << 1 | is_column) << _WANT_SHIFT) |
#: buffer_index`` — one integer compare per open-buffer hit test, and the
#: buffer kind in bit ``_WANT_SHIFT`` (gathers use the row buffer).
#: Row/column indices are far below 2**32 for every modelled geometry.
_WANT_SHIFT = 32
_KIND_BIT = 1 << _WANT_SHIFT

#: What :func:`_simulate` returns and :func:`_commit` writes:
#:
#: * ``cycles`` — the core's clock at the end of the run;
#: * ``channels`` — per channel ``(stats, buckets, bus_free, banks)``: the
#:   ``MemoryStats`` field values, the latency histogram's buckets, the
#:   bus time and ``(index, kind, subarray, buffer index, ready_at,
#:   activated_at, accesses, activations)`` of each touched bank;
#: * ``levels`` — per cache level ``(hits, misses, fills, evictions)``;
#: * ``l1_keys``, ``l2_keys`` — each level's final keys by ascending set,
#:   LRU first within a set; ``llc_hits`` — the line indices of the LLC
#:   hits; ``crossing`` — the crossed LLC lines' keys and final masks
#:   (all NumPy arrays, read only by the deferred builds);
#: * ``fills`` — the synonym fill totals for ``add_fills`` (None without
#:   a synonym directory);
#: * ``memory``, ``caches`` — the ``RunResult``'s memory snapshot and each
#:   cache level's stats snapshot, which from the pristine state the
#:   kernel admits depend on the outcome alone; each commit copies them.
_Outcome = namedtuple(
    "_Outcome",
    "cycles channels levels l1_keys l2_keys llc_hits crossing fills memory caches",
)

_NO_CROSSING = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

#: Every field of a statistics block, read in one call, and the values
#: of a fresh one: :func:`kernel_eligible` compares a live block's with
#: them.  (``vars()`` would give the live block a materialized instance
#: dict, which slows every later attribute store to it on CPython 3.11.)
_cache_fields = operator.attrgetter(*CacheStats.INSTRUMENTS)
_memory_fields = operator.attrgetter(*MemoryStats.INSTRUMENTS)
_FRESH_CACHE = _cache_fields(CacheStats())
_FRESH_MEMORY = _memory_fields(MemoryStats())


def _channel_columns(fin, memory):
    """Per-line ``(channel, bank_index, want_key)`` flat lists under one
    memory system's mapper.  Gather lines decode to masked zeros, so their
    device coordinates come from the trace's side table instead."""
    mapper = memory.mapper
    banks_per_rank = mapper.geometry.banks
    orient_arr = fin.line_orient.astype(np.int64)
    dch, drk, dbk, dsa, drow, dcol = fin.decoded_arrays_for(mapper)
    is_col = orient_arr == _COL_TAG
    idx_arr = np.where(is_col, dcol, drow)
    want_arr = ((dsa.astype(np.int64) << 1 | is_col) << _WANT_SHIFT) | idx_arr
    ch_l = dch.tolist()
    bank_l = (drk * banks_per_rank + dbk).tolist()
    want_l = want_arr.tolist()
    gather_mask = (fin.line_special & LINE_GATHER) != 0
    if gather_mask.any():
        line_acc = fin.line_acc
        coords = fin.coords
        for li in np.nonzero(gather_mask)[0].tolist():
            coord = coords[int(line_acc[li])]
            ch_l[li] = coord.channel
            bank_l[li] = coord.rank * banks_per_rank + coord.bank
            want_l[li] = (coord.subarray << 1 << _WANT_SHIFT) | coord.row
    return ch_l, bank_l, want_l


def _synonym_columns(fin, synonym, first_arr):
    """The Section 4.3 fill rule over the whole trace: ``(gaps, tail,
    crossing, fills)``.

    ``fills`` is :meth:`SynonymDirectory.read_fills` of the trace's LLC
    fills (each line's first occurrence, in order), reduced to the totals
    ``add_fills`` needs.  ``gaps`` adds each fill's cycles to the next
    line's gap, and ``tail`` holds the last line's: the batched loop adds
    them right after the line's window retire, and nothing reads the
    clock again before the next gap.  ``crossing`` is the crossed lines'
    keys and final crossing masks."""
    fill_lines = np.flatnonzero(first_arr)
    fill_keys = fin.line_key[fill_lines]
    fills = synonym.read_fills(fill_keys)
    gaps = fin.line_gap
    tail = 0
    crossing = _NO_CROSSING
    if fills.checks:
        gaps = np.append(gaps, 0)
        gaps[fill_lines + 1] += fills.cycles
        tail = int(gaps[-1])
        gaps = gaps[:-1]
        crossed = np.flatnonzero(fills.crossing)
        crossing = (fill_keys[crossed], fills.crossing[crossed])
    # The per-fill arrays are folded in; add_fills needs the totals.
    fills = fills._replace(cycles=None, crossing=None)
    return gaps.tolist(), tail, crossing, fills


def kernel_eligible(machine, fin, stream=None):
    """Can :func:`run_kernel` replay ``fin`` on ``machine`` bit-for-bit?

    Checks trace shape (pure reads, gather coords present, no LLC-set
    overflow) and simulator state (pristine caches/controllers/banks,
    FR-FCFS + open-page, queues deeper than the MSHR window).  Row and
    column lines may mix: the kernel applies the synonym fill rule and
    counts orientation switches.  Every channel of a memory system runs
    the one device timing the kernel reads from the first bank, so no
    check on the memory system itself is needed.  Trace-shape verdicts
    are memoized on the trace, so re-checking a cached template costs
    only the O(banks) state probes.

    Multi-tenant serving is explicitly rejected rather than silently
    diverging: a nonzero ``stream`` (the replay-time tag, defaulting to
    the trace's own) means this replay interleaves with other tenants'
    traffic, and a controller with per-stream tallies enabled
    (``track_streams``) or queued streams would not have its fair-share
    state advanced by the kernel's bulk stats writeback.  The pristine
    checks below already catch dirty caches/LLC state left by a prior
    tenant; these checks make the *intent* (single untagged stream on
    fresh state) explicit and tested.
    """
    if stream is None:
        stream = fin.stream
    if stream:
        return False
    keys = fin.line_key
    if keys.shape[0] == 0:
        return False
    hierarchy = machine.hierarchy
    if len(hierarchy.levels) != 3:
        return False
    synonym = hierarchy.synonym
    if hierarchy.pending_writebacks or (synonym is not None and any(synonym.resident)):
        return False
    shape_ok = fin._kernel_cache.get("shape")
    if shape_ok is None:
        special = fin.line_special
        # Pure reads only: any write, pin, barrier or unpin bit rejects
        # (so does every write-after-read hazard to the flat state).
        shape_ok = not (special & (0xFF ^ LINE_GATHER)).any()
        if shape_ok and fin.has_gather:
            coords = fin.coords
            shape_ok = all(
                acc in coords
                for acc in fin.line_acc[(special & LINE_GATHER) != 0].tolist()
            )  # a missing coord raises CapabilityError mid-run on the
            #    batched path; keep that behaviour by falling back
        fin._kernel_cache["shape"] = shape_ok
    if not shape_ok:
        return False
    llc = hierarchy.llc
    fits_key = ("llc_fits", llc._set_mask, llc.ways)
    fits = fin._kernel_cache.get(fits_key)
    if fits is None:
        unique_keys = np.unique(keys)
        per_set = np.bincount(
            (unique_keys & llc._set_mask).astype(np.int64),
            minlength=llc.num_sets,
        )
        # More distinct lines than ways in any LLC set would make the
        # inclusive LLC evict (and back-invalidate the upper levels).
        fits = int(per_set.max()) <= llc.ways
        fin._kernel_cache[fits_key] = fits
    if not fits:
        return False
    # Fresh stats imply empty sets, without reading one: a set only leaves
    # EMPTY_SET through ``Cache.writable_set``, whose fill callers
    # (install, fill_absent_read and this kernel's deferred builds) all
    # come with counted ``fills`` (_commit writes its fills before it
    # defers the build), so fills == 0 means no line was cached since the
    # last construction or reset, and a level still waiting for its build
    # is never fresh.
    for level in hierarchy.levels:
        if _cache_fields(level.stats) != _FRESH_CACHE:
            return False
    window = machine.window
    for ctrl in machine.memory.controllers:
        if ctrl.policy != "frfcfs" or ctrl.page_policy != "open":
            return False
        if ctrl.reads_pending or ctrl.writes_pending or ctrl.draining:
            return False
        if ctrl.bus_free or ctrl.queue_depth <= window:
            return False
        if ctrl.track_streams or ctrl._read_streams or ctrl._write_streams:
            return False
        if _memory_fields(ctrl.stats) != _FRESH_MEMORY:
            return False
        for bank in ctrl.banks:
            if (
                bank.open_kind is not None
                or bank.dirty
                or bank.ready_at
                or bank.activated_at
                or bank.accesses
                or bank.activations
            ):
                return False
    return True


def _outcome_key(machine):
    """Every machine value :func:`_simulate` reads: the memory geometry
    (channels, banks and the mapper's decode), the MSHR window, the L2
    and LLC hit latencies, the L1 and L2 sets and ways, each controller's
    age cap, the bank timing and the synonym directory's geometry (None
    without one).  From the pristine state :func:`kernel_eligible`
    admits, an outcome depends on the trace and these alone.  The LLC's
    sets and ways are not among them: an admitted trace never evicts from
    the LLC, and its deferred build reads the LLC's own set mask.  A
    value :func:`_simulate` newly reads must join this key."""
    memory = machine.memory
    hierarchy = machine.hierarchy
    l1, l2, _l3 = hierarchy.levels
    bank = memory.controllers[0].banks[0]
    synonym = hierarchy.synonym
    return (
        "outcome",
        memory.mapper.geometry,
        machine.window,
        machine._hit_costs[1],
        machine._llc_latency,
        (l1.num_sets, l1.ways, l2.num_sets, l2.ways),
        tuple(ctrl.age_cap for ctrl in memory.controllers),
        (bank._cas_cpu, bank._rcd_cpu, bank._rp_cpu, bank._ras_cpu, bank._burst_cpu),
        None if synonym is None else synonym.mapper.geometry,
    )


def run_kernel(machine, fin):
    """Replay an eligible finalized trace; returns a ``RunResult``.

    Caller must have checked :func:`kernel_eligible` (and the
    column/gather capability of the memory system) first.  The outcome
    is memoized on ``fin`` under :func:`_outcome_key`, so a repeat on a
    fresh machine of the same configuration only runs :func:`_commit`.
    """
    key = _outcome_key(machine)
    outcome = fin._kernel_cache.get(key)
    if outcome is None:
        outcome = fin._kernel_cache[key] = _simulate(machine, fin)
    return _commit(machine, fin, outcome)


def _simulate(machine, fin):
    """Replay ``fin`` on ``machine``'s configuration from pristine state;
    returns its :data:`_Outcome` and changes nothing in the machine."""
    memory = machine.memory
    hierarchy = machine.hierarchy
    geometry = memory.mapper.geometry
    n_banks = geometry.ranks * geometry.banks
    n_channels = geometry.channels
    window = machine.window
    hit2 = machine._hit_costs[1]
    # On the three-level stack eligibility admits, the LLC's hit latency
    # is both the cost of an LLC hit and the lookup before a miss.
    llc_latency = machine._llc_latency

    # -- flattened replay columns --------------------------------------------
    # ``first`` marks each line's first occurrence: on pristine caches a
    # guaranteed full miss; later occurrences are guaranteed hits because
    # the LLC never evicts.
    keys_arr = fin.line_key
    n_lines_total = keys_arr.shape[0]
    first_arr = np.zeros(n_lines_total, dtype=bool)
    first_arr[np.unique(keys_arr, return_index=True)[1]] = True
    keys_l = keys_arr.tolist()
    first_l = first_arr.tolist()
    ch_l, bank_l, want_l = _channel_columns(fin, memory)
    synonym = hierarchy.synonym
    tail = 0
    crossing = _NO_CROSSING
    fills = None
    if synonym is None:
        gaps_l = fin.line_gap.tolist()
    else:
        gaps_l, tail, crossing, fills = _synonym_columns(fin, synonym, first_arr)

    # -- flat cache model ----------------------------------------------------
    l1, l2, _l3 = hierarchy.levels
    m1, m2 = l1._set_mask, l2._set_mask
    w1, w2 = l1.ways, l2.ways
    # A set's key list is made by its first fill; until then its slot
    # holds the shared empty tuple, so a replay allocates lists only for
    # the sets it touches.  A filled set never empties again (an
    # eviction or a move is always followed by an append), so only the
    # cold path checks.
    l1k = [()] * l1.num_sets
    l2k = [()] * l2.num_sets
    l3_hits = []  # line indices of LLC hits, in trace order

    # -- flat controller model ----------------------------------------------
    bank0 = memory.controllers[0].banks[0]
    cas = bank0._cas_cpu
    rcd = bank0._rcd_cpu
    rp = bank0._rp_cpu
    ras = bank0._ras_cpu
    burst = bank0._burst_cpu
    age_caps = [ctrl.age_cap for ctrl in memory.controllers]
    queues = [[[] for _ in range(n_banks)] for _ in range(n_channels)]
    active = [[] for _ in range(n_channels)]  # banks with a nonempty queue
    bank_open = [[-1] * n_banks for _ in range(n_channels)]  # want key or -1
    bank_ready = [[0] * n_banks for _ in range(n_channels)]
    bank_act_at = [[0] * n_banks for _ in range(n_channels)]
    bank_accs = [[0] * n_banks for _ in range(n_channels)]
    bank_actvs = [[0] * n_banks for _ in range(n_channels)]
    bus_free = [0] * n_channels
    pending = [0] * n_channels
    occ_sum = [0] * n_channels
    occ_max = [0] * n_channels
    bankq_max = [0] * n_channels
    hits_c = [0] * n_channels
    empty_c = [0] * n_channels
    confl_c = [0] * n_channels
    switch_c = [0] * n_channels
    actv_c = [0] * n_channels
    starved = [0] * n_channels
    starv_hits = [0] * n_channels
    maxbyp = [0] * n_channels
    byp = [0] * n_lines_total  # per-line bypass count (seq == line index)
    completion = [-1] * n_lines_total
    arrival = [0] * n_lines_total

    def _service_one(ch):
        """Exact flat port of ``ChannelController._schedule_one`` for a
        pure-read FR-FCFS/open-page channel.  Line indices double as the
        per-channel submission sequence (they ascend globally)."""
        act = active[ch]
        qs = queues[ch]
        bo = bank_open[ch]
        e = -1
        if starved[ch]:
            cap = age_caps[ch]
            best = -1
            for b in act:
                for cand in qs[b]:
                    if byp[cand] >= cap and (best < 0 or cand < best):
                        best = cand
            if best >= 0:
                starv_hits[ch] += 1
                starved[ch] -= 1
                e = best
        if e < 0:
            oldest = -1
            ready = -1
            for b in act:
                q = qs[b]
                head = q[0]
                if oldest < 0 or head < oldest:
                    oldest = head
                if ready < 0 or head < ready:
                    ob = bo[b]
                    for cand in q:
                        if want_l[cand] == ob:
                            if ready < 0 or cand < ready:
                                ready = cand
                            break
            if ready < 0 or ready == oldest:
                e = oldest
            else:
                e = ready
                cap = age_caps[ch]
                mb = maxbyp[ch]
                newly = 0
                for b in act:
                    for cand in qs[b]:
                        if cand >= e:
                            break
                        nb = byp[cand] + 1
                        byp[cand] = nb
                        if nb > mb:
                            mb = nb
                        if nb == cap:
                            newly += 1
                maxbyp[ch] = mb
                if newly:
                    starved[ch] += newly
        b = bank_l[e]
        q = qs[b]
        if q[0] == e:
            del q[0]
        else:
            q.remove(e)
        if not q:
            act.remove(b)
        pending[ch] -= 1
        # -- Bank.prepare, reads only (never dirty)
        a = arrival[e]
        r = bank_ready[ch][b]
        start = a if a > r else r
        want = want_l[e]
        if bank_open[ch][b] == want:
            hits_c[ch] += 1
            prep = 0
        else:
            if bank_open[ch][b] == -1:
                empty_c[ch] += 1
                prep = rcd
            else:
                confl_c[ch] += 1
                if (bank_open[ch][b] ^ want) & _KIND_BIT:
                    switch_c[ch] += 1
                earliest_close = bank_act_at[ch][b] + ras
                prep = (earliest_close - start) if earliest_close > start else 0
                prep += rp + rcd
            actv_c[ch] += 1
            bank_actvs[ch][b] += 1
            bank_open[ch][b] = want
            bank_act_at[ch][b] = start + prep
        bank_accs[ch][b] += 1
        bank_ready[ch][b] = start + prep + burst
        data_at = start + prep + cas
        bf = bus_free[ch]
        bus_start = data_at if data_at > bf else bf
        end = bus_start + burst
        bus_free[ch] = end
        completion[e] = end

    # -- the replay loop -----------------------------------------------------
    # Misses submit in line order and the MSHR window retires in FIFO
    # order, so the outstanding deque is just a growing list plus a
    # retire pointer.
    now = 0
    r_l1 = r_l2 = r_l3 = 0
    f1 = f2 = 0  # promote-driven upper-level fills (cold fills counted later)
    ev1 = ev2 = 0
    misses = []
    misses_append = misses.append
    n_out = 0
    retire_at = 0
    for i, g, key, first in zip(
        range(n_lines_total), gaps_l, keys_l, first_l
    ):
        if g:
            now += g
        s1 = l1k[key & m1]
        if first:
            # -- cold LLC miss: submit, maybe block on the window, fill.
            ch = ch_l[i]
            b = bank_l[i]
            q = queues[ch][b]
            if not q:
                active[ch].append(b)
            q.append(i)
            p = pending[ch] + 1
            pending[ch] = p
            occ_sum[ch] += p
            if p > occ_max[ch]:
                occ_max[ch] = p
            lq = len(q)
            if lq > bankq_max[ch]:
                bankq_max[ch] = lq
            arrival[i] = now + llc_latency
            misses_append(i)
            if n_out == window:
                j = misses[retire_at]
                retire_at += 1
                c = completion[j]
                if c < 0:
                    chj = ch_l[j]
                    while completion[j] < 0:
                        _service_one(chj)
                    c = completion[j]
                if c > now:
                    now = c
            else:
                n_out += 1
            if s1:
                if len(s1) >= w1:
                    del s1[0]
                    ev1 += 1
                s1.append(key)
            else:
                l1k[key & m1] = [key]
            s2 = l2k[key & m2]
            if s2:
                if len(s2) >= w2:
                    del s2[0]
                    ev2 += 1
                s2.append(key)
            else:
                l2k[key & m2] = [key]
            continue
        # -- repeat line: guaranteed hit somewhere in the hierarchy.
        if key in s1:
            r_l1 += 1
            if s1[-1] != key:
                s1.remove(key)
                s1.append(key)
            continue
        s2 = l2k[key & m2]
        if key in s2:
            r_l2 += 1
            now += hit2
            if s2[-1] != key:
                s2.remove(key)
                s2.append(key)
            if len(s1) >= w1:
                del s1[0]
                ev1 += 1
            s1.append(key)
            f1 += 1
            continue
        r_l3 += 1
        now += llc_latency
        l3_hits.append(i)
        if len(s2) >= w2:
            del s2[0]
            ev2 += 1
        s2.append(key)
        f2 += 1
        if len(s1) >= w1:
            del s1[0]
            ev1 += 1
        s1.append(key)
        f1 += 1
    now += tail  # the last line's synonym cycles
    for j in misses[retire_at:]:
        if completion[j] < 0:
            chj = ch_l[j]
            while completion[j] < 0:
                _service_one(chj)
        c = completion[j]
        if c > now:
            now = c

    # -- per-channel controller and bank state --------------------------------
    comp_arr = np.array(completion, dtype=np.int64)
    arr_arr = np.array(arrival, dtype=np.int64)
    lat_arr = comp_arr - arr_arr
    chan_arr = np.array(ch_l, dtype=np.int64)
    orient_arr = fin.line_orient.astype(np.int64)
    row_mask = orient_arr == _ROW_TAG
    col_mask = orient_arr == _COL_TAG
    gat_mask = orient_arr == _GATHER_TAG
    want_idx_mask = _KIND_BIT - 1
    channels = []
    for ch in range(n_channels):
        mask = first_arr & (chan_arr == ch)
        serviced = int(mask.sum())
        lats = lat_arr[mask]
        # Bulk latency histogram: the bucket of a positive latency is its
        # bit length, which is frexp's exponent (exact for the int64
        # magnitudes a replay can produce).
        buckets = {}
        if serviced:
            positive = lats > 0
            zeros = serviced - int(positive.sum())
            if zeros:
                buckets[0] = zeros
            exponents = np.frexp(lats[positive].astype(np.float64))[1]
            for bucket, count in enumerate(np.bincount(exponents).tolist()):
                if count:
                    buckets[bucket] = count
        stats = {
            "reads": serviced,
            "row_oriented": int((mask & row_mask).sum()),
            "col_oriented": int((mask & col_mask).sum()),
            "gathers": int((mask & gat_mask).sum()),
            "bus_busy_cycles": serviced * burst,
            "total_latency_cycles": int(lats.sum()),
            "buffer_hits": hits_c[ch],
            "buffer_empty_misses": empty_c[ch],
            "buffer_conflicts": confl_c[ch],
            "orientation_switches": switch_c[ch],
            "activations": actv_c[ch],
            "queue_occupancy_sum": occ_sum[ch],
            "queue_occupancy_samples": serviced,
            "max_queue_occupancy": occ_max[ch],
            "max_bank_queue_occupancy": bankq_max[ch],
            "max_bypass": maxbyp[ch],
            "starvation_cap_hits": starv_hits[ch],
        }
        banks = []
        for bi, want in enumerate(bank_open[ch]):
            if want < 0:
                continue  # bank never touched; stays at power-on state
            banks.append((
                bi,
                Orientation.COLUMN if want & _KIND_BIT else Orientation.ROW,
                want >> (_WANT_SHIFT + 1),
                want & want_idx_mask,
                bank_ready[ch][bi],
                bank_act_at[ch][bi],
                bank_accs[ch][bi],
                bank_actvs[ch][bi],
            ))
        channels.append((stats, buckets, bus_free[ch], tuple(banks)))

    n_unique = int(first_arr.sum())
    levels = (
        (r_l1, n_lines_total - r_l1, n_unique + f1, ev1),
        (r_l2, n_lines_total - r_l1 - r_l2, n_unique + f2, ev2),
        (r_l3, n_unique, n_unique, 0),
    )
    return _Outcome(
        cycles=now,
        channels=tuple(channels),
        levels=levels,
        l1_keys=_packed(l1k),
        l2_keys=_packed(l2k),
        llc_hits=np.array(l3_hits, dtype=np.intp),
        crossing=crossing,
        fills=fills,
        memory=combine_stats([
            _write_channel_stats(MemoryStats(), stats, buckets)
            for stats, buckets, _, _ in channels
        ]).snapshot(),
        caches=tuple(
            CacheStats(
                hits=hits, misses=misses, fills=level_fills, evictions=evictions
            ).snapshot()
            for hits, misses, level_fills, evictions in levels
        ),
    )


def _write_channel_stats(block, stats, buckets):
    """Write one channel's replay ``stats`` and latency ``buckets`` into
    the fresh ``MemoryStats`` ``block``; returns it.  Kernel traces are
    pure reads, so the read-latency slice is the whole distribution."""
    for name, value in stats.items():
        setattr(block, name, value)
    for hist in (block.latency_hist, block.read_latency_hist):
        hist.buckets = dict(buckets)
        hist.count = stats["reads"]
    return block


def _packed(sets):
    """Per-set key lists as one array: ascending set, LRU first."""
    return np.fromiter(itertools.chain.from_iterable(sets), dtype=np.int64)


def _commit(machine, fin, outcome):
    """Write ``outcome`` into ``machine`` (pristine, as
    :func:`kernel_eligible` checked) and build the ``RunResult``.

    Every mutable object it leaves behind is new (statistics' bucket
    dicts, each controller's sequence counter, the result and copies of
    the outcome's snapshots), so nothing written here can alter the
    memoized outcome."""
    from repro.cpu.machine import RunResult

    memory = machine.memory
    hierarchy = machine.hierarchy
    for ctrl, (stats, buckets, bus_free, banks) in zip(
        memory.controllers, outcome.channels
    ):
        _write_channel_stats(ctrl.stats, stats, buckets)
        ctrl.bus_free = bus_free
        ctrl._seq = itertools.count(stats["reads"])
        ctrl_banks = ctrl.banks
        for bi, kind, sub, index, ready, activated, accesses, activations in banks:
            bank = ctrl_banks[bi]
            bank.open_kind = kind
            bank.open_subarray = sub
            bank.open_index = index
            bank.open_entry = (kind, sub, index)
            bank.ready_at = ready
            bank.activated_at = activated
            bank.accesses = accesses
            bank.activations = activations

    # -- cache state: stats now, lines on first read -------------------------
    levels = hierarchy.levels
    for level, (hits, misses, fills, evictions) in zip(levels, outcome.levels):
        st = level.stats
        st.hits = hits
        st.misses = misses
        st.fills = fills
        st.evictions = evictions
    # Usually the next ``reset_timing`` drops the hierarchy unread, so the
    # lines are built only if something reads them (see defer_contents).
    l1, l2, l3 = levels
    l1.defer_contents(functools.partial(_build_upper, outcome.l1_keys))
    l2.defer_contents(functools.partial(_build_upper, outcome.l2_keys))
    l3.defer_contents(functools.partial(
        _build_llc, fin.line_key, outcome.llc_hits, outcome.crossing
    ))
    synonym = hierarchy.synonym
    synonym_cycles = 0
    if synonym is not None:
        # One bulk commit stands in for the fills' on_fill calls.
        synonym_cycles = synonym.add_fills(outcome.fills)

    # -- result ---------------------------------------------------------------
    result = RunResult()
    result.cycles = outcome.cycles
    result.accesses = fin.n_accesses
    result.reads = fin.n_reads
    result.writes = fin.n_writes
    result.lines_touched = fin.n_lines
    result.l1_hits = l1.stats.hits
    result.l2_hits = l2.stats.hits
    result.l3_hits = l3.stats.hits
    result.llc_misses = l3.stats.misses
    result.writebacks = 0
    result.synonym_cycles = synonym_cycles
    snapshot = outcome.memory
    with obs.span("controller.drain") as dsp:
        # Everything was serviced in the loop; draining the real
        # controllers is a no-op that reports the last bus time.
        if dsp.enabled:
            drained_at = max(bus_free for _, _, bus_free, _ in outcome.channels)
            dsp.set(end_cycles=drained_at, accesses=snapshot["accesses"])
    result.memory = memory_snapshot = dict(snapshot)
    for name in ("latency_hist", "read_latency_hist"):
        memory_snapshot[name] = dict(snapshot[name])
    result.caches = {
        level.name: dict(level_snapshot)
        for level, level_snapshot in zip(levels, outcome.caches)
    }
    if synonym is not None:
        # Eligibility does not check the directory's own counters, so its
        # snapshot is read live (one small dict either way).
        result.synonym = synonym.stats.snapshot()
    return result


# -- deferred cache contents (see Cache.defer_contents) ----------------------
def _build_upper(keys, cache):
    """Fill an L1 or L2 from its packed keys (ascending set, LRU first)."""
    mask = cache._set_mask
    for key in keys.tolist():
        cache.writable_set(key & mask)[key] = CacheLine(key)


def _build_llc(keys, hit_lines, crossed, llc):
    """Fill the LLC by replaying its touches in trace order: a line's first
    occurrence fills it and each LLC hit refreshes it, so every set ends in
    last-touch (LRU) order.  The LLC never evicts under the kernel.  Each
    line gets its final crossing mask (``crossed``: keys, masks) as it
    fills."""
    first = np.zeros(keys.shape[0], dtype=bool)
    first[np.unique(keys, return_index=True)[1]] = True
    touched = first.copy()
    touched[hit_lines] = True
    lines = np.flatnonzero(touched)
    crossing = dict(zip(*(column.tolist() for column in crossed)))
    mask = llc._set_mask
    for key, fill in zip(keys[lines].tolist(), first[lines].tolist()):
        cache_set = llc.writable_set(key & mask)
        if fill:
            cache_set[key] = line = CacheLine(key)
            line.crossing = crossing.get(key, 0)
        else:
            cache_set.move_to_end(key)
