"""Whole-trace replay kernel: batched replay without per-line Python objects.

:func:`run_kernel` replays a finalized structure-of-arrays trace with flat
integer state instead of the object graph the batched loop drives — no
:class:`~repro.memsim.request.MemRequest`, no ``_Queued`` entries, no
:class:`~repro.cache.line.CacheLine` allocations on the hot path.  The
cache hierarchy is modelled as per-set Python lists of line keys, the
per-channel controllers as per-bank integer FIFOs serviced by an exact
port of the FR-FCFS pick (including bypass counting and the starvation
age cap), and the bank timing state machine as five integers per bank.
After the loop the statistics, controller and bank state and synonym
counts are written into the real objects in bulk, and each cache level's
lines are left to a build (:meth:`~repro.cache.cache.Cache.defer_contents`)
that runs the first time anything reads that level's sets.  A kernel run
thus leaves behind the *identical* end state — and the identical
``RunResult`` — the batched loop would have produced, yet costs no
``CacheLine`` when the next ``Database.reset_timing`` drops the hierarchy
unread, as it does before every cold-timed statement.
``tests/test_replay_kernel.py`` and the ``tests/test_replay_equivalence.py``
oracle pin this bit for bit.

The flattened replay columns (keys, gaps, first-occurrence flags, and
the per-line channel/bank/want-key decode) are memoized on the
:class:`~repro.cpu.tracebuffer.FinalizedTrace` itself, so replaying a
cached trace template again — the serving hot path — skips straight to
the integer loop.  So is the Section 4.3 fill rule on RC-NVM
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

import numpy as np

from repro.cache.line import CacheLine
from repro.cache.stats import CacheStats
from repro.core.addressing import Orientation
from repro.cpu.tracebuffer import LINE_GATHER
from repro.memsim.stats import MemoryStats
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


def _static_columns(fin):
    """Mapper-independent flattened replay columns, memoized on ``fin``:
    ``(keys, gaps, first_arr, first)`` where ``first`` marks each line's
    first occurrence (on pristine caches: a guaranteed full miss; later
    occurrences are guaranteed hits because the LLC never evicts)."""
    cached = fin._kernel_cache.get("static")
    if cached is None:
        keys_arr = fin.line_key
        first_arr = np.zeros(keys_arr.shape[0], dtype=bool)
        first_arr[np.unique(keys_arr, return_index=True)[1]] = True
        cached = (
            keys_arr.tolist(),
            fin.line_gap.tolist(),
            first_arr,
            first_arr.tolist(),
        )
        fin._kernel_cache["static"] = cached
    return cached


def _channel_columns(fin, memory):
    """Per-line ``(channel, bank_index, want_key)`` flat lists under one
    memory system's mapper, memoized on ``fin``.  Gather lines decode to
    masked zeros, so their device coordinates come from the trace's side
    table instead."""
    mapper = memory.mapper
    cached = fin._kernel_cache.get(mapper)
    if cached is None:
        banks_per_rank = memory.geometry.banks
        orient_arr = fin.line_orient.astype(np.int64)
        dch, drk, dbk, dsa, drow, dcol = fin.decoded_arrays_for(mapper)
        is_col = orient_arr == _COL_TAG
        idx_arr = np.where(is_col, dcol, drow)
        want_arr = (
            (dsa.astype(np.int64) << 1 | is_col) << _WANT_SHIFT
        ) | idx_arr
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
        cached = (ch_l, bank_l, want_l)
        fin._kernel_cache[mapper] = cached
    return cached


def _synonym_columns(fin, synonym, gaps_l, first_arr):
    """The Section 4.3 fill rule over the whole trace, memoized on ``fin``
    per mapper: ``(gaps, tail, crossing, fills)``.

    ``fills`` is :meth:`SynonymDirectory.read_fills` of the trace's LLC
    fills (each line's first occurrence, in order).  ``gaps`` adds each
    fill's cycles to the next line's gap, and ``tail`` holds the last
    line's: the batched loop adds them right after the line's window
    retire, and nothing reads the clock again before the next gap.
    ``crossing`` maps each crossed line's key to its final crossing mask.
    A trace with no crossing check keeps the static gap list ``gaps_l``."""
    cache_key = ("synonym", synonym.mapper)
    cached = fin._kernel_cache.get(cache_key)
    if cached is None:
        fill_lines = np.flatnonzero(first_arr)
        fill_keys = fin.line_key[fill_lines]
        fills = synonym.read_fills(fill_keys)
        tail = 0
        crossing = {}
        if fills.checks:
            gaps = np.append(fin.line_gap, 0)
            gaps[fill_lines + 1] += fills.cycles
            tail = int(gaps[-1])
            gaps_l = gaps[:-1].tolist()
            crossed = np.flatnonzero(fills.crossing)
            crossing = dict(zip(
                fill_keys[crossed].tolist(), fills.crossing[crossed].tolist()
            ))
        # The per-fill arrays are folded in; add_fills needs the totals.
        fills = fills._replace(cycles=None, crossing=None)
        cached = (gaps_l, tail, crossing, fills)
        fin._kernel_cache[cache_key] = cached
    return cached


def kernel_eligible(machine, fin, stream=None):
    """Can :func:`run_kernel` replay ``fin`` on ``machine`` bit-for-bit?

    Checks trace shape (pure reads, gather coords present, no LLC-set
    overflow) and simulator state (pristine caches/controllers/banks,
    FR-FCFS + open-page, queues deeper than the MSHR window).  Row and
    column lines may mix: the kernel applies the synonym fill rule and
    counts orientation switches.  Trace-shape verdicts are memoized on
    the trace, so re-checking a cached template costs only the O(banks)
    state probes.

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
    if getattr(machine.memory, "tiered", False):
        # The kernel models one uniform device timing per system; a hybrid
        # DRAM + NVM system mixes two, and migrations between statements
        # invalidate the cached trace shape anyway.
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
    # come with counted ``fills`` (run_kernel writes its fills before it
    # defers the build), so fills == 0 means no line was cached since the
    # last construction or reset, and a level still waiting for its build
    # is never fresh.
    fresh_cache = CacheStats()
    for level in hierarchy.levels:
        if level.stats != fresh_cache:
            return False
    window = machine.window
    fresh_mem = MemoryStats()
    for ctrl in machine.memory.controllers:
        if ctrl.policy != "frfcfs" or ctrl.page_policy != "open":
            return False
        if ctrl.reads_pending or ctrl.writes_pending or ctrl.draining:
            return False
        if ctrl.bus_free or ctrl.queue_depth <= window:
            return False
        if ctrl.track_streams or ctrl._read_streams or ctrl._write_streams:
            return False
        if ctrl.stats != fresh_mem:
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


def run_kernel(machine, fin):
    """Replay an eligible finalized trace; returns a ``RunResult``.

    Caller must have checked :func:`kernel_eligible` (and the
    column/gather capability of the memory system) first.
    """
    from repro.cpu.machine import RunResult

    memory = machine.memory
    hierarchy = machine.hierarchy
    geometry = memory.geometry
    n_banks = geometry.ranks * geometry.banks
    n_channels = geometry.channels
    window = machine.window
    llc_latency = machine._llc_latency
    hit2 = machine._hit_costs[1]
    hit3 = machine._hit_costs[2]

    keys_arr = fin.line_key
    n_lines_total = keys_arr.shape[0]
    keys_l, gaps_l, first_arr, first_l = _static_columns(fin)
    ch_l, bank_l, want_l = _channel_columns(fin, memory)
    synonym = hierarchy.synonym
    tail = 0
    crossing = {}
    if synonym is not None:
        gaps_l, tail, crossing, fills = _synonym_columns(
            fin, synonym, gaps_l, first_arr
        )

    # -- flat cache model ----------------------------------------------------
    l1, l2, l3 = hierarchy.levels
    m1, m2 = l1._set_mask, l2._set_mask
    w1, w2 = l1.ways, l2.ways
    l1k = [[] for _ in range(l1.num_sets)]
    l2k = [[] for _ in range(l2.num_sets)]
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
            if len(s1) >= w1:
                del s1[0]
                ev1 += 1
            s1.append(key)
            s2 = l2k[key & m2]
            if len(s2) >= w2:
                del s2[0]
                ev2 += 1
            s2.append(key)
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
        now += hit3
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

    # -- write controller state back into the real objects -------------------
    comp_arr = np.array(completion, dtype=np.int64)
    arr_arr = np.array(arrival, dtype=np.int64)
    lat_arr = comp_arr - arr_arr
    chan_arr = np.array(ch_l, dtype=np.int64)
    orient_arr = fin.line_orient.astype(np.int64)
    row_mask = orient_arr == _ROW_TAG
    col_mask = orient_arr == _COL_TAG
    gat_mask = orient_arr == _GATHER_TAG
    miss_mask = first_arr
    want_idx_mask = _KIND_BIT - 1
    for ch in range(n_channels):
        ctrl = memory.controllers[ch]
        st = ctrl.stats
        mask = miss_mask & (chan_arr == ch)
        serviced = int(mask.sum())
        if serviced:
            st.reads = serviced
            st.row_oriented = int((mask & row_mask).sum())
            st.col_oriented = int((mask & col_mask).sum())
            st.gathers = int((mask & gat_mask).sum())
            st.bus_busy_cycles = serviced * burst
            lats = lat_arr[mask]
            st.total_latency_cycles = int(lats.sum())
            # Bulk latency histogram: the bucket of a positive latency is
            # its bit length, which is frexp's exponent (exact for the
            # int64 magnitudes a replay can produce).
            hist = st.latency_hist
            positive = lats > 0
            buckets = {}
            zeros = serviced - int(positive.sum())
            if zeros:
                buckets[0] = zeros
            exponents = np.frexp(lats[positive].astype(np.float64))[1]
            for bucket, count in enumerate(np.bincount(exponents).tolist()):
                if count:
                    buckets[bucket] = count
            hist.buckets = buckets
            hist.count = serviced
            # Kernel traces are pure reads, so the read-latency slice is
            # the whole distribution.
            rhist = st.read_latency_hist
            rhist.buckets = dict(buckets)
            rhist.count = serviced
        # Kernel eligibility rejects tiered memory, so every serviced
        # request belongs to the NVM tier (see MemoryStats tier partition).
        st.tier_nvm_accesses = serviced
        st.tier_nvm_hits = hits_c[ch]
        st.buffer_hits = hits_c[ch]
        st.buffer_empty_misses = empty_c[ch]
        st.buffer_conflicts = confl_c[ch]
        st.orientation_switches = switch_c[ch]
        st.activations = actv_c[ch]
        st.queue_occupancy_sum = occ_sum[ch]
        st.queue_occupancy_samples = serviced
        st.max_queue_occupancy = occ_max[ch]
        st.max_bank_queue_occupancy = bankq_max[ch]
        st.max_bypass = maxbyp[ch]
        st.starvation_cap_hits = starv_hits[ch]
        ctrl.bus_free = bus_free[ch]
        ctrl._seq = itertools.count(serviced)
        bo = bank_open[ch]
        br = bank_ready[ch]
        ba = bank_act_at[ch]
        bacc = bank_accs[ch]
        bact = bank_actvs[ch]
        banks = ctrl.banks
        for bi in range(n_banks):
            want = bo[bi]
            if want < 0:
                continue  # bank never touched; stays at power-on state
            bank = banks[bi]
            kind = Orientation.COLUMN if want & _KIND_BIT else Orientation.ROW
            sub = want >> (_WANT_SHIFT + 1)
            index = want & want_idx_mask
            bank.open_kind = kind
            bank.open_subarray = sub
            bank.open_index = index
            bank.open_entry = (kind, sub, index)
            bank.ready_at = br[bi]
            bank.activated_at = ba[bi]
            bank.accesses = bacc[bi]
            bank.activations = bact[bi]

    # -- cache state: stats now, lines on first read -------------------------
    n_unique = int(miss_mask.sum())
    l1.stats.hits = r_l1
    l1.stats.misses = n_lines_total - r_l1
    l1.stats.fills = n_unique + f1
    l1.stats.evictions = ev1
    l2.stats.hits = r_l2
    l2.stats.misses = n_lines_total - r_l1 - r_l2
    l2.stats.fills = n_unique + f2
    l2.stats.evictions = ev2
    l3.stats.hits = r_l3
    l3.stats.misses = n_unique
    l3.stats.fills = n_unique
    # Usually the next ``reset_timing`` drops the hierarchy unread, so the
    # lines are built only if something reads them (see defer_contents).
    l1.defer_contents(functools.partial(_build_upper, l1k))
    l2.defer_contents(functools.partial(_build_upper, l2k))
    l3.defer_contents(
        functools.partial(_build_llc, keys_l, first_arr, l3_hits, crossing)
    )
    synonym_cycles = 0
    if synonym is not None:
        # One bulk commit stands in for the fills' on_fill calls.
        synonym_cycles = synonym.add_fills(fills)

    # -- result ---------------------------------------------------------------
    result = RunResult()
    result.cycles = now
    result.accesses = fin.n_accesses
    result.reads = fin.n_reads
    result.writes = fin.n_writes
    result.lines_touched = fin.n_lines
    result.l1_hits = r_l1
    result.l2_hits = r_l2
    result.l3_hits = r_l3
    result.llc_misses = n_unique
    result.writebacks = 0
    result.synonym_cycles = synonym_cycles
    with obs.span("controller.drain") as dsp:
        # Everything was serviced in the loop; draining the real
        # controllers is a no-op that reports the last bus time.
        drained_at = max(bus_free)
        if dsp.enabled:
            dsp.set(end_cycles=drained_at, accesses=memory.stats.accesses)
    result.memory = memory.stats.snapshot()
    result.caches = hierarchy.stats_by_level()
    if synonym is not None:
        result.synonym = synonym.stats.snapshot()
    return result


# -- deferred cache contents (see Cache.defer_contents) ----------------------
def _build_upper(flat, cache):
    """Fill an L1 or L2 from the loop's per-set key lists (LRU first)."""
    for set_index, keys in enumerate(flat):
        if keys:
            cache_set = cache.writable_set(set_index)
            for key in keys:
                cache_set[key] = CacheLine(key)


def _build_llc(keys_l, first_arr, hit_lines, crossing, llc):
    """Fill the LLC by replaying its touches in trace order: a line's first
    occurrence fills it and each LLC hit refreshes it, so every set ends in
    last-touch (LRU) order.  The LLC never evicts under the kernel.  Each
    line gets its final crossing mask (``crossing``, by key) as it fills."""
    touched = first_arr.copy()
    touched[np.array(hit_lines, dtype=np.intp)] = True
    lines = np.flatnonzero(touched)
    mask = llc._set_mask
    for i, first in zip(lines.tolist(), first_arr[lines].tolist()):
        key = keys_l[i]
        cache_set = llc.writable_set(key & mask)
        if first:
            cache_set[key] = line = CacheLine(key)
            line.crossing = crossing.get(key, 0)
        else:
            cache_set.move_to_end(key)
