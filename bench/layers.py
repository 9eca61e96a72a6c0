"""Per-layer measurement for the traced run (``--trace 1``).

Spans are recorded from the benchmark's own code: :func:`install_hooks`
wraps public entry points of each layer (``parse``, ``Planner.plan``,
``Executor.execute``, ...) for the duration of the traced passes and
restores them afterwards.  A span holds its name, CPU start and end
(``time.process_time``), its parent span and the statement index; spans
stay in memory and are written out when the run ends.  A span's self
time is its duration minus the time its child spans cover, so the self
times of one pass sum exactly to its bench-level calls, which is the
traced ``pass_cpu_s``.

Replay internals (cache hierarchy, controllers, banks) have no public
call boundary, so one pass runs under ``cProfile`` and
:func:`fold_profile` sums ``tottime`` by ``repro`` package.
"""

import collections
import pstats
import time

#: Span names, one per layer boundary the hooks wrap.  "stmt" and
#: "serving" are the bench-level calls (a statement, or a serving round).
SPAN_NAMES = (
    "stmt", "parse", "plan", "exec", "template", "reset", "replay",
    "mc_replay", "serving", "durability",
)

#: ``repro`` packages ``cProfile`` time is folded into; the rest
#: (NumPy, builtins, other packages) is "other".
PROFILE_PACKAGES = (
    "cpu", "cache", "memsim", "imdb", "core", "obs", "durability", "serving",
)


class SpanRecorder:
    """In-memory span list plus the counters the hooks collect."""

    def __init__(self):
        #: ``[name, cpu_start, cpu_end, parent_index, stmt_index]``
        self.spans = []
        self.counts = collections.Counter()
        self.stmt = -1
        self._stack = []
        self._patches = []

    def call(self, name, fn):
        """Run ``fn()`` as a span; returns ``(result, cpu_seconds)``."""
        return self._timed(name, fn, (), {})

    def _timed(self, name, fn, args, kwargs):
        spans = self.spans
        stack = self._stack
        entry = [name, 0.0, 0.0, stack[-1] if stack else -1, self.stmt]
        stack.append(len(spans))
        spans.append(entry)
        entry[1] = time.process_time()
        try:
            result = fn(*args, **kwargs)
        finally:
            entry[2] = time.process_time()
            stack.pop()
        return result, entry[2] - entry[1]

    def patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr, name, after=None):
        """Record a ``name`` span around every call of ``owner.attr``
        made inside a :meth:`call`; ``after(result)`` then adds to
        :attr:`counts`."""
        original = vars(owner)[attr]

        def wrapper(*args, **kwargs):
            if not self._stack:  # set-up or checks, outside any timed call
                return original(*args, **kwargs)
            result, _cpu = self._timed(name, original, args, kwargs)
            if after is not None:
                after(result)
            return result

        self.patch(owner, attr, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self):
        """The spans and counts recorded since the last call; clears both."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], collections.Counter()
        return spans, counts


def install_hooks(recorder):
    """Wrap each layer's public entry point with a span."""
    import repro.imdb.database as database_module
    from repro.cpu.machine import Machine
    from repro.cpu.multicore import MulticoreMachine
    from repro.cpu.tracetemplate import TraceTemplateCache
    from repro.durability.manager import DurabilityManager
    from repro.imdb.executor import Executor
    from repro.imdb.planner import Planner

    # The callbacks look up ``recorder.counts`` on every call because
    # :meth:`SpanRecorder.take` replaces it between passes.
    def on_exec(result):
        recorder.counts["exec.accesses"] += len(result[1])

    def on_replay(result):
        counts = recorder.counts
        counts["replay.accesses"] += result.accesses
        counts["cache.lines"] += result.lines_touched
        counts["cache.l1_hits"] += result.l1_hits
        counts["cache.llc_misses"] += result.llc_misses
        counts["cache.writebacks"] += result.writebacks
        counts["cache.synonym_cycles"] += result.synonym_cycles

    def on_mc_replay(result):
        counts = recorder.counts
        counts["mc_replay.accesses"] += result.total_accesses
        for core in result.cores:
            counts["cache.lines"] += core.private_hits + core.llc_hits + core.misses
            counts["cache.l1_hits"] += core.private_hits
            counts["cache.llc_misses"] += core.misses

    recorder.wrap(database_module, "parse", "parse")
    recorder.wrap(Planner, "plan", "plan")
    recorder.wrap(Executor, "execute", "exec", on_exec)
    recorder.wrap(TraceTemplateCache, "fetch", "template")
    recorder.wrap(TraceTemplateCache, "store", "template")
    recorder.wrap(database_module.Database, "reset_timing", "reset")
    recorder.wrap(Machine, "run", "replay", on_replay)
    recorder.wrap(MulticoreMachine, "run_segmented", "mc_replay", on_mc_replay)
    recorder.wrap(DurabilityManager, "commit_statement", "durability")
    recorder.wrap(DurabilityManager, "log_tuple_write", "durability")


def install_eligibility_probe(recorder):
    """Count the replays ``replaykernel.kernel_eligible`` accepts.

    The check finalizes the trace before the replay does, which would
    move work out of the replay span, so it runs in a pass of its own."""
    from repro.cpu.machine import Machine
    from repro.cpu.replaykernel import kernel_eligible
    from repro.cpu.tracebuffer import TraceBuffer

    original = vars(Machine)["run"]

    def probe(machine, trace, stream=None):
        fin = trace.finalize() if isinstance(trace, TraceBuffer) else trace
        recorder.counts["replay.calls"] += 1
        recorder.counts["replay.kernel_eligible"] += bool(
            kernel_eligible(machine, fin, stream)
        )
        return original(machine, trace, stream)

    recorder.patch(Machine, "run", probe)


def summarize(spans):
    """Per-name self seconds and call counts of one pass, plus the total
    of its root spans."""
    children = [0.0] * len(spans)
    for name, start, end, parent, _stmt in spans:
        if parent >= 0:
            children[parent] += end - start
    self_s = collections.Counter()
    calls = collections.Counter()
    total = 0.0
    for index, (name, start, end, parent, _stmt) in enumerate(spans):
        self_s[name] += end - start - children[index]
        calls[name] += 1
        if parent < 0:
            total += end - start
    return {"self": self_s, "calls": calls, "total": total}


def _package(filename):
    parts = filename.replace("\\", "/").split("/")[:-1]
    if "repro" not in parts:
        return "other"
    index = len(parts) - 1 - parts[::-1].index("repro")
    package = parts[index + 1] if index + 1 < len(parts) else None
    return package if package in PROFILE_PACKAGES else "other"


def fold_profile(profiler):
    """``tottime`` seconds per package in :data:`PROFILE_PACKAGES`."""
    totals = dict.fromkeys(PROFILE_PACKAGES + ("other",), 0.0)
    for (filename, _line, _func), row in pstats.Stats(profiler).stats.items():
        totals[_package(filename)] += row[2]
    return totals


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(traced, untraced_cpu, eligibility, profile, last):
    """The per-layer metrics of one traced run.

    ``traced`` holds one :func:`summarize` result (with its ``counts``)
    per traced pass, ``untraced_cpu`` the untraced passes' CPU seconds,
    ``eligibility`` the probe pass's counts, ``profile`` the folded
    profile and ``last`` the last pass (its ``tally`` and template
    counter deltas are the same on every pass).  Times come from the
    fastest traced and the fastest untraced pass, the passes other load
    on the host disturbed least; the self times of that traced pass sum
    to ``trace.traced_pass_cpu_s``."""
    best = min(traced, key=lambda t: t["total"])

    def rate(count, name):
        return _ratio(best["counts"][count], best["self"][name])

    traced_cpu = best["total"]
    untraced = min(untraced_cpu)
    metrics = {f"{name}.self_s": best["self"][name] for name in SPAN_NAMES}
    resets = best["calls"]["reset"]
    template = last.counters
    lookups = sum(template.get(k, 0) for k in ("hits", "misses", "rebinds"))
    memory = last.tally.memory
    serving = last.tally.serving
    accesses = memory["reads"] + memory["writes"]
    metrics.update({
        "plan.calls": best["calls"]["plan"],
        "exec.accesses_per_s": rate("exec.accesses", "exec"),
        "template.hit_rate": _ratio(template.get("hits", 0), lookups),
        "template.rebinds": template.get("rebinds", 0),
        "template.invalidations": template.get("invalidations", 0),
        "reset.calls": resets,
        "reset.ms_per_call": _ratio(best["self"]["reset"] * 1e3, resets),
        "replay.accesses_per_s": rate("replay.accesses", "replay"),
        "replay.kernel_eligible_frac": _ratio(
            eligibility["replay.kernel_eligible"], eligibility["replay.calls"]
        ),
        "mc_replay.accesses_per_s": rate("mc_replay.accesses", "mc_replay"),
        "serving.rounds": serving.get("rounds", 0),
        "serving.fairness": serving.get("fairness", 0.0),
        "serving.shed": serving.get("shed", 0),
        "serving.p99_cycles": serving.get("p99_cycles", 0),
        "durability.wal_records": memory["wal_records"],
        "durability.wal_cells": memory["wal_cells"],
        "durability.persist_flush_lines": memory["persist_flush_lines"],
        "cache.l1_hit_rate": _ratio(best["counts"]["cache.l1_hits"],
                                    best["counts"]["cache.lines"]),
        "cache.llc_misses": best["counts"]["cache.llc_misses"],
        "cache.writebacks": best["counts"]["cache.writebacks"],
        "cache.synonym_cycles": best["counts"]["cache.synonym_cycles"],
        "memsim.buffer_miss_rate": _ratio(
            memory["buffer_empty_misses"] + memory["buffer_conflicts"], accesses
        ),
        "memsim.orientation_switches": memory["orientation_switches"],
        "memsim.activations": memory["activations"],
        "memsim.write_drain_episodes": memory["write_drain_episodes"],
        "memsim.mean_queue_occupancy": _ratio(
            memory["queue_occupancy_sum"], memory["queue_occupancy_samples"]
        ),
        "memsim.total_latency_cycles": memory["total_latency_cycles"],
        "memsim.write_pulses": memory["write_pulses"],
        "sim.cycles": last.tally.cycles,
    })
    # cProfile inflates Python-heavy code more than native code, so
    # report each package's share of profiled time scaled to the
    # untraced pass time.
    profiled = sum(profile.values())
    for package, seconds in profile.items():
        metrics[f"prof.{package}_s"] = _ratio(seconds, profiled) * untraced
    metrics.update({
        "trace.overhead_frac": _ratio(traced_cpu - untraced, untraced),
        "trace.traced_pass_cpu_s": traced_cpu,
        "trace.untraced_pass_cpu_s": untraced,
    })
    return metrics


def chrome_trace(spans_by_pass):
    """Chrome Trace Event Format (``about:tracing``, Perfetto); one track
    per traced pass, timestamps in CPU microseconds."""
    starts = [s[1] for spans in spans_by_pass for s in spans]
    base = min(starts) if starts else 0.0
    events = []
    for pass_index, spans in enumerate(spans_by_pass):
        for name, start, end, _parent, stmt in spans:
            events.append({
                "name": name, "cat": "bench", "ph": "X", "pid": 1,
                "tid": pass_index, "ts": (start - base) * 1e6,
                "dur": (end - start) * 1e6, "args": {"stmt": stmt},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
