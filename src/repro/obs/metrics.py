"""Typed metrics registry: Counter/Gauge/Histogram instruments with labels.

The registry unifies the simulator's ad-hoc counter blocks behind one
collection surface (gem5's stats framework is the spiritual ancestor).
Instruments come in two flavours:

* **owned** — the instrument holds its own value (``Counter.inc``,
  ``Gauge.set``, ``Histogram.record``);
* **source-backed** — the instrument reads a live value through a
  zero-argument callable at collect time.  This is how ``MemoryStats``,
  ``CacheStats`` and ``SynonymStats`` are migrated onto the registry:
  their hot-path increment sites keep mutating plain attributes (no
  per-access overhead), and :func:`bind_stats` exposes every field as a
  typed instrument using the stats class's ``INSTRUMENTS`` declaration.
  The stats classes' public ``snapshot()`` keys are unchanged.

Labels are plain dicts (``{"system": "RC-NVM", "channel": 0}``),
canonicalized internally so label order never matters.
"""

from dataclasses import dataclass
from typing import Tuple

from repro.memsim.stats import LatencyHistogram

KINDS = ("counter", "gauge", "histogram")


def _canon_labels(labels):
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass(frozen=True)
class Sample:
    """One collected measurement."""

    name: str
    kind: str
    labels: Tuple[Tuple[str, str], ...]
    value: object


class _Instrument:
    __slots__ = ("name", "labels", "_value", "_source")
    kind = None

    def __init__(self, name, labels=(), source=None):
        self.name = name
        self.labels = labels
        self._value = 0
        self._source = source

    @property
    def value(self):
        if self._source is not None:
            return self._source()
        return self._value

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r}, {dict(self.labels)}, {self.value})"


class Counter(_Instrument):
    """Monotonically non-decreasing count."""

    __slots__ = ()
    kind = "counter"

    def inc(self, n=1):
        if self._source is not None:
            raise TypeError(f"counter {self.name!r} is source-backed (read-only)")
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {n})")
        self._value += n


class Gauge(_Instrument):
    """A value that can go up and down (occupancy, watermarks)."""

    __slots__ = ()
    kind = "gauge"

    def set(self, value):
        if self._source is not None:
            raise TypeError(f"gauge {self.name!r} is source-backed (read-only)")
        self._value = value


class Histogram(_Instrument):
    """Power-of-two-bucketed distribution (shares LatencyHistogram's
    binning so merged controller histograms bind directly)."""

    __slots__ = ()
    kind = "histogram"

    def __init__(self, name, labels=(), source=None):
        super().__init__(name, labels, source)
        if source is None:
            self._value = LatencyHistogram()

    @property
    def hist(self) -> LatencyHistogram:
        return self._source() if self._source is not None else self._value

    @property
    def value(self):
        """Histogram "value" is its sample count (for top-N tables)."""
        return self.hist.count

    def record(self, value):
        if self._source is not None:
            raise TypeError(f"histogram {self.name!r} is source-backed (read-only)")
        self._value.record(value)

    def percentile(self, pct):
        return self.hist.percentile(pct)

    def to_dict(self):
        return self.hist.to_dict()


_CLASSES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """All instruments sharing one metric name (and one kind)."""

    __slots__ = ("name", "kind", "description", "instruments")

    def __init__(self, name, kind, description):
        self.name = name
        self.kind = kind
        self.description = description
        self.instruments = {}  # canonical labels tuple -> instrument


class MetricsRegistry:
    """Registry of named, labelled instruments."""

    def __init__(self):
        self._families = {}

    # -- registration --------------------------------------------------------
    def _instrument(self, kind, name, labels=None, description="", source=None):
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = _Family(name, kind, description)
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {family.kind}, cannot re-register as {kind}"
            )
        key = _canon_labels(labels)
        instrument = family.instruments.get(key)
        if instrument is None:
            instrument = family.instruments[key] = _CLASSES[kind](name, key, source)
        return instrument

    def counter(self, name, labels=None, description="", source=None) -> Counter:
        return self._instrument("counter", name, labels, description, source)

    def gauge(self, name, labels=None, description="", source=None) -> Gauge:
        return self._instrument("gauge", name, labels, description, source)

    def histogram(self, name, labels=None, description="", source=None) -> Histogram:
        return self._instrument("histogram", name, labels, description, source)

    # -- lookup / collection -------------------------------------------------
    def get(self, name, labels=None):
        family = self._families.get(name)
        if family is None:
            return None
        return family.instruments.get(_canon_labels(labels))

    def names(self):
        return sorted(self._families)

    def collect(self):
        """Every instrument's current value, as :class:`Sample` rows."""
        samples = []
        for name in sorted(self._families):
            family = self._families[name]
            for key in sorted(family.instruments):
                instrument = family.instruments[key]
                samples.append(Sample(name, family.kind, key, instrument.value))
        return samples

    def snapshot(self):
        """``{name: {"label=value,...": value}}`` (JSON-ready)."""
        out = {}
        for sample in self.collect():
            key = ",".join(f"{k}={v}" for k, v in sample.labels) or ""
            value = sample.value
            if sample.kind == "histogram":
                instrument = self.get(sample.name, dict(sample.labels))
                value = instrument.to_dict()
            out.setdefault(sample.name, {})[key] = value
        return out

    def top(self, n=10, kinds=("counter", "gauge")):
        """The ``n`` largest numeric samples, descending (profile tables)."""
        numeric = [
            s for s in self.collect()
            if s.kind in kinds and isinstance(s.value, (int, float)) and s.value
        ]
        numeric.sort(key=lambda s: (-s.value, s.name, s.labels))
        return numeric[:n]


# -- stats-block migration -----------------------------------------------------

def bind_stats(registry, stats_getter, prefix, labels=None, cls=None):
    """Bind every declared field of a stats block as a live instrument.

    ``stats_getter`` is a zero-argument callable returning the *current*
    stats object — a callable rather than the object itself because
    ``reset()``/``reset_timing()`` replace stats blocks wholesale and the
    registry must keep reading the live one.  ``cls`` (defaulting to the
    type of the current stats object) supplies the ``INSTRUMENTS``
    declaration mapping field name -> instrument kind.
    """
    cls = cls or type(stats_getter())
    registered = []
    for field_name, kind in cls.INSTRUMENTS.items():
        name = f"{prefix}.{field_name}"
        source = (lambda g=stats_getter, f=field_name: getattr(g(), f))
        registered.append(
            registry._instrument(kind, name, labels=labels, source=source)
        )
    return registered


def registry_for_database(db) -> MetricsRegistry:
    """A registry covering one database's whole simulated stack.

    Binds every channel controller's :class:`MemoryStats` (labels:
    system, channel), per-orientation request counters (label:
    orientation), per-bank queue-depth gauges (labels: channel, bank),
    each cache level's :class:`CacheStats` (label: level), the synonym
    directory's :class:`SynonymStats`, and — when the database has one —
    the template cache's
    :class:`~repro.cpu.tracetemplate.TemplateCacheStats`.  All
    instruments are source-backed, so one registry stays accurate across
    ``reset_timing()`` and repeated queries.
    """
    registry = MetricsRegistry()
    system = db.memory.name
    base = {"system": system}
    for channel, ctrl in enumerate(db.memory.controllers):
        labels = {"system": system, "channel": channel}
        bind_stats(registry, (lambda c=ctrl: c.stats), "memory", labels)
        for orientation, field_name in (
            ("row", "row_oriented"), ("column", "col_oriented"), ("gather", "gathers")
        ):
            registry.counter(
                "memory.oriented",
                labels={**labels, "orientation": orientation},
                source=(lambda c=ctrl, f=field_name: getattr(c.stats, f)),
            )
        for bank in range(len(ctrl.banks)):
            registry.gauge(
                "memory.bank_queue_depth",
                labels={**labels, "bank": bank},
                source=(lambda c=ctrl, b=bank: len(c.read_queues[b])
                        + len(c.write_queues[b])),
            )
    for index, level in enumerate(db.hierarchy.levels):
        bind_stats(
            registry,
            (lambda d=db, i=index: d.hierarchy.levels[i].stats),
            "cache",
            {**base, "level": level.name},
        )
    if db.hierarchy.synonym is not None:
        bind_stats(
            registry,
            (lambda d=db: d.hierarchy.synonym.stats),
            "synonym",
            base,
        )
    if getattr(db, "template_cache", None) is not None:
        bind_stats(
            registry,
            (lambda d=db: d.template_cache.stats),
            "template_cache",
            base,
        )
    return registry
