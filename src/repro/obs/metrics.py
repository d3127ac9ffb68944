"""Counters, gauges, and fixed-bucket histograms for the RPC stack.

A :class:`MetricsRegistry` is a flat namespace of named instruments,
optionally refined by labels (``registry.counter("faults.injected",
kind="drop")``).  Instruments are created on first use and live for
the registry's lifetime.  Cold sites get-or-create by name; the
per-call paths go through ``registry.cells[key]``, which resolves a
static ``(kind, name, (label, value), ...)`` key once per registry.

Concurrency model: every instrument of a registry updates under that
registry's one :attr:`~MetricsRegistry.lock`, so counts are exact
under threaded servers.  ``inc``/``set``/``observe`` take it
themselves; a per-call *fold* takes it once and applies all of the
call's updates as plain stores (``cell.value += n``,
``histogram.fold(v)``) — spelled ``acquire()`` / ``try`` / ``finally:
release()``, a quarter of what ``with`` costs on a lock in CPython
3.11.  The *disabled* stack never reaches an instrument at all (every
call site is behind a single ``if obs.enabled`` check — see
:mod:`repro.obs`).  ``collect()`` snapshots each instrument exactly
but not all of them at once: the skew is at most the calls in flight.

Everything here is exported by :mod:`repro.obs`; the instrument
*names* used by the stack are declared in :mod:`repro.obs.catalog`
and documented in ``docs/OBSERVABILITY.md``.
"""

import threading
from bisect import bisect_left

#: Default latency bucket upper edges, in seconds.  Chosen around the
#: loopback RPC regime this repo measures: tens of microseconds for
#: the fast path through seconds for retransmitted calls under loss.
DEFAULT_LATENCY_BUCKETS_S = (
    25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
    1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
    1.0, 2.5,
)


def format_labels(labels):
    """Render a label dict as the canonical ``{k=v,...}`` suffix."""
    if not labels:
        return ""
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing count; ``value`` is written only by
    :meth:`inc` and by a fold that holds the registry's lock."""

    kind = "counter"
    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name, labels=None, lock=None):
        self.name = name
        self.labels = dict(labels or {})
        self.value = 0
        self._lock = lock or threading.Lock()

    def inc(self, amount=1):
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self._lock.acquire()
        try:
            self.value += amount
        finally:
            self._lock.release()

    def reset(self):
        with self._lock:
            self.value = 0

    def snapshot(self):
        return self.value

    def __repr__(self):
        return (f"Counter({self.name}{format_labels(self.labels)}"
                f"={self.value})")


class Gauge:
    """A value that can go up and down (pool depth, cache entries)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name, labels=None, lock=None):
        self.name = name
        self.labels = dict(labels or {})
        self.value = 0
        self._lock = lock or threading.Lock()

    def set(self, value):
        with self._lock:
            self.value = value

    def inc(self, amount=1):
        with self._lock:
            self.value += amount

    def dec(self, amount=1):
        with self._lock:
            self.value -= amount

    def reset(self):
        with self._lock:
            self.value = 0

    def snapshot(self):
        return self.value

    def __repr__(self):
        return (f"Gauge({self.name}{format_labels(self.labels)}"
                f"={self.value})")


class Histogram:
    """A fixed-bucket histogram (cumulative-style buckets).

    ``buckets`` are the finite upper edges, ascending; an implicit
    +inf bucket catches the overflow.  ``observe(v)`` increments the
    first bucket whose edge is >= v, plus ``count``/``sum`` — the
    snapshot reports *cumulative* per-bucket counts like Prometheus,
    so ``counts[i]`` is "observations <= edge i".
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "buckets", "_counts", "_sum", "_lock")

    def __init__(self, name, buckets=DEFAULT_LATENCY_BUCKETS_S, labels=None,
                 lock=None):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.name = name
        self.labels = dict(labels or {})
        self.buckets = tuple(float(edge) for edge in buckets)
        self._counts = [0] * (len(self.buckets) + 1)  # +1: the +inf bucket
        self._sum = 0.0
        self._lock = lock or threading.Lock()

    def observe(self, value):
        with self._lock:
            self.fold(value)

    def fold(self, value):
        """``observe`` for a caller that holds the registry's lock."""
        self._counts[bisect_left(self.buckets, value)] += 1
        self._sum += value

    @property
    def count(self):
        return sum(self._counts)

    @property
    def sum(self):
        return self._sum

    def reset(self):
        with self._lock:
            self._counts = [0] * (len(self.buckets) + 1)
            self._sum = 0.0

    def quantile(self, fraction):
        """Approximate quantile: the upper edge of the bucket holding
        the ``fraction``-th observation (None when empty; the +inf
        bucket reports the last finite edge)."""
        with self._lock:
            total = sum(self._counts)
            if not total:
                return None
            target = fraction * total
            seen = 0
            for i, bucket_count in enumerate(self._counts):
                seen += bucket_count
                if seen >= target:
                    return self.buckets[min(i, len(self.buckets) - 1)]
        return self.buckets[-1]

    def snapshot(self):
        with self._lock:
            cumulative = []
            running = 0
            for bucket_count in self._counts:
                running += bucket_count
                cumulative.append(running)
            return {
                "buckets": list(self.buckets),
                "cumulative_counts": cumulative,
                "count": running,
                "sum": self._sum,
            }

    def __repr__(self):
        return (f"Histogram({self.name}{format_labels(self.labels)},"
                f" count={self.count})")


class _Cells(dict):
    """``cells[key]``: the instrument a static key names, get-or-created
    on the first probe, a dict hit from then on."""

    def __init__(self, registry):
        self._registry = registry

    def __missing__(self, key):
        kind, name, *labels = key
        cell = self[key] = getattr(self._registry, kind)(name, **dict(labels))
        return cell


class MetricsRegistry:
    """A named family of instruments with get-or-create semantics.

    ``counter``/``gauge``/``histogram`` return the instrument for
    ``(name, labels)``, creating it on first use; asking for the same
    name with a different instrument kind is an error (it would make
    ``collect()`` ambiguous).

    ``cells[kind, name, (label, value), ...]`` is the same instrument,
    resolved once: what the per-call folds use.  Cells belong to their
    registry, so swapping ``obs.registry`` re-binds every fold.
    """

    def __init__(self):
        self._instruments = {}
        self._lock = threading.Lock()
        #: every instrument here updates under it; a fold holds it
        self.lock = threading.Lock()
        self.cells = _Cells(self)

    def _get(self, cls, name, labels, **kwargs):
        key = (name, tuple(sorted(labels.items())))
        instrument = self._instruments.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(key)
                if instrument is None:
                    instrument = cls(name, labels=labels, lock=self.lock,
                                     **kwargs)
                    self._instruments[key] = instrument
        if not isinstance(instrument, cls):
            raise TypeError(
                f"{name} already registered as {instrument.kind},"
                f" not {cls.kind}"
            )
        return instrument

    def counter(self, name, **labels):
        return self._get(Counter, name, labels)

    def gauge(self, name, **labels):
        return self._get(Gauge, name, labels)

    def histogram(self, name, buckets=DEFAULT_LATENCY_BUCKETS_S, **labels):
        return self._get(Histogram, name, labels, buckets=buckets)

    def __iter__(self):
        with self._lock:
            return iter(list(self._instruments.values()))

    def __len__(self):
        with self._lock:
            return len(self._instruments)

    def reset(self):
        """Zero every instrument in place (references stay valid)."""
        for instrument in self:
            instrument.reset()

    def collect(self):
        """A JSON-able snapshot: ``{counters: {...}, gauges: {...},
        histograms: {...}}`` keyed by ``name{labels}``."""
        snapshot = {"counters": {}, "gauges": {}, "histograms": {}}
        for instrument in self:
            key = instrument.name + format_labels(instrument.labels)
            snapshot[instrument.kind + "s"][key] = instrument.snapshot()
        return snapshot
