"""``repro.obs`` — zero-dependency tracing + metrics for the RPC stack.

The paper's argument is quantitative: it *measures* where the Sun RPC
micro-layer stack spends its time and specializes accordingly.  This
package is the live stack's measuring instrument — per-call trace
spans (:mod:`repro.obs.trace`) and stack-wide counters/gauges/
histograms (:mod:`repro.obs.metrics`) threaded through the clients,
the servers, the fast path, the DRC, the fault injectors, and the
specialization cache.  The online-specialization follow-up work
(PAPERS.md) treats exactly this kind of runtime observation as the
input that drives specialization decisions.

Design rules:

* **Disabled is free(ish).**  Every call site in the hot path is a
  single ``if obs.enabled:`` test of this module's flag; no
  instrument, span, or label dict is touched when it is False (the
  default).
* **Enabled costs one fold per call.**  The names and labels a call
  touches are static, only the amounts are not: the dispatch spine
  and the DRC write what happened into one slotted record, the client
  engine into the call's ``CallStats``, and each side folds its
  record once, under one round of ``registry.lock``, into cells
  resolved once per registry (``registry.cells[key]``).  No per-call
  path get-or-creates an instrument (lint: ``obs-lookup-on-call-path``;
  CI bounds the ledger's ``obs.metrics_on_overhead_pct``).
* **One registry, one tracer.**  ``obs.registry`` and ``obs.tracer``
  are process-global; tests swap/reset them via :func:`reset`.
* **Everything emitted is documented.**  Instrument and span names
  live in :mod:`repro.obs.catalog` and ``docs/OBSERVABILITY.md``; a
  test fails if the stack emits an undeclared name.

Knobs (see also docs/OBSERVABILITY.md and docs/OPERATIONS.md):

* ``REPRO_OBS=1`` — enable metrics at import.
* ``REPRO_TRACE=1`` — enable metrics *and* tracing at import; spans go
  to ``REPRO_TRACE_FILE`` (default ``rpc-trace.jsonl``) as JSON-lines.
* API: :func:`enable` / :func:`disable` / :func:`reset`.
"""

import os

from repro.obs.metrics import (  # noqa: F401  (re-exports)
    Counter,
    DEFAULT_LATENCY_BUCKETS_S,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import (  # noqa: F401  (re-exports)
    JsonLinesSink,
    MemorySink,
    Span,
    Tracer,
    TraceSink,
    load_trace,
    summarize_spans,
)

#: THE module flag.  Hot paths test this and nothing else; everything
#: below this ``if`` is allowed to cost something.
enabled = False

#: default trace destination when tracing is enabled without a path.
DEFAULT_TRACE_FILE = "rpc-trace.jsonl"

registry = MetricsRegistry()
tracer = Tracer()


# -- instrument accessors (thin veneers over the global registry) --------

def counter(name, **labels):
    return registry.counter(name, **labels)


def gauge(name, **labels):
    return registry.gauge(name, **labels)


def histogram(name, buckets=DEFAULT_LATENCY_BUCKETS_S, **labels):
    return registry.histogram(name, buckets=buckets, **labels)


def span(name, **fields):
    """A new root span, or None when no trace sink is attached.

    Instrumented code holds the result and guards child-span calls
    with ``if span is not None`` — metrics-only operation therefore
    constructs no span objects at all.
    """
    return tracer.start(name, **fields)


def collect():
    """A JSON-able snapshot of every instrument (see
    :meth:`~repro.obs.metrics.MetricsRegistry.collect`)."""
    return registry.collect()


# -- switches ------------------------------------------------------------

def enable(trace=False, trace_file=None, sink=None):
    """Turn instrumentation on.

    ``enable()`` alone enables metrics.  ``trace=True`` (or passing
    ``trace_file``/``sink``) also attaches a trace sink: ``sink`` if
    given, else a :class:`JsonLinesSink` on ``trace_file`` (default
    :data:`DEFAULT_TRACE_FILE`).  Returns the attached sink (or None).
    """
    global enabled
    enabled = True
    attached = None
    if sink is not None:
        attached = tracer.add_sink(sink)
    elif trace or trace_file is not None:
        attached = tracer.add_sink(
            JsonLinesSink(trace_file or DEFAULT_TRACE_FILE)
        )
    return attached


def disable():
    """Turn instrumentation off and detach (close) every trace sink.

    Metric values are kept — :func:`collect` still reports the counts
    accumulated while enabled; use :func:`reset` to zero them.
    """
    global enabled
    enabled = False
    tracer.clear_sinks()


def reset():
    """Zero all metrics and drop buffered spans from memory sinks.

    Instrument references stay valid (values are reset in place), so
    long-lived objects holding instruments keep working.
    """
    registry.reset()
    for attached in tracer.sinks:
        if isinstance(attached, MemorySink):
            attached.clear()


def configure_from_env(environ=None):
    """Apply the ``REPRO_OBS`` / ``REPRO_TRACE`` / ``REPRO_TRACE_FILE``
    environment knobs; called once at import."""
    environ = os.environ if environ is None else environ
    truthy = ("1", "true", "yes", "on")
    want_trace = environ.get("REPRO_TRACE", "").lower() in truthy
    trace_file = environ.get("REPRO_TRACE_FILE")
    if want_trace or trace_file:
        enable(trace=True, trace_file=trace_file)
    elif environ.get("REPRO_OBS", "").lower() in truthy:
        enable()


configure_from_env()
