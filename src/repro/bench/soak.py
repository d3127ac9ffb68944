"""What every soak (``faults``, ``chaos``, ``cluster``, ``overload``)
checks or measures the same way, written once."""

import json
import logging
import threading

from repro.errors import RpcError
from repro.rpc import HEALTH_PROC_STATUS, HEALTH_PROG, HEALTH_VERS, UdpClient
from repro.xdr import xdr_u_long


def uniqueness_violations(handlers_invoked, drc, entries=None):
    """The at-most-once proof over one server incarnation's counters.

    ``drc`` is that incarnation's ``DuplicateRequestCache.summary()``.
    Every handler run stores exactly one reply, so ``handlers_invoked
    == stores`` says no retransmission, queued duplicate or hedge ever
    re-ran a handler; it is exact only while nothing was evicted.
    ``entries`` is the cache's length when every entry in it was stored
    by this incarnation — then ``stores == entries`` says no xid was
    answered twice.  A cluster node's cache also holds recovered and
    replicated replies, so it passes None.
    """
    found = []
    stores = drc["stores"]
    if handlers_invoked != stores:
        found.append(
            f"handlers_invoked={handlers_invoked} != drc stores={stores}"
        )
    if drc["evictions"]:
        found.append(
            f"drc evicted {drc['evictions']} entries — uniqueness proof"
            f" lost"
        )
    elif entries is not None and stores != entries:
        found.append(
            f"drc stores={stores} != entries={entries}: some xid was"
            f" answered twice"
        )
    return found


class TracebackWatch:
    """Captures anything that would have printed a stack trace: uncaught
    thread exceptions and ERROR-level log records from the stack."""

    def __init__(self):
        self.thread_exceptions = []
        self.error_logs = []
        self._prev_hook = None
        self._handler = None

    def __enter__(self):
        self._prev_hook = threading.excepthook
        threading.excepthook = self._on_thread_exception
        watch = self

        class _Capture(logging.Handler):
            def emit(self, record):
                watch.error_logs.append(
                    f"{record.name}: {record.getMessage()}"
                )

        self._handler = _Capture(level=logging.ERROR)
        logging.getLogger("repro").addHandler(self._handler)
        return self

    def _on_thread_exception(self, args):
        self.thread_exceptions.append(
            f"{args.thread.name if args.thread else '?'}:"
            f" {args.exc_type.__name__}: {args.exc_value}"
        )

    def __exit__(self, *exc_info):
        threading.excepthook = self._prev_hook
        logging.getLogger("repro").removeHandler(self._handler)
        return False

    @property
    def escaped(self):
        """Everything caught, thread exceptions first."""
        return self.thread_exceptions + self.error_logs


def health_of(port, deadline=2.0):
    """Direct health probe of one replica (STATUS_* or an error name)."""
    client = UdpClient("127.0.0.1", port, HEALTH_PROG, HEALTH_VERS,
                       timeout=deadline, wait=0.05, jitter=0.0)
    try:
        return client.call(HEALTH_PROC_STATUS, xdr_res=xdr_u_long)
    except RpcError as exc:
        return type(exc).__name__
    finally:
        client.close()


def percentile(sorted_values, fraction):
    if not sorted_values:
        return 0.0
    index = min(int(fraction * len(sorted_values)),
                len(sorted_values) - 1)
    return sorted_values[index]


def finish(name, report, json_path):
    """Write a soak's JSON report, then fail loudly (``AssertionError``)
    on any violation it lists, so CI catches a regression."""
    if json_path:
        with open(json_path, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"\n[wrote {json_path}]")
    violations = report.get("violations")
    if violations:
        for violation in violations[:20]:
            print(f"VIOLATION: {violation}")
        raise AssertionError(
            f"{name} soak failed with {len(violations)} violation(s);"
            f" see {json_path or 'the violations above'}"
        )
    return report
