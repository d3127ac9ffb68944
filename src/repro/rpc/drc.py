"""Duplicate-request reply cache (DRC).

Sun RPC over UDP is at-least-once: a client whose reply datagram was
lost retransmits the same xid, and a naive server re-executes the
handler — visible (and wrong) for non-idempotent procedures, and pure
waste for idempotent ones.  The classic fix (Juszczak, USENIX '89;
the plan9port ``libsunrpc`` exemplar leaves it as "for now, no reply
cache") is a bounded cache of recent replies keyed by the request
identity: a retransmission is answered by *replaying the recorded
reply bytes* instead of re-running the handler, upgrading the
observable semantics toward at-most-once.

:class:`DuplicateRequestCache` is that cache: a thread-safe LRU keyed
on ``(xid, caller address, prog, vers, proc)``.  Values are the raw
reply messages as immutable ``bytes`` — callers must never hand in a
view of pool-owned memory (the dispatcher's reply buffers are reused
per call; :meth:`put` defends by copying anything that is not already
``bytes``).
"""

import threading
from collections import OrderedDict

from repro import obs as _obs


#: placeholder value for a request whose handler is currently running
#: (claimed but not yet answered) — never returned as a reply.
_IN_PROGRESS = object()


class DuplicateRequestCache:
    """A bounded LRU of raw replies keyed by request identity."""

    def __init__(self, capacity=256):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries = OrderedDict()
        self._lock = threading.Lock()
        #: replayed retransmissions (the handler was *not* re-run)
        self.hits = 0
        #: first-sighting requests
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        #: duplicates dropped because the original was still executing
        #: (a worker pool can hold the original and a retransmission
        #: concurrently; :meth:`begin` lets exactly one run the handler)
        self.in_progress_drops = 0
        #: replies inserted by :meth:`absorb` (replication, recovery) —
        #: counted apart from :attr:`stores` so "stores == handler
        #: executions" stays provable on a replicated fleet
        self.absorbed = 0
        #: optional ``callback(key, reply)`` fired after each handler-
        #: produced :meth:`put` (never for absorbs, so a replicated
        #: entry cannot echo back out through the replicator)
        self.on_store = None

    @staticmethod
    def key(xid, caller, prog, vers, proc):
        """The cache key for one request.

        ``caller`` is the transport-level peer identity — the UDP
        source ``(host, port)`` or the TCP peer name.  Two clients
        behind the same xid never collide because their source
        addresses differ.
        """
        return (xid, caller, prog, vers, proc)

    def get(self, key, rec=None):
        """The cached raw reply for ``key``, or None (counts a miss).

        A read-only lookup for tests and tools — dispatch goes through
        :meth:`begin`.  A key whose handler is still executing (claimed
        but not yet answered) reads as a miss.  Like :meth:`begin` and
        :meth:`put` it reports to observability only through ``rec``.
        """
        with self._lock:
            reply = self._entries.get(key)
            if reply is None or reply is _IN_PROGRESS:
                reply = None
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
        if rec is not None:
            rec.drc_hit = reply is not None
        return reply

    def begin(self, key, rec=None):
        """Look up ``key`` and, on a first sighting, atomically claim it
        for execution — one lock round-trip.

        Closes the check-then-execute race a worker pool opens: the
        original request and a retransmission of the same xid can sit
        in the queue together, and only the claim owner may run the
        handler.  The dispatch spine calls this once per request:

        * ``True`` — first sighting; the caller owns the key, must run
          the handler and :meth:`put` (or :meth:`abandon`) the result;
        * ``False`` — the original is still executing; the caller must
          drop the request (the client retransmits and is answered
          from the cache);
        * ``bytes`` — answered already; replay.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:  # the common case: claimed, a miss
                self._entries[key] = _IN_PROGRESS
                self.misses += 1
                if rec is not None:
                    rec.drc_hit = False
                return True
            if entry is _IN_PROGRESS:
                self.in_progress_drops += 1
                self.misses += 1
                result = False
            else:
                self._entries.move_to_end(key)
                self.hits += 1
                result = entry
        if rec is not None:
            rec.drc_hit = result is not False
        return result

    def abandon(self, key):
        """Release an unanswered claim (the dispatch died before
        producing a reply) so a retransmission can execute."""
        with self._lock:
            if self._entries.get(key) is _IN_PROGRESS:
                del self._entries[key]

    def put(self, key, reply, rec=None):
        """Record the reply sent for ``key``.

        ``reply`` is copied to immutable ``bytes`` unless it already is
        — cached replies must outlive the dispatcher's pooled reply
        buffers.
        """
        if not isinstance(reply, bytes):
            reply = bytes(reply)
        with self._lock:
            entries = self._entries
            entries[key] = reply
            entries.move_to_end(key)
            self.stores += 1
            if len(entries) <= self.capacity:
                evicted = 0
            else:  # at capacity: the oldest entry goes, in O(1)
                old_key, old_value = entries.popitem(False)
                if old_value is _IN_PROGRESS or len(entries) > self.capacity:
                    # a live claim, or more to evict: back, for the scan
                    entries[old_key] = old_value
                    entries.move_to_end(old_key, False)
                    evicted = self._evict_over_capacity()
                else:
                    self.evictions += 1
                    evicted = 1
            if rec is not None:
                rec.evicted = evicted
                rec.entries = len(entries)
        if self.on_store is not None:
            self.on_store(key, reply)

    def _evict_over_capacity(self):
        """Lock held by caller: evict least-recently-used *answered*
        entries past capacity; a claimed key must survive until its
        owner calls put/abandon, or the single-execution guarantee
        breaks.  Returns the eviction count."""
        evicted = 0
        scanned = 0
        while len(self._entries) > self.capacity:
            if scanned >= len(self._entries):
                break
            old_key, old_value = self._entries.popitem(last=False)
            if old_value is _IN_PROGRESS:
                self._entries[old_key] = old_value
                self._entries.move_to_end(old_key)
                scanned += 1
                continue
            self.evictions += 1
            evicted += 1
        return evicted

    def absorb(self, key, reply):
        """Insert a reply produced *elsewhere* — by a replicating peer
        or by journal recovery — without counting it as a store.

        A key already present (answered or claimed) wins over the
        absorbed copy: the local protocol state is authoritative.
        Returns True when the entry was inserted.
        """
        if not isinstance(reply, bytes):
            reply = bytes(reply)
        with self._lock:
            if key in self._entries:
                return False
            self._entries[key] = reply
            self.absorbed += 1
            evicted = self._evict_over_capacity()
            entries = len(self._entries)
        if _obs.enabled:
            _obs.registry.counter("rpc.drc.absorbed").inc()
            if evicted:
                _obs.registry.counter("rpc.drc.evictions").inc(evicted)
            _obs.registry.gauge("rpc.drc.entries").set(entries)
        return True

    def snapshot_entries(self):
        """A point-in-time list of every *answered* ``(key, reply)``.

        Claimed-but-unanswered keys are skipped — a claim is protocol
        state of one incarnation, not a durable fact.  Used by journal
        compaction (:mod:`repro.rpc.durable`) and replication catch-up
        (:mod:`repro.rpc.fleet`).
        """
        with self._lock:
            return [(key, value) for key, value in self._entries.items()
                    if value is not _IN_PROGRESS]

    def clear(self):
        with self._lock:
            self._entries.clear()

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def __contains__(self, key):
        with self._lock:
            return key in self._entries

    def summary(self):
        """Counters for reports and tests."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "evictions": self.evictions,
                "in_progress_drops": self.in_progress_drops,
                "absorbed": self.absorbed,
            }

    def __repr__(self):
        return (
            f"DuplicateRequestCache(capacity={self.capacity},"
            f" entries={len(self)}, hits={self.hits})"
        )
