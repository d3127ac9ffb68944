"""The observability catalog: every instrument and span the stack emits.

This module is the single source of truth the documentation and the
tests check against: ``tests/obs/test_docs_catalog.py`` asserts that
(a) every name here is documented in ``docs/OBSERVABILITY.md`` and
(b) every instrument a live run actually produces is declared here —
so an undeclared, undocumented metric cannot ship silently.
"""

#: metric name -> (kind, labels, meaning).  Labels list the label
#: *keys* an instrument may be refined by ("" = unlabeled).
METRICS = {
    # -- client ----------------------------------------------------------
    "rpc.client.calls": (
        "counter", "transport, tier",
        "calls, by transport (udp/tcp) and dispatch tier"
        " (generic/fastpath/specialized); counted when the call ends,"
        " so it equals the call_latency_s count"),
    "rpc.client.attempts": (
        "counter", "transport",
        "datagrams/records sent including retransmissions"),
    "rpc.client.retransmissions": (
        "counter", "transport",
        "resends after a silent receive window (attempts - calls)"),
    "rpc.client.stale_replies": (
        "counter", "transport",
        "well-formed replies bearing another call's xid, discarded"),
    "rpc.client.garbage_datagrams": (
        "counter", "transport",
        "received payloads that failed header/body decode, discarded"),
    "rpc.client.timeouts": (
        "counter", "transport",
        "calls that exhausted their timeout budget"),
    "rpc.client.errors": (
        "counter", "transport, error",
        "calls that raised, by exception type"),
    "rpc.client.call_latency_s": (
        "histogram", "transport",
        "end-to-end call latency in seconds (success and failure)"),
    "rpc.client.deadline_exceeded": (
        "counter", "transport",
        "calls that exhausted their end-to-end deadline budget"
        " (raised RpcDeadlineExceeded)"),
    "rpc.client.failovers": (
        "counter", "",
        "successful calls that landed on a different endpoint than the"
        " previous one (FailoverClient endpoint switches)"),
    # -- overload control (repro.rpc.overload) ----------------------------
    "rpc.retry_budget.granted": (
        "counter", "",
        "retransmission/failover attempts the retry budget paid for"),
    "rpc.retry_budget.denied": (
        "counter", "",
        "retransmission/failover attempts refused by an empty retry"
        " budget (the call fails typed instead of amplifying load)"),
    "rpc.hedge.attempts": (
        "counter", "",
        "hedged requests issued (a second replica raced after the"
        " adaptive p95 trigger fired)"),
    "rpc.hedge.wins": (
        "counter", "winner",
        "settled hedged races, by which leg answered first"
        " (primary/hedge)"),
    "rpc.deadline.doomed": (
        "counter", "",
        "requests dropped before dispatch because their propagated"
        " deadline budget had already expired (doomed work)"),
    "rpc.queue.sojourn_s": (
        "histogram", "",
        "request queue wait (enqueue to dequeue) in seconds, per"
        " worker-pool pop"),
    "rpc.queue.sojourn_sheds": (
        "counter", "",
        "requests shed by the CoDel controller for sustained"
        " over-target sojourn times"),
    # -- circuit breaker -------------------------------------------------
    "rpc.breaker.transitions": (
        "counter", "to",
        "circuit-breaker state transitions, by destination state"
        " (closed/open/half_open)"),
    "rpc.breaker.rejections": (
        "counter", "",
        "calls refused locally by an open (or probe-exhausted"
        " half-open) breaker"),
    # -- server ----------------------------------------------------------
    "rpc.server.requests": (
        "counter", "",
        "call messages entering the dispatcher — exactly one per"
        " dispatch_bytes call on every tier"),
    "rpc.server.replies": (
        "counter", "outcome",
        "dispatch outcomes: success, drc_replay, prog_unavail,"
        " prog_mismatch, proc_unavail, garbage_args, system_err,"
        " rpc_mismatch, dropped, shed"),
    "rpc.server.sheds": (
        "counter", "reason",
        "requests answered with a SYSTEM_ERR shed reply, by reason"
        " (queue_full, draining, quota, sojourn)"),
    "rpc.server.queue_depth": (
        "gauge", "",
        "bounded request queue occupancy after the last enqueue"),
    "rpc.server.draining": (
        "gauge", "",
        "1 while the registry is in graceful-drain mode, else 0"),
    "rpc.server.drains": (
        "counter", "",
        "graceful drains initiated (begin_drain calls)"),
    "rpc.server.decode_defended": (
        "counter", "",
        "non-RpcError exceptions from malformed requests converted"
        " into drops/GARBAGE_ARGS/fallbacks by the defensive decode"),
    "rpc.server.handler_errors": (
        "counter", "",
        "handler invocations that raised (answered SYSTEM_ERR)"),
    "rpc.server.dispatch_latency_s": (
        "histogram", "",
        "dispatch_bytes latency in seconds, DRC replays included"),
    "rpc.server.fastpath_header_hits": (
        "counter", "",
        "call headers recognized by the fast-path slice compare"),
    "rpc.server.fastpath_fallbacks": (
        "counter", "",
        "fast-path-enabled dispatches that fell back to the generic"
        " header decoder"),
    "rpc.server.specialized_hits": (
        "counter", "",
        "requests answered by a residual route (pinned or promoted)"),
    "rpc.server.specialized_fallbacks": (
        "counter", "",
        "requests a residual route declined to the default body"),
    "rpc.server.datagrams": (
        "counter", "transport",
        "transport-level receive events (UDP datagrams handled)"),
    "rpc.server.connections": (
        "counter", "transport",
        "TCP connections accepted"),
    # -- concurrent call engine (mux) -------------------------------------
    "rpc.mux.calls": (
        "counter", "transport",
        "calls submitted through a mux client's call_async"),
    "rpc.mux.inflight": (
        "gauge", "transport",
        "xids currently in flight on a mux client (set on every"
        " submit/complete)"),
    "rpc.mux.batch_size": (
        "histogram", "transport, side",
        "messages coalesced per transmit flush (client) or per"
        " readiness wakeup (server); 1 = no batching happened"),
    "rpc.mux.wakeups": (
        "counter", "transport, side",
        "select returns of a windowed step (client) or of the event"
        " loop (server) — syscall pressure of the readiness loop"),
    "rpc.mux.unknown_xids": (
        "counter", "transport",
        "replies bearing an xid with no pending call (late retransmit"
        " answers, duplicates after completion), discarded"),
    # -- duplicate-request cache ----------------------------------------
    "rpc.drc.hits": (
        "counter", "",
        "retransmitted requests answered by replaying the cached reply"),
    "rpc.drc.misses": (
        "counter", "",
        "first-sighting requests (cache lookup found nothing)"),
    "rpc.drc.stores": (
        "counter", "",
        "replies recorded into the cache"),
    "rpc.drc.evictions": (
        "counter", "",
        "entries pushed out by the LRU capacity bound"),
    "rpc.drc.entries": (
        "gauge", "",
        "current number of cached replies"),
    "rpc.drc.absorbed": (
        "counter", "",
        "entries accepted from journal recovery or replication"
        " (first-wins; never overwrite local state, never re-fire"
        " on_store)"),
    # -- DRC persistence (journal + snapshot) -----------------------------
    "rpc.drc.journal.appends": (
        "counter", "",
        "handler-produced replies appended to the write-ahead journal"),
    "rpc.drc.journal.errors": (
        "counter", "",
        "journal append/compaction failures (durability degraded,"
        " dispatch unaffected)"),
    "rpc.drc.journal.fsyncs": (
        "counter", "",
        "fsync syscalls issued by the journal, per the fsync policy"),
    "rpc.drc.journal.compactions": (
        "counter", "",
        "snapshot rewrites that reset the journal tail"),
    "rpc.drc.journal.recoveries": (
        "counter", "",
        "recover_into runs at startup (one per journal attach)"),
    "rpc.drc.journal.recovered_entries": (
        "counter", "",
        "entries replayed from snapshot + journal into the cache"),
    "rpc.drc.journal.torn_bytes": (
        "counter", "",
        "bytes dropped as a torn/corrupt journal suffix during"
        " recovery"),
    # -- fleet: membership + DRC replication ------------------------------
    "rpc.fleet.registrations": (
        "counter", "",
        "member registrations accepted by a fleet directory"),
    "rpc.fleet.heartbeats": (
        "counter", "",
        "member heartbeats accepted by a fleet directory"),
    "rpc.fleet.expirations": (
        "counter", "",
        "members dropped for missing the liveness window"),
    "rpc.fleet.members": (
        "gauge", "",
        "registered members after the last directory operation"),
    "rpc.fleet.refreshes": (
        "counter", "",
        "fleet-watcher polls that changed a failover client's"
        " endpoint set"),
    "rpc.fleet.repl_pushes": (
        "counter", "",
        "replication batches delivered to a peer"),
    "rpc.fleet.repl_push_errors": (
        "counter", "",
        "replication batches a peer failed to acknowledge (dropped;"
        " anti-entropy catch-up or the peer's journal covers the gap)"),
    "rpc.fleet.repl_entries": (
        "counter", "",
        "DRC entries received in replication pushes (absorbed or"
        " skipped)"),
    "rpc.fleet.repl_fenced": (
        "counter", "",
        "replication pushes rejected whole for carrying a stale"
        " origin incarnation (zombie fencing)"),
    # -- per-caller quotas ------------------------------------------------
    "rpc.quota.admitted": (
        "counter", "",
        "calls that took a token from their caller's bucket"),
    "rpc.quota.sheds": (
        "counter", "",
        "calls denied by an empty caller bucket (answered SYSTEM_ERR,"
        " shed reason quota)"),
    "rpc.quota.callers": (
        "gauge", "",
        "caller buckets tracked in the quota LRU"),
    # -- fault injection -------------------------------------------------
    "faults.injected": (
        "counter", "kind",
        "faults applied by FaultPlan, by kind (drop/duplicate/reorder/"
        "delay/corrupt/truncate/skipped, plus the timed phases"
        " spike/partition)"),
    # -- online specialization (repro.specialized.online) -----------------
    "rpc.spec.online.observed": (
        "counter", "side",
        "calls the generic codec served, sampled by the dispatch/codec"
        " profilers (the evidence reviews are decided from; a call a"
        " residual answered is not sampled)"),
    "rpc.spec.online.hits": (
        "counter", "side",
        "calls a residual answered in a client codec table an online"
        " specializer manages (client only: a server route counts"
        " rpc.server.specialized_hits)"),
    "rpc.spec.online.violations": (
        "counter", "side",
        "client invariant-guard misses: calls of a size the codec's"
        " variant table does not hold, answered generically"),
    "rpc.spec.online.promotions": (
        "counter", "side",
        "procedures auto-specialized and hot-swapped into dispatch"),
    "rpc.spec.online.respecializations": (
        "counter", "side",
        "variants added to an uncovered table for a missed size that"
        " holds more than 1 - stable_fraction of its guarded calls"),
    "rpc.spec.online.evictions": (
        "counter", "side",
        "variants dropped: displaced from a full table by a size that"
        " missed more often than they hit, or idle while nothing"
        " missed was worth a variant"),
    "rpc.spec.online.demotions": (
        "counter", "side",
        "tables whose last variant was evicted (back to generic)"),
    "rpc.spec.online.skips": (
        "counter", "reason",
        "refused builds, by reason (unsupported, build_error,"
        " verify_failed)"),
    "rpc.spec.online.active": (
        "gauge", "side",
        "online routes/codecs currently holding a variant"),
    "rpc.spec.online.build_s": (
        "histogram", "",
        "background Tempo + compile time per online build, seconds"),
    # -- residual verification (repro.analysis.verify) --------------------
    "rpc.spec.verify.pass": (
        "counter", "kind",
        "residual codecs proved equivalent to the generic codec before"
        " installing (kind: client/server)"),
    "rpc.spec.verify.fail": (
        "counter", "kind, reason",
        "residual codecs rejected by the equivalence verifier, by"
        " finding rule (never installed; callers fall back to generic"
        " or rebuild)"),
    # -- specialization cache -------------------------------------------
    "spec.cache.hits": (
        "counter", "",
        "specializations served from the in-memory LRU"),
    "spec.cache.disk_hits": (
        "counter", "",
        "specializations revived from the on-disk tier (Tempo skipped)"),
    "spec.cache.misses": (
        "counter", "",
        "specializations built from scratch (full Tempo run)"),
}

#: span name -> meaning.  The per-span *fields* are documented in
#: docs/OBSERVABILITY.md; the common envelope (name/span/parent/trace/
#: ts/dur_us/tid) is emitted for every span.
SPANS = {
    "client.call": "one whole client call, root of the client's trace",
    "client.encode": "serializing the call message (header + body)",
    "client.send": "handing one attempt's bytes to the socket",
    "client.wait": "one attempt's receive window (UDP) or the reply"
                   " read loop (TCP)",
    "client.decode": "parsing one received payload against the"
                     " expected xid",
    "mux.flush": "one coalesced transmit by a windowed step"
                 " (fields: messages, bytes)",
    "server.dispatch": "one whole dispatch_bytes, root of the server's"
                       " trace",
    "server.drc_lookup": "duplicate-request cache probe",
    "server.decode_args": "unmarshaling the call arguments",
    "server.handler": "the registered handler's execution (default"
                      " body)",
    "server.encode_reply": "marshaling the reply header + results",
}

#: every label value the ``tier`` field/label may take.
TIERS = ("generic", "fastpath", "staged", "specialized")
