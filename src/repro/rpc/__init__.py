"""Sun RPC (RFC 1057) — protocol engine, transports, and portmapper.

A working pure-Python Sun RPC stack structured like the 1984 sources:

* :mod:`repro.rpc.message` — call/reply message headers;
* :mod:`repro.rpc.auth` — AUTH_NONE / AUTH_SYS credentials;
* :mod:`repro.rpc.client` + :mod:`repro.rpc.clnt_core` — message
  building and the one client engine (xids in flight, deadlines,
  retransmission, retry budget, per-call stats);
  :mod:`repro.rpc.clnt_udp` / :mod:`repro.rpc.clnt_tcp` — its two
  socket transports; :mod:`repro.rpc.mux` — the same two classes with
  a window of 64 (``MuxUdpClient`` / ``MuxTcpClient``);
* :mod:`repro.rpc.server` + :mod:`repro.rpc.svc_core` — service
  dispatch and the one server core (admission, shedding, drain,
  lifecycle); :mod:`repro.rpc.svc_udp` / :mod:`repro.rpc.svc_tcp` /
  :mod:`repro.rpc.svc_mux` — its three socket loops;
* :mod:`repro.rpc.pmap` — the portmapper (program 100000);
* :mod:`repro.rpc.resilience` — deadlines, circuit breaking,
  multi-endpoint failover, overload control, graceful drain;
* :mod:`repro.rpc.overload` — end-to-end overload control: deadline
  propagation (doomed-work drops), retry budgets, hedged-request
  triggers, and CoDel-style adaptive queue management;
* :mod:`repro.rpc.durable` — DRC persistence: a write-ahead journal
  + compacted snapshots that make at-most-once hold across restarts;
* :mod:`repro.rpc.fleet` — DRC replication (incarnation-fenced
  anti-entropy) and fleet membership (heartbeats, liveness-based
  endpoint lists feeding :class:`FailoverClient`).

Marshaling is pluggable per call: the generic path uses the
:mod:`repro.xdr` micro-layers, the optimized path plugs in marshalers
compiled from Tempo residual programs (:mod:`repro.specialized`).
"""

from repro import lazy_exports

__getattr__ = lazy_exports(__name__, {
    "auth": "AUTH_NONE AUTH_SYS OpaqueAuth make_auth_none make_auth_sys",
    "clnt_core": "CallStats PendingCall",
    "clnt_tcp": "TcpClient",
    "clnt_udp": "UdpClient",
    "drc": "DuplicateRequestCache",
    "durable": "DrcJournal attach_journal",
    "fastpath": "CallHeaderTemplate ReplyHeaderTemplate",
    "faults": "FaultPlan FaultySocket",
    "fleet": "DrcReplicator FleetDirectory FleetMember FleetWatcher"
             " Membership install_replication_sink",
    "message": "RPC_VERSION",
    "mux": "MuxTcpClient MuxUdpClient",
    "overload": "CodelQueue HedgeTrigger RetryBudget make_deadline_cred"
                " propagation_enabled remaining_from_cred stamp_deadline",
    "resilience": "CallerQuota CircuitBreaker Deadline FailoverClient"
                  " HEALTH_PROG HEALTH_PROC_STATUS HEALTH_VERS"
                  " InflightLimiter STATUS_DRAINING STATUS_SERVING"
                  " TokenBucket WorkerPool",
    "server": "SvcRegistry rpc_service",
    "svc_mux": "MuxTcpServer MuxUdpServer",
    "svc_tcp": "TcpServer",
    "svc_udp": "UdpServer",
})

__all__ = [
    "AUTH_NONE",
    "AUTH_SYS",
    "CallHeaderTemplate",
    "CallStats",
    "CallerQuota",
    "CircuitBreaker",
    "CodelQueue",
    "Deadline",
    "DrcJournal",
    "DrcReplicator",
    "DuplicateRequestCache",
    "FailoverClient",
    "FleetDirectory",
    "FleetMember",
    "FleetWatcher",
    "Membership",
    "TokenBucket",
    "attach_journal",
    "install_replication_sink",
    "FaultPlan",
    "FaultySocket",
    "HEALTH_PROG",
    "HEALTH_PROC_STATUS",
    "HEALTH_VERS",
    "HedgeTrigger",
    "InflightLimiter",
    "MuxTcpClient",
    "MuxTcpServer",
    "MuxUdpClient",
    "MuxUdpServer",
    "PendingCall",
    "RetryBudget",
    "STATUS_DRAINING",
    "STATUS_SERVING",
    "WorkerPool",
    "make_deadline_cred",
    "propagation_enabled",
    "remaining_from_cred",
    "stamp_deadline",
    "OpaqueAuth",
    "make_auth_none",
    "make_auth_sys",
    "ReplyHeaderTemplate",
    "RPC_VERSION",
    "SvcRegistry",
    "rpc_service",
    "TcpClient",
    "TcpServer",
    "UdpClient",
    "UdpServer",
]
