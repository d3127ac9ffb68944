"""Fleet tier tests: membership directory, DRC replication with
incarnation fencing, per-caller token-bucket quotas, and the failover
client's xid discipline over dynamic replica sets and mux transports.
"""

import socket
import threading
import time

import pytest

from repro.rpc import FailoverClient, FaultPlan, SvcRegistry, UdpServer
from repro.rpc.client import RpcClient
from repro.rpc.durable import encode_entry
from repro.rpc.fleet import (
    REPL_PROG,
    DrcReplicator,
    FleetDirectory,
    FleetMember,
    FleetWatcher,
    Membership,
    ReplicationSink,
    fleet_members,
    install_replication_sink,
)
from repro.rpc.pmap import IPPROTO_TCP, IPPROTO_UDP
from repro.rpc.resilience import CallerQuota, TokenBucket
from repro.xdr import xdr_u_long
from tests.rpc import test_dispatch_spine as spine
from tests.rpc.test_dispatch_spine import pipeline  # noqa: F401 (fixture)

PROG, VERS = 0x20006666, 1
CALLER = ("192.0.2.33", 900)


def make_registry(counter):
    registry = SvcRegistry()
    registry.enable_drc()

    def handler(value):
        counter.append(value)
        return value * 3

    registry.register(PROG, VERS, 1, handler, xdr_args=xdr_u_long,
                      xdr_res=xdr_u_long)
    return registry


def call_bytes(xid, value=5):
    return RpcClient(PROG, VERS).build_call(xid, 1, value, xdr_u_long)


def accept_stat(reply):
    """The accept_stat word of a fixed-size accepted reply."""
    return int.from_bytes(reply[20:24], "big")


def wait_until(predicate, timeout=5.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# -- membership directory ---------------------------------------------------

class TestFleetDirectory:
    def setup_method(self):
        self.now = [100.0]
        self.directory = FleetDirectory(liveness_s=2.0,
                                        clock=lambda: self.now[0])

    def member(self, member_id="m1", port=4001, incarnation=1,
               prot=IPPROTO_UDP):
        return Membership(member_id, PROG, VERS, prot, "127.0.0.1", port,
                          incarnation)

    def test_register_then_list(self):
        assert self.directory._register(self.member()) is True
        assert self.directory.live_members(PROG, VERS) == [
            ("127.0.0.1", 4001)
        ]
        # Wrong program: not listed.
        assert self.directory.live_members(PROG + 1, VERS) == []

    def test_liveness_window_expires_silent_members(self):
        self.directory._register(self.member("a", 4001))
        self.directory._register(self.member("b", 4002))
        self.now[0] += 1.5
        assert self.directory._heartbeat("a") is True
        self.now[0] += 1.0  # b is now 2.5s silent, a only 1.0s
        assert self.directory.live_members(PROG, VERS) == [
            ("127.0.0.1", 4001)
        ]
        assert self.directory.expirations == 1
        # An expired member's heartbeat answers False: re-register.
        assert self.directory._heartbeat("b") is False
        assert self.directory._register(self.member("b", 4002)) is True
        assert len(self.directory.live_members(PROG, VERS)) == 2

    def test_zombie_registration_is_fenced(self):
        self.directory._register(self.member(incarnation=3))
        assert self.directory._register(self.member(incarnation=2)) is False
        assert self.directory._register(self.member(incarnation=4)) is True

    def test_registration_takes_a_pmap_binding_first_wins(self):
        self.directory._register(self.member("a", 4001))
        self.directory._register(self.member("b", 4002))
        assert self.directory.pmap.bindings[
            (PROG, VERS, IPPROTO_UDP)] == 4001

    def test_protocol_filter_and_wildcard(self):
        self.directory._register(self.member("u", 4001, prot=IPPROTO_UDP))
        self.directory._register(self.member("t", 4002, prot=IPPROTO_TCP))
        assert self.directory.live_members(PROG, VERS,
                                           IPPROTO_TCP) == [
            ("127.0.0.1", 4002)
        ]
        assert len(self.directory.live_members(PROG, VERS, 0)) == 2


class TestFleetOverTheWire:
    def setup_method(self):
        self.directory = FleetDirectory(liveness_s=3.0)
        registry = SvcRegistry()
        self.directory.mount(registry)
        self.server = UdpServer(registry, drc=False)
        self.server.start()
        self.addr = ("127.0.0.1", self.server.port)

    def teardown_method(self):
        self.server.stop()

    def test_member_registers_and_heartbeats(self):
        member = FleetMember(
            self.addr,
            Membership("n1", PROG, VERS, IPPROTO_UDP, "127.0.0.1", 4242, 1),
            start=False,
        )
        try:
            assert member.register_once() is True
            assert fleet_members(self.addr, PROG, VERS) == [
                ("127.0.0.1", 4242)
            ]
            assert member.heartbeat_once() is True
        finally:
            member.stop()

    def test_heartbeat_reregisters_after_directory_amnesia(self):
        member = FleetMember(
            self.addr,
            Membership("n2", PROG, VERS, IPPROTO_UDP, "127.0.0.1", 4243, 1),
            start=False,
        )
        try:
            assert member.register_once() is True
            # The directory restarts (or expired us): forgets everyone.
            with self.directory._lock:
                self.directory._members.clear()
            assert member.heartbeat_once() is True  # re-registered
            assert fleet_members(self.addr, PROG, VERS) == [
                ("127.0.0.1", 4243)
            ]
        finally:
            member.stop()

    def test_watcher_feeds_failover_and_keeps_last_nonempty_view(self):
        failover = FailoverClient([("127.0.0.1", 1)], PROG, VERS)
        watcher = FleetWatcher(failover, self.addr, start=False)
        for port in (4301, 4302):
            self.directory._register(
                Membership(f"n{port}", PROG, VERS, IPPROTO_UDP,
                           "127.0.0.1", port, 1)
            )
        try:
            assert watcher.poll_once() is True
            assert failover.endpoints == [("127.0.0.1", 4301),
                                          ("127.0.0.1", 4302)]
            # An empty directory answer is never applied: a failover
            # client with zero endpoints could not recover.
            with self.directory._lock:
                self.directory._members.clear()
            assert watcher.poll_once() is False
            assert failover.endpoints == [("127.0.0.1", 4301),
                                          ("127.0.0.1", 4302)]
        finally:
            watcher.stop()
            failover.close()


# -- replication ------------------------------------------------------------

class TestReplicationSink:
    def _entry(self, xid, reply):
        key = (xid, CALLER, PROG, VERS, 1)
        return key, encode_entry(key, reply)

    def test_absorbed_entry_replays_byte_identically(self):
        invocations = []
        registry = make_registry(invocations)
        sink = install_replication_sink(registry)
        # The peer executed xid 31 for this caller; we absorb its reply.
        peer_counter = []
        peer = make_registry(peer_counter)
        reply = peer.dispatch_bytes(call_bytes(xid=31, value=7),
                                    caller=CALLER)
        key = (31, CALLER, PROG, VERS, 1)
        assert sink.push(("peer", 1, [encode_entry(key, reply)])) == 1
        # The duplicate landing here replays the peer's bytes without
        # ever invoking the local handler.
        assert registry.dispatch_bytes(call_bytes(xid=31, value=7),
                                       caller=CALLER) == reply
        assert invocations == []
        assert registry.drc.absorbed == 1

    def test_incarnation_fencing_rejects_zombie_pushes_whole(self):
        registry = make_registry([])
        sink = install_replication_sink(registry)
        _, blob3 = self._entry(1, b"from-inc-3")
        assert sink.push(("origin", 3, [blob3])) == 1
        _, blob2 = self._entry(2, b"from-zombie-inc-2")
        assert sink.push(("origin", 2, [blob2])) == 0
        assert sink.fenced == 1
        assert (2, CALLER, PROG, VERS, 1) not in registry.drc
        # Fences are per origin: another member's lower number is fine.
        assert sink.push(("other", 1, [self._entry(3, b"x")[1]])) == 1

    def test_undecodable_blobs_are_counted_not_fatal(self):
        registry = make_registry([])
        sink = install_replication_sink(registry)
        good_key, good = self._entry(4, b"good")
        assert sink.push(("o", 1, [b"\xff\x00garbage", good])) == 1
        assert sink.undecodable == 1
        assert registry.drc.get(good_key) == b"good"

    def test_local_entry_wins_over_replicated(self):
        invocations = []
        registry = make_registry(invocations)
        sink = install_replication_sink(registry)
        local = registry.dispatch_bytes(call_bytes(xid=5, value=2),
                                        caller=CALLER)
        key = (5, CALLER, PROG, VERS, 1)
        sink.push(("peer", 1, [encode_entry(key, b"imposter")]))
        assert registry.drc.get(key) == local

    def test_requires_a_drc(self):
        with pytest.raises(ValueError):
            install_replication_sink(SvcRegistry())


class TestDrcReplicator:
    def test_handler_reply_replays_on_the_peer(self):
        a_counter, b_counter = [], []
        registry_a = make_registry(a_counter)
        registry_b = make_registry(b_counter)
        install_replication_sink(registry_b)
        server_b = UdpServer(registry_b)
        server_b.start()
        replicator = DrcReplicator(
            registry_a.drc, [("127.0.0.1", server_b.port)], origin="a",
            incarnation=1, flush_interval_s=0.01,
        )
        server_a = UdpServer(registry_a)
        server_a.start()
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.settimeout(5.0)
        try:
            request = call_bytes(xid=77, value=6)
            sock.sendto(request, ("127.0.0.1", server_a.port))
            reply_a, _ = sock.recvfrom(4096)
            assert a_counter == [6]
            assert wait_until(
                lambda: registry_b.replication_sink.entries_absorbed >= 1
            )
            # Failover duplicate: same bytes, same socket, peer node —
            # replayed from the replicated entry, never re-executed.
            sock.sendto(request, ("127.0.0.1", server_b.port))
            reply_b, _ = sock.recvfrom(4096)
            assert reply_b == reply_a
            assert b_counter == []
        finally:
            sock.close()
            replicator.stop()
            server_a.stop()
            server_b.stop()

    def test_replication_replies_are_never_rereplicated(self):
        # The REPL program's own cached replies must not feed back into
        # the replication queue — that chatter would sustain itself
        # forever (push reply → store → push → ...).
        registry = make_registry([])
        replicator = DrcReplicator(
            registry.drc, [("127.0.0.1", 9)], origin="x",
            flush_interval_s=5.0, timeout=0.05,
        )
        try:
            drc = registry.drc
            repl_key = (1, CALLER, REPL_PROG, 1, 1)
            drc.begin(repl_key)
            drc.put(repl_key, b"push-reply")
            app_key = (2, CALLER, PROG, VERS, 1)
            drc.begin(app_key)
            drc.put(app_key, b"app-reply")
            # Only the application entry was offered to the peers.
            assert wait_until(
                lambda: replicator.entries_sent + replicator.dropped == 1
            )
            assert replicator.entries_sent == 1
        finally:
            replicator.stop(flush=False)

    def test_catch_up_seeds_recovered_entries(self):
        registry = make_registry([])
        registry.dispatch_bytes(call_bytes(xid=8, value=1), caller=CALLER)
        peer_registry = make_registry([])
        sink = install_replication_sink(peer_registry)
        server = UdpServer(peer_registry)
        server.start()
        replicator = DrcReplicator(
            registry.drc, [("127.0.0.1", server.port)], origin="a",
            flush_interval_s=0.01, catch_up=True,
        )
        try:
            assert wait_until(lambda: sink.entries_absorbed >= 1)
        finally:
            replicator.stop()
            server.stop()


# -- per-caller quotas ------------------------------------------------------

class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=2.0, burst=3.0, now=0.0)
        assert [bucket.try_take(0.0) for _ in range(4)] == [
            True, True, True, False
        ]
        assert bucket.try_take(0.5) is True   # 0.5s * 2/s = 1 token
        assert bucket.try_take(0.5) is False
        assert bucket.try_take(100.0) is True  # capped at burst, not 200


class TestCallerQuota:
    def test_per_host_identity_by_default(self):
        quota = CallerQuota(rate=1.0, burst=2.0, clock=lambda: 0.0)
        assert quota.admit(("10.0.0.1", 1111)) is True
        assert quota.admit(("10.0.0.1", 2222)) is True  # same bucket
        assert quota.admit(("10.0.0.1", 3333)) is False
        assert quota.admit(("10.0.0.2", 1111)) is True  # other host
        assert quota.summary()["shed"] == 1

    def test_custom_key_budgets_each_socket(self):
        quota = CallerQuota(rate=1.0, burst=1.0, clock=lambda: 0.0,
                            key=lambda caller: caller)
        assert quota.admit(("127.0.0.1", 1111)) is True
        assert quota.admit(("127.0.0.1", 2222)) is True

    def test_lru_eviction_bounds_memory(self):
        quota = CallerQuota(rate=1.0, burst=1.0, max_callers=2,
                            clock=lambda: 0.0)
        for host in ("a", "b", "c"):
            quota.admit((host, 1))
        summary = quota.summary()
        assert summary["callers"] == 2
        assert summary["evicted"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            CallerQuota(rate=0.0)
        with pytest.raises(ValueError):
            CallerQuota(rate=5.0, burst=0.5)


class TestQuotaDispatch:
    def _registry(self, counter, burst=3.0):
        registry = make_registry(counter)
        registry.install_quota(rate=1.0, burst=burst,
                               clock=lambda: 1000.0)
        return registry

    def test_staged_path_sheds_over_burst_and_exempts_replays(self):
        counter = []
        registry = self._registry(counter, burst=3.0)
        replies = [registry.dispatch_bytes(call_bytes(xid=i, value=i),
                                           caller=CALLER)
                   for i in range(5)]
        assert counter == [0, 1, 2]  # burst admitted ...
        assert [accept_stat(r) for r in replies] == [0, 0, 0, 5, 5]
        shed_before = registry.quota.summary()["shed"]
        # A DRC replay of an answered call is free: retransmissions
        # must never burn the caller's budget.
        assert registry.dispatch_bytes(call_bytes(xid=1, value=1),
                                       caller=CALLER) == replies[1]
        assert registry.quota.summary()["shed"] == shed_before
        # A shed call was never cached: the client's later retry (with
        # budget refilled) executes rather than replaying the error.
        assert (3, CALLER, PROG, VERS, 1) not in registry.drc

    @pytest.mark.parametrize("name", ["staged", "specialized", "online"])
    def test_route_tiers_shed_like_the_generic_registry(self, pipeline,  # noqa: F811
                                                        name):
        # the quota lives in the dispatch spine, so a route body —
        # staged, offline residual over a fallback, online-promoted —
        # cannot bypass it
        tier, generic = spine.Tier(name, pipeline), spine.Tier("generic",
                                                               pipeline)
        for each in (tier, generic):
            each.registry.install_quota(rate=1.0, burst=2.0,
                                        clock=lambda: 1000.0)
        requests = [spine.call_bytes(pipeline, xid) for xid in range(1, 7)]
        replies = [tier.dispatch(request) for request in requests]
        assert [accept_stat(r) for r in replies] == [0, 0, 5, 5, 5, 5]
        assert replies == [generic.dispatch(r) for r in requests]
        executions, stores, _hits, sheds, _doomed = tier.counts()
        assert (executions, stores, sheds) == (2, 2, 4)
        # a DRC replay is never charged ...
        shed_before = tier.registry.quota.summary()["shed"]
        assert tier.dispatch(requests[0]) == replies[0]
        assert tier.registry.quota.summary()["shed"] == shed_before
        # ... and a shed reply is never cached
        drc = tier.registry.drc
        assert drc.key(3, spine.CALLER, spine.PROG, spine.VERS,
                       spine.PROC) not in drc

    def test_generic_path_sheds_identically(self):
        counter = []
        registry = self._registry(counter, burst=2.0)
        registry.remove_route(PROG, VERS, 1)  # force the default body
        replies = [registry.dispatch_bytes(call_bytes(xid=i, value=i),
                                           caller=CALLER)
                   for i in range(4)]
        assert counter == [0, 1]
        assert [accept_stat(r) for r in replies] == [0, 0, 5, 5]
        assert registry.sheds >= 2

    def test_drain_exempt_programs_are_never_charged(self):
        registry = self._registry([], burst=1.0)
        registry.install_health()
        from repro.rpc.resilience import (
            HEALTH_PROC_STATUS,
            HEALTH_PROG,
            HEALTH_VERS,
        )
        health = RpcClient(HEALTH_PROG, HEALTH_VERS)
        for xid in range(5):  # way past burst, still all answered
            reply = registry.dispatch_bytes(
                health.build_call(xid, HEALTH_PROC_STATUS, None, None),
                caller=CALLER,
            )
            assert accept_stat(reply) == 0


# -- failover: dynamic endpoints + mux xid discipline -----------------------

class TestSetEndpoints:
    def _client(self):
        return FailoverClient([("127.0.0.1", 11), ("127.0.0.1", 12)],
                              PROG, VERS)

    def test_rejects_empty_and_dedupes(self):
        client = self._client()
        with pytest.raises(ValueError):
            client.set_endpoints([])
        assert client.set_endpoints([("127.0.0.1", 13),
                                     ("127.0.0.1", 13)]) is True
        assert client.endpoints == [("127.0.0.1", 13)]
        client.close()

    def test_unchanged_set_is_a_noop(self):
        client = self._client()
        assert client.set_endpoints(list(client.endpoints)) is False
        client.close()

    def test_retained_endpoints_keep_breaker_state(self):
        client = self._client()
        client.breakers[1].failures = 2
        survivor = client.breakers[1]
        client.set_endpoints([("127.0.0.1", 12), ("127.0.0.1", 14)])
        assert client.breakers[0] is survivor
        assert client.breakers[0].failures == 2
        client.close()

    def test_rotation_follows_the_current_endpoint(self):
        client = self._client()
        client._current = client._replicas[1]  # pinned to port 12
        client.set_endpoints([("127.0.0.1", 14), ("127.0.0.1", 12)])
        ring = client._rotation(client._current)
        assert ring[0].endpoint == ("127.0.0.1", 12)
        # ... and resets when the current endpoint departs.
        client.set_endpoints([("127.0.0.1", 15)])
        assert client._rotation(client._current)[0] is client._replicas[0]
        client.close()


class TestMuxFailoverXidDiscipline:
    """The satellite contract: mux transports behind FailoverClient,
    with the DRC-safe xid rules — a retransmission keeps its xid (the
    DRC coalesces it), a failover draws a fresh one (no accidental
    cross-server collision), and pipelined calls never share xids.
    """

    def test_pipelined_calls_with_loss_then_failover(self):
        a_counter, b_counter = [], []
        registry_a = make_registry(a_counter)
        registry_b = make_registry(b_counter)
        # Server A loses its first few replies: the mux client must
        # retransmit (same xid) and be answered from the DRC.
        server_a = UdpServer(registry_a,
                             fault_plan=FaultPlan(seed=7, drop=1.0,
                                                  max_faults=3))
        server_b = UdpServer(registry_b)
        server_a.start()
        server_b.start()
        client = FailoverClient(
            [("127.0.0.1", server_a.port), ("127.0.0.1", server_b.port)],
            PROG, VERS, transport="mux-udp", call_budget_s=10.0,
            timeout=2.0, wait=0.05, jitter=0.0,
        )
        results = {}
        lock = threading.Lock()

        def one_call(value):
            result = client.call(1, value, xdr_args=xdr_u_long,
                                 xdr_res=xdr_u_long)
            with lock:
                results[value] = result

        try:
            threads = [threading.Thread(target=one_call, args=(v,),
                                        daemon=True)
                       for v in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=15.0)
            assert results == {v: v * 3 for v in range(8)}
            # Retransmissions were coalesced, not re-executed: every
            # handler run on either server produced exactly one store.
            assert (registry_a.handlers_invoked
                    == registry_a.drc.summary()["stores"])
            assert registry_a.drc.hits >= 1  # a replay actually happened
            # Server A dies; pipelined calls fail over with fresh xids.
            server_a.stop()
            threads = [threading.Thread(target=one_call, args=(v,),
                                        daemon=True)
                       for v in range(8, 12)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=15.0)
            assert results == {v: v * 3 for v in range(12)}
            # Xid discipline: across both servers, every stored key has
            # a distinct xid — the shared counter never collides, even
            # across the failover boundary.
            xids = [key[0]
                    for registry in (registry_a, registry_b)
                    for key, _ in registry.drc.snapshot_entries()]
            assert len(xids) == len(set(xids))
        finally:
            client.close()
            server_b.stop()
            try:
                server_a.stop()
            except Exception:
                pass
