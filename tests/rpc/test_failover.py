"""Failover, deadline, and reconnect behavior against live loopback
servers: endpoint rotation, shared-xid discipline, breaker gating,
deadline budgets shared across the whole retry surface, and the TCP
reconnect path's span/pool hygiene."""

import threading
import time

import pytest

from repro import obs
from repro.errors import (
    RpcConnectionError,
    RpcDeadlineExceeded,
    RpcDeniedError,
    RpcTimeoutError,
)
from repro.rpc import (
    FailoverClient,
    STATUS_DRAINING,
    STATUS_SERVING,
    SvcRegistry,
    TcpClient,
    TcpServer,
    UdpClient,
    UdpServer,
)
from repro.xdr import xdr_u_long

PROG, VERS = 0x20006666, 1


def make_server(tag, workers=0):
    registry = SvcRegistry(fastpath=True)
    registry.enable_drc()
    registry.install_health()
    registry.register(PROG, VERS, 1, lambda v, tag=tag: v + tag,
                      xdr_args=xdr_u_long, xdr_res=xdr_u_long)
    server = UdpServer(registry, workers=workers)
    server.start()
    return server


def make_failover(servers, **kwargs):
    kwargs.setdefault("timeout", 0.3)
    kwargs.setdefault("wait", 0.01)
    kwargs.setdefault("jitter", 0.0)
    kwargs.setdefault("breaker_recovery_s", 0.2)
    return FailoverClient(
        [("127.0.0.1", server.port) for server in servers],
        PROG, VERS, transport="udp", **kwargs,
    )


class TestFailover:
    def test_calls_stick_to_a_healthy_endpoint(self):
        servers = [make_server(100), make_server(200)]
        try:
            with make_failover(servers) as client:
                values = {client.call(1, 1, xdr_args=xdr_u_long,
                                      xdr_res=xdr_u_long)
                          for _ in range(5)}
                assert len(values) == 1  # no gratuitous switching
                assert client.failovers == 0
        finally:
            for server in servers:
                server.stop()

    def test_failover_on_endpoint_death(self):
        servers = [make_server(100), make_server(200)]
        try:
            with make_failover(servers, call_budget_s=5.0) as client:
                first = client.call(1, 1, xdr_args=xdr_u_long,
                                    xdr_res=xdr_u_long)
                assert first == 101
                servers[0].stop()
                second = client.call(1, 1, xdr_args=xdr_u_long,
                                     xdr_res=xdr_u_long)
                assert second == 201
                assert client.failovers == 1
        finally:
            for server in servers:
                server.stop()

    def test_all_endpoints_dead_raises_within_deadline(self):
        servers = [make_server(100), make_server(200)]
        for server in servers:
            server.stop()
        with make_failover(servers, call_budget_s=0.8) as client:
            started = time.monotonic()
            with pytest.raises(RpcDeadlineExceeded):
                client.call(1, 1, xdr_args=xdr_u_long,
                            xdr_res=xdr_u_long)
            assert time.monotonic() - started < 0.8 + 0.5

    def test_no_deadline_means_one_rotation(self):
        servers = [make_server(100), make_server(200)]
        for server in servers:
            server.stop()
        with make_failover(servers) as client:
            with pytest.raises(RpcTimeoutError):
                client.call(1, 1, xdr_args=xdr_u_long,
                            xdr_res=xdr_u_long)

    def test_xids_are_shared_across_endpoints(self):
        servers = [make_server(100), make_server(200)]
        try:
            with make_failover(servers, call_budget_s=5.0) as client:
                client.call(1, 1, xdr_args=xdr_u_long,
                            xdr_res=xdr_u_long)
                first_client = client._current.client
                servers[client._replicas.index(client._current)].stop()
                client.call(1, 1, xdr_args=xdr_u_long,
                            xdr_res=xdr_u_long)
                second_client = client._current.client
                assert first_client is not second_client
                # Both draw from one counter: no xid is ever reused
                # for two different calls across endpoints.
                assert first_client._xids is second_client._xids
                assert first_client._xids is client._xids
        finally:
            for server in servers:
                server.stop()

    def test_breaker_opens_and_recovers(self):
        servers = [make_server(100), make_server(200)]
        try:
            with make_failover(servers, call_budget_s=5.0,
                               breaker_threshold=2) as client:
                client.call(1, 1, xdr_args=xdr_u_long,
                            xdr_res=xdr_u_long)
                dead = client._replicas.index(client._current)
                servers[dead].stop()
                # After one failover the client sticks to the healthy
                # endpoint; force the dead one to be retried so its
                # breaker accumulates failures and opens.
                for _ in range(2):
                    client._current = client._replicas[dead]
                    client.call(1, 1, xdr_args=xdr_u_long,
                                xdr_res=xdr_u_long)
                assert client.breakers[dead].state == "open"
                client._current = client._replicas[dead]
                # While open, calls skip the dead endpoint entirely and
                # return fast from the healthy one.
                started = time.monotonic()
                client.call(1, 1, xdr_args=xdr_u_long,
                            xdr_res=xdr_u_long)
                assert time.monotonic() - started < 0.25
        finally:
            for server in servers:
                server.stop()

    def test_health_queries_the_replica_set(self):
        servers = [make_server(100)]
        try:
            with make_failover(servers, call_budget_s=2.0) as client:
                assert client.health() == STATUS_SERVING
                servers[0].registry.begin_drain()
                assert client.health() == STATUS_DRAINING
        finally:
            for server in servers:
                server.stop()

    def test_health_probe_does_not_race_concurrent_calls(self):
        # health() used to swap self.prog / self.vers / self._clients
        # for the probe's duration: a call() on another thread built
        # its client against the health program, parked it in the
        # throwaway list and had it closed under it.
        servers = [make_server(100)]
        prober = threading.current_thread()
        probing, release = threading.Event(), threading.Event()
        built = []

        def factory(host, port, prog, vers, **kwargs):
            if threading.current_thread() is prober:
                probing.set()          # the probe is mid-flight ...
                assert release.wait(5.0)   # ... until the call is done
            made = UdpClient(host, port, prog, vers, **kwargs)
            built.append((threading.current_thread(), prog, made))
            return made

        outcome = []

        def caller():
            assert probing.wait(5.0)
            try:
                outcome.append(client.call(1, 1, xdr_args=xdr_u_long,
                                           xdr_res=xdr_u_long))
            except Exception as exc:
                outcome.append(exc)
            finally:
                release.set()

        try:
            with make_failover(servers, call_budget_s=2.0,
                               client_factory=factory) as client:
                thread = threading.Thread(target=caller, daemon=True)
                thread.start()
                assert client.health() == STATUS_SERVING
                thread.join(5.0)
                assert not thread.is_alive()
                assert outcome == [101]
                (prog, theirs), = [(prog, made) for who, prog, made in built
                                   if who is thread]
                assert prog == PROG
                assert client._replicas[0].client is theirs
                assert theirs.sock.fileno() != -1   # still open
                assert client.call(1, 2, xdr_args=xdr_u_long,
                                   xdr_res=xdr_u_long) == 102
        finally:
            release.set()
            for server in servers:
                server.stop()

    def test_reorder_during_a_failing_attempt_blames_the_right_replica(self):
        # An attempt on A is in flight when the fleet watcher reorders
        # the set to [B, A]; then A's connection dies.  The failure
        # belongs to A's record, not to whatever now sits at A's old
        # position (B, whose healthy client must survive).
        a, b = ("127.0.0.1", 1), ("127.0.0.1", 2)
        in_flight, reordered = threading.Event(), threading.Event()

        def a_dies():
            in_flight.set()
            assert reordered.wait(5.0)
            raise RpcConnectionError("A's connection died")

        scripts = {a: [RpcDeniedError("shed"), a_dies],
                   b: [1, RpcDeniedError("shed"), 3]}
        built = []

        class Fake:
            def __init__(self, endpoint):
                self.script = iter(scripts[endpoint])
                self.closed = False

            def call(self, proc, args=None, **kwargs):
                step = next(self.script)
                if isinstance(step, Exception):
                    raise step
                return step() if callable(step) else step

            def close(self):
                self.closed = True

        def factory(host, port, prog, vers, **kwargs):
            built.append(Fake((host, port)))
            return built[-1]

        def watcher():
            assert in_flight.wait(5.0)
            client.set_endpoints([b, a])
            reordered.set()

        client = FailoverClient([a, b], PROG, VERS, client_factory=factory)
        try:
            assert client.call(1, 1) == 1      # A sheds, B answers
            fake_a, fake_b = built
            thread = threading.Thread(target=watcher, daemon=True)
            thread.start()
            with pytest.raises(RpcConnectionError):
                client.call(1, 2)              # B sheds, A dies mid-reorder
            thread.join(5.0)
            assert not fake_b.closed           # B's client is untouched ...
            assert client.call(1, 3) == 3      # ... and still the one in use
            assert len(built) == 2
            assert fake_a.closed               # A's dead client is closed ...
            assert [replica.client for replica in client._replicas] == [
                fake_b, None]                  # ... and dropped
            failures = {breaker.name: breaker.summary()["failures"]
                        for breaker in client.breakers}
            assert failures == {"127.0.0.1:1": 1, "127.0.0.1:2": 0}
        finally:
            reordered.set()
            client.close()


class TestUdpDeadline:
    def test_deadline_beats_timeout(self):
        # No server: the per-call deadline (0.3s) must cut the 5s
        # retransmission budget short and raise the typed error.
        victim = make_server(0)
        victim.stop()
        client = UdpClient("127.0.0.1", victim.port, PROG, VERS,
                           timeout=5.0, wait=0.02, jitter=0.0)
        try:
            started = time.monotonic()
            with pytest.raises(RpcDeadlineExceeded):
                client.call(1, 1, xdr_args=xdr_u_long,
                            xdr_res=xdr_u_long, deadline=0.3)
            assert time.monotonic() - started < 1.5
        finally:
            client.close()

    def test_plain_timeout_still_raises_timeout(self):
        victim = make_server(0)
        victim.stop()
        client = UdpClient("127.0.0.1", victim.port, PROG, VERS,
                           timeout=0.2, wait=0.02, jitter=0.0)
        try:
            with pytest.raises(RpcTimeoutError) as info:
                client.call(1, 1, xdr_args=xdr_u_long,
                            xdr_res=xdr_u_long)
            assert not isinstance(info.value, RpcDeadlineExceeded)
        finally:
            client.close()


def make_tcp_pair(registry=None):
    if registry is None:
        registry = SvcRegistry()
        registry.register(PROG, VERS, 1, lambda v: v + 1,
                          xdr_args=xdr_u_long, xdr_res=xdr_u_long)
    server = TcpServer(registry)
    server.start()
    return server


class TestTcpReconnect:
    def test_reconnect_revives_the_client(self):
        server = make_tcp_pair()
        try:
            client = TcpClient("127.0.0.1", server.port, PROG, VERS,
                               timeout=5.0)
            assert client.call(1, 1, xdr_args=xdr_u_long,
                               xdr_res=xdr_u_long) == 2
            # Kill the transport under the client.
            client.sock.close()
            with pytest.raises((RpcConnectionError, OSError)):
                client.call(1, 2, xdr_args=xdr_u_long,
                            xdr_res=xdr_u_long)
            client.reconnect()
            assert client.reconnects == 1
            assert client.call(1, 3, xdr_args=xdr_u_long,
                               xdr_res=xdr_u_long) == 4
            client.close()
        finally:
            server.stop()

    def test_reconnect_rebuilds_fastpath_pools(self):
        """A fast-path client calls again after a reconnect."""
        server = make_tcp_pair()
        try:
            client = TcpClient("127.0.0.1", server.port, PROG, VERS,
                               timeout=5.0, fastpath=True)
            assert client.call(1, 1, xdr_args=xdr_u_long,
                               xdr_res=xdr_u_long) == 2
            client.sock.close()
            with pytest.raises((RpcConnectionError, OSError)):
                client.call(1, 2, xdr_args=xdr_u_long,
                            xdr_res=xdr_u_long)
            client.reconnect()
            assert client.call(1, 3, xdr_args=xdr_u_long,
                               xdr_res=xdr_u_long) == 4
            client.close()
        finally:
            server.stop()

    def test_retried_call_emits_one_encode_span_per_attempt(self):
        server = make_tcp_pair()
        prev_enabled, prev_sinks = obs.enabled, obs.tracer.sinks
        sink = obs.MemorySink()
        obs.registry.reset()
        obs.enabled = True
        obs.tracer.sinks = [sink]
        try:
            client = TcpClient("127.0.0.1", server.port, PROG, VERS,
                               timeout=5.0)
            client.sock.close()
            with pytest.raises((RpcConnectionError, OSError)):
                client.call(1, 1, xdr_args=xdr_u_long,
                            xdr_res=xdr_u_long)
            client.reconnect()
            assert client.call(1, 2, xdr_args=xdr_u_long,
                               xdr_res=xdr_u_long) == 3
            client.close()
            calls = [r for r in sink.records
                     if r.get("name") == "client.call"]
            encodes = [r for r in sink.records
                       if r.get("name") == "client.encode"]
            # Two call attempts, one encode span each — no span state
            # leaked from the failed call into the retry.
            assert len(calls) == 2
            assert len(encodes) == 2
            for record in calls + encodes:
                assert "dur_us" in record
        finally:
            obs.enabled, obs.tracer.sinks = prev_enabled, prev_sinks
            server.stop()

    def test_reconnect_respects_deadline(self):
        server = make_tcp_pair()
        server.stop()
        client = None
        # Build a client against a live server, then point reconnect at
        # a dead endpoint via a spent deadline: the typed deadline
        # error must surface, not a hang.
        live = make_tcp_pair()
        try:
            client = TcpClient("127.0.0.1", live.port, PROG, VERS,
                               timeout=5.0)
            from repro.rpc.resilience import Deadline

            spent = Deadline(0.0)
            with pytest.raises(RpcDeadlineExceeded):
                client.reconnect(deadline=spent)
        finally:
            if client is not None:
                client.close()
            live.stop()


class TestConcurrentFailover:
    def test_threads_share_one_client_safely(self):
        servers = [make_server(0, workers=2), make_server(0, workers=2)]
        try:
            with make_failover(servers, call_budget_s=5.0) as client:
                failures = []
                resolved = []

                def worker():
                    # Concurrent calls share one socket per endpoint, so
                    # threads can consume (and discard) each other's
                    # replies; the DRC replays them on retransmit.  The
                    # invariant under test: every call resolves to the
                    # right value or a *typed* error — never an untyped
                    # exception or a wrong value.
                    for i in range(5):
                        try:
                            value = client.call(1, i, xdr_args=xdr_u_long,
                                                xdr_res=xdr_u_long)
                            if value != i:
                                failures.append(f"wrong value {value}")
                            resolved.append(value)
                        except RpcTimeoutError:
                            resolved.append(None)
                        except Exception as exc:  # pragma: no cover
                            failures.append(repr(exc))

                threads = [threading.Thread(target=worker, daemon=True)
                           for _ in range(3)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=15.0)
                assert not failures
                assert len(resolved) == 15
        finally:
            for server in servers:
                server.stop()
