"""DRC semantics across graceful drain and crash/restart.

Documents and asserts the exact delivery guarantee the stack provides:

* **within one server incarnation**: at-most-once.  Retransmissions
  replay the cached reply (even through a graceful drain), and the
  claim protocol extends the guarantee to *concurrent* duplicates
  sitting in a worker pool's queue together;
* **across a restart**: at-least-once.  The reply cache dies with the
  process, so a client retransmitting into a restarted server
  re-executes the handler — the documented at-least-once window.
"""

import socket
import threading

from repro.rpc import DuplicateRequestCache, SvcRegistry, UdpServer
from repro.rpc.client import RpcClient
from repro.xdr import xdr_u_long

PROG, VERS = 0x20004444, 1
CALLER = ("192.0.2.1", 700)


def make_registry(counter):
    registry = SvcRegistry()
    registry.enable_drc()

    def handler(value):
        counter.append(value)
        return value + 1

    registry.register(PROG, VERS, 1, handler, xdr_args=xdr_u_long,
                      xdr_res=xdr_u_long)
    return registry


def call_bytes(xid, value=5):
    return RpcClient(PROG, VERS).build_call(xid, 1, value, xdr_u_long)


class TestClaimProtocol:
    def test_claim_states(self):
        cache = DuplicateRequestCache(capacity=8)
        key = cache.key(1, CALLER, PROG, VERS, 1)
        assert cache.begin(key) is True          # first owner
        assert cache.begin(key) is False         # concurrent duplicate
        assert cache.in_progress_drops == 1
        cache.put(key, b"answer")
        assert cache.begin(key) == b"answer"     # late duplicate replays
        assert cache.get(key) == b"answer"

    def test_in_progress_reads_as_miss(self):
        cache = DuplicateRequestCache(capacity=8)
        key = cache.key(2, CALLER, PROG, VERS, 1)
        cache.begin(key)
        assert cache.get(key) is None

    def test_abandon_releases_the_claim(self):
        cache = DuplicateRequestCache(capacity=8)
        key = cache.key(3, CALLER, PROG, VERS, 1)
        assert cache.begin(key) is True
        cache.abandon(key)
        assert cache.begin(key) is True          # executable again

    def test_eviction_never_removes_a_claim(self):
        cache = DuplicateRequestCache(capacity=1)
        claimed = cache.key(4, CALLER, PROG, VERS, 1)
        other = cache.key(5, CALLER, PROG, VERS, 1)
        assert cache.begin(claimed) is True
        cache.put(other, b"b")                   # over capacity
        # The claimed key survived whatever eviction happened.
        assert cache.begin(claimed) is False
        cache.put(claimed, b"a")
        assert cache.begin(claimed) == b"a"

    def test_concurrent_duplicates_execute_once(self):
        invocations = []
        registry = make_registry(invocations)
        gate = threading.Event()
        data = call_bytes(xid=99)
        replies = []
        lock = threading.Lock()

        def dispatch():
            gate.wait(2.0)
            reply = registry.dispatch_bytes(data, caller=CALLER)
            with lock:
                replies.append(reply)

        threads = [threading.Thread(target=dispatch, daemon=True)
                   for _ in range(8)]
        for thread in threads:
            thread.start()
        gate.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert len(invocations) == 1
        answered = [r for r in replies if r is not None]
        dropped = [r for r in replies if r is None]
        # Whoever lost the claim race dropped; everyone who answered
        # answered with the *same* reply bytes.
        assert len(answered) + len(dropped) == 8
        assert len(set(answered)) == 1
        assert registry.drc.stores == 1


class TestDrainKeepsAtMostOnce:
    def test_replay_through_drain_and_back(self):
        invocations = []
        registry = make_registry(invocations)
        first = registry.dispatch_bytes(call_bytes(xid=1), caller=CALLER)
        assert len(invocations) == 1
        registry.begin_drain()
        # The retransmission of an already-answered call replays even
        # while draining: the client that missed the reply still
        # completes without re-execution.
        assert registry.dispatch_bytes(call_bytes(xid=1),
                                       caller=CALLER) == first
        assert len(invocations) == 1
        registry.end_drain()
        assert registry.dispatch_bytes(call_bytes(xid=1),
                                       caller=CALLER) == first
        assert len(invocations) == 1


class TestRestartAtLeastOnceWindow:
    def test_fresh_registry_reexecutes_the_same_xid(self):
        # Incarnation 1 answers xid 42 ...
        first_counter = []
        incarnation1 = make_registry(first_counter)
        reply1 = incarnation1.dispatch_bytes(call_bytes(xid=42, value=7),
                                             caller=CALLER)
        assert first_counter == [7]
        # ... the process "restarts" (fresh registry, empty DRC), and
        # the client's retransmission of the *same* request executes
        # the handler again: this is the at-least-once window.
        second_counter = []
        incarnation2 = make_registry(second_counter)
        reply2 = incarnation2.dispatch_bytes(call_bytes(xid=42, value=7),
                                             caller=CALLER)
        assert second_counter == [7]
        assert reply2 == reply1
        # Each incarnation individually still proves at-most-once.
        for registry, counter in ((incarnation1, first_counter),
                                  (incarnation2, second_counter)):
            assert registry.handlers_invoked == len(counter) == 1
            assert registry.drc.stores == 1

    def test_restart_over_a_live_socket(self):
        # The same story over a real transport: one raw request sent
        # twice to the same port, with a server restart in between.
        first_counter = []
        server1 = UdpServer(make_registry(first_counter))
        server1.start()
        port = server1.port
        request = call_bytes(xid=7, value=3)
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.settimeout(5.0)
        try:
            sock.sendto(request, ("127.0.0.1", port))
            reply1, _ = sock.recvfrom(4096)
            assert first_counter == [3]
            # Retransmission against the same incarnation: replayed.
            sock.sendto(request, ("127.0.0.1", port))
            replay, _ = sock.recvfrom(4096)
            assert replay == reply1
            assert first_counter == [3]
            server1.stop()
            # Restart on the same port with a fresh registry.
            second_counter = []
            server2 = UdpServer(make_registry(second_counter), port=port)
            server2.start()
            try:
                sock.sendto(request, ("127.0.0.1", port))
                reply2, _ = sock.recvfrom(4096)
                # Same xid, re-executed: at-least-once across restart.
                assert second_counter == [3]
                assert reply2 == reply1
            finally:
                server2.stop()
        finally:
            sock.close()
