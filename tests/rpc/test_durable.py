"""The DRC persistence tier: journal codec, crash-safe recovery, and
the delivery guarantee it buys — at-most-once *across a restart*.

The recovery contract under test is absolute: no journal damage —
torn tail, corrupt length prefix, flipped payload bytes, a foreign
file — may ever raise.  Whatever decodes is replayed; the rest is
dropped (returning only those keys to the documented at-least-once
window) and the torn suffix is truncated so the journal appends
cleanly again.
"""

import os
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rpc import DuplicateRequestCache, SvcRegistry, UdpServer
from repro.rpc.client import RpcClient
from repro.rpc.durable import (
    FSYNC_POLICIES,
    DrcJournal,
    attach_journal,
    decode_entry,
    encode_entry,
)
from repro.rpc.svc_mux import MuxUdpServer
from repro.rpc.svc_tcp import TcpServer
from repro.xdr import xdr_u_long

PROG, VERS = 0x20005555, 1
CALLER = ("192.0.2.9", 700)


def make_key(xid, caller=CALLER, proc=1):
    return (xid, caller, PROG, VERS, proc)


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


class TestEntryCodec:
    @pytest.mark.parametrize("caller", [
        ("127.0.0.1", 54321),
        ("2001:db8::1", 0),
        "unix:/tmp/peer.sock",
        b"\x00\x01opaque",
    ])
    def test_round_trip(self, caller):
        key = make_key(0xDEADBEEF, caller=caller)
        reply = b"\x00" * 3 + b"reply-bytes"
        assert decode_entry(encode_entry(key, reply)) == (key, reply)

    def test_empty_reply_round_trips(self):
        key = make_key(1)
        assert decode_entry(encode_entry(key, b"")) == (key, b"")

    def test_unjournalable_caller_raises(self):
        with pytest.raises(ValueError):
            encode_entry((1, object(), PROG, VERS, 1), b"x")


class TestJournalRecovery:
    def _journal(self, tmp_path, **kwargs):
        kwargs.setdefault("fsync", "off")
        return DrcJournal(str(tmp_path), **kwargs)

    def test_append_then_recover_byte_identical(self, tmp_path):
        journal = self._journal(tmp_path)
        replies = {make_key(i): b"reply-%d" % i for i in range(5)}
        for key, reply in replies.items():
            assert journal.append(key, reply)
        journal.close()

        cache = DuplicateRequestCache(capacity=64)
        fresh = self._journal(tmp_path)
        stats = fresh.recovery = fresh.recover_into(cache)
        assert stats["entries"] == 5
        assert stats["torn_bytes"] == 0
        for key, reply in replies.items():
            assert cache.get(key) == reply

    def test_duplicate_keys_last_record_wins(self, tmp_path):
        journal = self._journal(tmp_path)
        key = make_key(7)
        journal.append(key, b"first")
        journal.append(key, b"second")
        journal.close()
        cache = DuplicateRequestCache(capacity=8)
        self._journal(tmp_path).recover_into(cache)
        assert cache.get(key) == b"second"

    def test_torn_tail_dropped_and_truncated(self, tmp_path):
        journal = self._journal(tmp_path)
        for i in range(3):
            journal.append(make_key(i), b"intact-%d" % i)
        journal.close()
        good_size = os.path.getsize(journal.journal_path)
        # A crash mid-append: a record prefix promising more payload
        # than ever reached the disk.
        with open(journal.journal_path, "ab") as handle:
            handle.write(struct.pack(">II", 500, 0) + b"only-this-much")

        cache = DuplicateRequestCache(capacity=8)
        fresh = self._journal(tmp_path)
        stats = fresh.recover_into(cache)
        assert stats["entries"] == 3
        assert stats["torn_bytes"] > 0
        # The torn suffix is gone: the next append starts at a record
        # boundary and the journal recovers cleanly again.
        assert os.path.getsize(journal.journal_path) == good_size
        fresh.append(make_key(99), b"post-recovery")
        fresh.close()
        cache2 = DuplicateRequestCache(capacity=8)
        assert self._journal(tmp_path).recover_into(cache2)["entries"] == 4

    def test_corrupt_length_prefix_ends_recovery_at_last_good(
            self, tmp_path):
        journal = self._journal(tmp_path)
        journal.append(make_key(1), b"good")
        boundary = os.path.getsize(journal.journal_path)
        journal.append(make_key(2), b"will-be-corrupted")
        journal.close()
        with open(journal.journal_path, "r+b") as handle:
            handle.seek(boundary)
            handle.write(struct.pack(">I", 0xFFFFFFFF))

        cache = DuplicateRequestCache(capacity=8)
        stats = self._journal(tmp_path).recover_into(cache)
        assert stats["entries"] == 1
        assert cache.get(make_key(1)) == b"good"
        assert cache.get(make_key(2)) is None

    def test_flipped_payload_byte_fails_the_crc(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.append(make_key(1), b"good")
        boundary = os.path.getsize(journal.journal_path)
        journal.append(make_key(2), b"to-corrupt")
        journal.close()
        with open(journal.journal_path, "r+b") as handle:
            handle.seek(boundary + 8)  # past the record prefix
            handle.write(b"\xff")
        cache = DuplicateRequestCache(capacity=8)
        assert self._journal(tmp_path).recover_into(cache)["entries"] == 1

    def test_foreign_or_empty_file_recovers_nothing(self, tmp_path):
        journal = self._journal(tmp_path)
        with open(journal.journal_path, "wb") as handle:
            handle.write(b"GIFnothing-like-a-journal")
        cache = DuplicateRequestCache(capacity=8)
        assert self._journal(tmp_path).recover_into(cache)["entries"] == 0
        with open(journal.journal_path, "wb"):
            pass
        assert self._journal(tmp_path).recover_into(
            DuplicateRequestCache(capacity=8))["entries"] == 0

    @pytest.mark.parametrize("policy", FSYNC_POLICIES)
    def test_fsync_policies_all_persist_appends(self, tmp_path, policy):
        journal = DrcJournal(str(tmp_path / policy), fsync=policy)
        journal.append(make_key(1), b"persisted")
        journal.close()
        cache = DuplicateRequestCache(capacity=8)
        stats = DrcJournal(str(tmp_path / policy),
                           fsync=policy).recover_into(cache)
        assert stats["entries"] == 1
        if policy == "always":
            assert journal.fsyncs >= 1

    def test_unknown_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            DrcJournal(str(tmp_path), fsync="sometimes")

    def test_compaction_snapshots_and_resets_the_journal(self, tmp_path):
        cache = DuplicateRequestCache(capacity=64)
        journal = self._journal(tmp_path, compact_every=4)
        journal.attach(cache)
        for i in range(6):  # crosses the compact_every threshold
            key = make_key(i)
            cache.begin(key)
            cache.put(key, b"r%d" % i)
        assert journal.compactions >= 1
        assert os.path.exists(journal.snapshot_path)
        journal.close()
        recovered = DuplicateRequestCache(capacity=64)
        stats = self._journal(tmp_path).recover_into(recovered)
        assert stats["entries"] == 6
        for i in range(6):
            assert recovered.get(make_key(i)) == b"r%d" % i


class TestJournalFuzz:
    """Recovery must survive *any* mutilation of the journal file."""

    @settings(max_examples=60, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(st.integers(0, 2**32 - 1),
                      st.binary(max_size=40)),
            max_size=8,
        ),
        cut=st.integers(0, 512),
        flips=st.lists(
            st.tuples(st.integers(0, 511), st.integers(1, 255)),
            max_size=3,
        ),
    )
    def test_recovery_never_raises_and_never_invents(self, tmp_path_factory,
                                                     entries, cut, flips):
        tmp = tmp_path_factory.mktemp("fuzz")
        journal = DrcJournal(str(tmp), fsync="off")
        written = {}
        for xid, reply in entries:
            key = make_key(xid)
            journal.append(key, reply)
            # Truncation may resurrect an *older* record of a key, so
            # "never invents" means: byte-for-byte some written value.
            written.setdefault(key, set()).add(reply)
        journal.close()
        data = bytearray()
        if os.path.exists(journal.journal_path):  # no appends, no file
            with open(journal.journal_path, "rb") as handle:
                data = bytearray(handle.read())
        # Mutilate: truncate at an arbitrary point, flip up to 3 bytes.
        if cut < len(data):
            del data[cut:]
        for position, mask in flips:
            if data:
                data[position % len(data)] ^= mask
        with open(journal.journal_path, "wb") as handle:
            handle.write(bytes(data))

        cache = DuplicateRequestCache(capacity=64)
        stats = DrcJournal(str(tmp), fsync="off").recover_into(cache)
        # Never raises (reaching here), never invents: every recovered
        # entry is byte-for-byte something that was actually written.
        assert 0 <= stats["entries"] <= len(written)
        for key, reply in cache.snapshot_entries():
            assert reply in written.get(key, set())
        # And the truncated file appends + recovers cleanly afterwards.
        healed = DrcJournal(str(tmp), fsync="off")
        assert healed.append(make_key(0xABCDEF01), b"healed")
        healed.close()
        cache2 = DuplicateRequestCache(capacity=64)
        DrcJournal(str(tmp), fsync="off").recover_into(cache2)
        assert cache2.get(make_key(0xABCDEF01)) == b"healed"


class TestAttachJournal:
    def test_off_by_default(self):
        registry = SvcRegistry()
        registry.enable_drc()
        assert attach_journal(registry) is None

    def test_attach_recovers_then_hooks(self, tmp_path):
        counter = []
        registry = make_registry(counter)
        journal = attach_journal(registry, drc_dir=str(tmp_path),
                                 fsync="off")
        assert journal is not None
        reply = registry.dispatch_bytes(call_bytes(xid=5), caller=CALLER)
        assert journal.appends == 1
        journal.close()
        # A second incarnation recovers the reply and replays it.
        counter2 = []
        registry2 = make_registry(counter2)
        journal2 = attach_journal(registry2, drc_dir=str(tmp_path),
                                  fsync="off")
        assert journal2.recovery["entries"] == 1
        assert registry2.dispatch_bytes(call_bytes(xid=5),
                                        caller=CALLER) == reply
        assert counter2 == []  # replayed, never re-executed
        journal2.close()

    def test_double_attach_returns_the_same_journal(self, tmp_path):
        registry = make_registry([])
        journal = attach_journal(registry, drc_dir=str(tmp_path),
                                 fsync="off")
        assert attach_journal(registry, drc_dir=str(tmp_path)) is journal
        journal.close()


class TestRestartRecoveryAcrossTiers:
    """Drain → restart → recovery on every server tier: the reply a
    client missed is replayed byte-identically by the next
    incarnation, without re-execution — at-most-once across restart.
    """

    def test_threaded_udp_over_the_wire(self, tmp_path):
        import socket as socket_module

        counter = []
        server1 = UdpServer(make_registry(counter),
                            drc_dir=str(tmp_path), drc_fsync="always")
        server1.start()
        port = server1.port
        request = call_bytes(xid=7, value=3)
        sock = socket_module.socket(socket_module.AF_INET,
                                    socket_module.SOCK_DGRAM)
        sock.settimeout(5.0)
        try:
            sock.sendto(request, ("127.0.0.1", port))
            reply1, _ = sock.recvfrom(4096)
            assert counter == [3]
            server1.drain(timeout=2.0)
            server1.stop()

            counter2 = []
            server2 = UdpServer(make_registry(counter2), port=port,
                                drc_dir=str(tmp_path), drc_fsync="always")
            assert server2.journal.recovery["entries"] == 1
            server2.start()
            try:
                sock.sendto(request, ("127.0.0.1", port))
                reply2, _ = sock.recvfrom(4096)
                assert reply2 == reply1
                assert counter2 == []  # recovered replay, no re-execution
            finally:
                server2.stop()
        finally:
            sock.close()

    def test_tcp_tier(self, tmp_path):
        # A TCP caller's identity is its connection peername, so a
        # reconnecting client gets a fresh DRC key by design; the
        # journal contract is exercised at the dispatch layer with a
        # stable caller while the TcpServer lifecycle owns the journal
        # (attach + recover in the constructor, close in stop()).
        counter = []
        registry = make_registry(counter)
        server1 = TcpServer(registry, drc_dir=str(tmp_path),
                            drc_fsync="always")
        assert server1.journal is registry.drc_journal
        reply1 = registry.dispatch_bytes(call_bytes(xid=9, value=4),
                                         caller=CALLER)
        assert counter == [4]
        server1.stop()

        counter2 = []
        registry2 = make_registry(counter2)
        server2 = TcpServer(registry2, drc_dir=str(tmp_path),
                            drc_fsync="always")
        assert server2.journal.recovery["entries"] == 1
        assert registry2.dispatch_bytes(call_bytes(xid=9, value=4),
                                        caller=CALLER) == reply1
        assert counter2 == []
        server2.stop()

    def test_mux_udp_tier_over_the_wire(self, tmp_path):
        import socket as socket_module

        counter = []
        server1 = MuxUdpServer(make_registry(counter),
                               drc_dir=str(tmp_path), drc_fsync="always")
        server1.start()
        port = server1.port
        request = call_bytes(xid=11, value=9)
        sock = socket_module.socket(socket_module.AF_INET,
                                    socket_module.SOCK_DGRAM)
        sock.settimeout(5.0)
        try:
            sock.sendto(request, ("127.0.0.1", port))
            reply1, _ = sock.recvfrom(4096)
            assert counter == [9]
            server1.drain(timeout=2.0)
            server1.stop()

            counter2 = []
            server2 = MuxUdpServer(make_registry(counter2), port=port,
                                   drc_dir=str(tmp_path),
                                   drc_fsync="always")
            assert server2.journal.recovery["entries"] == 1
            server2.start()
            try:
                sock.sendto(request, ("127.0.0.1", port))
                reply2, _ = sock.recvfrom(4096)
                assert reply2 == reply1
                assert counter2 == []
            finally:
                server2.stop()
        finally:
            sock.close()
