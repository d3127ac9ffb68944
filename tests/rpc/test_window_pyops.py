"""What the windowed call path costs, in exact bytecode counts.

``call_async`` with no deadline is staged (one lock round admits,
queues and lowers the timer floor), a flush whose queue fits one
datagram is one transmit with the timer rule run once for it, a reply
datagram is one pass that calls the installed codec and folds the
counters once, and the batch envelope is packed and read at C speed on
both ends.  Below: a specialized n=20 call through a warm window of 32
on the client — all of it on the submitting thread, whose ``result()``
drives every step of the engine (the fallback thread only idles) — and
one message of a 32-call envelope through ``UdpServer.handle_once``
with the duplicate-request cache at capacity — counted on CPython 3.11
as ``test_lone_call.py`` counts, obs off.
"""

import collections
import socket
import struct
import sys
import threading
import time

import pytest

from repro import obs
from repro.bench.workloads import WORKLOAD_IDL, WORKLOAD_IMPL
from repro.rpc import MuxUdpClient, SvcRegistry, UdpServer
from repro.rpc.client import RpcClient
from repro.rpc.record import pack_batch, unpack_batch
from repro.specialized import SpecializationPipeline

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="exact bytecode counts compare within one CPython minor"
           " version (counted on 3.11)")

N, WINDOW = 20, 32

#: counted on CPython 3.11, obs off: a windowed specialized n=20 call
#: costs the client 478 bytecodes, all on the submitting thread (488-492
#: when a demux thread read every reply and woke the waiter; 568-572
#: with the fused entries' struct glue; ≈ 878 before the staged submit,
#: the one-group flush, the per-datagram reply pass and the C-level
#: envelope), and one message of a 32-call envelope costs
#: ``handle_once`` 523 at DRC capacity (565 with the glue; 714 before
#: the C-level envelope and the O(1) eviction); the budgets are 478 and
#: 523 plus 5%
CLIENT_BUDGET = 502
SERVER_BUDGET = 549


@pytest.fixture(autouse=True)
def obs_off():
    previous = obs.enabled
    obs.enabled = False
    yield
    obs.enabled = previous


@pytest.fixture(scope="module")
def workload():
    """The paper workload's pipeline, its n=20 argument, and the
    residual server serving it."""
    pipeline = SpecializationPipeline(WORKLOAD_IDL,
                                      impl_sources=[WORKLOAD_IMPL])
    stubs = pipeline.stubs
    lens = {"arg_lens": {"vals": N}, "res_lens": {"vals": N}}

    def make_server():
        reg = SvcRegistry(fastpath=True, drc=True)

        class Impl:
            def SENDRECV(self, args):
                return stubs.intarr(vals=[v + 1 for v in args.vals])

        stubs.register_XCHG_PROG_1(reg, Impl())
        return pipeline.specialize_server("SENDRECV", fallback=reg, **lens)

    return pipeline, stubs.intarr(vals=list(range(N))), make_server, lens


def slide(client, args, xdr, calls, give_up):
    """A sliding window — each completed call is replaced at once —
    then wait for the fallback thread to exit; returns the replies and
    how many steps the fallback made before the last one was in."""
    window, replies = collections.deque(), []
    submitted = 0
    while submitted < calls or window:
        while submitted < calls and len(window) < WINDOW:
            window.append(client.call_async(1, args, xdr, xdr))
            submitted += 1
        replies.append(window.popleft().result(10.0))
    steps = client._fallback_steps
    while client._demux_alive and time.monotonic() < give_up:
        time.sleep(0.001)
    return replies, steps


def per_thread_pyops(fn):
    """Bytecodes ``fn()`` runs, per thread — this one and every thread
    it starts — outside the frames of the driver (:func:`slide`) and
    of ``fn`` itself."""
    counts = collections.Counter()
    own = (fn.__code__, slide.__code__)

    def on_opcode(frame, event, arg):
        if event == "opcode":
            counts[threading.get_ident()] += 1
        return on_opcode

    def on_call(frame, event, arg):
        if frame.f_code in own:
            return None
        frame.f_trace_opcodes = True
        return on_opcode

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return counts


def test_a_windowed_call_stays_inside_its_bytecode_budget(workload):
    pipeline, args, make_server, lens = workload
    xdr, calls = pipeline.stubs.xdr_intarr, 20 * WINDOW
    with UdpServer(make_server(), fastpath=True) as server:
        with MuxUdpClient("127.0.0.1", server.port, pipeline.prog_number,
                          pipeline.vers_number, fastpath=True,
                          max_inflight=WINDOW) as client:
            pipeline.specialize_client("SENDRECV", **lens).install(client)
            # warm, then let the fallback thread exit: its next start
            # and its idle tail are counted
            slide(client, args, xdr, 200, time.monotonic() + 5.0)
            assert not client._demux_alive
            batches = client.batches_sent, client.messages_batched
            idle_steps, out = client._fallback_steps, []
            # The fallback's tick is the switch interval: a long one
            # keeps it from stepping into the gaps the tracer stretches
            # between the waiter's turns (it reads the interval when
            # it starts, inside the counted run).
            interval = sys.getswitchinterval()
            sys.setswitchinterval(0.5)
            try:
                counts = per_thread_pyops(lambda: out.append(slide(
                    client, args, xdr, calls, time.monotonic() + 30.0)))
            finally:
                sys.setswitchinterval(interval)
            sent = (client.batches_sent - batches[0],
                    client.messages_batched - batches[1])
    (replies, fallback_steps), = out
    assert [reply.vals for reply in replies] == [
        [v + 1 for v in args.vals]] * calls
    assert sent[1] == calls and sent[0] * 4 < calls  # batched
    assert fallback_steps == idle_steps, "a turn went unwaited"
    me = threading.get_ident()
    submitting = counts.pop(me)
    count = (submitting + sum(counts.values())) / calls
    assert count <= CLIENT_BUDGET, (
        f"a windowed specialized n={N} call runs {count:.0f} client"
        f" bytecodes ({submitting / calls:.0f} submitting) >"
        f" {CLIENT_BUDGET}: the windowed path gained per-call work")


def test_an_envelope_message_stays_inside_its_bytecode_budget(workload):
    pipeline, args, make_server, _lens = workload
    dispatcher = make_server()
    request = bytes(RpcClient(pipeline.prog_number, pipeline.vers_number)
                    .build_call(1, 1, args, pipeline.stubs.xdr_intarr))
    server = UdpServer(dispatcher, fastpath=True)
    peer = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    peer.bind(("127.0.0.1", 0))
    drc = dispatcher.registry.drc
    xids = iter(range(0x1000, 0x10000))
    counts = set()
    try:
        for n in range(drc.capacity // WINDOW + 4):
            peer.sendto(pack_batch([struct.pack(">I", next(xids))
                                    + request[4:] for _ in range(WINDOW)]),
                        ("127.0.0.1", server.port))
            if n < drc.capacity // WINDOW + 1:
                assert server.handle_once()
            else:
                counts.add(sum(per_thread_pyops(
                    lambda: server.handle_once()).values()))
            assert len(unpack_batch(peer.recv(65536))) == WINDOW
    finally:
        peer.close()
        server.stop()
    assert len(drc) == drc.capacity and drc.evictions > 0
    assert len(counts) == 1, counts
    count = counts.pop() / WINDOW
    assert count <= SERVER_BUDGET, (
        f"one message of a {WINDOW}-call envelope runs {count:.0f}"
        f" bytecodes of UdpServer.handle_once > {SERVER_BUDGET}: the"
        " envelope or the DRC gained per-message work")
