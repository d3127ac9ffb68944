"""``mux`` report — the concurrent call engine vs. the serial client.

The specialization work (PR 1, ``live``) removed the *CPU* cost of a
call; this report measures removing the *call model* cost.  The serial
client permits one outstanding xid, so loopback throughput is bounded
by one round-trip latency per call however fast marshaling gets.  The
mux engine (:mod:`repro.rpc.mux`) keeps up to N xids in flight over
one socket and coalesces concurrent submissions into batched
datagrams, so throughput scales with concurrency until the server
saturates.

Method: one event-loop UDP server
(:class:`~repro.rpc.svc_mux.MuxUdpServer`, inline dispatch, fastpath +
DRC + a staged residual route for the benched procedure — the fully
specialized production configuration) running in its *own process*,
like a real deployment; the baseline is the threaded serial client
(:class:`~repro.rpc.UdpClient`) exactly as it ships (fastpath tier),
calling in a loop.  A second serial row adds the same hand-staged
whole-message codec the mux rows use, so the call-model delta is also
visible at equal marshaling cost.  The curve drives a
:class:`~repro.rpc.mux.MuxUdpClient` with a sliding window of
``concurrency`` in-flight async calls, which both keeps exactly ``c``
xids in flight and gives the batcher its natural coalescing
opportunity.

Output: a concurrency-vs-goodput table and ``BENCH_mux.json`` with the
full curve, the serial numbers, realized batch sizes, and
``speedup_c64`` — the acceptance headline (target ≥5× locally; CI
asserts ≥3× as a conservative floor under runner noise).

``--calls`` scales the per-point call count (default 2000).
"""

import json
import os
import platform
import struct
import subprocess
import sys
import time

from repro.bench.report import format_table, ratio
from repro.rpc import MuxUdpClient, SvcRegistry, UdpClient
from repro.rpc.fastpath import ReplyHeaderTemplate
from repro.rpc.message import decode_reply_header, raise_for_reply
from repro.xdr import XdrMemStream, XdrOp, xdr_u_long

DEFAULT_JSON = "BENCH_mux.json"
#: calls per point of the concurrency curve
DEFAULT_CALLS = 2000
PROG, VERS = 0x20009999, 1
PROC_INC = 1
CONCURRENCIES = (1, 2, 4, 8, 16, 32, 64)

#: specialized whole-message codec for PROC_INC — the paper's
#: residual marshalers, hand-staged: one struct call per message.
_WORD = struct.Struct(">I")
_REQ = struct.Struct(">I36sI")
_REQ_MID = struct.pack(">9I", 0, 2, PROG, VERS, PROC_INC, 0, 0, 0, 0)
_REP = struct.Struct(">I20sI")
_REP_MID = ReplyHeaderTemplate().prefix[4:]


def _build_request(xid, args):
    return _REQ.pack(xid & 0xFFFFFFFF, _REQ_MID, args & 0xFFFFFFFF)


def _parse_reply(data, xid):
    if len(data) == _REP.size:
        rxid, mid, value = _REP.unpack(data)
        if mid == _REP_MID:
            if rxid != xid & 0xFFFFFFFF:
                return False, None
            return True, value
    # Off the fast shape (denial, shed, mismatch): generic decode so
    # every server verdict still resolves typed.
    stream = XdrMemStream(data, XdrOp.DECODE)
    reply = decode_reply_header(stream)
    if reply.xid != xid & 0xFFFFFFFF:
        return False, None
    raise_for_reply(reply)
    return True, xdr_u_long(stream, None)


def _unpack_args(data, offset):
    return _WORD.unpack_from(data, offset)[0]


class _ServerProcess:
    """The loopback server, in its own process (its own GIL).

    Running the server in-process would serialize its event loop
    against the client's submit and demux threads on one interpreter
    lock and understate pipelining; a subprocess is the deployment
    shape the report claims to measure.
    """

    def __enter__(self):
        src_root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "repro.bench._mux_server"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env=env,
        )
        line = self._proc.stdout.readline().strip()
        if not line:
            stderr = self._proc.stderr.read()
            self._proc.wait(timeout=10)
            raise RuntimeError(f"bench server failed to start: {stderr}")
        self.port = int(line)
        return self

    def __exit__(self, *exc_info):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()
        self._proc.stderr.close()


def _registry():
    registry = SvcRegistry(fastpath=True)
    registry.enable_drc()
    registry.register(PROG, VERS, PROC_INC, lambda v: (v + 1) & 0xFFFFFFFF,
                      xdr_args=xdr_u_long, xdr_res=xdr_u_long)
    registry.stage_route(PROG, VERS, PROC_INC,
                         unpack_args=_unpack_args, pack_res=_WORD.pack)
    return registry


def _serial_goodput(port, calls, codec):
    """Calls/s of the threaded serial client.

    ``codec=False`` is the production client exactly as it ships
    (fastpath templates) — the baseline the headline speedup divides
    by.  ``codec=True`` additionally installs the same hand-staged
    whole-message codec the mux rows use, reported alongside so the
    call-model delta is visible at equal marshaling cost.

    Median of three trials: the serial loop is pure
    syscall-plus-thread-handoff and its wall time swings widely with
    scheduler noise, so a single sample can misstate the denominator
    of the whole speedup column.
    """
    rates = []
    for _ in range(3):
        client = UdpClient("127.0.0.1", port, PROG, VERS, timeout=5.0,
                           fastpath=True)
        if codec:
            client.install_codec(PROC_INC, _build_request, _parse_reply)
        try:
            assert client.call(PROC_INC, 41, xdr_args=xdr_u_long,
                               xdr_res=xdr_u_long) == 42  # warm
            started = time.perf_counter()
            for i in range(calls):
                client.call(PROC_INC, i, xdr_args=xdr_u_long,
                            xdr_res=xdr_u_long)
            elapsed = time.perf_counter() - started
        finally:
            client.close()
        rates.append(calls / elapsed)
    return sorted(rates)[1]


def _mux_goodput(port, concurrency, calls):
    """(median calls/s, batching stats) of the mux client driven with
    a sliding window of ``concurrency`` in-flight calls.

    A *wave* driver (submit N, wait for all N, repeat) would serialize
    the pipeline — every stage idles while the others work.  The
    sliding window keeps the engine loaded: each completed call is
    immediately replaced, so submissions, flushes, server dispatch,
    and reply demux all overlap.  Median of three trials, like the
    serial baseline, so neither side of the speedup rides one
    scheduler hiccup.
    """
    import collections

    client = MuxUdpClient("127.0.0.1", port, PROG, VERS, timeout=5.0,
                          fastpath=True, max_inflight=concurrency)
    client.install_codec(PROC_INC, _build_request, _parse_reply)
    rates = []
    try:
        warm = client.call_async(PROC_INC, 41, xdr_args=xdr_u_long,
                                 xdr_res=xdr_u_long)
        assert warm.result(10.0) == 42
        base_batches = client.batches_sent
        base_messages = client.messages_batched
        for _ in range(3):
            window = collections.deque()
            submitted = done = 0
            started = time.perf_counter()
            while done < calls:
                while submitted < calls and len(window) < concurrency:
                    window.append((submitted, client.call_async(
                        PROC_INC, submitted, xdr_args=xdr_u_long,
                        xdr_res=xdr_u_long)))
                    submitted += 1
                sent, call = window.popleft()
                value = call.result(10.0)
                if value != (sent + 1) & 0xFFFFFFFF:
                    raise AssertionError(
                        f"wrong value {value} for call {sent}"
                    )
                done += 1
            rates.append(done / (time.perf_counter() - started))
        batches = client.batches_sent - base_batches
        messages = client.messages_batched - base_messages
    finally:
        client.close()
    return sorted(rates)[1], {
        "batches_sent": batches,
        "messages_batched": messages,
        "avg_batch": (messages / batches) if batches else 0.0,
        "retransmissions": client.retransmissions,
    }


def run(workload=None, json_path=DEFAULT_JSON, calls=DEFAULT_CALLS):
    """Print the concurrency curve and write ``BENCH_mux.json``.

    ``workload`` is accepted (and ignored) for CLI uniformity.
    """
    del workload
    results = {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "calls_per_point": calls,
            "server": "MuxUdpServer(subprocess, inline, fastpath, drc,"
                      " staged route)",
            "baseline": "UdpClient(specialized codec) serial loop",
        },
        "serial": {},
        "mux": {},
    }
    with _ServerProcess() as server:
        serial_rps = _serial_goodput(server.port, calls, codec=False)
        serial_codec_rps = _serial_goodput(server.port, calls, codec=True)
        results["serial"] = {
            "calls": calls,
            "rps": serial_rps,
            "us_per_call": 1e6 / serial_rps,
        }
        results["serial_specialized"] = {
            "calls": calls,
            "rps": serial_codec_rps,
            "speedup_vs_serial": ratio(serial_codec_rps, serial_rps),
        }
        rows = [
            ("serial", f"{serial_rps:,.0f}", "1.00x", "-"),
            ("serial+codec", f"{serial_codec_rps:,.0f}",
             f"{ratio(serial_codec_rps, serial_rps):.2f}x", "-"),
        ]
        for concurrency in CONCURRENCIES:
            rps, batching = _mux_goodput(server.port, concurrency, calls)
            speedup = ratio(rps, serial_rps)
            results["mux"][str(concurrency)] = {
                "calls": calls,
                "rps": rps,
                "speedup_vs_serial": speedup,
                **batching,
            }
            rows.append((
                f"mux c={concurrency}", f"{rps:,.0f}",
                f"{speedup:.2f}x", f"{batching['avg_batch']:.1f}",
            ))
    results["speedup_c64"] = results["mux"]["64"]["speedup_vs_serial"]
    results["target_speedup"] = 5.0
    results["ci_floor_speedup"] = 3.0
    with open(json_path, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
    print(format_table(
        "Concurrent call engine — loopback UDP goodput"
        f" ({calls} calls/point)",
        ("client", "calls/s", "vs serial", "avg batch"),
        rows,
        note="mux: one socket, xid-demultiplexed pipelining + batching"
             " (repro.rpc.mux) against MuxUdpServer",
    ))
    print(f"\nspeedup at c=64: {results['speedup_c64']:.2f}x"
          f" (target >=5x, CI floor >=3x)")
    print(f"JSON written to {json_path}")
    return results
