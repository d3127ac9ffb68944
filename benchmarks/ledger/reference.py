"""A frozen reference call, interleaved with the tiers as a host-speed
probe.

This sandbox's CPU speed drifts by a factor of up to 1.5 over minutes
and by +-40% over tenths of a second; a fixed computation does not
repeat within a tenth, so no raw time can carry a 10-25% regression
bound.  What does repeat is a time *relative to work of the same kind
done at the same moment*.  The reference is that work: a small
self-contained RPC — XDR-style stream, call header, array of ints, UDP
round trip to an echo thread in the server process — that shares no
code with ``src/`` and is never edited by a performance change.  The
load generator runs a short block of it between every two tier blocks
and scales each tier block's times by the nominal round trip over the
reference's p50 next to it.

Both ends live **inside the program's two processes** because that is
what tracks: with the two ends in processes of their own the scaled
p50 of ``rtt_small`` spread 17% (IQR over ten runs, interleaved with
ten runs of this arrangement, which spread 4.5%).  The price is that
the reference waits for the interpreter lock behind any background
thread of the program — an online build, a worker, a poller — as the
tiers do; were such a reading used, the program's own background CPU
would be divided out as if it were host drift (with a spinning thread
in both processes the reference reads 12 ms and the scaled throughput
comes out three times *better*).  So every block is checked with the
thread CPU clocks (:func:`background_cpu_s`, :attr:`EchoServer.cpu_s`)
and the load generator discards a reading taken while other threads of
either process were computing.

The reference carries as many ints as the workload's calls do and
keeps as many calls in flight: work of the same *kind* is what tracks.
With 20 ints against ``rtt_large`` (n=1000, where Python loops and a
large footprint dominate) the scaled p50 still spread 17% (IQR over
ten runs); with 1000 ints, 2.5%.  With one call at a time against
``pipelined`` (32 in flight: computing, hardly any waiting for a
wake-up) it spread 16%, the runs falling into two groups 20% apart;
with 32 sent before the first reply is read, 1-8%.

Scaled times are therefore not microseconds of this host's clock but
"microseconds on a host where the reference round trip takes
``nominal_rtt_s(n)``" — a line fitted once on the calibration host and
frozen; the raw readings are reported beside them as
``loadgen.raw_p50_us.*`` and ``loadgen.ref_rtt_us``.
"""

import itertools
import socket
import statistics
import struct
import threading
import time



def nominal_rtt_s(n, window=1):
    """The reference exchange of ``window`` calls with ``n`` ints on the
    host the ledger was calibrated on: one call takes 45 us at n=20 and
    650 us at n=1000; in a window (measured at 32) a call takes 0.83 of
    that, because no wake-up is waited for between calls."""
    serial = 32.7e-6 + 0.617e-6 * n
    return serial if window == 1 else serial * window * 0.83


def block_calls(nominal):
    """Reference exchanges per block: about 15 ms of them, at least 20
    so the block's median means something, at most 100."""
    return max(20, min(100, int(0.015 / nominal)))


_CALL_WORDS = 10
_REPLY_WORDS = 6


class _Stream:
    """Bounds-accounted 4-byte-unit stream (the shape of xdrmem)."""

    def __init__(self, buffer):
        self.buffer = buffer
        self.pos = 0
        self.handy = len(buffer)

    def putlong(self, value):
        self.handy -= 4
        if self.handy < 0:
            return False
        struct.pack_into(">I", self.buffer, self.pos, value & 0xFFFFFFFF)
        self.pos += 4
        return True

    def getlong(self):
        self.handy -= 4
        if self.handy < 0:
            return None
        value = struct.unpack_from(">I", self.buffer, self.pos)[0]
        self.pos += 4
        return value


def encode(header_words, xid, values):
    stream = _Stream(bytearray(8800))
    stream.putlong(xid)
    for word in range(header_words - 1):
        if not stream.putlong(word):
            raise ValueError("reference message overflow")
    stream.putlong(len(values))
    for value in values:
        if not stream.putlong(value):
            raise ValueError("reference message overflow")
    return bytes(stream.buffer[:stream.pos])


def decode(header_words, data):
    stream = _Stream(data)
    xid = stream.getlong()
    for _ in range(header_words - 1):
        if stream.getlong() is None:
            raise ValueError("reference message truncated")
    count = stream.getlong()
    values = []
    for _ in range(count):
        value = stream.getlong()
        if value is None:
            raise ValueError("reference message truncated")
        values.append(value)
    return xid, values


class EchoServer:
    """The reference's server half: a daemon thread in the server
    process (so a round trip pays the same process switch a tier's
    does)."""

    def __init__(self, host):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind((host, 0))
        self.sock.settimeout(0.2)
        self.port = self.sock.getsockname()[1]
        self._stop = threading.Event()
        #: CPU clock of the echo thread after its last reply: what the
        #: reference itself cost this process.
        self.cpu_s = 0.0
        self._thread = threading.Thread(target=self._serve, daemon=True,
                                        name="ledger-reference")

    def start(self):
        self._thread.start()

    def _serve(self):
        handlers = {1: lambda values: [(v + 1) & 0xFFFFFFFF for v in values]}
        while not self._stop.is_set():
            try:
                data, addr = self.sock.recvfrom(65536)
            except socket.timeout:
                continue
            xid, values = decode(_CALL_WORDS, data)
            self.sock.sendto(encode(_REPLY_WORDS, xid, handlers[1](values)),
                             addr)
            self.cpu_s = time.thread_time()

    def stop(self):
        self._stop.set()
        self._thread.join(timeout=5.0)
        self.sock.close()


def background_cpu_s():
    """CPU time spent so far by every thread of this process but the
    calling one."""
    return time.process_time() - time.thread_time()


class RefClient:
    def __init__(self, host, port, n, window=1):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.settimeout(5.0)
        self.sock.connect((host, port))
        self._xids = itertools.count(1)
        self._values = list(range(n))
        self._want = [v + 1 for v in self._values]
        self._window = window
        #: host-speed factor = nominal / observed block p50
        self.nominal = nominal_rtt_s(n, window)
        self._block = block_calls(self.nominal)

    def exchange(self):
        """``window`` calls sent back to back, then their replies."""
        xids = [next(self._xids) for _ in range(self._window)]
        for xid in xids:
            self.sock.send(encode(_CALL_WORDS, xid, self._values))
        for xid in xids:
            got_xid, values = decode(_REPLY_WORDS, self.sock.recv(65536))
            if got_xid != xid or values != self._want:
                raise RuntimeError("reference echo answered wrongly")

    def block(self):
        """p50 (seconds) of one block of reference exchanges."""
        clock, exchange = time.perf_counter, self.exchange
        times = []
        for _ in range(self._block):
            started = clock()
            exchange()
            times.append(clock() - started)
        return statistics.median(times)

    def close(self):
        self.sock.close()
