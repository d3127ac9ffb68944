"""The five workloads and their seeded call sequences.

Every workload is a closed loop on the paper's test program: "loops on
a simple RPC which sends and receives an array of integers".  The seed
decides the array contents and the size sequence; the program under
test only ever sees the generated arguments.
"""

import hashlib
import random
from dataclasses import dataclass

PROG = 0x20000321
VERS = 1
PROC_SENDRECV = 1
PROC_NAME = "SENDRECV"
MAXN = 2000

IDL = f"""
const MAXN = {MAXN};

struct intarr {{
    int vals<MAXN>;
}};

program XCHG_PROG {{
    version XCHG_VERS {{
        intarr SENDRECV(intarr) = {PROC_SENDRECV};
    }} = {VERS};
}} = {PROG};
"""

#: the remote procedure, in MiniC for the residual server: echo the
#: array back incremented, so every reply is checkable.
IMPL = """
void sendrecv_impl(struct intarr *args, struct intarr *res)
{
    int i;
    res->vals_len = args->vals_len;
    for (i = 0; i < args->vals_len; i++)
        res->vals[i] = args->vals[i] + 1;
}
"""

#: argument arrays generated per distinct size; the sequence draws one
#: of them per call.
VARIANTS = 4

#: size_shift: a cycle of 2 + 1 + 1 phases of PHASE_CALLS calls (per
#: tier) — hot 64, hot 16, the two alternating — the two hot lengths,
#: the range of the uniform tail and its share.  The 64 phase is the
#: long one so that one size holds the median: with equal phases half
#: the calls are short and half long, and p50 falls in the gap between
#: the two modes, where a 1% change of mix moves it by 30%.  Phases are
#: short so a time-bound run holds many whole cycles.
PHASE_CALLS = 1000
CYCLE_PHASES = 4
SHIFT_HOT = (64, 16)
SHIFT_TAIL_MAX = 128
SHIFT_TAIL_SHARE = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: client/server transport pair: "udp", "mux_udp" or "tcp".
    transport: str
    #: the array length the offline residual code is built for, and the
    #: canonical length of the per-layer pass.
    n: int
    #: in-flight calls (1 = serial client).
    window: int = 1
    #: calls per tier block; tiers alternate block by block, with a
    #: reference block between (see reference.py).  Blocks stay well
    #: under the 0.1-0.5 s the host's speed phases last.
    block: int = 200
    #: metrics on (no trace sink) in both processes.
    obs: bool = False
    #: spec tier is an OnlineSpecializer from a generic start.
    online: bool = False
    #: cold set-ups per run; setup_s reports their median.  Identical
    #: half-second set-ups read 0.36-0.69 s on the calibration host;
    #: the median of seven spreads 12% (IQR over 14 runs), and neither
    #: the minimum, a low quantile nor the mean did better.
    setup_reps: int = 7
    #: calls replayed in-process by the traced pass.
    trace_calls: int = 2000

    def sizes(self):
        """Every array length the workload can send."""
        if self.online:
            return tuple(range(1, SHIFT_TAIL_MAX + 1))
        return (self.n,)


WORKLOADS = (
    Workload(
        "rtt_small",
        "n=20 serial UDP: fixed per-call cost (header, DRC, dispatch"
        " spine, syscalls) is most of the call; body marshal is minor",
        transport="udp", n=20,
    ),
    Workload(
        "rtt_large",
        "n=1000 serial UDP: ~90% of the call is body marshal/unmarshal,"
        " and offline specialization makes setup_s live",
        transport="udp", n=1000, block=20, setup_reps=3, trace_calls=200,
    ),
    Workload(
        "pipelined",
        "n=20, window of 32 over one MuxUdpClient to MuxUdpServer: call"
        " engine, batching and event loop dominate; bypasses marshaling",
        transport="mux_udp", n=20, window=32, block=500,
    ),
    Workload(
        "size_shift",
        "serial TCP, shifting sizes with a 5% uniform tail under the"
        " default online policy: guard misses, promotion, fallback",
        transport="tcp", n=SHIFT_HOT[0], online=True,
    ),
    Workload(
        "rtt_small_obs",
        "rtt_small with metrics on in both processes: only an"
        " observability change may move it; rtt_small is its bypass twin",
        transport="udp", n=20, obs=True,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def quick(workload):
    """The self-test variant: same code paths, small enough that all
    five workloads finish in seconds."""
    return Workload(
        workload.name, workload.why, workload.transport,
        n=min(workload.n, 100), window=workload.window,
        block=min(workload.block, 100), obs=workload.obs,
        online=workload.online, setup_reps=1, trace_calls=60,
    )


def make_values(seed, n, variant):
    """The ``variant``-th argument array of length ``n`` for ``seed``.

    Values stay below INT_MAX so the handler's ``v + 1`` never wraps."""
    rng = random.Random(f"ledger/{seed}/{n}/{variant}")
    return [rng.randrange(-(1 << 31), (1 << 31) - 1) for _ in range(n)]


class CallPlan:
    """The seeded call sequence of one workload: ``(n, variant)`` per
    call index, identical for both tiers.  Blocks must be drawn in
    order (one RNG stream)."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self._rng = random.Random(f"ledger/{seed}/{workload.name}/sizes")
        self._index = 0

    def _size(self, index, rng):
        workload = self.workload
        if not workload.online:
            return workload.n
        # the tail draw is consumed on every call so the stream stays
        # aligned whatever the phase does with it
        tail = rng.random() < SHIFT_TAIL_SHARE
        tail_n = rng.randint(1, SHIFT_TAIL_MAX)
        if tail:
            return tail_n
        phase = (index // PHASE_CALLS) % CYCLE_PHASES
        if phase == 3:
            return SHIFT_HOT[index % 2]
        return SHIFT_HOT[phase == 2]

    def take(self, count):
        """The next ``count`` calls as ``(n, variant)`` pairs."""
        rng = self._rng
        out = []
        for index in range(self._index, self._index + count):
            n = self._size(index, rng)
            out.append((n, rng.randrange(VARIANTS)))
        self._index += count
        return out


def sequence_hash(workload, seed, calls=2000):
    """Digest of the first ``calls`` calls: sizes, variants and the
    contents of every array they reference."""
    digest = hashlib.sha256()
    seen = set()
    for n, variant in CallPlan(workload, seed).take(calls):
        digest.update(f"{n}:{variant},".encode())
        if (n, variant) not in seen:
            seen.add((n, variant))
            digest.update(repr(make_values(seed, n, variant)).encode())
    return digest.hexdigest()
