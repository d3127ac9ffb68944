"""The load generator: one process, one pinned CPU, both tiers driven
in alternating blocks over the identical seeded call sequence."""

import collections
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
from array import array

from . import tiers
from . import workloads as wl
from .probe import TimedCalls
from .reference import RefClient, background_cpu_s


class ServerProcess:
    """The server subprocess and its JSON-lines control channel."""

    def __init__(self, workload, seed, flags):
        self._proc = subprocess.Popen(
            [sys.executable, tiers.RUN_PY, "serve", workload.name, str(seed),
             *flags],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def _read(self):
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("ledger server exited unexpectedly")
        return json.loads(line)

    def ready(self):
        return self._read()

    def tell(self, command):
        self._proc.stdin.write(command + "\n")
        self._proc.stdin.flush()

    def ask(self, command):
        self.tell(command)
        return self._read()

    def stop(self):
        """Stop the server; returns its final report (None when it was
        already gone).  Always reaps the process."""
        proc, self._proc = self._proc, None
        if proc is None:
            return None
        final = None
        try:
            if proc.poll() is None:
                proc.stdin.write("stop\n")
                proc.stdin.flush()
                line = proc.stdout.readline()
                final = json.loads(line) if line else None
        except (OSError, ValueError):
            final = None
        finally:
            try:
                proc.stdin.close()
            except OSError:
                pass
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        return final


class ArgPool:
    """Argument objects and expected replies per ``(n, variant)``."""

    def __init__(self, stack, seed):
        self._stack, self._seed = stack, seed
        self._items = {}

    def items(self, pairs):
        out = []
        for pair in pairs:
            item = self._items.get(pair)
            if item is None:
                values = wl.make_values(self._seed, *pair)
                item = (self._stack.args_for(values),
                        [v + 1 for v in values])
                self._items[pair] = item
            out.append(item)
        return out


class TierRun:
    """One tier's transport, stub and tallies."""

    def __init__(self, name, transport, stack, window):
        self.name = name
        self.transport = transport
        self.stub = stack.stubs.XCHG_PROG_1_client(transport)
        self.xdr = stack.xdr
        self.window = window
        #: latencies of correct timed calls: as read, and scaled to the
        #: nominal host speed by the reference blocks beside them.
        self.raw = array("d")
        self.scaled = array("d")
        self.block_medians = []
        self.scaled_wall_s = 0.0
        self.cpu_s = 0.0
        self.server_cpu_s = 0.0
        #: calls sent, warm-up included: what the server's handler count
        #: must equal.
        self.attempted = 0
        self.failed = 0

    def run_block(self, items):
        """Drive one block; returns ``(latencies, replies, wall)``.
        Replies are checked by the caller, outside the timed spans."""
        if self.window > 1:
            return self._run_pipelined(items)
        from repro.errors import ReproError

        call = self.stub.SENDRECV
        clock = time.perf_counter
        latencies, replies = [], []
        started = clock()
        for args, _want in items:
            t0 = clock()
            try:
                reply = call(args)
            except ReproError:
                reply = None
            latencies.append(clock() - t0)
            replies.append(reply)
        return latencies, replies, clock() - started

    def _run_pipelined(self, items):
        """Sliding window: each completed call is replaced at once, so
        submit, flush, dispatch and demux overlap.  Latency is submit
        to ``result()``."""
        from repro.errors import ReproError

        submit = self.transport.call_async
        xdr, proc, depth = self.xdr, wl.PROC_SENDRECV, self.window
        clock = time.perf_counter
        latencies, replies = [], []
        window = collections.deque()
        total, submitted = len(items), 0
        started = clock()
        while len(replies) < total:
            while submitted < total and len(window) < depth:
                window.append((clock(),
                               submit(proc, items[submitted][0], xdr, xdr)))
                submitted += 1
            t0, pending = window.popleft()
            try:
                reply = pending.result(10.0)
            except ReproError:
                reply = None
            latencies.append(clock() - t0)
            replies.append(reply)
        return latencies, replies, clock() - started

    def p50_scaled(self):
        return statistics.median(self.scaled) if self.scaled else 0.0

    def account(self, items, latencies, replies, wall, cpu=0.0,
                server_cpu=0.0, speed=None):
        """Check every reply against ``v + 1``; keep the latencies of
        the calls that were right.  ``speed`` is the block's host-speed
        factor (None for untimed warm-up)."""
        good = []
        for (_args, want), latency, reply in zip(items, latencies, replies):
            if reply is not None and reply.vals == want:
                good.append(latency)
            else:
                self.failed += 1
        self.attempted += len(items)
        if speed is None:
            return
        self.raw.extend(good)
        self.scaled.extend(latency * speed for latency in good)
        if good:
            self.block_medians.append(statistics.median(good) * speed)
        self.scaled_wall_s += wall * speed
        self.cpu_s += cpu
        self.server_cpu_s += server_cpu


class SpeedProbe:
    """The reference round trip as a reading of host speed.

    A reading counts only if the block it came from had the CPU to
    itself: while another thread of either process computes — an online
    build, a poller — the reference waits for the interpreter lock as
    the tiers do, and its stretched round trip would divide the
    program's own background work out of the tiers' times.  Such a
    reading is discarded and the last good one stands (before the first
    good one: the nominal round trip, i.e. times go unscaled)."""

    #: share of a block's wall time that threads other than the
    #: reference's two may spend computing; a clean block reads 0.5-2%
    #: (the control channel), one that overlaps a build 70% and more.
    MAX_BACKGROUND = 0.10

    def __init__(self, ref, server):
        self._ref, self._server = ref, server
        self.rtt = ref.nominal
        self.accepted = []
        self.discarded = 0

    def read(self, snap):
        """One reference block after server snapshot ``snap``; returns
        the snapshot taken after it."""
        own = background_cpu_s()
        started = time.perf_counter()
        rtt = self._ref.block()
        wall = time.perf_counter() - started
        after = self._server.ask("snap")
        background = (background_cpu_s() - own + after["background_cpu_s"]
                      - snap["background_cpu_s"])
        if background <= self.MAX_BACKGROUND * wall:
            self.rtt = rtt
            self.accepted.append(rtt)
        else:
            self.discarded += 1
        return after


def requests_identical(stack, seed, workload, generic, spec):
    """Call bytes of the two clients agree for every size sent."""
    for index, n in enumerate(workload.sizes()):
        xid = 0x7E000000 + index
        want = tiers.canonical_request(stack, seed, n, xid, generic)
        if tiers.canonical_request(stack, seed, n, xid, spec) != want:
            return False
    return True


def _iqr_share(values):
    if len(values) < 4:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _percentile(ordered, share):
    return ordered[min(len(ordered) - 1, int(len(ordered) * share))]


def measure(workload, seed, seconds, started_at, prebuilt=None,
            while_serving=None, corrupt=False, burn=False, quick=False):
    """Set up, warm up, drive both tiers for ``seconds``, tear down.

    ``prebuilt`` — ``(stack, client_spec)`` from the traced pass, which
    has already built them with its stage timers on.
    ``while_serving(ports)`` — extra live readings taken against the
    NULLPROC servers before the server stops.  ``corrupt`` and ``burn``
    are self-test hooks (a flipped reply bit; a spinning thread in both
    processes).  Returns the result dict
    (end-to-end metrics, live per-layer readings, checks).
    """
    flags = [name for name, on in (("quick", quick),
                                   ("null", while_serving is not None),
                                   ("corrupt", corrupt),
                                   ("burn", burn)) if on]
    before_s = time.perf_counter() - started_at
    reps = 1 if prebuilt else workload.setup_reps
    rep_s = []
    server = None
    try:
        for _ in range(reps):
            if server is not None:
                server.stop()
            rep_started = time.perf_counter()
            server = ServerProcess(workload, seed, flags)
            if prebuilt:
                # the traced pass checked its own build for coldness
                (stack, client_spec), cold = prebuilt, True
            else:
                stack = tiers.Stack()
                client_spec = (None if workload.online
                               else stack.spec_client(workload.n))
                cold = stack.cold_and_verified()
            ready = server.ready()
            rep_s.append(time.perf_counter() - rep_started)
        ready["cold_and_verified"] &= cold
        if burn:
            tiers.burn_cpu()  # the server's own started with its flag
        return _drive(workload, seed, seconds, server, ready, stack,
                      client_spec, before_s + statistics.median(rep_s),
                      while_serving)
    finally:
        if server is not None:
            server.stop()


def _drive(workload, seed, seconds, server, ready, stack, client_spec,
           setup_so_far, while_serving):
    after_started = time.perf_counter()
    checks = {
        "replies_identical": ready["replies_identical"],
        "cold_and_verified": ready["cold_and_verified"],
    }
    with contextlib.ExitStack() as cleanup:
        runs = []
        for name, fastpath in (("generic", False), ("spec", True)):
            transport = tiers.make_client(
                workload.transport, ready["ports"][name], fastpath,
                workload.window)
            cleanup.callback(transport.close)
            runs.append(TierRun(name, transport, stack, workload.window))
        ref = RefClient(tiers.HOST, ready["ports"]["ref"], workload.n,
                        workload.window)
        cleanup.callback(ref.close)
        if client_spec is not None:
            client_spec.install(runs[1].transport)
        checks["requests_identical"] = requests_identical(
            stack, seed, workload, runs[0].transport, runs[1].transport
        )
        plan = wl.CallPlan(workload, seed)
        pool = ArgPool(stack, seed)
        warm = pool.items(plan.take(min(500, 2 * workload.block)))
        for run in runs:
            latencies, replies, wall = run.run_block(warm)
            run.account(warm, latencies, replies, wall)
        online = codec = builds = None
        if workload.online:
            # a fully generic start: both ends begin profiling only now,
            # so convergence is paid inside the timed part
            builds = cleanup.enter_context(
                TimedCalls(stack.pipeline, "specialize_client"))
            online = stack.online()
            codec = online.attach_client(runs[1].transport, wl.PROC_NAME)
            cleanup.callback(online.stop)
            online.start()
            server.tell("attach")
        setup_s = setup_so_far + (time.perf_counter() - after_started)

        converge = {"server": 0, "client": 0}
        probe = SpeedProbe(ref, server)
        snap = probe.read(server.ask("snap"))
        deadline = time.perf_counter() + seconds
        blocks = 0
        while time.perf_counter() < deadline:
            items = pool.items(plan.take(workload.block))
            for run in (runs if blocks % 2 == 0 else runs[::-1]):
                rtt_before = probe.rtt
                cpu0 = time.process_time()
                latencies, replies, wall = run.run_block(items)
                cpu = time.process_time() - cpu0
                after = server.ask("snap")
                server_cpu = after["cpu_s"] - snap["cpu_s"]
                snap = probe.read(after)
                # host speed during the block: the reference readings
                # on either side of it
                speed = ref.nominal / ((rtt_before + probe.rtt) / 2)
                run.account(items, latencies, replies, wall, cpu,
                            server_cpu, speed)
            blocks += 1
            timed_spec = runs[1].attempted - len(warm)
            if not converge["server"] and after["promotions"]:
                converge["server"] = timed_spec
            if online and not converge["client"] and online.promotions:
                converge["client"] = timed_spec
        live = _live_readings(runs, online, codec, converge)
        live["loadgen.ref_rtt_us"] = statistics.median(
            probe.accepted or [ref.nominal]) * 1e6
        live["loadgen.ref_discarded_pct"] = (
            100.0 * probe.discarded / (probe.discarded + len(probe.accepted)))
        live["specialized.online.build_s"] = builds.seconds if builds else 0.0
        if while_serving is not None:
            live.update(while_serving(ready["ports"]))
    final = server.stop()
    if final is None:
        raise RuntimeError("ledger server gave no final report")
    checks["replies_identical"] &= final["replies_identical"]
    checks["verify_enabled"] = final["verify_enabled"]
    checks["handlers_equal_xids"] = all(
        final["handlers"][run.name] == run.attempted for run in runs
    )
    checks["replies_correct"] = all(run.failed == 0 for run in runs)
    own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    end_to_end = {"setup_s": setup_s,
                  "peak_rss_mb": (own_rss + final["maxrss_kb"]) / 1024.0}
    for run in runs:
        end_to_end[run.name + "_p50_us"] = run.p50_scaled() * 1e6
        end_to_end[run.name + "_calls_per_s"] = (
            len(run.scaled) / run.scaled_wall_s if run.scaled else 0.0)
    drc = final["drc"]["spec"]
    lookups = drc["hits"] + drc["misses"]
    live["rpc.drc.hit_ratio"] = drc["hits"] / lookups if lookups else 0.0
    for key in ("promotions", "respecializations", "demotions", "build_s"):
        live["specialized.online." + key] += final["online"][key]
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    live["loadgen.failed_frac"] = failed / attempted
    return {
        "end_to_end": end_to_end,
        "live": live,
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "blocks": blocks,
    }


def _live_readings(runs, online, codec, converge):
    """Per-layer readings only the socket run can give."""
    live = {}
    for run in runs:
        ordered = sorted(run.scaled)
        calls = max(1, len(ordered))
        live["loadgen.p99_us." + run.name] = (
            _percentile(ordered, 0.99) * 1e6 if ordered else 0.0)
        live["loadgen.raw_p50_us." + run.name] = (
            statistics.median(run.raw) * 1e6 if ordered else 0.0)
        live["loadgen.client_cpu_us_per_call." + run.name] = (
            run.cpu_s / calls * 1e6)
        live["loadgen.server_cpu_us_per_call." + run.name] = (
            run.server_cpu_s / calls * 1e6)
    generic, spec = (run.p50_scaled() for run in runs)
    live["loadgen.speedup_p50"] = generic / spec if spec else 0.0
    live["loadgen.block_spread_pct"] = (
        100.0 * _iqr_share(runs[0].block_medians))
    spec_transport = runs[1].transport
    batches = getattr(spec_transport, "batches_sent", 0)
    live["rpc.mux.avg_batch"] = (
        spec_transport.messages_batched / batches if batches else 0.0)
    live["rpc.mux.retransmissions"] = sum(
        getattr(run.transport, "retransmissions", 0) for run in runs)
    live["specialized.online.converge_calls.server"] = converge["server"]
    live["specialized.online.converge_calls.client"] = converge["client"]
    guarded = (codec.hits + codec.violations) if codec else 0
    live["specialized.online.guard_miss_share"] = (
        codec.violations / guarded if guarded else 0.0)
    for key in ("promotions", "respecializations", "demotions"):
        live["specialized.online." + key] = (
            getattr(online, key) if online else 0)
    return live
