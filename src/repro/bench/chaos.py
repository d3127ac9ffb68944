"""``chaos`` report — the end-to-end resilience soak.

Thousands of calls are driven through a :class:`~repro.rpc.resilience.
FailoverClient` against three replicated UDP servers while the harness
injects a hostile schedule: 20% datagram loss in each direction (plus
duplicates), two abrupt kill/restart cycles, one graceful drain, and a
queue-overflow burst.  The run then *proves* the resilience
guarantees rather than eyeballing them:

* every call resolves — a value or a typed :class:`~repro.errors.
  RpcError` — within its deadline budget (nothing hangs, nothing
  leaks an untyped exception);
* per server incarnation, handler invocations equal unique accepted
  requests (``handlers_invoked == drc.stores == len(drc)`` with zero
  evictions): retransmissions and queued duplicates never re-execute
  a handler.  Re-execution after a *restart* (the reply cache dies
  with the process) is the documented at-least-once window;
* no stack trace escapes a server thread (``threading.excepthook``
  stays silent and no ERROR-level log records appear);
* overload is answered, not dropped: the burst phase observes
  queue-full sheds and every shed call still resolves typed.

Results go to ``BENCH_chaos.json``; the run fails loudly (raises
``AssertionError``) on any invariant violation so CI catches
regressions.  ``--calls`` / ``--seed`` (``python -m repro.bench chaos
--calls 400``) override the soak size and the fault dice.

``engine="mux"`` (CLI: ``python -m repro.bench chaos_mux`` →
``BENCH_chaos_mux.json``) runs the identical schedule, against the
same :class:`~repro.rpc.UdpServer` replicas, through the concurrent
call engine: the failover client builds
:class:`~repro.rpc.MuxUdpClient` endpoints (many in-flight xids per
socket), and the burst phase keeps ~36 async calls in flight *per
client* instead of a thread per call — proving that pipelining and
batching preserve the exactly-once-per-incarnation DRC proof and the
typed-resolution guarantee.
"""

import platform
import threading
import time

from repro.bench.report import format_table
from repro.bench.soak import (
    TracebackWatch,
    finish,
    health_of,
    percentile,
    uniqueness_violations,
)
from repro.errors import RpcError
from repro.rpc import (
    FailoverClient,
    FaultPlan,
    MuxUdpClient,
    STATUS_DRAINING,
    SvcRegistry,
    UdpClient,
    UdpServer,
)
from repro.xdr import xdr_u_long

DEFAULT_JSON = "BENCH_chaos.json"
MUX_JSON = "BENCH_chaos_mux.json"
DEFAULT_CALLS = 1000
DEFAULT_SEED = 0xC4A05
REPLICAS = 3
LOSS_RATE = 0.20
DUPLICATE_RATE = 0.10
#: per-call end-to-end budget; every call must resolve within it
CALL_BUDGET_S = 5.0
#: slack allowed on top of the budget for scheduler noise
BUDGET_GRACE_S = 0.5

PROG = 0x20091234
VERS = 1
PROC_INC = 1
PROC_SLEEP = 2
SLEEP_S = 0.02

#: ample reply-cache capacity: zero evictions keeps the per-
#: incarnation uniqueness proof exact (stores == entries)
DRC_CAPACITY = 4096
WORKERS = 2
QUEUE_DEPTH = 32


class Replica:
    """One restartable server replica on a stable port."""

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.port = 0
        self.incarnation = 0
        self.server = None
        self.registry = None
        #: per-incarnation invariant records, one dict per lifetime
        self.incarnations = []

    def start(self):
        """(Re)start with a fresh registry — and a fresh reply cache,
        which is exactly the documented at-least-once window."""
        self.incarnation += 1
        registry = SvcRegistry(fastpath=True)
        registry.enable_drc(DRC_CAPACITY)
        registry.install_health()
        registry.register(PROG, VERS, PROC_INC,
                          lambda value: (value + 1) & 0xFFFFFFFF,
                          xdr_args=xdr_u_long, xdr_res=xdr_u_long)

        def slow(value):
            time.sleep(SLEEP_S)
            return value

        registry.register(PROG, VERS, PROC_SLEEP, slow,
                          xdr_args=xdr_u_long, xdr_res=xdr_u_long)
        plan = FaultPlan(seed=self.seed + self.incarnation,
                         drop=LOSS_RATE, duplicate=DUPLICATE_RATE)
        self.registry = registry
        self.server = UdpServer(
            registry, port=self.port, fastpath=True, drc=True,
            fault_plan=plan, workers=WORKERS, queue_depth=QUEUE_DEPTH,
        )
        self.port = self.server.port
        self.server.start()
        return self

    def _snapshot(self, kind):
        registry, server = self.registry, self.server
        drc = registry.drc
        record = {
            "replica": self.name,
            "incarnation": self.incarnation,
            "ended_by": kind,
            "handlers_invoked": registry.handlers_invoked,
            "drc": drc.summary(),
            "drc_entries": len(drc),
            "sheds": registry.sheds,
            "requests_handled": server.requests_handled,
            "requests_shed": server.requests_shed,
            "worker_errors": (server._pool.worker_errors
                              if server._pool else 0),
        }
        record["violations"] = uniqueness_violations(
            record["handlers_invoked"], record["drc"], record["drc_entries"]
        )
        if record["worker_errors"]:
            record["violations"].append(
                f"{record['worker_errors']} exceptions escaped into the"
                f" worker pool"
            )
        return record

    def kill(self):
        """Abrupt stop (crash): no drain, in-flight work is abandoned
        and the reply cache is lost."""
        record = self._snapshot("kill")
        self.incarnations.append(record)
        self.server.stop()
        return record

    def drain(self, timeout=5.0):
        """Graceful drain: finish in-flight work, keep answering DRC
        replays and health checks, shed everything else."""
        drained = self.server.drain(timeout)
        record = self._snapshot("drain")
        record["drained_idle"] = drained
        if not drained:
            record["violations"].append(
                "drain timed out with requests still in flight"
            )
        self.incarnations.append(record)
        return record

    def stop(self):
        if self.server is None:
            return None
        record = self._snapshot("stop")
        self.incarnations.append(record)
        self.server.stop()
        self.server = None
        return record


def _burst_phase(replica, seed, threads=None, calls_per_thread=3):
    """Overload one replica past its queue bound with slow calls.

    Demonstrates load *shedding*: the server answers the overflow with
    SYSTEM_ERR (clients see a typed ``RpcDeniedError`` immediately)
    instead of letting it time out against a silent queue.
    """
    if threads is None:
        # Strictly more concurrency than the server can hold (queue
        # slots + executing workers), or nothing ever overflows.
        threads = QUEUE_DEPTH + WORKERS + 14
    results = []
    lock = threading.Lock()

    def worker(worker_index):
        client = UdpClient("127.0.0.1", replica.port, PROG, VERS,
                           timeout=CALL_BUDGET_S, wait=0.05, jitter=0.0)
        try:
            for i in range(calls_per_thread):
                started = time.perf_counter()
                try:
                    client.call(PROC_SLEEP, worker_index * 100 + i,
                                xdr_args=xdr_u_long, xdr_res=xdr_u_long)
                    outcome = "ok"
                except RpcError as exc:
                    outcome = type(exc).__name__
                except Exception as exc:  # untyped = invariant breach
                    outcome = f"UNTYPED:{type(exc).__name__}"
                elapsed = time.perf_counter() - started
                with lock:
                    results.append((outcome, elapsed))
        finally:
            client.close()

    pool = [threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=60.0)
    outcomes = {}
    for outcome, _ in results:
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    violations = []
    if len(results) != threads * calls_per_thread:
        violations.append(
            f"burst: {threads * calls_per_thread - len(results)} calls"
            f" never resolved"
        )
    for outcome, elapsed in results:
        if outcome.startswith("UNTYPED"):
            violations.append(f"burst: untyped error {outcome}")
        if elapsed > CALL_BUDGET_S + BUDGET_GRACE_S:
            violations.append(
                f"burst: call took {elapsed:.2f}s > budget"
            )
    return {
        "threads": threads,
        "calls": len(results),
        "outcomes": outcomes,
        "server_sheds": replica.registry.sheds,
        "violations": violations,
    }


def _mux_burst_phase(replica, seed, clients=4, calls_per_client=36):
    """Overload one replica with *pipelined* slow calls.

    The threaded burst needs ~48 threads to hold 144 calls against the
    server; the mux burst holds the same load with 4 sockets, each
    carrying ``calls_per_client`` in-flight xids.  Same invariants:
    every call resolves (value or typed error) within budget, and the
    overflow is answered with sheds, not silence.
    """
    muxes = [
        MuxUdpClient("127.0.0.1", replica.port, PROG, VERS,
                     timeout=CALL_BUDGET_S, wait=0.05, jitter=0.0,
                     max_inflight=calls_per_client)
        for _ in range(clients)
    ]
    results = []
    violations = []
    try:
        pending = []
        for client_index, client in enumerate(muxes):
            for i in range(calls_per_client):
                pending.append(client.call_async(
                    PROC_SLEEP, client_index * 100 + i,
                    xdr_args=xdr_u_long, xdr_res=xdr_u_long,
                ))
        for call in pending:
            try:
                call.result(CALL_BUDGET_S + BUDGET_GRACE_S + 5.0)
                outcome = "ok"
            except RpcError as exc:
                outcome = type(exc).__name__
            except Exception as exc:  # untyped = invariant breach
                outcome = f"UNTYPED:{type(exc).__name__}"
            results.append((outcome, call.stats.elapsed_s))
    finally:
        for client in muxes:
            client.close()
    outcomes = {}
    for outcome, _ in results:
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    expected = clients * calls_per_client
    if len(results) != expected:
        violations.append(
            f"mux burst: {expected - len(results)} calls never resolved"
        )
    for outcome, elapsed in results:
        if outcome.startswith("UNTYPED"):
            violations.append(f"mux burst: untyped error {outcome}")
        if elapsed > CALL_BUDGET_S + BUDGET_GRACE_S:
            violations.append(
                f"mux burst: call took {elapsed:.2f}s > budget"
            )
    return {
        "clients": clients,
        "inflight_per_client": calls_per_client,
        "calls": len(results),
        "outcomes": outcomes,
        "server_sheds": replica.registry.sheds,
        "violations": violations,
    }


def run_mux(workload=None, calls=DEFAULT_CALLS, seed=DEFAULT_SEED,
            json_path=MUX_JSON):
    """The chaos soak over the mux stack (CLI: ``chaos_mux``)."""
    return run(workload, calls=calls, seed=seed, json_path=json_path,
               engine="mux")


def run(workload=None, calls=DEFAULT_CALLS, seed=DEFAULT_SEED,
        json_path=DEFAULT_JSON, engine="threaded"):
    """Run the chaos soak, print the verdict table, write the JSON
    report, and raise ``AssertionError`` on any invariant violation.

    ``workload`` is accepted (and ignored) for CLI uniformity.
    ``engine`` selects the client stack under test: ``"threaded"``
    (serial clients) or ``"mux"`` (pipelined clients); the replicas
    are the same either way.
    """
    del workload
    if engine not in ("threaded", "mux"):
        raise ValueError(f"unknown engine {engine!r}")
    replicas = [Replica(f"r{i}", seed=seed + 1000 * i).start()
                for i in range(REPLICAS)]
    # The chaos schedule, by call index: two abrupt kill/restart
    # cycles on r0 and r1, one graceful drain of r2 that is never
    # lifted (it keeps answering health + DRC replays only).
    events = {
        max(1, int(calls * 0.15)): ("kill", 0),
        max(2, int(calls * 0.30)): ("restart", 0),
        max(3, int(calls * 0.45)): ("kill", 1),
        max(4, int(calls * 0.60)): ("restart", 1),
        max(5, int(calls * 0.75)): ("drain", 2),
    }
    client_plan = FaultPlan(seed=seed + 7, drop=LOSS_RATE,
                            duplicate=DUPLICATE_RATE)
    outcomes = {}
    latencies = []
    violations = []
    event_log = []
    health_after_drain = None
    started_all = time.perf_counter()
    with TracebackWatch() as watch:
        if engine == "mux":
            burst = _mux_burst_phase(replicas[0], seed)
        else:
            burst = _burst_phase(replicas[0], seed)
        violations.extend(burst["violations"])
        if not burst["server_sheds"]:
            violations.append(
                "burst: overload produced zero sheds — queue bound"
                " not exercised"
            )
        client = FailoverClient(
            [("127.0.0.1", replica.port) for replica in replicas],
            PROG, VERS, transport="mux-udp" if engine == "mux" else "udp",
            call_budget_s=CALL_BUDGET_S,
            breaker_threshold=3, breaker_recovery_s=0.3,
            retry_pause_s=0.01,
            timeout=0.4, wait=0.01, max_wait=0.1, jitter=0.25,
            retrans_seed=seed, fault_plan=client_plan,
        )
        try:
            for i in range(calls):
                event = events.get(i)
                if event is not None:
                    action, target = event
                    replica = replicas[target]
                    if action == "kill":
                        replica.kill()
                    elif action == "restart":
                        replica.start()
                    elif action == "drain":
                        replica.drain()
                        health_after_drain = health_of(replica.port)
                    event_log.append(
                        {"call": i, "action": action,
                         "replica": replica.name}
                    )
                call_started = time.perf_counter()
                try:
                    value = client.call(PROC_INC, i, xdr_args=xdr_u_long,
                                        xdr_res=xdr_u_long)
                    outcome = ("ok" if value == (i + 1) & 0xFFFFFFFF
                               else "wrong_value")
                except RpcError as exc:
                    outcome = type(exc).__name__
                except Exception as exc:
                    outcome = f"UNTYPED:{type(exc).__name__}"
                elapsed = time.perf_counter() - call_started
                latencies.append(elapsed)
                outcomes[outcome] = outcomes.get(outcome, 0) + 1
                if outcome.startswith("UNTYPED") or \
                        outcome == "wrong_value":
                    violations.append(f"call {i}: {outcome}")
                if elapsed > CALL_BUDGET_S + BUDGET_GRACE_S:
                    violations.append(
                        f"call {i}: {elapsed:.2f}s exceeded the"
                        f" {CALL_BUDGET_S}s budget"
                    )
            client_stats = client.stats_summary()
        finally:
            client.close()
        for replica in replicas:
            replica.stop()
    elapsed_all = time.perf_counter() - started_all
    if health_after_drain != STATUS_DRAINING:
        violations.append(
            f"drained replica reported health {health_after_drain!r},"
            f" expected STATUS_DRAINING ({STATUS_DRAINING})"
        )
    incarnations = [record for replica in replicas
                    for record in replica.incarnations]
    for record in incarnations:
        violations.extend(
            f"{record['replica']}#{record['incarnation']}: {violation}"
            for violation in record["violations"]
        )
    violations.extend(f"escaped traceback: {entry}"
                      for entry in watch.escaped)
    resolved = sum(outcomes.values())
    if resolved != calls:
        violations.append(f"only {resolved}/{calls} calls resolved")
    passed = not violations
    latencies.sort()
    results = {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "calls": calls,
            "seed": seed,
            "engine": engine,
            "replicas": REPLICAS,
            "loss": LOSS_RATE,
            "duplicate_rate": DUPLICATE_RATE,
            "call_budget_s": CALL_BUDGET_S,
            "elapsed_s": elapsed_all,
        },
        "burst": burst,
        "events": event_log,
        "outcomes": outcomes,
        "latency": {
            "p50_ms": percentile(latencies, 0.50) * 1e3,
            "p99_ms": percentile(latencies, 0.99) * 1e3,
            "max_ms": percentile(latencies, 1.0) * 1e3,
        },
        "client": client_stats,
        "health_after_drain": health_after_drain,
        "incarnations": incarnations,
        "escaped_tracebacks": watch.escaped,
        "violations": violations,
        "passed": passed,
    }
    rows = [
        ("calls resolved", f"{resolved}/{calls}"),
        ("ok", outcomes.get("ok", 0)),
        ("typed errors", resolved - outcomes.get("ok", 0)),
        ("failovers", client_stats["failovers"]),
        ("p50 / p99 / max ms",
         f"{results['latency']['p50_ms']:.1f} /"
         f" {results['latency']['p99_ms']:.1f} /"
         f" {results['latency']['max_ms']:.0f}"),
        ("burst sheds", burst["server_sheds"]),
        ("incarnations checked", len(incarnations)),
        ("escaped tracebacks", len(watch.escaped)),
        ("violations", len(violations)),
        ("verdict", "PASS" if passed else "FAIL"),
    ]
    print(format_table(
        f"Chaos soak ({engine}) — {calls} calls, {REPLICAS} replicas,"
        f" {int(LOSS_RATE * 100)}% loss, 2 kills, 1 drain",
        ("invariant", "value"),
        rows,
        note=f"seed {seed:#x}; per-incarnation proof:"
             f" handlers_invoked == drc stores == drc entries,"
             f" zero evictions",
    ))
    return finish("chaos", results, json_path)
