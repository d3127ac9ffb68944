"""Overload soak — metastability with and without end-to-end control.

The classic metastable failure: a transient slowdown (a latency spike
on the reply path) builds a queue of requests whose callers have
already given up.  An *uncontrolled* stack — deep FIFO queue, no
deadline propagation, clients retransmitting on a tight fixed clock —
keeps burning worker time on that doomed backlog after the fault
clears, so fresh requests queue behind garbage, miss their deadlines
in turn, and goodput stays collapsed long after the trigger is gone.

The *controlled* stack layers the four `repro.rpc.overload`
mechanisms on the same topology:

* **deadline propagation** — requests carry their remaining budget;
  the server drops doomed work before dispatch (cheap) instead of
  executing it (expensive);
* **retry budgets** — the client's retransmit clock is gated by a
  token bucket, so the fault window does not amplify offered load;
* **CoDel + LIFO-when-overloaded** — the server queue sheds on
  standing sojourn and serves newest-first while overloaded, so
  fresh work meets its deadline while the backlog is drained at
  drop cost, not execution cost;
* **hedged requests** — a `FailoverClient` probe races both replicas
  after an adaptive latency trigger; the xid discipline plus the DRC
  keep duplicate executions at exactly zero.

Both stacks run the same open-loop workload (fixed arrival rate —
arrivals do not slow down when the server does, which is what makes
collapse self-sustaining) against two replicas, with a timed latency
spike injected mid-run via ``FaultPlan.begin_spike``.  Goodput is
bucketed by *send time* so an outcome is attributed to the instant
the load was offered.

Hard floors (asserted, controlled stack only):

* recovery goodput (last two buckets) >= 80% of pre-fault goodput;
* doomed-work drops > 0 (propagation actually saved execution time);
* hedge attempts > 0 and, on every replica of *both* stacks,
  ``handlers_invoked == drc.stores`` with zero evictions — no
  duplicate handler execution under retransmission or hedging;
* no stack trace escapes a server thread.

The uncontrolled stack's recovery ratio is reported for contrast but
not asserted — staying collapsed is the expected (bad) behavior.

CLI: ``python -m repro.bench overload`` -> ``BENCH_overload.json``.
``--calls`` scales the run (default 1350 offered calls per stack at a
fixed 150/s — nine seconds per stack); ``--seed`` reseeds its fault
plans.
"""

from __future__ import annotations

import platform
import time

from repro.bench.report import format_table
from repro.bench.soak import TracebackWatch, finish, uniqueness_violations
from repro.errors import RpcError
from repro.rpc import (
    FailoverClient,
    FaultPlan,
    HedgeTrigger,
    MuxUdpClient,
    RetryBudget,
    SvcRegistry,
    UdpServer,
)
from repro.xdr import xdr_u_long

PROG = 0x20011BEB
VERS = 1
PROC_WORK = 1

#: handler service time — the unit of work doomed requests waste
HANDLER_SLEEP_S = 0.02
WORKERS = 2
#: deep enough that the uncontrolled stack's only defense is the queue
QUEUE_DEPTH = 4096
DRC_CAPACITY = 4096
REPLICAS = 2

#: open-loop offered rate, split round-robin across replicas
RATE_PER_S = 150.0
#: per-call deadline (client budget; propagated on the controlled stack)
DEADLINE_S = 0.8
#: reply-path latency spike injected during the fault phase
SPIKE_DELAY_S = 0.35

#: phase split of the offered calls: warm / spike / recovery
PHASE_FRACTIONS = (3 / 9, 2 / 9, 4 / 9)
PHASE_BUCKETS = (3, 2, 4)
PHASE_NAMES = ("warm", "spike", "recovery")

#: closed-loop hedged calls raced across both replicas post-recovery
HEDGE_PROBES = 40

RECOVERY_FLOOR = 0.80
DEFAULT_CALLS = 1350
MIN_CALLS = 450
DEFAULT_SEED = 42
DEFAULT_JSON = "BENCH_overload.json"


class Replica:
    """One UDP replica: DRC-backed registry, worker pool, and a clean
    fault plan used only for the timed spike phase."""

    def __init__(self, name, seed, controlled):
        self.name = name
        self.controlled = controlled
        registry = SvcRegistry(fastpath=True)
        registry.enable_drc(DRC_CAPACITY)
        registry.install_health()

        def work(value):
            time.sleep(HANDLER_SLEEP_S)
            return (value + 1) & 0xFFFFFFFF

        registry.register(PROG, VERS, PROC_WORK, work,
                          xdr_args=xdr_u_long, xdr_res=xdr_u_long)
        self.registry = registry
        self.plan = FaultPlan(seed=seed)
        self.server = UdpServer(
            registry, fastpath=True, drc=True, fault_plan=self.plan,
            workers=WORKERS, queue_depth=QUEUE_DEPTH,
            queue_policy=("codel-lifo" if controlled else "fifo"),
            queue_target_s=0.005, queue_interval_s=0.05,
        )
        self.port = self.server.port
        self.server.start()

    def snapshot(self):
        drc = self.registry.drc.summary()
        return {
            "name": self.name,
            "handlers_invoked": self.registry.handlers_invoked,
            "doomed_dropped": self.registry.doomed_dropped,
            "requests_shed": self.server.requests_shed,
            "sojourn_sheds": getattr(self.server._pool, "sojourn_shed", 0),
            "drc": drc,
        }

    def violations(self):
        drc = self.registry.drc
        return [f"{self.name}: {found}" for found in uniqueness_violations(
            self.registry.handlers_invoked, drc.summary(), len(drc))]

    def stop(self):
        self.server.stop()


def _phase_plan(calls):
    """Bucket boundaries: ``[(phase, start_s, end_s), ...]``."""
    total = calls / RATE_PER_S
    plan = []
    offset = 0.0
    for name, fraction, count in zip(PHASE_NAMES, PHASE_FRACTIONS,
                                     PHASE_BUCKETS):
        duration = total * fraction
        width = duration / count
        for _ in range(count):
            plan.append((name, offset, offset + width))
            offset += width
    # float drift: pin the final edge so bucket_of never misses
    plan[-1] = (plan[-1][0], plan[-1][1], total + 1.0)
    return plan


def _bucket_of(plan, t):
    for index, (_, start, end) in enumerate(plan):
        if start <= t < end:
            return index
    return len(plan) - 1


def _drive(clients, replicas, calls, plan):
    """Open-loop driver: fire ``calls`` at RATE_PER_S round-robin
    across replicas, spike both reply paths during the spike phase,
    classify every outcome by its send-time bucket."""
    buckets = [{"sent": 0, "ok": 0, "errors": {}} for _ in plan]
    pending = []
    warm_end = plan[PHASE_BUCKETS[0]][1]
    spike_end = plan[PHASE_BUCKETS[0] + PHASE_BUCKETS[1]][1]
    spike_started = False
    interval = 1.0 / RATE_PER_S
    started = time.monotonic()
    for i in range(calls):
        at = started + i * interval
        now = time.monotonic()
        if at > now:
            time.sleep(at - now)
        t = time.monotonic() - started
        if not spike_started and t >= warm_end:
            for replica in replicas:
                replica.plan.begin_spike(
                    SPIKE_DELAY_S, duration_s=spike_end - t)
            spike_started = True
        bucket = _bucket_of(plan, t)
        buckets[bucket]["sent"] += 1
        client = clients[i % len(clients)]
        try:
            call = client.call_async(PROC_WORK, i, xdr_args=xdr_u_long,
                                     xdr_res=xdr_u_long,
                                     deadline=DEADLINE_S)
        except RpcError as exc:
            errors = buckets[bucket]["errors"]
            name = type(exc).__name__
            errors[name] = errors.get(name, 0) + 1
            continue
        pending.append((bucket, call))
    # Drain: the engine resolves every pending call by its hard end;
    # the generous timeout only guards against a wedged loop.
    for bucket, call in pending:
        try:
            call.result(DEADLINE_S + 10.0)
            buckets[bucket]["ok"] += 1
        except RpcError as exc:
            errors = buckets[bucket]["errors"]
            name = type(exc).__name__
            errors[name] = errors.get(name, 0) + 1
    return buckets


def _hedge_probe(replicas):
    """Closed-loop hedged calls racing both replicas: the pre-warmed
    trigger fires well inside the handler's service time, so nearly
    every call runs as a two-replica race — the strongest duplicate-
    execution stress the client can generate."""
    # max_delay_s pins the trigger at 5 ms — well inside the 20 ms
    # handler — so every probe hedges instead of only the first few
    # (the adaptive quantile would otherwise learn the true p95 and
    # correctly stop racing a healthy replica).
    trigger = HedgeTrigger(min_samples=1, min_delay_s=0.005,
                           max_delay_s=0.005)
    for _ in range(16):
        trigger.observe(0.005)
    endpoints = [("127.0.0.1", replica.port) for replica in replicas]
    client = FailoverClient(endpoints, PROG, VERS, transport="mux-udp",
                            call_budget_s=2.0, hedge_trigger=trigger,
                            timeout=2.0, wait=0.5, jitter=0.0)
    ok = 0
    try:
        for i in range(HEDGE_PROBES):
            try:
                client.call(PROC_WORK, i, xdr_args=xdr_u_long,
                            xdr_res=xdr_u_long)
                ok += 1
            except RpcError:
                pass
        # let losing racers resolve before the servers go away
        time.sleep(0.3)
        return {"probes": HEDGE_PROBES, "ok": ok,
                "hedges": client.hedges, "hedge_wins": client.hedge_wins}
    finally:
        client.close()


def _run_stack(controlled, calls, seed):
    name = "controlled" if controlled else "uncontrolled"
    plan = _phase_plan(calls)
    replicas = [Replica(f"{name}-r{i}", seed=seed + 100 * i,
                        controlled=controlled)
                for i in range(REPLICAS)]
    clients = []
    for replica in replicas:
        if controlled:
            # budgeted exponential retransmit + propagated deadlines
            clients.append(MuxUdpClient(
                "127.0.0.1", replica.port, PROG, VERS,
                max_inflight=QUEUE_DEPTH, timeout=DEADLINE_S,
                wait=0.1, backoff=2.0, max_wait=0.4, jitter=0.0,
                retry_budget=RetryBudget(ratio=0.2, burst=10.0),
                propagate_deadline=True))
        else:
            # fixed 50 ms retransmit clock, no budget, no propagation:
            # the fault window multiplies offered load unchecked
            clients.append(MuxUdpClient(
                "127.0.0.1", replica.port, PROG, VERS,
                max_inflight=QUEUE_DEPTH, timeout=DEADLINE_S,
                wait=0.05, backoff=1.0, max_wait=0.05, jitter=0.0))
    hedge = None
    try:
        buckets = _drive(clients, replicas, calls, plan)
        if controlled:
            hedge = _hedge_probe(replicas)
    finally:
        for client in clients:
            client.close()
    violations = []
    for replica in replicas:
        replica.stop()
        violations.extend(replica.violations())
    snapshots = [replica.snapshot() for replica in replicas]

    warm_n = PHASE_BUCKETS[0]
    total = calls / RATE_PER_S
    bucket_rates = []
    for (phase, start, end), bucket in zip(plan, buckets):
        width = min(end, total) - start
        bucket_rates.append(bucket["ok"] / width if width > 0 else 0.0)
    warm_goodput = sum(bucket_rates[:warm_n]) / warm_n
    tail = bucket_rates[-2:]
    recovery_goodput = sum(tail) / len(tail)
    ratio = (recovery_goodput / warm_goodput) if warm_goodput else 0.0
    return {
        "name": name,
        "buckets": [
            {"phase": phase, "start_s": round(start, 3),
             "sent": bucket["sent"], "ok": bucket["ok"],
             "goodput_per_s": round(rate, 2),
             "errors": bucket["errors"]}
            for (phase, start, _), bucket, rate
            in zip(plan, buckets, bucket_rates)
        ],
        "warm_goodput_per_s": round(warm_goodput, 2),
        "recovery_goodput_per_s": round(recovery_goodput, 2),
        "recovery_ratio": round(ratio, 4),
        "doomed_dropped": sum(s["doomed_dropped"] for s in snapshots),
        "sojourn_sheds": sum(s["sojourn_sheds"] for s in snapshots),
        "requests_shed": sum(s["requests_shed"] for s in snapshots),
        "hedge_probe": hedge,
        "replicas": snapshots,
        "violations": violations,
    }


def run(workload=None, calls=DEFAULT_CALLS, seed=DEFAULT_SEED,
        json_path=DEFAULT_JSON):
    """Run the overload soak, print the verdict table, write the JSON
    report, and raise ``AssertionError`` on any floor violation.

    ``workload`` is accepted (and ignored) for CLI uniformity.
    """
    del workload
    calls = max(calls, MIN_CALLS)
    violations = []
    started = time.perf_counter()
    with TracebackWatch() as watch:
        uncontrolled = _run_stack(False, calls, seed)
        controlled = _run_stack(True, calls, seed + 5000)
    elapsed = time.perf_counter() - started

    # Floors — controlled stack only; the uncontrolled collapse is the
    # phenomenon under study, not a failure of the bench.
    violations.extend(uncontrolled["violations"])
    violations.extend(controlled["violations"])
    if controlled["recovery_ratio"] < RECOVERY_FLOOR:
        violations.append(
            f"controlled stack failed to recover:"
            f" {controlled['recovery_goodput_per_s']}/s after the fault"
            f" vs {controlled['warm_goodput_per_s']}/s warm"
            f" (ratio {controlled['recovery_ratio']} <"
            f" {RECOVERY_FLOOR})"
        )
    if controlled["doomed_dropped"] <= 0:
        violations.append(
            "deadline propagation dropped zero doomed requests — the"
            " carrier or the pre-dispatch check is not wired through"
        )
    hedge = controlled["hedge_probe"] or {}
    if not hedge.get("hedges"):
        violations.append(
            "hedge probe issued zero hedged requests — the adaptive"
            " trigger never fired"
        )
    violations.extend(f"escaped: {item}" for item in watch.escaped)

    results = {
        "meta": {
            "bench": "overload",
            "calls_per_stack": calls,
            "rate_per_s": RATE_PER_S,
            "deadline_s": DEADLINE_S,
            "spike_delay_s": SPIKE_DELAY_S,
            "handler_sleep_s": HANDLER_SLEEP_S,
            "workers": WORKERS,
            "queue_depth": QUEUE_DEPTH,
            "replicas": REPLICAS,
            "seed": seed,
            "recovery_floor": RECOVERY_FLOOR,
            "elapsed_s": round(elapsed, 2),
            "python": platform.python_version(),
        },
        "stacks": {
            "uncontrolled": uncontrolled,
            "controlled": controlled,
        },
        "violations": violations,
        "passed": not violations,
    }

    rows = []
    for stack in (uncontrolled, controlled):
        rows.append((
            stack["name"],
            stack["warm_goodput_per_s"],
            stack["recovery_goodput_per_s"],
            stack["recovery_ratio"],
            stack["doomed_dropped"],
            stack["sojourn_sheds"],
            (stack["hedge_probe"] or {}).get("hedges", 0),
        ))
    print(format_table(
        f"Overload soak — {calls} calls/stack @ {RATE_PER_S:.0f}/s,"
        f" {SPIKE_DELAY_S * 1000:.0f} ms reply spike"
        f" ({elapsed:.1f}s)",
        ("stack", "warm/s", "recovery/s", "ratio", "doomed",
         "sojourn sheds", "hedges"),
        rows,
        note=(f"floors (controlled): recovery ratio >="
              f" {RECOVERY_FLOOR}, doomed drops > 0, hedges > 0,"
              f" handlers_invoked == drc stores on every replica"),
    ))
    phase_rows = []
    for name, stack in (("uncontrolled", uncontrolled),
                        ("controlled", controlled)):
        for bucket in stack["buckets"]:
            phase_rows.append((name, bucket["phase"],
                               bucket["start_s"], bucket["sent"],
                               bucket["ok"], bucket["goodput_per_s"]))
    print()
    print(format_table(
        "Goodput by send-time bucket",
        ("stack", "phase", "t0 (s)", "sent", "ok", "goodput/s"),
        phase_rows,
    ))

    return finish("overload", results, json_path)
