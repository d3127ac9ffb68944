"""Cluster soak — durable at-most-once across a multi-**process**
rolling restart (CLI: ``python -m repro.bench cluster``).

The chaos soak (:mod:`repro.bench.chaos`) kills threads; this soak
kills *processes*.  Five fleet nodes (:mod:`repro.bench.cluster_node`
subprocesses) serve a doubling procedure behind 20% reply loss, with
the full durability stack live on every node: DRC + write-ahead
journal (``fsync=always``), incarnation-fenced replication around a
ring, fleet membership heartbeating the orchestrator's in-process
directory, and per-caller quotas.  While load runs, every node is
rolling-restarted — four gracefully (SIGTERM: drain, flush, summary)
and one with ``SIGKILL`` (nothing gets to say goodbye) — and each
restarted incarnation recovers its predecessor's replies from the
journal before taking traffic.

Invariants (any violation raises ``AssertionError``):

* **zero duplicate handler executions across restart boundaries** —
  every node writes an ``O_APPEND`` execution witness from the DRC
  ``on_store`` chain (see :mod:`repro.bench.cluster_node` for why the
  log cannot over-count around a kill); afterwards every key must
  appear at most once across *all* logs of *all* incarnations;
* **restart replay** — a request answered by incarnation *k* and
  retransmitted byte-identically to incarnation *k+1* (same client
  socket, same xid) is answered byte-identically from the recovered
  journal, and the exec logs show one execution;
* **replica replay** — the same retransmission aimed at a ring
  *successor* is answered byte-identically from the replicated entry;
* **100% typed resolution** — every load call returns a value or a
  typed ``RpcError`` within its deadline; no hangs, no raw
  tracebacks;
* **quota** — a greedy burst from one socket is shed (answered
  ``SYSTEM_ERR``), while the well-behaved load is not starved;
* every graceful shutdown writes a summary whose per-incarnation
  counters satisfy the DRC uniqueness proof.

Results go to ``BENCH_cluster.json``.  ``--calls`` / ``--seed``
override the soak size and fault dice.
"""

import json
import os
import platform
import signal
import socket
import subprocess
import sys
import threading
import time

from repro.bench.cluster_node import PROC_DOUBLE, PROG, VERS
from repro.bench.report import format_table
from repro.bench.soak import finish, health_of, uniqueness_violations
from repro.errors import RpcError
from repro.rpc import STATUS_SERVING, FailoverClient, SvcRegistry, UdpServer
from repro.rpc.client import RpcClient
from repro.rpc.fleet import FleetDirectory, FleetWatcher
from repro.xdr import xdr_u_long

DEFAULT_JSON = "BENCH_cluster.json"
NODES = 5
DEFAULT_CALLS = 300
DEFAULT_SEED = 0xF1EE7
LOSS_RATE = 0.20
DUPLICATE_RATE = 0.10
CALL_BUDGET_S = 5.0
BUDGET_GRACE_S = 0.5
LOAD_THREADS = 3
#: quota knobs for the nodes: the paced load threads (~30 calls/s per
#: client socket at most) stay under the refill rate, while the greedy
#: probe's datagram blast burns the burst in well under a refill
#: second.  DRC replays are never charged, so loss-driven retransmits
#: do not count against anyone's bucket.
QUOTA_RATE = 50.0
QUOTA_BURST = 32.0
#: the well-behaved per-call pacing of the load threads (keeps each
#: client socket's arrival rate below QUOTA_RATE).
LOAD_PACE_S = 0.03


def _free_ports(count):
    """Reserve ``count`` distinct free UDP ports (bind, record, close).

    Fixed ports matter: a restarted node must come back at the *same*
    endpoint so retransmitted requests and replication pushes reach
    its new incarnation.
    """
    ports, socks = [], []
    for _ in range(count):
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind(("127.0.0.1", 0))
        socks.append(sock)
        ports.append(sock.getsockname()[1])
    for sock in socks:
        sock.close()
    return ports


class _Node:
    """One node subprocess and its restart bookkeeping."""

    def __init__(self, node_id, port, directory_port, peer_ports, workdir,
                 seed):
        self.node_id = node_id
        self.port = port
        self.directory_port = directory_port
        self.peer_ports = peer_ports
        self.workdir = workdir
        self.seed = seed
        self.incarnation = 0
        self.process = None
        self.summaries = []
        self.exec_log = os.path.join(workdir, f"node{node_id}.exec")
        self.drc_dir = os.path.join(workdir, f"node{node_id}-drc")

    def summary_path(self, incarnation):
        return os.path.join(self.workdir,
                            f"node{self.node_id}-inc{incarnation}.json")

    def start(self):
        self.incarnation += 1
        argv = [
            sys.executable, "-m", "repro.bench.cluster_node",
            "--node-id", str(self.node_id),
            "--port", str(self.port),
            "--incarnation", str(self.incarnation),
            "--directory-port", str(self.directory_port),
            "--peers", ",".join(str(port) for port in self.peer_ports),
            "--drc-dir", self.drc_dir,
            "--exec-log", self.exec_log,
            "--summary", self.summary_path(self.incarnation),
            "--loss", str(LOSS_RATE),
            "--duplicate", str(DUPLICATE_RATE),
            "--seed", str(self.seed),
            "--quota-rate", str(QUOTA_RATE),
            "--quota-burst", str(QUOTA_BURST),
        ]
        env = dict(os.environ)
        src_dir = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        self.process = subprocess.Popen(argv, env=env)
        return self

    def wait_serving(self, timeout=10.0):
        """Poll the node's health program until it answers SERVING."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if health_of(self.port, deadline=1.0) == STATUS_SERVING:
                return True
            time.sleep(0.05)
        return False

    def terminate(self, timeout=10.0):
        """Graceful SIGTERM restart half: drain, summary, exit 0."""
        self.process.send_signal(signal.SIGTERM)
        code = self.process.wait(timeout=timeout)
        path = self.summary_path(self.incarnation)
        summary = None
        if os.path.exists(path):
            with open(path) as handle:
                summary = json.load(handle)
            self.summaries.append(summary)
        return code, summary

    def kill(self, timeout=10.0):
        """SIGKILL: no drain, no summary, journal must carry the day."""
        self.process.kill()
        return self.process.wait(timeout=timeout)


class _RawProbe:
    """A hand-rolled UDP caller whose socket (and therefore DRC caller
    identity) persists across server restarts.

    ``send_call`` transmits one exact call message and retransmits it
    until a reply bearing its xid arrives — the same bytes every time,
    so the server sees a true retransmission, never a fresh call.
    """

    def __init__(self):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.settimeout(0.25)
        self._builder = RpcClient(PROG, VERS)

    def build(self, xid, value):
        return self._builder.build_call(xid, PROC_DOUBLE, value, xdr_u_long)

    def send_call(self, request, port, overall_timeout=8.0):
        """The raw reply bytes for ``request``, or None on timeout."""
        xid = int.from_bytes(request[0:4], "big")
        deadline = time.monotonic() + overall_timeout
        while time.monotonic() < deadline:
            self.sock.sendto(request, ("127.0.0.1", port))
            try:
                reply = self.sock.recv(65536)
            except socket.timeout:
                continue
            if len(reply) >= 4 and int.from_bytes(reply[0:4], "big") == xid:
                return reply
        return None

    def close(self):
        self.sock.close()


def _load_thread(thread_id, directory_port, calls, results, stop,
                 violations):
    """One sustained-load client: a FailoverClient fed live endpoints
    by a FleetWatcher, so restarts are followed without any static
    configuration."""
    client = FailoverClient(
        [("127.0.0.1", 1)],  # placeholder; the watcher replaces it
        PROG, VERS, transport="udp", call_budget_s=CALL_BUDGET_S,
        breaker_threshold=3, breaker_recovery_s=0.3,
        timeout=1.0, wait=0.08, jitter=0.2,
    )
    watcher = FleetWatcher(client, ("127.0.0.1", directory_port),
                           period_s=0.2)
    # Do not issue calls until the watcher has a real view.
    for _ in range(100):
        if watcher.last_view != [("127.0.0.1", 1)]:
            break
        time.sleep(0.05)
    try:
        for i in range(calls):
            if stop.is_set():
                break
            value = (thread_id << 16) | i
            started = time.perf_counter()
            try:
                result = client.call(PROC_DOUBLE, value,
                                     xdr_args=xdr_u_long,
                                     xdr_res=xdr_u_long)
                outcome = ("ok" if result == (value * 2) & 0xFFFFFFFF
                           else "wrong_value")
            except RpcError as exc:
                outcome = type(exc).__name__
            except Exception as exc:  # noqa: BLE001 - the invariant
                outcome = f"UNTYPED:{type(exc).__name__}"
            elapsed = time.perf_counter() - started
            results.append((outcome, elapsed))
            if outcome == "wrong_value" or outcome.startswith("UNTYPED"):
                violations.append(f"load[{thread_id}] call {i}: {outcome}")
            if elapsed > CALL_BUDGET_S + BUDGET_GRACE_S:
                violations.append(
                    f"load[{thread_id}] call {i}: {elapsed:.2f}s over"
                    f" budget"
                )
            time.sleep(LOAD_PACE_S)  # stay under the per-caller quota
    finally:
        watcher.stop()
        client.close()


def _read_exec_logs(nodes):
    """Every witnessed execution key across all nodes' logs."""
    keys = []
    for node in nodes:
        if not os.path.exists(node.exec_log):
            continue
        with open(node.exec_log) as handle:
            for line in handle:
                line = line.strip()
                if line:
                    keys.append((node.node_id, line))
    return keys


def _check_incarnation(summary):
    """The per-incarnation DRC uniqueness proof on one node summary."""
    problems = uniqueness_violations(summary["handlers_invoked"],
                                     summary["drc"])
    journal = summary.get("journal")
    if journal is not None and journal["append_errors"]:
        problems.append(f"{journal['append_errors']} journal append errors")
    return [f"node{summary['node_id']}#{summary['incarnation']}: {problem}"
            for problem in problems]


def run(workload=None, calls=DEFAULT_CALLS, seed=DEFAULT_SEED,
        json_path=DEFAULT_JSON):
    """Run the cluster soak; raises ``AssertionError`` on violation.

    ``workload`` is accepted (and ignored) for CLI uniformity.
    """
    del workload
    import tempfile

    calls_per_thread = max(1, calls // LOAD_THREADS)
    violations = []
    workdir = tempfile.mkdtemp(prefix="repro-cluster-")

    # The membership directory lives in the orchestrator process.
    directory = FleetDirectory(liveness_s=1.5)
    dir_registry = SvcRegistry()
    directory.mount(dir_registry)
    dir_server = UdpServer(dir_registry, port=0, drc=False)
    dir_server.start()

    ports = _free_ports(NODES)
    nodes = []
    for node_id in range(NODES):
        peer_ports = [ports[(node_id + 1) % NODES],
                      ports[(node_id + 2) % NODES]]
        nodes.append(_Node(node_id, ports[node_id], dir_server.port,
                           peer_ports, workdir, seed))
    started_all = time.perf_counter()
    events = []

    def event(name, **details):
        events.append({"t": time.perf_counter() - started_all,
                       "event": name, **details})

    probe = _RawProbe()
    results = []
    stop = threading.Event()
    threads = []
    shed_replies = 0
    try:
        for node in nodes:
            node.start()
        for node in nodes:
            if not node.wait_serving():
                violations.append(
                    f"node{node.node_id} never reached SERVING"
                )
        event("fleet_up", ports=ports)

        threads = [
            threading.Thread(
                target=_load_thread,
                args=(i, dir_server.port, calls_per_thread, results, stop,
                      violations),
                daemon=True,
            )
            for i in range(LOAD_THREADS)
        ]
        for thread in threads:
            thread.start()
        time.sleep(1.0)  # let load establish before the first restart

        # -- restart-replay probe seed: answered by incarnation 1 -----
        probe_xid = 0x5EED0001
        probe_request = probe.build(probe_xid, 21)
        first_reply = probe.send_call(probe_request, nodes[0].port)
        if first_reply is None:
            violations.append("probe: no reply from node0 incarnation 1")
        # -- replica-replay probe: answered by node1, replayed by its
        #    successor node2 after replication catches up --------------
        repl_xid = 0x5EED0002
        repl_request = probe.build(repl_xid, 33)
        repl_reply = probe.send_call(repl_request, nodes[1].port)
        if repl_reply is None:
            violations.append("probe: no reply from node1")
        time.sleep(0.5)  # replication flush interval is 20ms; be kind
        repl_replay = probe.send_call(repl_request, nodes[2].port)
        if repl_replay is None:
            violations.append("probe: no replica replay from node2")
        elif repl_reply is not None and repl_replay != repl_reply:
            violations.append(
                "probe: replica replay differs from the original reply"
            )
        event("replica_replay_checked")

        # -- rolling restart: every node, one of them the hard way ----
        hard_kill_node = 2
        for node in nodes:
            event("restart_begin", node=node.node_id,
                  mode="kill" if node.node_id == hard_kill_node
                  else "drain")
            if node.node_id == hard_kill_node:
                code = node.kill()
                if code == 0:
                    violations.append(
                        f"node{node.node_id}: SIGKILL exited 0?"
                    )
            else:
                code, summary = node.terminate()
                if code != 0:
                    violations.append(
                        f"node{node.node_id}#" f"{node.incarnation}:"
                        f" graceful exit code {code}"
                    )
                if summary is None:
                    violations.append(
                        f"node{node.node_id}#{node.incarnation}: no"
                        f" shutdown summary written"
                    )
                else:
                    violations.extend(_check_incarnation(summary))
            node.start()
            if not node.wait_serving():
                violations.append(
                    f"node{node.node_id}#{node.incarnation}: restart"
                    f" never reached SERVING"
                )
            event("restart_done", node=node.node_id,
                  incarnation=node.incarnation)
            time.sleep(0.3)

        # -- restart replay: same socket, same bytes, new incarnation --
        replay = probe.send_call(probe_request, nodes[0].port)
        if replay is None:
            violations.append(
                "probe: no restart replay from node0 incarnation 2"
            )
        elif first_reply is not None and replay != first_reply:
            violations.append(
                "probe: restart replay differs from the original reply"
                " — journal recovery returned different bytes"
            )
        event("restart_replay_checked")

        # -- quota probe: a greedy burst from one socket is shed -------
        # Blast the datagrams first, collect replies after: a serial
        # call-and-wait loop through 20% loss would arrive far below
        # the refill rate and never trip the bucket.  Every request
        # still lands (only replies are faulted), so once the burst
        # tokens are gone the rest are answered SYSTEM_ERR.
        greedy = _RawProbe()
        burst_size = int(QUOTA_BURST) * 4
        shed_replies = 0
        try:
            for i in range(burst_size):
                request = greedy.build(0x0A0B0000 + i, i)
                greedy.sock.sendto(request, ("127.0.0.1", nodes[4].port))
                if i % 16 == 15:
                    time.sleep(0.002)  # do not just overflow the queue
            quiet_until = time.monotonic() + 3.0
            while time.monotonic() < quiet_until:
                try:
                    reply = greedy.sock.recv(65536)
                except socket.timeout:
                    break
                # A shed is an accepted SYSTEM_ERR reply: accept_stat
                # (the last word of the fixed 24-byte reply) == 5.
                if (len(reply) == 24
                        and int.from_bytes(reply[20:24], "big") == 5):
                    shed_replies += 1
        finally:
            greedy.close()
        if not shed_replies:
            violations.append(
                "quota probe: greedy burst produced zero shed replies"
            )
        event("quota_probed", shed_replies=shed_replies)

        for thread in threads:
            thread.join(timeout=CALL_BUDGET_S * calls_per_thread)
        stop.set()
    finally:
        stop.set()
        # Final graceful stop of every node (collect summaries).
        for node in nodes:
            if node.process is not None and node.process.poll() is None:
                try:
                    code, summary = node.terminate()
                    if summary is not None:
                        violations.extend(_check_incarnation(summary))
                except (subprocess.TimeoutExpired, OSError):
                    node.process.kill()
                    violations.append(
                        f"node{node.node_id}: final terminate timed out"
                    )
        probe.close()
        dir_server.stop()
    elapsed_all = time.perf_counter() - started_all

    # -- the cross-restart uniqueness proof ---------------------------
    witnessed = _read_exec_logs(nodes)
    seen = {}
    duplicate_executions = 0
    for node_id, key in witnessed:
        if key in seen:
            duplicate_executions += 1
            violations.append(
                f"duplicate execution: key '{key}' on node{seen[key]}"
                f" and node{node_id}"
            )
        else:
            seen[key] = node_id

    outcomes = {}
    for outcome, _ in results:
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    resolved = len(results)
    expected = calls_per_thread * LOAD_THREADS
    if resolved != expected:
        violations.append(f"only {resolved}/{expected} load calls"
                          f" resolved")

    all_summaries = [summary for node in nodes
                     for summary in node.summaries]
    recovered_total = sum(
        (summary.get("recovery") or {}).get("entries", 0)
        for summary in all_summaries
    )
    repl_entries = sum(summary["sink"]["entries_absorbed"]
                       for summary in all_summaries)
    fenced = sum(summary["sink"]["fenced"] for summary in all_summaries)
    quota_shed_total = sum(summary["quota"]["shed"]
                           for summary in all_summaries)
    if shed_replies and not quota_shed_total:
        violations.append(
            "quota probe: sheds observed on the wire but no node"
            " summary charged them to a quota bucket"
        )
    passed = not violations
    report = {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "nodes": NODES,
            "calls": expected,
            "seed": seed,
            "loss": LOSS_RATE,
            "duplicate_rate": DUPLICATE_RATE,
            "call_budget_s": CALL_BUDGET_S,
            "quota": {"rate": QUOTA_RATE, "burst": QUOTA_BURST},
            "elapsed_s": elapsed_all,
            "workdir": workdir,
        },
        "events": events,
        "outcomes": outcomes,
        "executions_witnessed": len(witnessed),
        "unique_keys": len(seen),
        "duplicate_executions": duplicate_executions,
        "journal_recovered_entries": recovered_total,
        "replicated_entries_absorbed": repl_entries,
        "replication_fenced": fenced,
        "quota_shed_replies_observed": shed_replies,
        "quota_sheds_charged": quota_shed_total,
        "summaries": all_summaries,
        "violations": violations,
        "passed": passed,
    }
    rows = [
        ("load calls resolved", f"{resolved}/{expected}"),
        ("ok", outcomes.get("ok", 0)),
        ("typed errors", resolved - outcomes.get("ok", 0)),
        ("executions witnessed", len(witnessed)),
        ("duplicate executions", duplicate_executions),
        ("journal entries recovered", recovered_total),
        ("replicated entries absorbed", repl_entries),
        ("stale pushes fenced", fenced),
        ("greedy probe sheds (wire / charged)",
         f"{shed_replies} / {quota_shed_total}"),
        ("restarts", f"{NODES} ({NODES - 1} drain + 1 SIGKILL)"),
        ("violations", len(violations)),
        ("verdict", "PASS" if passed else "FAIL"),
    ]
    print(format_table(
        f"Cluster soak — {NODES} processes, {expected} calls,"
        f" {int(LOSS_RATE * 100)}% loss, rolling restart + hard kill",
        ("invariant", "value"),
        rows,
        note=f"seed {seed:#x}; proof: every exec-log key appears at"
             f" most once across all incarnations of all nodes",
    ))
    return finish("cluster", report, json_path)
