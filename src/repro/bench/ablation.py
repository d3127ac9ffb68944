"""Ablations of the specializer refinements DESIGN.md calls out.

Each ablation disables one of the paper's §4 refinements (or the unroll
policy) and measures the specialized client paths on the PC model:

* ``context`` — scalar context sensitivity off: static scalar arguments
  are widened to dynamic at call boundaries, so the static procedure-id
  marshaling opportunity (§4) is lost;
* ``partially_static`` — partially-static structures off: any field of
  a residually-rooted struct is stored dynamically, so the ``x_handy``
  overflow accounting survives into the residual code;
* ``flow`` — flow sensitivity off: the ``inlen = expected_inlen``
  re-binding of §6.2 no longer recovers a static length, so the reply
  decode stays generic;
* ``static_returns`` — §3.3 off: outlined decode helpers keep returning
  their (constant) statuses and callers keep testing them;
* ``unroll`` — loop unrolling off: marshaling loops are residualized.
"""

from repro.bench.report import format_table
from repro.bench.workloads import (
    BUFSIZE,
    IntArrayWorkload,
    PROC,
    reply_bytes,
)
from repro.simulator import pc_linux
from repro.tempo import Known
from repro.tempo.specializer import Options

ABLATIONS = {
    "full": Options(),
    "context": Options(context_sensitive=False),
    "partially_static": Options(partially_static=False),
    "flow": Options(flow_sensitive=False),
    "static_returns": Options(static_returns=False),
    "unroll": Options(max_unroll=0),
}


def compute(workload=None, n=500):
    """Measure each ablation's marshal and reply-decode paths (PC model,
    plus raw event counts)."""
    workload = workload or IntArrayWorkload()
    rows = []
    # Build the reply bytes once with the generic path.
    _outlen, request, _t = workload.generic_marshal_trace(n)
    reply, _t = workload.generic_server_reply(n, request)
    for name, options in ABLATIONS.items():
        marshal = workload.specialize(PROC.marshal, n, options)
        params = [p for _t2, p in marshal.residual_params]
        outlen, wire, marshal_trace = workload.run_marshal(
            marshal.program, marshal.entry_name, params, n
        )
        assert outlen, f"{name}: marshal failed"
        assert wire == request, f"{name}: wire data changed"
        marshal_time = pc_linux().steady_state_time(marshal_trace)
        recv = workload.specialize(PROC.recv, n, options,
                                   inlen=Known(reply_bytes(n)))
        recv_trace = _run_recv(workload, recv, n, reply)
        recv_time = pc_linux().steady_state_time(recv_trace)
        rows.append(
            {
                "ablation": name,
                "marshal_events": len(marshal_trace),
                "marshal_ms": marshal_time.ms(),
                "recv_events": len(recv_trace),
                "recv_ms": recv_time.ms(),
                "residual_bytes": marshal.source_size(),
            }
        )
    return rows


def _run_recv(workload, result, n, reply):
    from repro.minic import values as rv
    from repro.minic.cost import Trace
    from repro.minic.interp import Interpreter

    interp = Interpreter(result.program)
    inbuf = interp.make_buffer(BUFSIZE, "inbuf")
    inbuf.data[:len(reply)] = reply
    resp = interp.make_struct("intarr")
    values = PROC.recv.bind({
        "inbuf": rv.BufPtr(inbuf, 0, 1),
        "inlen": len(reply),
        "xid": 0x1234ABCD,
        "result": interp.ptr_to(resp),
    }, PROC.lens({}, PROC.ret.lens_of_count(n)), int)
    params = [p for _t, p in result.residual_params]
    trace = Trace()
    status = interp.call(
        result.entry_name, [values[name] for name in params], trace=trace
    )
    assert status == 1, "reply decode failed"
    want = [(x + 1) for x in workload._test_data(n)]
    got = resp.field("vals").value.values()[:n]
    assert got == want, "reply payload mismatch"
    return trace


def render(rows):
    base = rows[0]
    table_rows = []
    for row in rows:
        table_rows.append(
            (
                row["ablation"],
                row["marshal_events"],
                round(row["marshal_ms"], 3),
                round(row["marshal_ms"] / base["marshal_ms"], 2),
                row["recv_events"],
                round(row["recv_ms"], 3),
                round(row["recv_ms"] / base["recv_ms"], 2),
                row["residual_bytes"],
            )
        )
    return format_table(
        "Ablations (n=500, PC/Linux model): cost of disabling each"
        " specializer refinement",
        ("ablation", "m-events", "m-ms", "vs full", "r-events", "r-ms",
         "vs full", "resid B"),
        table_rows,
    )


def run(workload=None, n=500):
    rows = compute(workload, n)
    print(render(rows))
    return rows
