"""Outside-in probes: spans kept in memory, exact bytecode counts, and
wall time at a function boundary.  None of them needs a hook inside
the program."""

import json
import statistics
import sys
import time


class SpanLog:
    """Spans recorded around calls into the layers.

    A span is ``[name, tier, start, end, parent, call]`` with ``parent``
    the index of the span that caused it (or None) and ``call`` shared
    by the spans of one request.  Everything stays in memory until
    :meth:`write`."""

    def __init__(self):
        self.spans = []

    def begin(self, name, tier=None, parent=None, call=None):
        self.spans.append([name, tier, time.perf_counter(), None, parent,
                           call])
        return len(self.spans) - 1

    def end(self, index):
        self.spans[index][3] = time.perf_counter()

    def durations_us(self, name, tier=None):
        return [(s[3] - s[2]) * 1e6 for s in self.spans
                if s[0] == name and s[1] == tier]

    def median_us(self, name, tier=None):
        return statistics.median(self.durations_us(name, tier))

    def self_times(self):
        """Per span: its duration minus what its children cover."""
        own = [s[3] - s[2] for s in self.spans]
        for span in self.spans:
            if span[4] is not None:
                own[span[4]] -= span[3] - span[2]
        return own

    def time(self, name, fn, repeats, tier=None):
        """Record ``repeats`` stand-alone spans around ``fn()``; returns
        the median in microseconds."""
        for _ in range(repeats):
            index = self.begin(name, tier)
            fn()
            self.end(index)
        return self.median_us(name, tier)

    def write(self, path):
        keys = ("name", "tier", "start", "end", "parent", "call")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def count_pyops(fn):
    """Bytecode instructions executed by ``fn()`` on this thread (a C
    call counts as the one instruction that made it).  Exact and
    repeatable; comparable only within one CPython minor version."""
    count = 0

    def on_opcode(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return on_opcode

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        return on_opcode

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count


class TimedCalls:
    """Accumulates wall time and call count of ``owner.name`` while
    patched in — timing at the function boundary."""

    def __init__(self, owner, name):
        self.owner, self.name = owner, name
        self.seconds = 0.0
        self.calls = 0
        self._original = getattr(owner, name)

    def __enter__(self):
        original = self._original

        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - started
                self.calls += 1

        setattr(self.owner, self.name, timed)
        return self

    def __exit__(self, *exc_info):
        setattr(self.owner, self.name, self._original)
        return False
