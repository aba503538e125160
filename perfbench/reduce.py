"""Reducers shared by run.py and compare.py.

quartiles()    -- the quartiles statistics.quantiles(values, n=4) gives.
spread()       -- interquartile distance as a share of the median.
self_times()   -- per-span self time of a Chrome trace: a span's duration
                  minus the part of it covered by the spans nested inside
                  it on the same thread.
bubble_share() -- idle share of a set of worker threads over a window,
                  from the compute spans they recorded.
"""

import statistics

# Relative slack when deciding whether a span lies inside another: Chrome
# trace timestamps are microseconds printed with limited digits, so a child
# may appear to end a hair after its parent.
_NEST_SLACK_US = 1e-3


def quartiles(values):
    """Q1, median, Q3 of a sample (exclusive method, as the driver checks)."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """(Q3 - Q1) / median; 0 for a zero median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def complete_events(trace):
    """The complete ('X') events of a Chrome trace object or event list."""
    events = trace["traceEvents"] if isinstance(trace, dict) else trace
    return [e for e in events if e.get("ph") == "X"]


def layer_name(event):
    """Benchmark spans carry the layer name; program spans get their
    category as a prefix (sched.fwd, serve.stage, ...)."""
    if event.get("cat") == "perfbench":
        return event["name"]
    return "%s.%s" % (event.get("cat", "default"), event["name"])


def self_times(events):
    """Per layer: calls, total and self time (ms).

    Spans on one thread nest by time (the recorder's spans are RAII
    scopes), so a stack walk over each thread's spans sorted by start time
    (longest first on ties) finds every span's direct children.
    """
    by_tid = {}
    for e in complete_events(events):
        by_tid.setdefault(e.get("tid", 0), []).append(e)
    table = {}
    for spans in by_tid.values():
        spans.sort(key=lambda e: (e["ts"], -e.get("dur", 0.0)))
        stack = []  # [end_us, layer, dur_us, child_us]
        done = []

        def close(frame):
            end, name, dur, child = frame
            done.append((name, dur, dur - child))

        for e in spans:
            ts, dur = e["ts"], e.get("dur", 0.0)
            while stack and stack[-1][0] <= ts + _NEST_SLACK_US:
                close(stack.pop())
            if stack:
                stack[-1][3] += dur
            stack.append([ts + dur, layer_name(e), dur, 0.0])
        while stack:
            close(stack.pop())
        for name, dur, self_us in done:
            row = table.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += dur / 1000.0
            row["self_ms"] += max(self_us, 0.0) / 1000.0
    return table


def bubble_share(events, busy_names, threads, window_us):
    """1 - (busy time of the named compute spans) / (threads * window).

    `busy_names` are layer names as layer_name() prints them (for example
    "sched.fwd", "sched.bwd"); `threads` is how many workers were available
    over the window of `window_us` microseconds.
    """
    if threads <= 0 or window_us <= 0:
        raise ValueError("bubble_share needs threads > 0 and a positive window")
    busy = sum(e.get("dur", 0.0) for e in complete_events(events)
               if layer_name(e) in busy_names)
    return 1.0 - busy / (threads * window_us)


def trace_window_us(events, name):
    """Sum of the durations of the spans named `name` (a benchmark layer)."""
    return sum(e.get("dur", 0.0) for e in complete_events(events)
               if layer_name(e) == name)
