"""Outside-in tracer for edgegate.

It replaces public functions and methods of the ``edgegate`` modules with
wrappers that record one span per call: name, start, end, parent span and
thread. Nothing under ``src/`` knows about it. Spans stay in memory until
the caller writes them out after the run.

A span's self time is its duration minus the durations of its direct child
spans. Work done inside private callbacks (retry handlers, engine deadlines,
the harness's sample closures) has no span of its own, so it stays in the
self time of whichever traced call is on the stack: usually
``SimClock.run_until``. Each thread keeps its own span stack, so a call on
the sink server's thread nests under nothing.
"""

from __future__ import annotations

import collections
import functools
import importlib
import itertools
import sys
import threading
import time

# (module, attribute path in it); the span name is "<module>.<path>" with
# the package prefix dropped and "__init__" shortened to "init".
SPANNED = (
    ("edgegate.cli", "main"),
    ("edgegate.scenario", "load_scenario"),
    ("edgegate.sim", "Simulation.__init__"),
    ("edgegate.sim", "Simulation.run"),
    ("edgegate.sim", "SimClock.run_until"),
    ("edgegate.sim", "generate_arrivals"),
    ("edgegate.sim", "SimTransport.send"),
    ("edgegate.sim", "SimCloudClient.query_policy"),
    ("edgegate.auth", "AccessEngine.handle_request"),
    ("edgegate.auth", "check_temporal"),
    ("edgegate.auth", "PolicyCache.lookup"),
    ("edgegate.safety", "SafetyMonitor.on_flame_sample"),
    ("edgegate.safety", "SafetyMonitor.on_flow_sample"),
    ("edgegate.safety", "RollingWindow.push"),
    ("edgegate.safety", "kalman_update"),
    ("edgegate.sync", "SyncClient.enqueue"),
    ("edgegate.sync", "OutboxQueue.enqueue"),
    ("edgegate.codec", "encode"),
    ("edgegate.codec", "parse_record"),
    ("edgegate.core", "Timestamp.from_iso8601"),
    ("edgegate.core", "Timestamp.from_epoch"),
    ("edgegate.core", "Timestamp.iso8601"),
    ("edgegate.sink", "CloudSink.append"),
    ("edgegate.sink", "CloudSink.query_policy"),
    ("edgegate.sink", "CloudSink.state_dict"),
    ("edgegate.wire", "RemoteSink.append"),
    ("edgegate.wire", "RemoteSink.query_policy"),
    ("edgegate.wire", "SinkServer.start"),
    ("edgegate.wire", "SinkServer.stop"),
    ("edgegate.trace", "EventTrace.append"),
    ("edgegate.trace", "EventTrace.to_jsonl"),
    ("edgegate.trace", "EventTrace.from_jsonl"),
    ("edgegate.metrics", "compute_metrics"),
)

# Only counted, so their cost stays in the caller's self time (for
# Simulation.run that is the schedule phase). Both count under one name.
COUNTED = (
    ("edgegate.sim", "SimClock.schedule", "sim.SimClock.schedule"),
    ("edgegate.sim", "SimClock.schedule_at", "sim.SimClock.schedule"),
)

# The set-up spans; the untraced run wraps only these, to time set-up.
SETUP = (
    ("edgegate.scenario", "load_scenario"),
    ("edgegate.sim", "Simulation.__init__"),
)

# Per-call durations are kept for these, for percentiles.
KEEP_DURATIONS = frozenset({"wire.RemoteSink.append", "wire.RemoteSink.query_policy"})

PENDING_SPAN = "bench.SimClock.pending"


def span_name(module: str, path: str) -> str:
    return f"{module.rpartition('.')[2]}.{path.replace('__init__', 'init')}"


class Tracer:
    """Span recorder. ``install`` patches the targets in this process."""

    def __init__(self) -> None:
        # (span id, name, start, end, parent id or 0, thread id, self time, returned)
        self.spans: list[tuple] = []
        self.counts: collections.Counter[str] = collections.Counter()
        self.values: dict[str, float] = {}
        self.bad_roots: list[str] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn):
        local = self._local
        ids = self._ids
        spans = self.spans
        bad_roots = self.bad_roots
        clock = time.perf_counter
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.get("stack")
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            # [span id, child time, self time summed over the subtree]
            frame = [next(ids), 0.0, 0.0]
            stack.append(frame)
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s = duration - frame[1]
                frame[2] += self_s
                if parent is None:
                    if abs(frame[2] - duration) > 1e-9 * (1.0 + duration):
                        bad_roots.append(f"{name}: self {frame[2]!r} != duration {duration!r}")
                    parent_id = 0
                else:
                    parent[1] += duration
                    parent[2] += frame[2]
                    parent_id = parent[0]
                spans.append((frame[0], name, start, end, parent_id, get_ident(), self_s, returned))

        return traced

    def count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ------------------------------------------------------------

    def install(self, targets=SPANNED, counted=COUNTED) -> None:
        for module, path in targets:
            _patch(module, path, lambda fn, n=span_name(module, path): self.wrap(n, fn))
        for module, path, name in counted:
            _patch(module, path, lambda fn, n=name: self.count(n, fn))
        if ("edgegate.sim", "SimClock.run_until") in targets:
            _patch("edgegate.sim", "SimClock.run_until", self._record_pending)

    def _record_pending(self, run_until):
        """Read the heap size once as the clock loop starts, in a span of its
        own so the read is not charged to the caller."""
        values = self.values
        pending = self.wrap(PENDING_SPAN, lambda clock: clock.pending())

        @functools.wraps(run_until)
        def wrapper(clock, *args, **kwargs):
            values["sim.pending_at_start"] = pending(clock)
            return run_until(clock, *args, **kwargs)

        return wrapper

    # -- results -------------------------------------------------------------

    def aggregate(self) -> dict:
        """Per-name calls, errors, total and self time; durations where kept."""
        out: dict[str, dict] = {}
        for _, name, start, end, _, _, self_s, returned in self.spans:
            agg = out.get(name)
            if agg is None:
                agg = out[name] = {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0}
                if name in KEEP_DURATIONS:
                    agg["durations"] = []
            agg["calls"] += 1
            agg["errors"] += not returned
            agg["total_s"] += end - start
            agg["self_s"] += self_s
            if "durations" in agg:
                agg["durations"].append(end - start)
        for name, n in self.counts.items():
            out.setdefault(name, {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0})
            out[name]["calls"] += n
        return out

    def write_spans(self, path) -> None:
        threads: dict[int, int] = {}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\tthread\n")
            for span_id, name, start, end, parent, thread, _, _ in self.spans:
                t = threads.setdefault(thread, len(threads))
                fh.write(f"{span_id}\t{name}\t{start!r}\t{end!r}\t{parent}\t{t}\n")

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.values.clear()


def _patch(module_name: str, path: str, make) -> None:
    """Replace ``module.path`` with ``make(original)``. A module-level
    function is replaced under every name any edgegate module binds it to,
    so ``from .x import f`` aliases are traced too."""
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        raw = owner.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attr, type(raw)(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))
        return
    original = getattr(module, attr)
    wrapped = make(original)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "edgegate" or name.startswith("edgegate.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)
