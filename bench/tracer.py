"""Spans and counters recorded around cellsched's entry points, from outside.

The tracer replaces module and class attributes of the unmodified package
with wrappers for the length of one traced pass and restores them after.
Each wrapper records a span (name, start, end, parent) in flat arrays, so a
pass of a few million spans stays near 21 bytes per span.  Slot counts are
derived from the arguments of ``select_client`` and ``serve_slot``.

Every ``*_s`` metric is a self time: the span's duration minus the part of
it that child spans cover, summed over the spans of that layer.  The layer
self times therefore partition the traced time of the root spans.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import ExitStack, contextmanager
from pathlib import Path

from cellsched import channel, cli, experiments, metrics, seeding, simcore

# Span name -> the attributes it replaces.  A function imported by name into
# another module is patched where the caller looks it up.
TARGETS = {
    "cli.main": [(cli, "main")],
    "cli.load_config": [(cli, "load_config")],
    "experiments.run_experiment": [(cli, "run_experiment")],
    "experiments.sweep_probabilistic": [(cli, "sweep_probabilistic")],
    "experiments.write_csv": [(cli, "write_ranking_csv"), (cli, "write_surface_csv")],
    "experiments.write_manifest": [(cli, "write_manifest")],
    "experiments.git_blob_sha1": [(cli, "git_blob_sha1")],
    "simcore.run_simulation": [
        (experiments, "run_simulation"),
        (simcore, "run_simulation"),
    ],
    "workload.generate_workload": [(simcore, "generate_workload")],
    "seeding.stream": [(seeding, "stream")],
    "channel.stream_for": [(channel.ChannelRateSource, "stream_for")],
    "channel.draw": [(channel.FlowRateStream, "draw")],
    "strategies.select_client": [(simcore, "select_client")],
    "simcore.admit_arrivals": [(simcore, "admit_arrivals")],
    "simcore.refill_buffers": [(simcore, "refill_buffers")],
    "simcore.serve_slot": [(simcore, "serve_slot")],
    "metrics.summarize": [(experiments, "summarize"), (metrics, "summarize")],
    "metrics.aggregate": [(experiments, "aggregate"), (metrics, "aggregate")],
}

# Per-layer self-time metric -> the spans whose self time it sums.
SELF_TIME = {
    "cli.self_s": ("cli.main",),
    "cli.load_config_s": ("cli.load_config",),
    "experiments.self_s": (
        "experiments.run_experiment",
        "experiments.sweep_probabilistic",
    ),
    "experiments.emit_s": ("experiments.write_csv", "experiments.write_manifest"),
    "experiments.hash_s": ("experiments.git_blob_sha1",),
    "simcore.self_s": ("simcore.run_simulation",),
    "simcore.admit_s": ("simcore.admit_arrivals",),
    "simcore.refill_s": ("simcore.refill_buffers",),
    "simcore.serve_s": ("simcore.serve_slot",),
    "workload.generate_s": ("workload.generate_workload",),
    "seeding.stream_s": ("seeding.stream",),
    "channel.stream_s": ("channel.stream_for",),
    "channel.draw_s": ("channel.draw",),
    "strategies.select_s": ("strategies.select_client",),
    "metrics.summarize_s": ("metrics.summarize",),
    "metrics.aggregate_s": ("metrics.aggregate",),
}

# Per-layer count metric -> the span whose calls it counts.
CALLS = {
    "workload.generate_calls": "workload.generate_workload",
    "seeding.streams": "seeding.stream",
    "channel.streams": "channel.stream_for",
    "channel.draws": "channel.draw",
    "strategies.select_calls": "strategies.select_client",
    "simcore.refill_calls": "simcore.refill_buffers",
}


@contextmanager
def patched(places, wrap):
    """Replace each (owner, attr) in ``places`` by ``wrap(original)`` inside the block."""
    saved = []
    wrapped = {}
    try:
        for owner, attr in places:
            fn = owner.__dict__[attr]
            if id(fn) not in wrapped:
                wrapped[id(fn)] = wrap(fn)
            saved.append((owner, attr, fn))
            setattr(owner, attr, wrapped[id(fn)])
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


class SlotCounter:
    """Counts ``serve_slot`` calls, i.e. simulated slots, drain included."""

    def __init__(self):
        self.slots = 0

    def _wrap(self, fn):
        def serve_slot(*args, **kwargs):
            self.slots += 1
            return fn(*args, **kwargs)

        return serve_slot

    def installed(self):
        return patched(TARGETS["simcore.serve_slot"], self._wrap)


class RunTimer:
    """Host latency of each ``run_simulation`` call, in call order."""

    def __init__(self):
        self.latencies: list[float] = []

    def _wrap(self, fn):
        latencies = self.latencies
        clock = time.perf_counter

        def run_simulation(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            latencies.append(clock() - t0)
            return result

        return run_simulation

    def installed(self):
        return patched(TARGETS["simcore.run_simulation"], self._wrap)


class Tracer:
    """Span recorder plus the counters read from wrapped calls' arguments."""

    def __init__(self):
        self.names = list(TARGETS)
        self.name = array("B")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.horizon = 0
        self.counts = dict.fromkeys(
            (
                "slots",
                "busy_slots",
                "empty_slots",
                "refill_wait_slots",
                "drain_slots",
                "active_sum",
                "views_sum",
                "views_max",
                "decisions",
                "shortcuts",
                "index_evals",
                "flows",
                "records",
                "bytes_written",
            ),
            0,
        )

    # -- hooks reading the arguments or results of wrapped calls ---------

    def _before_run(self, config, *args, **kwargs):
        self.horizon = config.horizon

    def _before_select(self, spec, views, rng=None):
        c = self.counts
        n = len(views)
        c["views_sum"] += n
        if n > c["views_max"]:
            c["views_max"] = n
        if n:
            c["decisions"] += 1
        if n == 1:
            c["shortcuts"] += 1
        elif n > 1:
            c["index_evals"] += n * (len(spec.children) if spec.kind == "linear" else 1)

    def _before_serve(self, active, t, rates, chosen):
        c = self.counts
        n = len(active)
        c["slots"] += 1
        c["active_sum"] += n
        if chosen is not None:
            c["busy_slots"] += 1
        elif n == 0:
            c["empty_slots"] += 1
        else:
            c["refill_wait_slots"] += 1
        if t >= self.horizon:
            c["drain_slots"] += 1

    def _before_summarize(self, records, *args, **kwargs):
        self.counts["records"] += len(records)

    def _after_generate(self, flows):
        self.counts["flows"] += len(flows)

    def _after_write_csv(self, data):
        self.counts["bytes_written"] += len(data)

    def _after_write_manifest(self, path):
        self.counts["bytes_written"] += Path(path).stat().st_size

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, before, after):
        nid = self.names.index(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        before = {
            "simcore.run_simulation": self._before_run,
            "strategies.select_client": self._before_select,
            "simcore.serve_slot": self._before_serve,
            "metrics.summarize": self._before_summarize,
        }
        after = {
            "workload.generate_workload": self._after_generate,
            "experiments.write_csv": self._after_write_csv,
            "experiments.write_manifest": self._after_write_manifest,
        }
        with ExitStack() as stack:
            for name, places in TARGETS.items():
                hooks = before.get(name), after.get(name)
                stack.enter_context(
                    patched(places, lambda fn, n=name, h=hooks: self._wrap(n, fn, *h))
                )
            yield self

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics of everything recorded so far, unit attached."""
        n = len(self.start)
        starts, ends, parents, names = self.start, self.end, self.parent, self.name
        covered = array("d", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for i in range(n):
            k = names[i]
            self_s[k] += ends[i] - starts[i] - covered[i]
            calls[k] += 1
        by_name = dict(zip(self.names, self_s))
        count_by_name = dict(zip(self.names, calls))

        c = self.counts
        slots = c["slots"]
        selects = count_by_name["strategies.select_client"]
        out = {}
        for metric, spans in SELF_TIME.items():
            out[metric] = (sum(by_name[s] for s in spans), "s")
        for metric, span in CALLS.items():
            out[metric] = (count_by_name[span], "count")
        for key in (
            "slots",
            "busy_slots",
            "empty_slots",
            "refill_wait_slots",
            "drain_slots",
        ):
            out[f"simcore.{key}"] = (c[key], "count")
        out["simcore.active_mean"] = (c["active_sum"] / slots if slots else 0.0, "flows")
        out["workload.flows"] = (c["flows"], "count")
        out["strategies.index_evals"] = (c["index_evals"], "count")
        out["strategies.views_mean"] = (
            c["views_sum"] / selects if selects else 0.0,
            "views",
        )
        out["strategies.views_max"] = (c["views_max"], "views")
        out["strategies.shortcut_frac"] = (
            c["shortcuts"] / c["decisions"] if c["decisions"] else 0.0,
            "ratio",
        )
        out["metrics.records"] = (c["records"], "count")
        out["experiments.bytes_written"] = (c["bytes_written"], "bytes")
        out["trace.spans"] = (n, "count")
        return out

    def write(self, path: Path) -> None:
        """Write every span: one JSON header line, then the four raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [
                ["name", self.name.typecode],
                ["parent", self.parent.typecode],
                ["start", self.start.typecode],
                ["end", self.end.typecode],
            ],
            "clock": "time.perf_counter seconds; parent -1 marks a root span",
        }
        with path.open("wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(handle)
