"""Run one ``refgraph`` command with a span around every layer call.

Usage::

    python3 child.py SPANS.json -- build --records ... --out ...

Every function that ``refgraph.cli`` imports from another ``refgraph``
module (its layers: ``ingest``, ``history``, ``graph``, ``metrics``,
``report``) is found by scanning ``refgraph.cli``'s namespace and replaced
there by a wrapper that records a span, so only calls made by the CLI into a
layer are timed; the program's files are not changed.  The command itself
runs through ``refgraph.cli.main`` inside a root span ``cli.<command>``.

Each span records its start, end and parent, the time spent in cyclic
garbage collection while it was the innermost open span (through
``gc.callbacks``), and how far the process's peak RSS rose while it was open.
Work counts (lines, edges, bytes) are taken from a call's arguments and
result after its span closes, inside a ``trace.counters`` span, so their cost
is kept out of the enclosing command's self time.  Spans are kept in memory
and written to SPANS.json when the command returns.  The process exits with
the command's exit code.
"""

from __future__ import annotations

import gc
import inspect
import json
import os
import resource
import sys
import time
from types import ModuleType


def discover(cli: ModuleType) -> dict[str, str]:
    """Map span name (``graph.partition``) to the attribute of ``cli`` that
    holds a function imported from another module of the same package."""
    package = cli.__name__.rpartition(".")[0] + "."
    spans = {}
    for attr, obj in vars(cli).items():
        if inspect.isfunction(obj) and obj.__module__.startswith(package) and obj.__module__ != cli.__name__:
            spans[f"{obj.__module__[len(package):]}.{obj.__name__}"] = attr
    if not spans:
        raise RuntimeError(f"no layer functions found in {cli.__name__}; nothing to trace")
    return dict(sorted(spans.items()))


def _non_blank_lines(path) -> int:
    with open(path, encoding="utf-8") as handle:
        return sum(1 for line in handle if line.strip())


# Work counts taken at a layer boundary from a call's arguments and result.
# Keys listed in MAX_COUNTERS keep the largest value; the others are summed.
COUNTERS = {
    "ingest.parse_records": lambda a, r: {"lines": len(r.records) + len(r.issues), "issues": len(r.issues)},
    "ingest.apply_filters": lambda a, r: {"in": len(a[0]), "kept": len(r[0])},
    "history.load_commit_log": lambda a, r: {"entries": _non_blank_lines(a[0])},
    "history.restrict_to_log": lambda a, r: {"in": len(a[0]), "kept": len(r.kept)},
    "graph.build": lambda a, r: {"records": len(a[0]), "edges": r.n_edges},
    "graph.partition": lambda a, r: {"subgraphs": len(r), "largest_edges": max((len(s.edges) for s in r), default=0)},
    "graph.filter_multi_commit": lambda a, r: {"in": len(a[0]), "kept": len(r[0])},
    "graph.load_graph": lambda a, r: {"bytes": os.path.getsize(a[0])},
    "report.emit_dot": lambda a, r: {"bytes": len(r.encode("utf-8"))},
}
MAX_COUNTERS = frozenset({"largest_edges"})


def merge_counters(into: dict, counts: dict) -> None:
    for key, value in counts.items():
        into[key] = max(into.get(key, 0), value) if key in MAX_COUNTERS else into.get(key, 0) + value


class Tracer:
    """Spans kept in memory; ``events[i]`` is ``[name, start, end, parent, gc_s, rss_kb]``,
    where ``rss_kb`` is the peak RSS when the span opened until it closes, and
    then the rise of the peak while it was open."""

    def __init__(self) -> None:
        self.events: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, dict] = {}
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start: float | None = None

    def open(self, name: str) -> None:
        parent = self.stack[-1] if self.stack else -1
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.events.append([name, time.perf_counter(), 0.0, parent, 0.0, rss_kb])
        self.stack.append(len(self.events) - 1)

    def close(self) -> None:
        event = self.events[self.stack.pop()]
        event[2] = time.perf_counter()
        event[5] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - event[5]

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            elapsed = time.perf_counter() - self._gc_start
            self._gc_start = None
            self.gc_s += elapsed
            self.gc_collections += 1
            if self.stack:
                self.events[self.stack[-1]][4] += elapsed

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if counter is not None:
                self.open("trace.counters")
                try:
                    counts = counter(args, result)
                finally:
                    self.close()
                merge_counters(self.counters.setdefault(name, {}), counts)
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: total and self seconds, calls, GC seconds, and the
        largest rise of the peak RSS in one call."""
        child_s = [0.0] * len(self.events)
        for name, start, end, parent, _, _ in self.events:
            if parent >= 0:
                child_s[parent] += end - start
        spans: dict[str, dict] = {}
        for i, (name, start, end, _, gc_s, rss_kb) in enumerate(self.events):
            span = spans.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "gc_s": 0.0, "rss_mb": 0.0})
            span["s"] += end - start
            span["self_s"] += end - start - child_s[i]
            span["calls"] += 1
            span["gc_s"] += gc_s
            span["rss_mb"] = max(span["rss_mb"], rss_kb / 1024)
        for name, counts in self.counters.items():
            spans[name]["counters"] = counts
        return spans


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: child.py SPANS.json -- <refgraph arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    from refgraph import cli

    tracer = Tracer()
    discovered = discover(cli)
    for name, attr in discovered.items():
        setattr(cli, attr, tracer.wrap(name, getattr(cli, attr)))
    gc.callbacks.append(tracer.on_gc)
    tracer.open(f"cli.{cli_args[0]}")
    try:
        return cli.main(cli_args)
    finally:
        tracer.close()
        gc.callbacks.remove(tracer.on_gc)
        origin = tracer.events[0][1]
        document = {
            "command": cli_args[0],
            "discovered": list(discovered),
            "spans": tracer.summary(),
            "gc": {"s": tracer.gc_s, "collections": tracer.gc_collections},
            "events": [[n, round(s - origin, 7), round(e - origin, 7), p] for n, s, e, p, _, _ in tracer.events],
        }
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
            handle.write("\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
