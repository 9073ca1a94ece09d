"""End-to-end benchmark of refgraph: ``build`` -> ``stats`` -> ``export``.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload wide-corpus --seed 1 --seconds 40 --trace 0

The benchmark generates a seeded corpus (``synth.py``), then runs the real
CLI from ``src/`` one command at a time, each in its own process: a closed
loop with one client, so at most one child runs at once.  A cycle is
``build``, ``stats`` and ``export``; cycles repeat while another one is
expected to finish within ``--seconds``.  Command timings are means over
cycles (see ``MEAN_METRICS``); set-up time and peak RSS are medians.  Failed
commands count in ``failed`` and are left out of the samples.  After every
command the oracle (``verify.py``) checks its output tree against the planted
truth, and after every cycle the sha256 digest of the output trees must equal
the first cycle's.

``--trace 0`` reports the end-to-end metrics (see ``E2E_UNITS``).
``--trace 1`` alternates untraced cycles with cycles whose commands run
under ``child.py``, which times every call from ``refgraph.cli`` into a layer
module, and reports the per-layer metrics (see ``layer_metrics``) plus
``trace.overhead_s``, traced minus untraced ``total_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Inputs, outputs and
span files go under ``.bench_work/`` in the checkout; the inputs and output
trees are deleted when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import synth
import verify
from child import merge_counters

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

COMMANDS = ("build", "stats", "export")
# What the ``refgraph`` console script runs (``refgraph.cli:run``).
CLI_ENTRY = "import sys; from refgraph.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP_PROBE = "import refgraph.cli"
SETUP_SAMPLES_FIRST = 5  # set-up probes before the first cycle
SETUP_SAMPLES_PER_CYCLE = 3  # and after every untraced cycle
# No child may run past 2 * --seconds + this margin from the run's start;
# one still running then is killed and counted as failed.
DEADLINE_MARGIN_S = 60
# About 25k record lines: a cycle takes ~6-7 s on a 2-core 2 GHz box, so a
# 55 s run holds 7-9 cycles.  A 100k-line cycle (scale 1.0) takes ~28 s.
DEFAULT_SCALE = 0.25
# On shared 2-core hosts one command's time swings between two levels about
# 25% apart, and the share of fast samples drifts from minute to minute.  The
# median of a run's cycles then jumps between the levels; the mean moves with
# the share, so across runs it spreads about half as much.
MEAN_METRICS = frozenset({"build_s", "stats_s", "export_s", "total_s"})

E2E_UNITS = {
    "setup_s": "s",
    "build_s": "s",
    "stats_s": "s",
    "export_s": "s",
    "total_s": "s",
    "build_records_per_s": "records/s",
    "build_rss_mb": "MB",
    "stats_rss_mb": "MB",
    "export_rss_mb": "MB",
}

# Spans ``child.py`` is expected to discover in ``refgraph.cli``.
LAYER_SPANS = (
    "ingest.parse_records",
    "ingest.apply_filters",
    "history.load_commit_log",
    "history.restrict_to_log",
    "graph.build",
    "graph.partition",
    "graph.filter_multi_commit",
    "graph.graph_to_dict",
    "graph.load_graph",
    "metrics.measure",
    "metrics.aggregate",
    "report.emit_tables",
    "report.write_json_summary",
    "report.emit_dot",
)


class HarnessError(Exception):
    """The benchmark cannot run here (no program, or not the checkout's)."""


class Runner:
    """Runs one child process at a time through ``launch.py``, which reaps it
    with ``os.wait4``, so the peak RSS it reports is that child's own: not a
    maximum over all children, and not floored by this process's peak."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.logs = work / "logs"
        self.logs.mkdir(parents=True, exist_ok=True)
        self.count = 0
        self.launcher = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launch.py")],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv: list[str], label: str) -> dict:
        """Run ``argv`` in the work dir; returns exit code, wall seconds,
        peak RSS in MB and whether the child failed."""
        self.count += 1
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return {"code": None, "wall_s": 0.0, "rss_mb": 0.0, "failed": True, "why": "run deadline passed"}
        stem = self.logs / f"{self.count:03d}-{label}"
        request = {"argv": argv, "cwd": str(self.work), "out": f"{stem}.out", "err": f"{stem}.err", "timeout": remaining}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        line = self.launcher.stdout.readline()
        if not line:
            raise HarnessError(f"launch.py stopped with exit code {self.launcher.wait()}")
        reply = json.loads(line)
        code = reply["code"]
        stderr = Path(f"{stem}.err").read_text(encoding="utf-8", errors="replace")
        why = ""
        if reply["timed_out"]:
            why = "killed at the run deadline"
        elif code != 0:
            why = f"exit code {code}: {stderr.strip()[-300:]}"
        elif "Traceback" in stderr:
            why = f"traceback on stderr: {stderr.strip()[-300:]}"
        return {"code": code, "wall_s": reply["wall_s"], "rss_mb": reply["maxrss_kb"] / 1024, "failed": bool(why), "why": why}

    def close(self) -> None:
        """End the launcher and wait for it."""
        if self.launcher.poll() is None:
            self.launcher.stdin.close()
            self.launcher.wait()
        self.launcher.stdout.close()


class Bench:
    """One run: a generated corpus in ``work`` and the cycles measured on it."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool, scale: float, work: Path):
        self.started = time.monotonic()
        self.seconds = seconds
        self.trace = trace
        self.work = work
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.corpus = synth.generate(workload, seed, self.work, scale)
        self.expected = verify.expected(self.corpus.truth)
        self.runner = Runner(self.work, self.started + 2 * seconds + DEADLINE_MARGIN_S)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: list[dict] = []
        self.setup_s: list[float] = []

    def _record(self, label: str, outcome: dict, problems: list[str] = ()) -> bool:
        """Count one operation; returns whether it failed."""
        self.attempted += 1
        why = outcome["why"] if outcome["failed"] else "; ".join(problems[:5])
        if why:
            self.failed += 1
            self.failures.append(f"{label}: {why}")
        return bool(why)

    def check_program(self) -> None:
        """Fail before measuring unless ``refgraph`` is imported from this checkout."""
        cli = SRC / "refgraph" / "cli.py"
        probe = (
            "import os, sys, refgraph.cli; "
            f"sys.exit(0 if os.path.samefile(refgraph.cli.__file__, {str(cli)!r}) else 3)"
        )
        outcome = self.runner.run([sys.executable, "-c", probe], "probe")
        if outcome["failed"]:
            raise HarnessError(f"refgraph.cli does not import from {cli.relative_to(ROOT)}: {outcome['why']}")

    def measure_setup(self, samples: int) -> None:
        for _ in range(samples):
            outcome = self.runner.run([sys.executable, "-c", SETUP_PROBE], "setup")
            self._record("setup", outcome)
            if not outcome["failed"]:
                self.setup_s.append(outcome["wall_s"])

    def cycle(self, traced: bool) -> dict:
        """One ``build`` -> ``stats`` -> ``export`` pass in a fresh ``out/``."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        index = len(self.digests)
        result = {"traced": traced, "spans": {}}
        for command in COMMANDS:
            args = self.corpus.commands[command]
            if traced:
                spans = self.work / "spans" / f"cycle{index}-{command}.json"
                spans.parent.mkdir(exist_ok=True)
                argv = [sys.executable, str(BENCH_DIR / "child.py"), str(spans), "--", *args]
                result["spans"][command] = spans
            else:
                argv = [sys.executable, "-c", CLI_ENTRY, *args]
            outcome = self.runner.run(argv, command)
            problems = [] if outcome["failed"] else verify.CHECKS[command](out / command, self.expected)
            outcome["failed"] = self._record(f"cycle {index} {command}", outcome, problems)
            result[command] = outcome
        result["total_s"] = sum(result[c]["wall_s"] for c in COMMANDS)
        digests = {name: verify.tree_digest(out / name) for name in COMMANDS}
        digests["all"] = verify.tree_digest(out)
        for name in COMMANDS:
            if self.digests and digests[name] != self.digests[0][name] and not result[name]["failed"]:
                result[name]["failed"] = True
                self.failed += 1
                self.failures.append(f"cycle {index} {name}: output digest differs from cycle 0")
        self.digests.append(digests)
        return result

    def run_cycles(self) -> list[dict]:
        """Untraced cycles, or untraced/traced pairs when tracing, repeated
        while the next one is expected to end within ``--seconds``."""
        plan = (False, True) if self.trace else (False,)
        if not self.trace:
            self.measure_setup(SETUP_SAMPLES_FIRST)
        cycles: list[dict] = []
        start = time.monotonic()
        while True:
            for traced in plan:
                cycles.append(self.cycle(traced))
                if not self.trace:
                    self.measure_setup(SETUP_SAMPLES_PER_CYCLE)
            elapsed = time.monotonic() - start
            if elapsed * (len(cycles) + len(plan)) / len(cycles) > self.seconds:
                return cycles

    def cleanup(self) -> None:
        self.runner.close()
        for name in ("input", "out"):
            shutil.rmtree(self.work / name, ignore_errors=True)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _ok(cycle: dict) -> bool:
    return not any(cycle[c]["failed"] for c in COMMANDS)


def e2e_samples(bench: Bench, cycles: list[dict]) -> dict[str, list[float]]:
    """End-to-end metric -> its samples, one per cycle whose command (for
    ``total_s``: every command) succeeded; set-up: one per probe."""
    samples = {"setup_s": bench.setup_s}
    for command in COMMANDS:
        samples[f"{command}_s"] = [c[command]["wall_s"] for c in cycles if not c[command]["failed"]]
    samples["total_s"] = [c["total_s"] for c in cycles if _ok(c)]
    for command in COMMANDS:
        samples[f"{command}_rss_mb"] = [c[command]["rss_mb"] for c in cycles if not c[command]["failed"]]
    return samples


def e2e_metrics(bench: Bench, cycles: list[dict]) -> dict[str, tuple[float, str, int]]:
    """End-to-end metric -> (value, statistic, sample count), printed and
    reported in ``E2E_UNITS`` order."""
    found = {}
    for name, values in e2e_samples(bench, cycles).items():
        if name in MEAN_METRICS:
            found[name] = (_mean(values), "mean", len(values))
        else:
            found[name] = (_median(values), "median", len(values))
    build_s, _, n = found["build_s"]
    records_per_s = bench.corpus.truth.lines / build_s if build_s else 0.0
    found["build_records_per_s"] = (records_per_s, "record lines / build_s", n)
    return {name: found[name] for name in E2E_UNITS}


def layer_metrics(cycle: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metric -> (value, unit) for one traced cycle, summed over
    its three commands (RSS: the largest rise in one call)."""
    docs = {}
    for command, path in cycle["spans"].items():
        with open(path, encoding="utf-8") as handle:
            docs[command] = json.load(handle)
    empty = {"s": 0.0, "self_s": 0.0, "calls": 0, "gc_s": 0.0, "rss_mb": 0.0, "counters": {}}
    spans: dict[str, dict] = {}
    for doc in docs.values():
        for name, span in doc["spans"].items():
            into = spans.setdefault(name, dict(empty, counters={}))
            for key in ("s", "self_s", "calls", "gc_s"):
                into[key] += span[key]
            into["rss_mb"] = max(into["rss_mb"], span["rss_mb"])
            merge_counters(into["counters"], span.get("counters", {}))

    m: dict[str, tuple[float, str]] = {}
    for name in LAYER_SPANS:
        span = spans.get(name, empty)
        m[f"{name}.s"] = (span["s"], "s")
        m[f"{name}.calls"] = (span["calls"], "count")
        m[f"{name}.gc_s"] = (span["gc_s"], "s")
        m[f"{name}.rss_mb"] = (span["rss_mb"], "MB")

    def count(name: str, key: str) -> float:
        return spans.get(name, empty)["counters"].get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    parse = spans.get("ingest.parse_records", empty)
    m["ingest.parse_records.us_per_line"] = (ratio(parse["s"] * 1e6, count("ingest.parse_records", "lines")), "us/line")
    m["ingest.parse_records.issues"] = (count("ingest.parse_records", "issues"), "count")
    m["ingest.apply_filters.kept_ratio"] = (ratio(count("ingest.apply_filters", "kept"), count("ingest.apply_filters", "in")), "ratio")
    m["history.load_commit_log.entries"] = (count("history.load_commit_log", "entries"), "count")
    m["history.restrict_to_log.kept_ratio"] = (ratio(count("history.restrict_to_log", "kept"), count("history.restrict_to_log", "in")), "ratio")
    m["graph.build.edges_per_record"] = (ratio(count("graph.build", "edges"), count("graph.build", "records")), "edges/record")
    m["graph.partition.subgraphs"] = (count("graph.partition", "subgraphs"), "count")
    m["graph.partition.largest_edges"] = (count("graph.partition", "largest_edges"), "count")
    m["graph.filter_multi_commit.kept_ratio"] = (ratio(count("graph.filter_multi_commit", "kept"), count("graph.filter_multi_commit", "in")), "ratio")
    m["graph.load_graph.bytes"] = (count("graph.load_graph", "bytes"), "bytes")
    m["report.emit_dot.bytes"] = (count("report.emit_dot", "bytes"), "bytes")
    for command, doc in docs.items():
        root = doc["spans"][f"cli.{command}"]
        m[f"cli.{command}.s"] = (root["s"], "s")
        m[f"cli.{command}.self_s"] = (root["self_s"], "s")
        m[f"cli.{command}.process_s"] = (cycle[command]["wall_s"] - root["s"], "s")
        m[f"cli.{command}.rss_mb"] = (cycle[command]["rss_mb"], "MB")
    m["gc.s"] = (sum(doc["gc"]["s"] for doc in docs.values()), "s")
    m["gc.collections"] = (sum(doc["gc"]["collections"] for doc in docs.values()), "count")
    return m


def _traced_ok(cycles: list[dict]) -> list[dict]:
    return [c for c in cycles if c["traced"] and _ok(c)]


def traced_report(cycles: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: medians over traced cycles, plus tracing overhead."""
    traced = _traced_ok(cycles)
    plain = [c for c in cycles if not c["traced"] and _ok(c)]
    if not traced:
        return {}
    per_cycle = [layer_metrics(c) for c in traced]
    report = {name: (_median([pc[name][0] for pc in per_cycle]), unit) for name, (_, unit) in per_cycle[0].items()}
    overhead = _median([c["total_s"] for c in traced]) - _median([c["total_s"] for c in plain])
    report["trace.overhead_s"] = (overhead, "s")
    return report


def _print_accounting(cycle: dict) -> None:
    for command, path in cycle["spans"].items():
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        root = doc["spans"][f"cli.{command}"]
        layers = sum(span["s"] for name, span in doc["spans"].items() if name.split(".")[0] not in ("cli", "trace"))
        counting = doc["spans"].get("trace.counters", {"s": 0.0})["s"]
        wall = cycle[command]["wall_s"]
        print(f"  {command}: traced wall {wall:.3f} s = layer spans {layers:.3f} + trace.counters {counting:.3f} "
              f"+ cli.{command}.self_s {root['self_s']:.3f} + outside main {wall - root['s']:.3f}")
        missing = sorted(set(LAYER_SPANS) - set(doc["discovered"]))
        if missing:
            print(f"  warning: spans not discovered in refgraph.cli: {', '.join(missing)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=synth.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "refgraph" / "cli.py").is_file():
        print(f"bench: program source not found under {SRC}", file=sys.stderr)
        return 2

    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), DEFAULT_SCALE, work)
    try:
        bench.check_program()
        cycles = bench.run_cycles()
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        bench.cleanup()

    truth = bench.corpus.truth
    print(f"workload {args.workload}  seed {args.seed}  record lines {truth.lines}  "
          f"subgraphs {len(truth.subgraphs)}  cycles {len(cycles)}")
    print(f"output digest (sha256 of build+stats+export trees): {bench.digests[0]['all']}")
    if args.trace:
        metrics = traced_report(cycles)
        traced = _traced_ok(cycles)
        if traced:
            print(f"per-layer metrics: medians over {len(traced)} traced cycles; accounting of the last one:")
            _print_accounting(traced[-1])
        for name, (value, unit) in metrics.items():
            print(f"  {name:45s} {value:14.6f} {unit}")
    else:
        samples = e2e_samples(bench, cycles)
        e2e = e2e_metrics(bench, cycles)
        metrics = {name: (value, E2E_UNITS[name]) for name, (value, _, _) in e2e.items()}
        for name, (value, statistic, n) in e2e.items():
            shown = " ".join(f"{v:.4g}" for v in samples.get(name, []))
            print(f"  {name:20s} {value:14.6f} {E2E_UNITS[name]:9s} {statistic}, {n} samples: {shown}")
    failed = bench.failed
    print(f"failed_ops {failed} of attempted_ops {bench.attempted}")
    for failure in bench.failures[:20]:
        print(f"  FAILED {failure}")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (bench.work / "result.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
