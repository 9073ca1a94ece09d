"""Tests of the benchmark itself: generator, oracle, digest, span discovery.

Run from the repository root::

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import child  # noqa: E402
import run  # noqa: E402
import synth  # noqa: E402
import verify  # noqa: E402

SCALE = 0.02


def _tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", synth.WORKLOADS)
def test_generation_is_deterministic(tmp_path, workload):
    first = synth.generate(workload, 7, tmp_path / "a", SCALE)
    again = synth.generate(workload, 7, tmp_path / "b", SCALE)
    other = synth.generate(workload, 8, tmp_path / "c", SCALE)
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")
    assert verify.expected(first.truth) == verify.expected(again.truth)
    assert first.commands == again.commands


def test_generator_and_oracle_import_nothing_from_the_program():
    code = "import sys, synth, verify; sys.exit(any(m.split('.')[0] == 'refgraph' for m in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code], cwd=BENCH).returncode == 0


@pytest.fixture(scope="module", params=synth.WORKLOADS)
def bench(request, tmp_path_factory):
    """Two untraced cycles and one traced cycle of the real CLI, small scale."""
    work = tmp_path_factory.mktemp(request.param)
    b = run.Bench(request.param, seed=3, seconds=0, trace=True, scale=SCALE, work=work)
    b.check_program()
    b.cycles = [b.cycle(traced=False), b.cycle(traced=False), b.cycle(traced=True)]
    yield b
    b.runner.close()


def test_oracle_accepts_the_program(bench):
    assert bench.failures == []
    assert (bench.attempted, bench.failed) == (9, 0)


def test_digest_repeats_across_cycles_traced_or_not(bench):
    assert bench.digests[0] == bench.digests[1] == bench.digests[2]


def _tampered(bench, tmp_path, command: str, filename: str, edit) -> Path:
    out = tmp_path / command
    shutil.copytree(bench.work / "out" / command, out)
    doc = json.loads((out / filename).read_text(encoding="utf-8"))
    edit(doc)
    (out / filename).write_text(json.dumps(doc), encoding="utf-8")
    return out


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.update(n_subgraphs=d["n_subgraphs"] + 1),
        lambda d: d["type_frequency"][0].update(count=d["type_frequency"][0]["count"] - 1),
        lambda d: d["composition"]["all"].update(homogeneous=d["composition"]["all"]["homogeneous"] + 1),
        lambda d: d["authorship"]["per_project"].pop(),
        lambda d: d["subgraph_summary"]["all"].update(single_commit=0),
        lambda d: d.pop("n_edges"),
    ],
)
def test_oracle_rejects_tampered_summary(bench, tmp_path, edit):
    assert verify.check_stats(bench.work / "out" / "stats", bench.expected) == []
    assert verify.check_stats(_tampered(bench, tmp_path, "stats", "summary.json", edit), bench.expected)


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["stages"].update(parsed=d["stages"]["parsed"] - 1),
        lambda d: d["stages"].update(parse_skipped=d["stages"]["parse_skipped"] + 1),
        lambda d: d["stages"]["excluded"].update(constructor=d["stages"]["excluded"]["constructor"] + 1),
        lambda d: d["stages"].update(off_branch_dropped=d["stages"]["off_branch_dropped"] + 1),
        lambda d: d["totals"].update(subgraphs=d["totals"]["subgraphs"] - 1),
        lambda d: d["totals"].update(kept=d["totals"]["kept"] + 1),
    ],
)
def test_oracle_rejects_tampered_run_log(bench, tmp_path, edit):
    assert verify.check_build(bench.work / "out" / "build", bench.expected) == []
    assert verify.check_build(_tampered(bench, tmp_path, "build", "run_log.json", edit), bench.expected)


def test_oracle_rejects_missing_export_and_digest_notices(bench, tmp_path):
    out = tmp_path / "export"
    shutil.copytree(bench.work / "out" / "export", out)
    assert verify.tree_digest(out) == bench.digests[-1]["export"]
    next(out.rglob("*.dot")).unlink()
    assert verify.check_export(out, bench.expected)
    assert verify.tree_digest(out) != bench.digests[-1]["export"]


def test_span_discovery_finds_every_layer_function_the_cli_imports():
    from refgraph import cli

    assert set(run.LAYER_SPANS) <= set(child.discover(cli))


def test_span_discovery_fails_loudly_when_nothing_is_found():
    fake = types.ModuleType("pkg.cli")
    exec("def main():\n    return 0\n", fake.__dict__)
    with pytest.raises(RuntimeError, match="no layer functions"):
        child.discover(fake)


def test_benchmark_json_names_every_reported_metric(bench):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(synth.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    layers = run.traced_report(bench.cycles)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {name: unit for name, (_, unit) in layers.items()}


def test_traced_cycle_accounts_for_every_command(bench):
    traced = bench.cycles[-1]
    layers = run.layer_metrics(traced)
    for command in run.COMMANDS:
        doc = json.loads(traced["spans"][command].read_text(encoding="utf-8"))
        spans = doc["spans"]
        inside = sum(s["s"] for name, s in spans.items() if not name.startswith("cli."))
        assert inside + spans[f"cli.{command}"]["self_s"] == pytest.approx(spans[f"cli.{command}"]["s"])
        assert layers[f"cli.{command}.s"][0] + layers[f"cli.{command}.process_s"][0] == pytest.approx(
            traced[command]["wall_s"]
        )
    assert layers["graph.partition.calls"][0] > 0
    assert layers["metrics.measure.calls"][0] == bench.expected["summary"]["n_subgraphs"]


def test_counter_time_is_kept_out_of_self_time(monkeypatch):
    monkeypatch.setitem(child.COUNTERS, "fake.step", lambda a, r: (time.sleep(0.05), {"n": 1})[1])
    tracer = child.Tracer()
    step = tracer.wrap("fake.step", lambda: None)
    tracer.open("cli.fake")
    step()
    tracer.close()
    spans = tracer.summary()
    assert spans["trace.counters"]["s"] >= 0.05
    assert spans["cli.fake"]["self_s"] < 0.05
    assert spans["fake.step"]["counters"] == {"n": 1}


def test_child_rss_is_its_own_and_span_rss_is_the_rise(tmp_path):
    ballast = b"x" * (64 << 20)  # this process's peak is then above a small child's
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH)!r}); import child; "
        "t = child.Tracer(); t.open('big'); block = b'x' * (64 << 20); t.close(); "
        "del block; t.open('after'); t.close(); s = t.summary(); "
        "print(s['big']['rss_mb'], s['after']['rss_mb'])"
    )
    runner = run.Runner(tmp_path, time.monotonic() + 60)
    try:
        bare = runner.run([sys.executable, "-c", "pass"], "bare")
        traced = runner.run([sys.executable, "-c", code], "tracer")
    finally:
        runner.close()
    del ballast
    assert not bare["failed"] and not traced["failed"]
    assert bare["rss_mb"] < 40
    assert traced["rss_mb"] > bare["rss_mb"] + 60
    big, after = map(float, (tmp_path / "logs" / "002-tracer.out").read_text().split())
    assert big >= 60
    assert after == 0


def test_failed_commands_are_left_out_of_the_samples():
    def cycle(failed_command: str | None) -> dict:
        c = {name: {"wall_s": 1.0, "rss_mb": 50.0, "failed": name == failed_command} for name in run.COMMANDS}
        if failed_command:
            c[failed_command].update(wall_s=0.0, rss_mb=0.0)
        c["total_s"] = sum(c[name]["wall_s"] for name in run.COMMANDS)
        return c

    fake = types.SimpleNamespace(setup_s=[0.1], corpus=types.SimpleNamespace(truth=types.SimpleNamespace(lines=100)))
    cycles = [cycle(None), cycle("stats"), cycle(None)]
    samples = run.e2e_samples(fake, cycles)
    assert samples["stats_s"] == [1.0, 1.0]
    assert samples["stats_rss_mb"] == [50.0, 50.0]
    assert samples["build_s"] == [1.0, 1.0, 1.0]
    assert samples["total_s"] == [3.0, 3.0]
    assert run.e2e_metrics(fake, cycles)["stats_s"] == (1.0, "mean", 2)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "wide-corpus", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
