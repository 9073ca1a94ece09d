"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Tolerances are stated inline; structural checks are exact.
"""

from __future__ import annotations

import filecmp
import random
import time
from contextlib import contextmanager

import pytest

import corpus
from dot_grammar import parse_dot
from oracles import bfs_components, spearman_rho_oracle
from refgraph.cli import main
from refgraph.graph import RefactoringGraph, build, filter_multi_commit, partition
from refgraph.metrics import measure, spearman
from refgraph.report import emit_dot


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({label}): PASS")


def test_criterion_1_fixture_shapes_exact():
    with criterion(1, "fixture subgraphs match their known shapes exactly"):
        started = time.perf_counter()

        fanout = corpus.subgraph_of(corpus.SINGLE_COMMIT_FANOUT_RECORDS)
        assert (fanout.n_vertices, fanout.n_edges) == (4, 3)

        cycle = corpus.subgraph_of(corpus.EXTRACT_RENAME_CYCLE_RECORDS)
        assert (cycle.n_vertices, cycle.n_edges) == (4, 4)
        pairs = {(e.source, e.target) for e in cycle.edges}
        assert ("web.Session#b()", "web.Session#c()") in pairs
        assert ("web.Session#c()", "web.Session#b()") in pairs

        chart = measure(corpus.subgraph_of(corpus.CHART_AXIS_RECORDS))
        assert (chart.n_vertices, chart.n_edges, chart.n_commits) == (5, 4, 3)
        assert len(chart.type_counts) == 3
        assert chart.n_developers == 1
        assert chart.age_days == 15.0

        selector = measure(corpus.subgraph_of(corpus.SELECTOR_DEDUPE_RECORDS))
        assert (selector.n_vertices, selector.n_edges) == (6, 5)
        assert selector.n_commits == 2
        assert selector.n_developers == 2

        revert = measure(corpus.subgraph_of(corpus.BUILDER_RENAME_REVERT_RECORDS))
        assert (revert.n_vertices, revert.n_edges) == (2, 2)
        assert revert.age_days == 6.0
        assert len(revert.type_counts) == 1

        extracts = measure(corpus.subgraph_of(corpus.IMAGE_FETCH_EXTRACT_RECORDS))
        assert len(extracts.type_counts) == 1
        assert extracts.type_counts == {"extract": extracts.n_edges}
        assert extracts.n_commits == 3

        cleanup = measure(corpus.subgraph_of(corpus.TIMEOUT_SETTER_CLEANUP_RECORDS))
        assert (cleanup.n_vertices, cleanup.n_edges, cleanup.n_commits) == (8, 7, 3)
        assert cleanup.n_developers == 2

        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"fixtures took {elapsed:.3f}s (budget 1s)"


def test_criterion_2_partition_matches_bfs_oracle():
    with criterion(2, "partition equals BFS oracle on 1000 random graphs"):
        rng = random.Random(20250810)
        started = time.perf_counter()
        for index in range(1000):
            n_edges = rng.randint(1, 500)
            records = corpus.random_records(rng, n_edges, pool_size=rng.randint(5, 60))
            subgraphs = partition(build(records))
            got = {frozenset(s.vertices) for s in subgraphs}
            oracle = bfs_components([(r.source, r.target) for r in records])
            assert got == oracle, f"component mismatch on instance {index}"
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f}s (budget 30s)"


def test_criterion_3_duplicate_insertion_changes_nothing():
    with criterion(3, "set semantics: duplicated records are no-ops"):
        rng = random.Random(33)
        corpora = [corpus.records_of(corpus.DEMO_CORPUS)] + [
            corpus.random_records(rng, rng.randint(5, 120), pool_size=25) for _ in range(25)
        ]
        for records in corpora:
            baseline_graph = build(records)
            baseline_metrics = [measure(s) for s in partition(baseline_graph)]
            doubled = build(records + records)
            assert doubled.n_vertices == baseline_graph.n_vertices
            assert doubled.n_edges == baseline_graph.n_edges
            assert [measure(s) for s in partition(doubled)] == baseline_metrics
            duplicated_one = build(records + [rng.choice(records)])
            assert duplicated_one == baseline_graph


def test_criterion_4_threshold_accounting():
    with criterion(4, "commit-span split matches generator ground truth"):
        rng = random.Random(44)
        for _ in range(20):
            records = []
            expected_single = 0
            total = rng.randint(1, 80)
            for index in range(total):
                n_edges = rng.randint(1, 6)
                n_commits = rng.randint(1, n_edges)
                expected_single += n_commits == 1
                records.extend(corpus.chain_records(rng, index, n_edges, n_commits))
            subgraphs = partition(build(records))
            assert len(subgraphs) == total
            kept, excluded = filter_multi_commit(subgraphs)
            assert len(kept) + excluded == total
            assert excluded == expected_single


def _random_subgraphs(rng: random.Random, count: int) -> list[RefactoringGraph]:
    collected: list[RefactoringGraph] = []
    while len(collected) < count:
        records = corpus.random_records(rng, rng.randint(2, 40), pool_size=rng.randint(6, 25))
        collected.extend(partition(build(records)))
    return collected[:count]


def test_criterion_5_metric_invariance():
    with criterion(5, "metrics invariant under edge order and time translation"):
        rng = random.Random(55)
        for subgraph in _random_subgraphs(rng, 500):
            baseline = measure(subgraph)

            edges = list(subgraph.edges)
            rng.shuffle(edges)
            permuted = RefactoringGraph(edges)
            assert measure(permuted) == baseline

            translated = RefactoringGraph(
                e._replace(timestamp=corpus.shift_timestamp(e.timestamp, days=137, seconds=4242))
                for e in subgraph.edges
            )
            assert measure(translated) == baseline


def test_criterion_6_spearman_against_oracle():
    with criterion(6, "spearman exact on monotone series, 1e-9 vs oracle"):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]).rho == 1.0
        assert spearman([1, 2, 3, 4], [40, 30, 20, 10]).rho == -1.0
        assert spearman([1.5, 7.0, 7.5, 100.0], [0.1, 0.2, 0.3, 0.4]).rho == 1.0

        rng = random.Random(66)
        checked = 0
        while checked < 1000:
            n = rng.randint(3, 50)
            xs = [rng.randint(0, 9) for _ in range(n)]  # small range forces ties
            ys = [rng.randint(0, 9) for _ in range(n)]
            if min(xs) == max(xs) or min(ys) == max(ys):
                continue
            assert abs(spearman(xs, ys).rho - spearman_rho_oracle(xs, ys)) < 1e-9
            checked += 1


def test_criterion_7_cli_determinism(tmp_path, corpus_file, demo_ages_path, demo_commit_log_path):
    with criterion(7, "two identical CLI runs are byte-identical"):
        trees = []
        for run in ("one", "two"):
            root = tmp_path / run
            build_out = root / "graphs"
            stats_out = root / "stats"
            dot_out = root / "dot"
            assert main(
                ["build", "--records", str(corpus_file), "--out", str(build_out),
                 "--commit-log", f"mpandroidchart={demo_commit_log_path}"]
            ) == 0
            assert main(
                ["stats", "--graph", str(build_out), "--out", str(stats_out),
                 "--project-ages", str(demo_ages_path)]
            ) == 0
            assert main(["export", "--graph", str(build_out), "--out", str(dot_out), "--all"]) == 0
            trees.append(root)

        first, second = trees
        relative = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
        assert relative, "no output files produced"
        assert relative == sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
        for rel in relative:
            assert filecmp.cmp(first / rel, second / rel, shallow=False), rel


def test_criterion_8_dot_validity(tmp_path, corpus_file):
    with criterion(8, "exported DOT parses; rename-revert cycle has both edges"):
        build_out = tmp_path / "graphs"
        dot_out = tmp_path / "dot"
        main(["build", "--records", str(corpus_file), "--out", str(build_out)])
        main(["export", "--graph", str(build_out), "--out", str(dot_out), "--all"])
        files = sorted(dot_out.rglob("*.dot"))
        assert len(files) == 4
        for path in files:
            parsed = parse_dot(path.read_text(encoding="utf-8"))
            assert parsed.graph_type == "digraph"
            assert parsed.node_stmts

        cycle_dot = emit_dot(corpus.subgraph_of(corpus.EXTRACT_RENAME_CYCLE_RECORDS))
        parsed = parse_dot(cycle_dot)
        assert ("web.Session#b()", "web.Session#c()") in parsed.edge_stmts
        assert ("web.Session#c()", "web.Session#b()") in parsed.edge_stmts

        # The demo corpus carries its own reverted rename; it must round-trip too.
        revert_files = [
            p for p in files if "before_Function" in p.name or "WebHttpHandlerBuilder" in p.read_text(encoding="utf-8")
        ]
        assert revert_files
        parsed = parse_dot(revert_files[0].read_text(encoding="utf-8"))
        before = "org.springframework.web.server.adapter.WebHttpHandlerBuilder#before(Function)"
        after = "org.springframework.web.server.adapter.WebHttpHandlerBuilder#filterBefore(Function)"
        assert (before, after) in parsed.edge_stmts
        assert (after, before) in parsed.edge_stmts
