from __future__ import annotations

import csv
import hashlib
import json
import random
import sys

import pytest

import corpus
from dot_grammar import parse_dot
from refgraph.graph import build, filter_multi_commit, partition
from refgraph.metrics import aggregate, measure
from refgraph.report import TABLE_FILES, emit_dot, emit_json_summary, emit_tables, safe_name


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def _demo_summary() -> dict:
    groups = {}
    splits = []
    for dicts in (
        corpus.CHART_AXIS_RECORDS,
        corpus.SELECTOR_DEDUPE_RECORDS,
        corpus.BUILDER_RENAME_REVERT_RECORDS,
        corpus.TIMEOUT_SETTER_CLEANUP_RECORDS,
    ):
        project = dicts[0]["project"]
        subgraphs = partition(build(corpus.records_of(dicts)))
        single = sum(1 for s in subgraphs if s.commit_count() == 1)
        splits.append((project, len(subgraphs), single))
        kept, _ = filter_multi_commit(subgraphs)
        groups[project] = [measure(subgraph) for subgraph in kept]
    return aggregate(groups, splits, corpus.DEMO_PROJECT_AGES)


class TestTables:
    def test_all_tables_written(self, tmp_path):
        paths = emit_tables(_demo_summary(), tmp_path)
        assert sorted(p.name for p in paths) == sorted(TABLE_FILES)

    def test_composition_all_row(self, tmp_path):
        emit_tables(_demo_summary(), tmp_path)
        rows = _read_csv(tmp_path / "composition.csv")
        assert rows[0] == ["project", "homogeneous", "homogeneous_pct", "heterogeneous", "heterogeneous_pct"]
        assert rows[-1] == ["All", "1", "25.0", "3", "75.0"]

    def test_authorship_all_row(self, tmp_path):
        emit_tables(_demo_summary(), tmp_path)
        rows = _read_csv(tmp_path / "authorship.csv")
        assert rows[-1] == ["All", "2", "50.0", "2", "50.0"]

    def test_summary_all_row_is_column_sum(self, tmp_path):
        emit_tables(_demo_summary(), tmp_path)
        rows = _read_csv(tmp_path / "subgraph_summary.csv")
        body, all_row = rows[1:-1], rows[-1]
        for column in (1, 2, 4):
            assert int(all_row[column]) == sum(int(r[column]) for r in body)
        assert all_row == ["All", "4", "0", "0.0", "4", "100.0"]

    def test_type_frequency_total_row(self, tmp_path):
        emit_tables(_demo_summary(), tmp_path)
        rows = _read_csv(tmp_path / "type_frequency.csv")
        assert rows[-1][0] == "All"
        assert int(rows[-1][1]) == sum(int(r[1]) for r in rows[1:-1])
        assert rows[-1][1] == "18"

    def test_age_summary_one_decimal(self, tmp_path):
        emit_tables(_demo_summary(), tmp_path)
        rows = _read_csv(tmp_path / "age_summary.csv")
        by_project = {r[0]: r for r in rows[1:]}
        assert by_project["mpandroidchart"][2] == "15.0"
        assert by_project["spring-framework"][2] == "6.0"
        assert by_project["All"][1] == "4"

    def test_correlations_rows(self, tmp_path):
        emit_tables(_demo_summary(), tmp_path)
        rows = _read_csv(tmp_path / "correlations.csv")
        assert rows[0] == ["study", "status", "n", "rho", "p_approx"]
        by_study = {r[0]: r for r in rows[1:]}
        assert by_study["developers_vs_commits"][1] == "ok"
        assert by_study["developers_vs_commits"][3] == "0.000"
        assert by_study["project_age_vs_median_subgraph_age"][3] == "-0.400"

    def test_empty_corpus_tables(self, tmp_path):
        emit_tables(aggregate({}, []), tmp_path)
        summary = _read_csv(tmp_path / "subgraph_summary.csv")
        assert summary == [
            ["project", "total", "single_commit", "single_commit_pct", "multi_commit", "multi_commit_pct"],
            ["All", "0", "0", "0.0", "0", "0.0"],
        ]
        histograms = _read_csv(tmp_path / "histograms.csv")
        assert histograms == [["metric", "value", "count"]]

    def test_generated_corpus_summary_matches_ground_truth(self, tmp_path):
        rng = random.Random(31)
        records = []
        singles = 0
        total = 1000
        for index in range(total):
            n_edges = rng.randint(1, 5)
            n_commits = rng.randint(1, n_edges)
            singles += n_commits == 1
            records.extend(corpus.chain_records(rng, index, n_edges, n_commits))
        subgraphs = partition(build(records))
        split = ("proj", len(subgraphs), sum(1 for s in subgraphs if s.commit_count() == 1))
        kept, _ = filter_multi_commit(subgraphs)
        emit_tables(aggregate({"proj": [measure(s) for s in kept]}, [split]), tmp_path)
        rows = _read_csv(tmp_path / "subgraph_summary.csv")
        assert rows[-1][1] == str(total)
        assert rows[-1][2] == str(singles)
        assert rows[-1][4] == str(total - singles)

    def test_reemission_is_byte_identical(self, tmp_path):
        summary = _demo_summary()
        first = tmp_path / "a"
        second = tmp_path / "b"
        emit_tables(summary, first)
        emit_tables(summary, second)
        for name in TABLE_FILES:
            assert (first / name).read_bytes() == (second / name).read_bytes()


class TestJsonSummary:
    def test_fixture_developer_table(self):
        doc = json.loads(emit_json_summary(_demo_summary()))
        assert doc["authorship"]["all"]["single"] == 2
        assert doc["authorship"]["all"]["multiple"] == 2

    def test_empty_corpus_document(self):
        doc = json.loads(emit_json_summary(aggregate({}, [])))
        assert doc["n_subgraphs"] == 0
        assert doc["projects"] == []
        assert doc["type_frequency"] == []
        assert doc["subgraph_summary"]["all"]["total"] == 0

    def test_deterministic_output(self):
        summary = _demo_summary()
        assert emit_json_summary(summary) == emit_json_summary(summary)

    def test_tables_are_projections_of_the_summary(self, tmp_path):
        summary = _demo_summary()
        emit_tables(summary, tmp_path)
        doc = json.loads(emit_json_summary(summary))

        composition = _read_csv(tmp_path / "composition.csv")[1:]
        from_json = doc["composition"]["per_project"] + [doc["composition"]["all"]]
        assert [
            [r["project"], str(r["homogeneous"]), f"{r['homogeneous_pct']:.1f}", str(r["heterogeneous"]), f"{r['heterogeneous_pct']:.1f}"]
            for r in from_json
        ] == composition

        summary = _read_csv(tmp_path / "subgraph_summary.csv")[1:]
        from_json = doc["subgraph_summary"]["per_project"] + [doc["subgraph_summary"]["all"]]
        assert [
            [r["project"], str(r["total"]), str(r["single_commit"]), f"{r['single_commit_pct']:.1f}", str(r["multi_commit"]), f"{r['multi_commit_pct']:.1f}"]
            for r in from_json
        ] == summary

        histogram_rows = _read_csv(tmp_path / "histograms.csv")[1:]
        from_json = [
            [metric, str(value), str(count)]
            for metric, series in sorted(doc["histograms"].items())
            for value, count in series
        ]
        assert from_json == histogram_rows

    def test_format_version_present(self):
        doc = json.loads(emit_json_summary(_demo_summary()))
        assert doc["format_version"] == "1"


class TestDot:
    def test_fanout_statement_counts(self):
        dot = emit_dot(corpus.subgraph_of(corpus.SINGLE_COMMIT_FANOUT_RECORDS))
        parsed = parse_dot(dot)
        assert parsed.graph_type == "digraph"
        assert len(parsed.node_stmts) == 4
        assert len(parsed.edge_stmts) == 3

    def test_cycle_contains_both_directed_edges(self):
        dot = emit_dot(corpus.subgraph_of(corpus.EXTRACT_RENAME_CYCLE_RECORDS))
        parsed = parse_dot(dot)
        assert ("web.Session#b()", "web.Session#c()") in parsed.edge_stmts
        assert ("web.Session#c()", "web.Session#b()") in parsed.edge_stmts

    def test_edge_label_carries_type_commit_prefix_and_date(self):
        dot = emit_dot(corpus.subgraph_of(corpus.BUILDER_RENAME_REVERT_RECORDS))
        assert 'label="rename\\n7946935\\n2017-10-03"' in dot
        assert 'label="rename\\n91e96d8\\n2017-10-09"' in dot

    def test_statements_are_sorted_and_stable(self):
        subgraph = corpus.subgraph_of(corpus.TIMEOUT_SETTER_CLEANUP_RECORDS)
        dot = emit_dot(subgraph)
        assert dot == emit_dot(subgraph)
        node_lines = [l for l in dot.splitlines() if l.endswith(';') and '->' not in l]
        assert node_lines == sorted(node_lines)

    def test_every_fixture_parses_under_the_grammar(self):
        for dicts in (
            corpus.CHART_AXIS_RECORDS,
            corpus.SELECTOR_DEDUPE_RECORDS,
            corpus.BUILDER_RENAME_REVERT_RECORDS,
            corpus.TIMEOUT_SETTER_CLEANUP_RECORDS,
            corpus.IMAGE_FETCH_EXTRACT_RECORDS,
            corpus.SINGLE_COMMIT_FANOUT_RECORDS,
            corpus.EXTRACT_RENAME_CYCLE_RECORDS,
        ):
            subgraph = corpus.subgraph_of(dicts)
            parsed = parse_dot(emit_dot(subgraph))
            assert parsed.node_ids == set(subgraph.vertices)


@pytest.mark.parametrize("sha1_built_in", [True, False])
def test_safe_name_digests_are_sha1(monkeypatch, sha1_built_in):
    if not sha1_built_in:  # importing _sha1 fails, as on a Python built without its own hash modules
        monkeypatch.setitem(sys.modules, "_sha1", None)
    for identifier, fallback, safe in [("a.B#m(int)", "f", "a.B_m_int"), ("..", "subgraph", "subgraph"),
                                       ("é" * 300, "project", "project")]:
        digest = hashlib.sha1(identifier.encode("utf-8")).hexdigest()[:8]
        assert safe_name(identifier, fallback=fallback) == f"{safe}-{digest}"
