from __future__ import annotations

import json
import random
from dataclasses import replace
from datetime import timedelta

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corpus
from oracles import bfs_components
from refgraph.graph import (
    GraphDumpError,
    Subgraph,
    build,
    filter_multi_commit,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    partition,
)
from refgraph.ingest import RefactoringType, parse_signature


class TestBuild:
    def test_single_commit_fanout_shape(self):
        graph = build(corpus.records_of(corpus.SINGLE_COMMIT_FANOUT_RECORDS))
        assert graph.n_vertices == 4
        assert graph.n_edges == 3

    def test_empty_records(self):
        graph = build([])
        assert graph.n_vertices == 0
        assert graph.n_edges == 0

    def test_cycle_is_representable(self):
        graph = build(corpus.records_of(corpus.EXTRACT_RENAME_CYCLE_RECORDS))
        assert graph.n_vertices == 4
        assert graph.n_edges == 4
        keys = {(e.source.canonical, e.target.canonical) for e in graph.edges()}
        assert ("web.Session#b()", "web.Session#c()") in keys
        assert ("web.Session#c()", "web.Session#b()") in keys

    def test_set_semantics_on_duplicate_insertion(self):
        records = corpus.records_of(corpus.TIMEOUT_SETTER_CLEANUP_RECORDS)
        once = build(records)
        twice = build(records + records)
        assert once == twice

    def test_edge_identity_includes_commit(self):
        a = parse_signature("p.A#m()")
        b = parse_signature("p.A#n()")
        records = [
            corpus.make_record(a, b, rtype=RefactoringType.RENAME, commit="aaaaaaa"),
            corpus.make_record(a, b, rtype=RefactoringType.RENAME, commit="bbbbbbb"),
        ]
        graph = build(records)
        assert graph.n_edges == 2

    def test_generic_spacing_does_not_split_a_subgraph(self):
        # The second record cites the first one's target with other spacing.
        records = corpus.records_of(
            [
                corpus.rec("p", "aaaaaaa", "2020-01-01T00:00:00Z", "Ann", "ann@x.org", "move",
                           "p.A#m(Map<K,V>)", "p.B#m(Map<K,V>)"),
                corpus.rec("p", "bbbbbbb", "2020-02-01T00:00:00Z", "Ann", "ann@x.org", "rename",
                           "p.B#m(Map< K , V >)", "p.B#n(Map<K, V>)"),
            ]
        )
        subgraphs = partition(build(records))
        assert len(subgraphs) == 1
        assert subgraphs[0].n_vertices == 3
        assert subgraphs[0].commit_count() == 2

    def test_insertion_order_irrelevant(self):
        rng = random.Random(13)
        records = corpus.random_records(rng, 120, pool_size=25)
        shuffled = records[:]
        rng.shuffle(shuffled)
        left, right = build(records), build(shuffled)
        assert left == right
        assert partition(left) == partition(right)


class TestPartition:
    def test_disjoint_fixtures_split(self):
        records = corpus.records_of(
            corpus.SINGLE_COMMIT_FANOUT_RECORDS + corpus.EXTRACT_RENAME_CYCLE_RECORDS
        )
        subgraphs = partition(build(records))
        assert len(subgraphs) == 2
        assert [s.id for s in subgraphs] == sorted(s.id for s in subgraphs)

    def test_single_edge(self):
        record = corpus.make_record(parse_signature("a.B#m()"), parse_signature("a.B#n()"))
        subgraphs = partition(build([record]))
        assert len(subgraphs) == 1
        assert subgraphs[0].n_vertices == 2
        assert subgraphs[0].n_edges == 1

    def test_id_is_smallest_vertex_label(self):
        subgraph = corpus.subgraph_of(corpus.EXTRACT_RENAME_CYCLE_RECORDS)
        assert subgraph.id == "web.Session#a()"
        assert subgraph.id == min(v.canonical for v in subgraph.vertices)

    def test_components_match_bfs_oracle_on_200_random_records(self):
        rng = random.Random(200)
        records = corpus.random_records(rng, 200, pool_size=40)
        subgraphs = partition(build(records))
        got = {frozenset(v.canonical for v in s.vertices) for s in subgraphs}
        oracle = bfs_components([(r.source.canonical, r.target.canonical) for r in records])
        assert got == oracle

    def test_partition_covers_graph_exactly(self):
        rng = random.Random(77)
        records = corpus.random_records(rng, 300, pool_size=35)
        graph = build(records)
        subgraphs = partition(graph)
        assert sum(s.n_vertices for s in subgraphs) == graph.n_vertices
        assert sum(s.n_edges for s in subgraphs) == graph.n_edges
        seen_vertices = set()
        seen_edges = set()
        for subgraph in subgraphs:
            for vertex in subgraph.vertices:
                assert vertex.canonical not in seen_vertices
                seen_vertices.add(vertex.canonical)
            for edge in subgraph.edges:
                assert edge.key not in seen_edges
                seen_edges.add(edge.key)
                assert edge.source in subgraph.vertices
                assert edge.target in subgraph.vertices


def _oracle_partition(graph):
    """The full partition result, with components from the BFS oracle."""
    edges = graph.edges()
    components = bfs_components([(e.source.canonical, e.target.canonical) for e in edges])
    vertices = {v.canonical: v for v in graph.vertices()}
    root_of = {label: min(component) for component in components for label in component}
    edges_of: dict[str, list] = {}
    for edge in edges:
        edges_of.setdefault(root_of[edge.source.canonical], []).append(edge)
    return [
        Subgraph(
            id=min(component),
            vertices=tuple(vertices[label] for label in sorted(component)),
            edges=tuple(sorted(edges_of[min(component)], key=lambda e: e.key)),
        )
        for component in sorted(components, key=min)
    ]


@settings(max_examples=12, deadline=None)
@given(
    n_edges=st.integers(1, 10**4),
    pool_size=st.integers(2, 2 * 10**4),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_edges=10**4, pool_size=2 * 10**4, seed=1)
@example(n_edges=10**4, pool_size=5000, seed=2)
def test_partition_matches_bfs_oracle_and_ignores_order_and_duplicates(n_edges, pool_size, seed):
    rng = random.Random(seed)
    records = corpus.random_records(rng, n_edges, pool_size=pool_size)
    subgraphs = partition(build(records))
    assert subgraphs == _oracle_partition(build(records))

    # Exact duplicates, plus copies whose later timestamp must lose the metadata tie-break.
    duplicates = rng.choices(records, k=len(records) // 2)
    later = [replace(r, timestamp=r.timestamp + timedelta(seconds=1)) for r in duplicates[::2]]
    noisy = records + duplicates + later
    rng.shuffle(noisy)
    assert partition(build(noisy)) == subgraphs


class TestFilterMultiCommit:
    def test_single_commit_subgraph_excluded(self):
        subgraphs = partition(build(corpus.records_of(corpus.SINGLE_COMMIT_FANOUT_RECORDS)))
        kept, excluded = filter_multi_commit(subgraphs)
        assert not kept
        assert excluded == 1

    def test_multi_commit_subgraph_kept(self):
        subgraphs = partition(build(corpus.records_of(corpus.CHART_AXIS_RECORDS)))
        kept, excluded = filter_multi_commit(subgraphs)
        assert len(kept) == 1
        assert excluded == 0

    def test_split_matches_generated_ground_truth(self):
        rng = random.Random(42)
        records = []
        expected_single = 0
        total = 60
        for index in range(total):
            n_edges = rng.randint(1, 6)
            n_commits = rng.randint(1, n_edges)
            if n_commits == 1:
                expected_single += 1
            records.extend(corpus.chain_records(rng, index, n_edges, n_commits))
        subgraphs = partition(build(records))
        assert len(subgraphs) == total
        kept, excluded = filter_multi_commit(subgraphs)
        assert excluded == expected_single
        assert len(kept) + excluded == total

    def test_higher_threshold(self):
        subgraphs = partition(build(corpus.records_of(corpus.CHART_AXIS_RECORDS)))
        kept, excluded = filter_multi_commit(subgraphs, min_commits=4)
        assert not kept and excluded == 1


class TestGraphDump:
    def test_round_trip_through_dict(self):
        graph = build(corpus.records_of(corpus.DEMO_CORPUS))
        project, reloaded = graph_from_dict(graph_to_dict(graph, "demo"))
        assert project == "demo"
        assert reloaded == graph

    def test_round_trip_through_file(self, tmp_path):
        graph = build(corpus.records_of(corpus.CHART_AXIS_RECORDS))
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(graph_to_dict(graph, "mpandroidchart")), encoding="utf-8")
        project, reloaded = load_graph(path)
        assert project == "mpandroidchart"
        assert reloaded == graph

    def test_dump_edge_fields(self):
        graph = build(corpus.records_of(corpus.BUILDER_RENAME_REVERT_RECORDS))
        data = graph_to_dict(graph, "spring-framework")
        assert set(data["edges"][0]) == {"source", "target", "type", "commit", "timestamp", "author_email"}
        assert data["vertices"] == sorted(data["vertices"])

    def test_version_mismatch(self):
        with pytest.raises(GraphDumpError, match="version"):
            graph_from_dict({"format_version": "99", "project": "p", "vertices": [], "edges": []})

    def test_undeclared_vertex_rejected(self):
        graph = build(corpus.records_of(corpus.BUILDER_RENAME_REVERT_RECORDS))
        data = graph_to_dict(graph, "p")
        data["vertices"] = data["vertices"][:1]
        with pytest.raises(GraphDumpError, match="undeclared"):
            graph_from_dict(data)

    def test_unused_vertex_rejected(self):
        graph = build(corpus.records_of(corpus.BUILDER_RENAME_REVERT_RECORDS))
        data = graph_to_dict(graph, "p")
        data["vertices"].append("zzz.Orphan#alone()")
        with pytest.raises(GraphDumpError, match="not used"):
            graph_from_dict(data)

    def test_corrupt_edge_rejected(self):
        graph = build(corpus.records_of(corpus.BUILDER_RENAME_REVERT_RECORDS))
        data = graph_to_dict(graph, "p")
        data["edges"][0]["type"] = "refactorize"
        with pytest.raises(GraphDumpError, match="corrupt"):
            graph_from_dict(data)

    @pytest.mark.parametrize("field, value", [
        ("author_email", ""),
        ("author_email", "   "),
        ("author_email", None),
        ("author_email", 42),
        ("commit", 1234567),
        ("source", ["p.A#m()"]),
    ])
    def test_corrupt_edge_field_rejected(self, field, value):
        graph = build(corpus.records_of(corpus.BUILDER_RENAME_REVERT_RECORDS))
        data = graph_to_dict(graph, "p")
        data["edges"][0][field] = value
        with pytest.raises(GraphDumpError, match="corrupt graph dump"):
            graph_from_dict(data)

    @pytest.mark.parametrize("corrupt", [
        lambda d: d["vertices"].__setitem__(0, 5),
        lambda d: d["edges"].__setitem__(0, ["p.A#m()"]),
        lambda d: d["edges"][0].pop("timestamp"),
    ], ids=["vertex not a string", "edge not an object", "edge field missing"])
    def test_corrupt_dump_structure_rejected(self, corrupt):
        graph = build(corpus.records_of(corpus.BUILDER_RENAME_REVERT_RECORDS))
        data = graph_to_dict(graph, "p")
        corrupt(data)
        with pytest.raises(GraphDumpError, match="corrupt graph dump"):
            graph_from_dict(data)
