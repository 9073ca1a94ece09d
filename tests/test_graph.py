from __future__ import annotations

import codecs
import json
import os
import random
import re
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corpus
from oracles import bfs_components, dedup_edges
from refgraph import graph as graph_module
from refgraph.graph import (
    GraphDumpError,
    RefactoringGraph,
    build,
    dump_chunks,
    filter_multi_commit,
    graph_to_dict,
    load_graph,
    partition,
    scan_dump,
)
from refgraph.ingest import EDGE_KEYS, parse_signature


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
        keys = {(e.source, e.target) for e in graph.edges}
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
            corpus.make_record(a, b, type="rename", commit="aaaaaaa"),
            corpus.make_record(a, b, type="rename", commit="bbbbbbb"),
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
        assert subgraph.id == min(subgraph.vertices)

    def test_components_match_bfs_oracle_on_200_random_records(self):
        rng = random.Random(200)
        records = corpus.random_records(rng, 200, pool_size=40)
        subgraphs = partition(build(records))
        got = {frozenset(s.vertices) for s in subgraphs}
        oracle = bfs_components([(r.source, r.target) for r in records])
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
                assert vertex not in seen_vertices
                seen_vertices.add(vertex)
            for edge in subgraph.edges:
                assert edge[:4] not in seen_edges
                seen_edges.add(edge[:4])
                assert edge.source in subgraph.vertices
                assert edge.target in subgraph.vertices


def _oracle_partition(graph):
    """The full partition result, with components from the BFS oracle."""
    edges = graph.edges
    components = bfs_components([(e.source, e.target) for e in edges])
    root_of = {label: min(component) for component in components for label in component}
    edges_of: dict[str, list] = {}
    for edge in edges:
        edges_of.setdefault(root_of[edge.source], []).append(edge)
    return [
        RefactoringGraph(sorted(edges_of[min(component)], key=lambda e: (e.source, e.target, e.type, e.commit)))
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
    graph = build(records)
    subgraphs = partition(graph)
    assert subgraphs == _oracle_partition(graph)
    assert {frozenset(s.vertices) for s in subgraphs} == bfs_components([(r.source, r.target) for r in records])

    # A subgraph is the graph of its own edges. Its vertex sets are disjoint
    # and cover the graph's, and its edges, joined, are the graph's.
    for subgraph in subgraphs:
        assert subgraph == build(subgraph.edges)
        assert subgraph.id == subgraph.vertices[0] == min(subgraph.vertices)
    assert sorted(v for s in subgraphs for v in s.vertices) == list(graph.vertices)
    assert sorted(e for s in subgraphs for e in s.edges) == list(graph.edges)

    # Exact duplicates, plus copies whose later timestamp must lose the metadata tie-break.
    duplicates = rng.choices(records, k=len(records) // 2)
    later = [r._replace(timestamp=corpus.shift_timestamp(r.timestamp, seconds=1)) for r in duplicates[::2]]
    noisy = records + duplicates + later
    rng.shuffle(noisy)
    assert partition(build(noisy)) == subgraphs


@settings(max_examples=25, deadline=None)
@given(
    n_edges=st.integers(1, 2000),
    pool_size=st.integers(2, 400),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_edges=1, pool_size=2, seed=0)
def test_build_keeps_the_edge_the_dedup_oracle_keeps(tmp_path_factory, n_edges, pool_size, seed):
    rng = random.Random(seed)
    records = corpus.random_records(rng, n_edges, pool_size=pool_size)
    # Exact duplicates, later-timestamp copies that must lose, and copies
    # with a smaller email at the same timestamp that must win.
    copies = rng.choices(records, k=len(records))
    noisy = (
        records
        + copies[::3]
        + [
            r._replace(timestamp=corpus.shift_timestamp(r.timestamp, seconds=1), author_email="a" + r.author_email)
            for r in copies[1::3]
        ]
        + [r._replace(author_email="a" + r.author_email) for r in copies[2::3]]
    )
    rng.shuffle(noisy)
    graph = build(noisy)
    assert list(graph.edges) == dedup_edges(noisy)

    # A hand-made dump need not be sorted: reversed, and with a conflicting
    # copy of one edge that must lose, it loads as the same graph.
    data = corpus.read_dump(_written(tmp_path_factory, graph, "proj"))
    loser = dict(data["edges"][0], timestamp="2099-01-01T00:00:00Z")
    data["edges"].reverse()
    data["edges"].insert(rng.randint(0, len(data["edges"])), loser)
    assert load_graph(_write_dump(tmp_path_factory, corpus.dump_text(data))) == ("proj", graph)


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


# Text that stresses the writer's escaping: quotes, backslashes, control
# characters, non-ASCII letters and characters outside the BMP.
_dump_text = st.text(st.characters(codec="utf-8") | st.sampled_from(['"', "\\", "\n", "\x00", "\x7f", "\u2028", "é", "😀"]))


def _write_dump(tmp_path_factory, text: str):
    path = tmp_path_factory.mktemp("dump") / "graph.json"
    path.write_text(text, encoding="utf-8")
    return path


def _whole(message: str) -> str:
    """A regular expression matching exactly ``message``, in which ``.*``
    matches anything."""
    return "^" + re.escape(message).replace(r"\.\*", ".*") + "$"


def _written(tmp_path_factory, graph, project):
    """The path of ``graph``'s dump, written as ``build`` writes it."""
    return _write_dump(tmp_path_factory, "".join(dump_chunks(graph_to_dict(graph, project))))


class TestGraphDump:
    def test_round_trip_through_dict(self, tmp_path_factory):
        # four projects' records, renamed into the project the dump names,
        # through graph_to_dict's dict and the dump file build writes from it
        graph = build([record._replace(project="demo") for record in corpus.records_of(corpus.DEMO_CORPUS)])
        assert load_graph(_written(tmp_path_factory, graph, "demo")) == ("demo", graph)

    @given(project=_dump_text.filter(lambda p: p.strip() == p != ""), seed=st.integers(0, 2**32 - 1),
           n_edges=st.integers(0, 80))
    @example(project="mpandroidchart", seed=0, n_edges=0)  # the edgeless graph
    @example(project="../run_log.json", seed=1, n_edges=40)
    @example(project='"a\\b"\n\u2028😀', seed=2, n_edges=40)
    @settings(max_examples=40, deadline=None)
    def test_round_trip_through_file(self, tmp_path_factory, project, seed, n_edges):
        rng = random.Random(seed)
        records = corpus.random_records(rng, n_edges, pool_size=rng.randint(2, 40), n_commits=rng.randint(1, 8),
                                        project=project)
        graph = build(records)
        assert load_graph(_written(tmp_path_factory, graph, project)) == (project, graph)

    def test_loaded_dump_shares_each_distinct_value(self, tmp_path_factory):
        graph = build(corpus.random_records(random.Random(11), 200, pool_size=60, prefix="shared.pkg"))
        _, loaded = load_graph(_written(tmp_path_factory, graph, "proj"))
        edges = loaded.edges
        for name in ("project", "commit", "author_email"):
            values = [getattr(edge, name) for edge in edges]
            assert len({id(value) for value in values}) == len(set(values)) < len(values), name
        ends = [vertex for edge in edges for vertex in (edge.source, edge.target)]
        assert len({id(vertex) for vertex in ends}) == len(set(ends)) < len(ends)

    def test_dump_edge_fields(self, tmp_path_factory):
        graph = build(corpus.records_of(corpus.BUILDER_RENAME_REVERT_RECORDS))
        path = _written(tmp_path_factory, graph, "spring-framework")
        data = corpus.read_dump(path)
        assert list(data) == ["format_version", "project", "edges"]
        assert list(data["edges"][0]) == ["source", "target", "type", "commit", "timestamp", "author_email"]
        head, first = path.read_text(encoding="ascii").splitlines()[:2]
        assert head == '{"format_version": "3", "project": "spring-framework"}'
        assert first.startswith('{"source": "org.springframework.')

    def test_version_mismatch(self, tmp_path_factory):
        for version in ("1", "2", "99", None):
            path = _write_dump(tmp_path_factory, corpus.dump_text({"format_version": version, "project": "p", "edges": []}))
            with pytest.raises(GraphDumpError, match=_whole(f"unsupported graph dump version: {version!r} in {path}")):
                load_graph(path)

    def test_corrupt_edge_rejected(self, tmp_path_factory):
        graph = build(corpus.records_of(corpus.BUILDER_RENAME_REVERT_RECORDS))
        data = corpus.read_dump(_written(tmp_path_factory, graph, "p"))
        data["edges"][0]["type"] = "refactorize"
        path = _write_dump(tmp_path_factory, corpus.dump_text(data))
        with pytest.raises(GraphDumpError, match=_whole(f"corrupt graph dump: line 2: unknown refactoring type: 'refactorize' in {path}")):
            load_graph(path)

    @pytest.mark.parametrize("field, value", [
        ("author_email", ""),
        ("author_email", "   "),
        ("author_email", None),
        ("author_email", 42),
        ("commit", 1234567),
        ("source", ["p.A#m()"]),
    ])
    def test_corrupt_edge_field_rejected(self, tmp_path_factory, field, value):
        graph = build(corpus.records_of(corpus.BUILDER_RENAME_REVERT_RECORDS))
        data = corpus.read_dump(_written(tmp_path_factory, graph, "p"))
        data["edges"][1][field] = value
        path = _write_dump(tmp_path_factory, corpus.dump_text(data))
        with pytest.raises(GraphDumpError, match=_whole(f"corrupt graph dump: line 3: .*{field}.* in {path}")):
            load_graph(path)

    @pytest.mark.parametrize("corrupt, line", [
        (lambda d: d.__setitem__("project", ""), 1),
        (lambda d: d.__setitem__("project", "  "), 1),
        (lambda d: d.__setitem__("project", " x"), 1),
        (lambda d: d.__setitem__("project", "x\t"), 1),
        (lambda d: d["edges"].__setitem__(0, ["p.A#m()"]), 2),
        (lambda d: d["edges"][0].pop("timestamp"), 2),
        (lambda d: d["edges"][1].__setitem__("target", d["edges"][1]["source"]), 3),
    ], ids=["empty project", "blank project", "leading space", "trailing tab", "edge not an object",
            "edge field missing", "self-loop edge"])
    def test_corrupt_dump_structure_rejected(self, tmp_path_factory, corrupt, line):
        graph = build(corpus.records_of(corpus.BUILDER_RENAME_REVERT_RECORDS))
        data = corpus.read_dump(_written(tmp_path_factory, graph, "p"))
        corrupt(data)
        path = _write_dump(tmp_path_factory, corpus.dump_text(data))
        with pytest.raises(GraphDumpError, match=_whole(f"corrupt graph dump: line {line}: .* in {path}")):
            load_graph(path)

    def test_loaded_edges_carry_the_dump_project(self, tmp_path_factory):
        graph = build(corpus.records_of(corpus.DEMO_CORPUS))  # four projects
        _, reloaded = load_graph(_written(tmp_path_factory, graph, "demo"))
        assert {edge.project for edge in reloaded.edges} == {"demo"}
        assert {edge.project for edge in graph.edges} == {
            "mpandroidchart", "elasticsearch", "spring-framework", "okhttp"
        }

    def test_dump_is_written_from_the_graphs_own_records(self, tmp_path_factory):
        # No copy of an edge is made to write it: a dict per edge peaked at
        # 5.8 MB here, the records' own fields at 0.2 MB.
        graph = build(corpus.random_records(random.Random(7), 20000, pool_size=10000, n_commits=50))
        assert graph_to_dict(graph, "proj")["edges"] is graph.edges
        path = tmp_path_factory.mktemp("dump") / "graph.json"
        tracemalloc.start()
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.writelines(dump_chunks(graph_to_dict(graph, "proj")))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
        assert load_graph(path) == ("proj", graph)


_hostile_edges = st.lists(st.tuples(*[_dump_text] * len(EDGE_KEYS)), max_size=5)


@given(project=_dump_text, edges=_hostile_edges)
@example(project="", edges=[])
def test_dump_chunks_are_the_stdlib_encoding(tmp_path_factory, project, edges):
    # Each 6-tuple stands for a record's first six fields, in EDGE_KEYS order.
    dump = {"format_version": "3", "project": project, "edges": edges}
    path = _write_dump(tmp_path_factory, "".join(dump_chunks(dump)))
    text = path.read_bytes().decode("ascii")
    assert text.endswith("\n") and not text.endswith("\n\n")
    lines = text.splitlines()
    assert len(lines) == 1 + len(edges)
    assert [json.dumps(json.loads(line)) for line in lines] == lines
    assert corpus.read_dump(path) == {**dump, "edges": [dict(zip(EDGE_KEYS, values)) for values in edges]}


@given(project=_dump_text)
@example(project="mpandroidchart")
@example(project="")
@example(project=" \u2028")
@example(project="x ")
def test_dump_project_reads_the_head_the_writer_emits(tmp_path_factory, project):
    # The second line is not JSON: load_graph fails on it only once the head holds.
    text = "".join(dump_chunks(graph_to_dict(RefactoringGraph(), project))) + "not JSON\n"
    path = _write_dump(tmp_path_factory, text)
    if project.strip() == project != "":  # the rule a record line's project follows
        problem = f"corrupt graph dump: line 2: invalid JSON: Expecting value in {path}"
    else:
        problem = f"corrupt graph dump: line 1: .*project.* in {path}"
    with pytest.raises(GraphDumpError, match=_whole(problem)):
        load_graph(path)


# Two edges as build writes them, sorted: line 2 is
# {"source": "pkg.Café#m(Map<K, V>)", "target": "pkg.Café#n()", ...}
# and line 3, all ASCII and with no escape, {"source": "pkg.Plain#m(Map<K, V>)", "target": "pkg.Plain#n()", ...}
_SPELLED = build(corpus.records_of([
    corpus.rec("p", "abc1234", "2020-01-01T00:00:00Z", "Dev", "dev@example.org", rtype, f"pkg.{name}#m(Map<K, V>)",
               f"pkg.{name}#n()")
    for name, rtype in (("Café", "rename"), ("Plain", "move"))
]))


def _spelled_text() -> str:
    return "".join(dump_chunks(graph_to_dict(_SPELLED, "p")))


@pytest.mark.parametrize("respell, line, key", [
    (lambda text: text.replace('"pkg.Plain#m', '"\\u0070kg.Plain#m'), 3, "source"),  # an escaped ASCII character
    (lambda text: text.replace("Plain#m(Map<K, V>)", "Plain#m(Map<K,V>)"), 3, "source"),  # spacing parsing drops
    (lambda text: text.replace('"pkg.Caf\\u00e9#n()"', '"pkg. Caf\\u00e9#n()"'), 2, "target"),
    (lambda text: text.replace("\\u00e9", "é"), 2, "source"),  # raw UTF-8, as json.dumps(ensure_ascii=False) writes
    (lambda text: text.replace("\\u00e9", "\\u00E9"), 2, "source"),  # the hex digits upper case
    (lambda text: text.replace("Plain#n", "Plain#\\u006e"), 3, "target"),  # one end as written, one not
], ids=["escaped-ascii", "generic-spacing", "class-path-space", "raw-utf-8", "upper-case-hex", "one-end"])
def test_a_vertex_not_written_as_build_writes_it_is_refused(tmp_path_factory, respell, line, key):
    # A selector export finds a dump's vertices by the bytes build writes,
    # so a dump spelling one otherwise would be skipped although it holds it.
    assert respell(_spelled_text()) != _spelled_text()
    path = _write_dump(tmp_path_factory, respell(_spelled_text()))
    vertex = getattr(_SPELLED.edges[line - 2], key)
    problem = f"corrupt graph dump: line {line}: {key} {vertex!r} is not written as build writes it, {json.dumps(vertex)}"
    with pytest.raises(GraphDumpError, match=_whole(f"{problem} in {path}")):
        load_graph(path)


def test_an_escape_outside_the_vertices_is_loaded(tmp_path_factory):
    respelled = _spelled_text().replace('"target"', '"t\\u0061rget"').replace("dev@", "d\\u0065v@")
    path = _write_dump(tmp_path_factory, respelled)
    assert load_graph(path) == ("p", _SPELLED)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), block=st.integers(1, 48), data=st.data())
@example(seed=0, block=1, data=None)
def test_scan_dump_finds_every_vertex_substring(tmp_path_factory, seed, block, data):
    rng = random.Random(seed)
    records = corpus.random_records(rng, rng.randint(1, 12), pool_size=rng.randint(2, 12), prefix="pké.q\U0001f600")
    graph = build(records)
    path = _written(tmp_path_factory, graph, "p")
    vertex = rng.choice(graph.vertices)
    start = rng.randrange(len(vertex))
    selectors = [vertex[start:rng.randint(start + 1, len(vertex))], "\U0001f600", "é", "#", '"', "\\", "\x00"]
    if data is not None:
        selectors.append(data.draw(st.text(st.sampled_from('"\\é\U0001f600\x00\x1f.#(Cqm0'), min_size=1)))
    with mock.patch.object(graph_module, "_BLOCK", block):
        for selector in selectors:
            found = scan_dump(path, selector)
            if any(selector in v for v in graph.vertices):
                assert found is None, selector
            else:
                assert found in (None, "p"), selector


def test_scan_dump_holds_a_block_at_a_time(tmp_path_factory):
    head, line, _ = _spelled_text().splitlines(keepends=True)
    path = _write_dump(tmp_path_factory, head + line * 40000 + line.replace("#n()", "#last()"))  # about 8 MB
    assert path.stat().st_size > 100 * graph_module._BLOCK
    fds = _open_fds()
    for selector, loads in (("absent", False), ("#last(", True)):
        tracemalloc.start()
        try:
            found = scan_dump(path, selector)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (found is None) == loads
        assert peak < 4 * graph_module._BLOCK, peak
    assert _open_fds() == fds  # a match and a miss alike close the dump


def _open_fds():
    """The file descriptors this process holds open."""
    return sorted(os.listdir("/dev/fd"))


@pytest.mark.parametrize("text", [
    b'{"format_version": "3", "project": 7}\n',
    b"[1]\n",
    b'{"format_version": "2", "project": "p"}\n',
    b"",
    b'{\n  "format_version": "3",\n  "project": "p"\n}\n',
    b'{"format_version": "3", "project": " p"}\n',
    b'{"format_version": "3", "project": "\xff"}\n',
    b'{"format_version": "3", "project": "p"} x\n',
    b'{"format_version": "3", "project": "p"}',
    b'{"format_version": "3", "project": "p"}\r',
    codecs.BOM_UTF8 + b'{"format_version": "3", "project": "p"}\r\n',
    b'\n{"format_version": "3", "project": "p"}\n',
], ids=["project-not-a-string", "not-an-object", "version-2", "empty", "indented", "spaced-project",
        "invalid-utf-8", "extra-data", "no-newline", "carriage-return", "byte-order-mark", "blank-first-line"])
def test_scan_dump_checks_a_head_as_load_graph_does(tmp_path_factory, text):
    # The edge lines hold no "absent", so scan_dump reads only the head.
    line = _spelled_text().splitlines(keepends=True)[1]
    path = tmp_path_factory.mktemp("dump") / "graph.json"
    path.write_bytes(text + line.encode("ascii") * 3)
    fds = _open_fds()
    try:
        expected = load_graph(path)[0]
    except GraphDumpError as exc:
        expected = exc
    if isinstance(expected, str):
        assert scan_dump(path, "absent") == expected
    else:
        with pytest.raises(GraphDumpError) as scanned:
            scan_dump(path, "absent")
        assert str(scanned.value) == str(expected)
    assert _open_fds() == fds  # a good head and a bad one alike close the dump


class TestRecordAsEdge:
    def test_build_keeps_the_records_themselves(self):
        records = corpus.records_of(corpus.CHART_AXIS_RECORDS)
        edges = build(records).edges
        assert all(any(edge is record for record in records) for edge in edges)

    def test_equality_and_hash_include_project(self):
        record = corpus.records_of(corpus.CHART_AXIS_RECORDS)[0]
        assert record._replace(project="elsewhere") != record
        assert record._replace(commit="abcdef0") != record
        copy = record._replace()
        assert copy == record and hash(copy) == hash(record)
        # the project is the last field, so it only orders records that agree on the rest
        other = record._replace(project="a")  # record.project is "mpandroidchart"
        later = other._replace(timestamp=corpus.shift_timestamp(record.timestamp, seconds=1))
        assert sorted([later, record, other]) == [other, record, later]
