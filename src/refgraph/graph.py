"""Refactoring graphs: build from records, split into weakly connected
subgraphs, and filter by commit span.

Vertices are method signatures (canonical strings); edges point from the
before-state to the after-state of each refactoring.  Vertex and edge
collections have set semantics, so feeding the same record twice changes
nothing.  Edge identity is (source, target, type, commit): the same
operation applied in two different commits yields two edges.
"""

from __future__ import annotations

import io
import itertools
import json
import operator
from json.encoder import encode_basestring_ascii as _encode
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

from .ingest import EDGE_KEYS, RefactoringRecord, decode_json, parse_edge_fields, require_strings

GRAPH_DUMP_VERSION = "3"


class GraphDumpError(ValueError):
    """A graph dump file is missing, malformed, or internally inconsistent."""


class RefactoringGraph:
    """A refactoring graph: ``edges``, records sorted in field order with one
    per (source, target, type, commit), as :func:`build` and
    :func:`partition` make them, and ``vertices``, the edges' ends, sorted.
    A subgraph is a graph too, named by its ``id``: its smallest vertex, so
    subgraph identity is deterministic across runs.

    Callers are expected to have run the ingest filters first; in
    particular self-loop records are assumed to be gone already.
    """

    __slots__ = ("edges", "vertices", "__weakref__")

    def __init__(self, edges: Iterable[RefactoringRecord] = ()) -> None:
        self.edges = tuple(edges)
        self.vertices = tuple(sorted({vertex for edge in self.edges for vertex in (edge.source, edge.target)}))

    @property
    def id(self) -> str:
        return self.vertices[0]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def commit_count(self) -> int:
        return len({e.commit for e in self.edges})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RefactoringGraph):
            return NotImplemented
        return self.edges == other.edges

    def __repr__(self) -> str:
        return f"RefactoringGraph(vertices={self.n_vertices}, edges={self.n_edges})"


def build(records: Iterable[RefactoringRecord]) -> RefactoringGraph:
    """One graph of all records (set semantics).

    Of several records naming one edge, the one with the smallest
    ``(timestamp, author_email)`` is kept, so the graph does not depend on
    record order: sorted, that record comes first in its run.
    """
    runs = itertools.groupby(sorted(records), operator.itemgetter(0, 1, 2, 3))  # one run per edge
    return RefactoringGraph(next(run) for _, run in runs)


def partition(graph: RefactoringGraph) -> list[RefactoringGraph]:
    """Split a graph into its weakly connected components, sorted by id.

    In the union-find the smaller label always becomes the root, so a
    component's root is its id.
    """
    parent: dict[str, str] = {}

    def find(label: str) -> str:
        parent.setdefault(label, label)
        while (up := parent[label]) != label:
            parent[label] = parent[up]  # path halving
            label = parent[label]
        return label

    for edge in graph.edges:
        a, b = find(edge.source), find(edge.target)
        if a != b:
            parent[max(a, b)] = min(a, b)
    components: dict[str, list[RefactoringRecord]] = {}
    for edge in graph.edges:  # in graph order, so each component's edges are sorted too
        components.setdefault(find(edge.source), []).append(edge)
    return [RefactoringGraph(edges) for _, edges in sorted(components.items())]


def filter_multi_commit(
    subgraphs: Sequence[RefactoringGraph], min_commits: int = 2
) -> tuple[list[RefactoringGraph], int]:
    """Keep subgraphs whose edges span at least ``min_commits`` distinct
    commits; also returns how many were excluded."""
    kept = [s for s in subgraphs if s.commit_count() >= min_commits]
    return kept, len(subgraphs) - len(kept)


def graph_to_dict(graph: RefactoringGraph, project: str) -> dict:
    """Serializable dump: the project and the graph's own edge records, not
    copied; the dump lists no vertices, as they are the edges' ends."""
    return {"format_version": GRAPH_DUMP_VERSION, "project": project, "edges": graph.edges}


# An edge line as json.dumps writes it, filled in with strings escaped by the
# C function json.dumps uses: at half its cost, as no encoder is made per edge.
_EDGE_LINE = "{" + ", ".join(f'"{key}": %s' for key in EDGE_KEYS) + "}\n"


def dump_chunks(dump: dict) -> Iterator[str]:
    """The lines of a dump made by :func:`graph_to_dict`, each with its
    newline: the head, holding the format version and the project, then one
    line per record, the ``json.dumps`` text of its first six fields."""
    yield json.dumps({"format_version": dump["format_version"], "project": dump["project"]}) + "\n"
    for edge in dump["edges"]:
        yield _EDGE_LINE % tuple(map(_encode, edge[:6]))


def dump_paths(paths: Sequence[str]) -> list[Path]:
    """The dump files ``paths`` name, in order: a file is itself; a
    directory, its own ``graph.json`` if any, then its ``*/graph.json`` in
    name order, as ``build`` lays them out.  A dump named twice, under any
    spelling of its path, counts once, at its first place and under its
    first spelling."""
    expanded: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(path.glob("*/graph.json"))
            if (path / "graph.json").is_file():
                candidates.insert(0, path / "graph.json")
            if not candidates and not (path / "run_log.json").is_file():  # a build's run log alone: no project
                raise GraphDumpError(f"no graph dumps found under {path}")
            expanded.extend(candidates)
        elif path.is_file():
            expanded.append(path)
        else:
            raise GraphDumpError(f"graph dump not found: {path}")
    first: dict[Path, Path] = {}  # so B and B/p/graph.json load p once, under its first spelling
    for path in expanded:
        first.setdefault(path.resolve(), path)
    return list(first.values())


def _project(line: str, path) -> str:
    """The project the head line ``line`` of the dump at ``path`` names,
    checked: the dump's format version, and the record rule for the project,
    not blank and no whitespace around it."""
    head = decode_json(line)
    if not isinstance(head, dict):
        raise ValueError("head is not an object")
    if head.get("format_version") != GRAPH_DUMP_VERSION:
        raise GraphDumpError(f"unsupported graph dump version: {head.get('format_version')!r} in {path}")
    require_strings(head, ("project",))
    project = head["project"]
    if not project.strip():
        raise ValueError("empty project name")
    if project != project.strip():
        raise ValueError(f"whitespace around project name {project!r}")
    return project


def _refusal(exc: ValueError, path, line_no: int) -> GraphDumpError:
    """The error refusing the dump at ``path``, whose line ``line_no`` raised ``exc``."""
    if isinstance(exc, GraphDumpError):
        return exc
    if isinstance(exc, UnicodeDecodeError):  # read in blocks, so its line is not known
        return GraphDumpError(f"invalid UTF-8 in graph dump {path}: {exc.reason}")
    return GraphDumpError(f"corrupt graph dump: line {line_no}: {exc} in {path}")


def _text(handle: BinaryIO) -> io.TextIOWrapper:
    return io.TextIOWrapper(handle, encoding="utf-8-sig")  # a leading byte-order mark is skipped


def load_graph(path) -> tuple[str, RefactoringGraph]:
    """``(project, graph)`` of the dump at ``path``, read one line at a time;
    the graph equals the dumped one. Edges are checked by
    :func:`~refgraph.ingest.parse_edge_fields`, the rule record lines follow,
    each of their ends must be on its line as :func:`dump_chunks` writes it,
    so that :func:`scan_dump` finds every vertex by its bytes, and they carry
    the dump's project, which follows the record rule too: not blank, and
    no whitespace around it."""
    records: list[RefactoringRecord] = []
    line_no = 1
    try:
        with _text(open(path, "rb")) as text:
            project = _project(text.readline(), path)
            for line_no, line in enumerate(text, start=2):
                edge = decode_json(line)
                if not isinstance(edge, dict):
                    raise ValueError("edge is not an object")
                record = RefactoringRecord(*parse_edge_fields(edge), project)
                if record.source == record.target:
                    raise ValueError(f"self-loop edge {record.source!r}")
                # An ASCII line with no escape holds each string as decoded; else look for the writer's bytes.
                if not (line.isascii() and "\\" not in line
                        and edge["source"] == record.source and edge["target"] == record.target):
                    for key, vertex in (("source", record.source), ("target", record.target)):
                        if _encode(vertex) not in line:
                            raise ValueError(f"{key} {vertex!r} is not written as build writes it,"
                                             f" {_encode(vertex)}")
                records.append(record)
    except ValueError as exc:
        raise _refusal(exc, path, line_no) from None
    return project, build(records)  # a dump is written sorted, so this sort is linear


_BLOCK = 1 << 16  # bytes scan_dump reads at a time


def scan_dump(path, substring: str) -> str | None:
    """None if the bytes of the dump at ``path`` hold ``substring`` as
    :func:`dump_chunks` writes it, ASCII-escaped; else the project its head
    line names, checked as :func:`load_graph` checks it. As
    :func:`load_graph` refuses a vertex not written so, a dump this gives a
    project for has no vertex holding ``substring``. The dump is read
    ``_BLOCK`` bytes at a time, so its size does not change how much of it
    is held, and is closed before this returns."""
    needle = _encode(substring)[1:-1].encode("ascii")
    with open(path, "rb") as handle:
        tail = b""  # the end of the bytes read so far, too short to hold the needle
        while block := handle.read(_BLOCK):
            window = tail + block
            if needle in window:
                return None
            tail = window[max(0, len(window) - len(needle) + 1):]
        handle.seek(0)
        try:
            with _text(handle) as text:
                return _project(text.readline(), path)
        except ValueError as exc:
            raise _refusal(exc, path, 1) from None
