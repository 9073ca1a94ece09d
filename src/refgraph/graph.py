"""Refactoring graphs: build from records, split into weakly connected
subgraphs, and filter by commit span.

Vertices are method signatures (canonical strings); edges point from the
before-state to the after-state of each refactoring.  Vertex and edge
collections have set semantics, so feeding the same record twice changes
nothing.  Edge identity is (source, target, type, commit): the same
operation applied in two different commits yields two edges.
"""

from __future__ import annotations

import json
import operator
from json.encoder import encode_basestring_ascii as _encode
from typing import Iterable, Iterator, Sequence

from .ingest import EDGE_KEYS, RefactoringRecord, parse_edge_fields, require_strings

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
    edges: list[RefactoringRecord] = []
    last = None
    for record in sorted(records):
        if (last is None or record.source != last.source or record.target != last.target
                or record.commit != last.commit or record.type != last.type):
            edges.append(record)
            last = record
    return RefactoringGraph(edges)


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
    """Serializable dump: the project and its edge records. The graph's
    vertices are the edges' ends, so the dump does not list them."""
    return {
        "format_version": GRAPH_DUMP_VERSION,
        "project": project,
        "edges": [
            {
                "source": e.source,
                "target": e.target,
                "type": e.type,
                "commit": e.commit,
                "timestamp": e.timestamp,
                "author_email": e.author_email,
            }
            for e in graph.edges
        ],
    }


# An edge line as json.dumps writes it, filled in with strings escaped by the
# C function json.dumps uses: at half its cost, as no encoder is made per edge.
_EDGE_LINE = "{" + ", ".join(f'"{key}": %s' for key in EDGE_KEYS) + "}\n"
_edge_fields = operator.itemgetter(*EDGE_KEYS)


def dump_chunks(dump: dict) -> Iterator[str]:
    """The lines of a dump made by :func:`graph_to_dict`, each with its
    newline: the head, holding the format version and the project, then one
    line per edge, each the ``json.dumps`` text of its object."""
    yield json.dumps({"format_version": dump["format_version"], "project": dump["project"]}) + "\n"
    for edge in dump["edges"]:
        yield _EDGE_LINE % tuple(map(_encode, _edge_fields(edge)))


_raw_decode = json.JSONDecoder().raw_decode


def _decode_line(line: str, path, line_no: int):
    """The JSON value on line ``line_no`` of the dump at ``path``; only
    whitespace may follow it."""
    try:
        value, end = _raw_decode(line)
        if end == len(line) or not line[end:].strip(" \t\r\n"):
            return value
        problem = "Extra data"
    except json.JSONDecodeError as exc:
        problem = exc.msg
    except RecursionError:
        problem = "nested too deeply"
    except ValueError as exc:  # an integer too long for int()
        problem = str(exc)
    raise GraphDumpError(f"invalid JSON in graph dump {path}: line {line_no}: {problem}")


def load_graph(path) -> tuple[str, RefactoringGraph]:
    """``(project, graph)`` of a dump, read one line at a time; the graph
    equals the dumped one. Edges are checked by
    :func:`~refgraph.ingest.parse_edge_fields`, the rule record lines follow,
    and carry the dump's project, which follows the record rule too: not
    blank, and no whitespace around it."""
    records: list[RefactoringRecord] = []
    line_no = 1
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:  # a leading byte-order mark is skipped
            head = _decode_line(handle.readline(), path, line_no)
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
            for line_no, line in enumerate(handle, start=2):
                edge = _decode_line(line, path, line_no)
                if not isinstance(edge, dict):
                    raise ValueError("edge is not an object")
                record = RefactoringRecord(*parse_edge_fields(edge), project)
                if record.source == record.target:
                    raise ValueError(f"self-loop edge {record.source!r}")
                records.append(record)
    except GraphDumpError:  # before ValueError, its base class
        raise
    except UnicodeDecodeError as exc:  # read in blocks, so its line is not known
        raise GraphDumpError(f"invalid UTF-8 in graph dump {path}: {exc.reason}") from None
    except ValueError as exc:
        raise GraphDumpError(f"corrupt graph dump: line {line_no}: {exc} in {path}") from None
    return project, build(records)  # a dump is written sorted, so this sort is linear
