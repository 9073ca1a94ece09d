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

GRAPH_DUMP_VERSION = "2"


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


# How a dump begins, up to its project's JSON string: dump_chunks writes it,
# and dump_project matches these bytes to read the project without a full load.
_HEAD = '{\n  "format_version": %s,\n  "project": '
_HEAD_BYTES = (_HEAD % _encode(GRAPH_DUMP_VERSION)).encode("ascii")
_EDGE_TEMPLATE = "{\n" + ",\n".join(f'      "{key}": %s' for key in EDGE_KEYS) + "\n    }"
_edge_fields = operator.itemgetter(*EDGE_KEYS)


def dump_chunks(dump: dict) -> Iterator[str]:
    """The text of ``json.dumps(dump, indent=2)`` for a dump made by
    :func:`graph_to_dict`, in chunks of one edge.

    With ``indent`` set, ``json`` falls back to its pure-Python encoder; this
    template fills in strings escaped by the same C function it uses.
    """
    yield _HEAD % _encode(dump["format_version"]) + _encode(dump["project"]) + ',\n  "edges": '
    edges = (_EDGE_TEMPLATE % tuple(map(_encode, _edge_fields(edge))) for edge in dump["edges"])
    first = next(edges, None)
    if first is None:
        yield "[]\n}"
        return
    yield "[\n    " + first
    for edge in edges:
        yield ",\n    " + edge
    yield "\n  ]\n}"


def dump_project(path) -> str:
    """The project a dump names, read from its head when the dump begins as
    :func:`dump_chunks` writes it, else by loading it in full (a dump written
    another way may put its keys in any order)."""
    with open(path, "rb") as handle:
        if handle.read(len(_HEAD_BYTES)) == _HEAD_BYTES:
            try:
                project, _ = json.JSONDecoder().raw_decode(handle.readline().decode("utf-8"))
            except ValueError:  # undecodable or cut off: the full load names the defect
                project = None
            if isinstance(project, str):
                return project
    return load_graph(path)[0]


def graph_from_dict(data: dict) -> tuple[str, RefactoringGraph]:
    """Rebuild (project, graph) from a dump produced by :func:`graph_to_dict`.

    The rebuilt graph equals the dumped one, and its edges carry the dump's
    project, which must be a non-empty string.  Edges are checked by
    :func:`~refgraph.ingest.parse_edge_fields`, the rule record lines
    follow; any malformed entry raises :class:`GraphDumpError`.
    """
    if not isinstance(data, dict):
        raise GraphDumpError("graph dump is not an object")
    version = data.get("format_version")
    if version != GRAPH_DUMP_VERSION:
        raise GraphDumpError(f"unsupported graph dump version: {version!r}")
    for key in ("project", "edges"):
        if key not in data:
            raise GraphDumpError(f"graph dump missing key: {key!r}")
    project = data["project"]
    records = []
    try:
        require_strings(data, ("project",))
        if not project:
            raise ValueError("empty project name")
        for entry in data["edges"]:
            if not isinstance(entry, dict):
                raise ValueError("edge is not an object")
            record = RefactoringRecord(*parse_edge_fields(entry), project)
            if record.source == record.target:
                raise ValueError(f"self-loop edge {record.source!r}")
            records.append(record)
    except (TypeError, ValueError) as exc:
        raise GraphDumpError(f"corrupt graph dump: {exc}") from None
    return project, build(records)  # a dump is written sorted, so this sort is linear


def load_graph(path) -> tuple[str, RefactoringGraph]:
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            data = json.load(handle)
        return graph_from_dict(data)
    except GraphDumpError as exc:  # before ValueError, its base class
        raise GraphDumpError(f"{exc} in {path}") from None
    except UnicodeDecodeError as exc:
        raise GraphDumpError(f"invalid UTF-8 in graph dump {path}: {exc.reason}") from None
    except RecursionError:
        raise GraphDumpError(f"invalid JSON in graph dump {path}: nested too deeply") from None
    except ValueError as exc:  # a JSONDecodeError, or an integer too long for int()
        raise GraphDumpError(f"invalid JSON in graph dump {path}: {exc}") from None
