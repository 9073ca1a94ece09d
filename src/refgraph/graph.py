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
from dataclasses import dataclass
from datetime import datetime
from typing import Iterable, Sequence

from .ingest import (
    MethodRef,
    RefactoringRecord,
    RefactoringType,
    format_timestamp,
    normalize_commit,
    parse_signature,
    parse_timestamp,
)

GRAPH_DUMP_VERSION = "1"

EdgeKey = tuple[str, str, str, str]


class GraphDumpError(ValueError):
    """A graph dump file is missing, malformed, or internally inconsistent."""


@dataclass(frozen=True)
class Edge:
    """A directed refactoring edge (before-state -> after-state)."""

    source: MethodRef
    target: MethodRef
    rtype: RefactoringType
    commit: str
    timestamp: datetime
    author_email: str

    @property
    def key(self) -> EdgeKey:
        return (self.source.canonical, self.target.canonical, self.rtype.value, self.commit)


class RefactoringGraph:
    """Vertex and edge sets accumulated from refactoring records.

    Callers are expected to have run the ingest filters first; in
    particular self-loop records are assumed to be gone already.
    """

    def __init__(self) -> None:
        self._vertices: dict[str, MethodRef] = {}
        self._edges: dict[EdgeKey, Edge] = {}

    @property
    def n_vertices(self) -> int:
        return len(self._vertices)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def vertices(self) -> list[MethodRef]:
        """Vertices sorted by canonical signature."""
        return [self._vertices[c] for c in sorted(self._vertices)]

    def edges(self) -> list[Edge]:
        """Edges sorted by (source, target, type, commit)."""
        return [self._edges[k] for k in sorted(self._edges)]

    def add_record(self, record: RefactoringRecord) -> None:
        self.add_edge(
            Edge(
                source=record.source,
                target=record.target,
                rtype=record.rtype,
                commit=record.commit,
                timestamp=record.timestamp,
                author_email=record.author_email,
            )
        )

    def add_edge(self, edge: Edge) -> None:
        self._vertices.setdefault(edge.source.canonical, edge.source)
        self._vertices.setdefault(edge.target.canonical, edge.target)
        key = edge.key
        existing = self._edges.get(key)
        if existing is None:
            self._edges[key] = edge
        elif _metadata_rank(edge) < _metadata_rank(existing):
            # Same edge key with conflicting metadata: keep the smaller
            # tuple so the result is independent of insertion order.
            self._edges[key] = edge

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RefactoringGraph):
            return NotImplemented
        return self._vertices.keys() == other._vertices.keys() and self._edges == other._edges

    def __repr__(self) -> str:
        return f"RefactoringGraph(vertices={self.n_vertices}, edges={self.n_edges})"


def _metadata_rank(edge: Edge) -> tuple[datetime, str]:
    return (edge.timestamp, edge.author_email)


@dataclass(frozen=True)
class Subgraph:
    """One weakly connected component of a refactoring graph.

    ``id`` is the lexicographically smallest canonical vertex label, which
    makes subgraph identity deterministic across runs.
    """

    id: str
    vertices: tuple[MethodRef, ...]
    edges: tuple[Edge, ...]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def commit_count(self) -> int:
        return len({e.commit for e in self.edges})


def build(records: Iterable[RefactoringRecord]) -> RefactoringGraph:
    """Accumulate all records into one graph (set semantics)."""
    graph = RefactoringGraph()
    for record in records:
        graph.add_record(record)
    return graph


class _UnionFind:
    """Disjoint sets over vertex labels, with path halving + union by size."""

    def __init__(self) -> None:
        self._parent: dict[str, str] = {}
        self._size: dict[str, int] = {}

    def add(self, item: str) -> None:
        if item not in self._parent:
            self._parent[item] = item
            self._size[item] = 1

    def find(self, item: str) -> str:
        parent = self._parent
        while parent[item] != item:
            parent[item] = parent[parent[item]]
            item = parent[item]
        return item

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]


def partition(graph: RefactoringGraph) -> list[Subgraph]:
    """Split a graph into its weakly connected components, sorted by id."""
    uf = _UnionFind()
    for vertex in graph.vertices():
        uf.add(vertex.canonical)
    for edge in graph.edges():
        uf.union(edge.source.canonical, edge.target.canonical)

    members: dict[str, list[MethodRef]] = {}
    for vertex in graph.vertices():
        members.setdefault(uf.find(vertex.canonical), []).append(vertex)
    component_edges: dict[str, list[Edge]] = {root: [] for root in members}
    for edge in graph.edges():
        component_edges[uf.find(edge.source.canonical)].append(edge)

    subgraphs = []
    for root, vertices in members.items():
        vertices.sort(key=lambda v: v.canonical)
        edges = sorted(component_edges[root], key=lambda e: e.key)
        subgraphs.append(Subgraph(id=vertices[0].canonical, vertices=tuple(vertices), edges=tuple(edges)))
    subgraphs.sort(key=lambda s: s.id)
    return subgraphs


def filter_multi_commit(
    subgraphs: Sequence[Subgraph], min_commits: int = 2
) -> tuple[list[Subgraph], int]:
    """Keep subgraphs whose edges span at least ``min_commits`` distinct
    commits; also returns how many were excluded."""
    kept = [s for s in subgraphs if s.commit_count() >= min_commits]
    return kept, len(subgraphs) - len(kept)


def graph_to_dict(graph: RefactoringGraph, project: str) -> dict:
    """Serializable dump: canonical vertex strings plus edge records."""
    return {
        "format_version": GRAPH_DUMP_VERSION,
        "project": project,
        "vertices": [v.canonical for v in graph.vertices()],
        "edges": [
            {
                "source": e.source.canonical,
                "target": e.target.canonical,
                "type": e.rtype.value,
                "commit": e.commit,
                "timestamp": format_timestamp(e.timestamp),
                "author_email": e.author_email,
            }
            for e in graph.edges()
        ],
    }


def graph_from_dict(data: dict) -> tuple[str, RefactoringGraph]:
    """Rebuild (project, graph) from a dump produced by :func:`graph_to_dict`.

    The rebuilt graph equals the dumped one.  Any malformed entry, including
    an edge whose ``author_email`` is not a non-empty string, raises
    :class:`GraphDumpError`.
    """
    if not isinstance(data, dict):
        raise GraphDumpError("graph dump is not an object")
    version = data.get("format_version")
    if version != GRAPH_DUMP_VERSION:
        raise GraphDumpError(f"unsupported graph dump version: {version!r}")
    for key in ("project", "vertices", "edges"):
        if key not in data:
            raise GraphDumpError(f"graph dump missing key: {key!r}")
    graph = RefactoringGraph()
    try:
        declared = {parse_signature(v).canonical for v in data["vertices"]}
        for entry in data["edges"]:
            email = entry["author_email"]
            if not isinstance(email, str) or not email.strip():
                raise ValueError(f"invalid author_email: {email!r}")
            graph.add_edge(
                Edge(
                    source=parse_signature(entry["source"]),
                    target=parse_signature(entry["target"]),
                    rtype=RefactoringType.from_string(entry["type"]),
                    commit=normalize_commit(entry["commit"]),
                    timestamp=parse_timestamp(entry["timestamp"]),
                    author_email=email,
                )
            )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise GraphDumpError(f"corrupt graph dump: {exc}") from None
    used = {v.canonical for v in graph.vertices()}
    if used - declared:
        raise GraphDumpError("graph dump edges reference undeclared vertices")
    if declared - used:
        raise GraphDumpError("graph dump declares vertices not used by any edge")
    return str(data["project"]), graph


def save_graph(graph: RefactoringGraph, project: str, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(graph_to_dict(graph, project), handle, indent=2)
        handle.write("\n")


def load_graph(path) -> tuple[str, RefactoringGraph]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise GraphDumpError(f"invalid JSON in graph dump {path}: {exc.msg}") from None
    return graph_from_dict(data)
