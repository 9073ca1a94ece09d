"""Independent oracles the test suite checks library outputs against.

These deliberately avoid the library's own code paths: components come from
a plain breadth-first search over an undirected adjacency map, the rank
correlation oracle uses O(n^2) counting ranks plus a hand-written Pearson,
the filter oracle judges each record on its own, as the ingest filters
once did, with no per-vertex reuse and its own split of each signature,
the commit rule keeps no memo, and edge dedup keys a dict by edge instead
of sorting records and compares timestamps as datetimes, not as strings.
"""

from __future__ import annotations

import math
from collections import deque
from datetime import datetime


def bfs_components(edges: list[tuple[str, str]]) -> set[frozenset[str]]:
    """Connected components of the undirected view of an edge list."""
    adjacency: dict[str, set[str]] = {}
    for a, b in edges:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    components: set[frozenset[str]] = set()
    seen: set[str] = set()
    for start in adjacency:
        if start in seen:
            continue
        queue = deque([start])
        seen.add(start)
        component = {start}
        while queue:
            node = queue.popleft()
            for neighbor in adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    component.add(neighbor)
                    queue.append(neighbor)
        components.add(frozenset(component))
    return components


def dedup_edges(records) -> list:
    """One record per edge ``(source, target, type, commit)``: of several,
    the one with the earlier timestamp, then the smaller author email, the
    first seen on a tie.  Returned in edge order."""

    def rank(record):
        return datetime.fromisoformat(record.timestamp[:-1]), record.author_email

    kept: dict[tuple, object] = {}
    for record in records:
        key = (record.source, record.target, record.type, record.commit)
        current = kept.get(key)
        if current is None or rank(record) < rank(current):
            kept[key] = record
    return [kept[key] for key in sorted(kept)]


def counting_ranks(values) -> list[float]:
    """Average ranks by brute-force counting: O(n^2), no sorting involved."""
    ranks = []
    for v in values:
        less = sum(1 for w in values if w < v)
        equal = sum(1 for w in values if w == v)
        ranks.append(less + (equal + 1) / 2.0)
    return ranks


def pearson(xs, ys) -> float:
    n = len(xs)
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    cov = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = math.fsum((x - mean_x) ** 2 for x in xs)
    var_y = math.fsum((y - mean_y) ** 2 for y in ys)
    return cov / math.sqrt(var_x * var_y)


def normalize_commit(value: str) -> str:
    """A commit hash by the ingest rule, with no memo: surrounding whitespace
    dropped, lowercased, and 7 to 40 hex digits, or ``ValueError``."""
    commit = value.strip().lower()
    if not 7 <= len(commit) <= 40 or any(c not in "0123456789abcdef" for c in commit):
        raise ValueError(f"invalid commit hash: {value!r}")
    return commit


def spearman_rho_oracle(xs, ys) -> float:
    """Rank-then-Pearson with average ranks for ties."""
    return pearson(counting_ranks(xs), counting_ranks(ys))


def exclusion_reason(record, keywords: frozenset[str], drop_constructors: bool) -> str | None:
    """The filter rule that drops one record, checked record by record: a
    package keyword on either end, then a constructor on either end, then a
    self-loop; ``None`` keeps it."""

    def split(signature: str) -> tuple[list[str], list[str], str]:
        # package segments, class path segments and method name; the class
        # path starts at the first segment with an uppercase initial, else
        # it is the last segment
        prefix, member = signature.split("#")
        segments = prefix.split(".")
        first = next((i for i, seg in enumerate(segments) if seg[:1].isupper()), len(segments) - 1)
        return segments[:first], segments[first:], member[: member.find("(")]

    def keyword(signature: str) -> bool:
        return any(seg.lower() in keywords for seg in split(signature)[0] if seg)

    def constructor(signature: str) -> bool:
        _, class_path, method = split(signature)
        return method in ("<init>", class_path[-1].rpartition("$")[2])

    if keywords and (keyword(record.source) or keyword(record.target)):
        return "package-keyword"
    if drop_constructors and (constructor(record.source) or constructor(record.target)):
        return "constructor"
    if record.source == record.target:
        return "self-loop"
    return None


def filter_records(records, keywords, drop_constructors: bool) -> tuple[list, dict[str, int]]:
    """Kept records in input order plus the count of dropped ones per reason."""
    keywords = frozenset(k.lower() for k in keywords)
    kept = []
    report = {"package-keyword": 0, "constructor": 0, "self-loop": 0}
    for record in records:
        reason = exclusion_reason(record, keywords, drop_constructors)
        if reason is None:
            kept.append(record)
        else:
            report[reason] += 1
    return kept, report
