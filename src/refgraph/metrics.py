"""Per-subgraph measurements and corpus-level aggregation.

Each subgraph is characterized by size (vertices/edges), distinct commits,
age in fractional days, refactoring-type composition, and developer count.
Corpus aggregation produces the summary document: histograms, per-project
tables, and Spearman rank correlations with an approximate two-tailed
p-value.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .graph import Subgraph

SECONDS_PER_DAY = 86400.0

STUDY_DEVELOPERS_VS_COMMITS = "developers_vs_commits"
STUDY_PROJECT_AGE = "project_age_vs_median_subgraph_age"


class MetricsError(ValueError):
    """A subgraph cannot be measured (missing edge metadata)."""


class CorrelationError(ValueError):
    """Correlation is undefined for the given series."""


class Composition(Enum):
    HOMOGENEOUS = "homogeneous"
    HETEROGENEOUS = "heterogeneous"


class Authorship(Enum):
    SINGLE = "single"
    MULTIPLE = "multiple"


@dataclass(frozen=True)
class SubgraphMetrics:
    subgraph_id: str
    n_vertices: int
    n_edges: int
    n_commits: int
    age_days: float
    type_counts: Mapping[str, int]
    n_distinct_types: int
    composition: Composition
    n_developers: int
    authorship: Authorship


@dataclass(frozen=True)
class SpearmanResult:
    rho: float
    n: int
    p_approx: float


def round_half_up(value: float, digits: int = 1) -> float:
    """Round with ties away from zero (bankers' rounding would drift tables)."""
    quantum = Decimal(1).scaleb(-digits)
    return float(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP))


def pct(count: int, total: int) -> float:
    if total == 0:
        return 0.0
    return round_half_up(100.0 * count / total, 1)


def measure(subgraph: Subgraph) -> SubgraphMetrics:
    """Compute all per-subgraph measurements.

    Age is (newest - oldest edge timestamp) in fractional days.  Developers
    are distinct author emails after trimming and lowercasing.
    """
    if not subgraph.edges:
        raise MetricsError(f"subgraph {subgraph.id!r} has no edges")
    commits = set()
    emails = set()
    types: Counter[str] = Counter()
    timestamps = []
    for edge in subgraph.edges:
        email = edge.author_email.strip().lower()
        if not email:
            label = f"{edge.source.canonical} -> {edge.target.canonical} @ {edge.commit}"
            raise MetricsError(f"edge without author email: {label}")
        commits.add(edge.commit)
        emails.add(email)
        types[edge.rtype.value] += 1
        timestamps.append(edge.timestamp)
    age_days = (max(timestamps) - min(timestamps)).total_seconds() / SECONDS_PER_DAY
    n_distinct_types = len(types)
    n_developers = len(emails)
    return SubgraphMetrics(
        subgraph_id=subgraph.id,
        n_vertices=subgraph.n_vertices,
        n_edges=subgraph.n_edges,
        n_commits=len(commits),
        age_days=age_days,
        type_counts=dict(sorted(types.items())),
        n_distinct_types=n_distinct_types,
        composition=Composition.HOMOGENEOUS if n_distinct_types == 1 else Composition.HETEROGENEOUS,
        n_developers=n_developers,
        authorship=Authorship.SINGLE if n_developers == 1 else Authorship.MULTIPLE,
    )


def _average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks; tied values share the mean of their rank range."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j + 2) / 2.0
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> SpearmanResult:
    """Spearman rank correlation with average ranks for ties.

    The p-value is the large-sample normal approximation
    (z = rho * sqrt(n - 1), two-tailed) and is approximate by construction.
    """
    n = len(xs)
    if len(ys) != n:
        raise CorrelationError("series must have equal length")
    if n < 3:
        raise CorrelationError(f"need at least 3 pairs, got {n}")
    if min(xs) == max(xs) or min(ys) == max(ys):
        raise CorrelationError("constant series: correlation undefined")
    rho = statistics.correlation(_average_ranks(xs), _average_ranks(ys))
    rho = max(-1.0, min(1.0, rho))
    z = rho * math.sqrt(n - 1)
    p_approx = math.erfc(abs(z) / math.sqrt(2.0))
    return SpearmanResult(rho=rho, n=n, p_approx=p_approx)


def median(values: Sequence[float]) -> float:
    """Median of the sorted list; mean of the middle two when even."""
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """Tukey hinges: medians of the lower and upper halves."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("quartiles of empty list")
    if n == 1:
        return ordered[0], ordered[0]
    lower = ordered[: n // 2]
    upper = ordered[(n + 1) // 2 :]
    return median(lower), median(upper)




def correlate_corpus(
    metrics: Sequence[SubgraphMetrics],
    projects: Sequence[str],
    project_ages: Mapping[str, float] | None = None,
) -> tuple[dict, dict]:
    """Run the two corpus-level correlation studies.

    The first relates developer count to commit count across subgraphs; the
    second relates each project's age to the median age of its subgraphs.
    Each study is one row ``{study, status, n, rho, p_approx}``; degenerate
    inputs yield a status naming the reason and no numbers.
    """
    if len(metrics) != len(projects):
        raise ValueError("metrics and projects must be parallel sequences")

    dev_commit = _attempt(
        STUDY_DEVELOPERS_VS_COMMITS,
        [float(m.n_commits) for m in metrics],
        [float(m.n_developers) for m in metrics],
        minimum=3,
        too_few="fewer than 3 subgraphs",
    )

    if project_ages is None:
        project_age = _study(STUDY_PROJECT_AGE, "no project ages provided")
    else:
        ages_by_project: dict[str, list[float]] = {}
        for project, metric in zip(projects, metrics):
            ages_by_project.setdefault(project, []).append(metric.age_days)
        xs = []
        ys = []
        for project, ages in ages_by_project.items():
            if project in project_ages:
                xs.append(float(project_ages[project]))
                ys.append(median(ages))
        project_age = _attempt(
            STUDY_PROJECT_AGE, xs, ys, minimum=3, too_few="fewer than 3 projects"
        )
    return dev_commit, project_age


def _study(study: str, status: str, result: SpearmanResult | None = None) -> dict:
    n, rho, p_approx = (result.n, result.rho, result.p_approx) if result else (None, None, None)
    return {"study": study, "status": status, "n": n, "rho": rho, "p_approx": p_approx}


def _attempt(study: str, xs: list[float], ys: list[float], minimum: int, too_few: str) -> dict:
    if len(xs) < minimum:
        return _study(study, too_few)
    try:
        return _study(study, "ok", spearman(xs, ys))
    except CorrelationError as exc:
        return _study(study, str(exc))


def aggregate(
    metrics: Sequence[SubgraphMetrics],
    projects: Sequence[str],
    splits: Iterable[tuple[str, int, int]],
    project_ages: Mapping[str, float] | None = None,
) -> dict:
    """The summary document: corpus-level tables from per-subgraph metrics.

    ``projects`` is parallel to ``metrics``; ``splits`` holds each project's
    ``(project, subgraphs, single_commit)`` counts before thresholding.
    Project ordering in every table follows first appearance in ``projects``;
    type rows are sorted by descending count, then name.  The document is
    plain dicts, lists and scalars, in the key order ``summary.json`` keeps.
    """
    if len(metrics) != len(projects):
        raise ValueError("metrics and projects must be parallel sequences")

    groups: dict[str, list[SubgraphMetrics]] = {}
    for project, metric in zip(projects, metrics):
        groups.setdefault(project, []).append(metric)

    type_totals: Counter[str] = Counter()
    for metric in metrics:
        type_totals.update(metric.type_counts)
    n_edges = sum(type_totals.values())

    split_counts = list(splits)
    split_counts.append(("All", sum(t for _, t, _ in split_counts), sum(s for _, _, s in split_counts)))
    composition = []
    authorship = []
    age_summary = []
    for project, group in [*groups.items(), ("All", metrics)]:
        n = len(group)
        homogeneous = sum(1 for m in group if m.composition is Composition.HOMOGENEOUS)
        single = sum(1 for m in group if m.authorship is Authorship.SINGLE)
        composition.append({"project": project, **_shares(n, homogeneous=homogeneous, heterogeneous=n - homogeneous)})
        authorship.append({"project": project, **_shares(n, single=single, multiple=n - single)})
        age_summary.append(_age_row(project, group))

    return {
        "projects": list(groups),
        "n_subgraphs": len(metrics),
        "n_edges": n_edges,
        "subgraph_summary": _with_all_row(
            [
                {"project": project, "total": total, **_shares(total, single_commit=single, multi_commit=total - single)}
                for project, total, single in split_counts
            ]
        ),
        "histograms": {  # keyed in name order
            "commits": _histogram(m.n_commits for m in metrics),
            "distinct_types_heterogeneous": _histogram(
                m.n_distinct_types for m in metrics if m.composition is Composition.HETEROGENEOUS
            ),
            "edges": _histogram(m.n_edges for m in metrics),
            "vertices": _histogram(m.n_vertices for m in metrics),
        },
        "type_frequency": [
            {"type": name, "count": count, "pct": pct(count, n_edges)}
            for name, count in sorted(type_totals.items(), key=lambda kv: (-kv[1], kv[0]))
        ],
        "composition": _with_all_row(composition),
        "authorship": _with_all_row(authorship),
        "age_summary": _with_all_row(age_summary),
        "correlations": list(correlate_corpus(metrics, projects, project_ages)),
    }


def _histogram(values: Iterable[int]) -> list[list[int]]:
    """``[value, count]`` pairs in ascending value order."""
    return [[value, count] for value, count in sorted(Counter(values).items())]


def _shares(total: int, **counts: int) -> dict:
    """Each class's count followed by its percentage of ``total``."""
    row = {}
    for name, count in counts.items():
        row[name] = count
        row[f"{name}_pct"] = pct(count, total)
    return row


def _with_all_row(rows: list[dict]) -> dict:
    """A table whose last row is the ``All`` row."""
    return {"per_project": rows[:-1], "all": rows[-1]}


def _age_row(project: str, group: Sequence[SubgraphMetrics]) -> dict:
    if not group:
        return {"project": project, "count": 0, "median_days": None, "q1_days": None, "q3_days": None}
    ages = [m.age_days for m in group]
    q1, q3 = quartiles(ages)
    return {"project": project, "count": len(group), "median_days": median(ages), "q1_days": q1, "q3_days": q3}
