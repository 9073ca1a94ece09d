"""Per-subgraph measurements and corpus-level aggregation.

Each subgraph is characterized by size (vertices/edges), distinct commits,
age in fractional days, counts per refactoring type, and developer count.
Corpus aggregation produces the summary document: histograms, per-project
tables, and Spearman rank correlations with an approximate two-tailed
p-value.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from datetime import datetime
from decimal import ROUND_HALF_UP, Decimal
from typing import Iterable, Mapping, NamedTuple, Sequence

from .graph import RefactoringGraph

SECONDS_PER_DAY = 86400.0

STUDY_DEVELOPERS_VS_COMMITS = "developers_vs_commits"
STUDY_PROJECT_AGE = "project_age_vs_median_subgraph_age"


class MetricsError(ValueError):
    """A subgraph cannot be measured (missing edge metadata)."""


class CorrelationError(ValueError):
    """Correlation is undefined for the given series."""


class ProjectAgesError(ValueError):
    """A project ages file is not a JSON object mapping names to finite numbers."""


class SubgraphMetrics(NamedTuple):
    """Measured values only: :func:`aggregate` derives composition and authorship."""

    subgraph_id: str
    n_vertices: int
    n_edges: int
    n_commits: int
    age_days: float
    type_counts: Mapping[str, int]
    n_developers: int


class SpearmanResult(NamedTuple):
    rho: float
    n: int
    p_approx: float


def load_project_ages(path) -> dict[str, float]:
    """Read a JSON file mapping project name to age, for :func:`aggregate`."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            data = json.load(handle)
    except UnicodeDecodeError as exc:
        raise ProjectAgesError(f"invalid UTF-8 in project ages file {path}: {exc.reason}") from None
    except RecursionError:
        raise ProjectAgesError(f"invalid project ages file {path}: nested too deeply") from None
    except ValueError as exc:  # a JSONDecodeError, or an integer too long for int()
        raise ProjectAgesError(f"invalid project ages file {path}: {exc}") from None
    # json reads NaN and Infinity, and 1e400 as inf: an age must be a finite float
    if not isinstance(data, dict) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max
        for v in data.values()
    ):
        raise ProjectAgesError(f"project ages file must map project names to numbers: {path}")
    return {str(k): float(v) for k, v in data.items()}


def round_half_up(value: float, digits: int = 1) -> float:
    """Round with ties away from zero (bankers' rounding would drift tables)."""
    quantum = Decimal(1).scaleb(-digits)
    return float(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP))


def pct(count: int, total: int) -> float:
    if total == 0:
        return 0.0
    return round_half_up(100.0 * count / total, 1)


def measure(subgraph: RefactoringGraph) -> SubgraphMetrics:
    """Compute all per-subgraph measurements.

    Age is (newest - oldest edge timestamp) in fractional days: canonical
    timestamps sort in time order, so only those two are read as datetimes.
    Developers are distinct author emails after trimming and lowercasing.
    """
    if not subgraph.edges:
        raise MetricsError("subgraph has no edges")
    commits = set()
    emails = set()
    types: Counter[str] = Counter()
    timestamps = []
    for edge in subgraph.edges:
        email = edge.author_email.strip().lower()
        if not email:
            label = f"{edge.source} -> {edge.target} @ {edge.commit}"
            raise MetricsError(f"edge without author email: {label}")
        commits.add(edge.commit)
        emails.add(email)
        types[edge.type] += 1
        timestamps.append(edge.timestamp)
    oldest, newest = (datetime.fromisoformat(ts[:-1]) for ts in (min(timestamps), max(timestamps)))
    age_days = (newest - oldest).total_seconds() / SECONDS_PER_DAY
    return SubgraphMetrics(
        subgraph_id=subgraph.id,
        n_vertices=subgraph.n_vertices,
        n_edges=subgraph.n_edges,
        n_commits=len(commits),
        age_days=age_days,
        type_counts=dict(sorted(types.items())),
        n_developers=len(emails),
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
    import statistics  # here, not at the top: only stats correlates, and the import slows every start-up

    rho = statistics.correlation(_average_ranks(xs), _average_ranks(ys))
    rho = max(-1.0, min(1.0, rho))
    z = rho * math.sqrt(n - 1)
    p_approx = math.erfc(abs(z) / math.sqrt(2.0))
    return SpearmanResult(rho=rho, n=n, p_approx=p_approx)


def median(values: Sequence[float]) -> float:
    """Median of the sorted list; mean of the middle two when even."""
    import statistics  # see spearman

    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """Medians of the lower and upper halves, the median itself left out of
    both when the count is odd (not Tukey's hinges, which keep it in both)."""
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
    groups: Mapping[str, Sequence[SubgraphMetrics]],
    project_ages: Mapping[str, float] | None = None,
) -> tuple[dict, dict]:
    """Run the two corpus-level correlation studies over each project's metrics.

    The first relates developer count to commit count across subgraphs; the
    second relates each project's age to the median age of its subgraphs.
    Each study is one row ``{study, status, n, rho, p_approx}``; degenerate
    inputs yield a status naming the reason and no numbers.
    """
    metrics = [m for group in groups.values() for m in group]
    dev_commit = _attempt(
        STUDY_DEVELOPERS_VS_COMMITS,
        [float(m.n_commits) for m in metrics],
        [float(m.n_developers) for m in metrics],
        too_few="fewer than 3 subgraphs",
    )

    if project_ages is None:
        project_age = _study(STUDY_PROJECT_AGE, "no project ages provided")
    else:
        aged = [(project, group) for project, group in groups.items() if group and project in project_ages]
        xs = [float(project_ages[project]) for project, _ in aged]
        ys = [median([m.age_days for m in group]) for _, group in aged]
        project_age = _attempt(STUDY_PROJECT_AGE, xs, ys, too_few="fewer than 3 projects")
    return dev_commit, project_age


def _study(study: str, status: str, result: SpearmanResult | None = None) -> dict:
    n, rho, p_approx = (result.n, result.rho, result.p_approx) if result else (None, None, None)
    return {"study": study, "status": status, "n": n, "rho": rho, "p_approx": p_approx}


def _attempt(study: str, xs: list[float], ys: list[float], too_few: str) -> dict:
    if len(xs) < 3:
        return _study(study, too_few)
    try:
        return _study(study, "ok", spearman(xs, ys))
    except CorrelationError as exc:
        return _study(study, str(exc))


def aggregate(
    groups: Mapping[str, Sequence[SubgraphMetrics]],
    splits: Iterable[tuple[str, int, int]],
    project_ages: Mapping[str, float] | None = None,
) -> dict:
    """The summary document: corpus-level tables from per-subgraph metrics.

    ``groups`` maps each project to its metrics, in table order; a project
    with none is left out of every table but ``subgraph_summary``, which
    ``splits`` fills with each ``(project, subgraphs, single_commit)`` count
    before thresholding.  Type rows are sorted by descending count, then
    name.  A subgraph is homogeneous with one refactoring type, and
    single-developer with one developer.  The document is plain dicts,
    lists and scalars, in the key order ``summary.json`` keeps.
    """
    groups = {project: group for project, group in groups.items() if group}
    metrics = [m for group in groups.values() for m in group]

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
        homogeneous = sum(1 for m in group if len(m.type_counts) == 1)
        single = sum(1 for m in group if m.n_developers == 1)
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
                len(m.type_counts) for m in metrics if len(m.type_counts) > 1
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
        "correlations": list(correlate_corpus(groups, project_ages)),
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
