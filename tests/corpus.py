"""Shared fixture corpora and random generators for the test suite.

The hand-built stories below replay small refactoring histories from real
open-source projects (commit prefixes are the real ones).  Each story forms
exactly one connected subgraph with a known shape, so tests can assert
vertex/edge/commit/developer counts exactly.
"""

from __future__ import annotations

import json
import random
from datetime import datetime, timedelta

from refgraph.graph import RefactoringGraph, build, partition
from refgraph.ingest import (
    REFACTORING_TYPES,
    RefactoringRecord,
    parse_records,
    parse_signature,
    parse_timestamp,
)


def rec(project, commit, timestamp, author_name, author_email, rtype, source, target):
    return {
        "project": project,
        "commit": commit,
        "timestamp": timestamp,
        "author_name": author_name,
        "author_email": author_email,
        "type": rtype,
        "source": source,
        "target": target,
    }


_CHART = "com.github.mikephil.charting.charts.Chart"
_RENDERER = "com.github.mikephil.charting.renderer.YAxisRenderer"

# One developer renames a chart method, later extracts from it, and finally
# extracts to a renderer class: 5 vertices, 4 edges, 3 commits 15 days apart,
# 3 distinct types, single developer.
CHART_AXIS_RECORDS = [
    rec("mpandroidchart", "13104b26", "2014-07-29T10:00:00Z", "Paula Hoffmann", "paula@chartworks.dev",
        "rename", f"{_CHART}#drawYLegend()", f"{_CHART}#drawYLabels()"),
    rec("mpandroidchart", "063c4bb0", "2014-08-11T10:00:00Z", "Paula Hoffmann", "paula@chartworks.dev",
        "extract", f"{_CHART}#drawYLabels()", f"{_CHART}#prepareYLabels()"),
    rec("mpandroidchart", "d930ac23", "2014-08-13T10:00:00Z", "Paula Hoffmann", "paula@chartworks.dev",
        "extract_and_move", f"{_CHART}#drawYLabels()", f"{_RENDERER}#renderAxisLabels(Canvas)"),
    rec("mpandroidchart", "d930ac23", "2014-08-13T10:00:00Z", "Paula Hoffmann", "paula@chartworks.dev",
        "extract_and_move", f"{_CHART}#drawYLabels()", f"{_RENDERER}#drawValues(Canvas, float[])"),
]

_SOCKET = "org.elasticsearch.nio.SocketSelector"
_NIO = "org.elasticsearch.nio.NioSelector"

# Two methods move to a new selector class; three months later a second
# developer extracts their duplicated code into handleTask: 6 vertices,
# 5 edges, 2 commits, 2 developers.
SELECTOR_DEDUPE_RECORDS = [
    rec("elasticsearch", "9ee492a3f07", "2018-01-15T12:00:00Z", "Tim Brandt", "tim.brandt@elastic.example",
        "move", f"{_SOCKET}#processKey(SelectionKey)", f"{_NIO}#processKey(SelectionKey)"),
    rec("elasticsearch", "9ee492a3f07", "2018-01-15T12:00:00Z", "Tim Brandt", "tim.brandt@elastic.example",
        "move", f"{_SOCKET}#preSelect()", f"{_NIO}#preSelect()"),
    rec("elasticsearch", "11fe52ad767", "2018-04-16T12:00:00Z", "Noah Fischer", "noah.fischer@elastic.example",
        "extract", f"{_NIO}#processKey(SelectionKey)", f"{_NIO}#handleTask(Runnable)"),
    rec("elasticsearch", "11fe52ad767", "2018-04-16T12:00:00Z", "Noah Fischer", "noah.fischer@elastic.example",
        "extract", f"{_NIO}#preSelect()", f"{_NIO}#handleTask(Runnable)"),
    rec("elasticsearch", "11fe52ad767", "2018-04-16T12:00:00Z", "Noah Fischer", "noah.fischer@elastic.example",
        "extract", f"{_NIO}#executeListener(BiConsumer, Object)", f"{_NIO}#handleTask(Runnable)"),
]

_BUILDER = "org.springframework.web.server.adapter.WebHttpHandlerBuilder"

# A rename reverted by the same developer six days later: 2 vertices, 2 edges
# forming a cycle, 2 commits, homogeneous, single developer, age 6 days.
BUILDER_RENAME_REVERT_RECORDS = [
    rec("spring-framework", "794693525f", "2017-10-03T09:00:00Z", "Renee Alvarez", "renee@spring.example",
        "rename", f"{_BUILDER}#before(Function)", f"{_BUILDER}#filterBefore(Function)"),
    rec("spring-framework", "91e96d8084", "2017-10-09T09:00:00Z", "Renee Alvarez", "renee@spring.example",
        "rename", f"{_BUILDER}#filterBefore(Function)", f"{_BUILDER}#before(Function)"),
]

_CLIENT = "com.squareup.okhttp.OkHttpClient"
_UTIL = "com.squareup.okhttp.internal.Util"

# Three setter renames, duplicated validation extracted ten months later by a
# second developer, then moved to a util class after another seven months:
# 8 vertices, 7 edges, 3 commits, 2 developers, heterogeneous.
TIMEOUT_SETTER_CLEANUP_RECORDS = [
    rec("okhttp", "daf2ec6b9", "2014-01-20T08:30:00Z", "Mia Keller", "mia@squareup.example",
        "rename", f"{_CLIENT}#setConnectTimeout(long, TimeUnit)", f"{_CLIENT}#connectTimeout(long, TimeUnit)"),
    rec("okhttp", "daf2ec6b9", "2014-01-20T08:30:00Z", "Mia Keller", "mia@squareup.example",
        "rename", f"{_CLIENT}#setReadTimeout(long, TimeUnit)", f"{_CLIENT}#readTimeout(long, TimeUnit)"),
    rec("okhttp", "daf2ec6b9", "2014-01-20T08:30:00Z", "Mia Keller", "mia@squareup.example",
        "rename", f"{_CLIENT}#setWriteTimeout(long, TimeUnit)", f"{_CLIENT}#writeTimeout(long, TimeUnit)"),
    rec("okhttp", "c5a26fefd", "2014-11-20T08:30:00Z", "Leo Martins", "leo@squareup.example",
        "extract", f"{_CLIENT}#connectTimeout(long, TimeUnit)", f"{_CLIENT}#checkDuration(String, long, TimeUnit)"),
    rec("okhttp", "c5a26fefd", "2014-11-20T08:30:00Z", "Leo Martins", "leo@squareup.example",
        "extract", f"{_CLIENT}#readTimeout(long, TimeUnit)", f"{_CLIENT}#checkDuration(String, long, TimeUnit)"),
    rec("okhttp", "c5a26fefd", "2014-11-20T08:30:00Z", "Leo Martins", "leo@squareup.example",
        "extract", f"{_CLIENT}#writeTimeout(long, TimeUnit)", f"{_CLIENT}#checkDuration(String, long, TimeUnit)"),
    rec("okhttp", "a32b1044a", "2015-06-20T08:30:00Z", "Leo Martins", "leo@squareup.example",
        "move", f"{_CLIENT}#checkDuration(String, long, TimeUnit)", f"{_UTIL}#checkDuration(String, long, TimeUnit)"),
]

_PIPELINE = "com.facebook.imagepipeline.core.ImagePipeline"

# Extract-only subgraph grown across three commits by two developers:
# homogeneous, 3 commits.
IMAGE_FETCH_EXTRACT_RECORDS = [
    rec("fresco", "02ef6e0f", "2015-03-10T14:00:00Z", "Ana Costa", "ana@fresco.example",
        "extract", f"{_PIPELINE}#fetchImageFromBitmapCache(ImageRequest)", f"{_PIPELINE}#fetchDecodedImage(ImageRequest, Object)"),
    rec("fresco", "02ef6e0f", "2015-03-10T14:00:00Z", "Ana Costa", "ana@fresco.example",
        "extract", f"{_PIPELINE}#fetchEncodedImage(ImageRequest)", f"{_PIPELINE}#fetchDecodedImage(ImageRequest, Object)"),
    rec("fresco", "b76f56ef", "2017-05-02T11:00:00Z", "Bruno Silva", "bruno@fresco.example",
        "extract", f"{_PIPELINE}#fetchDecodedImage(ImageRequest, Object)", f"{_PIPELINE}#submitFetchRequest(Producer, ImageRequest)"),
    rec("fresco", "017c007b", "2017-06-20T16:45:00Z", "Bruno Silva", "bruno@fresco.example",
        "extract", f"{_PIPELINE}#fetchDecodedImage(ImageRequest, Object)", f"{_PIPELINE}#getCacheKey(ImageRequest)"),
]

# Three methods extracted from one method inside a single commit:
# 4 vertices, 3 edges, 1 commit.
SINGLE_COMMIT_FANOUT_RECORDS = [
    rec("corelib", "e3d8f1a2", "2018-06-05T09:30:00Z", "Alice Moreau", "alice@corelib.example",
        "extract", "core.TaskEngine#m1()", "core.TaskEngine#x()"),
    rec("corelib", "e3d8f1a2", "2018-06-05T09:30:00Z", "Alice Moreau", "alice@corelib.example",
        "extract", "core.TaskEngine#m1()", "core.TaskEngine#y()"),
    rec("corelib", "e3d8f1a2", "2018-06-05T09:30:00Z", "Alice Moreau", "alice@corelib.example",
        "extract", "core.TaskEngine#m1()", "core.TaskEngine#z()"),
]

# Two extracts by one developer, then a rename reverted by a second one:
# 4 vertices, 4 edges with a 2-cycle between the renamed pair.
EXTRACT_RENAME_CYCLE_RECORDS = [
    rec("weblib", "7a1b2c3d", "2019-03-01T10:00:00Z", "Priya Nair", "priya@weblib.example",
        "extract", "web.Session#m2()", "web.Session#a()"),
    rec("weblib", "7a1b2c3d", "2019-03-01T10:00:00Z", "Priya Nair", "priya@weblib.example",
        "extract", "web.Session#m2()", "web.Session#b()"),
    rec("weblib", "8b2c3d4e", "2019-03-08T15:20:00Z", "Omar Haddad", "omar@weblib.example",
        "rename", "web.Session#b()", "web.Session#c()"),
    rec("weblib", "9c3d4e5f", "2019-03-15T11:45:00Z", "Omar Haddad", "omar@weblib.example",
        "rename", "web.Session#c()", "web.Session#b()"),
]

#: The multi-commit corpus used by the CLI tests: four projects, one
#: subgraph each, every subgraph spanning at least two commits.
DEMO_CORPUS = (
    CHART_AXIS_RECORDS
    + SELECTOR_DEDUPE_RECORDS
    + BUILDER_RENAME_REVERT_RECORDS
    + TIMEOUT_SETTER_CLEANUP_RECORDS
)

DEMO_PROJECT_AGES = {
    "mpandroidchart": 6.0,
    "elasticsearch": 9.0,
    "spring-framework": 11.0,
    "okhttp": 7.0,
}


def to_jsonl(dicts) -> str:
    return "".join(json.dumps(d) + "\n" for d in dicts)


def read_dump(path) -> dict:
    """A graph dump file as dicts: its head line's keys plus ``edges``, the
    objects of the lines after it."""
    with open(path, encoding="utf-8-sig") as handle:
        head, *edges = map(json.loads, handle)
    return {**head, "edges": edges}


def dump_text(dump: dict) -> str:
    """The JSON lines of a dump like :func:`read_dump` gives: a head line of
    every key but ``edges``, then one line per edge."""
    return to_jsonl([{key: value for key, value in dump.items() if key != "edges"}, *dump["edges"]])


def record_dict(record: RefactoringRecord) -> dict:
    """The record line that parses back to ``record``."""
    return rec(
        record.project, record.commit, record.timestamp, "Dev", record.author_email,
        record.type, record.source, record.target,
    )


def records_of(dicts) -> list[RefactoringRecord]:
    """Run fixture dicts through the real line parser; fixtures must be clean."""
    result = parse_records(to_jsonl(dicts).splitlines())
    assert not result.issues, result.issues
    return list(result.records)


def subgraph_of(dicts) -> RefactoringGraph:
    """Build and partition fixture records that form exactly one subgraph."""
    subgraphs = partition(build(records_of(dicts)))
    assert len(subgraphs) == 1, f"expected one subgraph, got {len(subgraphs)}"
    return subgraphs[0]


# ---------------------------------------------------------------------------
# random generators (all deterministic via a caller-provided random.Random)

_BASE_TS = "2020-01-01T00:00:00Z"


def shift_timestamp(timestamp: str, **delta) -> str:
    """A canonical timestamp moved by ``timedelta(**delta)``, canonical too."""
    return parse_timestamp((datetime.fromisoformat(timestamp[:-1]) + timedelta(**delta)).isoformat())


def method_pool(size: int, prefix: str = "pool") -> list[str]:
    return [parse_signature(f"{prefix}.C{i // 7}#m{i}()") for i in range(size)]


def make_record(
    source: str,
    target: str,
    type: str = "move",
    commit: str = "abcdef1",
    offset_seconds: int = 0,
    author_email: str = "dev@example.org",
    project: str = "proj",
) -> RefactoringRecord:
    return RefactoringRecord(
        source=source,
        target=target,
        type=type,
        commit=commit,
        timestamp=shift_timestamp(_BASE_TS, seconds=offset_seconds),
        author_email=author_email,
        project=project,
    )


def random_records(
    rng: random.Random,
    n_edges: int,
    pool_size: int = 40,
    n_commits: int = 8,
    n_authors: int = 4,
    prefix: str = "pool",
    project: str = "proj",
) -> list[RefactoringRecord]:
    """Random self-loop-free records over a fixed vertex pool.

    Commit metadata is consistent per commit hash, so graphs built from the
    output never depend on record order.
    """
    pool = method_pool(pool_size, prefix)
    commits = [f"{i:07x}" for i in rng.sample(range(16**6, 16**7 - 1), n_commits)]
    commit_meta = {
        c: (rng.randrange(0, 10**7), f"dev{rng.randrange(n_authors)}@example.org") for c in commits
    }
    records = []
    for _ in range(n_edges):
        source, target = rng.sample(pool, 2)
        commit = rng.choice(commits)
        offset, email = commit_meta[commit]
        records.append(
            make_record(
                source,
                target,
                type=rng.choice(REFACTORING_TYPES),
                commit=commit,
                offset_seconds=offset,
                author_email=email,
                project=project,
            )
        )
    return records


def chain_records(
    rng: random.Random, subgraph_index: int, n_edges: int, n_commits: int
) -> list[RefactoringRecord]:
    """A vertex chain with an exact number of distinct commits.

    The vertex names embed ``subgraph_index`` so chains for different
    indices can never connect to each other.
    """
    assert 1 <= n_commits <= n_edges
    pool = method_pool(n_edges + 1, prefix=f"sg{subgraph_index}")
    commits = [f"{subgraph_index:04x}{i:04x}" for i in range(n_commits)]
    records = []
    for i in range(n_edges):
        # First n_commits edges each introduce a fresh commit, the rest reuse.
        commit = commits[i] if i < n_commits else rng.choice(commits)
        records.append(
            make_record(
                pool[i],
                pool[i + 1],
                type=rng.choice(REFACTORING_TYPES),
                commit=commit,
                offset_seconds=int(commit[-4:], 16),
                author_email=f"dev{rng.randrange(3)}@example.org",
            )
        )
    return records
