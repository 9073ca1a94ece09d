"""Command-line interface: build graphs, emit statistics, export DOT files.

Exit codes: 0 success, 1 fatal input error, 2 selector/config error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import re
import sys
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from . import ingest, output
from .graph import (
    GraphDumpError,
    RefactoringGraph,
    build,
    dump_chunks,
    dump_paths,
    filter_multi_commit,
    graph_to_dict,
    load_graph,
    partition,
    scan_dump,
)
from .history import CommitLogError, load_commit_log, restrict_to_log
from .ingest import (
    DEFAULT_EXCLUDED_KEYWORDS,
    FilterConfig,
    RecordError,
    RefactoringRecord,
    apply_filters,
    parse_records,
)
from .metrics import ProjectAgesError, aggregate, load_project_ages, measure
from .output import CliError
from .report import emit_dot, emit_tables, safe_name, write_json_summary

RUN_LOG_VERSION = "1"

COMMIT_LOG_FORMAT_HELP = (
    "tab-separated: <full-hash>TAB<ISO-8601>TAB<author name>TAB<author email>, "
    "as produced by: git log --first-parent --format='%H%x09%aI%x09%an%x09%ae'"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refgraph",
        description="Build and characterize method-level refactoring graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="ingest records and write per-project graph dumps")
    _add_ingest_args(p_build)
    p_build.add_argument("--out", required=True, help="output directory")
    p_build.set_defaults(func=cmd_build)

    p_stats = sub.add_parser("stats", help="emit corpus tables and the JSON summary")
    _add_ingest_args(p_stats, records_required=False)
    p_stats.add_argument("--graph", nargs="+", action="extend", metavar="PATH", help="graph dump file(s) or a build output directory")
    p_stats.add_argument("--project-ages", metavar="PATH", help="JSON file mapping project name to age")
    p_stats.add_argument("--out", required=True, help="output directory")
    p_stats.set_defaults(func=cmd_stats)

    p_export = sub.add_parser("export", help="export subgraphs as Graphviz DOT files")
    p_export.add_argument("--graph", nargs="+", action="extend", required=True, metavar="PATH", help="graph dump file(s) or a build output directory")
    p_export.add_argument("--all", action="store_true", help="export every subgraph")
    p_export.add_argument("selector", nargs="?", help="subgraph id or vertex substring")
    p_export.add_argument("--out", required=True, help="output directory")
    p_export.set_defaults(func=cmd_export)
    return parser


def _add_ingest_args(parser: argparse.ArgumentParser, records_required: bool = True) -> None:
    parser.add_argument(
        "--records", nargs="+", action="extend", required=records_required, metavar="PATH",
        help="JSON-lines refactoring record file(s)",
    )
    parser.add_argument(
        "--commit-log", action="append", default=[], metavar="PROJECT=PATH",
        help=f"restrict a project to its main-branch commits ({COMMIT_LOG_FORMAT_HELP})",
    )
    parser.add_argument("--min-commits", type=int, default=2, metavar="N",
                        help="keep subgraphs spanning at least N distinct commits (default 2)")
    parser.add_argument("--exclude-keywords", default=None, metavar="CSV",
                        help="comma-separated package segment keywords to drop "
                        f"(default: {','.join(DEFAULT_EXCLUDED_KEYWORDS)})")
    parser.add_argument("--keep-constructors", action="store_true",
                        help="do not drop constructor endpoints")
    parser.add_argument("--strict", action="store_true",
                        help="treat any malformed record line as fatal")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, OSError, CommitLogError, GraphDumpError, ProjectAgesError) as exc:
        print(f"refgraph: error: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, CliError) else 1


def run() -> None:
    sys.exit(main())


# ---------------------------------------------------------------------------
# shared pipeline


def _filter_config(args) -> FilterConfig:
    keywords = DEFAULT_EXCLUDED_KEYWORDS
    if args.exclude_keywords is not None:
        keywords = tuple(k.strip() for k in args.exclude_keywords.split(",") if k.strip())
    return FilterConfig(keywords, drop_constructors=not args.keep_constructors)


def _min_commits(args) -> int:
    if args.min_commits < 1:
        raise CliError(f"--min-commits must be >= 1, got {args.min_commits}", code=2)
    return args.min_commits


def _commit_log_paths(args) -> dict[str, str]:
    paths: dict[str, str] = {}
    for item in args.commit_log:
        project, sep, path = item.partition("=")
        if not sep or not project or not path:
            raise CliError(f"--commit-log expects PROJECT=PATH, got {item!r}", code=2)
        if project in paths:
            raise CliError(f"--commit-log given more than once for project {project!r}", code=2)
        paths[project] = path
    return paths


def _parsed(strict: bool, config: FilterConfig, item: tuple) -> Iterator:
    """What the byte range ``(path, start, end)`` of a records file gives: its line count, its records'
    projects, its parsed, skipped and excluded counts, then its kept records as plain tuples, 1024 at a time.
    The range is parsed whole first, so a worker does not wait on its pipe while it parses."""
    lines = itertools.count()  # counts a line each time the file gives one
    with ingest.open_range(*item) as handle:
        records, issues = parse_records((line for line, _ in zip(handle, lines)), strict=strict)
    kept, excluded = apply_filters(records, config)
    yield next(lines), {record.project for record in records}, len(records), len(issues), excluded
    del records
    while kept:  # each batch let go once sent, so in one process the records are not held twice
        yield list(map(tuple, kept[:1024]))
        del kept[:1024]


def _run_front_pipeline(args, config: FilterConfig) -> tuple[dict[str, Sequence[RefactoringRecord]], dict]:
    """The records analyzed per project, in first-record order, and the run
    log's ``inputs`` and ``stages`` blocks. A project's graph is built from
    its group alone. Each records file is cut into byte ranges,
    parsed and filtered in forked workers; each record joins its project's
    group as its range comes back."""
    from .workers import OrderedMap  # here: importing the CLI loads neither pickle nor signal

    log_paths = _commit_log_paths(args)
    n = _workers()
    ranges = [(path, *span) for path in args.records for span in ingest.record_ranges(path, n)]
    share = {}.setdefault  # so a string two ranges hold is one object here
    groups: dict[str, Sequence[RefactoringRecord]] = {}
    inputs, projects, excluded = [], set(), dict.fromkeys(ingest.FILTER_REASONS, 0)
    with OrderedMap(functools.partial(_parsed, args.strict, config), ranges, n,
                    lambda item: CliError(f"the worker process parsing {item[0]} ended before it was done")) as results:
        logs = {project: load_commit_log(path) for project, path in log_paths.items()}  # as the workers parse
        for (path, start, _), values in zip(ranges, results):
            if not start:
                inputs.append({"path": str(path), "records": 0, "skipped": 0})
                offset = 0  # lines in the file's ranges before this one
            try:
                lines, seen, parsed, skipped, dropped = next(values)
            except RecordError as exc:  # numbered within its range
                raise CliError(f"records file {path}: line {offset + exc.line_no}: {exc.message}") from None
            offset += lines
            projects |= seen
            inputs[-1]["records"] += parsed
            inputs[-1]["skipped"] += skipped
            for reason, count in dropped.items():
                excluded[reason] += count
            for batch in values:
                for fields in batch:
                    record = RefactoringRecord._make(map(share, fields, fields))
                    groups.setdefault(record.project, []).append(record)
    del share
    for project in logs:
        if project not in projects:
            raise CliError(f"--commit-log project {project!r} matches no record", code=2)

    stages = {
        "parsed": sum(entry["records"] for entry in inputs),
        "parse_skipped": sum(entry["skipped"] for entry in inputs),
        "excluded": excluded,
        "filtered": sum(map(len, groups.values())),
        "off_branch_dropped": 0,
        "ambiguous_commit": 0,
    }
    for project, log in logs.items():
        if project in groups:
            outcome = restrict_to_log(groups[project], log)
            groups[project] = outcome.kept
            stages["off_branch_dropped"] += outcome.dropped
            stages["ambiguous_commit"] += len(outcome.issues)

    stages["analyzed"] = sum(map(len, groups.values()))
    return groups, {"inputs": inputs, "stages": stages}


def _split(graph: RefactoringGraph, min_commits: int) -> tuple[int, int, list[RefactoringGraph]]:
    """A graph's subgraph and single-commit subgraph counts, and the
    subgraphs spanning at least ``min_commits`` commits."""
    subgraphs = partition(graph)
    kept, _ = filter_multi_commit(subgraphs, min_commits)
    return len(subgraphs), sum(1 for s in subgraphs if s.commit_count() == 1), kept


def _built(min_commits: int, item: tuple) -> Iterator[dict]:
    """Build and split the graph of a ``(project, group, directory)`` item, write its dump into the
    directory, and yield the project's run-log row."""
    project, group, directory = item
    graph = build(group)
    total, single, kept = _split(graph, min_commits)
    # An exhausted generator drops its frame, so no dump outlives its write.
    _write_json(directory / "graph.json", dump_chunks(graph_to_dict(graph, project)))
    yield dict(project=project, records=len(group), vertices=graph.n_vertices, edges=graph.n_edges,
               subgraphs=total, single_commit=single, multi_commit=total - single,
               below_threshold=total - len(kept), kept=len(kept))


def _workers() -> int:  # one per CPU this process may run on, or one where the platform cannot tell
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


# With a selector, at most this many dumps stay open from their scan to their load, so
# a selector most dumps hold does not run out of file descriptors; the rest are opened again.
_HELD_DUMPS = 64


def _per_dump(paths: Sequence[str], work: Callable[[RefactoringGraph], Iterable],
              selector: str | None = None) -> Iterator[tuple[str, Iterator | None]]:
    """``(project, values)`` per dump under ``paths`` in path order, ``values`` being what ``work`` gives
    for its graph; a second dump of one project is an error. With ``selector``, each dump is first scanned
    here, in path order, by :func:`scan_dump`, and one whose bytes do not hold it is read for its head line
    alone: its ``values`` is None. The other dumps load in forked workers, read back in path order, so errors
    come in path order; a dump whose scan fails is loaded, to fail in its turn. Closing this kills and reaps
    the workers, and closes the dumps still open from their scan."""
    from .workers import OrderedMap

    def loaded(item):  # the dump's project, then what work gives for its graph
        ingest.clear_caches()  # frees the strings only the dumps loaded before held
        project, graph = load_graph(*item)
        yield project
        yield from work(graph)

    dumps = dump_paths(paths)
    heads = {}  # path -> project, of each dump read for its head line alone
    with contextlib.ExitStack() as held:
        loads = []  # load_graph's arguments, per dump to load
        for path in dumps:
            try:
                found = scan_dump(path, selector, keep=len(loads) < _HELD_DUMPS) if selector else None
            except (OSError, GraphDumpError):  # loading the dump raises it again, in its turn
                loads.append((path,))
                break
            if isinstance(found, str):
                heads[path] = found
            else:
                loads.append((path, held.enter_context(found)) if found else (path,))
        results = iter(held.enter_context(OrderedMap(loaded, loads, _workers(), lambda item: CliError(
            f"the worker process loading {item[0]} ended before it was done"))))
        first: dict[str, Path] = {}  # project -> the dump that named it
        for path in dumps:
            project = heads.get(path)
            values = None if project else next(results)
            project = project or next(values)
            if first.setdefault(project, path) != path:
                raise CliError(f"graph dumps {first[project]} and {path} both name project {project!r}")
            yield project, values


def _project_dir(out: Path, project: str, owners: dict[str, str]) -> Path:
    """The directory of ``project`` under ``out``, made. ``owners`` maps each
    directory made so far to its project; two projects sharing one directory
    are an error."""
    # A name of dots alone ("." or "..") would point at --out or above it.
    name = re.sub(r"[^A-Za-z0-9._-]+|^\.+\Z", "_", project)
    if len(name) > 255:  # the usual file name limit; the name is ASCII, one byte a character
        name = safe_name(project, fallback="project")
    if owners.setdefault(name, project) != project:
        raise CliError(f"projects {owners[name]!r} and {project!r} would share the output directory {name!r}")
    (out / name).mkdir()
    return out / name


def _write_json(path: Path, chunks: Iterator[str]) -> None:
    # Chunks are written 1024 at a time: one write per chunk is slow, and
    # joining them all would hold a large dump in memory at once.
    with open(path, "w", encoding="utf-8") as handle:
        while batch := "".join(itertools.islice(chunks, 1024)):
            handle.write(batch)


# ---------------------------------------------------------------------------
# commands


def cmd_build(args) -> int:
    from .workers import OrderedMap

    min_commits = _min_commits(args)
    config = _filter_config(args)
    with output.tree(args.out, "build") as out:
        groups, front_log = _run_front_pipeline(args, config)
        owners: dict[str, str] = {}
        # a collision fails before any dump
        items = [(project, group, _project_dir(out, project, owners)) for project, group in groups.items()]
        if "run_log.json" in owners:
            raise CliError(f"project {owners['run_log.json']!r} would take the path of the run log, run_log.json")
        del groups
        # This process takes the first share itself rather than wait on its workers' rows, so a trace
        # of it (bench/child.py) still sees the graph layer at work.
        with OrderedMap(functools.partial(_built, min_commits), items, _workers(), lambda item: CliError(
                f"the worker process building project {item[0]!r} ended before it was done"), here=True) as rows:
            del items  # the workers' records are then freed here, for this process's own share
            project_rows = [row for values in rows for row in values]
        keys = ("vertices", "edges", "subgraphs", "below_threshold", "kept")
        totals = {key: sum(row[key] for row in project_rows) for key in keys}
        run_log = dict(
            format_version=RUN_LOG_VERSION,
            command="build",
            config={
                "min_commits": min_commits,
                "strict": bool(args.strict),
                "exclude_keywords": list(config.excluded_package_keywords),
                "drop_constructors": config.drop_constructors,
            },
            **front_log,
            projects=project_rows,
            totals=totals,
        )
        _write_json(out / "run_log.json", itertools.chain(json.JSONEncoder(indent=2).iterencode(run_log), "\n"))
    print(f"build: {totals['subgraphs']} subgraphs, {totals['kept']} kept (min-commits={min_commits})")
    return 0


def cmd_stats(args) -> int:
    min_commits = _min_commits(args)
    if bool(args.records) == bool(args.graph):
        raise CliError("pass either --records or --graph, not both" if args.records
                       else "stats requires --records or --graph", code=2)
    for dest in ("commit_log", "exclude_keywords", "keep_constructors", "strict") if args.graph else ():
        if getattr(args, dest) not in (None, False, []):  # given, not left at its default
            raise CliError(f"--{dest.replace('_', '-')} applies only with --records", code=2)
    with output.tree(args.out, "stats") as out:
        ages = load_project_ages(args.project_ages) if args.project_ages else None
        if args.records:
            records = _run_front_pipeline(args, _filter_config(args))[0]
            results = ((project, [_split(build(group), min_commits)]) for project, group in records.items())
        else:
            results = _per_dump(args.graph, lambda graph: [_split(graph, min_commits)])
        with contextlib.closing(results):  # a process holds one project's graph at a time
            rows = sorted((project, total, single, [measure(subgraph) for subgraph in kept])  # a project is one row
                          for project, values in results for total, single, kept in values)
        summary = aggregate({project: metrics for project, *_, metrics in rows}, [row[:3] for row in rows], ages)
        emit_tables(summary, out)
        write_json_summary(summary, out / "summary.json")
    print(f"stats: {summary['n_subgraphs']} subgraphs across {len(summary['projects'])} projects -> {Path(args.out)}")
    return 0


def _dots(graph: RefactoringGraph, selector: str | None) -> Iterator[tuple[str, str]]:
    """``(id, DOT text)`` per subgraph of ``graph`` with a vertex holding ``selector``, or per subgraph if None.
    A subgraph id is one of its vertex labels, so the id selector is a substring match too."""
    if selector is None or any(selector in v for v in graph.vertices):
        for subgraph in partition(graph):
            if selector is None or any(selector in v for v in subgraph.vertices):
                yield subgraph.id, emit_dot(subgraph)


def cmd_export(args) -> int:
    if bool(args.selector) == bool(args.all):
        message = "pass exactly one of a selector or --all"
        if not args.all and len(args.graph) > 1 and not Path(args.graph[-1]).exists():
            # --graph takes every word up to the next option, so a selector right after it is a path
            message += (f"; {args.graph[-1]!r} was read as a --graph path:"
                        " put the selector before --graph or after --out DIR")
        raise CliError(message, code=2)
    if args.all and len(args.graph) > 1 and not Path(args.graph[-1]).exists():
        raise CliError(f"{args.graph[-1]!r} was read as a --graph path and does not exist;"
                       " a selector cannot be combined with --all", code=2)
    selector = None if args.all else args.selector
    owners: dict[str, str] = {}
    written = loaded = total = 0
    dumps = _per_dump(args.graph, lambda graph: _dots(graph, selector), selector)
    with output.tree(args.out, "export") as out, contextlib.closing(dumps):
        for project, dots in dumps:
            total += 1
            loaded += dots is not None
            files: dict[str, str] = {}  # file name -> subgraph id; two ids on one name are an error
            for subgraph_id, text in dots or ():
                if not files:
                    directory = _project_dir(out, project, owners)
                name = f"{safe_name(subgraph_id, fallback='subgraph')}.dot"
                if files.setdefault(name, subgraph_id) != subgraph_id:
                    raise CliError(f"subgraphs {files[name]!r} and {subgraph_id!r} of project {project!r}"
                                   f" would share the file name {name!r}")
                (directory / name).write_text(text, encoding="utf-8")
            written += len(files)
        if selector and not written:
            raise CliError(f"selector matched no subgraph: {selector!r}", code=2)
    print(f"export: wrote {written} DOT file(s) from {loaded} of {total} dump(s) -> {Path(args.out)}")
    return 0


if __name__ == "__main__":
    run()
