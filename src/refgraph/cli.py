"""Command-line interface: build graphs, emit statistics, export DOT files.

Exit codes: 0 success, 1 fatal input error, 2 selector/config error.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import re
import shutil
import sys
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from . import ingest, options, output
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

# The directory of the new tree that the parse workers write their batches to. No name that _project_dir or
# safe_name gives holds a "~", so no project directory can take this one.
_SPOOL = "spool~"


def main(argv: Sequence[str] | None = None) -> int:
    args = options.build_parser().parse_args(argv)
    try:
        return {"build": cmd_build, "stats": cmd_stats, "export": cmd_export}[args.command](args)
    except (CliError, OSError, CommitLogError, GraphDumpError, ProjectAgesError) as exc:
        print(f"refgraph: error: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, CliError) else 1


def run() -> None:
    sys.exit(main())


# ---------------------------------------------------------------------------
# shared pipeline


def _parsed(strict: bool, config: FilterConfig, item: tuple) -> Iterator:
    """What the byte range ``(path, start, end, stem)`` of a records file gives: its line count, its records'
    projects, its parsed, skipped, excluded and kept counts, then ``(project, batch)`` per project of its kept
    records, in first-record order, once those records are written, pickled as one list of plain tuples, to the
    new file ``batch``: ``stem``, a dot and the project's number in the range. The range is parsed whole first,
    so a worker does not wait on its pipe while it parses."""
    import pickle  # loaded with refgraph.workers, which runs this

    path, start, end, stem = item
    lines = itertools.count()  # counts a line each time the file gives one
    with ingest.open_range(path, start, end) as handle:
        records, issues = parse_records((line for line, _ in zip(handle, lines)), strict=strict)
    kept, excluded = apply_filters(records, config)
    yield next(lines), {record.project for record in records}, len(records), len(issues), excluded, len(kept)
    del records
    groups: dict[str, list[RefactoringRecord]] = {}
    for record in kept:
        groups.setdefault(record.project, []).append(record)
    del kept
    for number, project in enumerate(list(groups)):  # each group let go once written
        batch = f"{stem}.{number}"
        with open(batch, "wb") as handle:
            pickle.dump(list(map(tuple, groups.pop(project))), handle)
        yield project, batch


def _run_front_pipeline(args, config: FilterConfig,
                        spool: Path) -> tuple[list[tuple[str, list[str], str | None]], dict]:
    """Per project, in first-record order, ``(project, batches, log)``: the paths of the batch files of its kept
    records, one per byte range holding any, in range order, and the path of its commit log or None; and the run
    log's ``inputs`` and ``stages`` blocks, the stages after ``filtered`` left at 0 for the per-project step to
    count. Each records file is cut into byte ranges, parsed and filtered in forked workers, which write the
    batches into the directory ``spool``, made here, so this process holds none of them. No commit log is read
    here: each is loaded where its project is built, and one naming a project of no record is an error first."""
    from .workers import OrderedMap  # here: importing the CLI loads neither pickle nor signal

    log_paths = options.commit_log_paths(args)
    n = _workers()
    spool.mkdir()
    ranges = [(path, *span) for path in args.records for span in ingest.record_ranges(path, n)]
    ranges = [(*item, str(spool / str(i))) for i, item in enumerate(ranges)]  # range i's batches: i.0, i.1, ...
    groups: dict[str, list[str]] = {}
    inputs, projects, excluded, filtered = [], set(), dict.fromkeys(ingest.FILTER_REASONS, 0), 0
    with OrderedMap(functools.partial(_parsed, args.strict, config), ranges, n,
                    lambda item: CliError(f"the worker process parsing {item[0]} ended before it was done")) as results:
        for (path, start, *_), values in zip(ranges, results):
            if not start:
                inputs.append({"path": str(path), "records": 0, "skipped": 0})
                offset = 0  # lines in the file's ranges before this one
            try:
                lines, seen, parsed, skipped, dropped, kept = next(values)
            except RecordError as exc:  # numbered within its range
                raise CliError(f"records file {path}: line {offset + exc.line_no}: {exc.message}") from None
            offset += lines
            projects |= seen
            inputs[-1]["records"] += parsed
            inputs[-1]["skipped"] += skipped
            for reason, count in dropped.items():
                excluded[reason] += count
            filtered += kept
            for project, batch in values:
                groups.setdefault(project, []).append(batch)
    for project in log_paths:
        if project not in projects:
            raise CliError(f"--commit-log project {project!r} matches no record", code=2)

    stages = {
        "parsed": sum(entry["records"] for entry in inputs),
        "parse_skipped": sum(entry["skipped"] for entry in inputs),
        "excluded": excluded,
        "filtered": filtered,
        "off_branch_dropped": 0,
        "ambiguous_commit": 0,
        "analyzed": 0,
    }
    return [(project, batches, log_paths.get(project)) for project, batches in groups.items()], \
        {"inputs": inputs, "stages": stages}


def _split(graph: RefactoringGraph, min_commits: int) -> tuple[int, int, list[RefactoringGraph]]:
    """A graph's subgraph and single-commit subgraph counts, and the
    subgraphs spanning at least ``min_commits`` commits."""
    subgraphs = partition(graph)
    kept, _ = filter_multi_commit(subgraphs, min_commits)
    return len(subgraphs), sum(1 for s in subgraphs if s.commit_count() == 1), kept


def _built(min_commits: int, item: tuple) -> Iterator[tuple]:
    """Build and split the graph of a ``(project, batches, log, directory)`` item. The parser memos are emptied
    first, so no earlier project's strings stay. Its records are unpickled from the batch files, one at a time,
    each string they repeat made one object, and restricted to the commit log at the path ``log``, loaded here,
    unless it is None. Without a directory, yield the split, for ``stats`` to measure; with one, write the dump
    into it and yield the project's run-log row with its off-branch and ambiguous-commit counts."""
    import pickle  # loaded with refgraph.workers, which runs this

    ingest.clear_caches()
    project, batches, log, directory = item
    share = {}.setdefault
    group: list[RefactoringRecord] = []
    for batch in batches:
        with open(batch, "rb") as handle:
            group.extend(RefactoringRecord._make(map(share, fields, fields)) for fields in pickle.load(handle))
    del share
    dropped, issues = 0, ()
    if log is not None:
        group, dropped, issues = restrict_to_log(group, load_commit_log(log))
    graph = build(group)
    total, single, kept = _split(graph, min_commits)
    if directory is None:  # stats measures the kept subgraphs, with the graph let go of
        del graph
        yield total, single, kept
        return
    # An exhausted generator drops its frame, so no dump outlives its write.
    _write_json(directory / "graph.json", dump_chunks(graph_to_dict(graph, project)))
    yield dict(project=project, records=len(group), vertices=graph.n_vertices, edges=graph.n_edges,
               subgraphs=total, single_commit=single, multi_commit=total - single,
               below_threshold=total - len(kept), kept=len(kept)), dropped, len(issues)


def _per_project(work: Callable[[tuple], Iterable], items: list[tuple], here: bool = False) -> Iterator[tuple]:
    """``(project, values)`` per ``(project, ...)`` item in order, ``values`` being what ``work`` gives for it
    in a forked worker (or, with ``here``, in this process for the first share)."""
    from .workers import OrderedMap

    with OrderedMap(work, items, _workers(), lambda item: CliError(
            f"the worker process building project {item[0]!r} ended before it was done"), here=here) as results:
        yield from ((item[0], values) for item, values in zip(items, results))


def _workers() -> int:  # one per CPU this process may run on, or one where the platform cannot tell
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _per_dump(paths: Sequence[str], work: Callable[[RefactoringGraph], Iterable],
              selector: str | None = None) -> Iterator[tuple[str, Iterator | None]]:
    """``(project, values)`` per dump under ``paths`` in path order, ``values`` being what ``work`` gives
    for its graph; a second dump of one project is an error. With ``selector``, each dump is first scanned
    here, in path order, by :func:`scan_dump`, and one whose bytes do not hold it is read for its head line
    alone: its ``values`` is None. The other dumps load in forked workers, read back in path order, so errors
    come in path order; a dump whose scan fails is loaded, to fail in its turn. Closing this kills and reaps
    the workers."""
    from .workers import OrderedMap

    def loaded(path):  # the dump's project, then what work gives for its graph
        ingest.clear_caches()  # frees the strings only the dumps loaded before held
        project, graph = load_graph(path)
        yield project
        yield from work(graph)

    dumps = dump_paths(paths)
    heads = {}  # path -> project, of each dump read for its head line alone
    loads = []  # the dumps to load
    for path in dumps:
        try:
            project = scan_dump(path, selector) if selector else None
        except (OSError, GraphDumpError):  # loading the dump raises it again, in its turn
            loads.append(path)
            break
        if project:
            heads[path] = project
        else:
            loads.append(path)
    with OrderedMap(loaded, loads, _workers(), lambda path: CliError(
            f"the worker process loading {path} ended before it was done")) as mapped:
        results = iter(mapped)
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
    min_commits = options.min_commits(args)
    config = options.filter_config(args)
    with output.tree(args.out, "build") as out:
        items, front_log = _run_front_pipeline(args, config, out / _SPOOL)
        owners: dict[str, str] = {}
        # a collision fails before any dump
        items = [(*item, _project_dir(out, item[0], owners)) for item in items]
        if "run_log.json" in owners:
            raise CliError(f"project {owners['run_log.json']!r} would take the path of the run log, run_log.json")
        # This process takes the first share itself rather than wait on its workers' rows, so a trace of it
        # (bench/child.py) still sees the graph layer at work. Against building every project here, the share made
        # build 15 % faster on deep-hotspots and 12 % on wide-corpus at 400k records, and every project in a worker
        # 7 % and 14 %. A share in every pool, the parse pool included, raised wide build's 25k peak 21.8 -> 27.1 MB.
        results = _per_project(functools.partial(_built, min_commits), items, here=True)
        with contextlib.closing(results):
            project_rows = []
            stages = front_log["stages"]
            for _, values in results:
                for row, off_branch, ambiguous in values:
                    project_rows.append(row)
                    stages["off_branch_dropped"] += off_branch
                    stages["ambiguous_commit"] += ambiguous
                    stages["analyzed"] += row["records"]
        shutil.rmtree(out / _SPOOL)  # a failed run loses it with the tree
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
        (out / "run_log.json").write_text(json.dumps(run_log, indent=2) + "\n", encoding="utf-8")
    print(f"build: {totals['subgraphs']} subgraphs, {totals['kept']} kept (min-commits={min_commits})")
    return 0


def cmd_stats(args) -> int:
    min_commits = options.min_commits(args)
    if bool(args.records) == bool(args.graph):
        raise CliError("pass either --records or --graph, not both" if args.records
                       else "stats requires --records or --graph", code=2)
    for dest in ("commit_log", "exclude_keywords", "keep_constructors", "strict") if args.graph else ():
        if getattr(args, dest) not in (None, False, []):  # given, not left at its default
            raise CliError(f"--{dest.replace('_', '-')} applies only with --records", code=2)
    with output.tree(args.out, "stats") as out:
        ages = load_project_ages(args.project_ages) if args.project_ages else None
        if args.records:
            items = _run_front_pipeline(args, options.filter_config(args), out / _SPOOL)[0]
            results = _per_project(functools.partial(_built, min_commits), [(*item, None) for item in items])
        else:
            results = _per_dump(args.graph, lambda graph: [_split(graph, min_commits)])
        with contextlib.closing(results):  # a process holds one project's graph at a time
            rows = sorted((project, total, single, [measure(subgraph) for subgraph in kept])  # a project is one row
                          for project, values in results for total, single, kept in values)
        if args.records:
            shutil.rmtree(out / _SPOOL)  # a failed run loses it with the tree
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
    # --graph takes every word up to the next option, so a selector right after it is a path
    stray = len(args.graph) > 1 and not Path(args.graph[-1]).exists()
    if bool(args.selector) == bool(args.all):
        message = "pass exactly one of a selector or --all"
        if stray and not args.all:
            message += (f"; {args.graph[-1]!r} was read as a --graph path:"
                        " put the selector before --graph or after --out DIR")
        raise CliError(message, code=2)
    if stray and args.all:
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
