"""Command-line interface: build graphs, emit statistics, export DOT files.

Exit codes: 0 success, 1 fatal input error, 2 selector/config error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import re
import sys
from pathlib import Path
from typing import Iterator, Sequence

from . import ingest
from .graph import (
    GraphDumpError,
    RefactoringGraph,
    Subgraph,
    build,
    dump_chunks,
    dump_project,
    filter_multi_commit,
    graph_to_dict,
    load_graph,
    partition,
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
from .metrics import aggregate, measure
from .report import TABLE_FILES, emit_dot, emit_tables, write_json_summary

RUN_LOG_VERSION = "1"

COMMIT_LOG_FORMAT_HELP = (
    "tab-separated: <full-hash>TAB<ISO-8601>TAB<author name>TAB<author email>, "
    "as produced by: git log --first-parent --format='%H%x09%aI%x09%an%x09%ae'"
)


class CliError(Exception):
    """Failure with a chosen process exit code."""

    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


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
    p_stats.add_argument("--graph", nargs="+", metavar="PATH", help="graph dump file(s) or a build output directory")
    p_stats.add_argument("--project-ages", metavar="PATH", help="JSON file mapping project name to age")
    p_stats.add_argument("--out", required=True, help="output directory")
    p_stats.set_defaults(func=cmd_stats)

    p_export = sub.add_parser("export", help="export subgraphs as Graphviz DOT files")
    p_export.add_argument("--graph", nargs="+", required=True, metavar="PATH", help="graph dump file(s) or a build output directory")
    p_export.add_argument("--all", action="store_true", help="export every subgraph")
    p_export.add_argument("selector", nargs="?", help="subgraph id or vertex substring")
    p_export.add_argument("--out", required=True, help="output directory")
    p_export.set_defaults(func=cmd_export)
    return parser


def _add_ingest_args(parser: argparse.ArgumentParser, records_required: bool = True) -> None:
    parser.add_argument(
        "--records", nargs="+", required=records_required, metavar="PATH",
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
    except CliError as exc:
        print(f"refgraph: error: {exc}", file=sys.stderr)
        return exc.code
    except (OSError, RecordError, CommitLogError, GraphDumpError) as exc:
        print(f"refgraph: error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


# ---------------------------------------------------------------------------
# shared pipeline


def _filter_config(args) -> FilterConfig:
    if args.exclude_keywords is None:
        keywords = DEFAULT_EXCLUDED_KEYWORDS
    else:
        keywords = tuple(k.strip() for k in args.exclude_keywords.split(",") if k.strip())
    return FilterConfig(
        excluded_package_keywords=keywords,
        drop_constructors=not args.keep_constructors,
    )


def _min_commits(args) -> int:
    if args.min_commits < 1:
        raise CliError(f"--min-commits must be >= 1, got {args.min_commits}", code=2)
    return args.min_commits


def _commit_logs(args) -> dict[str, dict]:
    paths: dict[str, str] = {}
    for item in args.commit_log:
        project, sep, path = item.partition("=")
        if not sep or not project or not path:
            raise CliError(f"--commit-log expects PROJECT=PATH, got {item!r}", code=2)
        if project in paths:
            raise CliError(f"--commit-log given more than once for project {project!r}", code=2)
        paths[project] = path
    return {project: load_commit_log(path) for project, path in paths.items()}


def _run_front_pipeline(args, config: FilterConfig) -> tuple[dict[str, list[RefactoringRecord]], dict]:
    """The records analyzed per project, in first-record order, and the run
    log's ``inputs`` and ``stages`` blocks. Each caller builds one project's
    graph at a time from them."""
    logs = _commit_logs(args)

    records: list[RefactoringRecord] = []
    inputs = []
    for path in args.records:
        # Undecodable bytes become lone surrogates, which parse_records
        # reports per line, so one bad line does not end the run.
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
            result = parse_records(handle, strict=args.strict)
        records.extend(result.records)
        inputs.append({"path": str(path), "records": len(result.records), "skipped": len(result.issues)})
    parsed_projects = {record.project for record in records}
    for project in logs:
        if project not in parsed_projects:
            raise CliError(f"--commit-log project {project!r} matches no record", code=2)

    filtered, excluded = apply_filters(records, config)
    stages = {
        "parsed": len(records),
        "parse_skipped": sum(entry["skipped"] for entry in inputs),
        "excluded": excluded,
        "filtered": len(filtered),
        "off_branch_dropped": 0,
        "ambiguous_commit": 0,
    }

    by_project: dict[str, list[RefactoringRecord]] = {}
    for record in filtered:
        by_project.setdefault(record.project, []).append(record)

    for project, log in logs.items():
        if project not in by_project:
            continue
        outcome = restrict_to_log(by_project[project], log)
        by_project[project] = list(outcome.kept)
        stages["off_branch_dropped"] += outcome.dropped
        stages["ambiguous_commit"] += len(outcome.issues)

    stages["analyzed"] = sum(len(group) for group in by_project.values())
    return by_project, {"inputs": inputs, "stages": stages}


def _split(graph: RefactoringGraph, min_commits: int) -> tuple[int, int, list[Subgraph]]:
    """A graph's subgraph and single-commit subgraph counts, and the
    subgraphs spanning at least ``min_commits`` commits."""
    subgraphs = partition(graph)
    kept, _ = filter_multi_commit(subgraphs, min_commits)
    return len(subgraphs), sum(1 for s in subgraphs if s.commit_count() == 1), kept


def _expand_graph_paths(paths: Sequence[str]) -> list[Path]:
    expanded: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(path.glob("*/graph.json"))
            if (path / "graph.json").is_file():
                candidates.insert(0, path / "graph.json")
            if not candidates:
                raise CliError(f"no graph dumps found under {path}")
            expanded.extend(candidates)
        elif path.is_file():
            expanded.append(path)
        else:
            raise CliError(f"graph dump not found: {path}")
    return expanded


def _merge_dumps(project: str, paths: list[Path]) -> RefactoringGraph | None:
    """One graph from the dumps of ``project``; None when they are all the
    placeholder an empty build writes."""
    merged = None
    for path in paths:
        named, graph = load_graph(path)
        if named != project:  # only a key given twice can make the head and the body differ
            raise GraphDumpError(f"corrupt graph dump: names projects {project!r} and {named!r} in {path}")
        if not project and graph.n_edges == 0:
            continue  # placeholder dump from an empty build
        if merged is None:
            merged = graph
        else:
            for edge in graph.edges():
                merged.add_edge(edge)
    return merged


def _project_graphs(paths: Sequence[str]) -> Iterator[tuple[str, RefactoringGraph]]:
    """``(project, graph)`` per project named by the dumps under ``paths``,
    in first-dump order, merging two dumps of one project.

    One project is held at a time: its dumps load only after the caller has
    dropped the previous graph, and the parser memos are emptied before each
    project but the first, which frees the strings only the previous graph held.
    """
    groups: dict[str, list[Path]] = {}
    for path in _expand_graph_paths(paths):
        groups.setdefault(dump_project(path), []).append(path)
    for i, (project, group) in enumerate(groups.items()):
        if i:
            ingest.clear_caches()
        graph = _merge_dumps(project, group)
        if graph is not None:
            yield project, graph
            del graph  # not held while the next graph loads


def _safe_name(identifier: str, fallback: str) -> str:
    safe = re.sub(r"[^A-Za-z0-9._-]+", "_", identifier).strip("._")
    digest = hashlib.sha1(identifier.encode("utf-8")).hexdigest()[:8]
    return f"{safe[:80] or fallback}-{digest}"


def _project_dir(project: str, owners: dict[str, str]) -> str:
    """The directory of ``project`` under ``--out``. ``owners`` maps each
    directory handed out so far to its project; two projects sharing one
    directory are an error."""
    # A name of dots alone ("." or "..") would point at --out or above it.
    name = re.sub(r"[^A-Za-z0-9._-]+|^\.+\Z", "_", project) or "project"
    if owners.setdefault(name, project) != project:
        raise CliError(f"projects {owners[name]!r} and {project!r} would share the output directory {name!r}")
    return name


class _Output:
    """The files and directories one command writes under ``--out``.

    Each file's path is recorded before the file is opened. If the ``with``
    block raises anything, the recorded files and every directory this run
    made are removed before the exception goes on, so a failed run leaves
    no file it wrote and no directory it made.
    """

    def __init__(self, root: str) -> None:
        self.root = Path(root)
        self.files: list[Path] = []
        self._made: list[Path] = []

    def __enter__(self) -> _Output:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            return
        for path in self.files:
            with contextlib.suppress(OSError):  # e.g. the path is a directory
                path.unlink(missing_ok=True)
        for directory in reversed(self._made):
            with contextlib.suppress(OSError):  # not empty: something else is in it
                directory.rmdir()

    def dir(self, *parts: str) -> Path:
        """``--out``/``parts``, made with any missing parent."""
        path = self.root.joinpath(*parts)
        missing = []
        up = path
        while not up.is_dir() and up != up.parent:  # "." or "/" ends the walk even if unreadable
            missing.append(up)
            up = up.parent
        for directory in reversed(missing):
            directory.mkdir()
            self._made.append(directory)
        return path

    def file(self, *parts: str) -> Path:
        """``--out``/``parts``, recorded as this run's and removed if it
        exists; its directory is made."""
        path = self.dir(*parts[:-1]) / parts[-1]
        self.files.append(path)
        # A new file, not a truncated one: ext4 flushes a file truncated and
        # rewritten in place when it is closed, which makes a re-run slow.
        path.unlink(missing_ok=True)
        return path


def _write_json(path: Path, chunks: Iterator[str]) -> None:
    # Chunks are written 1024 at a time: one write per chunk is slow, and
    # joining them all would hold a large dump in memory at once.
    with open(path, "w", encoding="utf-8") as handle:
        while batch := "".join(itertools.islice(chunks, 1024)):
            handle.write(batch)
        handle.write("\n")


# ---------------------------------------------------------------------------
# commands


def cmd_build(args) -> int:
    min_commits = _min_commits(args)
    config = _filter_config(args)
    groups, front_log = _run_front_pipeline(args, config)
    owners: dict[str, str] = {}
    dirs = {project: _project_dir(project, owners) for project in groups}  # checked before any write

    project_rows = []
    with _Output(args.out) as out:
        for project, group in groups.items():
            graph = build(group)
            total, single, kept = _split(graph, min_commits)
            project_rows.append(
                {
                    "project": project,
                    "records": len(group),
                    "vertices": graph.n_vertices,
                    "edges": graph.n_edges,
                    "subgraphs": total,
                    "single_commit": single,
                    "multi_commit": total - single,
                    "below_threshold": total - len(kept),
                    "kept": len(kept),
                }
            )
            # An exhausted generator drops its frame, so no dump outlives its write.
            _write_json(out.file(dirs[project], "graph.json"), dump_chunks(graph_to_dict(graph, project)))
            del graph, kept  # not held while the next graph is built
        if not groups:  # an empty build still leaves a dump for stats and export to read
            _write_json(out.file("graph.json"), dump_chunks(graph_to_dict(RefactoringGraph(), "")))
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
        _write_json(out.file("run_log.json"), json.JSONEncoder(indent=2).iterencode(run_log))
    print(f"build: {totals['subgraphs']} subgraphs, {totals['kept']} kept (min-commits={min_commits})")
    return 0


def _project_ages(args) -> dict[str, float] | None:
    if not args.project_ages:
        return None
    try:
        with open(args.project_ages, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except UnicodeDecodeError as exc:
        raise CliError(f"invalid UTF-8 in project ages file {args.project_ages}: {exc.reason}") from None
    except RecursionError:
        raise CliError(f"invalid project ages file {args.project_ages}: nested too deeply") from None
    except ValueError as exc:  # a JSONDecodeError, or an integer too long for int()
        raise CliError(f"invalid project ages file {args.project_ages}: {exc}") from None
    # json reads NaN and Infinity, and 1e400 as inf: an age must be a finite float
    if not isinstance(data, dict) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max
        for v in data.values()
    ):
        raise CliError(f"project ages file must map project names to numbers: {args.project_ages}")
    return {str(k): float(v) for k, v in data.items()}


def cmd_stats(args) -> int:
    min_commits = _min_commits(args)
    if args.records and args.graph:
        raise CliError("pass either --records or --graph, not both", code=2)
    if args.records:
        groups = _run_front_pipeline(args, _filter_config(args))[0]
        graphs = ((project, build(group)) for project, group in groups.items())
    elif args.graph:
        for dest in ("commit_log", "exclude_keywords", "keep_constructors", "strict"):
            if getattr(args, dest) not in (None, False, []):  # given, not left at its default
                raise CliError(f"--{dest.replace('_', '-')} applies only with --records", code=2)
        graphs = _project_graphs(args.graph)
    else:
        raise CliError("stats requires --records or --graph", code=2)

    splits = []
    groups = {}
    for project, graph in graphs:
        total, single, kept = _split(graph, min_commits)
        splits.append((project, total, single))
        groups[project] = [measure(subgraph) for subgraph in kept]
        del graph, kept  # not held while the next graph loads

    summary = aggregate(groups, splits, _project_ages(args))

    with _Output(args.out) as out:
        for name in TABLE_FILES:  # opened inside emit_tables
            out.file(name)
        emit_tables(summary, out.root)
        write_json_summary(summary, out.file("summary.json"))
    print(f"stats: {summary['n_subgraphs']} subgraphs across {len(summary['projects'])} projects -> {out.root}")
    return 0


def _select_subgraphs(graph: RefactoringGraph, selector: str | None) -> list[Subgraph]:
    """The subgraphs of ``graph`` holding a vertex that contains ``selector``,
    or all of them when it is None."""
    if selector is None:
        return partition(graph)
    # A subgraph id is one of its vertex labels, so the id selector is a
    # substring match too, and a graph with no vertex holding the selector
    # cannot match: it is not split.
    if not any(selector in v for v in graph.vertices()):
        return []
    return [s for s in partition(graph) if any(selector in v for v in s.vertices)]


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
    with _Output(args.out) as out:
        for project, graph in _project_graphs(args.graph):
            matched = _select_subgraphs(graph, selector)
            del graph  # not held while the next graph loads
            if matched:
                name = _project_dir(project, owners)
                for subgraph in matched:
                    path = out.file(name, f"{_safe_name(subgraph.id, fallback='subgraph')}.dot")
                    path.write_text(emit_dot(subgraph), encoding="utf-8")
            del matched
        if selector and not out.files:
            raise CliError(f"selector matched no subgraph: {selector!r}", code=2)
        out.dir()  # even for --all on an empty build
    print(f"export: wrote {len(out.files)} DOT file(s) -> {out.root}")
    return 0


if __name__ == "__main__":
    run()
