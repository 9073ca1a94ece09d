"""Command-line interface: build graphs, emit statistics, export DOT files.

Exit codes: 0 success, 1 fatal input error, 2 selector/config error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .graph import (
    GraphDumpError,
    RefactoringGraph,
    Subgraph,
    build,
    filter_multi_commit,
    graph_to_dict,
    load_graph,
    partition,
)
from .history import CommitLog, CommitLogError, load_commit_log, restrict_to_log
from .ingest import (
    DEFAULT_EXCLUDED_KEYWORDS,
    FilterConfig,
    RecordError,
    RefactoringRecord,
    apply_filters,
    parse_records,
)
from .metrics import aggregate, measure
from .report import emit_dot, emit_tables, write_json_summary

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


def _commit_logs(args) -> dict[str, CommitLog]:
    paths: dict[str, str] = {}
    for item in args.commit_log:
        project, sep, path = item.partition("=")
        if not sep or not project or not path:
            raise CliError(f"--commit-log expects PROJECT=PATH, got {item!r}", code=2)
        if project in paths:
            raise CliError(f"--commit-log given more than once for project {project!r}", code=2)
        paths[project] = path
    return {project: load_commit_log(path) for project, path in paths.items()}


def _run_front_pipeline(
    args, config: FilterConfig
) -> tuple[dict[str, RefactoringGraph], dict[str, int], dict]:
    """One graph per project, the records analyzed per project, and the run
    log's ``inputs`` and ``stages`` blocks."""
    logs = _commit_logs(args)

    records: list[RefactoringRecord] = []
    inputs = []
    for path in args.records:
        with open(path, "r", encoding="utf-8") as handle:
            result = parse_records(handle, strict=args.strict)
        records.extend(result.records)
        inputs.append({"path": str(path), "records": len(result.records), "skipped": len(result.issues)})

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

    analyzed = {project: len(group) for project, group in by_project.items()}
    stages["analyzed"] = sum(analyzed.values())
    graphs = {project: build(group) for project, group in by_project.items()}
    return graphs, analyzed, {"inputs": inputs, "stages": stages}


def _split_projects(
    graphs: dict[str, RefactoringGraph], min_commits: int
) -> Iterator[tuple[RefactoringGraph, tuple[str, int, int], list[Subgraph]]]:
    """Per project: its graph, its ``(project, subgraphs, single_commit)``
    counts, and the subgraphs spanning at least ``min_commits`` commits."""
    for project, graph in graphs.items():
        subgraphs = partition(graph)
        kept, _ = filter_multi_commit(subgraphs, min_commits)
        single = sum(1 for s in subgraphs if s.commit_count() == 1)
        yield graph, (project, len(subgraphs), single), kept


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


def _load_graphs(paths: Sequence[str]) -> dict[str, RefactoringGraph]:
    graphs: dict[str, RefactoringGraph] = {}
    for path in _expand_graph_paths(paths):
        project, graph = load_graph(path)
        if not project and graph.n_edges == 0:
            continue  # placeholder dump from an empty build
        if project in graphs:
            for edge in graph.edges():
                graphs[project].add_edge(edge)
        else:
            graphs[project] = graph
    return graphs


def _safe_name(identifier: str, fallback: str) -> str:
    safe = re.sub(r"[^A-Za-z0-9._-]+", "_", identifier).strip("._")
    digest = hashlib.sha1(identifier.encode("utf-8")).hexdigest()[:8]
    return f"{safe[:80] or fallback}-{digest}"


def _project_dirs(projects: Iterable[str]) -> dict[str, str]:
    """Map each project to its directory under ``--out``; two projects
    sharing one directory are an error, raised before anything is written."""
    # A name of dots alone ("." or "..") would point at --out or above it.
    dirs = {p: re.sub(r"[^A-Za-z0-9._-]+|^\.+\Z", "_", p) or "project" for p in projects}
    owners: dict[str, str] = {}
    for project, name in dirs.items():
        if owners.setdefault(name, project) != project:
            raise CliError(f"projects {owners[name]!r} and {project!r} would share the output directory {name!r}")
    return dirs


def _write_json(path: Path, document: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")


# ---------------------------------------------------------------------------
# commands


def cmd_build(args) -> int:
    min_commits = _min_commits(args)
    config = _filter_config(args)
    graphs, analyzed, front_log = _run_front_pipeline(args, config)
    dirs = _project_dirs(graphs)

    project_rows = []
    dumps: list[tuple[Path, dict]] = []
    out_dir = Path(args.out)
    totals = {"vertices": 0, "edges": 0, "subgraphs": 0, "below_threshold": 0, "kept": 0}
    for graph, (project, total, single), kept in _split_projects(graphs, min_commits):
        project_rows.append(
            {
                "project": project,
                "records": analyzed[project],
                "vertices": graph.n_vertices,
                "edges": graph.n_edges,
                "subgraphs": total,
                "single_commit": single,
                "multi_commit": total - single,
                "below_threshold": total - len(kept),
                "kept": len(kept),
            }
        )
        for key in ("vertices", "edges", "subgraphs", "below_threshold", "kept"):
            totals[key] += project_rows[-1][key]
        dump_path = out_dir / dirs[project] / "graph.json"
        dumps.append((dump_path, graph_to_dict(graph, project)))

    if not dumps:
        dumps.append((out_dir / "graph.json", graph_to_dict(RefactoringGraph(), "")))

    run_log = {
        "format_version": RUN_LOG_VERSION,
        "command": "build",
        "config": {
            "min_commits": min_commits,
            "strict": bool(args.strict),
            "exclude_keywords": list(config.excluded_package_keywords),
            "drop_constructors": config.drop_constructors,
        },
        **front_log,
        "projects": project_rows,
        "totals": totals,
    }

    written: list[Path] = []
    try:
        for path, document in dumps:
            path.parent.mkdir(parents=True, exist_ok=True)
            _write_json(path, document)
            written.append(path)
        log_path = out_dir / "run_log.json"
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(log_path, run_log)
        written.append(log_path)
    except OSError:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    print(f"build: {totals['subgraphs']} subgraphs, {totals['kept']} kept (min-commits={min_commits})")
    return 0


def _project_ages(args) -> dict[str, float] | None:
    if not args.project_ages:
        return None
    try:
        with open(args.project_ages, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise CliError(f"invalid project ages file {args.project_ages}: {exc.msg}")
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
        graphs = _run_front_pipeline(args, _filter_config(args))[0]
    elif args.graph:
        graphs = _load_graphs(args.graph)
    else:
        raise CliError("stats requires --records or --graph", code=2)

    splits = []
    metrics = []
    projects = []
    for _, split, kept in _split_projects(graphs, min_commits):
        splits.append(split)
        for subgraph in kept:
            metrics.append(measure(subgraph))
            projects.append(split[0])

    summary = aggregate(metrics, projects, splits, _project_ages(args))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    emit_tables(summary, out_dir)
    write_json_summary(summary, out_dir / "summary.json")
    print(f"stats: {summary['n_subgraphs']} subgraphs across {len(summary['projects'])} projects -> {out_dir}")
    return 0


def _select_subgraphs(
    by_project: dict[str, list[Subgraph]], selector: str | None, select_all: bool
) -> list[tuple[str, Subgraph]]:
    matched = []
    for project, subgraphs in by_project.items():
        for subgraph in subgraphs:
            if select_all or subgraph.id == selector or any(
                selector in v.canonical for v in subgraph.vertices
            ):
                matched.append((project, subgraph))
    return matched


def cmd_export(args) -> int:
    if bool(args.selector) == bool(args.all):
        raise CliError("pass exactly one of a selector or --all", code=2)
    graphs = _load_graphs(args.graph)
    by_project = {project: partition(graph) for project, graph in graphs.items()}
    matched = _select_subgraphs(by_project, args.selector, args.all)
    if not matched:
        raise CliError(f"selector matched no subgraph: {args.selector!r}", code=2)

    dirs = _project_dirs(project for project, _ in matched)
    out_dir = Path(args.out)
    for project, subgraph in matched:
        target_dir = out_dir / dirs[project]
        target_dir.mkdir(parents=True, exist_ok=True)
        name = _safe_name(subgraph.id, fallback="subgraph")
        (target_dir / f"{name}.dot").write_text(emit_dot(subgraph), encoding="utf-8")
    print(f"export: wrote {len(matched)} DOT file(s) -> {out_dir}")
    return 0


if __name__ == "__main__":
    run()
