"""Command-line interface: build graphs, emit statistics, export DOT files.

Exit codes: 0 success, 1 fatal input error, 2 selector/config error.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import re
import shutil
import sys
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Iterator, Sequence

from . import ingest
from .graph import (
    GraphDumpError,
    RefactoringGraph,
    build,
    dump_chunks,
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
    except (CliError, OSError, RecordError, CommitLogError, GraphDumpError) as exc:
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
        # A leading byte-order mark is skipped. Undecodable bytes become lone
        # surrogates, which parse_records reports per line, so one bad line
        # does not end the run.
        with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as handle:
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


def _split(graph: RefactoringGraph, min_commits: int) -> tuple[int, int, list[RefactoringGraph]]:
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
            if not candidates and not (path / "run_log.json").is_file():  # a build's run log alone: no project
                raise CliError(f"no graph dumps found under {path}")
            expanded.extend(candidates)
        elif path.is_file():
            expanded.append(path)
        else:
            raise CliError(f"graph dump not found: {path}")
    first: dict[Path, Path] = {}  # so B and B/p/graph.json load p once, under its first spelling
    for path in expanded:
        first.setdefault(path.resolve(), path)
    return list(first.values())


def _project_graphs(paths: Sequence[str]) -> Iterator[tuple[str, RefactoringGraph]]:
    """``(project, graph)`` per dump under ``paths``, in path order. A
    project is one dump: a second dump naming it is an error.

    One project is held at a time: a dump loads only after the caller has
    dropped the previous graph, and the parser memos are emptied before each
    dump but the first, which frees the strings only the previous graph held.
    """
    first: dict[str, Path] = {}  # project -> the dump that named it
    for i, path in enumerate(_expand_graph_paths(paths)):
        if i:
            ingest.clear_caches()
        project, graph = load_graph(path)
        if first.setdefault(project, path) != path:
            raise CliError(f"graph dumps {first[project]} and {path} both name project {project!r}")
        yield project, graph
        del graph  # not held while the next dump loads


def _safe_name(identifier: str, fallback: str) -> str:
    import hashlib  # here: it loads OpenSSL, and only export and names over 255 characters need it

    safe = re.sub(r"[^A-Za-z0-9._-]+", "_", identifier).strip("._")
    digest = hashlib.sha1(identifier.encode("utf-8")).hexdigest()[:8]
    return f"{safe[:80] or fallback}-{digest}"


def _project_dir(out: Path, project: str, owners: dict[str, str]) -> Path:
    """The directory of ``project`` under ``out``, made. ``owners`` maps each
    directory made so far to its project; two projects sharing one directory
    are an error."""
    # A name of dots alone ("." or "..") would point at --out or above it.
    name = re.sub(r"[^A-Za-z0-9._-]+|^\.+\Z", "_", project)
    if len(name) > 255:  # the usual file name limit; the name is ASCII, one byte a character
        name = _safe_name(project, fallback="project")
    if owners.setdefault(name, project) != project:
        raise CliError(f"projects {owners[name]!r} and {project!r} would share the output directory {name!r}")
    (out / name).mkdir()
    return out / name


# Each command's outputs, as paths under --out. An existing --out is replaced
# only if it holds nothing else, so no other file is deleted.
_WRITES = {"build": ("run_log.json", "*/graph.json"),
           "stats": (*TABLE_FILES, "summary.json"), "export": ("*/*.dot",)}


def _refuse_foreign(root: str, command: str) -> None:
    """Exit 2 unless ``--out`` is missing or a directory holding only paths
    ``command`` writes, each at its depth, and none a symbolic link."""
    out, cwd = Path(os.path.abspath(root)), Path.cwd()
    if out.resolve() in (cwd, *cwd.parents):  # "/" is always among them
        raise CliError(f"--out {root} is or contains the working directory", code=2)
    if out.is_symlink() or out.exists() and not out.is_dir():
        raise CliError(f"--out {root} is a symbolic link or not a directory", code=2)
    for path in out.rglob("*"):  # nothing when --out is missing
        rel = path.relative_to(out).as_posix()
        # a directory a command writes is a "*" component of one of its paths
        if path.is_symlink() or not any(
            rel.count("/") < shape.count("/") if path.is_dir()
            else rel.count("/") == shape.count("/") and fnmatchcase(rel, shape) and path.is_file()
            for shape in _WRITES[command]
        ):
            raise CliError(f"--out {root} holds {Path(root, rel)}, which {command} does not write;"
                           " give a new or empty directory", code=2)


@contextlib.contextmanager
def _output_tree(root: str, command: str) -> Iterator[Path]:
    """A new dot-named directory beside ``--out``, made once ``--out`` passes
    :func:`_refuse_foreign`. If the ``with`` block ends normally, it replaces
    ``--out``: the old tree is renamed aside, the new one in, and the old one
    removed. If the block raises anything, the new directory and the parents
    of ``--out`` this run made are removed, and ``--out`` is left as it was."""
    _refuse_foreign(root, command)
    out = Path(os.path.abspath(root))
    made = [p for p in (out.parent, *out.parent.parents) if not p.is_dir()]  # deepest first
    new = None  # set once made, so a name found taken is never removed
    try:
        name = out.with_name(f".{out.name}.{os.urandom(4).hex()}")
        name.mkdir(parents=True)  # mkdir, unlike tempfile.mkdtemp, gives the mode the umask allows
        new = name
        yield new
        _refuse_foreign(root, command)  # --out may have changed while the run read its inputs
        if not os.path.lexists(out):
            new.rename(out)
            return
        aside = new.with_name(new.name + ".old")
        out.rename(aside)
        try:
            new.rename(out)
        except BaseException:
            aside.rename(out)
            raise
        shutil.rmtree(aside)
    except BaseException:
        if new is not None:
            shutil.rmtree(new, ignore_errors=True)
        for directory in made:
            with contextlib.suppress(OSError):  # not empty: something else is in it
                directory.rmdir()
        raise


def _write_json(path: Path, chunks: Iterator[str]) -> None:
    # Chunks are written 1024 at a time: one write per chunk is slow, and
    # joining them all would hold a large dump in memory at once.
    with open(path, "w", encoding="utf-8") as handle:
        while batch := "".join(itertools.islice(chunks, 1024)):
            handle.write(batch)


# ---------------------------------------------------------------------------
# commands


def cmd_build(args) -> int:
    min_commits = _min_commits(args)
    config = _filter_config(args)
    with _output_tree(args.out, "build") as out:
        groups, front_log = _run_front_pipeline(args, config)
        owners: dict[str, str] = {}
        directories = [_project_dir(out, project, owners) for project in groups]  # a collision fails before any dump
        if "run_log.json" in owners:
            raise CliError(f"project {owners['run_log.json']!r} would take the path of the run log, run_log.json")
        project_rows = []
        for (project, group), directory in zip(groups.items(), directories):
            graph = build(group)
            total, single, kept = _split(graph, min_commits)
            project_rows.append(dict(
                project=project, records=len(group), vertices=graph.n_vertices, edges=graph.n_edges,
                subgraphs=total, single_commit=single, multi_commit=total - single,
                below_threshold=total - len(kept), kept=len(kept),
            ))
            # An exhausted generator drops its frame, so no dump outlives its write.
            _write_json(directory / "graph.json", dump_chunks(graph_to_dict(graph, project)))
            del graph, kept  # not held while the next graph is built
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


def _project_ages(args) -> dict[str, float] | None:
    if not args.project_ages:
        return None
    try:
        with open(args.project_ages, "r", encoding="utf-8-sig") as handle:
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
    if bool(args.records) == bool(args.graph):
        raise CliError("pass either --records or --graph, not both" if args.records
                       else "stats requires --records or --graph", code=2)
    for dest in ("commit_log", "exclude_keywords", "keep_constructors", "strict") if args.graph else ():
        if getattr(args, dest) not in (None, False, []):  # given, not left at its default
            raise CliError(f"--{dest.replace('_', '-')} applies only with --records", code=2)
    with _output_tree(args.out, "stats") as out:
        ages = _project_ages(args)
        if args.records:
            groups = _run_front_pipeline(args, _filter_config(args))[0]
            graphs = ((project, build(group)) for project, group in groups.items())
        else:
            graphs = _project_graphs(args.graph)
        splits = []
        groups = {}
        for project, graph in graphs:
            total, single, kept = _split(graph, min_commits)
            splits.append((project, total, single))
            groups[project] = [measure(subgraph) for subgraph in kept]
            del graph, kept  # not held while the next graph loads
        summary = aggregate(dict(sorted(groups.items())), sorted(splits), ages)  # in project-name order
        emit_tables(summary, out)
        write_json_summary(summary, out / "summary.json")
    print(f"stats: {summary['n_subgraphs']} subgraphs across {len(summary['projects'])} projects -> {Path(args.out)}")
    return 0


def _select_subgraphs(graph: RefactoringGraph, selector: str | None) -> list[RefactoringGraph]:
    """The subgraphs of ``graph`` holding a vertex that contains ``selector``,
    or all of them when it is None."""
    if selector is None:
        return partition(graph)
    # A subgraph id is one of its vertex labels, so the id selector is a
    # substring match too, and a graph with no vertex holding the selector
    # cannot match: it is not split.
    if not any(selector in v for v in graph.vertices):
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
    written = 0
    with _output_tree(args.out, "export") as out:
        for project, graph in _project_graphs(args.graph):
            matched = _select_subgraphs(graph, selector)
            del graph  # not held while the next graph loads
            if matched:
                directory = _project_dir(out, project, owners)
                files: dict[str, str] = {}  # file name -> subgraph id; two ids on one name are an error
                for subgraph in matched:
                    name = f"{_safe_name(subgraph.id, fallback='subgraph')}.dot"
                    if files.setdefault(name, subgraph.id) != subgraph.id:
                        raise CliError(f"subgraphs {files[name]!r} and {subgraph.id!r} of project {project!r}"
                                       f" would share the file name {name!r}")
                    (directory / name).write_text(emit_dot(subgraph), encoding="utf-8")
                written += len(matched)
            del matched
        if selector and not written:
            raise CliError(f"selector matched no subgraph: {selector!r}", code=2)
    print(f"export: wrote {written} DOT file(s) -> {Path(args.out)}")
    return 0


if __name__ == "__main__":
    run()
