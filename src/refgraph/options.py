"""The command line: its options, and the checks and settings made of their values."""

from __future__ import annotations

import argparse

from .ingest import DEFAULT_EXCLUDED_KEYWORDS, FilterConfig
from .output import CliError

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
    add_ingest_args(p_build)
    p_build.add_argument("--out", required=True, help="output directory")

    p_stats = sub.add_parser("stats", help="emit corpus tables and the JSON summary")
    add_ingest_args(p_stats, records_required=False)
    p_stats.add_argument("--graph", nargs="+", action="extend", metavar="PATH", help="graph dump file(s) or a build output directory")
    p_stats.add_argument("--project-ages", metavar="PATH", help="JSON file mapping project name to age")
    p_stats.add_argument("--out", required=True, help="output directory")

    p_export = sub.add_parser("export", help="export subgraphs as Graphviz DOT files")
    p_export.add_argument("--graph", nargs="+", action="extend", required=True, metavar="PATH", help="graph dump file(s) or a build output directory")
    p_export.add_argument("--all", action="store_true", help="export every subgraph")
    p_export.add_argument("selector", nargs="?", help="subgraph id or vertex substring")
    p_export.add_argument("--out", required=True, help="output directory")
    return parser


def add_ingest_args(parser: argparse.ArgumentParser, records_required: bool = True) -> None:
    parser.add_argument(
        "--records", nargs="+", action="extend", required=records_required, metavar="PATH",
        help="JSON-lines refactoring record file(s)",
    )
    parser.add_argument(
        "--commit-log", action="append", default=[], metavar="PROJECT=PATH",
        help=f"restrict a project to its main-branch commits ({COMMIT_LOG_FORMAT_HELP.replace('%', '%%')})",
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


def filter_config(args) -> FilterConfig:
    keywords = DEFAULT_EXCLUDED_KEYWORDS
    if args.exclude_keywords is not None:
        keywords = tuple(k.strip() for k in args.exclude_keywords.split(",") if k.strip())
    return FilterConfig(keywords, drop_constructors=not args.keep_constructors)


def min_commits(args) -> int:
    if args.min_commits < 1:
        raise CliError(f"--min-commits must be >= 1, got {args.min_commits}", code=2)
    return args.min_commits


def commit_log_paths(args) -> dict[str, str]:
    paths: dict[str, str] = {}
    for item in args.commit_log:
        project, sep, path = item.partition("=")
        if not sep or not project or not path:
            raise CliError(f"--commit-log expects PROJECT=PATH, got {item!r}", code=2)
        if project in paths:
            raise CliError(f"--commit-log given more than once for project {project!r}", code=2)
        paths[project] = path
    return paths
