"""Report emission: the summary document as JSON and as CSV tables, and
DOT renderings of subgraphs.

Every emitter is deterministic: identical inputs produce byte-identical
output, so report directories can be diffed across runs.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .graph import Subgraph
from .ingest import format_timestamp
from .metrics import pct, round_half_up

REPORT_FORMAT_VERSION = "1"

TABLE_FILES = (
    "subgraph_summary.csv",
    "type_frequency.csv",
    "composition.csv",
    "authorship.csv",
    "age_summary.csv",
    "histograms.csv",
    "correlations.csv",
)


def _cell(value) -> str:
    """Table cell.  Floats show one decimal, rounded half up: percentages are
    rounded so already, ages are rounded here.  None is blank."""
    if value is None:
        return ""
    if isinstance(value, float):
        return format(round_half_up(value, 1), ".1f")
    return str(value)


def _fmt(value: float | None, spec: str) -> str:
    return "" if value is None else format(value, spec)


def _rows(header: list[str], rows: list[dict]) -> list[list[str]]:
    """Header plus one line per document row; columns follow the row's key order."""
    return [header] + [[_cell(v) for v in row.values()] for row in rows]


def _with_all(table: dict) -> list[dict]:
    return table["per_project"] + [table["all"]]


def _table_rows(doc: dict) -> dict[str, list[list[str]]]:
    n_edges = doc["n_edges"]
    type_all = {"type": "All", "count": n_edges, "pct": pct(n_edges, n_edges)}
    return {
        "subgraph_summary.csv": _rows(
            ["project", "total", "single_commit", "single_commit_pct", "multi_commit", "multi_commit_pct"],
            _with_all(doc["subgraph_summary"]),
        ),
        "type_frequency.csv": _rows(["refactoring", "count", "pct"], doc["type_frequency"] + [type_all]),
        "composition.csv": _rows(
            ["project", "homogeneous", "homogeneous_pct", "heterogeneous", "heterogeneous_pct"],
            _with_all(doc["composition"]),
        ),
        "authorship.csv": _rows(
            ["project", "single_developer", "single_developer_pct", "multiple_developers", "multiple_developers_pct"],
            _with_all(doc["authorship"]),
        ),
        "age_summary.csv": _rows(
            ["project", "subgraphs", "median_days", "q1_days", "q3_days"], _with_all(doc["age_summary"])
        ),
        "histograms.csv": [["metric", "value", "count"]]
        + [[metric, str(value), str(count)] for metric, series in doc["histograms"].items() for value, count in series],
        "correlations.csv": [["study", "status", "n", "rho", "p_approx"]]
        + [
            [o["study"], o["status"], _cell(o["n"]), _fmt(o["rho"], ".3f"), _fmt(o["p_approx"], ".3g")]
            for o in doc["correlations"]
        ],
    }


def emit_tables(summary: dict, out_dir: Path) -> list[Path]:
    """Write one CSV per table of the summary document from
    :func:`~refgraph.metrics.aggregate`; returns the paths written."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tables = _table_rows(summary)
    paths = []
    for name in TABLE_FILES:
        path = out_dir / name
        with open(path, "w", encoding="utf-8", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerows(tables[name])
        paths.append(path)
    return paths


def emit_json_summary(summary: dict) -> str:
    """The summary document as JSON, led by its ``format_version``."""
    return json.dumps({"format_version": REPORT_FORMAT_VERSION, **summary}, indent=2) + "\n"


def write_json_summary(summary: dict, path: Path) -> Path:
    path = Path(path)
    path.write_text(emit_json_summary(summary), encoding="utf-8")
    return path


def _dot_quote(value: str) -> str:
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def emit_dot(subgraph: Subgraph) -> str:
    """Render one subgraph as Graphviz DOT text.

    Node identifiers are the quoted canonical signatures; edge labels carry
    the refactoring type, a 7-character commit prefix, and the commit date.
    Statements are sorted, so output is stable across runs.
    """
    lines = [f"digraph {_dot_quote(subgraph.id)} {{"]
    for vertex in sorted(v.canonical for v in subgraph.vertices):
        lines.append(f"  {_dot_quote(vertex)};")
    for edge in sorted(subgraph.edges, key=lambda e: e.key):
        date = format_timestamp(edge.timestamp)[:10]
        label = f"{edge.rtype.value}\\n{edge.commit[:7]}\\n{date}"
        lines.append(f'  {_dot_quote(edge.source.canonical)} -> {_dot_quote(edge.target.canonical)} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
