"""Oracle for the refgraph benchmark: expected outputs from planted truth,
checks of the output trees a run wrote, and the output-tree digest.

The expectations are computed from :class:`synth.Truth` alone; nothing here
imports ``refgraph``.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

from synth import EXCLUSION_REASONS, Truth


def expected(truth: Truth) -> dict:
    """Every value the checks compare, derived from the planted subgraphs."""
    projects: dict[str, dict] = {}
    type_counts: Counter[str] = Counter()
    export_ids = []
    for planted in truth.subgraphs:
        row = projects.setdefault(
            planted.project,
            {"vertices": 0, "edges": 0, "subgraphs": 0, "single_commit": 0, "kept": 0,
             "homogeneous": 0, "heterogeneous": 0, "single": 0, "multiple": 0},
        )
        commits = {key[3] for key in planted.edges}
        row["vertices"] += len(planted.vertices)
        row["edges"] += len(planted.edges)
        row["subgraphs"] += 1
        row["single_commit"] += len(commits) == 1
        if truth.selector is None or any(truth.selector in v for v in planted.vertices):
            export_ids.append(min(planted.vertices))
        if len(commits) < truth.min_commits:
            continue
        types = Counter(key[2] for key in planted.edges)
        type_counts.update(types)
        row["kept"] += 1
        row["homogeneous" if len(types) == 1 else "heterogeneous"] += 1
        row["single" if len(set(planted.edges.values())) == 1 else "multiple"] += 1

    def total(key: str) -> int:
        return sum(row[key] for row in projects.values())

    kept_projects = {name: row for name, row in projects.items() if row["kept"]}
    return {
        "stages": {
            "parsed": truth.lines - truth.malformed,
            "parse_skipped": truth.malformed,
            "excluded": dict(truth.excluded),
            "off_branch_dropped": truth.off_branch,
            "ambiguous_commit": truth.ambiguous,
        },
        "totals": {key: total(key) for key in ("vertices", "edges", "subgraphs", "kept")},
        "summary": {
            "n_subgraphs": total("kept"),
            "n_edges": sum(type_counts.values()),
            "type_frequency": sorted(type_counts.items(), key=lambda kv: (-kv[1], kv[0])),
            "split": {
                name: (row["subgraphs"], row["single_commit"], row["subgraphs"] - row["single_commit"])
                for name, row in projects.items()
            },
            "split_all": (total("subgraphs"), total("single_commit"), total("subgraphs") - total("single_commit")),
            "composition": {name: (row["homogeneous"], row["heterogeneous"]) for name, row in kept_projects.items()},
            "composition_all": (total("homogeneous"), total("heterogeneous")),
            "authorship": {name: (row["single"], row["multiple"]) for name, row in kept_projects.items()},
            "authorship_all": (total("single"), total("multiple")),
        },
        "export_ids": sorted(export_ids),
    }


def _mismatch(what: str, got, want) -> list[str]:
    return [] if got == want else [f"{what}: got {got!r}, expected {want!r}"]


def _load_json(path: Path) -> tuple[dict | None, list[str]]:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle), []
    except (OSError, ValueError) as exc:
        return None, [f"{path.name}: unreadable ({exc})"]


def check_build(out_dir: Path, exp: dict) -> list[str]:
    """Compare ``run_log.json`` stage counts and totals with the truth."""
    log, problems = _load_json(Path(out_dir) / "run_log.json")
    if log is None:
        return problems
    try:
        stages, totals = log["stages"], log["totals"]
        want = exp["stages"]
        for key in ("parsed", "parse_skipped", "off_branch_dropped", "ambiguous_commit"):
            problems += _mismatch(f"run_log stages.{key}", stages[key], want[key])
        for reason in EXCLUSION_REASONS:
            problems += _mismatch(f"run_log stages.excluded.{reason}", stages["excluded"][reason], want["excluded"][reason])
        for key, value in exp["totals"].items():
            problems += _mismatch(f"run_log totals.{key}", totals[key], value)
    except (KeyError, TypeError) as exc:
        problems.append(f"run_log.json: missing or malformed field {exc}")
    return problems


def check_stats(out_dir: Path, exp: dict) -> list[str]:
    """Compare ``summary.json`` counts with the truth."""
    doc, problems = _load_json(Path(out_dir) / "summary.json")
    if doc is None:
        return problems
    want = exp["summary"]
    try:
        problems += _mismatch("summary n_subgraphs", doc["n_subgraphs"], want["n_subgraphs"])
        problems += _mismatch("summary n_edges", doc["n_edges"], want["n_edges"])
        types = [(row["type"], row["count"]) for row in doc["type_frequency"]]
        problems += _mismatch("summary type_frequency", types, want["type_frequency"])

        def split(row):
            return (row["total"], row["single_commit"], row["multi_commit"])

        summary = doc["subgraph_summary"]
        problems += _mismatch("summary subgraph_summary.per_project",
                              {r["project"]: split(r) for r in summary["per_project"]}, want["split"])
        problems += _mismatch("summary subgraph_summary.all", split(summary["all"]), want["split_all"])
        for table, fields in (("composition", ("homogeneous", "heterogeneous")), ("authorship", ("single", "multiple"))):
            rows = doc[table]
            got = {r["project"]: tuple(r[f] for f in fields) for r in rows["per_project"]}
            problems += _mismatch(f"summary {table}.per_project", got, want[table])
            problems += _mismatch(f"summary {table}.all", tuple(rows["all"][f] for f in fields), want[f"{table}_all"])
    except (KeyError, TypeError) as exc:
        problems.append(f"summary.json: missing or malformed field {exc}")
    return problems


def check_export(out_dir: Path, exp: dict) -> list[str]:
    """Compare the subgraph ids named by the exported DOT files with the truth."""
    ids = []
    for path in sorted(Path(out_dir).rglob("*.dot")):
        with open(path, encoding="utf-8") as handle:
            header = handle.readline().rstrip("\n")
        if not (header.startswith('digraph "') and header.endswith('" {')):
            return [f"{path.name}: unexpected DOT header {header[:80]!r}"]
        ids.append(header[len('digraph "'):-len('" {')].replace('\\"', '"').replace("\\\\", "\\"))
    want = exp["export_ids"]
    if sorted(ids) == want:
        return []
    missing, extra = Counter(want) - Counter(ids), Counter(ids) - Counter(want)
    return [f"export ids: {len(ids)} written, {len(want)} expected; "
            f"missing {sorted(missing)[:3]}, unexpected {sorted(extra)[:3]}"]


CHECKS = {"build": check_build, "stats": check_stats, "export": check_export}


def tree_digest(root: Path) -> str:
    """sha256 over the sorted relative paths and bytes of every file under ``root``."""
    root = Path(root)
    digest = hashlib.sha256()
    files = sorted((p.relative_to(root).as_posix(), p) for p in root.rglob("*") if p.is_file())
    for rel, path in files:
        data = path.read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()
