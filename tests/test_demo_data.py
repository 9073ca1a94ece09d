"""The checked-in demo files must stay in sync with the fixture corpus."""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

import corpus
from refgraph.cli import main
from refgraph.history import load_commit_log, restrict_to_log
from refgraph.ingest import parse_records

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_demo_records_match_fixture_definitions(demo_records_path):
    assert demo_records_path.read_text(encoding="utf-8") == corpus.to_jsonl(corpus.DEMO_CORPUS)


def test_demo_records_parse_cleanly(demo_records_path):
    with open(demo_records_path, encoding="utf-8") as handle:
        result = parse_records(handle)
    assert len(result.records) == len(corpus.DEMO_CORPUS)
    assert not result.issues


def test_demo_ages_cover_every_project(demo_ages_path):
    ages = json.loads(demo_ages_path.read_text(encoding="utf-8"))
    assert ages == corpus.DEMO_PROJECT_AGES
    assert set(ages) == {d["project"] for d in corpus.DEMO_CORPUS}


def test_demo_commit_log_covers_the_chart_commits(demo_commit_log_path):
    records = corpus.records_of(corpus.CHART_AXIS_RECORDS)
    outcome = restrict_to_log(records, load_commit_log(demo_commit_log_path))
    assert (len(outcome.kept), outcome.dropped, outcome.issues) == (len(records), 0, ())


def test_readme_library_example_runs_and_matches_stats(tmp_path):
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"## Library use\n\n```python\n(.*?)```", readme, re.S).group(1)
    namespace: dict = {}
    stdout = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(stdout):
        mp.chdir(REPO_ROOT)
        exec(compile(code, "README.md", "exec"), namespace)
    summary = namespace["summary"]
    assert stdout.getvalue() == f"{summary['composition']['all']}\n"
    assert summary["composition"]["all"] == {
        "project": "All", "homogeneous": 1, "homogeneous_pct": 25.0, "heterogeneous": 3, "heterogeneous_pct": 75.0,
    }
    assert main(["stats", "--records", str(REPO_ROOT / "demo" / "refactorings.jsonl"), "--out", str(tmp_path)]) == 0
    written = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert written == {"format_version": "1", **summary}
