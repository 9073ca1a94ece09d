"""The CLI's output trees on the demo corpus, byte for byte.

``tests/golden/`` holds the trees written by these commands, run from the
repository root so that the input paths recorded in ``run_log.json`` are
the relative ones below::

    refgraph build --records demo/refactorings.jsonl \
        --commit-log mpandroidchart=demo/commit_log_mpandroidchart.tsv --out golden/build
    refgraph stats --graph golden/build --project-ages demo/project_ages.json --out golden/stats
    refgraph export --graph golden/build --all --out golden/export

Any change to an output byte fails here; a deliberate one must regenerate
the trees with the same commands.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from refgraph.cli import main

TESTS_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = TESTS_DIR / "golden"


def _tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(TESTS_DIR.parent)
        assert main(["build", "--records", "demo/refactorings.jsonl",
                     "--commit-log", "mpandroidchart=demo/commit_log_mpandroidchart.tsv",
                     "--out", str(out / "build")]) == 0
        assert main(["stats", "--graph", str(out / "build"),
                     "--project-ages", "demo/project_ages.json", "--out", str(out / "stats")]) == 0
        assert main(["export", "--graph", str(out / "build"), "--all", "--out", str(out / "export")]) == 0
    return out


@pytest.mark.parametrize("command", ["build", "stats", "export"])
def test_output_tree_matches_golden(outputs, command):
    expected = _tree(GOLDEN_DIR / command)
    assert expected, f"no golden files for {command}"
    assert _tree(outputs / command) == expected
