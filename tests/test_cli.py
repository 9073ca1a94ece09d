from __future__ import annotations

import csv
import json

import pytest

import corpus
from refgraph.cli import main

CORRUPT_LINE = '{"project": "x", "commit": "zz", "oops": true}\n'


def _read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


class TestBuild:
    def test_demo_corpus(self, corpus_file, tmp_path):
        out = tmp_path / "out"
        assert main(["build", "--records", str(corpus_file), "--out", str(out)]) == 0
        run_log = _read_json(out / "run_log.json")
        assert run_log["totals"]["subgraphs"] == 4
        assert run_log["totals"]["kept"] == 4
        for project in ("mpandroidchart", "elasticsearch", "spring-framework", "okhttp"):
            assert (out / project / "graph.json").is_file()

    def test_stage_counts_are_consistent(self, corpus_file, tmp_path):
        out = tmp_path / "out"
        main(["build", "--records", str(corpus_file), "--out", str(out)])
        stages = _read_json(out / "run_log.json")["stages"]
        assert stages["parsed"] - sum(stages["excluded"].values()) == stages["filtered"]
        assert (
            stages["filtered"] - stages["off_branch_dropped"] - stages["ambiguous_commit"]
            == stages["analyzed"]
        )
        projects = _read_json(out / "run_log.json")["projects"]
        assert sum(p["records"] for p in projects) == stages["analyzed"]
        for p in projects:
            assert p["single_commit"] + p["multi_commit"] == p["subgraphs"]
            assert p["kept"] + p["below_threshold"] == p["subgraphs"]

    def test_empty_input(self, tmp_path):
        records = tmp_path / "empty.jsonl"
        records.write_text("", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["build", "--records", str(records), "--out", str(out)]) == 0
        dump = _read_json(out / "graph.json")
        assert dump["vertices"] == []
        assert dump["edges"] == []

    def test_strict_mode_fails_without_outputs(self, tmp_path):
        records = tmp_path / "bad.jsonl"
        records.write_text(corpus.to_jsonl(corpus.DEMO_CORPUS[:2]) + CORRUPT_LINE, encoding="utf-8")
        out = tmp_path / "out"
        code = main(["build", "--records", str(records), "--out", str(out), "--strict"])
        assert code == 1
        assert not out.exists() or not list(out.rglob("*"))

    def test_non_strict_counts_skipped_lines(self, tmp_path):
        records = tmp_path / "mixed.jsonl"
        records.write_text(CORRUPT_LINE + corpus.to_jsonl(corpus.DEMO_CORPUS), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["build", "--records", str(records), "--out", str(out)]) == 0
        run_log = _read_json(out / "run_log.json")
        assert run_log["stages"]["parse_skipped"] == 1
        assert run_log["inputs"][0]["skipped"] == 1

    def test_unreadable_input(self, tmp_path):
        assert main(["build", "--records", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")]) == 1

    def test_bad_min_commits(self, corpus_file, tmp_path):
        code = main(["build", "--records", str(corpus_file), "--out", str(tmp_path / "o"), "--min-commits", "0"])
        assert code == 2

    def test_bad_commit_log_argument(self, corpus_file, tmp_path):
        code = main(["build", "--records", str(corpus_file), "--out", str(tmp_path / "o"), "--commit-log", "nope"])
        assert code == 2

    def test_commit_log_restricts_and_enriches(self, corpus_file, tmp_path, demo_commit_log_path):
        out = tmp_path / "out"
        code = main(
            ["build", "--records", str(corpus_file), "--out", str(out),
             "--commit-log", f"mpandroidchart={demo_commit_log_path}"]
        )
        assert code == 0
        run_log = _read_json(out / "run_log.json")
        assert run_log["stages"]["off_branch_dropped"] == 0
        dump = _read_json(out / "mpandroidchart" / "graph.json")
        commits = {e["commit"] for e in dump["edges"]}
        assert all(len(c) == 40 for c in commits)

    def test_commit_log_drops_off_branch_records(self, corpus_file, tmp_path, demo_commit_log_path):
        # Use the chart log for okhttp: none of okhttp's commits are in it.
        out = tmp_path / "out"
        main(
            ["build", "--records", str(corpus_file), "--out", str(out),
             "--commit-log", f"okhttp={demo_commit_log_path}"]
        )
        run_log = _read_json(out / "run_log.json")
        assert run_log["stages"]["off_branch_dropped"] == len(corpus.TIMEOUT_SETTER_CLEANUP_RECORDS)
        assert "okhttp" not in {p["project"] for p in run_log["projects"] if p["records"]}

    def test_filter_flags_recorded(self, corpus_file, tmp_path):
        out = tmp_path / "out"
        main(
            ["build", "--records", str(corpus_file), "--out", str(out),
             "--keep-constructors", "--exclude-keywords", "vendor,generated"]
        )
        config = _read_json(out / "run_log.json")["config"]
        assert config["drop_constructors"] is False
        assert config["exclude_keywords"] == ["vendor", "generated"]


class TestStats:
    def test_from_records(self, corpus_file, tmp_path, demo_ages_path):
        out = tmp_path / "stats"
        code = main(
            ["stats", "--records", str(corpus_file), "--out", str(out),
             "--project-ages", str(demo_ages_path)]
        )
        assert code == 0
        rows = _read_csv(out / "composition.csv")
        assert rows[-1] == ["All", "1", "25.0", "3", "75.0"]
        doc = _read_json(out / "summary.json")
        assert doc["authorship"]["all"] == {
            "project": "All", "single": 2, "single_pct": 50.0, "multiple": 2, "multiple_pct": 50.0,
        }
        studies = {c["study"]: c for c in doc["correlations"]}
        assert studies["developers_vs_commits"]["status"] == "ok"
        assert studies["project_age_vs_median_subgraph_age"]["rho"] == -0.4

    def test_missing_age_map_study_not_computed(self, corpus_file, tmp_path):
        out = tmp_path / "stats"
        main(["stats", "--records", str(corpus_file), "--out", str(out)])
        rows = _read_csv(out / "correlations.csv")
        by_study = {r[0]: r for r in rows[1:]}
        assert by_study["project_age_vs_median_subgraph_age"][1] == "no project ages provided"
        assert by_study["project_age_vs_median_subgraph_age"][3] == ""

    def test_from_graph_dumps_matches_records_path(self, corpus_file, tmp_path):
        build_out = tmp_path / "build"
        main(["build", "--records", str(corpus_file), "--out", str(build_out)])
        a = tmp_path / "stats_records"
        b = tmp_path / "stats_dumps"
        main(["stats", "--records", str(corpus_file), "--out", str(a)])
        # Project order follows the config, so list the dumps in record order.
        dumps = [
            str(build_out / project / "graph.json")
            for project in ("mpandroidchart", "elasticsearch", "spring-framework", "okhttp")
        ]
        main(["stats", "--graph", *dumps, "--out", str(b)])
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_corrupt_dump_email_is_a_clean_error(self, corpus_file, tmp_path, capsys):
        build_out = tmp_path / "build"
        main(["build", "--records", str(corpus_file), "--out", str(build_out)])
        dump_path = build_out / "okhttp" / "graph.json"
        dump = _read_json(dump_path)
        dump["edges"][0]["author_email"] = ""
        dump_path.write_text(json.dumps(dump), encoding="utf-8")
        capsys.readouterr()
        assert main(["stats", "--graph", str(build_out), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("refgraph: error: corrupt graph dump")

    def test_threshold_one_populates_both_split_columns(self, tmp_path):
        records = tmp_path / "all.jsonl"
        records.write_text(
            corpus.to_jsonl(corpus.DEMO_CORPUS + corpus.SINGLE_COMMIT_FANOUT_RECORDS),
            encoding="utf-8",
        )
        out = tmp_path / "stats"
        main(["stats", "--records", str(records), "--out", str(out), "--min-commits", "1"])
        rows = _read_csv(out / "subgraph_summary.csv")
        assert rows[-1] == ["All", "5", "1", "20.0", "4", "80.0"]
        doc = _read_json(out / "summary.json")
        assert doc["n_subgraphs"] == 5  # threshold 1 keeps the fanout subgraph

    def test_empty_corpus(self, tmp_path):
        records = tmp_path / "empty.jsonl"
        records.write_text("", encoding="utf-8")
        out = tmp_path / "stats"
        assert main(["stats", "--records", str(records), "--out", str(out)]) == 0
        doc = _read_json(out / "summary.json")
        assert doc["n_subgraphs"] == 0

    def test_requires_exactly_one_source(self, corpus_file, tmp_path):
        assert main(["stats", "--out", str(tmp_path / "o")]) == 2
        build_out = tmp_path / "build"
        main(["build", "--records", str(corpus_file), "--out", str(build_out)])
        code = main(
            ["stats", "--records", str(corpus_file), "--graph", str(build_out), "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_malformed_age_map(self, corpus_file, tmp_path):
        ages = tmp_path / "ages.json"
        ages.write_text('{"p": "old"}', encoding="utf-8")
        code = main(
            ["stats", "--records", str(corpus_file), "--out", str(tmp_path / "o"),
             "--project-ages", str(ages)]
        )
        assert code == 1


class TestExport:
    @pytest.fixture
    def build_out(self, corpus_file, tmp_path):
        out = tmp_path / "build"
        main(["build", "--records", str(corpus_file), "--out", str(out)])
        return out

    def test_vertex_substring_selector(self, build_out, tmp_path):
        out = tmp_path / "dot"
        assert main(["export", "--graph", str(build_out), "--out", str(out), "drawYLabels"]) == 0
        files = list(out.rglob("*.dot"))
        assert len(files) == 1
        assert files[0].parent.name == "mpandroidchart"
        assert "drawYLabels" in files[0].read_text(encoding="utf-8")

    def test_subgraph_id_selector(self, build_out, tmp_path):
        dump = _read_json(build_out / "okhttp" / "graph.json")
        subgraph_id = min(dump["vertices"])
        out = tmp_path / "dot"
        assert main(["export", "--graph", str(build_out), "--out", str(out), subgraph_id]) == 0
        assert len(list(out.rglob("*.dot"))) == 1

    def test_export_all(self, build_out, tmp_path):
        out = tmp_path / "dot"
        assert main(["export", "--graph", str(build_out), "--out", str(out), "--all"]) == 0
        assert len(list(out.rglob("*.dot"))) == 4

    def test_no_match_exits_2(self, build_out, tmp_path):
        code = main(["export", "--graph", str(build_out), "--out", str(tmp_path / "dot"), "nonexistent"])
        assert code == 2

    def test_selector_and_all_are_exclusive(self, build_out, tmp_path):
        out = str(tmp_path / "dot")
        assert main(["export", "--graph", str(build_out), "--out", out, "--all", "x"]) == 2
        assert main(["export", "--graph", str(build_out), "--out", out]) == 2

    def test_missing_dump_path(self, tmp_path):
        code = main(["export", "--graph", str(tmp_path / "missing"), "--out", str(tmp_path / "o"), "--all"])
        assert code == 1


@pytest.mark.parametrize("project", ["..", "."])
def test_dot_project_names_stay_inside_out(tmp_path, project):
    records = tmp_path / "work" / "records.jsonl"
    records.parent.mkdir()
    records.write_text(
        corpus.to_jsonl(dict(r, project=project) for r in corpus.CHART_AXIS_RECORDS), encoding="utf-8"
    )
    build_out = tmp_path / "work" / "build"
    dot_out = tmp_path / "work" / "dot"
    assert main(["build", "--records", str(records), "--out", str(build_out)]) == 0
    assert main(["export", "--graph", str(build_out), "--all", "--out", str(dot_out)]) == 0
    written = {p for p in tmp_path.rglob("*") if p.is_file()} - {records}
    assert written
    for path in written:
        assert build_out in path.parents or dot_out in path.parents, path
    assert (build_out / "_" / "graph.json").is_file()
    assert len(list((dot_out / "_").glob("*.dot"))) == 1


def test_colliding_project_dirs_are_an_error(tmp_path, capsys):
    # "a/b" and "a_b" both map to directory a_b; neither command may write.
    def records_file(name, projects):
        path = tmp_path / name
        path.write_text(
            corpus.to_jsonl(dict(r, project=p) for p in projects for r in corpus.CHART_AXIS_RECORDS),
            encoding="utf-8",
        )
        return str(path)

    both = tmp_path / "both"
    assert main(["build", "--records", records_file("both.jsonl", ["a/b", "a_b"]), "--out", str(both)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("refgraph: error:") and "'a/b'" in err and "'a_b'" in err
    assert not both.exists()

    for name in ("a/b", "a_b"):
        out = str(tmp_path / ("one" if name == "a/b" else "two"))
        assert main(["build", "--records", records_file("r.jsonl", [name]), "--out", out]) == 0
    capsys.readouterr()
    dot_out = tmp_path / "dot"
    code = main(["export", "--graph", str(tmp_path / "one"), str(tmp_path / "two"), "--all", "--out", str(dot_out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("refgraph: error:") and "'a/b'" in err and "'a_b'" in err
    assert not dot_out.exists()


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["build"])  # --records and --out are required
    assert excinfo.value.code == 2
