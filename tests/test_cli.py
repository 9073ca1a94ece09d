from __future__ import annotations

import csv
import gc
import json
import os
import random
import tempfile
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corpus
from refgraph import cli
from refgraph.cli import main
from refgraph.graph import build, graph_to_dict, load_graph, partition
from refgraph.ingest import _MEMOS, clear_caches

CORRUPT_LINE = '{"project": "x", "commit": "zz", "oops": true}\n'
TESTS_DIR = Path(__file__).resolve().parent


def _read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


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

    def test_repeated_commit_log_for_one_project(self, corpus_file, tmp_path, demo_commit_log_path, capsys):
        # The second path does not exist: the error comes before any log is read.
        code = main(
            ["build", "--records", str(corpus_file), "--out", str(tmp_path / "o"),
             "--commit-log", f"mpandroidchart={demo_commit_log_path}",
             "--commit-log", f"mpandroidchart={tmp_path / 'missing.tsv'}"]
        )
        assert code == 2
        assert "--commit-log given more than once for project 'mpandroidchart'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_commit_log_for_unknown_project(self, corpus_file, tmp_path, demo_commit_log_path, capsys):
        code = main(
            ["build", "--records", str(corpus_file), "--out", str(tmp_path / "o"),
             "--commit-log", f"mpandroidchrat={demo_commit_log_path}"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("refgraph: error:") and "'mpandroidchrat'" in err
        assert not (tmp_path / "o").exists()

    def test_commit_log_for_a_filtered_out_project(self, corpus_file, tmp_path, demo_commit_log_path):
        # Every mpandroidchart record is excluded, but the project exists.
        out = tmp_path / "out"
        code = main(
            ["build", "--records", str(corpus_file), "--out", str(out), "--exclude-keywords", "charting",
             "--commit-log", f"mpandroidchart={demo_commit_log_path}"]
        )
        assert code == 0
        assert not (out / "mpandroidchart").exists()

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

    def test_malformed_commit_log_line_names_its_file(self, demo_records_path, tmp_path, capsys):
        log = tmp_path / "log.tsv"
        log.write_text("notalog\n", encoding="utf-8")
        code = main(["build", "--records", str(demo_records_path), "--commit-log", f"mpandroidchart={log}",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"refgraph: error: commit log {log}: line 1: expected 4 tab-separated fields, got 1\n"
        assert not (tmp_path / "out").exists()

    def test_write_error_removes_what_the_run_wrote(self, demo_records_path, tmp_path, capsys):
        # okhttp's directory is taken by a file, so its dump fails after earlier projects' dumps are written.
        out = tmp_path / "out"
        out.mkdir()
        (out / "okhttp").write_text("not a directory", encoding="utf-8")
        assert main(["build", "--records", str(demo_records_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("refgraph: error:")
        assert [p.name for p in out.rglob("*") if p.is_file()] == ["okhttp"]
        assert sorted(p.name for p in out.iterdir()) == ["okhttp"]  # no directory this run made stays

    def test_a_failed_run_log_write_leaves_no_project_directory(self, demo_records_path, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "run_log.json").mkdir(parents=True)  # written last, after every dump
        assert main(["build", "--records", str(demo_records_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("refgraph: error:")
        assert [p.name for p in out.rglob("*")] == ["run_log.json"]

    def test_an_interrupt_mid_run_removes_what_the_run_wrote(self, demo_records_path, tmp_path, monkeypatch):
        calls = []

        def interrupted(graph, project):
            calls.append(project)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return graph_to_dict(graph, project)

        monkeypatch.setattr(cli, "graph_to_dict", interrupted)
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            main(["build", "--records", str(demo_records_path), "--out", str(out)])
        assert len(calls) == 3
        assert not out.exists()


@pytest.mark.parametrize("command", ["build", "stats"])
def test_a_re_run_writes_new_files(demo_records_path, tmp_path, command):
    # A re-run replaces each output with a new file rather than rewriting the
    # earlier run's in place, so a hard link to an earlier file keeps its bytes.
    out = tmp_path / "out"
    links = tmp_path / "links"
    links.mkdir()
    assert main([command, "--records", str(demo_records_path), "--out", str(out)]) == 0
    before = _tree(out)
    for i, name in enumerate(before):
        os.link(out / name, links / str(i))
    assert main([command, "--records", str(demo_records_path), "--min-commits", "3", "--out", str(out)]) == 0
    after = _tree(out)
    assert after.keys() == before.keys() and after != before
    for i, name in enumerate(before):
        assert (links / str(i)).read_bytes() == before[name]
        assert not (links / str(i)).samefile(out / name)


class TestStats:
    def test_a_write_error_removes_what_the_run_wrote(self, corpus_file, tmp_path, capsys):
        out = tmp_path / "stats"
        (out / "histograms.csv").mkdir(parents=True)  # the sixth of the seven tables
        (out / "notes.txt").write_text("kept", encoding="utf-8")
        assert main(["stats", "--records", str(corpus_file), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("refgraph: error:")
        assert _tree(out) == {"notes.txt": b"kept"}
        assert sorted(p.name for p in out.iterdir()) == ["histograms.csv", "notes.txt"]

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

    @settings(max_examples=8, deadline=None)
    @given(
        batches=st.lists(st.integers(1, 2500), min_size=1, max_size=4),
        min_commits=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(batches=[2500] * 4, min_commits=2, seed=7)
    def test_records_and_dumps_give_identical_trees(self, batches, min_commits, seed):
        rng = random.Random(seed)
        records = []
        for i, n_edges in enumerate(batches):
            records += corpus.random_records(
                rng, n_edges, pool_size=rng.randint(2, 2 * n_edges + 1), n_commits=rng.randint(1, 40),
                prefix=f"p{i}", project=f"proj{i}",
            )
        rng.shuffle(records)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            path = tmp / "records.jsonl"
            path.write_text(corpus.to_jsonl(corpus.record_dict(r) for r in records), encoding="utf-8")
            threshold = ["--min-commits", str(min_commits)]
            assert main(["build", "--records", str(path), "--out", str(tmp / "build"), *threshold]) == 0
            assert main(["stats", "--records", str(path), "--out", str(tmp / "a"), *threshold]) == 0
            # Project order follows the inputs, so list the dumps in first-seen order.
            projects = dict.fromkeys(r.project for r in records)
            dumps = [str(tmp / "build" / project / "graph.json") for project in projects]
            assert main(["stats", "--graph", *dumps, "--out", str(tmp / "b"), *threshold]) == 0
            written = sorted(p.name for p in (tmp / "a").iterdir())
            assert len(written) == 8
            assert written == sorted(p.name for p in (tmp / "b").iterdir())
            for name in written:
                assert (tmp / "a" / name).read_bytes() == (tmp / "b" / name).read_bytes(), name

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

    def test_corrupt_dump_error_names_its_file(self, tmp_path, capsys):
        golden = TESTS_DIR / "golden" / "build" / "mpandroidchart" / "graph.json"
        dump = _read_json(golden)
        dump["edges"][0]["type"] = "bogus"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dump), encoding="utf-8")
        assert main(["stats", "--graph", str(golden), str(bad), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("refgraph: error: corrupt graph dump: unknown refactoring type: 'bogus'")
        assert str(bad) in err and str(golden) not in err

    def test_projects_with_no_kept_subgraph(self, demo_records_path, tmp_path):
        out = tmp_path / "stats"
        assert main(["stats", "--records", str(demo_records_path), "--out", str(out), "--min-commits", "3"]) == 0
        doc = _read_json(out / "summary.json")
        assert doc["projects"] == ["mpandroidchart", "okhttp"]
        for table in ("composition", "authorship", "age_summary"):
            assert [row["project"] for row in doc[table]["per_project"]] == doc["projects"]
        summary_projects = [row["project"] for row in doc["subgraph_summary"]["per_project"]]
        assert summary_projects == ["mpandroidchart", "elasticsearch", "spring-framework", "okhttp"]

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

    def test_from_an_empty_build(self, tmp_path):
        records = tmp_path / "empty.jsonl"
        records.write_text("", encoding="utf-8")
        build_out = tmp_path / "build"
        assert main(["build", "--records", str(records), "--out", str(build_out)]) == 0
        out = tmp_path / "stats"
        assert main(["stats", "--graph", str(build_out), "--out", str(out)]) == 0
        doc = _read_json(out / "summary.json")
        assert doc["projects"] == [] and doc["n_subgraphs"] == 0
        assert _read_csv(out / "subgraph_summary.csv")[1:] == [["All", "0", "0", "0.0", "0", "0.0"]]

    def test_two_dumps_of_one_project_merge(self, tmp_path):
        union, dumps = _two_project_dumps(tmp_path)
        assert main(["stats", "--records", *union[::2], "--out", str(tmp_path / "from_records")]) == 0
        assert main(["stats", "--graph", *dumps[::2], "--out", str(tmp_path / "from_dumps")]) == 0
        assert main(["stats", "--graph", dumps[0], "--out", str(tmp_path / "first_only")]) == 0
        assert _tree(tmp_path / "from_dumps") == _tree(tmp_path / "from_records")
        assert _tree(tmp_path / "first_only") != _tree(tmp_path / "from_records")

        # Interleaved with another project's dump, "proj" still merges, and
        # tables and DOT trees follow first-dump order, not name order.
        assert main(["stats", "--records", *union, "--out", str(tmp_path / "records3")]) == 0
        assert main(["stats", "--graph", *dumps, "--out", str(tmp_path / "dumps3")]) == 0
        assert _tree(tmp_path / "dumps3") == _tree(tmp_path / "records3")
        assert _read_json(tmp_path / "dumps3" / "summary.json")["projects"] == ["proj", "other"]
        assert main(["build", "--records", *union, "--out", str(tmp_path / "union")]) == 0
        assert main(["export", "--graph", str(tmp_path / "union"), "--all", "--out", str(tmp_path / "dot_union")]) == 0
        assert main(["export", "--graph", *dumps, "--all", "--out", str(tmp_path / "dot_dumps")]) == 0
        assert _tree(tmp_path / "dot_dumps") == _tree(tmp_path / "dot_union")
        assert {Path(name).parent.name for name in _tree(tmp_path / "dot_union")} == {"proj", "other"}

    @pytest.mark.parametrize("project", [None, 7, ["mpandroidchart"]], ids=["null", "number", "list"])
    def test_non_string_dump_project_is_a_clean_error(self, tmp_path, capsys, project):
        golden = _read_json(TESTS_DIR / "golden" / "build" / "mpandroidchart" / "graph.json")
        empty = {"format_version": "1", "project": None, "vertices": [], "edges": []}
        for dump in (golden, empty):
            path = tmp_path / "graph.json"
            path.write_text(json.dumps(dict(dump, project=project)), encoding="utf-8")
            for command in (["stats"], ["export", "--all"]):
                out = tmp_path / command[0]
                assert main([*command, "--graph", str(path), "--out", str(out)]) == 1
                err = capsys.readouterr().err
                assert err.startswith("refgraph: error: corrupt graph dump: field 'project' is not a string")
                assert not out.exists()

    def test_requires_exactly_one_source(self, corpus_file, tmp_path):
        assert main(["stats", "--out", str(tmp_path / "o")]) == 2
        build_out = tmp_path / "build"
        main(["build", "--records", str(corpus_file), "--out", str(build_out)])
        code = main(
            ["stats", "--records", str(corpus_file), "--graph", str(build_out), "--out", str(tmp_path / "o")]
        )
        assert code == 2

    @pytest.mark.parametrize("option", [
        ["--commit-log", "nosuch=missing.tsv"], ["--exclude-keywords", ""], ["--keep-constructors"], ["--strict"],
    ], ids=["commit-log", "exclude-keywords", "keep-constructors", "strict"])
    def test_record_options_are_refused_with_graph(self, corpus_file, tmp_path, capsys, option):
        build_out = tmp_path / "build"
        assert main(["build", "--records", str(corpus_file), "--out", str(build_out)]) == 0
        capsys.readouterr()
        out = tmp_path / "stats"
        assert main(["stats", "--graph", str(build_out), *option, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"refgraph: error: {option[0]} applies only with --records\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "age", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
        ids=["NaN", "Infinity", "-Infinity", "1e400", "10**400"],
    )
    def test_non_finite_age_rejected(self, corpus_file, tmp_path, capsys, age):
        ages = tmp_path / "ages.json"
        ages.write_text(
            f'{{"mpandroidchart": {age}, "elasticsearch": 9.0, "spring-framework": 11.0, "okhttp": 7.0}}',
            encoding="utf-8",
        )
        code = main(
            ["stats", "--records", str(corpus_file), "--out", str(tmp_path / "o"),
             "--project-ages", str(ages)]
        )
        assert code == 1
        assert "project ages file must map project names to numbers" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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

    def test_selector_right_after_graph_is_named_in_the_error(self, build_out, tmp_path, capsys):
        # --graph takes every word up to the next option, the selector too
        out = tmp_path / "dot"
        assert main(["export", "--graph", str(build_out), "drawYLabels", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "pass exactly one of a selector or --all" in err
        assert "'drawYLabels' was read as a --graph path" in err
        assert "put the selector before --graph or after --out DIR" in err
        assert not out.exists()
        for argv in (
            ["export", "drawYLabels", "--graph", str(build_out), "--out", str(out)],
            ["export", "--graph", str(build_out), "--out", str(out), "drawYLabels"],
        ):
            assert main(argv) == 0
            assert len(list(out.rglob("*.dot"))) == 1

    def test_selector_right_after_graph_with_all_is_named_in_the_error(self, build_out, tmp_path, capsys):
        out = tmp_path / "dot"
        assert main(["export", "--graph", str(build_out), "drawYLabels", "--all", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'drawYLabels' was read as a --graph path" in err
        assert "a selector cannot be combined with --all" in err
        assert not out.exists()

    def test_missing_selector_alone_gives_no_hint(self, build_out, tmp_path, capsys):
        assert main(["export", "--graph", str(build_out), str(build_out), "--out", str(tmp_path / "dot")]) == 2
        assert capsys.readouterr().err == "refgraph: error: pass exactly one of a selector or --all\n"

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

    def test_selector_splits_only_the_graphs_holding_it(self, tmp_path, monkeypatch):
        records = tmp_path / "records.jsonl"
        records.write_text(
            corpus.to_jsonl(corpus.CHART_AXIS_RECORDS + corpus.TIMEOUT_SETTER_CLEANUP_RECORDS), encoding="utf-8"
        )
        build_out = tmp_path / "build"
        assert main(["build", "--records", str(records), "--out", str(build_out)]) == 0
        assert sorted(p.name for p in build_out.iterdir() if p.is_dir()) == ["mpandroidchart", "okhttp"]
        split = []
        monkeypatch.setattr(cli, "partition", lambda graph: split.append(graph) or partition(graph))
        out = tmp_path / "dot"
        assert main(["export", "--graph", str(build_out), "--out", str(out), "drawYLabels"]) == 0
        assert len(split) == 1
        alone = tmp_path / "alone"
        assert main(["export", "--graph", str(build_out / "mpandroidchart"), "--out", str(alone), "--all"]) == 0
        assert _tree(out) == _tree(alone) and len(_tree(out)) == 1

    def test_all_on_an_empty_build_writes_nothing(self, tmp_path, capsys):
        records = tmp_path / "empty.jsonl"
        records.write_text("", encoding="utf-8")
        build_out = tmp_path / "build"
        assert main(["build", "--records", str(records), "--out", str(build_out)]) == 0
        capsys.readouterr()
        out = tmp_path / "dot"
        assert main(["export", "--graph", str(build_out), "--out", str(out), "--all"]) == 0
        assert capsys.readouterr().out.startswith("export: wrote 0 DOT file(s)")
        assert out.is_dir() and not any(out.iterdir())
        assert main(["export", "--graph", str(build_out), "--out", str(tmp_path / "sel"), "anything"]) == 2
        assert "selector matched no subgraph: 'anything'" in capsys.readouterr().err

    def test_a_corrupt_later_dump_leaves_no_dot_file(self, tmp_path, capsys):
        good = TESTS_DIR / "golden" / "build" / "mpandroidchart" / "graph.json"
        dump = _read_json(TESTS_DIR / "golden" / "build" / "okhttp" / "graph.json")
        dump["edges"][0]["type"] = "bogus"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dump, indent=2), encoding="utf-8")  # build's layout: grouped from its head
        out = tmp_path / "dot"
        assert main(["export", "--graph", str(good), str(bad), "--all", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("refgraph: error: corrupt graph dump: unknown refactoring type")
        assert not out.exists()
        # In an --out that was there before, only what this run made goes.
        out.mkdir()
        (out / "notes.txt").write_text("kept", encoding="utf-8")
        assert main(["export", "--graph", str(good), str(bad), "--all", "--out", str(out)]) == 1
        assert _tree(out) == {"notes.txt": b"kept"}

    def test_a_write_error_leaves_no_dot_file(self, build_out, tmp_path, capsys):
        out = tmp_path / "dot"
        out.mkdir()
        (out / "okhttp").write_text("", encoding="utf-8")  # the third project's directory is a file
        assert main(["export", "--graph", str(build_out), "--all", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("refgraph: error:")
        assert _tree(out) == {"okhttp": b""}
        assert sorted(p.name for p in out.iterdir()) == ["okhttp"]

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


def _two_project_dumps(tmp_path):
    """Record files and build dumps of two parts of project "proj" with
    project "other" between them: part 0, other, part 1."""
    rng = random.Random(5)
    records = corpus.random_records(rng, 300, pool_size=150, n_commits=12)
    other = corpus.random_records(rng, 120, pool_size=60, n_commits=6, prefix="other", project="other")
    # records 100-199 are in both parts of "proj"
    parts = {"part0": ("proj", records[:200]), "other": ("other", other), "part1": ("proj", records[100:])}
    paths, dumps = [], []
    for name, (project, part) in parts.items():
        path = tmp_path / f"{name}.jsonl"
        path.write_text(corpus.to_jsonl(corpus.record_dict(r) for r in part), encoding="utf-8")
        assert main(["build", "--records", str(path), "--out", str(tmp_path / name)]) == 0
        paths.append(str(path))
        dumps.append(str(tmp_path / name / project / "graph.json"))
    return paths, dumps


@pytest.mark.parametrize("layout", ["compact", "project-last"])
def test_dumps_written_another_way_group_like_build_dumps(tmp_path, layout):
    _, dumps = _two_project_dumps(tmp_path)
    assert main(["stats", "--graph", *dumps, "--out", str(tmp_path / "as_built")]) == 0
    assert main(["export", "--graph", *dumps, "--all", "--out", str(tmp_path / "dot_as_built")]) == 0
    dump = _read_json(Path(dumps[2]))
    if layout == "compact":
        text = json.dumps(dump)
    else:
        text = json.dumps({key: dump[key] for key in ("format_version", "vertices", "edges", "project")}, indent=2)
    rewritten = tmp_path / "rewritten.json"
    rewritten.write_text(text, encoding="utf-8")
    dumps[2] = str(rewritten)
    assert main(["stats", "--graph", *dumps, "--out", str(tmp_path / "rewritten_stats")]) == 0
    assert main(["export", "--graph", *dumps, "--all", "--out", str(tmp_path / "rewritten_dot")]) == 0
    assert _tree(tmp_path / "rewritten_stats") == _tree(tmp_path / "as_built")
    assert _tree(tmp_path / "rewritten_dot") == _tree(tmp_path / "dot_as_built")


@pytest.mark.parametrize("content, problem", [
    # build's layout, but the project is not a string: the full load names the defect
    (json.dumps({"format_version": "1", "project": 7, "vertices": [], "edges": []}, indent=2),
     "corrupt graph dump: field 'project' is not a string"),
    # only a key given twice makes the head and the full load disagree
    ('{\n  "format_version": "1",\n  "project": "a",\n  "vertices": [],\n  "edges": [],\n  "project": "b"\n}',
     "corrupt graph dump: names projects 'a' and 'b' in {path}"),
], ids=["not-a-string", "two-projects"])
def test_a_dump_head_that_does_not_hold_is_a_clean_error(tmp_path, capsys, content, problem):
    path = tmp_path / "graph.json"
    path.write_text(content, encoding="utf-8")
    for command in (["stats"], ["export", "--all"]):
        out = tmp_path / command[0]
        assert main([*command, "--graph", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("refgraph: error: " + problem.format(path=path))
        assert not out.exists()


@pytest.mark.parametrize("command, source, order", [
    # --graph: okhttp's dump twice, so its second load merges into the first
    # one's graph; the dumps build wrote are grouped from their heads, so each
    # loads once. --records: one graph per project, in first-record order.
    (["stats"], "graph", ["elasticsearch", "mpandroidchart", "okhttp", "okhttp", "spring-framework"]),
    (["export", "--all"], "graph", ["elasticsearch", "mpandroidchart", "okhttp", "okhttp", "spring-framework"]),
    (["build"], "records", ["mpandroidchart", "elasticsearch", "spring-framework", "okhttp"]),
    (["stats"], "records", ["mpandroidchart", "elasticsearch", "spring-framework", "okhttp"]),
], ids=["stats", "export", "build", "stats-records"])
def test_one_project_is_held_at_a_time(tmp_path, monkeypatch, command, source, order):
    # RefactoringGraph defines __eq__ and so is unhashable: weak references
    # are kept in a list, not a WeakSet.
    held: list[tuple[str, weakref.ref]] = []

    def tracked(make, project_and_graph):
        def wrapper(arg):
            result = make(arg)
            project, graph = project_and_graph(arg, result)
            gc.collect()
            alive = {name for name, ref in held if ref() is not None}
            assert alive <= {project}, f"{sorted(alive - {project})} still held when {project!r} is made"
            held.append((project, weakref.ref(graph)))
            return result
        return wrapper

    records = str(TESTS_DIR.parent / "demo" / "refactorings.jsonl")
    commit_log = str(TESTS_DIR.parent / "demo" / "commit_log_mpandroidchart.tsv")
    build_out = tmp_path / "build"
    if source == "graph":
        assert main(["build", "--records", records, "--out", str(build_out)]) == 0
        inputs = ["--graph", str(build_out), str(build_out / "okhttp" / "graph.json")]
    else:
        inputs = ["--records", records, "--commit-log", f"mpandroidchart={commit_log}"]
    monkeypatch.setattr(cli, "load_graph", tracked(load_graph, lambda path, result: result))
    monkeypatch.setattr(cli, "build", tracked(build, lambda group, graph: (group[0].project, graph)))
    assert main([*command, *inputs, "--out", str(tmp_path / "out")]) == 0
    assert [name for name, _ in held] == order


def test_warm_parser_caches_leave_outputs_unchanged(tmp_path, monkeypatch):
    # The first run starts from empty parser caches, the second reuses them.
    clear_caches()
    monkeypatch.chdir(TESTS_DIR.parent)
    for run in ("cold", "warm"):
        out = tmp_path / run
        if run == "warm":
            # stats --graph and export empty the caches between projects, not
            # after the last, so the warm run starts from that project's entries
            for memo in _MEMOS:
                assert memo.cache_info().currsize, memo
        assert main(["build", "--records", "demo/refactorings.jsonl",
                     "--commit-log", "mpandroidchart=demo/commit_log_mpandroidchart.tsv",
                     "--out", str(out / "build")]) == 0
        if run == "warm":
            # Emptying a cache resets its counters too; build reads every
            # project in one pass, so each cache has been hit by now.
            for memo in _MEMOS:
                assert memo.cache_info().hits, memo
        assert main(["stats", "--graph", str(out / "build"),
                     "--project-ages", "demo/project_ages.json", "--out", str(out / "stats")]) == 0
        assert main(["export", "--graph", str(out / "build"), "--all", "--out", str(out / "export")]) == 0
    assert _tree(tmp_path / "warm") == _tree(tmp_path / "cold")
    assert _tree(tmp_path / "cold") == _tree(TESTS_DIR / "golden")


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["build"])  # --records and --out are required
    assert excinfo.value.code == 2


DEEP_JSON = "[" * 100_000


class TestUnreadableInputs:
    """Hostile bytes in any input end in ``refgraph: error:``, not a traceback."""

    @pytest.fixture
    def build_out(self, corpus_file, tmp_path):
        out = tmp_path / "build"
        assert main(["build", "--records", str(corpus_file), "--out", str(out)]) == 0
        return out

    def test_undecodable_record_line_is_skipped(self, tmp_path):
        lines = corpus.to_jsonl(corpus.DEMO_CORPUS).encode("utf-8").splitlines(keepends=True)
        lines.insert(2, lines[2].replace(b'"project": "', b'"project": "\xff'))
        assert b"\xff" in lines[2]
        records = tmp_path / "records.jsonl"
        records.write_bytes(b"".join(lines))
        out = tmp_path / "out"
        assert main(["build", "--records", str(records), "--out", str(out)]) == 0
        run_log = _read_json(out / "run_log.json")
        assert run_log["inputs"][0]["skipped"] == 1
        assert run_log["stages"]["parsed"] == len(corpus.DEMO_CORPUS)

    def test_undecodable_record_line_is_fatal_in_strict_mode(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        records.write_bytes(corpus.to_jsonl(corpus.DEMO_CORPUS[:2]).encode("utf-8") + b"\xfe\n")
        assert main(["build", "--records", str(records), "--out", str(tmp_path / "out"), "--strict"]) == 1
        assert capsys.readouterr().err.startswith("refgraph: error: line 3: invalid UTF-8")

    def test_undecodable_commit_log(self, corpus_file, demo_commit_log_path, tmp_path, capsys):
        log = tmp_path / "log.tsv"
        log.write_bytes(demo_commit_log_path.read_bytes().replace(b"\t", b"\t\xc3(", 1))
        code = main(["build", "--records", str(corpus_file), "--commit-log", f"mpandroidchart={log}",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"refgraph: error: invalid UTF-8 in commit log {log}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content, problem", [
        (DEEP_JSON.encode("ascii"), "invalid JSON in graph dump {path}: nested too deeply"),
        (b'{"format_version": "1", "project": "\xff"}', "invalid UTF-8 in graph dump {path}"),
    ], ids=["deep", "utf8"])
    def test_unreadable_dump(self, build_out, tmp_path, capsys, content, problem):
        dump = build_out / "okhttp" / "graph.json"
        dump.write_bytes(content)
        capsys.readouterr()
        assert main(["export", "--graph", str(build_out), "--all", "--out", str(tmp_path / "dot")]) == 1
        assert capsys.readouterr().err.startswith("refgraph: error: " + problem.format(path=dump))

    # json.dumps writes a lone surrogate as an escape such as \udc80, valid JSON
    # that decodes to a string UTF-8 cannot encode.
    @pytest.mark.parametrize("field, value", [
        ("project", "p\udc80"),
        ("source", "com.github.mikephil.charting.charts.Chart#draw\udc80()"),
    ], ids=["project", "signature"])
    def test_lone_surrogate_in_a_record(self, tmp_path, capsys, field, value):
        dicts = corpus.DEMO_CORPUS[:2] + [dict(corpus.DEMO_CORPUS[2], **{field: value})] + corpus.DEMO_CORPUS[3:]
        records = tmp_path / "records.jsonl"
        records.write_text(corpus.to_jsonl(dicts), encoding="ascii")
        assert main(["build", "--records", str(records), "--out", str(tmp_path / "build")]) == 0
        assert _read_json(tmp_path / "build" / "run_log.json")["inputs"][0]["skipped"] == 1
        assert main(["stats", "--records", str(records), "--out", str(tmp_path / "stats")]) == 0
        assert main(["export", "--graph", str(tmp_path / "build"), "--all", "--out", str(tmp_path / "dot")]) == 0
        capsys.readouterr()
        assert main(["build", "--records", str(records), "--out", str(tmp_path / "strict"), "--strict"]) == 1
        assert capsys.readouterr().err == f"refgraph: error: line 3: field {field!r} is not valid UTF-8\n"

    @pytest.mark.parametrize("where, problem", [
        ("vertex", "invalid UTF-8 in signature"),
        ("edge", "field 'target' is not valid UTF-8"),
        ("project", "field 'project' is not valid UTF-8"),
    ], ids=["vertex", "edge", "project"])
    def test_lone_surrogate_in_a_dump(self, tmp_path, capsys, where, problem):
        dump = _read_json(TESTS_DIR / "golden" / "build" / "mpandroidchart" / "graph.json")
        if where == "vertex":
            dump["vertices"][0] += "\udc80"
        elif where == "edge":
            dump["edges"][0]["target"] += "\udc80"
        else:
            dump["project"] += "\udc80"
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(dump), encoding="ascii")
        for command in (["stats"], ["export", "--all"]):
            out = tmp_path / command[0]
            assert main([*command, "--graph", str(path), "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"refgraph: error: corrupt graph dump: {problem}")
            assert str(path) in err
            assert not out.exists()

    @pytest.mark.parametrize("content, problem", [
        (DEEP_JSON.encode("ascii"), "invalid project ages file {path}: nested too deeply"),
        (b'{"okhttp": 7.0, "\x80": 1}', "invalid UTF-8 in project ages file {path}"),
    ], ids=["deep", "utf8"])
    def test_unreadable_project_ages(self, corpus_file, tmp_path, capsys, content, problem):
        ages = tmp_path / "ages.json"
        ages.write_bytes(content)
        code = main(["stats", "--records", str(corpus_file), "--project-ages", str(ages),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith("refgraph: error: " + problem.format(path=ages))
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, content, problem", [
        ("export", b'{"format_version": "1", "project": "p", "n": ' + b"9" * 5000 + b"}",
         "invalid JSON in graph dump {path}: Exceeds the limit"),
        ("export", b'{"format_version": "1", "project": ', "invalid JSON in graph dump {path}: Expecting value"),
        ("export", b'{\n  "format_version": "1",\n  "project": ', "invalid JSON in graph dump {path}: Expecting value"),
        ("stats", b'{"okhttp": 7' + b"0" * 5000 + b"}", "invalid project ages file {path}: Exceeds the limit"),
        ("stats", b'{"okhttp": 7.0', "invalid project ages file {path}: Expecting"),
    ], ids=["dump-long-int", "dump-truncated", "dump-head-truncated", "ages-long-int", "ages-truncated"])
    def test_json_that_does_not_decode(self, corpus_file, tmp_path, capsys, command, content, problem):
        # An integer of more than 4300 digits is a ValueError from int(), not a JSONDecodeError.
        path = tmp_path / "input.json"
        path.write_bytes(content)
        if command == "export":
            argv = ["export", "--graph", str(path), "--all"]
        else:
            argv = ["stats", "--records", str(corpus_file), "--project-ages", str(path)]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("refgraph: error: " + problem.format(path=path))
        assert not (tmp_path / "o").exists()
