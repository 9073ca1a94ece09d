from __future__ import annotations

import codecs
import contextlib
import csv
import gc
import io
import json
import os
import pickle
import random
import shutil
import signal
import tempfile
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corpus
from refgraph import cli, history, ingest, report
from refgraph.cli import main
from refgraph.graph import GraphDumpError, build, graph_to_dict, load_graph, partition, scan_dump
from refgraph.ingest import _MEMOS, RefactoringRecord, clear_caches, parse_record_line
from refgraph.report import emit_dot, emit_tables

CORRUPT_LINE = '{"project": "x", "commit": "zz", "oops": true}\n'
TESTS_DIR = Path(__file__).resolve().parent


def _read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _snapshot(root):
    """Every entry under ``root``: a file's bytes, or None for a directory."""
    return {p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None for p in sorted(root.rglob("*"))}


def _temporaries(out):
    """The dot-named entries beside ``out``: trees a run left behind."""
    return sorted(p.name for p in out.parent.iterdir() if p.name.startswith("."))


def _fail_on_call(n, func, error=None):
    """``func``, except that its ``n``-th call raises ``error``, by default an OSError."""
    calls = []

    def failing(*args):
        calls.append(args)
        if len(calls) == n:
            raise error or OSError("injected write error")
        return func(*args)

    return failing


def _fail_when(when, func):
    """``func``, except that a call with arguments ``when`` is true of raises an OSError."""
    def failing(*args):
        if when(*args):
            raise OSError("injected write error")
        return func(*args)

    return failing


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


@pytest.fixture
def one_process(monkeypatch):
    """Every command parses its records and loads its dumps in the test's own process."""
    monkeypatch.setattr(cli, "_workers", lambda: 1)


@pytest.fixture
def two_workers(monkeypatch):
    """Every command deals its record file ranges or its dumps to two forked workers, whatever the CPU count."""
    monkeypatch.setattr(cli, "_workers", lambda: 2)


def _logged(log, func, key):
    """``func``, also appending the calling process id and ``key(*args)`` as
    one line to the file ``log``, so calls made in a forked worker are seen."""
    def logging(*args, **kwargs):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()} {key(*args)}\n")
        return func(*args, **kwargs)

    return logging


def _log_lines(log):
    """``(pid, key)`` per line :func:`_logged` wrote to ``log``."""
    if not log.exists():
        return []
    return [(int(pid), key) for pid, key in (line.split(" ", 1) for line in log.read_text(encoding="utf-8").splitlines())]


def _no_child_is_left():
    with pytest.raises(ChildProcessError):  # this process has no child, running or unreaped
        os.waitpid(-1, os.WNOHANG)
    return True


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
        assert list(_tree(out)) == ["run_log.json"]  # no project, so no dump
        run_log = _read_json(out / "run_log.json")
        assert run_log["projects"] == [] and set(run_log["totals"].values()) == {0}

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

    def test_repeated_records_flags_add_up(self, demo_records_path, tmp_path):
        lines = demo_records_path.read_text(encoding="utf-8").splitlines(keepends=True)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text("".join(line for line in lines if '"mpandroidchart"' in line), encoding="utf-8")
        b.write_text("".join(line for line in lines if '"mpandroidchart"' not in line), encoding="utf-8")
        assert main(["build", "--records", str(a), str(b), "--out", str(tmp_path / "one")]) == 0
        assert main(["build", "--records", str(a), "--records", str(b), "--out", str(tmp_path / "two")]) == 0
        assert [entry["path"] for entry in _read_json(tmp_path / "two" / "run_log.json")["inputs"]] == [str(a), str(b)]
        assert _tree(tmp_path / "two") == _tree(tmp_path / "one")
        assert (tmp_path / "two" / "mpandroidchart" / "graph.json").is_file()

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
        dump = corpus.read_dump(out / "mpandroidchart" / "graph.json")
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

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_write_error_removes_what_the_run_wrote(self, demo_records_path, tmp_path, monkeypatch, capsys, workers):
        # The third project's dump fails, in whichever process builds it: this one, with one or two processes
        # (this one takes the first share), or a worker, with three. The earlier run's tree stays as it was.
        out = tmp_path / "out"
        assert main(["build", "--records", str(demo_records_path), "--min-commits", "3", "--out", str(out)]) == 0
        before = _snapshot(out)
        monkeypatch.setattr(cli, "_workers", lambda: workers)
        monkeypatch.setattr(cli, "graph_to_dict", _fail_when(lambda graph, project: project == "spring-framework",
                                                             graph_to_dict))
        capsys.readouterr()
        assert main(["build", "--records", str(demo_records_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "refgraph: error: injected write error\n"
        assert _snapshot(out) == before
        assert _temporaries(out) == []

    def test_a_failed_run_log_write_leaves_no_project_directory(self, demo_records_path, tmp_path, monkeypatch,
                                                                capsys):
        # The run log is written last, after every dump.
        out = tmp_path / "out"
        assert main(["build", "--records", _without_elasticsearch(tmp_path), "--out", str(out)]) == 0
        before = _snapshot(out)
        write_text = Path.write_text

        def failing(path, *args, **kwargs):
            if path.name == "run_log.json":
                raise OSError("injected write error")
            return write_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", failing)
        capsys.readouterr()
        assert main(["build", "--records", str(demo_records_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "refgraph: error: injected write error\n"
        assert _snapshot(out) == before and "elasticsearch" not in before
        assert _temporaries(out) == []

    @pytest.mark.usefixtures("one_process")  # so the interrupt is raised in the process that runs the command
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
        assert _temporaries(out) == []


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


DEMO_RECORDS = TESTS_DIR.parent / "demo" / "refactorings.jsonl"


def _argv(command):
    """``command`` run on the demo corpus, without ``--out``."""
    if command == "export":
        return ["export", "--graph", str(TESTS_DIR / "golden" / "build"), "--all"]
    return [command, "--records", str(DEMO_RECORDS)]


def _forbid_reading(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an input was read")

    for name in ("parse_records", "load_graph"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(cli, "open", refuse, raising=False)


def _without_elasticsearch(tmp_path):
    records = tmp_path / "three.jsonl"
    lines = DEMO_RECORDS.read_text(encoding="utf-8").splitlines(keepends=True)
    records.write_text("".join(line for line in lines if '"project": "elasticsearch"' not in line), encoding="utf-8")
    return str(records)


class TestOutputTree:
    """Each command writes a new tree beside --out and renames it into place."""

    def test_a_rebuild_without_a_project_drops_its_dump(self, tmp_path):
        out = tmp_path / "build"
        assert main(["build", "--records", str(DEMO_RECORDS), "--out", str(out)]) == 0
        assert main(["build", "--records", _without_elasticsearch(tmp_path), "--out", str(out)]) == 0
        projects = ["mpandroidchart", "okhttp", "spring-framework"]
        assert sorted(p["project"] for p in _read_json(out / "run_log.json")["projects"]) == projects
        assert sorted(p.name for p in out.iterdir() if p.is_dir()) == projects
        assert main(["stats", "--graph", str(out), "--out", str(tmp_path / "stats")]) == 0
        assert _read_json(tmp_path / "stats" / "summary.json")["projects"] == projects
        assert main(["export", "--graph", str(out), "--all", "--out", str(tmp_path / "dot")]) == 0
        assert sorted(p.name for p in (tmp_path / "dot").iterdir()) == projects

    def test_a_selector_export_over_an_all_export_leaves_only_its_files(self, tmp_path):
        out = tmp_path / "dot"
        assert main([*_argv("export"), "--out", str(out)]) == 0
        assert len(_tree(out)) == 4
        argv = ["export", "drawYLabels", "--graph", str(TESTS_DIR / "golden" / "build")]
        assert main([*argv, "--out", str(out)]) == 0
        assert main([*argv, "--out", str(tmp_path / "fresh")]) == 0
        assert _snapshot(out) == _snapshot(tmp_path / "fresh") and len(_tree(out)) == 1
        assert _temporaries(out) == []

    @pytest.mark.parametrize("command, foreign", [
        ("build", "notes.txt"), ("build", "p/q/graph.json"), ("build", "p/run_log.json"),
        ("stats", "notes.txt"), ("stats", "p/summary.json"), ("stats", "graph.json"),
        ("export", "notes.txt"), ("export", "p.dot"), ("export", "p/q/r.dot"), ("export", "p/graph.json"),
    ])
    def test_an_out_holding_other_files_is_refused_before_any_input_is_read(
            self, tmp_path, monkeypatch, capsys, command, foreign):
        out = tmp_path / "out"
        assert main([*_argv(command), "--out", str(out)]) == 0
        (out / foreign).parent.mkdir(parents=True, exist_ok=True)
        (out / foreign).write_text("kept", encoding="utf-8")
        before = _snapshot(out)
        _forbid_reading(monkeypatch)
        capsys.readouterr()
        assert main([*_argv(command), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"refgraph: error: --out {out} holds {out}/")
        assert err.endswith(f", which {command} does not write; give a new or empty directory\n")
        assert _snapshot(out) == before
        assert _temporaries(out) == []

    @pytest.mark.parametrize("command", ["build", "stats", "export"])
    def test_a_symbolic_link_is_refused(self, tmp_path, monkeypatch, capsys, command):
        target = tmp_path / "target"
        assert main([*_argv(command), "--out", str(target)]) == 0
        before = _snapshot(target)
        link = tmp_path / "link"
        link.symlink_to(target, target_is_directory=True)
        inner = tmp_path / "inner"
        inner.mkdir()
        (inner / "p").symlink_to(target, target_is_directory=True)  # a link inside --out
        _forbid_reading(monkeypatch)
        capsys.readouterr()
        assert main([*_argv(command), "--out", str(link)]) == 2
        assert capsys.readouterr().err == f"refgraph: error: --out {link} is a symbolic link or not a directory\n"
        assert main([*_argv(command), "--out", str(inner)]) == 2
        assert f"--out {inner} holds {inner / 'p'}, which {command} does not write" in capsys.readouterr().err
        assert link.is_symlink() and _snapshot(target) == before
        assert _temporaries(target) == []

    @pytest.mark.parametrize("where", ["file", "cwd", "dot", "cwd-parent", "root"])
    def test_an_out_that_is_not_a_tree_of_its_own_is_refused(self, tmp_path, monkeypatch, capsys, where):
        work = tmp_path / "work"
        work.mkdir()
        (tmp_path / "file").write_text("kept", encoding="utf-8")
        monkeypatch.chdir(work)
        out = {"file": str(tmp_path / "file"), "cwd": str(work), "dot": ".", "cwd-parent": str(tmp_path),
               "root": "/"}[where]
        _forbid_reading(monkeypatch)
        assert main([*_argv("build"), "--out", out]) == 2
        problem = "a symbolic link or not a directory" if where == "file" else "or contains the working directory"
        assert capsys.readouterr().err.startswith(f"refgraph: error: --out {out} is {problem}")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "work"]
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("command", ["build", "stats", "export"])
    def test_out_gets_the_mode_mkdir_gives(self, tmp_path, command):
        umask = os.umask(0o027)  # neither the usual 022 nor the 077 that leaves mkdtemp's 0700
        try:
            (tmp_path / "plain").mkdir()
            assert main([*_argv(command), "--out", str(tmp_path / "out")]) == 0
        finally:
            os.umask(umask)
        assert (tmp_path / "out").stat().st_mode == (tmp_path / "plain").stat().st_mode

    def test_a_failed_run_removes_the_parents_it_made(self, tmp_path, monkeypatch):
        out = tmp_path / "a" / "b" / "out"
        monkeypatch.setattr(cli, "emit_dot", _fail_on_call(2, emit_dot))
        assert main([*_argv("export"), "--out", str(out)]) == 1
        assert list(tmp_path.iterdir()) == []

    def test_a_failed_rename_puts_the_old_tree_back(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        assert main([*_argv("build"), "--min-commits", "3", "--out", str(out)]) == 0
        before = _snapshot(out)
        rename = Path.rename

        def failing(self, target):
            if Path(target) == out and not self.name.endswith(".old"):  # the new tree renamed in
                raise OSError("injected rename error")
            return rename(self, target)

        monkeypatch.setattr(Path, "rename", failing)
        assert main([*_argv("build"), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "refgraph: error: injected rename error\n"
        assert _snapshot(out) == before
        assert _temporaries(out) == []

    def test_a_file_put_in_out_during_the_run_is_kept(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        assert main([*_argv("export"), "--out", str(out)]) == 0

        def intruding(subgraph):
            (out / "notes.txt").write_text("kept", encoding="utf-8")
            return emit_dot(subgraph)

        monkeypatch.setattr(cli, "emit_dot", intruding)
        before = _snapshot(out)
        assert main([*_argv("export"), "--out", str(out)]) == 2
        assert f"--out {out} holds {out / 'notes.txt'}" in capsys.readouterr().err
        assert _snapshot(out) == dict(before, **{"notes.txt": b"kept"})
        assert _temporaries(out) == []


class TestStats:
    def test_a_write_error_removes_what_the_run_wrote(self, corpus_file, tmp_path, monkeypatch, capsys):
        out = tmp_path / "stats"
        assert main(["stats", "--records", str(corpus_file), "--min-commits", "3", "--out", str(out)]) == 0
        before = _snapshot(out)

        def failing(summary, out_dir):
            emit_tables(summary, out_dir)  # all seven tables are written, then the run fails
            raise OSError("injected write error")

        monkeypatch.setattr(cli, "emit_tables", failing)
        capsys.readouterr()
        assert main(["stats", "--records", str(corpus_file), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "refgraph: error: injected write error\n"
        assert _snapshot(out) == before
        assert _temporaries(out) == []

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
        # The records list the projects in another order than the sorted
        # directories; the tables list them in name order either way.
        main(["stats", "--graph", str(build_out), "--out", str(b)])
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()
        assert _read_json(b / "summary.json")["projects"] == ["elasticsearch", "mpandroidchart", "okhttp",
                                                              "spring-framework"]

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
            assert main(["stats", "--graph", str(tmp / "build"), "--out", str(tmp / "b"), *threshold]) == 0
            written = sorted(p.name for p in (tmp / "a").iterdir())
            assert len(written) == 8
            assert written == sorted(p.name for p in (tmp / "b").iterdir())
            for name in written:
                assert (tmp / "a" / name).read_bytes() == (tmp / "b" / name).read_bytes(), name

    def test_corrupt_dump_email_is_a_clean_error(self, corpus_file, tmp_path, capsys):
        build_out = tmp_path / "build"
        main(["build", "--records", str(corpus_file), "--out", str(build_out)])
        dump_path = build_out / "okhttp" / "graph.json"
        dump = corpus.read_dump(dump_path)
        dump["edges"][0]["author_email"] = ""
        dump_path.write_text(corpus.dump_text(dump), encoding="utf-8")
        capsys.readouterr()
        assert main(["stats", "--graph", str(build_out), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("refgraph: error: corrupt graph dump")

    def test_corrupt_dump_error_names_its_file(self, tmp_path, capsys):
        golden = TESTS_DIR / "golden" / "build" / "mpandroidchart" / "graph.json"
        dump = corpus.read_dump(golden)
        dump["edges"][1]["type"] = "bogus"
        bad = tmp_path / "bad.json"
        bad.write_text(corpus.dump_text(dump), encoding="utf-8")
        assert main(["stats", "--graph", str(golden), str(bad), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == f"refgraph: error: corrupt graph dump: line 3: unknown refactoring type: 'bogus' in {bad}\n"

    def test_projects_with_no_kept_subgraph(self, demo_records_path, tmp_path):
        out = tmp_path / "stats"
        assert main(["stats", "--records", str(demo_records_path), "--out", str(out), "--min-commits", "3"]) == 0
        doc = _read_json(out / "summary.json")
        assert doc["projects"] == ["mpandroidchart", "okhttp"]
        for table in ("composition", "authorship", "age_summary"):
            assert [row["project"] for row in doc[table]["per_project"]] == doc["projects"]
        summary_projects = [row["project"] for row in doc["subgraph_summary"]["per_project"]]
        assert summary_projects == ["elasticsearch", "mpandroidchart", "okhttp", "spring-framework"]

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
        assert main(["stats", "--records", str(records), "--out", str(tmp_path / "from_records")]) == 0
        assert _tree(out) == _tree(tmp_path / "from_records")

    def test_a_project_in_two_dumps_is_an_error(self, tmp_path, capsys):
        union, dumps = _two_project_dumps(tmp_path)
        assert main(["build", "--records", *union, "--out", str(tmp_path / "union")]) == 0
        assert main(["stats", "--records", *union, "--out", str(tmp_path / "from_records")]) == 0
        assert main(["stats", "--graph", str(tmp_path / "union"), "--out", str(tmp_path / "from_dumps")]) == 0
        assert _tree(tmp_path / "from_dumps") == _tree(tmp_path / "from_records")
        assert _read_json(tmp_path / "from_dumps" / "summary.json")["projects"] == ["other", "proj"]
        # "proj" is in the first and the third dump, with "other" between them
        problem = f"graph dumps {dumps[0]} and {dumps[2]} both name project 'proj'"
        for command in (["stats"], ["export", "--all"]):
            out = tmp_path / command[0]
            assert main([*command, "--graph", str(tmp_path / "union"), "--out", str(out)]) == 0
            before = _snapshot(out)
            capsys.readouterr()
            assert main([*command, "--graph", *dumps, "--out", str(out)]) == 1
            assert capsys.readouterr().err == f"refgraph: error: {problem}\n"
            assert _snapshot(out) == before and not _temporaries(out)

    @pytest.mark.parametrize("project", [None, 7, ["mpandroidchart"]], ids=["null", "number", "list"])
    def test_non_string_dump_project_is_a_clean_error(self, tmp_path, capsys, project):
        golden = corpus.read_dump(TESTS_DIR / "golden" / "build" / "mpandroidchart" / "graph.json")
        empty = {"format_version": "3", "project": None, "edges": []}
        for dump in (golden, empty):
            path = tmp_path / "graph.json"
            path.write_text(corpus.dump_text(dict(dump, project=project)), encoding="utf-8")
            for command in (["stats"], ["export", "--all"]):
                out = tmp_path / command[0]
                assert main([*command, "--graph", str(path), "--out", str(out)]) == 1
                err = capsys.readouterr().err
                assert err == f"refgraph: error: corrupt graph dump: line 1: field 'project' is not a string in {path}\n"
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

    @pytest.mark.parametrize("source", ["graph", "records"])
    @pytest.mark.parametrize("ages", ["missing", "invalid"])
    def test_the_ages_file_is_read_before_any_record_or_dump(self, tmp_path, monkeypatch, capsys, source, ages):
        path = tmp_path / "ages.json"
        if ages == "invalid":
            path.write_text('["not", "a", "map"]', encoding="utf-8")
        calls = []
        monkeypatch.setattr(cli, "load_graph", lambda *args: calls.append(args))
        monkeypatch.setattr(cli, "parse_records", lambda *args, **kwargs: calls.append(args))
        inputs = ["--graph", str(TESTS_DIR / "golden" / "build")] if source == "graph" else ["--records", str(DEMO_RECORDS)]
        out = tmp_path / "out"
        assert main(["stats", *inputs, "--project-ages", str(path), "--out", str(out)]) == 1
        assert calls == []
        assert str(path) in capsys.readouterr().err
        assert not out.exists() and _temporaries(out) == []

    @pytest.mark.usefixtures("one_process")
    def test_a_dump_named_twice_loads_once(self, tmp_path, monkeypatch):
        build_out = TESTS_DIR / "golden" / "build"
        assert main(["stats", "--graph", str(build_out), "--out", str(tmp_path / "once")]) == 0
        loads = []
        monkeypatch.setattr(cli, "load_graph", lambda path: loads.append(path) or load_graph(path))
        monkeypatch.chdir(TESTS_DIR)
        again = [
            str(build_out / "okhttp" / "graph.json"),
            str(build_out),
            "golden/build/okhttp/graph.json",  # relative to the working directory
            str(build_out / "okhttp" / ".." / "okhttp" / "graph.json"),
        ]
        assert main(["stats", "--graph", str(build_out), *again, "--out", str(tmp_path / "twice")]) == 0
        assert len(loads) == len(set(loads)) == 4
        assert build_out / "okhttp" / "graph.json" in loads  # the first spelling
        assert _tree(tmp_path / "twice") == _tree(tmp_path / "once")

    @pytest.mark.usefixtures("two_workers")
    def test_a_dump_named_twice_loads_once_across_workers(self, tmp_path, monkeypatch):
        build_out = TESTS_DIR / "golden" / "build"
        assert main(["stats", "--graph", str(build_out), "--out", str(tmp_path / "once")]) == 0
        log = tmp_path / "loads.log"
        monkeypatch.setattr(cli, "load_graph", _logged(log, load_graph, str))
        monkeypatch.chdir(TESTS_DIR)
        again = [str(build_out / "okhttp" / "graph.json"), str(build_out), "golden/build/okhttp/graph.json"]
        assert main(["stats", "--graph", str(build_out), *again, "--out", str(tmp_path / "twice")]) == 0
        loads = [path for _, path in _log_lines(log)]
        assert len(loads) == len(set(loads)) == 4
        assert str(build_out / "okhttp" / "graph.json") in loads  # the first spelling
        assert len({pid for pid, _ in _log_lines(log)} - {os.getpid()}) == 2  # each worker loaded two
        assert _tree(tmp_path / "twice") == _tree(tmp_path / "once")

    def test_repeated_graph_flags_add_up(self, tmp_path):
        build_out = TESTS_DIR / "golden" / "build"
        okhttp, elasticsearch = str(build_out / "okhttp"), str(build_out / "elasticsearch")
        assert main(["stats", "--graph", okhttp, elasticsearch, "--out", str(tmp_path / "one")]) == 0
        assert main(["stats", "--graph", okhttp, "--graph", elasticsearch, "--out", str(tmp_path / "two")]) == 0
        assert _tree(tmp_path / "two") == _tree(tmp_path / "one")
        assert _read_json(tmp_path / "two" / "summary.json")["projects"] == ["elasticsearch", "okhttp"]


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
        dump = corpus.read_dump(build_out / "okhttp" / "graph.json")
        subgraph_id = min(v for edge in dump["edges"] for v in (edge["source"], edge["target"]))
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

    @pytest.mark.usefixtures("one_process")
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

    @pytest.mark.usefixtures("two_workers")
    def test_selector_splits_only_the_graphs_holding_it_across_workers(self, tmp_path, monkeypatch):
        build_out = TESTS_DIR / "golden" / "build"
        log = tmp_path / "partitions.log"
        monkeypatch.setattr(cli, "partition", _logged(log, partition, lambda graph: graph.id))
        # two of the four dumps hold "com.": they load and split in workers
        assert main(["export", "--graph", str(build_out), "--out", str(tmp_path / "dot"), "com."]) == 0
        assert os.getpid() not in {pid for pid, _ in _log_lines(log)}
        assert sorted(graph_id.split(".")[1] for _, graph_id in _log_lines(log)) == ["github", "squareup"]
        assert sorted(p.parent.name for p in (tmp_path / "dot").rglob("*.dot")) == ["mpandroidchart", "okhttp"]
        # one dump holds "drawYLabels": nothing is forked for it alone
        log.unlink()
        assert main(["export", "--graph", str(build_out), "--out", str(tmp_path / "one"), "drawYLabels"]) == 0
        [(pid, graph_id)] = _log_lines(log)
        assert pid == os.getpid() and graph_id.startswith("com.github.mikephil.charting.")
        assert [p.parent.name for p in (tmp_path / "one").rglob("*.dot")] == ["mpandroidchart"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_selector_loads_only_the_dumps_holding_it(self, tmp_path, monkeypatch, capsys, workers):
        build_out = TESTS_DIR / "golden" / "build"
        log = tmp_path / "loads.log"
        monkeypatch.setattr(cli, "_workers", lambda: workers)
        monkeypatch.setattr(cli, "load_graph", _logged(log, load_graph, lambda path, *handle: Path(path).parent.name))
        out = tmp_path / "dot"
        assert main(["export", "com.", "--graph", str(build_out), "--out", str(out)]) == 0
        assert sorted(project for _, project in _log_lines(log)) == ["mpandroidchart", "okhttp"]
        assert capsys.readouterr().out == f"export: wrote 2 DOT file(s) from 2 of 4 dump(s) -> {out}\n"
        assert _tree(out) == {name: data for name, data in _tree(TESTS_DIR / "golden" / "export").items()
                              if name.startswith(("mpandroidchart/", "okhttp/"))}
        assert main(["export", "--all", "--graph", str(build_out), "--out", str(tmp_path / "all")]) == 0
        assert capsys.readouterr().out == f"export: wrote 4 DOT file(s) from 4 of 4 dump(s) -> {tmp_path / 'all'}\n"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_dump_without_the_selector_is_checked_for_its_head_alone(self, tmp_path, monkeypatch, capsys, workers):
        monkeypatch.setattr(cli, "_workers", lambda: workers)
        build_out = tmp_path / "build"
        shutil.copytree(GOLDEN_BUILD, build_out)
        dump = build_out / "elasticsearch" / "graph.json"
        line = _corrupt_copy(dump, corpus.read_dump(dump), 0, type="bogus")
        assert main(["export", "com.", "--graph", str(build_out), "--out", str(tmp_path / "dot")]) == 0
        capsys.readouterr()
        assert main(["export", "--all", "--graph", str(build_out), "--out", str(tmp_path / "all")]) == 1
        assert capsys.readouterr().err == (f"refgraph: error: corrupt graph dump: line {line}:"
                                           f" unknown refactoring type: 'bogus' in {dump}\n")
        # its head line is still read: a dump of another version fails
        dump.write_text(dump.read_text(encoding="ascii").replace('"format_version": "3"', '"format_version": "4"', 1),
                        encoding="ascii")
        assert main(["export", "com.", "--graph", str(build_out), "--out", str(tmp_path / "dot")]) == 1
        assert capsys.readouterr().err == f"refgraph: error: unsupported graph dump version: '4' in {dump}\n"

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
        dump = corpus.read_dump(TESTS_DIR / "golden" / "build" / "okhttp" / "graph.json")
        dump["edges"][0]["type"] = "bogus"
        bad = tmp_path / "bad.json"
        bad.write_text(corpus.dump_text(dump), encoding="utf-8")
        out = tmp_path / "dot"
        assert main(["export", "--graph", str(good), str(bad), "--all", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("refgraph: error: corrupt graph dump: line 2: unknown refactoring type")
        assert not out.exists()
        assert _temporaries(out) == []
        # An --out an earlier run wrote is kept as it was.
        assert main(["export", "--graph", str(good), "--all", "--out", str(out)]) == 0
        before = _snapshot(out)
        assert main(["export", "--graph", str(good), str(bad), "--all", "--out", str(out)]) == 1
        assert _snapshot(out) == before
        assert _temporaries(out) == []

    @pytest.mark.usefixtures("one_process")
    def test_a_write_error_leaves_no_dot_file(self, build_out, tmp_path, monkeypatch, capsys):
        out = tmp_path / "dot"
        assert main(["export", "--graph", str(build_out), "--out", str(out), "drawYLabels"]) == 0
        before = _snapshot(out)
        monkeypatch.setattr(cli, "emit_dot", _fail_on_call(3, emit_dot))  # after two DOT files are written
        capsys.readouterr()
        assert main(["export", "--graph", str(build_out), "--all", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "refgraph: error: injected write error\n"
        assert _snapshot(out) == before
        assert _temporaries(out) == []

    @pytest.mark.usefixtures("two_workers")
    def test_an_error_in_a_worker_leaves_no_dot_file(self, build_out, tmp_path, monkeypatch, capsys):
        out = tmp_path / "dot"
        assert main(["export", "--graph", str(build_out), "--out", str(out), "drawYLabels"]) == 0
        before = _snapshot(out)

        def failing(subgraph):  # the third dump in path order, the second of the first worker
            if ".okhttp." in subgraph.id:
                raise OSError("injected write error")
            return emit_dot(subgraph)

        monkeypatch.setattr(cli, "emit_dot", failing)
        capsys.readouterr()
        assert main(["export", "--graph", str(build_out), "--all", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "refgraph: error: injected write error\n"
        assert _snapshot(out) == before
        assert _temporaries(out) == [] and _no_child_is_left()

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


def _records_file(path, projects, records=corpus.CHART_AXIS_RECORDS):
    """``records`` copied once per project, written to ``path``."""
    path.write_text(corpus.to_jsonl(dict(r, project=p) for p in projects for r in records), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("project", [cli._SPOOL, cli._SPOOL.replace("~", "_")], ids=["spool", "sanitized"])
def test_a_project_named_as_the_spool_gets_a_directory_of_its_own(tmp_path, project):
    out = tmp_path / "out"
    records = _records_file(tmp_path / "r.jsonl", ["mpandroidchart", project])
    for _ in range(2):  # the second run passes refuse_foreign on the tree of the first
        assert main(["build", "--records", records, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["mpandroidchart", "run_log.json", "spool_"]
        assert load_graph(out / "spool_" / "graph.json")[0] == project


def test_colliding_project_dirs_are_an_error(tmp_path, capsys):
    # "a/b" and "a_b" both map to directory a_b; neither command may write.
    both = tmp_path / "both"
    assert main(["build", "--records", _records_file(tmp_path / "both.jsonl", ["a/b", "a_b"]), "--out", str(both)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("refgraph: error:") and "'a/b'" in err and "'a_b'" in err
    assert not both.exists()

    for name in ("a/b", "a_b"):
        out = str(tmp_path / ("one" if name == "a/b" else "two"))
        assert main(["build", "--records", _records_file(tmp_path / "r.jsonl", [name]), "--out", out]) == 0
    capsys.readouterr()
    dot_out = tmp_path / "dot"
    code = main(["export", "--graph", str(tmp_path / "one"), str(tmp_path / "two"), "--all", "--out", str(dot_out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("refgraph: error:") and "'a/b'" in err and "'a_b'" in err
    assert not dot_out.exists()


@pytest.mark.parametrize("project", ["run_log.json", "run/log.json"])
def test_a_project_taking_the_run_logs_path_is_an_error(tmp_path, monkeypatch, capsys, project):
    out = tmp_path / "build"
    assert main(["build", "--records", str(DEMO_RECORDS), "--out", str(out)]) == 0
    before = _snapshot(out)
    writes = []
    monkeypatch.setattr(cli, "_write_json", lambda path, chunks: writes.append(path))
    records = _records_file(tmp_path / "r.jsonl", ["mpandroidchart", project])
    capsys.readouterr()
    assert main(["build", "--records", records, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("refgraph: error:") and repr(project) in err and "run_log.json" in err
    assert "Errno" not in err and "/." not in err  # no OS error naming the temporary tree
    assert writes == []  # the check runs before any dump is written
    assert _snapshot(out) == before and _temporaries(out) == []


@pytest.mark.parametrize("length, directory_length", [(255, 255), (300, 89)])
def test_a_long_project_name_gets_a_short_directory(tmp_path, length, directory_length):
    project = "p" * length
    records = _records_file(tmp_path / "r.jsonl", [project])
    build_out, dot_out = tmp_path / "build", tmp_path / "dot"
    assert main(["build", "--records", records, "--out", str(build_out)]) == 0
    [directory] = [p.name for p in build_out.iterdir() if p.is_dir()]
    assert len(directory) == directory_length and directory.startswith("p" * 80)
    assert main(["stats", "--graph", str(build_out), "--out", str(tmp_path / "stats")]) == 0
    assert _read_json(tmp_path / "stats" / "summary.json")["projects"] == [project]
    assert main(["export", "--graph", str(build_out), "--all", "--out", str(dot_out)]) == 0
    assert [p.name for p in dot_out.iterdir()] == [directory]
    assert len(list((dot_out / directory).glob("*.dot"))) == 1


def test_a_long_project_name_shortened_onto_another_is_an_error(tmp_path, capsys):
    long = "p" * 300
    short = report.safe_name(long, fallback="project")  # the directory the long name shortens to
    out = tmp_path / "build"
    assert main(["build", "--records", _records_file(tmp_path / "r.jsonl", [long, short]), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("refgraph: error:") and repr(long) in err and repr(short) in err
    assert not out.exists()


def test_subgraph_ids_sharing_a_file_name_are_an_error(tmp_path, capsys):
    # Two ids with one 80-character safe prefix and one 32-bit SHA-1 prefix.
    stem = "org.apache.lucene.codecs.lucene90.blocktree.Lucene90BlockTreeTermsWriter#writeBlock"
    ids = [f"{stem}30142(int)", f"{stem}139295(int)"]
    assert report.safe_name(ids[0], fallback="subgraph") == report.safe_name(ids[1], fallback="subgraph")
    records = [dict(corpus.CHART_AXIS_RECORDS[0], project="lucene", source=source, target=target)
               for source, target in zip(ids, ["zzz.Z#zzzA(int)", "zzz.Z#zzzB(int)"])]
    path = tmp_path / "r.jsonl"
    path.write_text(corpus.to_jsonl(records), encoding="utf-8")
    build_out = tmp_path / "build"
    assert main(["build", "--records", str(path), "--min-commits", "1", "--out", str(build_out)]) == 0
    assert len(partition(load_graph(build_out / "lucene" / "graph.json")[1])) == 2

    out = tmp_path / "dot"
    assert main(["export", "zzzA", "--graph", str(build_out), "--out", str(out)]) == 0  # one file, no clash
    capsys.readouterr()
    before = _snapshot(out)
    assert len(before) == 2  # lucene/ and its one DOT file
    assert main(["export", "--graph", str(build_out), "--all", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("refgraph: error:") and all(repr(i) in err for i in ids)
    assert _snapshot(out) == before and not _temporaries(out)


def test_a_date_before_year_1000_round_trips_through_a_dump(tmp_path):
    # Four-digit years: a dump written with "999-..." would not load again.
    dated = [dict(r, timestamp="0999-01-01T00:00:00Z" if i == 0 else "2020-01-01T00:00:00Z")
             for i, r in enumerate(corpus.CHART_AXIS_RECORDS)]
    records = _records_file(tmp_path / "r.jsonl", ["old"], dated)
    build_out = tmp_path / "build"
    assert main(["build", "--records", records, "--out", str(build_out)]) == 0
    dump = corpus.read_dump(build_out / "old" / "graph.json")
    assert sorted({e["timestamp"] for e in dump["edges"]}) == ["0999-01-01T00:00:00Z", "2020-01-01T00:00:00Z"]
    assert main(["stats", "--graph", str(build_out), "--out", str(tmp_path / "from_graph")]) == 0
    assert main(["stats", "--records", records, "--out", str(tmp_path / "from_records")]) == 0
    ages = (tmp_path / "from_graph" / "age_summary.csv").read_bytes()
    assert ages == (tmp_path / "from_records" / "age_summary.csv").read_bytes()
    assert _read_csv(tmp_path / "from_graph" / "age_summary.csv")[1] == ["old", "1", "372912.0", "372912.0", "372912.0"]
    assert main(["export", "--graph", str(build_out), "--all", "--out", str(tmp_path / "dot")]) == 0
    [dot] = (tmp_path / "dot" / "old").glob("*.dot")
    assert "\\n0999-01-01" in dot.read_text(encoding="utf-8")

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


def _reverse_keys(value):
    return {key: value[key] for key in reversed(value)}


# Ways to write one JSON object on a line, other than json.dumps with its defaults.
_LINE_WRITERS = {
    "compact": lambda value: json.dumps(value, separators=(",", ":")),
    "spaced": lambda value: json.dumps(value, separators=(" , ", " : ")) + " \t",
    "keys-reversed": lambda value: json.dumps(_reverse_keys(value)),
}


@pytest.mark.parametrize("layout", sorted(_LINE_WRITERS))
def test_dumps_written_another_way_group_like_build_dumps(tmp_path, layout):
    dumps = _two_project_dumps(tmp_path)[1][:2]  # "proj" and "other", one dump each
    assert main(["stats", "--graph", *dumps, "--out", str(tmp_path / "as_built")]) == 0
    assert main(["export", "--graph", *dumps, "--all", "--out", str(tmp_path / "dot_as_built")]) == 0
    # Each line holds the same object, written another way; the edges of
    # the dump of "proj" are also put in reverse order.
    dump = corpus.read_dump(Path(dumps[0]))
    head = {key: value for key, value in dump.items() if key != "edges"}
    rewritten = tmp_path / "rewritten.json"
    rewritten.write_text("".join(_LINE_WRITERS[layout](line) + "\n" for line in [head, *reversed(dump["edges"])]),
                         encoding="utf-8")
    dumps[0] = str(rewritten)
    assert main(["stats", "--graph", *dumps, "--out", str(tmp_path / "rewritten_stats")]) == 0
    assert main(["export", "--graph", *dumps, "--all", "--out", str(tmp_path / "rewritten_dot")]) == 0
    assert _tree(tmp_path / "rewritten_stats") == _tree(tmp_path / "as_built")
    assert _tree(tmp_path / "rewritten_dot") == _tree(tmp_path / "dot_as_built")


@pytest.mark.parametrize("head, problem", [
    ({"format_version": "3", "project": 7}, "corrupt graph dump: line 1: field 'project' is not a string in {path}"),
], ids=["not-a-string"])
def test_a_dump_head_that_does_not_hold_is_a_clean_error(tmp_path, capsys, head, problem):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(head) + "\n", encoding="utf-8")
    for command in (["stats"], ["export", "--all"]):
        out = tmp_path / command[0]
        assert main([*command, "--graph", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"refgraph: error: {problem.format(path=path)}\n"
        assert not out.exists()


@pytest.mark.parametrize("bad", ["format-1", "format-2", "empty-project", "blank-project", "spaced-project", "no-dump"])
def test_a_refused_graph_input_leaves_out_as_it_was(tmp_path, capsys, bad):
    good = TESTS_DIR / "golden" / "build" / "okhttp" / "graph.json"
    dump = corpus.read_dump(good)
    path = tmp_path / "bad" / "graph.json"
    path.parent.mkdir()
    if bad in ("format-1", "format-2"):  # both were written as json.dumps(dump, indent=2) writes them
        old = {"format_version": bad[-1], "project": dump["project"], "edges": dump["edges"]}
        if bad == "format-1":  # which listed the sorted vertices between the project and the edges
            old["vertices"] = sorted({v for edge in dump["edges"] for v in (edge["source"], edge["target"])})
        path.write_text(json.dumps(old, indent=2), encoding="utf-8")
        problem = f"corrupt graph dump: line 1: invalid JSON: Expecting property name enclosed in double quotes in {path}"
    elif bad == "no-dump":  # a directory holding neither a dump nor a build's run log
        path = path.parent
        problem = f"no graph dumps found under {path}"
    else:  # the rule a record line's project follows
        project = {"empty-project": "", "blank-project": "  ", "spaced-project": " okhttp"}[bad]
        path.write_text(corpus.dump_text(dict(dump, project=project)), encoding="utf-8")
        reason = "empty project name" if bad != "spaced-project" else "whitespace around project name ' okhttp'"
        problem = f"corrupt graph dump: line 1: {reason} in {path}"
    for command in (["stats"], ["export", "--all"]):
        out = tmp_path / command[0]
        assert main([*command, "--graph", str(good), "--out", str(out)]) == 0
        before = _snapshot(out)
        capsys.readouterr()
        assert main([*command, "--graph", str(good), str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"refgraph: error: {problem}\n"
        assert _snapshot(out) == before and not _temporaries(out)


@pytest.mark.parametrize("bom_in", ["records", "commit-log", "project-ages", "dump"])
def test_a_byte_order_mark_starting_an_input_is_skipped(tmp_path, monkeypatch, bom_in):
    # Some editors start a UTF-8 file with the byte-order mark EF BB BF.
    shutil.copytree(TESTS_DIR.parent / "demo", tmp_path / "demo")
    inputs = {"records": "demo/refactorings.jsonl", "commit-log": "demo/commit_log_mpandroidchart.tsv",
              "project-ages": "demo/project_ages.json", "dump": "golden/build/okhttp/graph.json"}
    expected = _tree(TESTS_DIR / "golden")
    monkeypatch.chdir(tmp_path)

    def add_bom(path):
        Path(path).write_bytes(codecs.BOM_UTF8 + Path(path).read_bytes())

    if bom_in != "dump":
        add_bom(inputs[bom_in])
    build = ["build", "--records", "demo/refactorings.jsonl",
             "--commit-log", "mpandroidchart=demo/commit_log_mpandroidchart.tsv"]
    assert main([*build, "--out", "golden/build"]) == 0
    assert main([*build, "--strict", "--out", "strict"]) == 0  # no line is malformed
    if bom_in == "dump":
        add_bom(inputs["dump"])
        expected["build/okhttp/graph.json"] = codecs.BOM_UTF8 + expected["build/okhttp/graph.json"]
    assert main(["stats", "--graph", "golden/build", "--project-ages", "demo/project_ages.json",
                 "--out", "golden/stats"]) == 0
    assert main(["export", "--graph", "golden/build", "--all", "--out", "golden/export"]) == 0
    assert _tree(tmp_path / "golden") == expected


@pytest.mark.parametrize("command, source, order", [
    # --graph: one graph per dump, in path order. --records: one graph per
    # project, in first-record order.
    (["stats"], "graph", ["elasticsearch", "mpandroidchart", "okhttp", "spring-framework"]),
    (["export", "--all"], "graph", ["elasticsearch", "mpandroidchart", "okhttp", "spring-framework"]),
    (["build"], "records", ["mpandroidchart", "elasticsearch", "spring-framework", "okhttp"]),
    (["stats"], "records", ["mpandroidchart", "elasticsearch", "spring-framework", "okhttp"]),
], ids=["stats", "export", "build", "stats-records"])
@pytest.mark.usefixtures("one_process")
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
        inputs = ["--graph", str(build_out)]
    else:
        inputs = ["--records", records, "--commit-log", f"mpandroidchart={commit_log}"]
    monkeypatch.setattr(cli, "load_graph", tracked(load_graph, lambda path, result: result))
    monkeypatch.setattr(cli, "build", tracked(build, lambda group, graph: (group[0].project, graph)))
    assert main([*command, *inputs, "--out", str(tmp_path / "out")]) == 0
    assert [name for name, _ in held] == order


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("command", [["stats"], ["export", "--all"]], ids=["stats", "export"])
def test_each_dump_is_opened_once(tmp_path, monkeypatch, command, workers):
    build_out = TESTS_DIR / "golden" / "build"
    log = tmp_path / "opens.log"
    monkeypatch.setattr(cli, "_workers", lambda: workers)
    monkeypatch.setattr("refgraph.graph.open", _logged(log, open, lambda file, *args: file), raising=False)
    assert main([*command, "--graph", str(build_out), "--out", str(tmp_path / "out")]) == 0
    assert sorted(Path(file) for _, file in _log_lines(log)) == sorted(build_out.glob("*/graph.json"))


@pytest.mark.parametrize("workers", [1, 2])
def test_a_selector_export_opens_each_dump_to_scan_it_and_each_match_again_to_load_it(tmp_path, monkeypatch,
                                                                                      workers):
    log = tmp_path / "opens.log"
    monkeypatch.setattr(cli, "_workers", lambda: workers)
    monkeypatch.setattr("refgraph.graph.open", _logged(log, open, lambda file, *args: Path(file).parent.name),
                        raising=False)
    assert main(["export", "com.", "--graph", str(GOLDEN_BUILD), "--out", str(tmp_path / "dot")]) == 0
    assert sorted(project for _, project in _log_lines(log)) == [
        "elasticsearch", "mpandroidchart", "mpandroidchart", "okhttp", "okhttp", "spring-framework"]
    assert sorted(p.parent.name for p in (tmp_path / "dot").rglob("*.dot")) == ["mpandroidchart", "okhttp"]


# Per project, a chain of vertices holding what the selector's escaping must
# get right: '"' and "\\", non-ASCII and non-BMP characters.
_ESCAPED_VERTICES = {
    "quotes": ['pkg.Q#say(Map<String, "x">)', 'pkg.Q#said(Map<String, "x">)', "pkg.Q#back\\slash()"],
    "accents": ["pkg.Café#naïve(int)", "pkg.Café#déjà(int)", "pkg.Crème#brûlée()"],
    "emoji": ["pkg.E\U0001f600#m(int)", "pkg.E\U0001f600#n(int)", "pkg.E\U0001f600#o\U0001d518()"],
    "plain": ["pkg.Plain#m(int)", "pkg.Plain#n(int)", "pkg.Plain#o()"],
}
_SELECTORS = st.one_of(
    st.tuples(st.sampled_from([v for chain in _ESCAPED_VERTICES.values() for v in chain]),
              st.integers(0, 30), st.integers(1, 30)).map(lambda t: t[0][t[1]:t[1] + t[2]]).filter(bool),
    st.text(st.sampled_from('"\\é\U0001f600\ud83d\x00\x1f\t.#(<QmE'), min_size=1, max_size=4),
)


@pytest.fixture(scope="module")
def escaped_build(tmp_path_factory):
    records = tmp_path_factory.mktemp("escaped") / "records.jsonl"
    records.write_text(corpus.to_jsonl(
        corpus.rec(project, f"c0ffee{i}", f"2020-01-0{i + 1}T00:00:00Z", "Dev", "dev@example.org", "rename", a, b)
        for project, chain in _ESCAPED_VERTICES.items() for i, (a, b) in enumerate(zip(chain, chain[1:]))
    ), encoding="utf-8")
    out = records.parent / "build"
    assert main(["build", "--records", str(records), "--out", str(out)]) == 0
    return out


@settings(max_examples=60, deadline=None)
@given(selector=_SELECTORS, workers=st.sampled_from([1, 2]))
@example(selector='"x">', workers=2)
@example(selector="\\slash", workers=1)
@example(selector="\U0001f600#", workers=2)
@example(selector="\ud83d", workers=1)  # half of the escape the writer gives U+1F600
def test_a_selector_export_is_the_export_of_every_dump_loaded(escaped_build, selector, workers):
    runs = []
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_workers", lambda: workers):
        for scan in (scan_dump, lambda path, selector: None):  # the second: every dump a match
            out = Path(tmp) / "out"
            err = io.StringIO()
            with mock.patch.object(cli, "scan_dump", scan), contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(["export", selector, "--graph", str(escaped_build), "--out", str(out)])
            runs.append((code, err.getvalue(), _tree(out) if out.exists() else None))
            shutil.rmtree(out, ignore_errors=True)
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 or runs[0][1] == f"refgraph: error: selector matched no subgraph: {selector!r}\n"


@pytest.mark.parametrize("command", [["stats"], ["export", "--all"]], ids=["stats", "export"])
@pytest.mark.usefixtures("two_workers")
def test_one_project_is_held_at_a_time_in_each_worker(tmp_path, monkeypatch, command):
    held: list[tuple[str, weakref.ref]] = []  # in each worker, the graphs it loaded
    log = tmp_path / "loads.log"

    def tracked(path):
        project, graph = load_graph(path)
        gc.collect()
        alive = {name for name, ref in held if ref() is not None}  # an AssertionError here fails the run
        assert alive <= {project}, f"{sorted(alive - {project})} still held when {project!r} is loaded"
        held.append((project, weakref.ref(graph)))
        return project, graph

    monkeypatch.setattr(cli, "load_graph", _logged(log, tracked, lambda path: Path(path).parent.name))
    assert main([*command, "--graph", str(TESTS_DIR / "golden" / "build"), "--out", str(tmp_path / "out")]) == 0
    by_worker: dict[int, list[str]] = {}
    for pid, project in _log_lines(log):
        by_worker.setdefault(pid, []).append(project)
    # dealt round-robin in path order, each worker loading its dumps in that order
    assert os.getpid() not in by_worker
    assert sorted(by_worker.values()) == [["elasticsearch", "okhttp"], ["mpandroidchart", "spring-framework"]]


@settings(max_examples=30, deadline=None)
@given(sizes=st.lists(st.integers(1, 60), min_size=1, max_size=5), seed=st.integers(0, 2**32 - 1))
def test_dumps_in_any_order_give_the_build_directory_trees(sizes, seed):
    # The projects share one vertex pool, so each dump loads after the
    # parser memos were emptied of strings the others hold too.
    rng = random.Random(seed)
    records = []
    for i, n_edges in enumerate(sizes):
        records += corpus.random_records(rng, n_edges, pool_size=rng.randint(2, n_edges + 2),
                                         n_commits=rng.randint(1, 6), project=f"proj{i}")
    rng.shuffle(records)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "records.jsonl"
        path.write_text(corpus.to_jsonl(corpus.record_dict(r) for r in records), encoding="utf-8")
        build_out = tmp / "build"
        assert main(["build", "--records", str(path), "--out", str(build_out)]) == 0
        assert main(["stats", "--records", str(path), "--out", str(tmp / "from_records")]) == 0
        reversed_dumps = [str(dump) for dump in sorted(build_out.glob("*/graph.json"), reverse=True)]
        # in this process, and dealt to as many workers as there are dumps, or fewer
        for workers in (1, 2, 3):
            with mock.patch.object(cli, "_workers", lambda: workers):
                for name, graph in (("directory", [str(build_out)]), ("reversed", reversed_dumps)):
                    out = tmp / f"{name}-{workers}"
                    assert main(["stats", "--graph", *graph, "--out", str(out / "stats")]) == 0
                    assert main(["export", "--all", "--graph", *graph, "--out", str(out / "export")]) == 0
        assert _tree(tmp / "directory-1" / "stats") == _tree(tmp / "from_records")
        for run in ("reversed-1", "directory-2", "reversed-2", "directory-3", "reversed-3"):
            assert _tree(tmp / run) == _tree(tmp / "directory-1"), run


GOLDEN_BUILD = TESTS_DIR / "golden" / "build"


def _corrupt_copy(path, dump, edge, **fields):
    """``dump`` written to ``path`` with ``fields`` set on its edge ``edge``;
    returns the line that edge is on."""
    dump["edges"][edge].update(fields)
    path.parent.mkdir(exist_ok=True)
    path.write_text(corpus.dump_text(dump), encoding="utf-8")
    return 2 + range(len(dump["edges"]))[edge]


@pytest.mark.parametrize("workers", [1, 3])
def test_the_first_bad_dump_in_path_order_is_reported(tmp_path, monkeypatch, capsys, workers):
    # The third dump fails on its head line; the second, which its worker
    # may reach later, fails on its last line, and is the one reported. With
    # the selector, the third is read for its head line alone, before the
    # second loads, and its error waits for the second's. Put before the
    # second, the third is the one reported.
    monkeypatch.setattr(cli, "_workers", lambda: workers)
    late = tmp_path / "late.json"
    line = _corrupt_copy(late, corpus.read_dump(GOLDEN_BUILD / "mpandroidchart" / "graph.json"), -1, type="bogus")
    early = tmp_path / "early.json"
    early.write_text(json.dumps({"format_version": "3", "project": 7}) + "\n", encoding="utf-8")
    for command in (["stats"], ["export", "--all"], ["export", "charting"]):  # only late holds "charting"
        out = tmp_path / command[0]
        assert main([*command, "--graph", str(GOLDEN_BUILD / "okhttp"), str(late), str(early), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"refgraph: error: corrupt graph dump: line {line}:"
                                           f" unknown refactoring type: 'bogus' in {late}\n")
        assert not out.exists() and not _temporaries(out) and _no_child_is_left()
        assert main([*command, "--graph", str(GOLDEN_BUILD / "okhttp"), str(early), str(late), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"refgraph: error: corrupt graph dump: line 1: field 'project' is not a string in {early}\n"
        assert not out.exists() and not _temporaries(out) and _no_child_is_left()


@pytest.mark.parametrize("workers", [1, 2])
def test_a_repeated_project_is_reported_before_a_later_error_of_its_dump(tmp_path, monkeypatch, capsys, workers):
    # The second dump loads, names the project of the first, and then fails to split.
    monkeypatch.setattr(cli, "_workers", lambda: workers)
    good = GOLDEN_BUILD / "okhttp" / "graph.json"
    again = tmp_path / "again.json"
    shutil.copy(good, again)
    failing = []  # the graph that fails, as id(), in the process that loaded it

    def loading(path, *handle):
        project, graph = load_graph(path, *handle)
        if path == again:
            failing.append(id(graph))
        return project, graph

    def splitting(graph):
        if id(graph) in failing:
            raise OSError("injected error")
        return partition(graph)

    monkeypatch.setattr(cli, "load_graph", loading)
    monkeypatch.setattr(cli, "partition", splitting)
    for command in (["stats"], ["export", "--all"]):
        out = tmp_path / command[0]
        assert main([*command, "--graph", str(again), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "refgraph: error: injected error\n"
        assert main([*command, "--graph", str(good), str(again), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"refgraph: error: graph dumps {good} and {again} both name project 'okhttp'\n"
        assert not out.exists() and _temporaries(out) == [] and _no_child_is_left()
    # Read for their head line alone, as they do not hold the selector, they still repeat a project;
    # a dump before them that holds it loads first.
    chart = GOLDEN_BUILD / "mpandroidchart" / "graph.json"
    for dumps in ([good, again], [chart, good, again]):
        out = tmp_path / "selected"
        assert main(["export", "charting", "--graph", *map(str, dumps), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"refgraph: error: graph dumps {good} and {again} both name project 'okhttp'\n"
        assert not out.exists() and _temporaries(out) == [] and _no_child_is_left()


def _killed_in_a_worker(when, func):
    """``func``, except that a worker process calling it with arguments ``when`` is true of kills itself."""
    parent = os.getpid()

    def calling(*args):
        if when(*args) and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return func(*args)

    return calling


def _killed_mid_value(when, dump):
    """``pickle.dump``, except that a worker sending a value ``when`` is
    true of writes half of it and kills itself."""
    parent = os.getpid()

    def dumping(value, file, *args, **kwargs):
        if when(value) and os.getpid() != parent:
            data = pickle.dumps(value)
            file.write(data[: len(data) // 2])
            file.flush()
            os.kill(os.getpid(), signal.SIGKILL)
        return dump(value, file, *args, **kwargs)

    return dumping


def _loading_okhttp(path):
    return Path(path).parent.name == "okhttp"


def _open_fds():
    """The file descriptors this process holds open."""
    return sorted(os.listdir("/dev/fd"))


# Each command on inputs its workers split between them: the byte ranges of
# the demo records, or the four golden dumps (of which "com." is in two).
_WORKER_RUNS = {
    "build": ["build", "--records", str(DEMO_RECORDS)],
    "stats": ["stats", "--graph", str(GOLDEN_BUILD)],
    "export": ["export", "--all", "--graph", str(GOLDEN_BUILD)],
    "stats --records": ["stats", "--records", str(DEMO_RECORDS)],
    "export com.": ["export", "com.", "--graph", str(GOLDEN_BUILD)],
}
_KILLED = [("loading", "stats"), ("loading", "export"), ("sending", "stats"), ("sending", "export"),
           ("parsing", "build"), ("sending", "build"), ("spooling", "build"), ("spooling", "stats --records"),
           ("building", "build"), ("building", "stats --records")]


def _spooled(value, *_):
    """Whether ``pickle.dump`` is writing ``value`` to a batch file: a project's records, as one list."""
    return isinstance(value, list)


def _spools(root):
    """The spool directories anywhere under ``root``."""
    return list(root.rglob(cli._SPOOL))


@pytest.mark.parametrize("when, command", _KILLED, ids=[f"{when}-{command}" for when, command in _KILLED])
@pytest.mark.usefixtures("two_workers")
def test_a_worker_killed_by_a_signal_is_an_error_not_a_hang(tmp_path, monkeypatch, capsys, command, when):
    if when == "loading":
        monkeypatch.setattr(cli, "load_graph", _killed_in_a_worker(_loading_okhttp, load_graph))
    elif when == "parsing":  # the second of the two ranges of the records file
        monkeypatch.setattr(ingest, "open_range", _killed_in_a_worker(lambda path, start, end: start > 0,
                                                                      ingest.open_range))
    elif when == "building":
        monkeypatch.setattr(cli, "build", _killed_in_a_worker(lambda group: group[0].project == "okhttp", build))
    elif when == "spooling":  # the batch file then ends inside a pickle
        monkeypatch.setattr(pickle, "dump", _killed_mid_value(_spooled, pickle.dump))
    else:  # the pipe then ends inside a pickle: the dump's project, or a project and the path of its batch file
        if command == "build":
            def sent(value):
                return isinstance(value, tuple) and len(value) == 2 and f"/{cli._SPOOL}/" in str(value[1])
        else:
            def sent(value):
                return value == "okhttp"
        monkeypatch.setattr(pickle, "dump", _killed_mid_value(sent, pickle.dump))

    def hung(signum, frame):
        raise TimeoutError("the run did not end")

    fds = _open_fds()
    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, 60)
    try:
        code = main([*_WORKER_RUNS[command], "--out", str(tmp_path / "out")])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 1
    if when == "building":
        doing = "building project 'okhttp'"
    elif "--graph" in _WORKER_RUNS[command]:
        doing = f"loading {GOLDEN_BUILD / 'okhttp' / 'graph.json'}"
    else:
        doing = f"parsing {DEMO_RECORDS}"
    assert capsys.readouterr().err == f"refgraph: error: the worker process {doing} ended before it was done\n"
    assert not (tmp_path / "out").exists() and not _temporaries(tmp_path / "out") and _no_child_is_left()
    assert _open_fds() == fds and not _spools(tmp_path)


_OUTCOMES = [(outcome, command) for outcome in ("success", "corrupt-dump", "repeated-project", "write-error",
                                                "interrupt", "killed-worker")
             for command in ("stats", "export", "export com.")]
_OUTCOMES += [(outcome, command) for outcome in ("success", "strict-failure", "write-error", "interrupt",
                                                  "killed-worker", "spool-write-error")
              for command in ("build", "stats --records")]


@pytest.mark.parametrize("outcome, command", _OUTCOMES, ids=[f"{outcome}-{command}" for outcome, command in _OUTCOMES])
@pytest.mark.usefixtures("two_workers")
def test_no_worker_is_left_after_a_run(tmp_path, monkeypatch, capsys, command, outcome):
    argv = _WORKER_RUNS[command]
    if outcome == "corrupt-dump":
        argv = [*argv, str(tmp_path / "bad" / "graph.json")]
        _corrupt_copy(Path(argv[-1]), corpus.read_dump(GOLDEN_BUILD / "okhttp" / "graph.json"), 0, type="bogus")
    elif outcome == "repeated-project":
        argv = [*argv, str(tmp_path / "okhttp.json")]
        shutil.copy(GOLDEN_BUILD / "okhttp" / "graph.json", argv[-1])
    elif outcome == "strict-failure":  # in the second range
        records = tmp_path / "bad.jsonl"
        records.write_text(DEMO_RECORDS.read_text(encoding="utf-8") + CORRUPT_LINE, encoding="utf-8")
        argv = [argv[0], "--strict", "--records", str(records)]
    elif outcome == "write-error":  # in this process: export's while the workers run, stats' and build's after them
        if argv[0] == "stats":
            monkeypatch.setattr(cli, "emit_tables", _fail_on_call(1, emit_tables))
        else:
            monkeypatch.setattr(cli, "_project_dir", _fail_on_call(2, cli._project_dir))
    elif outcome == "interrupt":  # while this process waits on a worker
        monkeypatch.setattr(pickle, "load", _fail_on_call(2, pickle.load, KeyboardInterrupt()))
    elif outcome == "killed-worker" and "--records" in argv:
        monkeypatch.setattr(ingest, "open_range", _killed_in_a_worker(lambda path, start, end: start > 0,
                                                                      ingest.open_range))
    elif outcome == "killed-worker":
        monkeypatch.setattr(cli, "load_graph", _killed_in_a_worker(_loading_okhttp, load_graph))
    elif outcome == "spool-write-error":  # in a parse worker
        monkeypatch.setattr(pickle, "dump", _fail_when(_spooled, pickle.dump))
    out = tmp_path / "out"
    argv = [*argv, "--out", str(out)]
    fds = _open_fds()
    if outcome == "interrupt":
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert main(argv) == (0 if outcome == "success" else 1)
        assert capsys.readouterr().err.startswith("refgraph: error:") == (outcome != "success")
    assert out.exists() == (outcome == "success")
    assert _temporaries(out) == [] and _no_child_is_left()
    assert _open_fds() == fds and not _spools(tmp_path)


@pytest.mark.parametrize("made", [0, 1], ids=["no-worker", "one-worker"])
def test_a_failed_fork_leaves_its_dumps_to_this_process(tmp_path, monkeypatch, made):
    fork = os.fork
    for command, argv in _WORKER_RUNS.items():  # build's are the ranges of its records file
        monkeypatch.setattr(cli, "_workers", lambda: 1)
        expected = tmp_path / "expected" / command
        assert main([*argv, "--out", str(expected)]) == 0
        forks = []

        def failing():
            if len(forks) == made:
                raise OSError("injected fork error")
            forks.append(1)
            return fork()

        monkeypatch.setattr(cli, "_workers", lambda: 3)
        monkeypatch.setattr(os, "fork", failing)
        out = tmp_path / command
        assert main([*argv, "--out", str(out)]) == 0
        monkeypatch.setattr(os, "fork", fork)
        assert _tree(out) == _tree(expected) and _no_child_is_left()


def test_errors_keep_their_message_and_code_through_pickle():
    # A worker pickles the error that ends its dump; the parent raises it.
    for error in (cli.CliError("no match", code=2), cli.CliError("corrupt"), GraphDumpError("bad dump"),
                  OSError(2, "No such file or directory", "x.json")):
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error) and str(copy) == str(error)
        assert getattr(copy, "code", None) == getattr(error, "code", None)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_projects_are_built_in_this_process_and_workers_dealt_round_robin(tmp_path, monkeypatch, workers):
    # Whichever process builds a project, the tree and the run log are the golden ones.
    log = tmp_path / "builds.log"
    monkeypatch.setattr(cli, "_workers", lambda: workers)
    monkeypatch.setattr(cli, "build", _logged(log, build, lambda group: group[0].project))
    monkeypatch.chdir(TESTS_DIR.parent)  # the run log holds the records path as given
    assert main(["build", "--records", "demo/refactorings.jsonl", "--commit-log",
                 "mpandroidchart=demo/commit_log_mpandroidchart.tsv", "--out", str(tmp_path / "out")]) == 0
    assert _tree(tmp_path / "out") == _tree(GOLDEN_BUILD)
    by_process: dict[int, list[str]] = {}
    for pid, project in _log_lines(log):
        by_process.setdefault(pid, []).append(project)
    order = ["mpandroidchart", "elasticsearch", "spring-framework", "okhttp"]  # first-record order
    assert by_process.pop(os.getpid()) == order[::workers]  # this process takes the first share itself
    assert sorted(by_process.values()) == sorted(order[i::workers] for i in range(1, workers))


@pytest.mark.usefixtures("two_workers")
def test_one_project_is_built_in_this_process(tmp_path, monkeypatch):
    log = tmp_path / "builds.log"
    monkeypatch.setattr(cli, "build", _logged(log, build, lambda group: group[0].project))
    records = _records_file(tmp_path / "r.jsonl", ["solo"])
    assert main(["build", "--records", records, "--out", str(tmp_path / "out")]) == 0
    assert _log_lines(log) == [(os.getpid(), "solo")]


@pytest.mark.usefixtures("two_workers")
def test_this_process_makes_no_record_of_a_project_a_worker_builds(tmp_path, monkeypatch):
    # The parse workers send each project's records as bytes; its records are made where it is built.
    parent, made = os.getpid(), set()

    def making(*fields):
        if os.getpid() == parent:
            made.add(fields[-1])
        return RefactoringRecord(*fields)

    making._make = lambda fields: making(*fields)
    for module in (ingest, cli, history):  # parsing, unpickling, restricting to the commit log
        monkeypatch.setattr(module, "RefactoringRecord", making)
    monkeypatch.chdir(TESTS_DIR.parent)  # the run log holds the records path as given
    assert main(["build", "--records", "demo/refactorings.jsonl", "--commit-log",
                 "mpandroidchart=demo/commit_log_mpandroidchart.tsv", "--out", str(tmp_path / "out")]) == 0
    assert _tree(tmp_path / "out") == _tree(GOLDEN_BUILD)
    # This process builds the first and third projects; the worker, elasticsearch and okhttp.
    assert made == {"mpandroidchart", "spring-framework"}


@pytest.mark.usefixtures("two_workers")
def test_this_process_holds_no_batch_of_records(tmp_path, monkeypatch):
    # Two projects of records whose long signatures are each their own, so no
    # string is shared and each batch of the two ranges is large.
    long = "x" * 600
    records = tmp_path / "big.jsonl"
    records.write_text(corpus.to_jsonl(
        corpus.rec(f"p{i % 2}", f"{i % 50:07x}", "2020-01-01T00:00:00Z", "dev", "dev@example.org", "move",
                   f"org.big.C{i}#m{i}{long}()", f"org.big.D{i}#m{i}{long}()")
        for i in range(3000)), encoding="utf-8")
    import refgraph.workers  # noqa: F401  imported ahead, so its import is not measured
    front, seen = cli._run_front_pipeline, {}

    def measured(*args):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            items, log = front(*args)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        batches = [batch for _, paths, _ in items for batch in paths]
        seen.update(growth=current - before, peak=peak - before, batches=batches,
                    size=sum(os.path.getsize(batch) for batch in batches if isinstance(batch, str)))
        return items, log

    monkeypatch.setattr(cli, "_run_front_pipeline", measured)
    assert main(["build", "--records", str(records), "--out", str(tmp_path / "out")]) == 0
    assert len(seen["batches"]) == 4 and all(isinstance(batch, str) for batch in seen["batches"])
    assert seen["size"] >= 2 * 2**20  # what the parse workers wrote
    assert seen["growth"] <= seen["peak"] < 256 * 2**10, seen  # at no moment of the front
    assert not _spools(tmp_path)


def test_one_worker_per_usable_cpu(monkeypatch):
    assert cli._workers() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")  # as on macOS and Windows
    assert cli._workers() == 1


# What a records file may hold that a cut between byte ranges must read as one
# process reads it: lines that are blank, malformed or hold undecodable bytes,
# a byte-order mark before a record mid-file, each kind of line end.
_ODD_LINES = {
    "blank": b"",
    "spaces": b"  \t",
    "other-spaces": "\xa0\u2028\x0c\x85".encode("utf-8"),  # not JSON whitespace: a malformed line
    "malformed": CORRUPT_LINE.strip().encode("utf-8"),
    "not-json": b"{oops",
}


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_edges=st.integers(1, 40),
       odd=st.lists(st.sampled_from(["blank", "spaces", "other-spaces", "malformed", "not-json", "undecodable", "bom"]),
                    max_size=6),
       ends=st.lists(st.sampled_from([b"\n", b"\r\n", b"\r"]), min_size=1, max_size=5),
       bom_first=st.booleans(), final_end=st.booleans())
@example(seed=1, n_edges=12, odd=["bom", "undecodable", "malformed", "blank"], ends=[b"\r\n", b"\r", b"\n"],
         bom_first=True, final_end=False)
def test_records_cut_into_ranges_build_what_one_process_builds(seed, n_edges, odd, ends, bom_first, final_end):
    rng = random.Random(seed)
    records = []
    for project in ("alpha", "beta"):
        records += corpus.random_records(rng, n_edges, pool_size=rng.randint(2, n_edges + 2),
                                         n_commits=rng.randint(1, 4), project=project)
    # alpha has a commit log: a record off it, one whose commit prefixes two of its hashes, the rest on it
    alpha = [record for record in records if record.project == "alpha"]
    records += [alpha[0]._replace(commit="abcdef0"), alpha[-1]._replace(commit="fedcba9")]
    log = [f"{commit:0<40}\t2021-01-01T00:00:00Z\tDev\tdev@example.org\n" for commit in sorted({r.commit for r in alpha})]
    log += [f"abcdef0{fill * 33}\t2021-01-02T00:00:00Z\tDev\tdev@example.org\n" for fill in "ab"]
    rng.shuffle(records)
    lines = [json.dumps(corpus.record_dict(record)).encode("utf-8") for record in records]
    for kind in odd:
        if kind == "undecodable":
            line = rng.choice(lines[:n_edges]).replace(b'"author_name": "', b'"author_name": "\xff', 1)
        elif kind == "bom":  # a byte-order mark not at the start of the file is a character of its line
            line = codecs.BOM_UTF8 + rng.choice(lines[:n_edges])
        else:
            line = _ODD_LINES[kind]
        lines.insert(rng.randint(0, len(lines)), line)
    data = b"".join(line + ends[i % len(ends)] for i, line in enumerate(lines))
    if not final_end:
        data = data[: len(data) - len(ends[(len(lines) - 1) % len(ends)])]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "records.jsonl"
        path.write_bytes((codecs.BOM_UTF8 if bom_first else b"") + data)
        (tmp / "alpha.tsv").write_text("".join(log), encoding="utf-8")
        inputs = ["--records", str(path), "--commit-log", f"alpha={tmp / 'alpha.tsv'}"]
        errors = {}
        for workers in (1, 2, 3):
            with mock.patch.object(cli, "_workers", lambda: workers):
                assert main(["build", *inputs, "--out", str(tmp / f"out-{workers}")]) == 0
                assert main(["stats", *inputs, "--out", str(tmp / f"stats-{workers}")]) == 0
                with contextlib.redirect_stderr(io.StringIO()) as err:
                    code = main(["build", *inputs, "--strict", "--out", str(tmp / f"strict-{workers}")])
                errors[workers] = code, err.getvalue()
        assert _tree(tmp / "out-2") == _tree(tmp / "out-1") and _tree(tmp / "out-3") == _tree(tmp / "out-1")
        stages = _read_json(tmp / "out-1" / "run_log.json")["stages"]
        assert stages["off_branch_dropped"] >= 1 and stages["ambiguous_commit"] >= 1
        assert main(["stats", "--graph", str(tmp / "out-1"), "--out", str(tmp / "stats-graph")]) == 0
        for workers in (1, 2, 3):  # stats --records is build followed by stats --graph
            assert _tree(tmp / f"stats-{workers}") == _tree(tmp / "stats-graph")
        skipped = stages["parse_skipped"]
        assert errors[2] == errors[3] == errors[1] == ((1, errors[1][1]) if skipped else (0, ""))
        if skipped:  # the first bad line in the file, under its number in the file
            with open(path, encoding="utf-8-sig", errors="surrogateescape") as handle:
                first = next(n for n, line in enumerate(handle, 1) if line.strip(" \t\r\n") and _bad(line))
            assert errors[1][1].startswith(f"refgraph: error: records file {path}: line {first}: ")
        else:  # the same outputs, the run log's config aside
            strict, lax = _tree(tmp / "strict-1"), _tree(tmp / "out-1")
            assert strict.pop("run_log.json").replace(b'"strict": true', b'"strict": false') == lax.pop("run_log.json")
            assert strict == lax


def _bad(line):
    try:
        parse_record_line(line)
    except ValueError:
        return True
    return False


@pytest.mark.usefixtures("two_workers")
def test_a_records_file_named_twice_is_read_twice(tmp_path, monkeypatch):
    # Two inputs entries and twice the parsed count, as in one process, though
    # each name is cut into ranges of its own.
    records = str(DEMO_RECORDS)
    assert main(["build", "--records", records, "--out", str(tmp_path / "once")]) == 0
    assert main(["build", "--records", records, records, "--out", str(tmp_path / "twice")]) == 0
    once, twice = (_read_json(tmp_path / run / "run_log.json") for run in ("once", "twice"))
    assert twice["inputs"] == once["inputs"] * 2
    assert twice["stages"]["parsed"] == 2 * once["stages"]["parsed"]
    monkeypatch.setattr(cli, "_workers", lambda: 1)
    assert main(["build", "--records", records, records, "--out", str(tmp_path / "one-process")]) == 0
    assert _tree(tmp_path / "twice") == _tree(tmp_path / "one-process")


@pytest.mark.parametrize("workers", [1, 2])
def test_a_strict_error_names_its_records_file(tmp_path, monkeypatch, capsys, workers):
    # Line 3 of the second file is bad; with two workers it is in that file's second range.
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    good.write_text(corpus.to_jsonl(corpus.DEMO_CORPUS), encoding="utf-8")
    head = corpus.to_jsonl(corpus.DEMO_CORPUS[:2])
    bad.write_text(head + CORRUPT_LINE, encoding="utf-8")
    assert 0 < ingest.record_ranges(bad, 2)[1][0] <= len(head.encode("utf-8"))
    monkeypatch.setattr(cli, "_workers", lambda: workers)
    message = ingest.parse_records([CORRUPT_LINE]).issues[0].message
    for command in ("build", "stats"):
        out = tmp_path / command
        assert main([command, "--strict", "--records", str(good), str(bad), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"refgraph: error: records file {bad}: line 3: {message}\n"
        assert not out.exists()


def test_a_line_of_other_whitespace_is_a_skipped_line(tmp_path, capsys):
    # A no-break space is whitespace to str.strip, not to JSON; only the line of JSON whitespace is blank.
    path = tmp_path / "r.jsonl"
    path.write_text(corpus.to_jsonl(corpus.DEMO_CORPUS[:2]) + "\xa0\n \t\n", encoding="utf-8")
    assert main(["build", "--records", str(path), "--out", str(tmp_path / "out")]) == 0
    assert _read_json(tmp_path / "out" / "run_log.json")["inputs"] == [{"path": str(path), "records": 2, "skipped": 1}]
    capsys.readouterr()
    assert main(["build", "--strict", "--records", str(path), "--out", str(tmp_path / "strict")]) == 1
    assert capsys.readouterr().err == f"refgraph: error: records file {path}: line 3: invalid JSON: Expecting value\n"


def test_a_string_two_ranges_hold_is_one_object(tmp_path, monkeypatch):
    # The demo records twice over: each value of the second range is in the first too.
    text = DEMO_RECORDS.read_text(encoding="utf-8")
    path = tmp_path / "twice.jsonl"
    path.write_text(text + text, encoding="utf-8")
    assert len(ingest.record_ranges(path, 2)) == 2
    monkeypatch.setattr(cli, "_workers", lambda: 2)
    groups = []  # what the projects built in this process are built from
    monkeypatch.setattr(cli, "build", lambda group: groups.append(group) or build(group))
    assert main(["build", "--records", str(path), "--out", str(tmp_path / "out")]) == 0
    assert [group[0].project for group in groups] == ["mpandroidchart", "spring-framework"]
    for group in groups:
        objects: dict[str, set[int]] = {}  # each vertex, commit, email, timestamp, project and type -> its objects
        for record in group:
            for value in record:
                objects.setdefault(value, set()).add(id(value))
        assert len(objects) > 5 and all(len(ids) == 1 for ids in objects.values())


@pytest.mark.usefixtures("one_process")  # the caches of this process are the ones parsing
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


@pytest.mark.parametrize("command", ["build", "stats", "export"])
def test_each_command_prints_its_help(capsys, command):
    # The commit log format's "%H" and "%x09" are printed as they are, not read as format specifiers.
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    assert ("--format='%H%x09%aI%x09%an%x09%ae'" in capsys.readouterr().out.replace("\n", "").replace(" ", "")) \
        == (command != "export")


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
        assert capsys.readouterr().err.startswith(f"refgraph: error: records file {records}: line 3: invalid UTF-8")

    def test_undecodable_commit_log(self, corpus_file, demo_commit_log_path, tmp_path, capsys):
        log = tmp_path / "log.tsv"
        log.write_bytes(demo_commit_log_path.read_bytes().replace(b"\t", b"\t\xc3(", 1))
        code = main(["build", "--records", str(corpus_file), "--commit-log", f"mpandroidchart={log}",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"refgraph: error: invalid UTF-8 in commit log {log}")
        assert not (tmp_path / "out").exists()

    # Each case replaces okhttp's third line, its second edge; a line with no
    # newline ends the file, as an interrupted write leaves it. The lines are
    # read as text in blocks, so undecodable bytes are not placed on a line.
    # A JSON defect is named as on line 3 of a records file, where only a blank line is no defect.
    @pytest.mark.parametrize("third, problem", [
        (b'{"source": "a.B#m()", "tar', "corrupt graph dump: line 3: invalid JSON: Unterminated string starting at"),
        (b"\n", "corrupt graph dump: line 3: invalid JSON: Expecting value in {path}"),
        (b"{} {}\n", "corrupt graph dump: line 3: invalid JSON: Extra data in {path}"),
        (b'["a.B#m()", "a.B#n()"]\n', "corrupt graph dump: line 3: edge is not an object in {path}"),
        (DEEP_JSON.encode("ascii") + b"\n", "corrupt graph dump: line 3: invalid JSON: nested too deeply in {path}"),
        (b'{"n": ' + b"9" * 5000 + b"}\n", "corrupt graph dump: line 3: invalid JSON: Exceeds the limit (4300 digits)"),
        (b'{"source": "\xff"}\n', "invalid UTF-8 in graph dump {path}: invalid start byte"),
    ], ids=["truncated", "blank-line", "extra-data", "not-an-object", "deep", "long-int", "utf8"])
    def test_unreadable_dump(self, build_out, tmp_path, capsys, third, problem):
        def with_third(lines):
            return b"".join([*lines[:2], third, *(lines[3:] if third.endswith(b"\n") else [])])

        dump = build_out / "okhttp" / "graph.json"
        dump.write_bytes(with_third(dump.read_bytes().splitlines(keepends=True)))
        capsys.readouterr()
        assert main(["export", "--graph", str(build_out), "--all", "--out", str(tmp_path / "dot")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("refgraph: error: " + problem.format(path=dump))
        if "invalid JSON" in problem:
            records = tmp_path / "records.jsonl"
            records.write_bytes(with_third(corpus.to_jsonl(corpus.DEMO_CORPUS).encode("utf-8").splitlines(keepends=True)))
            with ingest.open_range(records, 0, None) as lines:
                issues = ingest.parse_records(lines).issues
            if third == b"\n":
                assert issues == ()
            else:
                assert [issue.line_no for issue in issues] == [3]
                assert err == f"refgraph: error: corrupt graph dump: line 3: {issues[0].message} in {dump}\n"
                assert main(["build", "--strict", "--records", str(records), "--out", str(tmp_path / "strict")]) == 1
                assert capsys.readouterr().err == (f"refgraph: error: records file {records}:"
                                                   f" line 3: {issues[0].message}\n")

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
        assert capsys.readouterr().err == (f"refgraph: error: records file {records}: line 3:"
                                           f" field {field!r} is not valid UTF-8\n")

    @pytest.mark.parametrize("where, problem", [
        ("edge", "line 3: field 'target' is not valid UTF-8"),
        ("project", "line 1: field 'project' is not valid UTF-8"),
    ], ids=["edge", "project"])
    def test_lone_surrogate_in_a_dump(self, tmp_path, capsys, where, problem):
        dump = corpus.read_dump(TESTS_DIR / "golden" / "build" / "mpandroidchart" / "graph.json")
        if where == "edge":
            dump["edges"][1]["target"] += "\udc80"
        else:
            dump["project"] += "\udc80"
        path = tmp_path / "graph.json"
        path.write_text(corpus.dump_text(dump), encoding="ascii")
        for command in (["stats"], ["export", "--all"]):
            out = tmp_path / command[0]
            assert main([*command, "--graph", str(path), "--out", str(out)]) == 1
            assert capsys.readouterr().err == f"refgraph: error: corrupt graph dump: {problem} in {path}\n"
            assert not out.exists()

    @pytest.mark.parametrize("control", ["\x00", "\x07", "\x1b", "\x7f", "\x9b"])
    def test_control_character_in_a_dump_signature(self, tmp_path, capsys, control):
        # JSON writes the character as an escape, "\u0000"; it must not reach a DOT file.
        dump = corpus.read_dump(TESTS_DIR / "golden" / "build" / "mpandroidchart" / "graph.json")
        target = dump["edges"][1]["target"]
        dump["edges"][1]["target"] = target.replace("#", f"#x{control}", 1)
        path = tmp_path / "graph.json"
        path.write_text(corpus.dump_text(dump), encoding="utf-8")
        signature = dump["edges"][1]["target"]
        for command in (["stats"], ["export", "--all"]):
            out = tmp_path / command[0]
            assert main([*command, "--graph", str(path), "--out", str(out)]) == 1
            assert capsys.readouterr().err == (f"refgraph: error: corrupt graph dump: line 3: control character"
                                               f" {control!r} in signature: {signature!r} in {path}\n")
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
        ("export", b'{"format_version": "3", "project": "p", "n": ' + b"9" * 5000 + b"}\n",
         "corrupt graph dump: line 1: invalid JSON: Exceeds the limit"),
        ("export", b'{"format_version": "3", "project": "p"}\n{"source": ',
         "corrupt graph dump: line 2: invalid JSON: Expecting value in {path}"),
        ("export", b'{"format_version": "3", "project": ',
         "corrupt graph dump: line 1: invalid JSON: Expecting value in {path}"),
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
