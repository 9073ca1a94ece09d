from __future__ import annotations

import random
from dataclasses import replace
from datetime import datetime, timezone

import pytest

import corpus
from refgraph.history import CommitLogError, parse_commit_log, restrict_to_log
from refgraph.ingest import parse_signature, parse_timestamp

LOG_LINES = [
    "d930ac234b5c6d7e8f9a0b1c2d3e4f5a6b7c8d9e\t2014-08-13T10:00:00Z\tPaula Hoffmann\tpaula@chartworks.dev",
    "063c4bb07d2f5db19c3a4e8b6a0f1c2d3e4f5a6b\t2014-08-11T10:00:00Z\tPaula Hoffmann\tpaula@chartworks.dev",
    "13104b26a9f4ec41dbb4dce0ffa86c2626431337\t2014-07-29T10:00:00Z\tPaula Hoffmann\tpaula@chartworks.dev",
]


def _synthetic_log_lines(n: int) -> list[str]:
    return [
        f"{i:040x}\t2020-01-{1 + i % 28:02d}T00:00:00Z\tDev {i % 5}\tdev{i % 5}@example.org"
        for i in range(n)
    ]


class TestParseCommitLog:
    def test_three_lines(self):
        log = parse_commit_log(LOG_LINES)
        assert len(log) == len(LOG_LINES)
        for line in LOG_LINES:
            full, timestamp, _, email = line.split("\t")
            assert log[full] == (full, parse_timestamp(timestamp), email)

    def test_duplicate_hash_is_fatal(self):
        with pytest.raises(CommitLogError, match="^line 3: duplicate commit hash: " + LOG_LINES[0][:40]):
            parse_commit_log([LOG_LINES[0], LOG_LINES[1], LOG_LINES[0]])
        # hashes are compared after normalization
        with pytest.raises(CommitLogError, match="^line 2: duplicate"):
            parse_commit_log([LOG_LINES[0], LOG_LINES[0].upper()])

    def test_malformed_line_is_fatal_with_line_number(self):
        with pytest.raises(CommitLogError, match="line 2"):
            parse_commit_log([LOG_LINES[0], "deadbeef\t2020-01-01T00:00:00Z\tonly-three-fields"])

    def test_bad_hash_and_bad_timestamp(self):
        with pytest.raises(CommitLogError, match="line 1"):
            parse_commit_log(["nothex\t2020-01-01T00:00:00Z\ta\tb@c"])
        with pytest.raises(CommitLogError, match="line 1"):
            parse_commit_log(["a" * 40 + "\tnot-a-date\ta\tb@c"])

    def test_empty_email_is_fatal(self):
        with pytest.raises(CommitLogError, match="email"):
            parse_commit_log(["a" * 40 + "\t2020-01-01T00:00:00Z\ta\t  "])

    def test_blank_lines_ignored(self):
        log = parse_commit_log(["", LOG_LINES[0], "   "])
        assert list(log) == [LOG_LINES[0][:40]]

    def test_exported_log_size_matches_line_count(self):
        lines = _synthetic_log_lines(137)
        log = parse_commit_log(lines)
        assert list(log) == [line[:40] for line in lines]


def _restrict_one(log, commit: str):
    """``restrict_to_log`` of one record made in ``commit``."""
    record = corpus.make_record(parse_signature("a.B#m()"), parse_signature("a.B#n()"), commit=commit)
    return restrict_to_log([record], log)


class TestResolve:
    """A record's commit resolves to the log entry it equals or is the only
    prefix of."""

    def test_exact_and_prefix(self):
        log = parse_commit_log(LOG_LINES)
        full = "13104b26a9f4ec41dbb4dce0ffa86c2626431337"
        for commit in (full, "13104b26"):
            outcome = _restrict_one(log, commit)
            assert [r.commit for r in outcome.kept] == [full]
            assert (outcome.dropped, outcome.issues) == (0, ())

    def test_unknown(self):
        log = parse_commit_log(LOG_LINES)
        # before, between and after the log's sorted hashes
        for commit in ("0000000", "abcdef0", "ffffffff"):
            outcome = _restrict_one(log, commit)
            assert (outcome.kept, outcome.dropped, outcome.issues) == ((), 1, ())

    def test_ambiguous_prefix(self):
        log = parse_commit_log(
            [
                "aaaa000011112222333344445555666677778888\t2020-01-01T00:00:00Z\ta\ta@x",
                "aaaa0000ffff2222333344445555666677778888\t2020-01-02T00:00:00Z\tb\tb@x",
            ]
        )
        outcome = _restrict_one(log, "aaaa0000")
        assert (outcome.kept, outcome.dropped) == ((), 0)
        assert outcome.issues == ("commit prefix 'aaaa0000' is ambiguous",)
        assert [r.commit for r in _restrict_one(log, "aaaa0000f").kept] == ["aaaa0000ffff2222333344445555666677778888"]


def _chart_records():
    return corpus.records_of(corpus.CHART_AXIS_RECORDS)


class TestRestrictToLog:
    def test_membership_keeps_and_enriches(self):
        log = parse_commit_log(
            ["13104b26a9f4ec41dbb4dce0ffa86c2626431337\t2014-07-30T23:59:59Z\tP. Hoffmann\tpaula.h@other.dev"]
        )
        record = _chart_records()[0]
        outcome = restrict_to_log([record], log)
        assert outcome.dropped == 0
        kept = outcome.kept[0]
        # The log wins on every metadata field, and the hash is expanded.
        assert kept.commit == "13104b26a9f4ec41dbb4dce0ffa86c2626431337"
        assert kept.timestamp == datetime(2014, 7, 30, 23, 59, 59, tzinfo=timezone.utc)
        assert kept.author_email == "paula.h@other.dev"

    def test_absent_commit_dropped(self):
        log = parse_commit_log(_synthetic_log_lines(3))
        outcome = restrict_to_log(_chart_records(), log)
        assert not outcome.kept
        assert outcome.dropped == len(_chart_records())

    def test_mixed_batch_counts(self):
        # 20 records; 4 rewritten onto commits missing from the log.
        rng = random.Random(3)
        records = corpus.random_records(rng, 20, pool_size=30, n_commits=6)
        for index in (3, 7, 11, 15):
            records[index] = replace(records[index], commit="ffff" + records[index].commit)
        lines = [
            f"{c:0<40}\t2020-01-01T00:00:00Z\tDev\tdev@example.org"
            for c in sorted({r.commit for r in records})
            if not c.startswith("ffff")
        ]
        outcome = restrict_to_log(records, parse_commit_log(lines))
        assert len(outcome.kept) == 16
        assert outcome.dropped == 4

    def test_every_kept_record_matches_its_log_entry(self):
        rng = random.Random(5)
        records = corpus.random_records(rng, 50, pool_size=20, n_commits=5)
        lines = [
            f"{c:0<40}\t2021-05-0{i + 1}T12:00:00Z\tAuthor {i}\tauthor{i}@log.example"
            for i, c in enumerate(sorted({r.commit for r in records}))
        ]
        log = parse_commit_log(lines)
        outcome = restrict_to_log(records, log)
        assert len(outcome.kept) == len(records)
        for record in outcome.kept:
            assert (record.commit, record.timestamp, record.author_email) == log[record.commit]

    def test_idempotent(self):
        records = _chart_records()
        log = parse_commit_log(LOG_LINES)
        once = restrict_to_log(records, log)
        twice = restrict_to_log(once.kept, log)
        assert twice.kept == once.kept
        assert twice.dropped == 0

    def test_ambiguous_prefix_is_a_record_level_issue(self):
        log = parse_commit_log(
            [
                "c1a2b3c011112222333344445555666677778888\t2020-01-01T00:00:00Z\ta\ta@x",
                "c1a2b3c0ffff2222333344445555666677778888\t2020-01-02T00:00:00Z\tb\tb@x",
            ]
        )
        outcome = _restrict_one(log, "c1a2b3c")
        assert not outcome.kept
        assert outcome.dropped == 0
        assert len(outcome.issues) == 1
        assert "ambiguous" in outcome.issues[0]
