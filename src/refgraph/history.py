"""Main-branch commit logs: parsing, lookup, and record enrichment.

A commit log file is tab-separated, one commit per line, newest first:

    <full-hash>TAB<ISO-8601 timestamp>TAB<author name>TAB<author email>

Such a file is what ``git log --first-parent --format='%H%x09%aI%x09%an%x09%ae'``
emits for the linear main-branch history.  The author name is required but
not kept: developers are told apart by email.  A parsed log is a dict from
full hash to ``(hash, timestamp, author_email)``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from datetime import datetime
from typing import Iterable

from .ingest import RefactoringRecord, parse_metadata


class CommitLogError(ValueError):
    """A commit log file is malformed; logs are machine-generated, so this is fatal."""


def parse_commit_log(lines: Iterable[str]) -> dict[str, tuple[str, datetime, str]]:
    """Parse tab-separated commit log lines; any malformed line is fatal."""
    log: dict[str, tuple[str, datetime, str]] = {}
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 4:
            raise CommitLogError(f"line {line_no}: expected 4 tab-separated fields, got {len(parts)}")
        raw_hash, raw_ts, _name, email = parts
        try:
            entry = parse_metadata(raw_hash, raw_ts, email)
        except ValueError as exc:
            raise CommitLogError(f"line {line_no}: {exc}") from None
        if entry[0] in log:
            raise CommitLogError(f"line {line_no}: duplicate commit hash: {entry[0]}")
        log[entry[0]] = entry
    return log


def load_commit_log(path) -> dict[str, tuple[str, datetime, str]]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_commit_log(handle)
    except UnicodeDecodeError as exc:
        raise CommitLogError(f"invalid UTF-8 in commit log {path}: {exc.reason}") from None
    except CommitLogError as exc:
        raise CommitLogError(f"commit log {path}: {exc}") from None


@dataclass(frozen=True)
class RestrictResult:
    """Outcome of restricting records to a commit log.

    ``kept`` records are enriched: commit expanded to the log's full hash,
    timestamp and author email overwritten from the log (the log is
    authoritative).  ``dropped`` counts records whose commit is not in the
    log; ``issues`` holds records whose commit prefix was ambiguous.
    """

    kept: tuple[RefactoringRecord, ...]
    dropped: int
    issues: tuple[str, ...]


def restrict_to_log(
    records: Iterable[RefactoringRecord], log: dict[str, tuple[str, datetime, str]]
) -> RestrictResult:
    """Keep only records whose commit is a full hash in ``log`` or the
    prefix of exactly one."""
    hashes = sorted(log)
    kept: list[RefactoringRecord] = []
    dropped = 0
    issues: list[str] = []
    for record in records:
        entry = log.get(record.commit)
        if entry is None:
            # Hashes sharing a prefix are contiguous in sorted order.
            start = bisect.bisect_left(hashes, record.commit)
            matches = [full for full in hashes[start : start + 2] if full.startswith(record.commit)]
            if not matches:
                dropped += 1
                continue
            if len(matches) > 1:
                issues.append(f"commit prefix {record.commit!r} is ambiguous")
                continue
            entry = log[matches[0]]
        kept.append(RefactoringRecord(record.source, record.target, record.rtype, *entry, record.project))
    return RestrictResult(tuple(kept), dropped, tuple(issues))
