"""Main-branch commit logs: parsing, lookup, and record enrichment.

A commit log file is tab-separated, one commit per line, newest first:

    <full-hash>TAB<ISO-8601 timestamp>TAB<author name>TAB<author email>

Such a file is what ``git log --first-parent --format='%H%x09%aI%x09%an%x09%ae'``
emits for the linear main-branch history.  The author name is required but
not kept: developers are told apart by email.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from datetime import datetime
from typing import Iterable

from .ingest import RefactoringRecord, parse_metadata


class CommitLogError(ValueError):
    """A commit log file is malformed; logs are machine-generated, so this is fatal."""


class UnknownCommitError(LookupError):
    """No log entry matches the given hash or prefix."""


class AmbiguousCommitError(LookupError):
    """A hash prefix matches more than one log entry."""


@dataclass(frozen=True)
class CommitMeta:
    hash: str
    timestamp: datetime
    author_email: str


class CommitLog:
    """Immutable set of commits, looked up by full hash or unambiguous prefix."""

    def __init__(self, entries: Iterable[CommitMeta]):
        self._by_hash: dict[str, CommitMeta] = {}
        for entry in entries:
            if entry.hash in self._by_hash:
                raise CommitLogError(f"duplicate commit hash: {entry.hash}")
            self._by_hash[entry.hash] = entry
        self._sorted_hashes = sorted(self._by_hash)

    def __contains__(self, commit: str) -> bool:
        try:
            self.resolve(commit)
        except LookupError:
            return False
        return True

    def resolve(self, commit: str) -> CommitMeta:
        """Resolve a full hash or unambiguous prefix to its log entry."""
        exact = self._by_hash.get(commit)
        if exact is not None:
            return exact
        # Hashes sharing a prefix are contiguous in the sorted list.
        start = bisect.bisect_left(self._sorted_hashes, commit)
        matches = []
        for full in self._sorted_hashes[start : start + 2]:
            if full.startswith(commit):
                matches.append(full)
        if not matches:
            raise UnknownCommitError(commit)
        if len(matches) > 1:
            raise AmbiguousCommitError(f"commit prefix {commit!r} is ambiguous")
        return self._by_hash[matches[0]]


def parse_commit_log(lines: Iterable[str]) -> CommitLog:
    """Parse tab-separated commit log lines; any malformed line is fatal."""
    entries: list[CommitMeta] = []
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 4:
            raise CommitLogError(f"line {line_no}: expected 4 tab-separated fields, got {len(parts)}")
        raw_hash, raw_ts, _name, email = parts
        try:
            meta = parse_metadata(raw_hash, raw_ts, email)
        except ValueError as exc:
            raise CommitLogError(f"line {line_no}: {exc}") from None
        entries.append(CommitMeta(*meta))
    return CommitLog(entries)


def load_commit_log(path) -> CommitLog:
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


def restrict_to_log(records: Iterable[RefactoringRecord], log: CommitLog) -> RestrictResult:
    """Keep only records whose commit resolves to a log entry."""
    kept: list[RefactoringRecord] = []
    dropped = 0
    issues: list[str] = []
    for record in records:
        try:
            meta = log.resolve(record.commit)
        except UnknownCommitError:
            dropped += 1
            continue
        except AmbiguousCommitError as exc:
            issues.append(str(exc))
            continue
        kept.append(
            RefactoringRecord(
                record.source, record.target, record.rtype,
                meta.hash, meta.timestamp, meta.author_email, record.project,
            )
        )
    return RestrictResult(tuple(kept), dropped, tuple(issues))
