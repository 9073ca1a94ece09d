"""Parse, validate, normalize, and filter method-level refactoring records.

Records arrive as UTF-8 JSON lines, one object per line, with exactly the
keys ``project``, ``commit``, ``timestamp``, ``author_name``,
``author_email``, ``type``, ``source`` and ``target``.  ``source`` and
``target`` are canonical method signature strings such as
``util.Foo#m(int, List<String>)``.  ``author_name`` is validated as a
string but not kept: developers are told apart by email.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from enum import Enum
from typing import Iterable

EDGE_KEYS = ("source", "target", "type", "commit", "timestamp", "author_email")
RECORD_KEYS = frozenset({"project", "author_name", *EDGE_KEYS})

DEFAULT_EXCLUDED_KEYWORDS = ("test", "tests", "example", "examples", "sample", "samples")

#: Exclusion reasons reported by :func:`apply_filters`.
REASON_PACKAGE_KEYWORD = "package-keyword"
REASON_CONSTRUCTOR = "constructor"
REASON_SELF_LOOP = "self-loop"
FILTER_REASONS = (REASON_PACKAGE_KEYWORD, REASON_CONSTRUCTOR, REASON_SELF_LOOP)

_COMMIT_RE = re.compile(r"^[0-9a-f]{7,40}$")
_PARAM_SEPARATOR_RE = re.compile(r"\s*([,<>\[\]])\s*|([()])")
_TIMESTAMP_RE = re.compile(
    r"(\d{4})-(\d\d)-(\d\d)[Tt ](\d\d):(\d\d):(\d\d)(?:\.\d+)?"
    r"(?:[Zz]|([+-])([01]\d|2[0-3]):([0-5]\d))?",
    re.ASCII,
)


class SignatureError(ValueError):
    """A method signature string could not be parsed."""


class RecordError(ValueError):
    """A record line is malformed (raised only in strict mode)."""


class RefactoringType(Enum):
    """The eight method-level refactoring operations."""

    RENAME = "rename"
    MOVE = "move"
    MOVE_AND_RENAME = "move_and_rename"
    EXTRACT = "extract"
    EXTRACT_AND_MOVE = "extract_and_move"
    INLINE = "inline"
    PULL_UP = "pull_up"
    PUSH_DOWN = "push_down"

    @classmethod
    def from_string(cls, value: str) -> "RefactoringType":
        try:
            return cls(value)
        except ValueError:
            raise ValueError(f"unknown refactoring type: {value!r}") from None

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, eq=False)
class MethodRef:
    """A fully qualified method signature; vertex identity in the graph.

    Identity is the canonical string ``package.ClassPath#method(params)``.
    Two refs with the same canonical form compare equal even if the raw
    strings they were parsed from differ in whitespace.
    """

    package: str
    class_path: str
    method: str
    params: tuple[str, ...]
    canonical: str = field(init=False)

    def __post_init__(self) -> None:
        prefix = f"{self.package}.{self.class_path}" if self.package else self.class_path
        canonical = f"{prefix}#{self.method}({', '.join(self.params)})"
        object.__setattr__(self, "canonical", canonical)

    @property
    def class_simple_name(self) -> str:
        """Innermost class name (nesting may use ``.`` or ``$``)."""
        return re.split(r"[.$]", self.class_path)[-1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MethodRef):
            return NotImplemented
        return self.canonical == other.canonical

    def __hash__(self) -> int:
        return hash(self.canonical)

    def __str__(self) -> str:
        return self.canonical


@dataclass(frozen=True)
class RefactoringRecord:
    """One detected refactoring operation plus its commit metadata."""

    source: MethodRef
    target: MethodRef
    rtype: RefactoringType
    commit: str
    timestamp: datetime
    author_email: str
    project: str


@dataclass(frozen=True)
class FilterConfig:
    """Knobs for :func:`apply_filters`.

    Keyword matching is case-insensitive and applies to whole dot-separated
    package segments, so a keyword ``test`` drops ``com.app.test.util`` but
    not ``com.app.protest``.  Self-loops are always dropped, since
    :class:`~refgraph.graph.RefactoringGraph` assumes they are gone.
    """

    excluded_package_keywords: tuple[str, ...] = DEFAULT_EXCLUDED_KEYWORDS
    drop_constructors: bool = True


@dataclass(frozen=True)
class ParseIssue:
    """A skipped input line: 1-based line number plus the reason."""

    line_no: int
    message: str


@dataclass(frozen=True)
class ParseResult:
    records: tuple[RefactoringRecord, ...]
    issues: tuple[ParseIssue, ...]


def parse_timestamp(value: str) -> datetime:
    """Parse an RFC 3339 date-time into a UTC datetime at seconds precision.

    Date and time are separated by ``T``, ``t`` or a space; a fractional
    second of any length is dropped; the offset is ``Z``, ``z`` or
    ``+HH:MM``/``-HH:MM``, and a missing offset means UTC.  The grammar is
    the same on every Python version, unlike ``datetime.fromisoformat``.
    """
    match = _TIMESTAMP_RE.fullmatch(value.strip())
    if match is None:
        raise ValueError(f"invalid ISO-8601 timestamp: {value!r}")
    *parts, sign, hours, minutes = match.groups()
    try:
        parsed = datetime(*map(int, parts), tzinfo=timezone.utc)
        if sign:
            offset = timedelta(hours=int(hours), minutes=int(minutes))
            parsed -= offset if sign == "+" else -offset
    except (OverflowError, ValueError):  # no such date, or out of datetime's range in UTC
        raise ValueError(f"invalid ISO-8601 timestamp: {value!r}") from None
    return parsed


def format_timestamp(value: datetime) -> str:
    return value.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def normalize_commit(value: str) -> str:
    """Lowercase a commit hash and check it is 7-40 hex characters."""
    commit = value.strip().lower()
    if not _COMMIT_RE.match(commit):
        raise ValueError(f"invalid commit hash: {value!r}")
    return commit


def _require_strings(fields: dict, keys: Iterable[str]) -> None:
    for key in keys:
        if not isinstance(fields.get(key), str):
            raise ValueError(f"field {key!r} is not a string")


def parse_metadata(commit: str, timestamp: str, email: str) -> dict:
    """Normalize an edge's commit metadata into ``commit``, ``timestamp``
    and ``author_email`` keyword arguments of :class:`~refgraph.graph.Edge`."""
    author_email = email.strip()
    if not author_email:
        raise ValueError("empty author_email")
    return {"commit": normalize_commit(commit), "timestamp": parse_timestamp(timestamp), "author_email": author_email}


def parse_edge_fields(fields: dict) -> dict:
    """Check the :data:`EDGE_KEYS` of a record or dump entry and normalize
    them into keyword arguments of :class:`~refgraph.graph.Edge`.

    Raises ValueError naming the first bad field; other keys are ignored.
    """
    _require_strings(fields, EDGE_KEYS)
    return {
        "source": parse_signature(fields["source"]),
        "target": parse_signature(fields["target"]),
        "rtype": RefactoringType.from_string(fields["type"]),
        **parse_metadata(fields["commit"], fields["timestamp"], fields["author_email"]),
    }


def parse_signature(raw: str) -> MethodRef:
    """Parse a signature string like ``util.Foo#m(int, List<String>)``.

    The class path starts at the first dot-separated segment with an
    uppercase initial; everything before it is the package.  Parameters are
    split on top-level commas only, so commas inside generic type arguments
    are preserved.  Spacing inside a parameter is canonical, so
    ``Map<K,V>``, ``Map<K, V>`` and ``Map< K ,V >`` are one type: whitespace
    runs become one space, whitespace next to ``<``, ``>``, ``[`` and ``]``
    is dropped, and nested commas are written ``, ``.
    """
    if not isinstance(raw, str):
        raise SignatureError(f"signature is not a string: {raw!r}")
    text = raw.strip()
    if text.count("#") != 1:
        raise SignatureError(f"expected exactly one '#' in signature: {raw!r}")
    prefix, _, member = text.partition("#")
    prefix = prefix.strip()
    if not prefix:
        raise SignatureError(f"missing class path in signature: {raw!r}")
    member = member.strip()
    lparen = member.find("(")
    if lparen == -1 or not member.endswith(")"):
        raise SignatureError(f"missing parameter list in signature: {raw!r}")
    method = member[:lparen].strip()
    if not method:
        raise SignatureError(f"missing method name in signature: {raw!r}")
    params = _split_params(member[lparen + 1 : -1], raw)
    package, class_path = _split_class_path(prefix)
    if not class_path:
        raise SignatureError(f"missing class name in signature: {raw!r}")
    return MethodRef(package, class_path, method, tuple(params))


def _split_params(content: str, raw: str) -> list[str]:
    """Split on top-level commas and canonicalize each parameter's spacing."""
    if "  " in content or not content.isprintable():  # a run of spaces, or a tab, newline, ...
        content = " ".join(content.split())
    # text, separator, paren, text, ...: the split drops whitespace around <>[] and commas
    parts = _PARAM_SEPARATOR_RE.split(content)
    if len(parts) == 1:
        content = content.strip()
        return [content] if content else []
    params = []
    current = parts[0]
    depth = 0
    pieces = iter(parts[1:])
    for separator, paren, text in zip(pieces, pieces, pieces):
        separator = separator or paren
        if separator == ",":
            if depth == 0:
                params.append(current.strip())
                current = text
                continue
            separator = ", "
        elif separator in "(<[":
            depth += 1
        else:
            depth -= 1
            if depth < 0:
                raise SignatureError(f"unbalanced brackets in signature: {raw!r}")
        current += separator + text
    if depth != 0:
        raise SignatureError(f"unbalanced brackets in signature: {raw!r}")
    params.append(current.strip())
    if not all(params):
        raise SignatureError(f"empty parameter in signature: {raw!r}")
    return params


def _split_class_path(prefix: str) -> tuple[str, str]:
    segments = prefix.split(".")
    for i, segment in enumerate(segments):
        if segment and segment[0].isupper():
            return ".".join(segments[:i]), ".".join(segments[i:])
    return ".".join(segments[:-1]), segments[-1]


def parse_record_line(line: str) -> RefactoringRecord:
    """Parse one JSON record line; raises ValueError with the defect named."""
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc.msg}") from None
    if not isinstance(data, dict):
        raise ValueError("record is not an object")
    keys = set(data)
    missing = RECORD_KEYS - keys
    extra = keys - RECORD_KEYS
    if missing:
        raise ValueError(f"missing keys: {', '.join(sorted(missing))}")
    if extra:
        raise ValueError(f"unexpected keys: {', '.join(sorted(extra))}")
    _require_strings(data, ("project", "author_name"))
    project = data["project"].strip()
    if not project:
        raise ValueError("empty project name")
    return RefactoringRecord(project=project, **parse_edge_fields(data))


def parse_records(lines: Iterable[str], strict: bool = False) -> ParseResult:
    """Parse a stream of record lines, collecting per-line errors.

    Blank lines are ignored.  A malformed line is skipped and reported with
    its 1-based line number; in strict mode the first malformed line raises
    :class:`RecordError` instead.
    """
    records: list[RefactoringRecord] = []
    issues: list[ParseIssue] = []
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append(parse_record_line(line))
        except (ValueError, SignatureError) as exc:
            if strict:
                raise RecordError(f"line {line_no}: {exc}") from None
            issues.append(ParseIssue(line_no, str(exc)))
    return ParseResult(tuple(records), tuple(issues))


def _matches_keyword(ref: MethodRef, keywords: frozenset[str]) -> bool:
    return any(seg.lower() in keywords for seg in ref.package.split(".") if seg)


def _is_constructor(ref: MethodRef) -> bool:
    return ref.method == "<init>" or ref.method == ref.class_simple_name


def apply_filters(
    records: Iterable[RefactoringRecord],
    config: FilterConfig = FilterConfig(),
) -> tuple[list[RefactoringRecord], dict[str, int]]:
    """Drop excluded records; returns kept records plus counts per reason.

    A record matched by several rules is counted once, under the first rule
    that fires (package keyword, then constructor, then self-loop).  Kept
    order is the input order.
    """
    keywords = frozenset(k.lower() for k in config.excluded_package_keywords)
    report = {reason: 0 for reason in FILTER_REASONS}
    kept: list[RefactoringRecord] = []
    for record in records:
        reason = _exclusion_reason(record, keywords, config)
        if reason is None:
            kept.append(record)
        else:
            report[reason] += 1
    return kept, report


def _exclusion_reason(
    record: RefactoringRecord, keywords: frozenset[str], config: FilterConfig
) -> str | None:
    if keywords and (
        _matches_keyword(record.source, keywords) or _matches_keyword(record.target, keywords)
    ):
        return REASON_PACKAGE_KEYWORD
    if config.drop_constructors and (
        _is_constructor(record.source) or _is_constructor(record.target)
    ):
        return REASON_CONSTRUCTOR
    if record.source.canonical == record.target.canonical:
        return REASON_SELF_LOOP
    return None
